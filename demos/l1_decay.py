"""
Why no copy of l1 fits inside
=============================

For n incomparable nodes the best l1-lower constant of the block basis
decays like 1/sqrt(n): any unit-l1 combination has norm at most about
n * (1/n)^2 summed over singletons.  The experiment layer measures the
decay and a few related constants.
"""

import math

from jamestree import (
    antichain_blocks,
    basic_sequence_constant,
    chain_blocks,
    l1_lower_constants,
    standard_basis_blocks,
    w_cauchy_probe,
)
from jamestree.nodes import Segment

# upper estimates of the l1-lower constant on growing antichains
blocks = antichain_blocks(25)
constants = l1_lower_constants(blocks, (1, 4, 9, 16, 25), budget=120, seed=0)
print(" n   c_n      c_n*sqrt(n)")
for n, c in constants.items():
    print(f"{n:2d}   {c:.4f}   {c * math.sqrt(n):.4f}")

# the scaled column hugging 1 means the 1/sqrt(n) rate is exact here;
# a space containing l1 would keep c_n bounded away from zero

# block bases of this basis are monotone: the constant is exactly 1
for label, seq in (
    ("standard basis ", standard_basis_blocks(6)),
    ("antichain      ", antichain_blocks(6)),
    ("chain          ", chain_blocks(6)),
):
    print(label, "basis constant:", basic_sequence_constant(seq, samples=20))

# partial sums look Cauchy against any fixed interval functional
from jamestree import JTVector

x = JTVector.from_entries({"": 1, "0": 2, "10": -1, "11": 1})
seq = [x.partial_sum(k) for k in range(1, 8)]
for record in w_cauchy_probe(seq, [Segment.parse("..0"), Segment.parse("1..11")]):
    print(record["interval"], "values:", record["values"], "moduli:", record["moduli"])

"""
Computing the norm
==================

The squared norm is a maximum over families of pairwise disjoint
segments; the dynamic program finds it exactly, and on small inputs an
exhaustive oracle confirms it.
"""

import math
from fractions import Fraction

from jamestree import FLOAT, JTVector, brute_force_norm, jt_norm, norm_lower_upper

# a small vector with mixed signs
x = JTVector.from_entries({"": 1, "0": Fraction(-5, 2), "01": 3})
witness = jt_norm(x)
print("value_squared =", witness.value_squared)
print("value        ~", round(witness.value, 6))
print("best family  =", [str(seg) for seg in witness.family])

# the exhaustive oracle agrees segment for segment
oracle = brute_force_norm(x)
assert oracle.value_squared == witness.value_squared
assert oracle.family == witness.family
print("oracle agrees on value and witness")

# stacking same-sign mass along a chain beats splitting it
y = JTVector.from_entries({"": 1, "0": 1})
print("chain of two ones:", jt_norm(y).value_squared, "via", [str(s) for s in jt_norm(y).family])

# spreading mass across an antichain splits into singleton segments
z = JTVector.from_entries({"00": 1, "01": 1, "10": 1, "11": 1})
print("four siblings:   ", jt_norm(z).value_squared, "via", [str(s) for s in jt_norm(z).family])

# the squared norm always sits between sum of squares and (sum of abs)^2
lower, upper = norm_lower_upper(x)
print(f"sandwich: {lower} <= {witness.value_squared} <= {upper}")

# prefixes of the enumeration only ever gain norm
for k in (1, 2, 3, 200):
    s_k = x.partial_sum(k)
    print(f"||s_{k}||^2 =", jt_norm(s_k).value_squared)

# the float backend is an input policy: it reads binary64 values, each an
# exact dyadic rational, so 0.1 is read as 3602879701896397/2^55 and the
# norm is the exact norm of what was read; the CLI rounds what it prints once
xf = JTVector.from_entries({"": 0.1, "0": 0.2}, FLOAT)
wf = jt_norm(xf)
assert wf.value_squared == (Fraction(0.1) + Fraction(0.2)) ** 2
print("float-read:   ", wf.value_squared, "~", float(wf.value_squared))
print("its root      ~", wf.value, "vs", math.sqrt(float(Fraction(3, 10) ** 2)), "for 3/10")

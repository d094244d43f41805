"""
Computing the norm
==================

The squared norm is a maximum over families of pairwise disjoint
segments; the dynamic program finds it exactly, and on small inputs an
exhaustive oracle confirms it.
"""

import math
from fractions import Fraction

from jamestree import JTVector, brute_force_norm, jt_norm, norm_lower_upper

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

# the float backend runs the same integer dynamic program and rounds once
xf = x.to_float()
print("float backend:", jt_norm(xf).value_squared, "vs exact", float(witness.value_squared))
assert math.isclose(jt_norm(xf).value_squared, float(witness.value_squared), rel_tol=1e-9)

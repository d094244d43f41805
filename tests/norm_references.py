"""Test-only reference engines for the tree norm.

``envelope_norm`` is the norm DP the library shipped before its support
forest engine: a bottom-up pass over the support closure forest (every
node on a chain between two support nodes) that keeps, per node, the
upper envelope of the open-segment lines a -> 2c*a + (c^2 + d).  It is
kept verbatim, renamed only, as an independent second engine.

``chain_norm`` is the 2-variation of a chain's prefix sums,
f(j) = max_{i<j} f(i) + (P_j - P_i)^2, in O(m^2) steps: on a chain, an
optimal family extends to a partition into consecutive runs, so this is
the norm at any length.

``scan_interval_sum`` is the interval sum the library shipped before its
preorder sweep (``norm.interval_sums``): one scan of the whole support in
enumeration order per interval, kept verbatim, renamed only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from jamestree.nodes import Interval, Segment, index_of, node_at
from jamestree.norm import NormWitness
from jamestree.vectors import JTVector

FRESH = -1


def _upper_envelope(options: list) -> list:
    """Keep the options whose lines 2c*a + (c^2+d) form the upper envelope."""
    if len(options) <= 1:
        return list(options)
    decorated = []
    for j, opt in enumerate(options):
        c, d = opt[0], opt[1]
        decorated.append((2 * c, c * c + d, j, opt))
    decorated.sort(key=lambda t: (t[0], -t[1], t[2]))
    stack: list = []
    for m, b, _, opt in decorated:
        if stack and stack[-1][0] == m:
            continue  # flatter duplicate slope, intercept no larger
        while len(stack) >= 2:
            m1, b1, _ = stack[-2]
            m2, b2, _ = stack[-1]
            # middle line never strictly above the outer two
            if (b1 - b2) * (m - m2) >= (b2 - b) * (m2 - m1):
                stack.pop()
            else:
                break
        stack.append((m, b, opt))
    return [opt for _, _, opt in stack]


def _closure_forest(ids: Sequence[int]) -> tuple[list[int], dict[int, list[int]]]:
    """Support closure as packed enumeration indices.

    Returns (roots, children); roots are the minimal support nodes and the
    closure is every node on a chain from a root down to a support node.
    Packed index arithmetic: parent of id v is v >> 1.
    """
    supp = set(ids)
    minimal = set()
    for t in ids:
        cur = t >> 1
        while cur and cur not in supp:
            cur >>= 1
        if not cur:
            minimal.add(t)
    closure: set[int] = set()
    for t in ids:
        cur = t
        while cur not in closure:
            closure.add(cur)
            if cur in minimal:
                break
            cur >>= 1
    children: dict[int, list[int]] = {v: [] for v in closure}
    for v in sorted(closure):
        if v not in minimal:
            children[v >> 1].append(v)
    return sorted(minimal), children


def envelope_norm(x: JTVector) -> NormWitness:
    """Squared norm with a maximizing disjoint segment family, by the DP.

    Handles any finite support.  The witness is trimmed to support
    endpoints, stripped of zero-sum segments, and sorted by (start index,
    end index); its value always matches the optimum exactly.
    """
    zero = Fraction(0)
    vals = {index_of(node): v for node, v in x.entries.items()}
    roots, children = _closure_forest(sorted(vals))

    order = sorted(children, reverse=True)  # children have larger ids than parents
    best: dict[int, Fraction] = {}
    best_idx: dict[int, int] = {}
    options: dict[int, list] = {}

    for v in order:
        kids = children[v]
        b_sum = zero
        for k in kids:
            b_sum = b_sum + best[k]
        xv = vals.get(v, zero)
        raw = [(xv, b_sum, FRESH, FRESH)]
        for k in kids:
            delta = b_sum - best[k]
            for j, opt in enumerate(options[k]):
                raw.append((xv + opt[0], opt[1] + delta, k, j))
        pruned = _upper_envelope(raw)
        options[v] = pruned
        bi = 0
        bv = None
        for j, opt in enumerate(pruned):
            val = opt[0] * opt[0] + opt[1]
            if bv is None or val > bv:
                bi, bv = j, val
        best[v] = bv
        best_idx[v] = bi

    total = zero
    for r in roots:
        total = total + best[r]

    # reconstruct one optimal all-closed family via back-pointers, walking
    # each segment top-down to trim it to its support and sum it
    family = []
    tasks = list(roots)
    while tasks:
        cur = tasks.pop()
        j = best_idx[cur]
        first = last = None
        seg_sum = zero
        while True:
            if cur in vals:
                if first is None:
                    first = cur
                last = cur
                seg_sum = seg_sum + vals[cur]
            _, _, k, jj = options[cur][j]
            for kid in children[cur]:
                if kid != k:
                    tasks.append(kid)
            if k == FRESH:
                break
            cur, j = k, jj
        if seg_sum != 0:  # also drops segments without support nodes
            family.append((first, last))
    family.sort()
    segments = tuple(Segment(node_at(a), node_at(b)) for a, b in family)
    return NormWitness(total, segments)


def chain_norm(values: Sequence) -> Fraction:
    """Squared norm of values placed top-down on one chain of nodes.

    Runs on integers: the values are scaled by the lcm L of their
    denominators and the result is divided by L^2.
    """
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    f = [0]  # f[j]: best over the first j values
    prefix = [0]  # P_j, the sum of the first j values
    for v in values:
        p = prefix[-1] + int(Fraction(v) * scale)
        f.append(max(fi + (p - pi) * (p - pi) for fi, pi in zip(f, prefix)))
        prefix.append(p)
    return Fraction(f[-1], scale * scale)


def scan_interval_sum(interval: Interval, x: JTVector) -> Fraction:
    """I*(x) = sum of x_s over support nodes s lying in the interval."""
    total = Fraction(0)
    for node, value in x.items():
        if interval.contains(node):
            total += value
    return total

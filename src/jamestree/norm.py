"""Exact computation of the tree norm.

The squared norm of a finitely supported vector x is the maximum of

    sum_i ( sum over nodes s in F_i of x_s )^2

over finite families {F_i} of pairwise disjoint segments.  Two engines
compute it:

* ``jt_norm(x)`` runs a dynamic program over the support
  closure forest (every node lying on a chain between two support nodes,
  rooted at the minimal support nodes).  Per node it keeps the best
  all-closed value plus a set of "open segment" states; a state (c, d)
  closed later above with accumulated ancestor sum a is worth
  (a + c)^2 + d, linear in a once the common a^2 is dropped, so the state
  set is pruned to the upper envelope of the lines a -> 2c*a + (c^2 + d).

* ``brute_force_norm`` exhaustively searches disjoint subfamilies of the
  candidate segments (both endpoints in the support) and is the oracle
  the DP is checked against.  Trimming a segment to its extreme support
  nodes changes neither its sum nor disjointness, so restricting to these
  candidates loses nothing.

``eval_interval`` is the one sum of a vector over a segment or branch; it
visits the support, not the interval's nodes.

All arithmetic stays on squared values; on the exact backend no square
root is ever taken, so oracle-vs-DP comparisons are literal equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .nodes import Interval, Segment, disjoint, index_of, node_at
from .vectors import FLOAT, JTVector, Scalar, zero_scalar

SegmentFamily = tuple[Segment, ...]

FRESH = -1


class OverlappingSegmentsError(ValueError):
    """Raised when a family that must be disjoint is not."""


class InstanceTooLargeError(ValueError):
    """Raised when the exhaustive oracle is asked for too many candidates."""


@dataclass(frozen=True)
class NormWitness:
    """Squared norm value together with a family of segments achieving it."""

    value_squared: Scalar
    family: SegmentFamily

    @property
    def value(self) -> float:
        """Binary64 square root, for display; value_squared is the exact datum.

        An exact p/q beyond binary64 takes the root as isqrt(p*q)/q; a root
        beyond binary64 raises OverflowError.
        """
        v = self.value_squared
        try:
            return math.sqrt(float(v))
        except OverflowError:
            return math.isqrt(v.numerator * v.denominator) / v.denominator


def eval_interval(interval: Interval, x: JTVector) -> Scalar:
    """I*(x) = sum of x_s over support nodes s lying in the interval."""
    total = zero_scalar(x.backend)
    for node, value in x.items():
        if interval.contains(node):
            total += value
    return total


def family_value_squared(x: JTVector, family: Iterable[Segment]) -> Scalar:
    """Sum of squared segment sums; rejects overlapping families."""
    segs = tuple(family)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if not disjoint(segs[i], segs[j]):
                raise OverlappingSegmentsError(
                    f"segments {segs[i]} and {segs[j]} overlap"
                )
    total = zero_scalar(x.backend)
    for seg in segs:
        s = eval_interval(seg, x)
        total += s * s
    return total


def norm_lower_upper(x: JTVector) -> tuple[Scalar, Scalar]:
    """Sandwich for the squared norm: (sum x_s^2, (sum |x_s|)^2).

    The lower bound is the all-singletons family; the upper bound holds
    because each node lands in at most one segment of a disjoint family.
    """
    low = zero_scalar(x.backend)
    high = zero_scalar(x.backend)
    for _, v in x.entries.items():
        low += v * v
        high += abs(v)
    return low, high * high


def candidate_segments(x: JTVector) -> list[Segment]:
    """All segments with both endpoints in supp(x), sorted by (start, end)."""
    supp = sorted(x.support())
    return [Segment(s, t) for s in supp for t in supp if s.precedes(t)]


def brute_force_norm(x: JTVector, max_candidates: int = 22) -> NormWitness:
    """Exhaustive maximum over disjoint subfamilies of candidate segments.

    Ties are broken by fewer segments, then by the lexicographically
    smallest sorted list of (start index, end index) pairs, so the witness
    is deterministic.  Intended as the small-instance oracle; raises once
    the candidate count exceeds ``max_candidates``.
    """
    zero = zero_scalar(x.backend)
    cands = candidate_segments(x)
    n = len(cands)
    if n > max_candidates:
        raise InstanceTooLargeError(
            f"{n} candidate segments exceed the oracle bound {max_candidates}"
        )

    keys = [(index_of(seg.start), index_of(seg.end)) for seg in cands]
    squares = []
    for seg in cands:
        s = eval_interval(seg, x)
        squares.append(s * s)

    conflict = [0] * n  # bitmask of candidates overlapping candidate i
    for i in range(n):
        for j in range(i + 1, n):
            if not disjoint(cands[i], cands[j]):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i

    # potential[i] bounds what candidates i.. can still contribute
    potential = [zero] * (n + 1)
    for i in range(n - 1, -1, -1):
        potential[i] = potential[i + 1] + squares[i]

    best_value = zero
    best_rank: tuple = (0, [])
    best_family: list[int] = []
    chosen: list[int] = []

    def consider(value) -> None:
        nonlocal best_value, best_rank, best_family
        rank = (len(chosen), [keys[i] for i in chosen])
        if value > best_value or (value == best_value and rank < best_rank):
            best_value = value
            best_rank = rank
            best_family = list(chosen)

    def search(i: int, allowed: int, value) -> None:
        while i < n and not (allowed >> i) & 1:
            i += 1
        if i == n:
            return
        # strict prune only, so equal-value families stay in tie-break play
        if value + potential[i] < best_value:
            return
        chosen.append(i)
        taken = value + squares[i]
        consider(taken)
        search(i + 1, allowed & ~conflict[i], taken)
        chosen.pop()
        search(i + 1, allowed, value)

    search(0, (1 << n) - 1, zero)

    family = tuple(cands[i] for i in best_family)
    return NormWitness(best_value, family)


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


def jt_norm(x: JTVector) -> NormWitness:
    """Squared norm with a maximizing disjoint segment family, by the DP.

    Handles any finite support.  The witness is trimmed to support
    endpoints, stripped of zero-sum segments, and sorted by (start index,
    end index); its value always matches the optimum exactly on the exact
    backend.
    """
    zero = zero_scalar(x.backend)
    vals = {index_of(node): v for node, v in x.entries.items()}
    roots, children = _closure_forest(sorted(vals))

    order = sorted(children, reverse=True)  # children have larger ids than parents
    best: dict[int, Scalar] = {}
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
    if x.backend == FLOAT and not math.isfinite(total):
        raise OverflowError("the squared norm overflows binary64")

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

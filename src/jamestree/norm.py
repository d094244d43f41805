"""Exact computation of the tree norm.

The squared norm of a finitely supported vector x is the maximum of

    sum_i ( sum over nodes s in F_i of x_s )^2

over finite families {F_i} of pairwise disjoint segments.  Two engines
compute it:

* ``jt_norm(x)`` solves it as a maximum-square path partition of the
  support forest, where a support node's parent is its deepest proper
  support ancestor: adding a disjoint segment never lowers the value, and
  trimmed segments meet iff their support nodes do.  With P(b) the sum of
  x over b's root path and q the value of P above a path's top, a path
  down to b is worth q^2 + (-2P(b)*q + P(b)^2 + rest), a line in q, so a
  mergeable Li Chao tree per subtree finds each node's best path.  Both
  backends run it on integers: every value is p/q, the DP scales by the
  lcm L of the denominators and divides by L^2 once, so a float result is
  the correctly rounded exact optimum of its binary64 inputs.

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
from fractions import Fraction
from typing import Iterable

from .nodes import Interval, Segment, disjoint, index_of, node_at
from .vectors import EXACT, JTVector, Scalar, zero_scalar

SegmentFamily = tuple[Segment, ...]


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

        A p/q that float(p/q) would overflow or round toward zero takes the
        root as isqrt(p*q)/q, where p*q has over 1,000 bits; a root beyond
        binary64 raises OverflowError.
        """
        p, q = self.value_squared.as_integer_ratio()
        if abs(p.bit_length() - q.bit_length()) < 1020:
            return math.sqrt(p / q)
        try:
            return math.isqrt(p * q) / q
        except OverflowError:
            raise OverflowError("the norm exceeds binary64") from None


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

    # depth-first, taking candidate i before skipping it; a stack entry is
    # (next candidate, still allowed, value so far, len(chosen) on its path)
    stack = [(0, (1 << n) - 1, zero, 0)]
    while stack:
        i, allowed, value, depth = stack.pop()
        del chosen[depth:]
        while i < n and not (allowed >> i) & 1:
            i += 1
        # strict prune only, so equal-value families stay in tie-break play
        if i == n or value + potential[i] < best_value:
            continue
        stack.append((i + 1, allowed, value, depth))
        chosen.append(i)
        taken = value + squares[i]
        rank = (len(chosen), [keys[k] for k in chosen])
        if taken > best_value or (taken == best_value and rank < best_rank):
            best_value, best_rank, best_family = taken, rank, list(chosen)
        stack.append((i + 1, allowed & ~conflict[i], taken, depth + 1))

    family = tuple(cands[i] for i in best_family)
    return NormWitness(best_value, family)


def _merge(t: list, u, d: int, lo: int, hi: int, points: list, slope: list) -> list:
    """Li Chao tree u, whose lines read d higher in t's frame, merged into t.

    Both span points[lo..hi].  A node [b, c, tag, left, right] holds the line
    a -> c - slope[b]*a, and tag is an add its subtrees still owe.
    """
    if u is None:
        return t
    if t is None:
        u[1] += d
        u[2] += d
        return u
    inner, mid = d + u[2] - t[2], (lo + hi) >> 1
    t[3] = _merge(t[3], u[3], inner, lo, mid, points, slope)
    t[4] = _merge(t[4], u[4], inner, mid + 1, hi, points, slope)
    # u's own line: the loser at mid can win on one side only
    b, c, a = u[0], u[1] + d, points[mid]
    if c - slope[b] * a > t[1] - slope[t[0]] * a:  # an equal line stays out
        t[0], b, t[1], c = b, t[0], c, t[1]
    if lo < hi and slope[b] != slope[t[0]]:
        line = [b, c - t[2], 0, None, None]
        if slope[b] > slope[t[0]]:  # the faster-falling line wins left of mid
            t[3] = _merge(t[3], line, 0, lo, mid, points, slope)
        else:
            t[4] = _merge(t[4], line, 0, mid + 1, hi, points, slope)
    return t


def jt_norm(x: JTVector) -> NormWitness:
    """Squared norm with a maximizing disjoint segment family, by the DP.

    Handles any finite support.  The witness is trimmed to support
    endpoints, stripped of zero-sum segments, and sorted by (start index,
    end index).  The value is exact on the exact backend and the correctly
    rounded exact optimum on the float backend.
    """
    vals = {index_of(node): v for node, v in x.entries.items()}
    width = max(vals, default=0).bit_length()
    ids = sorted(vals, key=lambda v: (v << (width - v.bit_length()), v))  # preorder
    n = len(ids)
    ratios = [vals[v].as_integer_ratio() for v in ids]
    scale = math.lcm(*(q for _, q in ratios))

    # support forest on positions 0..n-1: a node's parent is its deepest proper
    # support ancestor, the last (subtree's padded key end, position) on the stack
    parent = [-1] * n
    prefix = [0] * n  # sum of the lifted values over the root path
    stack: list[tuple[int, int]] = []
    for i, v in enumerate(ids):
        pad = width - v.bit_length()
        while stack and v << pad >= stack[-1][0]:
            stack.pop()
        p, q = ratios[i]
        parent[i] = stack[-1][1] if stack else -1
        prefix[i] = p * (scale // q) + (prefix[parent[i]] if stack else 0)
        stack.append(((v + 1) << pad, i))
    above = [prefix[p] if p >= 0 else 0 for p in parent]
    points = sorted(set(above))
    last = len(points) - 1
    slope = [2 * p for p in prefix]  # a path down to b is the line c - slope[b]*a

    # bottom-up: best[i] is the max over paths i..b of (P(b) - above[i])^2
    # plus the best of every subtree off the path.  A node's tree holds its
    # lines less below[i]; passing it up adds the siblings' best to them.
    tree: list = [None] * n
    below = [0] * n  # sum of the children's best
    best = [0] * n
    end = [0] * n  # bottom of the path attaining best
    for i in range(n - 1, -1, -1):
        t = _merge(tree[i], [i, prefix[i] ** 2, 0, None, None], 0, 0, last, points, slope)
        a, lo, hi, node, acc, top = above[i], 0, last, t, 0, None
        while node is not None:
            value = node[1] + acc - slope[node[0]] * a
            if top is None or value > top:
                top, end[i] = value, node[0]
            acc += node[2]
            mid = (lo + hi) >> 1
            if a <= points[mid]:
                node, hi = node[3], mid
            else:
                node, lo = node[4], mid + 1
        best[i] = a * a + top + below[i]
        t[1] += below[i] - best[i]
        t[2] += below[i] - best[i]
        if parent[i] >= 0:
            below[parent[i]] += best[i]
            # ties go to the earlier child, whose tree t is the base
            tree[parent[i]] = _merge(t, tree[parent[i]], 0, 0, last, points, slope)
    total = sum(best[i] for i in range(n) if parent[i] < 0)

    # one optimal family: in preorder, a node no earlier path took is the
    # top of its own path, which runs down to end[top]; taken nodes get end -1
    family = []
    for i in range(n):
        b = end[i]
        if b >= 0:
            if prefix[b] != above[i]:
                family.append((ids[i], ids[b]))
            while b != i:
                end[b] = -1
                b = parent[b]
    segments = tuple(Segment(node_at(a), node_at(b)) for a, b in sorted(family))
    if x.backend == EXACT:
        return NormWitness(Fraction(total, scale * scale), segments)
    try:
        return NormWitness(total / (scale * scale), segments)
    except OverflowError:
        raise OverflowError("the squared norm overflows binary64") from None

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

``interval_sums`` is the one sum of a vector over segments and branches:
one preorder sweep of the support and a query node per interval, so many
disjoint intervals cost about as much as the support.  ``eval_interval``
is its one-interval form, and ``first_overlap`` checks a whole family's
disjointness in the same preorder.

All arithmetic stays on squared values; on the exact backend no square
root is ever taken, so oracle-vs-DP comparisons are literal equality.
The one root, for display, is rounded once (``rounded_root``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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

        Correctly rounded; a root beyond binary64 raises OverflowError.
        """
        try:
            return rounded_root(*self.value_squared.as_integer_ratio())
        except OverflowError:
            raise OverflowError("the norm exceeds binary64") from None


def rounded_root(p: int, q: int) -> float:
    """The binary64 nearest sqrt(p/q), for p >= 0 and q > 0: one rounding.

    With k such that r = isqrt(p * 4^k // q) has at least 60 bits, the root
    is r / 2^k up to less than one unit of r, and a sticky bit marks an
    inexact r.  Every rounding boundary of a 53-bit result is then an
    integer multiple of that unit, so the one correctly rounded int
    division (2r + sticky) / 2^(k+1) rounds as the root does, subnormals
    included.  A root beyond binary64 raises OverflowError.
    """
    k = max(0, 60 - (p.bit_length() - q.bit_length()) // 2)
    scaled = p << 2 * k
    r = math.isqrt(scaled // q)
    return (2 * r + (r * r * q != scaled)) / (1 << (k + 1))


def interval_sums(intervals: Sequence[Interval], x: JTVector) -> list[Scalar]:
    """I*(x) for every interval, in one preorder sweep of the support.

    An interval's support nodes are the support ancestors-or-self of one
    query node that lie at or below the interval's top level: a segment's
    end, or a branch's node at the deepest support level (its stem, when
    that is deeper).  Sorted together in preorder, with a support node
    before an equal query node, an ancestor stack gives each query its
    deepest support ancestor-or-self, and the support-forest parents from
    there are the interval's nodes, bottom-up.  Their values are added
    top-down from zero, the order of a scan in enumeration order, so float
    sums round as such a scan would.  The walks of pairwise disjoint
    intervals visit each support node at most once.
    """
    ids = [node.index for node in x.entries]
    values = list(x.entries.values())
    depth = max(ids, default=1).bit_length() - 1  # the deepest support level
    queries, tops = [], []  # per interval: its query node, its top node's bit length
    for iv in intervals:
        if isinstance(iv, Segment):
            top, query = iv.start, iv.end
        else:
            top, query = iv.stem, iv.node_at_level(max(iv.stem.level, depth))
        queries.append(query.index)
        tops.append(top.index.bit_length())
    width = max(ids + queries, default=1).bit_length()
    items = []  # (preorder key, bit length, 0 for support or 1 for a query, position)
    for kind, nodes in ((0, ids), (1, queries)):
        for i, v in enumerate(nodes):
            bits = v.bit_length()
            items.append((v << (width - bits), bits, kind, i))
    items.sort()

    parent = [-1] * len(ids)  # deepest proper support ancestor
    bits_of = [0] * len(ids)
    deepest = [-1] * len(queries)  # deepest support ancestor-or-self
    stack: list[tuple[int, int]] = []  # (subtree's key end, support position)
    for key, bits, kind, i in items:
        while stack and key >= stack[-1][0]:
            stack.pop()
        top = stack[-1][1] if stack else -1
        if kind:
            deepest[i] = top
        else:
            parent[i], bits_of[i] = top, bits
            stack.append((key + (1 << (width - bits)), i))

    zero = zero_scalar(x.backend)
    sums = []
    for top_bits, i in zip(tops, deepest):
        path = []
        while i >= 0 and bits_of[i] >= top_bits:
            path.append(values[i])
            i = parent[i]
        total = zero
        for v in reversed(path):
            total += v
        sums.append(total)
    return sums


def first_overlap(intervals: Sequence[Interval]) -> tuple[int, int] | None:
    """Positions i < j of two intervals that meet, or None if none do.

    Two intervals meet iff the one that starts deeper starts inside the
    other, and equal starts always meet.  In preorder of the starts, each
    start is tested only against the nearest start at or above it, the top
    of an ancestor stack: a farther interval that contains it also contains
    that nearer start, a meeting found before.  One containment test per
    interval, after an O(m log m) sort.
    """
    starts = [iv.start if isinstance(iv, Segment) else iv.stem for iv in intervals]
    width = max((s.index for s in starts), default=1).bit_length()
    pads = [width - s.index.bit_length() for s in starts]
    # preorder, an ancestor before the descendants that share its key;
    # the sort is stable, so equal starts keep their order
    order = sorted(range(len(starts)), key=lambda i: (starts[i].index << pads[i], -pads[i]))
    stack: list[tuple[int, int]] = []  # (start's subtree key end, position)
    for i in order:
        key = starts[i].index << pads[i]
        while stack and key >= stack[-1][0]:
            stack.pop()
        if stack and intervals[stack[-1][1]].contains(starts[i]):
            j = stack[-1][1]
            return min(i, j), max(i, j)
        stack.append((key + (1 << pads[i]), i))
    return None


def eval_interval(interval: Interval, x: JTVector) -> Scalar:
    """I*(x) = sum of x_s over support nodes s lying in the interval."""
    return interval_sums([interval], x)[0]


def family_value_squared(x: JTVector, family: Iterable[Segment]) -> Scalar:
    """Sum of squared segment sums; rejects overlapping families."""
    segs = tuple(family)
    pair = first_overlap(segs)
    if pair is not None:
        i, j = pair
        raise OverlappingSegmentsError(f"segments {segs[i]} and {segs[j]} overlap")
    total = zero_scalar(x.backend)
    for s in interval_sums(segs, x):
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
    squares = [s * s for s in interval_sums(cands, x)]

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

"""Exact computation of the tree norm.

The squared norm of a finitely supported vector x is the maximum of

    sum_i ( sum over nodes s in F_i of x_s )^2

over finite families {F_i} of pairwise disjoint segments.  Everything
here reads one lifted support forest of x, built by one preorder sweep on
an ancestor stack: the support in preorder, a node's parent its deepest
proper support ancestor, and P(b), the sum of x over b's root path scaled
to an integer by the lcm L of the denominators (every value is p/q).

* ``jt_norm(x)`` solves the norm as a maximum-square path partition of
  the support forest: adding a disjoint segment never lowers the value,
  and trimmed segments meet iff their support nodes do.  With q the value
  of P above a path's top, a path down to b is worth q^2 + (-2P(b)*q +
  P(b)^2 + rest), a line in q, so a mergeable Li Chao tree per subtree
  finds each node's best path.

* ``brute_force_norm`` exhaustively searches disjoint subfamilies of the
  candidate segments (both endpoints in the support) and is the oracle
  the DP is checked against.  Trimming a segment to its extreme support
  nodes changes neither its sum nor disjointness, so restricting to these
  candidates loses nothing.

``interval_sums`` sums x over segments and branches as differences of P,
and ``first_overlap`` checks a family's disjointness with the sweep of its
starts.  Every result is an exact ``Fraction``, an integer over L or L^2.
No square root is taken on the way, so oracle-vs-DP comparisons are
literal equality; the one root, for display, is rounded once
(``rounded_root``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# index_of and node_at are not called here: perfbench/spans.py patches both
# names on this module, and tests/test_tooling.py checks that it still can
from .nodes import Interval, Segment, disjoint, index_of, node_at  # noqa: F401
from .vectors import JTVector

SegmentFamily = tuple[Segment, ...]


class OverlappingSegmentsError(ValueError):
    """Raised when a family that must be disjoint is not."""


class InstanceTooLargeError(ValueError):
    """Raised when the exhaustive oracle is asked for too many candidates."""


@dataclass(frozen=True)
class NormWitness:
    """Squared norm value together with a family of segments achieving it."""

    value_squared: Fraction
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


def _sweep(nodes: Sequence[int], queries: Sequence[int] = ()) -> tuple[list, list, list]:
    """The one preorder sweep of node indices, on an ancestor stack.

    Padded to one width, a node's subtree is one range of keys; the stack
    holds the ranges still open.  Returns the positions of ``nodes`` in
    preorder (an ancestor first, equal nodes in input order); per preorder
    position, that of the nearest earlier node at or above it; and per
    query, that of its deepest ancestor-or-self among the nodes.  -1 is
    none, as for the query 0, the root's parent.
    """
    width = max([1, *nodes, *queries]).bit_length()
    items = []  # (preorder key, bit length, 0 for a node or 1 for a query, position)
    for kind, group in ((0, nodes), (1, queries)):
        for i, v in enumerate(group):
            bits = v.bit_length()
            items.append((v << (width - bits), bits, kind, i))
    items.sort()

    order: list[int] = []
    parent: list[int] = []
    deepest = [-1] * len(queries)
    stack: list[tuple[int, int]] = []  # (subtree's key end, preorder position)
    for key, bits, kind, i in items:
        while stack and key >= stack[-1][0]:
            stack.pop()
        top = stack[-1][1] if stack else -1
        if kind:
            deepest[i] = top
        else:
            stack.append((key + (1 << (width - bits)), len(order)))
            order.append(i)
            parent.append(top)
    return order, parent, deepest


def _lift(x: JTVector, intervals: Sequence[Interval] = ()) -> tuple[list, list, list, int, list]:
    """The support forest of x on integers, and every interval's sum on it.

    Returns the support's indices in preorder, their parents (-1 for a
    root), the prefix sums P of x over the root paths times L, the lcm L
    of the denominators, and each interval's sum times L.  P[-1] = 0 is
    the sum above a root.  A segment s..t sums to P(t) - P(s >> 1), each P
    read at the query's deepest support ancestor-or-self (s >> 1 is 0 for
    the root, which has nothing above it).  A branch sums as the segment
    from its stem to its node at the deepest support level, or to its stem
    when that is deeper.
    """
    nodes = list(x.entries)
    depth = max(nodes, default=1).bit_length() - 1
    queries = []
    for iv in intervals:
        if isinstance(iv, Segment):
            top, end = iv.start, iv.end
        else:
            top, end = iv.stem, iv.node_at_level(max(iv.stem.level, depth))
        queries += (end, top >> 1)
    order, parent, deepest = _sweep(nodes, queries)
    values = list(x.entries.values())
    ratios = [values[i].as_integer_ratio() for i in order]
    scale = math.lcm(*(q for _, q in ratios))
    prefix = [0] * (len(order) + 1)
    for j, (p, q) in enumerate(ratios):
        prefix[j] = p * (scale // q) + prefix[parent[j]]
    sums = [prefix[e] - prefix[t] for e, t in zip(deepest[::2], deepest[1::2])]
    return [nodes[i] for i in order], parent, prefix, scale, sums


def interval_sums(intervals: Sequence[Interval], x: JTVector) -> list[Fraction]:
    """I*(x) for every interval: prefix differences on the lifted forest.

    One sweep sorts the support with two query nodes per interval, so many
    intervals, disjoint or not, cost about a sort of the support and the
    queries.
    """
    *_, scale, sums = _lift(x, intervals)
    return [Fraction(s, scale) for s in sums]


def first_overlap(intervals: Sequence[Interval]) -> tuple[int, int] | None:
    """Positions i < j of two intervals that meet, or None if none do.

    Two intervals meet iff the one that starts deeper starts inside the
    other, and equal starts always meet.  In preorder of the starts, each
    start is tested only against the nearest start at or above it, its
    parent in the sweep: a farther interval that contains it also contains
    that nearer start, a meeting found before.  One containment test per
    interval, after an O(m log m) sort.
    """
    starts = [iv.start if isinstance(iv, Segment) else iv.stem for iv in intervals]
    order, parent, _ = _sweep(starts)
    for i, up in zip(order, parent):
        if up >= 0 and intervals[order[up]].contains(starts[i]):
            return min(i, order[up]), max(i, order[up])
    return None


def eval_interval(interval: Interval, x: JTVector) -> Fraction:
    """I*(x) = sum of x_s over support nodes s lying in the interval."""
    return interval_sums([interval], x)[0]


def family_value_squared(x: JTVector, family: Iterable[Segment]) -> Fraction:
    """Sum of squared segment sums; rejects overlapping families."""
    segs = tuple(family)
    pair = first_overlap(segs)
    if pair is not None:
        i, j = pair
        raise OverlappingSegmentsError(f"segments {segs[i]} and {segs[j]} overlap")
    *_, scale, sums = _lift(x, segs)
    return Fraction(sum(s * s for s in sums), scale * scale)


def norm_lower_upper(x: JTVector) -> tuple[Fraction, Fraction]:
    """Sandwich for the squared norm: (sum x_s^2, (sum |x_s|)^2).

    The lower bound is the all-singletons family; the upper bound holds
    because each node lands in at most one segment of a disjoint family.
    """
    _, parent, prefix, scale, _ = _lift(x)
    lifted = [abs(prefix[j] - prefix[up]) for j, up in enumerate(parent)]
    low, high = sum(v * v for v in lifted), sum(lifted) ** 2
    return Fraction(low, scale * scale), Fraction(high, scale * scale)


def candidate_segments(x: JTVector) -> list[Segment]:
    """All segments with both endpoints in supp(x), sorted by (start, end)."""
    supp = sorted(x.entries)
    return [Segment(s, t) for s in supp for t in supp if s.precedes(t)]


def brute_force_norm(x: JTVector, max_candidates: int = 22) -> NormWitness:
    """Exhaustive maximum over disjoint subfamilies of candidate segments.

    Ties are broken by fewer segments, then by the lexicographically
    smallest sorted list of (start index, end index) pairs, so the witness
    is deterministic.  Intended as the small-instance oracle; raises once
    the candidate count exceeds ``max_candidates``.
    """
    cands = candidate_segments(x)
    n = len(cands)
    if n > max_candidates:
        raise InstanceTooLargeError(
            f"{n} candidate segments exceed the oracle bound {max_candidates}"
        )

    keys = [(seg.start, seg.end) for seg in cands]
    *_, scale, sums = _lift(x, cands)
    squares = [s * s for s in sums]  # times L^2

    conflict = [0] * n  # bitmask of candidates overlapping candidate i
    for i in range(n):
        for j in range(i + 1, n):
            if not disjoint(cands[i], cands[j]):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i

    # potential[i] bounds what candidates i.. can still contribute
    potential = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        potential[i] = potential[i + 1] + squares[i]

    best_value = 0
    best_rank: tuple = (0, [])
    best_family: list[int] = []
    chosen: list[int] = []

    # depth-first, taking candidate i before skipping it; a stack entry is
    # (next candidate, still allowed, value so far, len(chosen) on its path)
    stack = [(0, (1 << n) - 1, 0, 0)]
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
    return NormWitness(Fraction(best_value, scale * scale), family)


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
    end index).
    """
    ids, parent, prefix, scale, _ = _lift(x)  # positions 0..n-1 in preorder
    n = len(ids)
    above = [prefix[p] for p in parent]  # P above a node; prefix[-1] is 0
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
    segments = tuple(Segment(a, b) for a, b in sorted(family))
    return NormWitness(Fraction(total, scale * scale), segments)

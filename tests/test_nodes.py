"""Tree-core unit tests: enumeration, segments, branches, disjointness."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamestree.nodes import (
    ROOT,
    BranchPrefix,
    InsufficientPrefixError,
    NodeId,
    Segment,
    disjoint,
    enumerate_nodes,
    index_of,
    node_at,
    separation_level,
    successor,
)
from jamestree.vectors import JTVector


# ---------------------------------------------------------------------------
# enumeration


def test_first_nodes():
    assert node_at(1) == ROOT
    assert node_at(2) == NodeId((0,))
    assert node_at(3) == NodeId((1,))
    assert node_at(4) == NodeId((0, 0))
    assert node_at(7) == NodeId((1, 1))


def test_powers_of_two_are_all_zero_sequences():
    for k in range(10):
        assert node_at(1 << k) == NodeId((0,) * k)


def test_node_at_matches_successor_rule():
    # the binary-counter stepping rule on bit tuples is the independent oracle
    bits = ()
    for n in range(1, 1 << 12):
        assert node_at(n).bits == bits and successor(node_at(n)) == node_at(n + 1)
        if all(bits):  # all ones, or the root: roll over to zeros one longer
            bits = (0,) * (len(bits) + 1)
        else:  # the last 0 flips to 1 and everything after it resets to 0
            i0 = max(i for i, b in enumerate(bits) if b == 0)
            bits = bits[:i0] + (1,) + (0,) * (len(bits) - i0 - 1)


def test_index_of_inverts_node_at():
    for n in range(1, 2000):
        assert index_of(node_at(n)) == n


def test_level_is_floor_log2():
    for n in range(1, 1 << 10):
        assert node_at(n).level == n.bit_length() - 1


def test_node_at_rejects_nonpositive():
    with pytest.raises(ValueError):
        node_at(0)
    with pytest.raises(ValueError):
        node_at(-3)


def test_enumerate_nodes():
    assert [str(s) for s in enumerate_nodes(4)] == ["", "0", "1", "00"]
    assert enumerate_nodes(0) == []


def test_parse_and_str_roundtrip():
    for text in ["", "0", "1", "0110", "111"]:
        assert str(NodeId.parse(text)) == text
    with pytest.raises(ValueError):
        NodeId.parse("012")


def test_nodeid_rejects_bad_bits():
    with pytest.raises(ValueError):
        NodeId((0, 2))
    with pytest.raises(ValueError):
        NodeId((0, "x"))
    # values that coerce cleanly to 0/1 are accepted
    assert NodeId((0, "1")).bits == (0, 1)


# ---------------------------------------------------------------------------
# order


def test_precedes_examples():
    assert ROOT.precedes(NodeId((1, 0)))
    assert NodeId((0,)).precedes(NodeId((0, 1)))
    assert not NodeId((0,)).precedes(NodeId((1, 0)))


def test_precedes_is_partial_order():
    rng = random.Random(41)
    pool = [node_at(rng.randint(1, 200)) for _ in range(40)]
    for a in pool:
        assert a.precedes(a)
        for b in pool:
            if a.precedes(b) and b.precedes(a):
                assert a == b
            for c in pool:
                if a.precedes(b) and b.precedes(c):
                    assert a.precedes(c)


# ---------------------------------------------------------------------------
# segments


def test_segment_between_examples():
    assert list(Segment(ROOT, ROOT).nodes()) == [ROOT]
    seg = Segment(NodeId((0,)), NodeId((0, 1, 1)))
    assert [str(s) for s in seg.nodes()] == ["0", "01", "011"]
    assert len(Segment(ROOT, NodeId((1, 0)))) == 3


def test_segment_rejects_incomparable_and_reversed():
    with pytest.raises(ValueError):
        Segment(NodeId((0,)), NodeId((1, 0)))
    with pytest.raises(ValueError):
        Segment(NodeId((0, 1)), NodeId((0,)))


def test_segment_parse():
    seg = Segment.parse("0..011")
    assert seg.start == NodeId((0,)) and seg.end == NodeId((0, 1, 1))
    assert str(seg) == "0..011"
    root_seg = Segment.parse("..")
    assert root_seg.start == ROOT and root_seg.end == ROOT
    with pytest.raises(ValueError):
        Segment.parse("01")  # no separator
    with pytest.raises(ValueError):
        Segment.parse("0..01..1")


def test_segment_nodes_are_convex_chain():
    rng = random.Random(7)
    for _ in range(50):
        end = node_at(rng.randint(1, 500))
        start = end.prefix(rng.randint(0, end.level))
        nodes = list(Segment(start, end).nodes())
        for a, b in zip(nodes, nodes[1:]):
            assert a.precedes(b) and b.level == a.level + 1


# ---------------------------------------------------------------------------
# disjointness


def _segment_node_set(seg):
    return set(seg.nodes())


def test_disjoint_examples():
    assert disjoint(Segment.parse("0..0"), Segment.parse("1..1"))
    assert not disjoint(Segment.parse("..00"), Segment.parse("0..01"))
    assert disjoint(Segment.parse("0..00"), Segment.parse("01..011"))


def test_disjoint_matches_node_sets_on_random_segments():
    rng = random.Random(99)
    for _ in range(300):
        segs = []
        for _ in range(2):
            end = node_at(rng.randint(1, 1 << 10))
            start = end.prefix(rng.randint(0, end.level))
            segs.append(Segment(start, end))
        expected = not (_segment_node_set(segs[0]) & _segment_node_set(segs[1]))
        assert disjoint(segs[0], segs[1]) == expected
        assert disjoint(segs[1], segs[0]) == expected


def _branch_nodes_to(branch, depth):
    return {
        branch.node_at_level(k) for k in range(branch.stem.level, depth + 1)
    }


def test_branch_segment_disjointness_matches_expansion():
    rng = random.Random(17)
    for _ in range(300):
        stem = node_at(rng.randint(1, 60))
        tail = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        branch = BranchPrefix(stem, tail)
        end = node_at(rng.randint(1, 1 << 9))
        start = end.prefix(rng.randint(0, end.level))
        seg = Segment(start, end)
        horizon = end.level + stem.level + len(tail) + 2
        expected = not (_branch_nodes_to(branch, horizon) & _segment_node_set(seg))
        assert disjoint(branch, seg) == expected
        assert disjoint(seg, branch) == expected


def test_branch_branch_disjointness_matches_expansion():
    rng = random.Random(23)
    for _ in range(300):
        branches = []
        for _ in range(2):
            stem = node_at(rng.randint(1, 60))
            tail = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
            branches.append(BranchPrefix(stem, tail))
        a, b = branches
        horizon = max(a.stem.level + len(a.tail), b.stem.level + len(b.tail)) + 4
        expected = not (_branch_nodes_to(a, horizon) & _branch_nodes_to(b, horizon))
        assert disjoint(a, b) == expected
        assert disjoint(b, a) == expected


def test_interval_contains():
    seg = Segment.parse("0..010")
    assert seg.contains(NodeId((0, 1)))
    assert not seg.contains(NodeId((0, 0)))
    branch = BranchPrefix(NodeId((0,)), (1,))
    assert branch.contains(NodeId((0, 1, 1)))
    assert not branch.contains(ROOT)  # below the stem only
    assert not branch.contains(NodeId((0, 0)))


# ---------------------------------------------------------------------------
# branches


def test_branch_prefix_canonicalizes_tail():
    a = BranchPrefix(NodeId((0,)), (1, 1, 1))
    b = BranchPrefix(NodeId((0,)), (1,))
    assert a == b
    c = BranchPrefix(ROOT, (0, 1, 1))
    assert c.tail == (0, 1)


def test_branch_prefix_requires_tail():
    with pytest.raises(ValueError):
        BranchPrefix(ROOT, ())


def test_branch_bits_repeat_last_tail_bit():
    branch = BranchPrefix(NodeId((1,)), (0, 1))
    word = [branch.bit_at(i) for i in range(6)]
    assert word == [1, 0, 1, 1, 1, 1]
    assert branch.node_at_level(4) == NodeId((1, 0, 1, 1))


# ---------------------------------------------------------------------------
# separation level


def test_separation_level_examples():
    zero = BranchPrefix(ROOT, (0, 0))
    one = BranchPrefix(ROOT, (1, 0))
    assert separation_level([NodeId((0, 0)), NodeId((1, 0))], [zero.stem, one.stem]) == 1
    assert separation_level([NodeId((0, 0)), NodeId((0, 1))]) == 2
    prefixes = [NodeId((0, 0, 0)), NodeId((1, 0, 0)), NodeId((1, 1, 0)), NodeId((1, 1, 1))]
    assert separation_level(prefixes) == 3


def test_separation_level_respects_stem_levels():
    prefixes = [NodeId((0, 0, 0)), NodeId((1, 0, 0))]
    stems = [NodeId((0, 0)), NodeId((1,))]
    assert separation_level(prefixes, stems) == 2


def test_separation_level_insufficient_prefix():
    with pytest.raises(InsufficientPrefixError):
        separation_level([NodeId((0,)), NodeId((0, 1))])


# ---------------------------------------------------------------------------
# properties against a reference model on plain bit tuples
#
# The model knows nothing of the packed encoding: a node is a tuple of
# bits, its index is int("1" + bits, 2), s precedes t when s is a prefix
# of t, nodes order by (length, bits), and a branch is the sequence
# stem + tail with the last tail bit repeated.  Deep nodes (4,400 levels
# and more) sit past the 4300-digit int-to-text limit, which base 2 is
# exempt from.

PROPERTY = settings(deadline=None, max_examples=60)
SHALLOW = st.lists(st.integers(0, 1), max_size=10).map(tuple)
DEEP = st.integers(4400, 4500).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(
        lambda v: tuple(map(int, format(v, f"0{n}b")))
    )
)
BITS = st.one_of(SHALLOW, DEEP)
TAILS = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple)


def m_text(bits):
    return "".join(map(str, bits))


def m_index(bits):
    return int("1" + m_text(bits), 2)


def m_precedes(s, t):
    return t[: len(s)] == s


def m_key(bits):
    return (len(bits), bits)


def m_branch_bit(stem, tail, i):
    seq = stem + tail
    return seq[i] if i < len(seq) else tail[-1]


def m_in_branch(stem, tail, node):
    return len(node) >= len(stem) and all(
        b == m_branch_bit(stem, tail, i) for i, b in enumerate(node)
    )


def m_node_set(interval, horizon):
    """Text forms of the interval's nodes, a branch cut at the horizon."""
    if interval[0] == "segment":
        _, start, end = interval
        text, levels = m_text(end), range(len(start), len(end) + 1)
    else:
        _, stem, tail = interval
        text = m_text(m_branch_bit(stem, tail, i) for i in range(horizon))
        levels = range(len(stem), horizon + 1)
    return {text[:level] for level in levels}


def cut(draw, n):
    """A cut point in 0..n, often one of the two ends."""
    return draw(st.one_of(st.sampled_from((0, n)), st.integers(0, n)))


@st.composite
def related(draw, bits):
    """A node that is often a prefix or a near miss of ``bits``."""
    k = cut(draw, len(bits))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return bits[:k]
    if kind == 1 and k:
        return bits[: k - 1] + (1 - bits[k - 1],) + draw(SHALLOW)
    return draw(BITS)


PAIRS = BITS.flatmap(lambda t: st.tuples(related(t), st.just(t)))


@st.composite
def model_interval(draw, base):
    """("segment", start, end) or ("branch", stem, tail), near ``base``."""
    node = draw(related(base))
    k = cut(draw, len(node))
    if draw(st.booleans()):
        return ("segment", node[:k], node)
    # a tail that follows the node for a while, or an arbitrary one
    follow = node[k : k + draw(st.integers(0, 3))]
    tail = draw(st.one_of(TAILS, st.just(follow + (draw(st.integers(0, 1)),))))
    return ("branch", node[:k], tail)


def build(interval):
    kind, a, b = interval
    if kind == "segment":
        return Segment(NodeId(a), NodeId(b))
    return BranchPrefix(NodeId(a), b)


@PROPERTY
@given(BITS)
def test_property_round_trips(bits):
    node = NodeId(bits)
    text = m_text(bits)
    assert node.bits == bits and node.level == len(bits)
    assert str(node) == text and NodeId.parse(text) == node
    assert f"{node}" == text
    # a node is an int: its enumeration index, equal and hashing as that int
    assert isinstance(node, int)
    assert int(node) == index_of(node) == m_index(bits)
    assert hash(node) == hash(int(node))
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(twin) is NodeId and twin == node
    assert node_at(m_index(bits)).bits == bits
    assert node.is_root == (bits == ())


@PROPERTY
@given(st.one_of(PAIRS, st.tuples(BITS, BITS)))
def test_property_order_is_enumeration(pair):
    s, t = pair
    a, b = NodeId(s), NodeId(t)
    assert (a < b) == (m_key(s) < m_key(t))
    assert (a <= b) == (m_key(s) <= m_key(t))
    assert (a == b) == (s == t)
    assert sorted([b, a]) == [NodeId(u) for u in sorted([t, s], key=m_key)]


@PROPERTY
@given(PAIRS)
def test_property_precedes(pair):
    s, t = pair
    assert NodeId(s).precedes(NodeId(t)) == m_precedes(s, t)
    assert NodeId(t).precedes(NodeId(s)) == m_precedes(t, s)


@PROPERTY
@given(BITS, st.data())
def test_property_child_parent_prefix(bits, data):
    node = NodeId(bits)
    for b in (0, 1):
        assert node.child(b).bits == bits + (b,)
        assert node.child(b).parent() == node
    if bits:
        assert node.parent().bits == bits[:-1]
    else:
        with pytest.raises(ValueError):
            node.parent()
    k = data.draw(st.integers(0, len(bits)))
    assert node.prefix(k).bits == bits[:k]
    with pytest.raises(ValueError):
        node.prefix(len(bits) + 1)


@PROPERTY
@given(BITS, st.data())
def test_property_segment_nodes(end, data):
    start = end[: cut(data.draw, len(end))]
    segment = Segment(NodeId(start), NodeId(end))
    nodes = segment.nodes()
    text = m_text(end)
    assert [str(n) for n in nodes] == [
        text[:level] for level in range(len(start), len(end) + 1)
    ]
    assert nodes[0].bits == start
    assert copy.deepcopy(segment) == segment
    x = JTVector.from_entries({n: k + 1 for k, n in enumerate(nodes)})
    twin = copy.deepcopy(x)
    assert twin == x and all(type(n) is NodeId for n in twin.entries)


@PROPERTY
@given(BITS, TAILS, st.data())
def test_property_branch_membership(base, tail, data):
    stem = base[: cut(data.draw, len(base))]
    branch = BranchPrefix(NodeId(stem), tail)
    node = data.draw(related(base))
    assert branch.contains(NodeId(node)) == m_in_branch(stem, tail, node)
    k = len(stem) + data.draw(st.integers(0, len(tail) + 6))
    assert branch.node_at_level(k).bits == tuple(
        m_branch_bit(stem, tail, i) for i in range(k)
    )
    assert [branch.bit_at(i) for i in range(k)] == [
        m_branch_bit(stem, tail, i) for i in range(k)
    ]
    if stem:
        with pytest.raises(ValueError):
            branch.node_at_level(len(stem) - 1)


@PROPERTY
@given(BITS.flatmap(lambda base: st.tuples(model_interval(base), model_interval(base))))
def test_property_disjoint_is_empty_intersection(pair):
    a, b = pair
    horizon = 2 + max(len(iv[1]) + len(iv[2]) for iv in pair)
    expected = not (m_node_set(a, horizon) & m_node_set(b, horizon))
    assert disjoint(build(a), build(b)) == expected
    assert disjoint(build(b), build(a)) == expected

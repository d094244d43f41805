"""Tree-core unit tests: enumeration, segments, branches, disjointness."""

import random

import pytest

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
    # the stepping rule is the independent oracle for the closed form
    cur = ROOT
    for n in range(1, 1 << 12):
        assert node_at(n) == cur
        cur = successor(cur)


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

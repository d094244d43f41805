"""Interval functionals, norming-set elements, separation witnesses."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_battery
from jamestree.functionals import (
    InvalidKStarError,
    KStarElement,
    branch_through,
    eval_interval,
    eval_kstar,
    eval_kstar_squared,
    interval_from_json,
    interval_to_json,
    kstar_from_json_dict,
    kstar_to_json_dict,
    load_kstar,
    loads_kstar,
    norming_functional,
    separation_witness,
)
from jamestree.lab import random_kstar, random_node, random_vector, substream
from jamestree.nodes import (
    ROOT,
    BranchPrefix,
    InsufficientPrefixError,
    NodeId,
    Segment,
    node_at,
)
from jamestree import norm
from jamestree.norm import jt_norm, rounded_root
from jamestree.vectors import (
    EXACT,
    FLOAT,
    BackendMismatchError,
    JTVector,
    VectorFormatError,
    basis_vector,
)


def vec(entries, backend=EXACT):
    return JTVector.from_entries(entries, backend)


def run_float(argv, files):
    """``jamestree <argv> --backend float``: (exit code, printed document)."""
    return cli_battery.run_on_files([*argv, "--backend", "float"], files)


def random_interval(rng):
    if rng.random() < 0.5:
        start = random_node(rng, max_depth=4)
        end = start
        for _ in range(rng.randint(0, 3)):
            end = end.child(rng.randint(0, 1))
        return Segment(start, end)
    stem = random_node(rng, max_depth=4)
    tail = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
    return BranchPrefix(stem, tail)


# ---------------------------------------------------------------------------
# interval functionals


def test_eval_interval_examples():
    assert eval_interval(Segment.parse("0..01"), JTVector.zero()) == 0
    assert eval_interval(Segment.parse("..0"), vec({"": 1, "0": 1})) == 2
    # both nodes sit on the leftmost branch, so they cancel
    leftmost = BranchPrefix(ROOT, (0,))
    assert eval_interval(leftmost, vec({"0": 1, "000": -1})) == 0


def test_eval_interval_is_the_norm_engines_sum():
    assert eval_interval is norm.eval_interval


def test_eval_interval_ignores_off_interval_nodes():
    x = vec({"1": 2, "10": 3, "11": 5})
    assert eval_interval(BranchPrefix(node_at(3), (0,)), x) == 5
    assert eval_interval(Segment.parse("1..10"), x) == 5
    assert eval_interval(Segment.parse("11..11"), x) == 5
    assert eval_interval(Segment.parse("0..00"), x) == 0


def test_eval_interval_linear():
    rng = substream(101, 0)
    for _ in range(80):
        x = random_vector(rng, nonzero=False)
        y = random_vector(rng, nonzero=False)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        interval = random_interval(rng)
        left = eval_interval(interval, x + y)
        assert left == eval_interval(interval, x) + eval_interval(interval, y)
        assert eval_interval(interval, c * x) == c * eval_interval(interval, x)


def test_interval_unit_on_first_node():
    # operator norm 1, attained at the indicator of the interval's top node
    seg = Segment.parse("01..0110")
    assert eval_interval(seg, basis_vector(NodeId.parse("01"))) == 1
    branch = BranchPrefix(NodeId.parse("10"), (1,))
    assert eval_interval(branch, basis_vector(NodeId.parse("10"))) == 1


def test_interval_never_beats_norm():
    rng = substream(101, 1)
    for _ in range(100):
        x = random_vector(rng)
        interval = random_interval(rng)
        value = eval_interval(interval, x)
        assert value * value <= jt_norm(x).value_squared


# ---------------------------------------------------------------------------
# branches and separation


def test_branch_through():
    b = branch_through(NodeId.parse("01"))
    assert b == BranchPrefix(ROOT, (0, 1))
    assert b.contains(ROOT)
    assert b.contains(NodeId.parse("0"))
    assert b.contains(NodeId.parse("0111"))
    assert not b.contains(NodeId.parse("1"))
    assert not b.contains(NodeId.parse("00"))


def test_branch_through_rejects_root():
    with pytest.raises(ValueError):
        branch_through(ROOT)


def test_separation_witness_examples():
    assert separation_witness(NodeId.parse("011"), NodeId.parse("10")) == NodeId.parse("0")
    assert separation_witness(NodeId.parse("00"), NodeId.parse("01")) == NodeId.parse("00")


def test_separation_witness_insufficient():
    with pytest.raises(InsufficientPrefixError):
        separation_witness(NodeId.parse("0"), NodeId.parse("00"))
    with pytest.raises(InsufficientPrefixError):
        separation_witness(NodeId.parse("01"), NodeId.parse("01"))


def test_separation_witness_difference_is_one():
    rng = substream(101, 2)
    for _ in range(100):
        level = rng.randint(1, 8)
        p = NodeId(tuple(rng.randint(0, 1) for _ in range(level)))
        q = NodeId(tuple(rng.randint(0, 1) for _ in range(level)))
        if p == q:
            continue
        s = separation_witness(p, q)
        e_s = basis_vector(s)
        diff = eval_interval(branch_through(p), e_s) - eval_interval(
            branch_through(q), e_s
        )
        assert diff == 1


# ---------------------------------------------------------------------------
# norming-set elements


def test_kstar_trivial_evaluations():
    k = KStarElement.from_terms([(0, Segment.parse(".."))])
    assert eval_kstar(k, vec({"": 7, "10": -2})) == 0
    s = NodeId.parse("01")
    single = KStarElement.from_terms([(1, Segment(s, s))])
    assert eval_kstar(single, basis_vector(s)) == 1


def test_kstar_rejects_bad_scale():
    with pytest.raises(InvalidKStarError):
        KStarElement.from_terms([(1, Segment.parse(".."))], scale_squared=0)
    with pytest.raises(InvalidKStarError):
        KStarElement.from_terms([(1, Segment.parse(".."))], scale_squared=-4)
    # the constructor itself holds the invariant, not only from_terms
    with pytest.raises(InvalidKStarError):
        KStarElement(((Fraction(1), Segment.parse("..")),), Fraction(0), EXACT)


def test_kstar_rejects_l2_violation():
    terms = [(1, Segment.parse("0..0")), (1, Segment.parse("1..1"))]
    with pytest.raises(InvalidKStarError):
        KStarElement.from_terms(terms)  # 1 + 1 > 1
    with pytest.raises(InvalidKStarError):
        KStarElement(tuple((Fraction(w), iv) for w, iv in terms), Fraction(1), EXACT)
    KStarElement.from_terms(terms, scale_squared=2)  # boundary is allowed


def test_kstar_float_l2_slack():
    w = math.sqrt(1.0 + 5e-10)
    KStarElement.from_terms([(w, Segment.parse(".."))], FLOAT, 1.0)
    with pytest.raises(InvalidKStarError):
        KStarElement.from_terms([(1.1, Segment.parse(".."))], FLOAT, 1.0)


def test_kstar_rejects_overlapping_intervals():
    with pytest.raises(InvalidKStarError):
        KStarElement.from_terms(
            [(Fraction(1, 2), Segment.parse("..")), (Fraction(1, 2), Segment.parse("..0"))]
        )
    with pytest.raises(InvalidKStarError):
        KStarElement.from_terms(
            [
                (Fraction(1, 2), BranchPrefix(ROOT, (0,))),
                (Fraction(1, 2), Segment.parse("00..00")),
            ]
        )
    with pytest.raises(InvalidKStarError):
        KStarElement(
            ((Fraction(1, 2), Segment.parse("..")), (Fraction(1, 2), Segment.parse("..0"))),
            Fraction(1),
            EXACT,
        )


def test_kstar_overlap_error_names_the_earlier_term_first():
    terms = [(1, Segment.parse("10..10")), (1, Segment.parse("0..0")), (1, Segment.parse("1..10"))]
    with pytest.raises(InvalidKStarError, match=r"intervals 10\.\.10 and 1\.\.10 overlap"):
        KStarElement.from_terms(terms, scale_squared=3)


def disjoint_terms(m):
    """m pairwise disjoint intervals: stacked segments down the 0-chain, one
    branch down the 1-chain, and singletons ten levels below node 10."""
    chain = [Segment(node_at(1 << (2 * i)), node_at(1 << (2 * i + 1))) for i in range(m // 2)]
    branch = [BranchPrefix(NodeId.parse("1"), (1,))]
    singles = [Segment(node_at((6 << 10) | j), node_at((6 << 10) | j)) for j in range(m - len(chain) - 1)]
    return chain + branch + singles


def test_kstar_validation_makes_one_containment_test_per_term(monkeypatch):
    intervals = disjoint_terms(2000)
    calls = []
    for cls in (Segment, BranchPrefix):
        contains = cls.contains
        monkeypatch.setattr(
            cls, "contains", lambda iv, node, contains=contains: calls.append(1) or contains(iv, node)
        )
    k = KStarElement.from_terms([(1, iv) for iv in intervals], scale_squared=len(intervals))
    assert 0 < len(calls) <= len(intervals)
    calls.clear()
    x = vec({node_at(1 << 3): 1, node_at(3): 2, node_at((6 << 10) | 7): 3})
    assert eval_kstar_squared(k, x) == Fraction(36, 2000)
    assert not calls  # the interval sums test no containment at all


def test_dual_side_on_four_thousand_nodes():
    # the shape of the benchmark's dyadic vectors: uniform depth <= 40, values k/8
    rng = random.Random(4000)
    entries = {}
    while len(entries) < 4000:
        level = rng.randint(0, 40)
        entries[node_at((1 << level) | rng.getrandbits(level))] = Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 64), 8
        )
    x = vec(entries)
    value_squared = jt_norm(x).value_squared
    k = norming_functional(x)
    assert k.scale_squared == value_squared
    assert eval_kstar_squared(k, x) == value_squared


def test_kstar_coercion_follows_backend():
    k = KStarElement.from_terms([("1/2", Segment.parse(".."))])
    assert k.terms[0][0] == Fraction(1, 2)
    with pytest.raises(BackendMismatchError):
        KStarElement.from_terms([(0.5, Segment.parse(".."))])  # float into exact
    with pytest.raises(BackendMismatchError):
        KStarElement.from_terms([(Fraction(1, 2), Segment.parse(".."))], FLOAT)
    with pytest.raises(VectorFormatError):
        KStarElement.from_terms([("1/2", Segment.parse(".."))], FLOAT)


def test_eval_kstar_exact_when_unit_scale():
    k = KStarElement.from_terms(
        [(Fraction(1, 2), Segment.parse("0..0")), (Fraction(1, 2), Segment.parse("1..1"))]
    )
    value = eval_kstar(k, vec({"0": 3, "1": 5}))
    assert isinstance(value, Fraction)
    assert value == 4


def test_eval_kstar_float_when_scaled():
    # weights (1,1) at scale 2 act as coefficients 1/sqrt(2) each
    k = KStarElement.from_terms(
        [(1, Segment.parse("0..0")), (1, Segment.parse("1..1"))], scale_squared=2
    )
    x = vec({"0": 1, "1": 1})
    value = eval_kstar(k, x)
    assert isinstance(value, float)
    assert math.isclose(value, math.sqrt(2.0), rel_tol=1e-15)
    assert eval_kstar_squared(k, x) == 2
    assert jt_norm(x).value_squared == 2  # the evaluation attains the norm
    # 1/sqrt(49/2) = sqrt(2)/7 = 0.2020305089104421498..., rounded once
    k = KStarElement.from_terms([(-1, Segment.parse("0..0"))], scale_squared="49/2")
    assert eval_kstar(k, vec({"0": 1})) == -0.20203050891044216


def test_eval_kstar_scaled_sum_beyond_binary64():
    # k*(x) = -10^400 / sqrt(2 * 10^800): the sum overflows binary64, the value does not
    k = KStarElement.from_terms([(-(10**400), Segment.parse(".."))], scale_squared=2 * 10**800)
    assert eval_kstar(k, vec({"": 1})) == -math.sqrt(0.5)
    # on float-read inputs too: the squared sum (2e200)^2 is beyond binary64,
    # its quotient by 1e308 is not, and both are exact
    x = vec({"": 1e200, "0": 1e200}, FLOAT)
    k = KStarElement.from_terms([(1.0, Segment.parse("..0"))], FLOAT, 1e308)
    square = (2 * Fraction(1e200)) ** 2
    assert eval_kstar_squared(k, x) == square / Fraction(1e308)
    assert eval_kstar_squared(KStarElement.from_terms([(1.0, Segment.parse("..0"))], FLOAT), x) == square
    # printed, the scaled value is the exact value's root rounded once
    files = {
        "k.json": {"terms": [{"alpha": 1.0, "interval": "..0"}], "scale_squared": 1e308},
        "x.json": {"": 1e200, "0": 1e200},
    }
    value = rounded_root(*(square / Fraction(1e308)).as_integer_ratio())
    assert run_float(["eval", "k.json", "x.json"], files) == (0, {"value": value, "value_decimal": value})


WEIGHTS = st.one_of(st.floats(-1, 1), st.floats(-1e6, 1e6))
VALUES = st.floats(-1e6, 1e6, allow_subnormal=True)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 1 << 32),
    st.lists(WEIGHTS, min_size=4, max_size=4),  # random_kstar draws at most 4 terms
    st.dictionaries(st.integers(1, 127).map(node_at), VALUES, max_size=10),
)
@example(1, [0.9153121682443466, 0.0, 0.0, 0.0], {node_at(2): 7.0})  # binary64 gave 1 ulp off
def test_property_float_eval_is_the_exact_value_rounded_once(seed, weights, entries):
    # float-read inputs evaluate to the exact value of their binary64
    # values, and the CLI prints that value rounded once
    intervals = [iv for _, iv in random_kstar(random.Random(seed)).terms]
    weights = weights[: len(intervals)]
    scale = max(1.0, 2 * sum(w * w for w in weights))  # 1.0 exercises the unit scale
    kf = KStarElement.from_terms(zip(weights, intervals), FLOAT, scale)
    ke = KStarElement.from_terms([(Fraction(w), iv) for w, iv in zip(weights, intervals)], EXACT, Fraction(scale))
    xf = vec(entries, FLOAT)
    xe = vec({n: Fraction(v) for n, v in xf.entries.items()})
    assert eval_kstar_squared(kf, xf) == eval_kstar_squared(ke, xe)
    value = eval_kstar(ke, xe)
    assert eval_kstar(kf, xf) == value
    assert type(value) is (Fraction if scale == 1 else float)
    files = {
        "k.json": {
            "terms": [{"alpha": w, "interval": interval_to_json(iv)} for w, iv in zip(weights, intervals)],
            "scale_squared": scale,
        },
        "x.json": {str(n): v for n, v in entries.items()},
    }
    shown = float(value)
    assert run_float(["eval", "k.json", "x.json"], files) == (0, {"value": shown, "value_decimal": shown})


def test_eval_kstar_on_a_float_read_vector_is_exact():
    # one arithmetic: an exact functional reads a float-read vector's values exactly
    k = KStarElement.from_terms([(Fraction(1, 3), Segment.parse(".."))])
    xf = vec({"": 0.1}, FLOAT)
    assert eval_kstar(k, xf) == Fraction(0.1) / 3
    assert eval_kstar_squared(k, xf) == (Fraction(0.1) / 3) ** 2


def test_random_kstar_within_unit_ball():
    rng = substream(101, 3)
    for _ in range(150):
        k = random_kstar(rng)
        x = random_vector(rng)
        assert eval_kstar_squared(k, x) <= jt_norm(x).value_squared


# ---------------------------------------------------------------------------
# norming functionals


def test_norming_functional_examples():
    s = NodeId.parse("01")
    k = norming_functional(basis_vector(s))
    assert k.terms == ((1, Segment(s, s)),)
    assert k.scale_squared == 1
    assert eval_kstar(k, basis_vector(s)) == 1

    k2 = norming_functional(vec({"": 1, "0": 1}))
    assert k2.terms == ((2, Segment.parse("..0")),)
    assert k2.scale_squared == 4
    assert eval_kstar_squared(k2, vec({"": 1, "0": 1})) == 4

    k3 = norming_functional(vec({"0": 1, "1": 1}))
    assert k3.terms == ((1, Segment.parse("0..0")), (1, Segment.parse("1..1")))
    assert k3.scale_squared == 2


def test_norming_functional_rejects_zero():
    with pytest.raises(ValueError):
        norming_functional(JTVector.zero())


def test_norming_identity_random():
    rng = substream(101, 4)
    for _ in range(150):
        x = random_vector(rng)
        k = norming_functional(x)
        norm_sq = jt_norm(x).value_squared
        assert k.scale_squared == norm_sq
        assert eval_kstar_squared(k, x) == norm_sq


# ---------------------------------------------------------------------------
# file format


SAMPLE_DOC = (
    '{"terms":[{"alpha":"1/2","interval":"0..011"},'
    '{"alpha":0.5,"interval":{"branch_stem":"1","tail":"0"}}]}'
)


def test_kstar_json_document():
    k = loads_kstar(SAMPLE_DOC)
    assert k.scale_squared == 1
    assert k.terms == (
        (Fraction(1, 2), Segment.parse("0..011")),
        (Fraction(1, 2), BranchPrefix(node_at(3), (0,))),
    )


def test_kstar_json_decimal_weights_are_exact():
    k = loads_kstar('{"terms":[{"alpha":0.1,"interval":".."}]}')
    assert k.terms[0][0] == Fraction(1, 10)


def test_kstar_json_roundtrip():
    rng = substream(101, 5)
    for _ in range(60):
        k = random_kstar(rng)
        again = loads_kstar(json.dumps(kstar_to_json_dict(k)))
        assert again == k


def test_kstar_json_scale_default_omitted():
    k = KStarElement.from_terms([(1, Segment.parse(".."))])
    doc = kstar_to_json_dict(k)
    assert "scale_squared" not in doc
    k2 = KStarElement.from_terms([(1, Segment.parse(".."))], scale_squared=2)
    assert kstar_to_json_dict(k2)["scale_squared"] == "2"


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"terms": 3}',
        '{"terms": [], "extra": 1}',
        '{"terms": [{"alpha": 1}]}',
        '{"terms": [{"alpha": 1, "interval": "..", "note": "x"}]}',
        '{"terms": [{"alpha": true, "interval": ".."}]}',
        '{"terms": [{"alpha": 1, "interval": "0.."}]}',
        '{"terms": [{"alpha": 1, "interval": {"tail": "2"}}]}',
        '{"terms": [{"alpha": 1, "interval": {"branch_stem": "0"}}]}',
        '{"terms": [{"alpha": 1, "interval": {"tail": "0", "x": 1}}]}',
        '{"terms": [{"alpha": 1, "interval": 9}]}',
        '{"terms": [], "scale_squared": false}',
        "not json",
    ],
)
def test_kstar_json_malformed(text):
    with pytest.raises(VectorFormatError):
        loads_kstar(text)


def test_kstar_json_l2_violation_keeps_its_error():
    with pytest.raises(InvalidKStarError):
        loads_kstar(
            '{"terms":[{"alpha":1,"interval":"0..0"},{"alpha":1,"interval":"1..1"}]}'
        )


def test_interval_json_branch_defaults_to_root_stem():
    interval = interval_from_json({"tail": "10"})
    assert interval == BranchPrefix(ROOT, (1, 0))
    assert interval_to_json(interval) == {"branch_stem": "", "tail": "10"}


def test_load_kstar_file(tmp_path):
    path = tmp_path / "functional.json"
    path.write_text(SAMPLE_DOC, encoding="utf-8")
    assert load_kstar(path) == loads_kstar(SAMPLE_DOC)


def test_kstar_from_json_dict_float_backend():
    obj = json.loads('{"terms":[{"alpha":0.5,"interval":"0..0"}]}')
    k = kstar_from_json_dict(obj, FLOAT)
    assert k.backend == FLOAT
    assert k.terms[0][0] == 0.5
    with pytest.raises(VectorFormatError):
        kstar_from_json_dict(
            json.loads('{"terms":[{"alpha":"1/2","interval":"0..0"}]}'), FLOAT
        )

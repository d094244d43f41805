"""Experiment layer: generators, block sequences, constants, reports."""

import json
import math
from fractions import Fraction

import pytest

from jamestree import lab
from jamestree.cli import run
from jamestree.lab import (
    EXPERIMENTS,
    BlockSequence,
    ExperimentReport,
    antichain_blocks,
    antichain_nodes,
    basic_sequence_constant,
    chain_blocks,
    l1_lower_constants,
    random_block_sequence,
    random_kstar,
    random_rational,
    random_vector,
    run_check_suite,
    run_lemma_estimates,
    run_oracle_vs_dp,
    standard_basis_blocks,
    substream,
    w_cauchy_probe,
)
from jamestree.nodes import ROOT, BranchPrefix, NodeId, Segment, index_of
from jamestree.norm import NormWitness, jt_norm
from jamestree.vectors import EXACT, FLOAT, JTVector, basis_vector


def vec(entries, backend=EXACT):
    return JTVector.from_entries(entries, backend)


# ---------------------------------------------------------------------------
# seeded streams and generators


def test_substream_reproducible_and_split():
    a = [substream(7, 3).random() for _ in range(5)]
    b = [substream(7, 3).random() for _ in range(5)]
    assert a == b
    assert substream(7, 3).getrandbits(64) != substream(7, 4).getrandbits(64)
    assert substream(7, 3).getrandbits(64) != substream(8, 3).getrandbits(64)
    assert len({substream(7, i).getrandbits(64) for i in range(4)}) == 4


def test_random_rational_bounds():
    rng = substream(11, 0)
    for _ in range(200):
        q = random_rational(rng, numerator_bound=5, max_denominator=4, nonzero=True)
        assert q != 0
        assert abs(q) <= 5
        assert q.denominator <= 4


def test_random_vector_contract():
    rng = substream(11, 1)
    for _ in range(100):
        x = random_vector(rng, max_support=8, max_depth=6)
        assert not x.is_zero
        assert 1 <= len(x.support()) <= 8
        assert all(node.level <= 6 for node in x.support())
        assert all(isinstance(v, Fraction) for _, v in x.items())


def test_antichain_nodes_levels():
    assert antichain_nodes(1) == [ROOT]
    assert [str(s) for s in antichain_nodes(4)] == ["00", "01", "10", "11"]
    for n in (2, 3, 5, 8, 25, 64):
        nodes = antichain_nodes(n)
        assert len(nodes) == n
        assert len(set(nodes)) == n
        level = max(1, math.ceil(math.log2(n)))
        assert all(node.level == level for node in nodes)
        for i, p in enumerate(nodes):
            for q in nodes[i + 1 :]:
                assert not p.precedes(q) and not q.precedes(p)
    with pytest.raises(ValueError):
        antichain_nodes(0)


def test_random_kstar_always_valid():
    rng = substream(11, 2)
    for _ in range(100):
        k = random_kstar(rng)
        k.validate()  # must not raise


# ---------------------------------------------------------------------------
# block sequences


def test_block_sequence_windows():
    blocks = BlockSequence(
        (vec({"": 1, "0": 2}), vec({"1": -1})),
        (0, 2, 3),
    )
    combined = blocks.combine([Fraction(1), Fraction(3)])
    assert combined.backend == EXACT
    assert combined == vec({"": 1, "0": 2, "1": -3})
    prefix = blocks.combine([Fraction(2)])
    assert prefix == vec({"": 2, "0": 4})
    # a float-read block combines exactly, like any other
    mixed = BlockSequence((vec({"": 1}), vec({"0": 0.1}, FLOAT)), (0, 1, 2))
    assert mixed.combine([Fraction(1), Fraction(1, 3)]) == vec({"": 1, "0": Fraction(0.1) / 3})


def test_combine_equals_the_sum_of_scaled_blocks():
    rng = substream(5, 0)
    blocks = random_block_sequence(rng, count=4)
    coeffs = [random_rational(rng) for _ in range(4)]
    for n in range(5):
        total = JTVector.zero()
        for c, u in zip(coeffs[:n], blocks.blocks):
            total = total + u.scale(c)
        assert blocks.combine(coeffs[:n]) == total


def test_block_sequence_rejects_bad_shapes():
    u = vec({"": 1})
    w = vec({"0": 1})
    with pytest.raises(ValueError):
        BlockSequence((u, w), (0, 1))  # boundary count
    with pytest.raises(ValueError):
        BlockSequence((u, w), (0, 0, 2))  # not strictly increasing
    with pytest.raises(ValueError):
        BlockSequence((u, w), (1, 2, 3))  # support left of window
    with pytest.raises(ValueError):
        BlockSequence((u, JTVector.zero()), (0, 1, 2))  # zero block
    with pytest.raises(ValueError):
        BlockSequence((w, u), (0, 2, 3))  # out of order


def test_block_sequence_from_blocks():
    blocks = BlockSequence.from_blocks([vec({"": 1}), vec({"0": 1, "1": 2})])
    assert blocks.boundaries == (0, 1, 3)
    with pytest.raises(ValueError):
        BlockSequence.from_blocks([vec({"0": 1, "1": 2}), vec({"": 1})])
    with pytest.raises(ValueError):
        BlockSequence.from_blocks([])


def test_stock_block_constructors():
    std = standard_basis_blocks(4)
    assert [str(next(iter(u.support()))) for u in std.blocks] == ["", "0", "1", "00"]
    anti = antichain_blocks(4)
    assert all(next(iter(u.support())).level == 2 for u in anti.blocks)
    chain = chain_blocks(3)
    assert [next(iter(u.support())).level for u in chain.blocks] == [1, 2, 3]
    assert [str(next(iter(u.support()))) for u in chain.blocks] == ["0", "00", "000"]
    rng = substream(11, 3)
    rand = random_block_sequence(rng, count=4, window=4)
    assert rand.boundaries == (0, 4, 8, 12, 16)


def test_stock_blocks_take_the_tightest_boundaries():
    assert standard_basis_blocks(4).boundaries == (0, 1, 2, 3, 4)
    assert antichain_blocks(4).boundaries == (3, 4, 5, 6, 7)
    assert chain_blocks(3).boundaries == (1, 2, 4, 8)


# ---------------------------------------------------------------------------
# constants


def test_basis_constant_is_exactly_one_for_monotone_blocks():
    # prefixes never beat the whole sum, and the (1,0,...) draw attains 1
    assert basic_sequence_constant(standard_basis_blocks(5), samples=12) == 1.0
    assert basic_sequence_constant(antichain_blocks(6), samples=12) == 1.0
    assert basic_sequence_constant(standard_basis_blocks(1)) == 1.0
    rng = substream(11, 4)
    assert basic_sequence_constant(random_block_sequence(rng), samples=10) == 1.0


def test_l1_constants_antichain_scaling():
    blocks = antichain_blocks(9)
    out = l1_lower_constants(blocks, (1, 4, 9), budget=60, seed=2)
    assert out[1] == 1.0
    for n in (4, 9):
        # uniform coefficients already give exactly 1/sqrt(n)
        assert out[n] <= 1.0 / math.sqrt(n) + 1e-12
    assert out[1] >= out[4] >= out[9]


def test_l1_constants_nested_warm_starts_never_increase():
    blocks = antichain_blocks(8)
    out = l1_lower_constants(blocks, (2, 3, 5, 8), budget=40, seed=5)
    values = [out[n] for n in (2, 3, 5, 8)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 + 1e-12 for v in values)


def test_l1_constants_never_increase_at_any_budget():
    # the previous n's minimizer is a free incumbent, so even budget 0,
    # which evaluates only the uniform candidate, cannot go up
    for seed in range(30):
        blocks = random_block_sequence(substream(seed, 0), count=6)
        for budget in range(4):
            out = l1_lower_constants(blocks, range(1, 7), budget=budget, seed=seed)
            values = [out[n] for n in range(1, 7)]
            assert all(a >= b for a, b in zip(values, values[1:])), (seed, budget, values)
    assert run(["experiment", "--name", "l1-decay", "--trials", "0"]) == 0


def test_l1_constants_chain_cancellation():
    # alternating signs on a chain cancel long segments
    blocks = chain_blocks(4)
    c4 = l1_lower_constants(blocks, [4], budget=60, seed=3)[4]
    assert c4 <= 0.5 + 1e-12  # singleton family of +-1/4 entries gives 1/2


def test_l1_constants_reject_short_sequences():
    with pytest.raises(ValueError):
        l1_lower_constants(antichain_blocks(4), (5,))
    assert l1_lower_constants(antichain_blocks(4), ()) == {}


def test_l1_constants_reject_n_below_one():
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        l1_lower_constants(antichain_blocks(4), [0])


# ---------------------------------------------------------------------------
# probes and reports


def test_w_cauchy_probe_constant_sequence():
    x = vec({"": 1, "0": 2})
    [record] = w_cauchy_probe([x, x, x], [Segment.parse("..0")])
    assert record["values"] == ["3", "3", "3"]
    assert record["moduli"] == ["0", "0", "0"]


def test_w_cauchy_probe_partial_sums_stabilize():
    x = vec({"": 1, "0": 2, "1": -1})
    seq = [x.partial_sum(k) for k in (1, 2, 3)]
    [record] = w_cauchy_probe(seq, [Segment.parse("..0")])
    assert record["values"] == ["1", "3", "3"]
    assert record["moduli"] == ["2", "0", "0"]


def test_w_cauchy_probe_flags_oscillation():
    seq = [vec({"": (-1) ** k}) for k in range(8)]
    [record] = w_cauchy_probe(seq, [Segment.parse("..")])
    assert record["moduli"][:2] == ["2", "2"]


def test_w_cauchy_probe_empty_sequence():
    [record] = w_cauchy_probe([], [Segment.parse("..")])
    assert record["values"] == []


def test_lemma_suite_passes_and_reproduces():
    first = run_lemma_estimates(seed=9, trials=30)
    second = run_lemma_estimates(seed=9, trials=30)
    assert first.verdict
    assert first.to_json_dict() == second.to_json_dict()
    assert first.to_json_dict()["verdict"] == "pass"
    record = first.records[0]
    assert set(record) == {"trial", "k", "head_sq", "tail_sq", "whole_sq", "ok"}


def test_experiment_report_json_verdict_words():
    report = ExperimentReport("demo", {}, ({"ok": True}, {"ok": False}))
    assert report.verdict is False
    assert list(report.to_json_dict()) == ["name", "parameters", "records", "verdict"]
    assert report.to_json_dict()["verdict"] == "fail"
    assert ExperimentReport("demo", {}, ()).to_json_dict()["verdict"] == "pass"


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_verdict_follows_its_records(name):
    for trials in (0, 1, 8):
        for seed in (0, 3):
            doc = EXPERIMENTS[name](seed=seed, trials=trials).to_json_dict()
            oks = [record["ok"] for record in doc["records"]]
            assert all(type(ok) is bool for ok in oks)
            assert doc["verdict"] == ("pass" if all(oks) else "fail")


# ---------------------------------------------------------------------------
# named experiments


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {
        "oracle-vs-dp",
        "lemma-estimates",
        "basis-constant",
        "l1-decay",
        "w-cauchy",
    }


def test_each_experiment_runs_and_passes():
    for name, runner in EXPERIMENTS.items():
        report = runner(seed=4, trials=8)
        assert isinstance(report, ExperimentReport)
        assert report.name == name
        assert report.verdict, f"{name} failed: {report.to_json_dict()}"


def test_l1_decay_scaled_constants():
    report = EXPERIMENTS["l1-decay"](seed=0, trials=60)
    by_n = {rec["n"]: rec for rec in report.records}
    assert set(by_n) == {1, 4, 9, 16, 25}
    for n, rec in by_n.items():
        assert rec["scaled"] <= 1.0 + 1e-9
    assert by_n[1]["constant"] == 1.0
    assert report.verdict


def test_basis_constant_verdict_has_no_slack(monkeypatch):
    monkeypatch.setattr(lab, "_basis_ratio", lambda *a: 1 + Fraction(1, 10**12))
    report = lab.run_basis_constant(trials=2)
    assert not report.verdict
    assert [r["ok"] for r in report.records] == [False] * 3


def test_basis_constant_verdict_is_exact(monkeypatch):
    # prefix norms that shrink by 2^-60 as the support grows: the ratio
    # 1 + 2^-60 (about) rounds to a constant of exactly 1.0, yet must fail
    def shrinking(x):
        return NormWitness(1 + Fraction(1, 2**60 * (1 + len(x.entries))), ())

    monkeypatch.setattr(lab, "jt_norm", shrinking)
    report = lab.run_basis_constant(trials=4)
    assert [r["constant"] for r in report.records] == [1.0] * 3
    assert [r["ok"] for r in report.records] == [False] * 3
    assert not report.verdict


def planted_l1_squares(planted):
    """A stand-in for the l1 search: 1/n for each n, except where planted."""
    return lambda blocks, ns, budget, seed: {n: planted.get(n, Fraction(1, n)) for n in ns}


def test_l1_decay_verdict_checks_the_exact_scaled_square(monkeypatch):
    # n * c_n^2 exceeds 1 by 10^-12
    planted = {9: (1 + Fraction(1, 10**12)) / 9}
    monkeypatch.setattr(lab, "_l1_squares", planted_l1_squares(planted))
    report = lab.run_l1_decay(trials=2)
    assert not report.verdict
    assert [r["ok"] for r in report.records] == [True, True, False, True, True]


def test_l1_decay_verdict_checks_exact_monotonicity(monkeypatch):
    # c_16^2 exceeds c_9^2 by 10^-13 relative, while 16 c_16^2 stays below 1
    low = Fraction(1, 25)
    planted = {9: low, 16: low * (1 + Fraction(1, 10**13))}
    monkeypatch.setattr(lab, "_l1_squares", planted_l1_squares(planted))
    report = lab.run_l1_decay(trials=2)
    assert not report.verdict
    assert [r["ok"] for r in report.records] == [True, True, True, False, True]


def test_check_suite_all_pass():
    reports = run_check_suite(seed=1)
    assert [r.name for r in reports] == [
        "oracle-vs-dp",
        "lemma-estimates",
        "basis-constant",
        "l1-decay",
        "w-cauchy",
    ]
    assert all(r.verdict for r in reports)


def test_inflated_oracle_fails_the_verdict(monkeypatch, capsys):
    exact = lab.brute_force_norm

    def inflated(x, max_candidates=22):
        w = exact(x, max_candidates=max_candidates)
        return NormWitness(w.value_squared + 1, w.family)

    monkeypatch.setattr(lab, "brute_force_norm", inflated)
    report = run_oracle_vs_dp(trials=3)
    assert report.verdict is False
    assert [r["ok"] for r in report.records] == [False] * 3
    assert run(["check", "--seed", "0"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"
    assert [c["verdict"] for c in doc["checks"]] == ["fail"] + ["pass"] * 4

"""Norm engine tests: oracle examples, DP-vs-oracle equivalence, axioms."""

import itertools
import math
import random
import struct
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamestree.nodes import ROOT, BranchPrefix, NodeId, Segment, disjoint, index_of, node_at
from jamestree.norm import (
    InstanceTooLargeError,
    NormWitness,
    OverlappingSegmentsError,
    brute_force_norm,
    candidate_segments,
    family_value_squared,
    first_overlap,
    interval_sums,
    jt_norm,
    norm_lower_upper,
    rounded_root,
)
from jamestree.vectors import EXACT, FLOAT, JTVector, basis_vector
from jamestree.functionals import interval_to_json
from jamestree.lab import antichain_nodes, random_vector, substream
import cli_battery
from norm_references import chain_norm, envelope_norm, scan_interval_sum


def vec(entries, backend=EXACT):
    return JTVector.from_entries(entries, backend)


def float_doc(xf):
    """A float-read vector as a float-backend file's document."""
    return {str(node): float(v) for node, v in xf.items()}


def run_float(argv, files):
    """``jamestree <argv> --backend float``: (exit code, printed document)."""
    return cli_battery.run_on_files([*argv, "--backend", "float"], files)


# ---------------------------------------------------------------------------
# family evaluation


def test_family_value_squared_examples():
    x = vec({"": 1, "0": 1})
    assert family_value_squared(x, []) == 0
    assert family_value_squared(x, [Segment.parse("..0")]) == 4
    assert family_value_squared(x, [Segment.parse(".."), Segment.parse("0..0")]) == 2


def test_family_value_squared_names_the_earlier_segment_first():
    x = vec({"": 1})
    family = [Segment.parse("10..10"), Segment.parse("0..0"), Segment.parse("1..10")]
    with pytest.raises(OverlappingSegmentsError, match=r"segments 10\.\.10 and 1\.\.10 overlap"):
        family_value_squared(x, family)


def test_family_value_squared_rejects_overlap():
    x = vec({"": 1, "0": 1})
    with pytest.raises(OverlappingSegmentsError):
        family_value_squared(x, [Segment.parse("..00"), Segment.parse("0..01")])


# ---------------------------------------------------------------------------
# candidates


def test_candidate_counts():
    assert len(candidate_segments(vec({"": 1}))) == 1
    assert len(candidate_segments(vec({"0": 1, "1": 2}))) == 2
    assert len(candidate_segments(vec({"": 1, "0": 1, "00": 1}))) == 6


def test_candidates_are_sorted_canonically():
    cands = candidate_segments(vec({"": 1, "0": 1, "00": 1}))
    assert [str(seg) for seg in cands] == ["..", "..0", "..00", "0..0", "0..00", "00..00"]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_zero_vector():
    w = brute_force_norm(JTVector.zero())
    assert w.value_squared == 0 and w.family == ()


def test_oracle_stacked_pair():
    w = brute_force_norm(vec({"": 1, "0": 1}))
    assert w.value_squared == 4
    assert [str(seg) for seg in w.family] == ["..0"]


def test_oracle_incomparable_pair():
    w = brute_force_norm(vec({"0": 1, "1": 1}))
    assert w.value_squared == 2
    assert [str(seg) for seg in w.family] == ["0..0", "1..1"]


def test_oracle_instance_too_large():
    x = vec({("0" * k): 1 for k in range(8)})  # chain of 8 support nodes
    assert len(candidate_segments(x)) == 36
    with pytest.raises(InstanceTooLargeError):
        brute_force_norm(x)
    w = brute_force_norm(x, max_candidates=64)
    assert w.value_squared == 64  # one segment collecting all eight ones


def test_oracle_tie_break_prefers_small_keys():
    # both {..0, 1..1} and {..1, 0..0} are worth 5; keys pick the first
    w = brute_force_norm(vec({"": 1, "0": 1, "1": 1}))
    assert w.value_squared == 5
    assert [str(seg) for seg in w.family] == ["..0", "1..1"]


def _all_maximizers(x):
    """Every disjoint family hitting the max, by raw subset enumeration."""
    cands = candidate_segments(x)
    best, arg = Fraction(0), []
    for k in range(len(cands) + 1):
        for combo in itertools.combinations(cands, k):
            try:
                val = family_value_squared(x, combo)
            except OverlappingSegmentsError:
                continue
            if val > best:
                best, arg = val, [combo]
            elif val == best:
                arg.append(combo)
    return best, arg


def test_oracle_tie_break_is_min_over_all_maximizers():
    cases = [
        {"": 1, "0": 1, "1": 1},
        {"0": 1, "1": -1},
        {"": 1, "0": -1, "00": 1},
        {"": 2, "0": -1, "01": 1, "1": -2},
    ]
    for entries in cases:
        x = vec(entries)
        best, families = _all_maximizers(x)
        ranked = min(
            families,
            key=lambda fam: (len(fam), [(index_of(s.start), index_of(s.end)) for s in fam]),
        )
        w = brute_force_norm(x)
        assert w.value_squared == best
        assert w.family == ranked


# ---------------------------------------------------------------------------
# dp engine


def test_dp_matches_examples():
    assert jt_norm(vec({"": 1, "0": 1})).value_squared == 4
    assert jt_norm(vec({"0": 1, "1": 1})).value_squared == 2
    for n in (1, 5, 9, 64):
        assert jt_norm(basis_vector(node_at(n))).value_squared == 1


def test_dp_zero_vector():
    w = jt_norm(JTVector.zero())
    assert w.value_squared == 0 and w.family == ()


def test_dp_oracle_equivalence_random():
    for i in range(300):
        rng = substream(424242, i)
        x = random_vector(rng)
        dp = jt_norm(x)
        oracle = brute_force_norm(x, max_candidates=64)
        assert dp.value_squared == oracle.value_squared, str(x)
        assert family_value_squared(x, dp.family) == dp.value_squared
        assert family_value_squared(x, oracle.family) == oracle.value_squared


def exact_of(xf):
    """The exact vector holding the same binary64 values as a float vector."""
    return vec({node: Fraction(v) for node, v in xf.entries.items()})


def float_read(x):
    """x read through the float backend: each entry rounded to binary64."""
    return vec({node: float(v) for node, v in x.entries.items()}, FLOAT)


def test_dp_float_close_to_exact():
    for i in range(150):
        rng = substream(515151, i)
        x = random_vector(rng)
        xf = float_read(x)
        float_sq = jt_norm(xf).value_squared
        assert math.isclose(float_sq, jt_norm(x).value_squared, rel_tol=1e-9, abs_tol=1e-12)
        # the float-read result is the exact optimum of its binary64 inputs
        assert type(float_sq) is Fraction
        assert float_sq == jt_norm(exact_of(xf)).value_squared


def test_dp_witness_is_deterministic():
    for i in range(40):
        rng = substream(9191, i)
        x = random_vector(rng)
        a = jt_norm(x)
        b = jt_norm(x)
        assert a.family == b.family


def test_dp_on_deep_chain_with_alternating_signs():
    for n in (3, 6, 10):
        entries = {"0" * k: Fraction((-1) ** k, n) for k in range(1, n + 1)}
        x = vec(entries)
        assert jt_norm(x).value_squared == Fraction(1, n)


def test_dp_witness_segments_have_support_endpoints():
    for i in range(60):
        rng = substream(727272, i)
        x = random_vector(rng)
        supp = x.support()
        for seg in jt_norm(x).family:
            assert seg.start in supp and seg.end in supp


def test_antichain_value():
    for n in (2, 3, 8):
        x = vec({node: Fraction(1, n) for node in antichain_nodes(n)})
        assert jt_norm(x).value_squared == Fraction(1, n)
        assert brute_force_norm(x).value_squared == Fraction(1, n)


# ---------------------------------------------------------------------------
# norm axioms


def test_norm_lower_upper_examples():
    assert norm_lower_upper(basis_vector(node_at(5))) == (1, 1)
    assert norm_lower_upper(vec({"": 1, "0": 1})) == (2, 4)
    assert norm_lower_upper(vec({"0": 1, "1": 1})) == (2, 4)


def test_sandwich_random():
    for i in range(100):
        rng = substream(31415, i)
        x = random_vector(rng)
        lo, hi = norm_lower_upper(x)
        v = jt_norm(x).value_squared
        assert lo <= v <= hi


def test_homogeneity_exact():
    for i in range(60):
        rng = substream(2718, i)
        x = random_vector(rng)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        assert jt_norm(x.scale(c)).value_squared == c * c * jt_norm(x).value_squared


def test_triangle_inequality_float():
    for i in range(60):
        rng = substream(1618, i)
        x = random_vector(rng)
        y = random_vector(rng)
        nx = math.sqrt(float(jt_norm(x).value_squared))
        ny = math.sqrt(float(jt_norm(y).value_squared))
        nxy = math.sqrt(float(jt_norm(x + y).value_squared))
        assert nxy <= nx + ny + 1e-12


def test_monotone_basis_prefixes():
    for i in range(80):
        rng = substream(888, i)
        x = random_vector(rng)
        n = rng.randint(0, 80)
        a = jt_norm(x.partial_sum(n)).value_squared
        b = jt_norm(x.partial_sum(n + 1)).value_squared
        assert a <= b


def test_super_additivity():
    for i in range(80):
        rng = substream(999, i)
        x = random_vector(rng)
        k = rng.randint(0, 96)
        s = x.partial_sum(k)
        assert (
            jt_norm(s).value_squared + jt_norm(x - s).value_squared
            <= jt_norm(x).value_squared
        )


# binary64 entries whose exact squared norm has a correctly rounded root
# one ulp away from the root of the square's own rounding
ROUNDED_TWICE = {
    "11": 0.002217739468876032,
    "0010": -479.01537921608116,
    "0100": -0.012844267069350712,
    "1001": -0.000556592207571627,
    "0110": 99.59432621722493,
}


def test_float_backend_end_to_end():
    x = vec({"": 1.0, "0": -0.5, "11": 2.0}, FLOAT)
    w = jt_norm(x)
    lo, hi = norm_lower_upper(x)
    assert lo <= w.value_squared <= hi
    assert w.value_squared == Fraction(37, 4) and w.value == math.sqrt(9.25)
    # the display root is the exact square's root, rounded once
    w = jt_norm(vec(ROUNDED_TWICE, FLOAT))
    assert w.value == 489.25940308837437 != math.sqrt(float(w.value_squared))
    assert_rounded_root(*w.value_squared.as_integer_ratio())


def test_float_overflow_raises():
    # the exact optimum, 3e616, is finite; only its rounding to binary64 fails
    xf = vec({"": 1e308, "0": -1e308, "00": 1e308}, FLOAT)
    assert jt_norm(xf).value_squared == jt_norm(exact_of(xf)).value_squared
    assert jt_norm(xf).value_squared == 3 * Fraction(1e308) ** 2
    code, doc = run_float(["norm", "x.json"], {"x.json": float_doc(xf)})
    assert code == 2 and doc == {"error": "the squared norm overflows binary64"}


def test_float_underflow_keeps_the_exact_witness():
    # one segment, 4e-640, beats two singletons, 2e-640, though both round to 0
    xf = vec({"": 1e-320, "0": 1e-320}, FLOAT)
    w = jt_norm(xf)
    assert w.value_squared == jt_norm(exact_of(xf)).value_squared == (2 * Fraction(1e-320)) ** 2
    assert [str(seg) for seg in w.family] == ["..0"]
    # printed, the square rounds to 0 and its root does not
    code, doc = run_float(["witness", "x.json"], {"x.json": float_doc(xf)})
    assert code == 0 and doc["value_squared"] == 0.0 and doc["witness"] == ["..0"]
    assert doc["value"] == 2 * 1e-320


def test_float_intercepts_beyond_binary64_stay_exact():
    # P^2 and 2*P*q exceed binary64 here, while (P - q)^2 does not
    xf = vec({"": 1.2e154, "0": 1.0}, FLOAT)
    w = jt_norm(xf)
    assert w.value_squared == jt_norm(exact_of(xf)).value_squared == (Fraction(1.2e154) + 1) ** 2
    assert [str(seg) for seg in w.family] == ["..0"]
    code, doc = run_float(["witness", "x.json"], {"x.json": float_doc(xf)})
    assert code == 0 and doc["value_squared"] == float(w.value_squared)
    assert math.isfinite(doc["value_squared"]) and doc["witness"] == ["..0"]


def test_deep_pair_costs_no_depth():
    # the support forest has two nodes at any depth
    x = vec({"": 1, "0" * 100_000: 2})
    start = time.perf_counter()
    w = jt_norm(x)
    assert time.perf_counter() - start < 0.5
    assert w.value_squared == 9
    assert [str(seg) for seg in w.family] == [".." + "0" * 100_000]


def test_value_beyond_binary64_square():
    assert NormWitness(Fraction(10**400), ()).value == 1e200
    third = NormWitness(Fraction(10**400, 3), ()).value
    assert math.isclose(third, 1e200 / math.sqrt(3), rel_tol=1e-15)
    with pytest.raises(OverflowError, match="binary64"):
        NormWitness(Fraction(10**800), ()).value


def test_value_below_binary64_square():
    assert NormWitness(Fraction(1, 10**400), ()).value == 1e-200
    third = NormWitness(Fraction(1, 3 * 10**400), ()).value
    assert math.isclose(third, 1e-200 / math.sqrt(3), rel_tol=1e-15)


def test_value_is_rounded_once():
    # sqrt(2/49) = 0.2020305089104421498...; rounding 2/49 first and then
    # its root gives the farther neighbour ...4214
    assert NormWitness(Fraction(2, 49), ()).value == 0.20203050891044216
    assert NormWitness(Fraction(37, 9), ()).value == 2.0275875100994067


# rounded_root against a midpoint oracle: f is the binary64 nearest sqrt(x)
# iff x lies between the squares of f's two rounding midpoints, a tie going
# to the even neighbour

MAX_FLOAT = Fraction(sys.float_info.max)
OVERFLOW_MIDPOINT = (MAX_FLOAT + 2**1024) / 2


def neighbour_midpoints(f: float) -> tuple[Fraction, Fraction]:
    """The rounding midpoints below and above a finite f >= 0; 0 below 0.0."""
    up = math.nextafter(f, math.inf)
    above = Fraction(2**1024) if math.isinf(up) else Fraction(up)
    return (Fraction(f) + Fraction(math.nextafter(f, 0.0))) / 2, (Fraction(f) + above) / 2


def assert_rounded_root(p: int, q: int) -> None:
    x = Fraction(p, q)
    try:
        f = rounded_root(p, q)
    except OverflowError:
        assert x >= OVERFLOW_MIDPOINT**2
        return
    lo, hi = neighbour_midpoints(f)
    even = struct.unpack("<q", struct.pack("<d", f))[0] % 2 == 0
    assert lo * lo < x < hi * hi or (even and x in (lo * lo, hi * hi)), (p, q, f)


FINITE = st.floats(min_value=0.0, max_value=sys.float_info.max)


@st.composite
def root_cases(draw):
    """(p, q) spread over binary64's range, or at, next to or on a midpoint."""
    kind = draw(st.sampled_from(["spread", "midpoint", "square"]))
    if kind == "spread":
        p = draw(st.integers(0, 2**80)) << draw(st.integers(0, 2200))
        q = draw(st.integers(1, 2**80)) << draw(st.integers(0, 2200))
        return p, q
    f = draw(FINITE)
    if kind == "square":
        return (Fraction(f) ** 2).as_integer_ratio()
    mid = neighbour_midpoints(f)[1]
    nudge = Fraction(draw(st.sampled_from([-1, 0, 1])), 2 ** draw(st.integers(100, 300)))
    return (mid * mid * (1 + nudge)).as_integer_ratio()


@settings(deadline=None, max_examples=200)
@given(root_cases())
@example((1, 2**2150))  # a root of 2^-1075, the tie between 0 and the least subnormal
@example((1, 2**2148))  # the least subnormal, exactly
@example((3, 2**2150))
@example((OVERFLOW_MIDPOINT**2).as_integer_ratio())  # the tie into overflow
@example(((MAX_FLOAT + 2**969) ** 2).as_integer_ratio())
@example((0, 7))
def test_property_rounded_root_is_correctly_rounded(case):
    assert_rounded_root(*case)


# ---------------------------------------------------------------------------
# DP against the oracle on adversarial shapes
#
# Each generator returns {enumeration index: dyadic rational} with at most
# 8 support nodes, so the oracle sees at most 36 candidates, and every
# value is exact in binary64, so the float DP runs on the same inputs.

PROPERTY = settings(deadline=None, max_examples=40)
DYADIC = st.builds(
    lambda n, k: Fraction(n, 1 << k),
    st.integers(-16, 16).filter(bool),
    st.integers(0, 4),
)


def path_end(draw, depth):
    """Index of a random node at the given depth."""
    return (1 << depth) | draw(st.integers(0, (1 << depth) - 1))


@st.composite
def deep_chains(draw):
    depth = draw(st.integers(0, 5000))
    end = path_end(draw, depth)
    levels = draw(st.lists(st.integers(0, depth), min_size=1, max_size=8, unique=True))
    values = draw(st.lists(DYADIC, min_size=len(levels), max_size=len(levels)))
    return {end >> (depth - level): v for level, v in zip(levels, values)}


@st.composite
def planted_zero_sums(draw):
    depth = draw(st.integers(1, 40))
    end = path_end(draw, depth)
    levels = draw(st.lists(st.integers(0, depth), min_size=2, max_size=5, unique=True))
    values = draw(st.lists(DYADIC, min_size=len(levels) - 1, max_size=len(levels) - 1))
    values.append(-sum(values))  # the chain's support sums to exactly 0
    entries = {end >> (depth - level): v for level, v in zip(sorted(levels), values)}
    for index in draw(st.lists(st.integers(1, (2 << depth) - 1), max_size=3)):
        entries.setdefault(index, draw(DYADIC))
    return entries


@st.composite
def alternating_chains(draw):
    n = draw(st.integers(1, 8))
    depth = draw(st.integers(n - 1, 60))
    end = path_end(draw, depth)
    levels = draw(st.lists(st.integers(0, depth), min_size=n, max_size=n, unique=True))
    return {
        end >> (depth - level): Fraction((-1) ** i * (i + 1))
        for i, level in enumerate(sorted(levels))
    }


@st.composite
def antichains_under_an_ancestor(draw):
    top_level = draw(st.integers(0, 6))
    top = path_end(draw, top_level)
    gap = draw(st.integers(3, 10))
    offsets = draw(st.lists(st.integers(0, (1 << gap) - 1), min_size=1, max_size=7, unique=True))
    entries = {(top << gap) | offset: draw(DYADIC) for offset in offsets}
    entries[top] = draw(DYADIC)
    return entries


def check_dp_against_oracle(entries):
    x = vec({node_at(i): v for i, v in entries.items()})
    w = jt_norm(x)
    assert w.value_squared == brute_force_norm(x, max_candidates=64).value_squared
    assert family_value_squared(x, w.family) == w.value_squared
    for seg in w.family:
        assert seg.start in x.entries and seg.end in x.entries
        assert sum(v for node, v in x.entries.items() if seg.contains(node)) != 0
    # every value is dyadic, so reading it as binary64 changes nothing
    assert jt_norm(float_read(x)).value_squared == w.value_squared


@PROPERTY
@given(deep_chains())
@example({1: Fraction(1), 1 << 2500: Fraction(-2), 1 << 5000: Fraction(3)})
def test_property_dp_equals_oracle_on_deep_chains(entries):
    check_dp_against_oracle(entries)


@PROPERTY
@given(planted_zero_sums())
def test_property_dp_equals_oracle_on_zero_sum_segments(entries):
    check_dp_against_oracle(entries)


@PROPERTY
@given(alternating_chains())
def test_property_dp_equals_oracle_on_alternating_chains(entries):
    check_dp_against_oracle(entries)


@PROPERTY
@given(antichains_under_an_ancestor())
def test_property_dp_equals_oracle_on_wide_antichains(entries):
    check_dp_against_oracle(entries)


# ---------------------------------------------------------------------------
# the engine against both reference engines at 50 to 2,000 support nodes
#
# Hypothesis draws the shape's size and a seed; the seed fills in the
# values, so every example stays within Hypothesis's data budget.

GATE = settings(deadline=None, max_examples=3)
SIZES = st.integers(50, 2000)
SEEDS = st.integers(0, 2**32 - 1)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
KINDS = st.sampled_from(["int", "dyadic", "prime"])


def draw_value(rng, kind):
    """A nonzero value: an int, a dyadic k/2^j, or k/p for a prime p."""
    k = rng.choice((-1, 1)) * rng.randint(1, 64)
    if kind == "int":
        return Fraction(k)
    if kind == "dyadic":
        return Fraction(k, 1 << rng.randint(0, 8))
    return Fraction(k, rng.choice(PRIMES))


def chain_entries(rng, values, depth):
    """values placed top-down at distinct random levels of one random path."""
    end = (1 << depth) | rng.getrandbits(depth)
    levels = sorted(rng.sample(range(depth + 1), len(values)))
    return {end >> (depth - level): v for level, v in zip(levels, values)}


def check_against_references(entries, chain_values=None, envelope=True):
    """The engine equals the envelope DP and, on a chain, the 2-variation."""
    x = vec({node_at(i): v for i, v in entries.items()})
    w = jt_norm(x)
    assert family_value_squared(x, w.family) == w.value_squared
    if chain_values is not None:
        assert w.value_squared == chain_norm(chain_values)
    if envelope:
        assert w.value_squared == envelope_norm(x).value_squared


@GATE
@given(SIZES, SEEDS, KINDS)
def test_gate_deep_chains(n, seed, kind):
    rng = random.Random(seed)
    values = [draw_value(rng, kind) for _ in range(n)]
    check_against_references(chain_entries(rng, values, rng.randint(n - 1, 5000)), values)


@GATE
@given(SIZES, SEEDS, KINDS)
def test_gate_planted_zero_sum_runs(n, seed, kind):
    # runs of 2 to 6 consecutive support nodes summing to exactly 0
    rng = random.Random(seed)
    values = []
    while len(values) < n:
        run = [draw_value(rng, kind) for _ in range(rng.randint(1, 5))]
        values += run + [-sum(run)] if sum(run) else run
    values = values[:n]
    check_against_references(chain_entries(rng, values, rng.randint(n - 1, 3000)), values)


@GATE
@given(SIZES, SEEDS)
def test_gate_alternating_chains(n, seed):
    # (-1)^i (i+1): the envelope DP keeps every line, so it sees 100 at most
    rng = random.Random(seed)
    values = [Fraction((-1) ** i * (i + 1)) for i in range(n)]
    entries = chain_entries(rng, values, rng.randint(n - 1, 3000))
    check_against_references(entries, values, envelope=False)
    head = values[:100]
    check_against_references(chain_entries(rng, head, rng.randint(99, 300)), head)


@GATE
@given(SIZES, SEEDS, KINDS)
def test_gate_wide_antichains(n, seed, kind):
    # n nodes on one level below a common support ancestor, plus that ancestor
    rng = random.Random(seed)
    top_level, gap = rng.randint(0, 20), n.bit_length() + rng.randint(0, 2)
    top = (1 << top_level) | rng.getrandbits(top_level)
    entries = {(top << gap) | k: draw_value(rng, kind) for k in rng.sample(range(1 << gap), n)}
    entries[top] = draw_value(rng, kind)
    check_against_references(entries)


@GATE
@given(SIZES, SEEDS, KINDS)
def test_gate_random_trees(n, seed, kind):
    rng = random.Random(seed)
    entries = {}
    while len(entries) < n:
        level = rng.randint(0, 40)
        entries[(1 << level) | rng.getrandbits(level)] = draw_value(rng, kind)
    check_against_references(entries)


@GATE
@given(SIZES, SEEDS)
def test_gate_float_magnitudes(n, seed):
    # binary64 values from 1e-300 to 1e154: a float-read vector has the
    # exact optimum of the same inputs, with its witness, and the CLI prints
    # that optimum rounded once, or an error when the rounding overflows
    rng = random.Random(seed)
    entries = {}
    while len(entries) < n:
        level = rng.randint(0, 40)
        magnitude = 10.0 ** rng.uniform(-300, 154)
        entries[(1 << level) | rng.getrandbits(level)] = rng.choice((-1, 1)) * magnitude
    xf = vec({node_at(i): v for i, v in entries.items()}, FLOAT)
    check_against_references({index_of(node): v for node, v in exact_of(xf).entries.items()})
    exact = jt_norm(exact_of(xf))
    assert jt_norm(xf) == exact
    code, doc = run_float(["witness", "x.json"], {"x.json": float_doc(xf)})
    try:
        rounded = float(exact.value_squared)
    except OverflowError:
        assert code == 2 and doc == {"error": "the squared norm overflows binary64"}
        return
    assert code == 0 and doc["value_squared"] == rounded and doc["value"] == exact.value
    assert doc["witness"] == [str(seg) for seg in exact.family]


# ---------------------------------------------------------------------------
# the dual-side sweeps against the scan and pairwise disjointness


def test_interval_sums_examples():
    x = vec({"": 1, "0": 2, "01": 4, "011": 8, "1": 16, "10": 32})
    expected = {
        Segment.parse("0..01"): 6,  # starts and ends on support nodes
        Segment.parse("01..01"): 4,
        Segment.parse("..0110"): 15,  # ends below the support
        Segment.parse("010..0100"): 0,
        Segment.parse("..01"): 7,  # topped by the root, which has nothing above it
        BranchPrefix(ROOT, (1,)): 17,
        BranchPrefix(NodeId.parse("0"), (1,)): 14,  # support below the stem
        BranchPrefix(NodeId.parse("1"), (0,)): 48,
        BranchPrefix(NodeId.parse("1000"), (0,)): 0,  # stem below the support
    }
    assert interval_sums(list(expected), x) == list(expected.values())
    assert interval_sums([], x) == []
    assert interval_sums(list(expected), JTVector.zero(FLOAT)) == [0.0] * len(expected)


def test_interval_sums_float_overflow_names_binary64():
    # the sum is exact; only its printed rounding to binary64 overflows
    xf = vec({"": 1e308, "0": 1e308}, FLOAT)
    assert interval_sums([Segment.parse("..0")], xf) == [2 * Fraction(1e308)]
    k = {"terms": [{"alpha": 1, "interval": "..0"}]}
    code, doc = run_float(["eval", "k.json", "x.json"], {"k.json": k, "x.json": float_doc(xf)})
    assert code == 2 and doc == {"error": "the value of the functional exceeds binary64"}


def test_first_overlap_examples():
    seg = Segment.parse
    assert first_overlap([]) is None
    assert first_overlap([seg("..")]) is None
    # the root's segment, at the bottom of the start stack, misses 10
    assert first_overlap([seg(".."), seg("1..10"), seg("10..10")]) == (1, 2)
    assert first_overlap([seg("10..10"), seg(".."), seg("1..10")]) == (0, 2)
    assert first_overlap([seg("0..0"), seg("1..1"), seg("0..01")]) == (0, 2)  # equal starts
    assert first_overlap([BranchPrefix(ROOT, (0,)), seg("00..000")]) == (0, 1)
    assert first_overlap([seg("00..000"), BranchPrefix(NodeId.parse("0"), (1,))]) is None


SWEEP = settings(deadline=None, max_examples=100)
SWEEP_DEPTH = 6  # support levels; interval tops and ends reach 4 levels deeper


@st.composite
def sweep_node(draw, deepest):
    level = draw(st.integers(0, deepest))
    return node_at((1 << level) | draw(st.integers(0, (1 << level) - 1)))


def below(draw, node, most):
    """node or one of its descendants at most ``most`` levels down."""
    extra = draw(st.integers(0, most))
    return node_at((node << extra) | draw(st.integers(0, (1 << extra) - 1)))


@st.composite
def sweep_cases(draw, backend):
    """A vector and intervals with shared starts, nested segments and
    branches, some of them disjoint, with support on, above and below them."""
    pool = draw(st.lists(sweep_node(SWEEP_DEPTH), min_size=1, max_size=4))
    intervals = []
    for _ in range(draw(st.integers(0, 8))):
        start = below(draw, draw(st.sampled_from(pool)), 2)
        if draw(st.booleans()):
            intervals.append(Segment(start, below(draw, start, 4)))
        else:
            tail = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
            intervals.append(BranchPrefix(start, tuple(tail)))
    nodes = draw(st.lists(sweep_node(SWEEP_DEPTH), max_size=8))
    for iv in intervals:
        top = iv.start if isinstance(iv, Segment) else iv.stem
        level = top.level + draw(st.integers(-1, 3))
        if level < top.level:
            nodes.append(top.prefix(max(level, 0)))
        elif isinstance(iv, BranchPrefix):
            nodes.append(iv.node_at_level(level))
        elif level <= iv.end.level:
            nodes.append(iv.end.prefix(level))
    if backend == EXACT:
        value = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    else:  # magnitudes far apart, so one rounding differs from one per addition
        value = st.floats(-1e300, 1e300).filter(bool)
    x = vec({node: draw(value) for node in nodes}, backend)
    return x, intervals


def greedy_disjoint(intervals):
    kept = []
    for iv in intervals:
        if all(disjoint(iv, other) for other in kept):
            kept.append(iv)
    return kept


@SWEEP
@given(st.sampled_from([EXACT, FLOAT]).flatmap(sweep_cases))
@example((vec({}), [Segment.parse("..0"), BranchPrefix(ROOT, (1,))]))
@example((vec({"0": 1}), []))
@example((vec({"": 1.0, "0": 1e-16, "00": 1e-16}, FLOAT), [Segment.parse("..00")]))
def test_property_interval_sums_equal_the_scan(case):
    # a float-read sum is the exact scan of the same binary64 values, and
    # the CLI prints it rounded once
    x, intervals = case
    exact = exact_of(x)
    for family in (intervals, greedy_disjoint(intervals)):
        got = interval_sums(family, x)
        want = [scan_interval_sum(iv, exact) for iv in family]
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
    if x.backend == FLOAT:
        for iv in intervals:
            v = scan_interval_sum(iv, exact)
            k = {"terms": [{"alpha": 1, "interval": interval_to_json(iv)}]}
            code, doc = run_float(["eval", "k.json", "x.json"], {"k.json": k, "x.json": float_doc(x)})
            assert code == 0 and doc == {"value": float(v), "value_decimal": float(v)}


@SWEEP
@given(
    st.dictionaries(
        sweep_node(3),
        st.one_of(st.floats(-1e150, 1e150), st.floats(-1e300, 1e300)).filter(bool),
        max_size=5,
    )
)
@example({ROOT: 1.0, NodeId.parse("0"): 1e-16, NodeId.parse("00"): 1e-16})
# the upper bound is beyond binary64 and the lower is not
@example({node_at(n): 4.469269309980866e153 for n in (1, 2, 3)})
# the squared norm is beyond binary64
@example({node_at(n): 1e300 for n in (1, 2)})
def test_property_float_results_are_the_exact_values_rounded_once(entries):
    # the library's results on a float-read vector are the exact values of
    # its binary64 inputs; the CLI prints the squared norm rounded once, or
    # names binary64 when that rounding overflows
    xf = vec(entries, FLOAT)
    xe = exact_of(xf)
    exact = brute_force_norm(xe)
    assert brute_force_norm(xf) == exact
    assert family_value_squared(xf, exact.family) == exact.value_squared
    assert norm_lower_upper(xf) == norm_lower_upper(xe)
    results = (exact.value_squared, *norm_lower_upper(xf))
    assert {type(v) for v in results} == {Fraction}
    argv = ["norm", "x.json", "--method", "oracle", "--witness"]
    code, doc = run_float(argv, {"x.json": float_doc(xf)})
    try:
        rounded = float(exact.value_squared)
    except OverflowError:
        assert code == 2 and doc == {"error": "the squared norm overflows binary64"}
        return
    assert code == 0 and doc["value_squared"] == rounded and doc["value"] == exact.value
    assert doc["witness"] == [str(seg) for seg in exact.family]


@SWEEP
@given(sweep_cases(EXACT))
def test_property_first_overlap_matches_pairwise_disjoint(case):
    _, intervals = case
    for family in (intervals, greedy_disjoint(intervals)):
        meeting = [
            (i, j)
            for i, j in itertools.combinations(range(len(family)), 2)
            if not disjoint(family[i], family[j])
        ]
        pair = first_overlap(family)
        assert pair in meeting if meeting else pair is None

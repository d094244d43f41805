"""Acceptance battery: ten go/no-go criteria, one printed line each.

Run with -s to see the lines; every tolerance is stated inline.  The
criterion-1 case set is cached at module level so later criteria reuse
the same 500 vectors without recomputing oracle norms.
"""

import math
import time
from fractions import Fraction

from jamestree.functionals import (
    branch_through,
    eval_interval,
    eval_kstar_squared,
    norming_functional,
    separation_witness,
)
from jamestree.lab import (
    antichain_blocks,
    antichain_nodes,
    l1_lower_constants,
    random_kstar,
    random_node,
    random_vector,
    substream,
)
from jamestree.nodes import NodeId, index_of, node_at
from jamestree.norm import brute_force_norm, jt_norm, norm_lower_upper
from jamestree.vectors import EXACT, FLOAT, JTVector, basis_vector

ACCEPT_SEED = 20260817

_CASES: list[tuple[JTVector, Fraction]] = []


def _criterion1_cases():
    """500 seeded random vectors with their exact squared norms."""
    if not _CASES:
        for i in range(500):
            rng = substream(ACCEPT_SEED, i)
            x = random_vector(rng, max_support=8, max_depth=6)
            _CASES.append((x, jt_norm(x).value_squared))
    return _CASES


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if extra:
        line += f" ({extra})"
    print(line)


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    float_bad = 0
    cases = []
    for i in range(500):
        rng = substream(ACCEPT_SEED, i)
        x = random_vector(rng, max_support=8, max_depth=6)
        dp = jt_norm(x).value_squared
        oracle = brute_force_norm(x, max_candidates=64).value_squared
        if dp != oracle:
            mismatches += 1
        xf = JTVector.from_entries({n: float(v) for n, v in x.entries.items()}, FLOAT)
        fdp = jt_norm(xf).value_squared
        if not math.isclose(fdp, float(dp), rel_tol=1e-9):
            float_bad += 1
        cases.append((x, dp))
    elapsed = time.perf_counter() - started
    if not _CASES:
        _CASES.extend(cases)
    ok = mismatches == 0 and float_bad == 0 and elapsed < 60.0
    _report(
        1,
        "dp equals oracle on 500 vectors, float within 1e-9 rel",
        ok,
        f"{elapsed:.1f}s, {mismatches} exact and {float_bad} float mismatches",
    )
    assert ok


def test_criterion_02_axioms_and_sandwich():
    cases = _criterion1_cases()
    bad = 0
    for i, (x, value_sq) in enumerate(cases):
        lower, upper = norm_lower_upper(x)
        if not lower <= value_sq <= upper:
            bad += 1
        rng = substream(ACCEPT_SEED, 1000 + i)
        c = Fraction(rng.randint(1, 7), rng.randint(1, 4)) * rng.choice((1, -1))
        if jt_norm(x.scale(c)).value_squared != c * c * value_sq:
            bad += 1
    for (x, xs), (y, ys) in zip(cases[0::2], cases[1::2]):
        lhs = math.sqrt(float(jt_norm(x + y).value_squared))
        rhs = math.sqrt(float(xs)) + math.sqrt(float(ys))
        if lhs > rhs + 1e-12:
            bad += 1
    ok = bad == 0
    _report(
        2,
        "homogeneity exact, triangle within 1e-12, sandwich exact",
        ok,
        f"{len(cases)} cases, {bad} violations",
    )
    assert ok


def test_criterion_03_monotone_unit_basis():
    bad = 0
    for i in range(200):
        rng = substream(ACCEPT_SEED, 2000 + i)
        x = random_vector(rng)
        n = rng.randint(0, 80)
        if (
            jt_norm(x.partial_sum(n)).value_squared
            > jt_norm(x.partial_sum(n + 1)).value_squared
        ):
            bad += 1
    for i in range(50):
        rng = substream(ACCEPT_SEED, 2500 + i)
        node = random_node(rng, max_depth=12)
        if jt_norm(basis_vector(node)).value_squared != 1:
            bad += 1
    ok = bad == 0
    _report(3, "prefix norms nondecreasing, unit vectors exact", ok, f"{bad} violations")
    assert ok


def test_criterion_04_super_additivity():
    bad = 0
    for i in range(200):
        rng = substream(ACCEPT_SEED, 3000 + i)
        x = random_vector(rng)
        k = rng.randint(0, 96)
        s_k = x.partial_sum(k)
        head = jt_norm(s_k).value_squared
        tail = jt_norm(x - s_k).value_squared
        if head + tail > jt_norm(x).value_squared:
            bad += 1
    ok = bad == 0
    _report(4, "head+tail squared norms never exceed the whole, exact", ok, f"{bad} violations")
    assert ok


def test_criterion_05_norming_functionals():
    bad = 0
    for i in range(200):
        rng = substream(ACCEPT_SEED, 4000 + i)
        x = random_vector(rng)
        value_sq = jt_norm(x).value_squared
        if eval_kstar_squared(norming_functional(x), x) != value_sq:
            bad += 1
        if eval_kstar_squared(random_kstar(rng), x) > value_sq:
            bad += 1
    ok = bad == 0
    _report(5, "norming identity exact, random elements never exceed", ok, f"{bad} violations")
    assert ok


def test_criterion_06_antichain_law():
    bad = 0
    for n in (1, 4, 16, 64):
        nodes = antichain_nodes(n)
        if any(node.level != max(0, math.ceil(math.log2(n))) for node in nodes):
            bad += 1
        x = JTVector.from_entries({node: Fraction(1, n) for node in nodes}, EXACT)
        if jt_norm(x).value_squared != Fraction(1, n):
            bad += 1
        if n <= 8 and brute_force_norm(x, max_candidates=64).value_squared != Fraction(1, n):
            bad += 1
    ok = bad == 0
    _report(6, "n antichain nodes at 1/n give value_squared 1/n exactly", ok, f"{bad} violations")
    assert ok


def test_criterion_07_l1_constant_decay():
    ns = (1, 4, 9, 16, 25)
    constants = l1_lower_constants(antichain_blocks(25), ns, budget=120, seed=ACCEPT_SEED)
    scaled_ok = all(constants[n] * math.sqrt(n) <= 1.0 + 1e-9 for n in ns)
    final_ok = constants[25] < 0.21
    ok = scaled_ok and final_ok
    _report(
        7,
        "l1 constants scale below 1+1e-9, c_25 under 0.21",
        ok,
        "c = " + ", ".join(f"{constants[n]:.4f}" for n in ns),
    )
    assert ok


def test_criterion_08_enumeration_inverts():
    started = time.perf_counter()
    bad = 0
    for n in range(1, (1 << 16) + 1):
        node = node_at(n)
        if node.level != n.bit_length() - 1 or index_of(node) != n:
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 5.0
    _report(
        8,
        "levels are floor(log2 n) and index_of inverts node_at up to 2^16",
        ok,
        f"{elapsed:.2f}s, {bad} violations",
    )
    assert ok


def test_criterion_09_one_separation():
    bad = 0
    done = 0
    i = 0
    while done < 100:
        rng = substream(ACCEPT_SEED, 5000 + i)
        i += 1
        level = rng.randint(1, 12)
        p = NodeId(tuple(rng.randint(0, 1) for _ in range(level)))
        q = NodeId(tuple(rng.randint(0, 1) for _ in range(level)))
        if p == q:
            continue
        done += 1
        s = separation_witness(p, q)
        e_s = basis_vector(s)
        diff = eval_interval(branch_through(p), e_s) - eval_interval(
            branch_through(q), e_s
        )
        if diff != 1:
            bad += 1
    ok = bad == 0
    _report(9, "separation witnesses give functional difference exactly 1", ok, f"{bad} violations")
    assert ok


def test_criterion_10_large_instance_speed():
    rng = substream(ACCEPT_SEED, 9999)
    entries: dict[NodeId, float] = {}
    while len(entries) < 10000:
        level = rng.randint(0, 40)
        node = node_at((1 << level) + rng.getrandbits(level))
        value = rng.uniform(-1.0, 1.0)
        if node not in entries and value != 0.0:
            entries[node] = value
    x = JTVector.from_entries(entries, FLOAT)
    assert len(x.support()) == 10000
    started = time.perf_counter()
    witness = jt_norm(x)
    elapsed = time.perf_counter() - started
    lower, upper = norm_lower_upper(x)
    sandwich = (
        witness.value_squared >= lower * (1.0 - 1e-9)
        and witness.value_squared <= upper * (1.0 + 1e-9)
    )
    ok = elapsed < 5.0 and sandwich
    _report(
        10,
        "10,000-node float norm under 5s inside the sandwich",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok

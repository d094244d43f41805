"""Property experiments: basis constants, l1-constant decay, Cauchy probes.

Everything here is desk-scale empiricism layered on the exact norm engine:
seeded generators produce instances, the engine evaluates them, and the
results are packaged as reproducible reports.  Each trial draws its own
substream from (seed, trial index), so re-running a report with the same
seed and parameters reproduces it bit-for-bit on the exact backend, and
trials could run in any order or concurrently without changing results.

The l1 search is an upper-bound heuristic and is labeled as such:
minimizing the norm over the l1 sphere is nonconvex, so beyond
oracle-verified small cases no exactness is claimed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .nodes import BranchPrefix, Interval, NodeId, Segment, node_at
from .norm import brute_force_norm, interval_sums, jt_norm
from .functionals import KStarElement, interval_to_json
from .vectors import (
    EXACT,
    JTVector,
    Scalar,
    basis_vector,
    scalar_to_json,
)


def substream(seed: int, index: int) -> random.Random:
    """Deterministic per-trial RNG: independent of how many trials run."""
    base = random.Random(seed).getrandbits(64)
    return random.Random(base ^ (index * 0x9E3779B97F4A7C15))


# ---------------------------------------------------------------------------
# instance generators


def random_node(rng: random.Random, max_depth: int = 6) -> NodeId:
    depth = rng.randint(0, max_depth)
    return NodeId(tuple(rng.randint(0, 1) for _ in range(depth)))


def random_rational(
    rng: random.Random,
    numerator_bound: int = 5,
    max_denominator: int = 4,
    nonzero: bool = False,
) -> Fraction:
    num = rng.randint(-numerator_bound, numerator_bound)
    while nonzero and num == 0:
        num = rng.randint(-numerator_bound, numerator_bound)
    return Fraction(num, rng.randint(1, max_denominator))


def random_vector(
    rng: random.Random,
    max_support: int = 8,
    max_depth: int = 6,
    numerator_bound: int = 5,
    max_denominator: int = 4,
    backend: str = EXACT,
    nonzero: bool = True,
) -> JTVector:
    """Support nodes at uniform depth <= max_depth, small rational entries."""
    while True:
        entries: dict[NodeId, object] = {}
        for _ in range(rng.randint(1, max_support)):
            node = random_node(rng, max_depth)
            value = random_rational(rng, numerator_bound, max_denominator)
            entries[node] = value if backend == EXACT else float(value)
        x = JTVector.from_entries(entries, backend)
        if not nonzero or not x.is_zero:
            return x


def antichain_nodes(n: int) -> list[NodeId]:
    """The first n nodes of the lowest level that holds n of them."""
    if n < 1:
        raise ValueError("need at least one node")
    level = max(0, (n - 1).bit_length())  # smallest k with 2^k >= n
    return [node_at((1 << level) + i) for i in range(n)]


def random_kstar(
    rng: random.Random,
    max_terms: int = 4,
    max_tail: int = 3,
    backend: str = EXACT,
) -> KStarElement:
    """A valid random norming-set element: disjoint intervals, l2-bounded weights.

    Intervals are planted below distinct same-level stems, which makes
    disjointness automatic; weights are integers with scale_squared set to
    their squared sum (or larger), keeping the coefficient vector in the
    l2 ball without materializing any square root.
    """
    m = rng.randint(1, max_terms)
    level = max(1, (m - 1).bit_length())
    stems = rng.sample(range(1 << level), m)
    terms = []
    weight_sq = 0
    for code in sorted(stems):
        stem = node_at((1 << level) + code)
        w = rng.randint(-3, 3)
        weight_sq += w * w
        if rng.random() < 0.5:
            end = stem
            for _ in range(rng.randint(0, max_tail)):
                end = end.child(rng.randint(0, 1))
            interval: Interval = Segment(stem, end)
        else:
            tail = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, max_tail)))
            interval = BranchPrefix(stem, tail)
        terms.append((w, interval))
    scale = max(1, weight_sq + rng.choice((0, 0, 1, 4)))
    return KStarElement.from_terms(terms, backend, scale)


# ---------------------------------------------------------------------------
# block sequences


@dataclass(frozen=True)
class BlockSequence:
    """Nonzero vectors supported on consecutive windows of the enumeration.

    Block k lives on {t_i : boundaries[k] < i <= boundaries[k+1]}, so there
    is one more boundary than there are blocks.
    """

    blocks: tuple[JTVector, ...]
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.blocks) + 1:
            raise ValueError("need exactly one boundary more than blocks")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must increase strictly")
        backends = {u.backend for u in self.blocks}
        if len(backends) > 1:
            raise ValueError("blocks must share a backend")
        for k, u in enumerate(self.blocks):
            if u.is_zero:
                raise ValueError(f"block {k + 1} is zero")
            lo, hi = self.boundaries[k], self.boundaries[k + 1]
            for i in (min(u.entries), max(u.entries)):
                if not lo < i <= hi:
                    raise ValueError(
                        f"block {k + 1} touches t_{i:d} outside its window ({lo}, {hi}]"
                    )

    @classmethod
    def from_blocks(cls, blocks: Sequence[JTVector]) -> "BlockSequence":
        """Derive the tightest boundaries; fails if supports are not successive."""
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        if any(u.is_zero for u in blocks):
            raise ValueError("blocks must be nonzero")
        first = min(blocks[0].entries)
        ends = [int(max(u.entries)) for u in blocks]
        return cls(blocks, (first - 1, *ends))

    @property
    def backend(self) -> str:
        return self.blocks[0].backend

    def combine(self, coefficients: Sequence) -> JTVector:
        """sum_i coefficients[i] * block_i (prefix if fewer coefficients)."""
        # block supports are disjoint, so the scaled entries never collide
        entries: dict[NodeId, Scalar] = {}
        for c, u in zip(coefficients, self.blocks):
            entries.update(u.scale(c).entries)
        return JTVector(entries, self.backend)


def standard_basis_blocks(count: int, backend: str = EXACT) -> BlockSequence:
    return BlockSequence.from_blocks(
        [basis_vector(node_at(i), backend) for i in range(1, count + 1)]
    )


def antichain_blocks(n: int, backend: str = EXACT) -> BlockSequence:
    """Singleton blocks on n same-level incomparable nodes."""
    return BlockSequence.from_blocks(
        [basis_vector(node, backend) for node in antichain_nodes(n)]
    )


def chain_blocks(n: int, backend: str = EXACT) -> BlockSequence:
    """Singleton blocks down the leftmost branch: levels 1..n."""
    return BlockSequence.from_blocks(
        [basis_vector(node_at(1 << k), backend) for k in range(1, n + 1)]
    )


def random_block_sequence(
    rng: random.Random, count: int = 4, window: int = 4, backend: str = EXACT
) -> BlockSequence:
    blocks = []
    for k in range(count):
        lo, hi = k * window, (k + 1) * window
        entries: dict[NodeId, object] = {}
        while not entries:
            for i in range(lo + 1, hi + 1):
                if rng.random() < 0.6:
                    value = random_rational(rng, nonzero=True)
                    entries[node_at(i)] = value if backend == EXACT else float(value)
        blocks.append(JTVector.from_entries(entries, backend))
    boundaries = tuple(k * window for k in range(count + 1))
    return BlockSequence(tuple(blocks), boundaries)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    records: tuple
    verdict: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "records": list(self.records),
            "verdict": "pass" if self.verdict else "fail",
        }


def _report(name: str, parameters: dict, records: list) -> ExperimentReport:
    """A report that passes when every record is ok."""
    return ExperimentReport(
        name, parameters, tuple(records), all(r["ok"] for r in records)
    )


# ---------------------------------------------------------------------------
# experiments


def basic_sequence_constant(
    blocks: BlockSequence, samples: int = 40, seed: int = 0
) -> float:
    """Empirical estimate of the basis constant of a block sequence.

    Maximizes ||sum_{i<=n} c_i u_i|| / ||sum_{i<=m} c_i u_i|| over sampled
    coefficients and n < m.  Coefficient vectors vanishing beyond position
    n make the ratio exactly 1, so the estimate always reaches 1; for
    blocks of this monotone basis it never exceeds it.
    """
    K = len(blocks.blocks)
    if K == 1:
        return 1.0
    best_ratio = 1  # what coefficients vanishing beyond n give
    draws = []
    for i in range(samples):
        rng = substream(seed, i)
        lam = [random_rational(rng) for _ in range(K)]
        if all(c == 0 for c in lam):
            lam[rng.randrange(K)] = Fraction(1)
        draws.append(lam)
    for lam in draws:
        coeffs = lam if blocks.backend == EXACT else [float(c) for c in lam]
        norms_sq = [
            jt_norm(blocks.combine(coeffs[:n])).value_squared for n in range(1, K + 1)
        ]
        for n in range(K - 1):
            for m in range(n + 1, K):
                if norms_sq[m] == 0:
                    continue
                ratio = norms_sq[n] / norms_sq[m]
                if ratio > best_ratio:
                    best_ratio = ratio
    return math.sqrt(float(best_ratio))


def _sign_patterns(rng: random.Random, n: int, budget: int) -> list[tuple[int, ...]]:
    if n <= 1:
        return [(1,) * n]
    if (1 << n) <= budget:
        return [
            tuple(1 if (mask >> i) & 1 == 0 else -1 for i in range(n))
            for mask in range(1 << n)
        ]
    patterns = [tuple(1 for _ in range(n)), tuple(-1 if i % 2 else 1 for i in range(n))]
    for _ in range(max(0, budget - 2)):
        patterns.append(tuple(rng.choice((1, -1)) for _ in range(n)))
    return patterns


def _l1_search(
    blocks: BlockSequence,
    n: int,
    budget: int,
    rng: random.Random,
    warm_starts: list[tuple[Fraction, ...]],
) -> tuple[Scalar, tuple[Fraction, ...]]:
    """Minimize ||sum_{i<=n} lam_i u_i||^2 over the l1 sphere (heuristic).

    Sampling plus pairwise mass transfer; returns (squared value, lam).
    Everything is rational so exact-backend comparisons are exact.
    """
    backend = blocks.backend

    evals = 0

    def value_sq(lam: Sequence[Fraction]) -> Scalar:
        nonlocal evals
        evals += 1
        coeffs = lam if backend == EXACT else [float(c) for c in lam]
        return jt_norm(blocks.combine(coeffs)).value_squared

    uniform = tuple(Fraction(1, n) for _ in range(n))
    candidates: list[tuple[Fraction, ...]] = [uniform]
    for lam in warm_starts:
        padded = tuple(lam[:n]) + (Fraction(0),) * max(0, n - len(lam))
        if sum(abs(c) for c in padded) == 1:
            candidates.append(padded)
    for signs in _sign_patterns(rng, n, budget // 3):
        candidates.append(tuple(s * Fraction(1, n) for s in signs))
    for _ in range(budget // 3):
        weights = [rng.randint(0, 64) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        candidates.append(
            tuple(rng.choice((1, -1)) * Fraction(w, total) for w in weights)
        )

    best_lam = candidates[0]
    best_sq = value_sq(best_lam)
    for lam in candidates[1:]:
        if evals >= 4 * budget:
            break
        v = value_sq(lam)
        if v < best_sq:
            best_sq, best_lam = v, lam

    # pairwise mass transfer: move a slice of |lam_i| onto j (either sign)
    improved = True
    while improved and evals < 6 * budget:
        improved = False
        for i in range(n):
            if best_lam[i] == 0:
                continue
            for j in range(n):
                if i == j:
                    continue
                for step in (Fraction(1, 2), Fraction(1, 8), Fraction(1, 32)):
                    if evals >= 6 * budget:
                        break
                    slice_ = abs(best_lam[i]) * step
                    sign_j = 1 if best_lam[j] >= 0 else -1
                    trial = list(best_lam)
                    trial[i] = best_lam[i] * (1 - step)
                    trial[j] = best_lam[j] + sign_j * slice_
                    v = value_sq(trial)
                    if v < best_sq:
                        best_sq, best_lam = v, tuple(trial)
                        improved = True
    return best_sq, tuple(best_lam)


def l1_lower_constants(
    blocks: BlockSequence,
    ns: Iterable[int],
    budget: int = 150,
    seed: int = 0,
) -> dict[int, float]:
    """Upper estimates c_n of the l1-lower constant, nonincreasing in n.

    Searches are nested: each n reuses the minimizers found for smaller n
    (padded with zeros), so c_n can only go down as n grows.
    """
    ns = sorted(set(ns))
    if not ns:
        return {}
    if ns[-1] > len(blocks.blocks):
        raise ValueError(f"only {len(blocks.blocks)} blocks available")
    warm: list[tuple[Fraction, ...]] = []
    out: dict[int, float] = {}
    for n in ns:
        rng = substream(seed, n)
        best_sq, best_lam = _l1_search(blocks, n, budget, rng, warm)
        warm = [best_lam]
        out[n] = math.sqrt(float(best_sq))
    return out


def w_cauchy_probe(
    seq: Sequence[JTVector],
    intervals: Sequence[Interval],
    threshold: float | None = None,
) -> ExperimentReport:
    """Tabulate I*(x_n) per interval with tail oscillation moduli.

    For each interval the modulus at N is max_{m,n >= N} |a_m - a_n|
    (computed as suffix max minus suffix min).  A threshold, when given,
    must be met by the final-quarter moduli for a pass verdict.
    """
    records = []
    verdict = True
    count = len(seq)
    table = [interval_sums(intervals, x) for x in seq]  # table[n][i] = I_i*(x_n)
    for i, interval in enumerate(intervals):
        values = [row[i] for row in table]
        moduli = []
        if values:
            suffix_max = values[-1]
            suffix_min = values[-1]
            rev = []
            for a in reversed(values):
                suffix_max = max(suffix_max, a)
                suffix_min = min(suffix_min, a)
                rev.append(suffix_max - suffix_min)
            moduli = list(reversed(rev))
        if threshold is not None and moduli:
            tail_at = max(0, count - max(1, count // 4))
            if float(moduli[tail_at]) > threshold:
                verdict = False
        records.append(
            {
                "interval": interval_to_json(interval),
                "values": [scalar_to_json(v) for v in values],
                "moduli": [scalar_to_json(m) for m in moduli],
            }
        )
    return ExperimentReport(
        name="w-cauchy-probe",
        parameters={"count": count, "threshold": threshold},
        records=tuple(records),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# named experiment runners (CLI entry points)


def run_oracle_vs_dp(seed: int = 0, trials: int | None = None) -> ExperimentReport:
    trials = 100 if trials is None else trials
    records = []
    for i in range(trials):
        rng = substream(seed, i)
        x = random_vector(rng)
        dp = jt_norm(x)
        oracle = brute_force_norm(x, max_candidates=64)
        records.append(
            {
                "trial": i,
                "value_squared": scalar_to_json(oracle.value_squared),
                "ok": dp.value_squared == oracle.value_squared,
            }
        )
    return _report("oracle-vs-dp", {"trials": trials, "seed": seed}, records)


def run_lemma_estimates(seed: int = 0, trials: int | None = None) -> ExperimentReport:
    """Random checks of ||s_k||^2 + ||x - s_k||^2 <= ||x||^2, zero tolerance."""
    trials = 100 if trials is None else trials
    records = []
    for i in range(trials):
        rng = substream(seed, i)
        x = random_vector(rng)
        k = rng.randint(0, 96)
        s_k = x.partial_sum(k)
        head = jt_norm(s_k).value_squared
        tail = jt_norm(x - s_k).value_squared
        whole = jt_norm(x).value_squared
        records.append(
            {
                "trial": i,
                "k": k,
                "head_sq": scalar_to_json(head),
                "tail_sq": scalar_to_json(tail),
                "whole_sq": scalar_to_json(whole),
                "ok": head + tail <= whole,
            }
        )
    return _report("lemma-estimates", {"trials": trials, "seed": seed}, records)


def run_basis_constant(seed: int = 0, trials: int | None = None) -> ExperimentReport:
    trials = 30 if trials is None else trials
    records = []
    cases = {
        "standard-basis-8": standard_basis_blocks(8),
        "antichain-8": antichain_blocks(8),
        "random-blocks": random_block_sequence(substream(seed, 0)),
    }
    for label, blocks in cases.items():
        k_hat = basic_sequence_constant(blocks, samples=trials, seed=seed)
        records.append({"blocks": label, "constant": k_hat, "ok": k_hat <= 1.0 + 1e-9})
    return _report("basis-constant", {"trials": trials, "seed": seed}, records)


def run_l1_decay(seed: int = 0, trials: int | None = None) -> ExperimentReport:
    budget = 120 if trials is None else trials
    ns = (1, 4, 9, 16, 25)
    blocks = antichain_blocks(max(ns))
    constants = l1_lower_constants(blocks, ns, budget=budget, seed=seed)
    records = []
    prev = None
    for n in ns:
        c = constants[n]
        ok = c * math.sqrt(n) <= 1.0 + 1e-9 and (prev is None or c <= prev + 1e-12)
        records.append({"n": n, "constant": c, "scaled": c * math.sqrt(n), "ok": ok})
        prev = c
    return _report("l1-decay", {"budget": budget, "seed": seed, "ns": list(ns)}, records)


def run_w_cauchy(seed: int = 0, trials: int | None = None) -> ExperimentReport:
    rng = substream(seed, 0)
    x = random_vector(rng, max_support=6, max_depth=4)
    stop = max(x.entries)
    steps = stop + max(4, 0 if trials is None else trials)
    seq = [x.partial_sum(k) for k in range(1, steps + 1)]
    intervals: list[Interval] = [
        Segment(NodeId(), node_at(4)),
        Segment(node_at(3), node_at(6)),
        BranchPrefix(NodeId(), (0,)),
    ]
    report = w_cauchy_probe(seq, intervals)
    # partial sums stabilize once every support index has been swept in,
    # so the tail of each value row must be constant
    verdict = True
    for record in report.records:
        tail = record["values"][stop - 1 :]
        if len(set(tail)) > 1:
            verdict = False
    return ExperimentReport(
        name="w-cauchy",
        parameters={"steps": steps, "seed": seed},
        records=report.records,
        verdict=verdict,
    )


EXPERIMENTS = {
    "oracle-vs-dp": run_oracle_vs_dp,
    "lemma-estimates": run_lemma_estimates,
    "basis-constant": run_basis_constant,
    "l1-decay": run_l1_decay,
    "w-cauchy": run_w_cauchy,
}


def run_check_suite(seed: int = 0) -> list[ExperimentReport]:
    """The fast battery behind the check subcommand."""
    return [
        run_oracle_vs_dp(seed=seed, trials=40),
        run_lemma_estimates(seed=seed, trials=40),
        run_basis_constant(seed=seed, trials=10),
        run_l1_decay(seed=seed, trials=40),
        run_w_cauchy(seed=seed),
    ]

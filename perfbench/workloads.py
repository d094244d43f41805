"""The four workloads: seeded inputs, the op each input drives, and the
untimed check of every op's output.

Every workload is a closed loop with one client.  Its inputs form a pool of
ops whose length does not depend on the seed; the seed only changes what the
inputs contain.  Sizes are stratified (one draw per stratum of a log-uniform
range) and visited in bit-reversed stratum order, so any prefix of the pool
that a run gets through has nearly the same size mix on every seed.

An op returns its raw output; ``Workload.check`` returns None when the
output is right and a one-line reason when it is not.  The checks use this
file's own arithmetic on the generated inputs, except the dual-certificate
identity, which holds two outputs of the program against each other.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from jamestree import cli, functionals, norm
from jamestree.vectors import EXACT, FLOAT, JTVector

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0  # at full size, exact values on this seed must match golden.json
REL_TOL = 1e-9


class Op:
    """One closed-loop request: ``run()`` is the timed part.

    ``input`` is what the program receives (CLI arguments and file text, or
    the vector), ``key`` the pool entry the check looks up.
    """

    __slots__ = ("key", "label", "backend", "input", "run")

    def __init__(self, key, label, backend, input, run):
        self.key = key
        self.label = label
        self.backend = backend
        self.input = input
        self.run = run


def bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order; n must be a power of two."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(n)]


def stratified_sizes(rng: random.Random, n: int, lo: float, hi: float) -> list[int]:
    """One log-uniform size per stratum, listed in bit-reversed stratum order."""
    span = math.log(hi / lo)
    out = []
    for i in bit_reversed(n):
        out.append(max(1, round(lo * math.exp((i + rng.random()) / n * span))))
    return out


def random_bits(rng: random.Random, depth: int) -> str:
    return "".join("01"[rng.getrandbits(1)] for _ in range(depth))


def dyadic_vector(rng: random.Random, size: int, max_depth: int) -> dict[str, Fraction]:
    """``size`` distinct nodes at uniform depth, values k/8 with 0 < |k| <= 64.

    Dyadic values print as short decimals that binary64 holds exactly, so
    one file means the same vector on both backends.
    """
    entries: dict[str, Fraction] = {}
    while len(entries) < size:
        node = random_bits(rng, rng.randint(0, max_depth))
        k = rng.randint(1, 64) * rng.choice((1, -1))
        entries[node] = Fraction(k, 8)
    return entries


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# independent arithmetic for the checks


def sandwich(values) -> tuple[Fraction, Fraction]:
    """(sum x^2, (sum |x|)^2): the squared norm always lies in between."""
    low = sum((v * v for v in values), Fraction(0))
    high = sum((abs(v) for v in values), Fraction(0))
    return low, high * high


def certificate_error(entries: dict[str, Fraction], segments: list[str], value_sq: Fraction):
    """Check a witness family: disjoint segments whose squared sums add up."""
    seen: Counter = Counter()
    total = Fraction(0)
    for seg in segments:
        start, sep, end = seg.partition("..")
        if sep != ".." or not end.startswith(start):
            return f"bad segment {seg!r}"
        chain = [end[:k] for k in range(len(start), len(end) + 1)]
        seen.update(chain)
        s = sum((entries.get(node, 0) for node in chain), Fraction(0))
        total += s * s
    if seen and max(seen.values()) > 1:
        return "witness segments overlap"
    if total != value_sq:
        return f"witness sums to {total}, not {value_sq}"
    return None


def chain_norm_squared(values: list[int]) -> int:
    """Squared norm of a vector on one chain, by an O(m^2) DP over cut points.

    On a chain every segment is a run of consecutive nodes, so best[j] is
    the best family on the first j nodes: skip node j-1, or close a run
    i..j-1 on top of best[i].
    """
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + v)
    best = [0] * (len(values) + 1)
    for j in range(1, len(values) + 1):
        b = best[j - 1]
        pj = prefix[j]
        for i in range(j):
            d = pj - prefix[i]
            c = best[i] + d * d
            if c > b:
                b = c
        best[j] = b
    return best[-1]


def close(a: float, b) -> bool:
    return abs(a - float(b)) <= REL_TOL * max(1.0, abs(float(b)))


# ---------------------------------------------------------------------------
# input descriptors


def descriptor(nodes, backend_mix: str, chain: int | None = None) -> dict:
    """Support, support-closure size, depth and longest support chain.

    The closure holds every node between a minimal support node and a
    support node below it.  Walking the support in lexicographic order, a
    node adds the part of its closure chain below its common prefix with
    the previous node (standard distinct-prefix counting).  ``chain``, when
    the caller knows it, saves the quadratic longest-chain scan.
    """
    supp = set(nodes)
    lengths = sorted({len(t) for t in supp})
    closure = 0
    longest = 0
    prev = None
    for t in sorted(supp):
        top = next(k for k in lengths if t[:k] in supp)
        if chain is None:
            longest = max(longest, sum(1 for k in lengths if k <= len(t) and t[:k] in supp))
        lcp = len(os.path.commonprefix([prev, t])) if prev is not None else -1
        closure += len(t) - max(lcp, top - 1)
        prev = t
    return {
        "support": len(supp),
        "closure": closure,
        "closure_ratio": closure / len(supp),
        "max_depth": lengths[-1],
        "chain": longest if chain is None else chain,
        "backends": backend_mix,
    }


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    round_len = 1  # ops that always run together; the loop stops between rounds
    warmup = 0  # pool index of the untimed warm-up op
    check_golden = False  # set by make() on the golden seed at full size
    golden = None

    def make(self, seed: int, workdir: Path, scale: float = 1.0) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out, seed: int) -> str | None:
        raise NotImplementedError

    def descriptors(self) -> list[dict]:
        return []

    def golden_error(self, key: int, value_sq: Fraction) -> str | None:
        """On the golden seed at full size, compare with the recorded value.

        This catches an achievable but sub-optimal answer, which passes
        every certificate check.
        """
        if not self.check_golden:
            return None
        if self.golden is None:
            with open(GOLDEN_FILE, encoding="utf-8") as fh:
                self.golden = json.load(fh)[self.name]
        if value_sq != Fraction(self.golden[key]):
            return f"{value_sq} differs from golden {self.golden[key]}"
        return None


class WitnessRandom(Workload):
    """``jamestree witness FILE --backend B`` on pre-written dyadic files."""

    name = "witness-random"
    round_len = 2
    files = 64
    support = (40, 400)
    max_depth = 40

    def make(self, seed, workdir, scale=1.0):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = (max(2, round(s * scale)) for s in self.support)
        self.inputs = []
        self.exact_values: dict[int, Fraction] = {}
        self.check_golden = seed == GOLDEN_SEED and scale == 1.0
        pool = []
        for key, size in enumerate(stratified_sizes(rng, self.files, lo, hi)):
            entries = dyadic_vector(rng, size, self.max_depth)
            path = workdir / f"w{key:03d}.json"
            text = json.dumps({n: float(v) for n, v in entries.items()})
            path.write_text(text)
            self.inputs.append(entries)
            for backend in (EXACT, FLOAT):
                argv = ["witness", str(path), "--backend", backend]
                pool.append(Op(key, backend, backend, (argv, text), lambda argv=argv: run_cli(argv)))
        self.warmup = 2 * bit_reversed(self.files).index(self.files // 2)
        return pool

    def check(self, op, out, seed):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        entries = self.inputs[op.key]
        if op.backend == FLOAT:
            exact = self.exact_values.get(op.key)
            if exact is None:
                return "no exact result for this file to compare with"
            if not close(doc["value_squared"], exact):
                return f"float {doc['value_squared']} differs from exact {exact}"
            return None
        value_sq = Fraction(doc["value_squared"])
        err = certificate_error(entries, doc["witness"], value_sq)
        if err:
            return err
        low, high = sandwich(entries.values())
        if not low <= value_sq <= high:
            return f"{value_sq} outside the sandwich [{low}, {high}]"
        err = self.golden_error(op.key, value_sq)
        if err:
            return err
        self.exact_values[op.key] = value_sq
        return None

    def descriptors(self):
        return [descriptor(e, "exact+float") for e in self.inputs]


class AdversarialShapes(Workload):
    """Library ``jt_norm`` on deep two-node pairs and alternating chains."""

    name = "adversarial-shapes"
    round_len = 4
    rounds = 32
    deep = (600, 5000)
    chain_exact = (40, 160)
    chain_float = (80, 400)

    def make(self, seed, workdir, scale=1.0):
        rng = random.Random(f"{self.name}:{seed}")

        def sizes(bounds):
            lo, hi = (max(2, round(s * scale)) for s in bounds)
            return stratified_sizes(rng, self.rounds, lo, hi)

        deep_e, deep_f = sizes(self.deep), sizes(self.deep)
        chain_e, chain_f = sizes(self.chain_exact), sizes(self.chain_float)
        self.shapes = []
        pool = []

        def add(label, backend, entries, expected, chain):
            key = len(self.shapes)
            self.shapes.append((entries, expected, chain, backend))
            x = JTVector.from_entries(entries, backend)
            pool.append(Op(key, label, backend, x, lambda: norm.jt_norm(x)))

        for r in range(self.rounds):
            for d, backend in ((deep_e[r], EXACT), (deep_f[r], FLOAT)):
                add("deep-pair", backend, {"": 1, random_bits(rng, d): 1}, 4, 2)
            for m, backend in ((chain_e[r], EXACT), (chain_f[r], FLOAT)):
                path = random_bits(rng, m - 1)
                values = [(-1) ** i * (i + 1) for i in range(m)]
                entries = {path[:i]: v for i, v in enumerate(values)}
                add("alt-chain", backend, entries, values, m)
        self.expected: dict[int, int] = {}
        self.warmup = 2  # the first exact chain
        return pool

    def check(self, op, out, seed):
        entries, expected, _, backend = self.shapes[op.key]
        if op.label == "alt-chain":
            if op.key not in self.expected:
                self.expected[op.key] = chain_norm_squared(expected)
            expected = self.expected[op.key]
        got = out.value_squared
        ok = got == expected if backend == EXACT else close(got, expected)
        return None if ok else f"{op.label} gave {got}, expected {expected}"

    def descriptors(self):
        return [
            descriptor(entries, backend, chain)
            for entries, _, chain, backend in self.shapes
        ]


class DualCertificate(Workload):
    """``jt_norm``, ``norming_functional``, ``eval_kstar_squared``, ``eval_kstar``."""

    name = "dual-certificate"
    round_len = 2
    vectors = 64
    support = (50, 250)
    max_depth = 12

    def make(self, seed, workdir, scale=1.0):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = (max(2, round(s * scale)) for s in self.support)
        self.inputs = []
        self.exact_values: dict[int, Fraction] = {}
        self.check_golden = seed == GOLDEN_SEED and scale == 1.0
        pool = []
        for key, size in enumerate(stratified_sizes(rng, self.vectors, lo, hi)):
            entries = dyadic_vector(rng, size, self.max_depth)
            self.inputs.append(entries)
            for backend in (EXACT, FLOAT):
                raw = entries if backend == EXACT else {n: float(v) for n, v in entries.items()}
                x = JTVector.from_entries(raw, backend)
                pool.append(Op(key, backend, backend, x, lambda x=x: self.pipeline(x)))
        self.warmup = 2 * bit_reversed(self.vectors).index(self.vectors // 2)
        return pool

    @staticmethod
    def pipeline(x):
        w = norm.jt_norm(x)
        k = functionals.norming_functional(x)
        return w.value_squared, functionals.eval_kstar_squared(k, x), functionals.eval_kstar(k, x)

    def check(self, op, out, seed):
        value_sq, eval_sq, value = out
        entries = self.inputs[op.key]
        if op.backend == FLOAT:
            exact = self.exact_values.get(op.key)
            if exact is None:
                return "no exact result for this vector to compare with"
            if not close(value_sq, exact):
                return f"float norm {value_sq} differs from exact {exact}"
            if not close(eval_sq, value_sq):
                return f"k*(x)^2 = {eval_sq} but ||x||^2 = {value_sq}"
        else:
            if eval_sq != value_sq:
                return f"k*(x)^2 = {eval_sq} but ||x||^2 = {value_sq}"
            low, high = sandwich(entries.values())
            if not low <= value_sq <= high:
                return f"{value_sq} outside the sandwich [{low}, {high}]"
            err = self.golden_error(op.key, value_sq)
            if err:
                return err
            self.exact_values[op.key] = value_sq
        if not close(float(value) ** 2, value_sq):
            return f"k*(x) = {value} does not square to {value_sq}"
        return None

    def descriptors(self):
        return [descriptor(e, "exact+float") for e in self.inputs]


class LabExperiments(Workload):
    """``jamestree experiment`` over the five names, then ``jamestree check``.

    Trial counts keep the four middle experiments near the same cost, so the
    median op lies inside one cost band instead of between two; ``check``
    (about 70% of a round's time) sets the p90.
    """

    name = "lab-experiments"
    rounds = 32
    trials = {
        "w-cauchy": None,
        "oracle-vs-dp": 60,
        "lemma-estimates": 80,
        "basis-constant": 10,
        "l1-decay": 6,
    }
    round_len = len(trials) + 1

    def make(self, seed, workdir, scale=1.0):
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for r in range(self.rounds):
            s = str(rng.randrange(1 << 30))
            for name, trials in self.trials.items():
                argv = ["experiment", "--name", name, "--seed", s]
                if trials is not None:
                    argv += ["--trials", str(max(1, round(trials * scale)))]
                pool.append(Op(r, name, EXACT, argv, lambda argv=argv: run_cli(argv)))
            argv = ["check", "--seed", s]
            pool.append(Op(r, "check", EXACT, argv, lambda argv=argv: run_cli(argv)))
        self.warmup = 1  # oracle-vs-dp of the first round
        return pool

    def check(self, op, out, seed):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        verdict = json.loads(text)["verdict"]
        return None if verdict == "pass" else f"verdict {verdict!r}"


WORKLOADS = {w.name: w for w in (WitnessRandom, AdversarialShapes, DualCertificate, LabExperiments)}

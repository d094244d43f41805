"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Every workload passes a smoke run at tiny sizes, untraced and traced;
   the result lines carry exactly the metrics BENCHMARK.json lists, and in
   the traced run the self times of each op add up to the op's time.
2. Planted wrong answers are caught: norms off by 1/2 raise the failure
   count on every workload; a witness with one segment dropped, and an
   achievable but sub-optimal value (caught by the golden values of the
   default seed), do on the two workloads that consume witnesses.
3. Another seed changes the inputs but neither the pool nor the op count.
4. Without the program's sources the benchmark exits non-zero and prints
   no result.

Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import run

SCALE = 0.1  # input sizes for smoke runs
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def smoke(name: str, trace: bool = False, seed: int = 1) -> dict:
    """One round of the workload at tiny sizes."""
    return run.measure(name, seed, 0.0, trace, scale=SCALE)


@contextmanager
def planted(transform):
    """Every jt_norm binding the workloads reach returns ``transform(x, witness)``."""
    from jamestree import cli, functionals, lab, norm

    modules = (cli, functionals, lab, norm)
    saved = [m.jt_norm for m in modules]
    original = norm.jt_norm

    def wrong(x, *args, **kwargs):
        return transform(x, original(x, *args, **kwargs))

    for m in modules:
        m.jt_norm = wrong
    try:
        yield
    finally:
        for m, fn in zip(modules, saved):
            m.jt_norm = fn


def off_by_half(x, witness):
    from jamestree.norm import NormWitness

    half = Fraction(1, 2) if isinstance(witness.value_squared, Fraction) else 0.5
    return NormWitness(witness.value_squared + half, witness.family)


def drop_segment(x, witness):
    from jamestree.norm import NormWitness

    return NormWitness(witness.value_squared, witness.family[1:])


def suboptimal(x, witness):
    """An achievable but smaller value: the witness minus its first segment."""
    from jamestree.norm import NormWitness, family_value_squared

    family = witness.family[1:]
    return NormWitness(family_value_squared(x, family), family)


def inputs(name: str, seed: int) -> list:
    import workloads

    workdir = run.OUT / f"selftest-{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name]()
        pool = wl.make(seed, workdir, SCALE)
        return [(op.label, op.backend, op.input) for op in pool]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def stripped_checkout_fails() -> bool:
    """Run the benchmark in a copy holding only BENCHMARK.json and perfbench/."""
    copy = run.OUT / "selftest-stripped"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", copy / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return proc.returncode != 0 and "{" not in proc.stdout


def main() -> None:
    run.import_program()
    names = [w["name"] for w in SPEC["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expect(names == list(run.WORKLOADS), "BENCHMARK.json lists the workloads run.py accepts")

    for name in names:
        plain = smoke(name)["result"]
        expect(plain["attempted"] >= 1 and plain["failed"] == 0, f"{name}: smoke run passes")
        units = {k: v["unit"] for k, v in plain["metrics"].items()}
        expect(units == end_to_end, f"{name}: untraced run reports the end-to-end metrics")
        traced = smoke(name, trace=True)
        units = {k: v["unit"] for k, v in traced["result"]["metrics"].items()}
        expect(traced["result"]["failed"] == 0, f"{name}: traced smoke run passes")
        expect(units == per_layer, f"{name}: traced run reports the per-layer metrics")
        expect(traced["trace"]["identity_gap_s"] <= 1e-9, f"{name}: self times add up to op time")

    for name in names:
        with planted(off_by_half):
            result = smoke(name)["result"]
        expect(result["failed"] > 0, f"{name}: norm off by 1/2 is caught ({result['failed']} failed)")
    for name in ("witness-random", "dual-certificate"):
        with planted(drop_segment):
            result = smoke(name)["result"]
        expect(result["failed"] > 0, f"{name}: dropped witness segment is caught ({result['failed']} failed)")

    import workloads

    for name in ("witness-random", "dual-certificate"):
        with planted(suboptimal):
            result = run.measure(name, workloads.GOLDEN_SEED, 0.0, False)["result"]
        expect(result["failed"] > 0, f"{name}: achievable sub-optimal value is caught on the golden seed")

    for name in names:
        a, b = inputs(name, 1), inputs(name, 2)
        same_shape = [(label, backend) for label, backend, _ in a] == [(label, backend) for label, backend, _ in b]
        expect(same_shape, f"{name}: pool length and op order do not depend on the seed")
        expect([x for _, _, x in a] != [x for _, _, x in b], f"{name}: another seed gives other inputs")
        counts = {smoke(name, seed=s)["result"]["attempted"] for s in (1, 2)}
        expect(len(counts) == 1, f"{name}: op count per round does not depend on the seed")

    expect(stripped_checkout_fails(), "without src/ the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    main()

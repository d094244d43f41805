"""jamestree benchmark: one workload as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the program is imported from ``src/`` next to this
directory, and nothing outside the checkout is read or written.  The
process runs one workload (a fresh interpreter per workload):

1. set-up, repeated ``SETUP_REPEATS`` times: generate the seeded inputs,
   write the input files and run one untimed warm-up op.  ``setup_s`` is
   the one-off import time plus the median repetition;
2. the timed phase: ops one after another, each sent only after the last
   one returned, round by round, until ``--seconds`` of op time is spent.
   Every output is checked between ops, outside the timed intervals;
3. with ``--trace 1``, the timed phase gets half of ``--seconds`` and is
   followed by the same loop for the other half with span wrappers
   installed (see ``spans.py``).  The per-layer metrics come from that
   second loop, and ``trace.overhead`` compares its throughput with the
   first, so a traced run takes as long as an untraced one.

Human-readable lines go first; the last line of standard output is the
JSON result.  The exit code is 0 whenever a result is printed, also when
ops failed (``correct`` is then false); without the program's sources the
run stops with a non-zero code before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("witness-random", "adversarial-shapes", "dual-certificate", "lab-experiments")
SETUP_REPEATS = 5
MIN_OPS = 100  # so that p90 has at least ten samples beyond it


def import_program() -> float:
    """Import jamestree from this checkout's ``src/``; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "jamestree" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no jamestree sources in {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    package = importlib.import_module("jamestree")
    importlib.import_module("jamestree.cli")
    elapsed = perf_counter() - t0
    if Path(package.__file__).resolve().parent != src / "jamestree":
        raise SystemExit(f"perfbench: jamestree imported from {package.__file__}, not {src}")
    return elapsed


class Phase:
    """Latencies and failures of one closed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy


def closed_loop(wl, pool, seed: int, seconds: float, tracer=None) -> Phase:
    """Send ops in pool order, one at a time, until ``seconds`` of op time."""
    phase = Phase()
    i = 0
    while True:
        for _ in range(wl.round_len):
            op = pool[i % len(pool)]
            i += 1
            run = op.run if tracer is None else (lambda op=op: tracer.op(op.label, op.run))
            t0 = perf_counter()
            try:
                out = run()
                err = None
            except (Exception, SystemExit):  # cli.run exits on bad arguments
                err = traceback.format_exc(limit=4)
            phase.latencies.append(perf_counter() - t0)
            if err is None:
                try:
                    err = wl.check(op, out, seed)
                except Exception:
                    err = "check raised " + traceback.format_exc(limit=4)
            if err:
                phase.failures.append(f"{op.label} #{op.key}: {err}")
        if phase.busy >= seconds:
            return phase


def set_up(name: str, seed: int, workdir: Path, scale: float):
    """Repeated set-up; returns (workload, pool, median seconds per repetition)."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = workloads.WORKLOADS[name]()
        pool = wl.make(seed, workdir, scale)
        pool[wl.warmup].run()
        times.append(perf_counter() - t0)
    return wl, pool, statistics.median(times)


def p90(values: list[float]) -> float:
    """The 90th percentile (exclusive method); a lone sample is its own p90."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def summarize(descriptors: list[dict]) -> list[str]:
    if not descriptors:
        return []
    lines = []
    for key in ("support", "closure", "closure_ratio", "max_depth", "chain"):
        vals = [d[key] for d in descriptors]
        lines.append(
            f"  {key:<14} min {min(vals):.4g}  median {statistics.median(vals):.4g}  max {max(vals):.4g}"
        )
    deep = sum(d["closure_ratio"] >= 4 for d in descriptors) / len(descriptors)
    long_chain = sum(d["chain"] >= 50 for d in descriptors) / len(descriptors)
    backends = sorted({d["backends"] for d in descriptors})
    lines.append(f"  closure/support >= 4 on {deep:.0%} of inputs; chain >= 50 on {long_chain:.0%}")
    lines.append(f"  backends {', '.join(backends)}")
    return lines


def measure(
    name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0, scale: float = 1.0
) -> dict:
    """Run one workload; returns the result document plus report lines.

    ``import_s`` is the measured import time of the program, added to
    ``setup_s``; ``scale`` shrinks input sizes for smoke runs.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        wl, pool, setup_s = set_up(name, seed, workdir, scale)
        setup_s += import_s
        budget = seconds / 2 if trace else seconds
        plain = closed_loop(wl, pool, seed, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [plain]
        lines = [f"workload {name}  seed {seed}  closed loop, 1 client, {len(pool)} ops in the pool"]
        descriptors = wl.descriptors()
        if descriptors:
            with open(OUT / f"descriptors-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
                json.dump(descriptors, fh)
            lines.append("inputs:")
            lines += summarize(descriptors)
        report = None
        if trace:
            import spans

            with spans.Tracer() as tracer:
                traced = closed_loop(wl, pool, seed, budget, tracer)
            phases.append(traced)
            report = tracer.analyse()
            metrics = dict(report["metrics"])
            metrics["trace.overhead"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
            trace_file = OUT / f"trace-{name}-seed{seed}.json.gz"
            tracer.write(trace_file)
            shares = "  ".join(f"{k} {v:.1%}" for k, v in report["layer_share"].items() if v)
            lines += [
                f"traced: {report['ops']} ops, {report['spans']} spans -> {trace_file.relative_to(ROOT)}",
                f"  self-time share  {shares}",
                f"  largest |sum of self times - op time| over ops: {report['identity_gap_s']:.3g} s",
                f"  jt_norm support sizes seen at the norm boundary: {report['norm_support']}",
            ]
        else:
            lat = plain.latencies
            metrics = {
                "ops_per_s": (plain.ops_per_s, "1/s"),
                "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
                "latency_p90_ms": (1000 * p90(lat), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
        attempted = sum(len(p.latencies) for p in phases)
        failures = [f for p in phases for f in p.failures]
        lines.append(
            f"samples: {len(plain.latencies)} ops in {plain.busy:.2f} s of op time, each checked untimed"
            + ("" if trace or len(plain.latencies) >= MIN_OPS else f" (fewer than {MIN_OPS})")
        )
        lines.append(f"  error_rate {len(failures) / attempted:.4g} ratio ({len(failures)}/{attempted})")
        for metric, (value, unit) in metrics.items():
            lines.append(f"  {metric:<34} {value:>12.6g} {unit}")
        return {
            "trace": report,
            "lines": lines,
            "failures": failures,
            "result": {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    import_s = import_program()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for failure in run["failures"][:5]:
        print(failure, file=sys.stderr)
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

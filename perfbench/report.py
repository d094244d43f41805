"""Print every end-to-end metric of every workload, one fresh interpreter each.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload listed in BENCHMARK.json and
prints each metric by name with its unit, the sample count, and the
error rate (failed ops over attempted ops).  Exits 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    failed = 0
    for workload in SPEC["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        print(f"{name}  ({result['attempted']} ops)")
        for metric in SPEC["end_to_end"]:
            m = result["metrics"][metric["name"]]
            print(f"  {metric['name']:<16} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'error_rate':<16} {result['failed'] / result['attempted']:>12.6g} ratio")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

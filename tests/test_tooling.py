"""Guards for code outside the library that calls into it.

The traced benchmark run patches library functions by name, and the
demos call the public API; neither is exercised by the unit suites, so a
renamed or deleted function would otherwise go unnoticed here.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_benchmark_tracer_finds_every_patched_name():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from jamestree import cli, functionals

    run, validate = cli.run, functionals.KStarElement.validate
    with spans.Tracer():  # raises if a patched name is gone
        assert cli.run is not run
    assert cli.run is run
    assert functionals.KStarElement.validate is validate


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

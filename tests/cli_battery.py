"""A fixed battery of CLI cases, run in-process, one JSON line per case.

    PYTHONPATH=src python3 tests/cli_battery.py | diff tests/cli_battery.jsonl -

Each line holds the case's argv, its exit code, and what it printed on
stdout and stderr.  The cases are every experiment at seeds 0 and 1,
``check`` at two seeds, ``enumerate``, negative counts (refused with
exit 2), and ``witness``, oracle ``norm`` and ``eval`` on seeded exact
and float files written to a temporary directory (named in argv by their
file names alone).  The inputs are
generated with the standard library only, so the output of two checkouts
can be diffed line by line to list every changed output:

    PYTHONPATH=<checkout>/src python3 tests/cli_battery.py > <checkout>.jsonl

``tests/cli_battery.jsonl`` holds the expected output, so its diff in a
change lists every changed output; regenerate it with

    PYTHONPATH=src python3 tests/cli_battery.py > tests/cli_battery.jsonl

A case that raises instead of exiting is printed with its exception, and
the script then exits 1.  Not collected by pytest; ``tests/test_cli.py``
checks every case's output contract, and its line against the expected
output, through ``cases`` and ``run_case``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from jamestree import cli
from jamestree.lab import EXPERIMENTS

SEEDS = (0, 1)
# (label, support size, deepest level) of the seeded vector files
SHAPES = (("tiny", 4, 3), ("small", 6, 5), ("mid", 40, 12), ("wide", 300, 24))
# hand-picked files: float sums that a term-by-term binary64 sum rounds twice,
# a norm whose root differs from the root of its rounded square, and values
# at the edges of binary64
FIXED = {
    "x-ulp.float.json": '{"": 1.0, "0": 1e-16, "1": 1e-16}',
    "k-ulp4.float.json": json.dumps({
        "terms": [{"alpha": 1, "interval": iv} for iv in ("..", "0..0", "1..1")],
        "scale_squared": 4,
    }),
    "k-ulp3.float.json": json.dumps({
        "terms": [{"alpha": 1, "interval": iv} for iv in ("..", "0..0", "1..1")],
        "scale_squared": 3,
    }),
    "x-tiny.exact.json": '{"": 1e-200}',
    "x-huge.exact.json": '{"": 1e200}',
    "x-overflow.float.json": '{"": 1e308, "0": 1e308}',
    "x-cancel.float.json": '{"": 1e308, "0": -1e308, "00": 1e308}',
    "k-unit.float.json": '{"terms": [{"alpha": 1, "interval": "..0"}]}',
    "x-root.float.json": json.dumps({
        "11": 0.002217739468876032,
        "0010": -479.01537921608116,
        "0100": -0.012844267069350712,
        "1001": -0.000556592207571627,
        "0110": 99.59432621722493,
    }),
}


def bits(rng: random.Random, deepest: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, deepest)))


def exact_value(rng: random.Random):
    """An int, a 'p/q' string or a decimal literal, nonzero."""
    num = rng.choice((-1, 1)) * rng.randint(1, 40)
    kind = rng.randrange(3)
    if kind == 0:
        return num
    if kind == 1:
        return f"{num}/{rng.randint(2, 12)}"
    return num / 8  # a dyadic decimal literal, read with decimal semantics


def float_value(rng: random.Random) -> float:
    return rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)


def vector_text(rng: random.Random, size: int, deepest: int, exact: bool) -> str:
    entries = {}
    while len(entries) < size:
        entries[bits(rng, deepest)] = exact_value(rng) if exact else float_value(rng)
    return json.dumps(entries)


def functional_text(rng: random.Random, exact: bool) -> str:
    """Disjoint intervals below distinct level-3 stems, l2-bounded weights."""
    terms, weight_sq = [], Fraction(0)
    for stem in sorted(rng.sample(range(8), rng.randint(1, 5))):
        top = format(stem, "03b")
        if rng.random() < 0.5:
            interval = f"{top}..{top}{bits(rng, 6)}"
        else:
            interval = {"branch_stem": top, "tail": bits(rng, 3) or "1"}
        if exact:
            w = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            alpha = f"{w.numerator}/{w.denominator}"
        else:
            w = Fraction(rng.uniform(-3, 3))
            alpha = float(w)
        weight_sq += w * w
        terms.append({"alpha": alpha, "interval": interval})
    doc = {"terms": terms}
    if weight_sq > 1 or rng.random() < 0.5:
        scale = weight_sq * rng.choice((1, 2, 3))
        if scale:
            doc["scale_squared"] = f"{scale.numerator}/{scale.denominator}" if exact else float(scale)
    return json.dumps(doc)


def write_inputs(root: Path) -> list[list[str]]:
    """Writes the files and returns the file cases' argv, paths by name."""
    cases = []
    for name, text in FIXED.items():
        (root / name).write_text(text, encoding="utf-8")
    for seed in SEEDS:
        for backend in ("exact", "float"):
            exact = backend == "exact"
            rng = random.Random(f"cli-battery:{seed}:{backend}")
            k = f"k{seed}.{backend}.json"
            (root / k).write_text(functional_text(rng, exact), encoding="utf-8")
            for label, size, deepest in SHAPES:
                x = f"x{seed}-{label}.{backend}.json"
                (root / x).write_text(vector_text(rng, size, deepest, exact), encoding="utf-8")
                flags = ["--backend", backend]
                cases.append(["witness", x, *flags])
                if size <= 6:
                    cases.append(["norm", x, "--method", "oracle", "--witness", *flags])
                cases.append(["eval", k, x, *flags])
    for k in ("k-ulp4.float.json", "k-ulp3.float.json", "k-unit.float.json"):
        for x in ("x-ulp.float.json", "x-overflow.float.json", "x-cancel.float.json"):
            cases.append(["eval", k, x, "--backend", "float"])
    for x in ("x-tiny.exact.json", "x-huge.exact.json"):
        cases.append(["witness", x])
    for x in ("x-overflow.float.json", "x-cancel.float.json", "x-root.float.json"):
        cases.append(["witness", x, "--backend", "float"])
    return cases


def run_case(argv: list[str], root: Path) -> tuple[dict, bool]:
    """One case's line, and whether it raised instead of exiting."""
    paths = [str(root / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    raised = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(paths)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is reported, not hidden
            code, raised = f"{type(exc).__name__}: {exc}", True
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, raised


def run_on_files(argv: list[str], files: dict) -> tuple[object, object]:
    """One case on JSON documents written to a fresh temporary directory.

    files maps the file names used in argv to their documents.  Returns the
    exit code and the one document the case printed, on stdout or stderr.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            (Path(tmp) / name).write_text(json.dumps(doc), encoding="utf-8")
        line, raised = run_case(argv, Path(tmp))
    if raised:
        raise AssertionError(line)
    return line["exit"], json.loads(line["stdout"] or line["stderr"])


def cases(root: Path) -> list[list[str]]:
    """Every case's argv; writes the input files to root first."""
    argvs = [
        ["experiment", "--name", name, "--seed", str(seed)]
        for name in sorted(EXPERIMENTS)
        for seed in SEEDS
    ]
    argvs += [["check", "--seed", str(seed)] for seed in SEEDS]
    argvs += [["enumerate", "--n", "20"], ["enumerate", "--n", "0"]]
    argvs += [
        ["enumerate", "--n", "-2"],
        ["experiment", "--name", "oracle-vs-dp", "--trials", "-1"],
        ["experiment", "--name", "l1-decay", "--trials", "-3"],
        ["norm", "x-tiny.exact.json", "--method", "oracle", "--max-candidates", "-1"],
    ]
    return argvs + write_inputs(root)


def main() -> int:
    crashed = False
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for argv in cases(root):
            line, raised = run_case(argv, root)
            crashed |= raised
            print(json.dumps(line))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())

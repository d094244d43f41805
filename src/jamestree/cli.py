"""Command-line front end: JSON in, JSON out.

The library computes every result exactly.  With ``--backend float`` the
inputs are read as binary64 values and each printed result is its exact
value rounded once to binary64; on the exact backend rationals print as
"p/q" strings.  Exit codes: 0 on success, 1 when a check battery fails, 2
for malformed or invalid input and for results beyond binary64.  Every
error is one machine-readable {"error": ...} line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .functionals import eval_kstar, load_kstar
from .lab import EXPERIMENTS, run_check_suite
from .nodes import enumerate_nodes
from .norm import brute_force_norm, jt_norm
from .vectors import EXACT, FLOAT, load_vector, scalar_to_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def count(text: str) -> int:
    """An argparse type: an int that is not negative (zero is allowed)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(doc) -> None:
    # a NaN or an overflow to Infinity raises here, before anything prints
    print(json.dumps(doc, allow_nan=False))


def _render(name: str, value, backend: str):
    """A result as printed: on the float backend rounded once to binary64."""
    if backend == FLOAT:
        return float(value)
    try:
        return scalar_to_json(value)
    except ValueError:  # a rational past the interpreter's int-to-text digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{name} has more digits than the int-to-text limit {limit}") from None


def _cmd_norm(args) -> int:
    x = load_vector(args.vector, args.backend)
    if args.method == "oracle":
        witness = brute_force_norm(x, max_candidates=args.max_candidates)
    else:
        witness = jt_norm(x)
    try:
        value_squared = _render("value_squared", witness.value_squared, args.backend)
    except OverflowError:
        raise OverflowError("the squared norm overflows binary64") from None
    doc = {
        "value_squared": value_squared,
        "value": witness.value,
        "method": args.method,
        "backend": args.backend,
    }
    if args.witness:
        doc["witness"] = [str(seg) for seg in witness.family]
    _emit(doc)
    return 0


def _cmd_eval(args) -> int:
    k = load_kstar(args.functional, args.backend)
    x = load_vector(args.vector, args.backend)
    try:
        value = eval_kstar(k, x)
        decimal = float(value)
    except OverflowError:
        raise OverflowError("the value of the functional exceeds binary64") from None
    _emit({"value": _render("value", value, args.backend), "value_decimal": decimal})
    return 0


def _cmd_check(args) -> int:
    reports = run_check_suite(seed=args.seed)
    doc = {
        "seed": args.seed,
        "checks": [
            {"name": r.name, "verdict": "pass" if r.verdict else "fail"}
            for r in reports
        ],
        "verdict": "pass" if all(r.verdict for r in reports) else "fail",
    }
    _emit(doc)
    return 0 if all(r.verdict for r in reports) else 1


def _cmd_experiment(args) -> int:
    runner = EXPERIMENTS[args.name]
    report = runner(seed=args.seed, trials=args.trials)
    doc = report.to_json_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        _emit({"name": report.name, "out": args.out, "verdict": doc["verdict"]})
    else:
        _emit(doc)
    return 0 if report.verdict else 1


def _cmd_enumerate(args) -> int:
    _emit([str(node) for node in enumerate_nodes(args.n)])
    return 0


@functools.cache  # built once: a parser is full of cycles only the cyclic collector frees
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jamestree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p):
        p.add_argument("--backend", choices=(EXACT, FLOAT), default=EXACT)

    # witness is norm with --witness always on (and the flag hidden)
    for name, help_text, witness in (
        ("norm", "norm of a vector file", False),
        ("witness", "norm plus an optimal segment family", True),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("vector")
        add_backend(p)
        p.add_argument("--method", choices=("dp", "oracle"), default="dp")
        p.add_argument(
            "--witness", action="store_true", help=argparse.SUPPRESS if witness else None
        )
        p.add_argument("--max-candidates", type=count, default=22)
        p.set_defaults(func=_cmd_norm, witness=witness)

    p_eval = sub.add_parser("eval", help="apply a functional file to a vector file")
    p_eval.add_argument("functional")
    p_eval.add_argument("vector")
    add_backend(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", help="run the invariant batteries")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("--name", required=True, choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--trials", type=count, default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_enum = sub.add_parser("enumerate", help="print the first n nodes")
    p_enum.add_argument("--n", type=count, required=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()

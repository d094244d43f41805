"""Span recording for the traced run, installed from outside the program.

``Tracer`` replaces public functions at the module boundaries of jamestree
with wrappers that record one span per call (name, start, end, parent,
plus a backend tag and the support size for norm calls), and puts the
originals back on exit.  No file of the program changes.  Spans stay in
compact arrays in memory and are written out once, after the run.

Self time is a span's duration minus the durations of its direct children.
The run is single-threaded, so children nest strictly inside their parent
and the self times of one op add up to the op's traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from array import array
from time import perf_counter

from jamestree import cli, functionals, lab, norm
from jamestree.functionals import KStarElement
from jamestree.vectors import JTVector

OP = "op"
NORM_SPANS = ("norm.jt_norm", "cli.jt_norm", "lab.jt_norm", "functionals.jt_norm")
ARITH_SPANS = tuple(f"JTVector.{m}" for m in ("from_entries", "add", "scale", "partial_sum"))

LAYER_OF = {
    OP: "bench",
    "cli.run": "cli",
    "cli.load_vector": "vectors",
    **{name: "vectors" for name in ARITH_SPANS},
    "norm.index_of": "nodes",
    "norm.node_at": "nodes",
    **{name: "norm" for name in NORM_SPANS},
    "lab.brute_force_norm": "norm",
    "functionals.norming_functional": "functionals",
    "functionals.eval_kstar_squared": "functionals",
    "functionals.eval_kstar": "functionals",
    "KStarElement.validate": "functionals",
    "lab.experiment": "lab",
    "lab.check_suite": "lab",
}
LAYERS = ("cli", "vectors", "nodes", "norm", "functionals", "lab", "bench")


def _backend_of(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return x.backend, len(x.entries)


class Tracer:
    """Context manager: wrappers in place while inside, spans kept after."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.name_col = array("i")
        self.parent_col = array("i")
        self.tag_col = array("i")
        self.size_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = []
        self.elements_built = 0
        self._restore: list = []

    def _intern(self, table: list[str], text: str) -> int:
        try:
            return table.index(text)
        except ValueError:
            table.append(text)
            return len(table) - 1

    def span(self, name: str, fn, tagged: bool = False):
        """``fn`` wrapped to record one span per call."""
        nid = self._intern(self.names, name)
        names, parents, tags, sizes = self.name_col, self.parent_col, self.tag_col, self.size_col
        starts, ends, stack, tag_ids = self.start_col, self.end_col, self.stack, {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag, size = 0, -1
            if tagged:
                backend, size = _backend_of(args, kwargs)
                tag = tag_ids.get(backend)
                if tag is None:
                    tag = tag_ids[backend] = self._intern(self.tags, backend)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            tags.append(tag)
            sizes.append(size)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return wrapper

    def op(self, label: str, run):
        """Run one op under a root span tagged with the op's label."""
        tag = self._intern(self.tags, label)
        wrapped = self.span(OP, run)
        i = len(self.start_col)
        try:
            return wrapped()
        finally:
            self.tag_col[i] = tag

    def _patch(self, owner, attr, name, tagged=False):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        if isinstance(original, classmethod):
            replacement = classmethod(self.span(name, original.__func__, tagged))
        else:
            replacement = self.span(name, original, tagged)
        setattr(owner, attr, replacement)

    def __enter__(self):
        self._patch(cli, "run", "cli.run")
        self._patch(cli, "load_vector", "cli.load_vector")
        self._patch(cli, "run_check_suite", "lab.check_suite")
        for owner, name in ((norm, "norm"), (cli, "cli"), (lab, "lab"), (functionals, "functionals")):
            self._patch(owner, "jt_norm", f"{name}.jt_norm", tagged=True)
        self._patch(lab, "brute_force_norm", "lab.brute_force_norm", tagged=True)
        self._patch(norm, "index_of", "norm.index_of")
        self._patch(norm, "node_at", "norm.node_at")
        for attr in ("norming_functional", "eval_kstar_squared", "eval_kstar"):
            self._patch(functionals, attr, f"functionals.{attr}")
        self._patch(KStarElement, "validate", "KStarElement.validate")
        for name in ARITH_SPANS:
            self._patch(JTVector, name.split(".")[1], name)
        self._restore.append((KStarElement, "__init__", KStarElement.__dict__["__init__"]))
        init = KStarElement.__init__

        def counting_init(element, *args, **kwargs):
            self.elements_built += 1
            init(element, *args, **kwargs)

        KStarElement.__init__ = counting_init
        self._restore.append((lab, "EXPERIMENTS", lab.EXPERIMENTS.copy()))
        for key, runner in lab.EXPERIMENTS.items():
            lab.EXPERIMENTS[key] = self.span("lab.experiment", runner)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            if attr == "EXPERIMENTS":
                lab.EXPERIMENTS.update(original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def analyse(self) -> dict:
        """Per-op layer metrics, self-time shares and the self-time identity."""
        n = len(self.start_col)
        names, parents, tags = self.name_col, self.parent_col, self.tag_col
        dur = array("d", (e - s for s, e in zip(self.start_col, self.end_col)))
        self_t = array("d", dur)
        root = array("i", range(n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                self_t[p] -= dur[i]
                root[i] = root[p]
        name_of = self.names
        ops = [i for i in range(n) if parents[i] < 0]
        n_ops = max(1, len(ops))
        traced_s = sum(dur[i] for i in ops)

        per_op_self: dict[int, float] = dict.fromkeys(ops, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        count: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        norm_by_backend: dict[str, float] = {}
        norm_by_shape: dict[str, float] = {}
        eval_norm = arith = 0.0
        support_sizes = []
        for i in range(n):
            name = name_of[names[i]]
            per_op_self[root[i]] += self_t[i]
            layer_self[LAYER_OF[name]] += self_t[i]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            own[name] = own.get(name, 0.0) + self_t[i]
            p = parents[i]
            parent = name_of[names[p]] if p >= 0 else None
            if name in NORM_SPANS:
                backend, shape = self.tags[tags[i]], self.tags[tags[root[i]]]
                norm_by_backend[backend] = norm_by_backend.get(backend, 0.0) + dur[i]
                norm_by_shape[shape] = norm_by_shape.get(shape, 0.0) + dur[i]
                support_sizes.append(self.size_col[i])
                if parent == "functionals.eval_kstar":
                    eval_norm += dur[i]
            elif name in ARITH_SPANS and parent not in ARITH_SPANS:
                arith += dur[i]
        identity_gap = max(
            (abs(per_op_self[i] - dur[i]) for i in ops), default=0.0
        )

        def calls(*keys):
            return sum(count.get(k, 0) for k in keys) / n_ops

        def ms(table, *keys):
            return 1000.0 * sum(table.get(k, 0.0) for k in keys) / n_ops

        validate_calls = count.get("KStarElement.validate", 0)
        metrics = {
            "cli.self_ms": (ms(own, "cli.run"), "ms"),
            "vectors.load_ms": (ms(total, "cli.load_vector"), "ms"),
            "vectors.arith_calls": (calls(*ARITH_SPANS), "count"),
            "vectors.arith_ms": (1000.0 * arith / n_ops, "ms"),
            "nodes.convert_calls": (calls("norm.index_of", "norm.node_at"), "count"),
            "nodes.convert_ms": (ms(total, "norm.index_of", "norm.node_at"), "ms"),
            "norm.calls": (calls(*NORM_SPANS), "count"),
            "norm.ms.exact": (ms(norm_by_backend, "exact"), "ms"),
            "norm.ms.float": (ms(norm_by_backend, "float"), "ms"),
            "norm.ms.deep-pair": (ms(norm_by_shape, "deep-pair"), "ms"),
            "norm.ms.alt-chain": (ms(norm_by_shape, "alt-chain"), "ms"),
            "norm.oracle_calls": (calls("lab.brute_force_norm"), "count"),
            "norm.oracle_ms": (ms(total, "lab.brute_force_norm"), "ms"),
            "functionals.norming_self_ms": (ms(own, "functionals.norming_functional"), "ms"),
            "functionals.eval_sq_ms": (ms(total, "functionals.eval_kstar_squared"), "ms"),
            "functionals.eval_self_ms": (ms(own, "functionals.eval_kstar"), "ms"),
            "functionals.eval_norm_ms": (1000.0 * eval_norm / n_ops, "ms"),
            "functionals.validate_calls": (validate_calls / n_ops, "count"),
            "functionals.validate_ms": (ms(total, "KStarElement.validate"), "ms"),
            "functionals.validate_per_element": (
                validate_calls / self.elements_built if self.elements_built else 0.0,
                "ratio",
            ),
            "lab.self_ms": (ms(own, "lab.experiment", "lab.check_suite"), "ms"),
            "lab.norm_calls_per_op": (calls("lab.jt_norm"), "count"),
        }
        return {
            "metrics": metrics,
            "ops": len(ops),
            "spans": n,
            "traced_s": traced_s,
            "layer_share": {k: v / traced_s if traced_s else 0.0 for k, v in layer_self.items()},
            "identity_gap_s": identity_gap,
            "norm_support": _summary(support_sizes),
        }

    def write(self, path) -> None:
        """All spans as gzip'd JSON columns; times in seconds from the first span.

        Streamed in chunks, so writing needs little memory beyond the arrays.
        """
        t0 = self.start_col[0] if self.start_col else 0.0
        columns = {
            "name": self.name_col,
            "parent": self.parent_col,
            "tag": self.tag_col,
            "support": self.size_col,
            "start": self.start_col,
            "end": self.end_col,
        }
        chunk = 1 << 16
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f'{{"names": {json.dumps(self.names)}, "tags": {json.dumps(self.tags)}')
            for key, col in columns.items():
                fh.write(f', "{key}": [')
                for lo in range(0, len(col), chunk):
                    part = col[lo : lo + chunk]
                    if col.typecode == "d":
                        part = (v - t0 for v in part)
                    fh.write(("," if lo else "") + ",".join(map(repr, part)))
                fh.write("]")
            fh.write("}\n")


def _summary(values) -> dict:
    if not values:
        return {}
    return {"n": len(values), "min": min(values), "median": statistics.median(values), "max": max(values)}

"""Dual-side evaluations: interval functionals and norming elements.

An interval functional I* sums the coordinates over an interval (segment
or branch); it has operator norm 1.  Elements of the norming set combine
pairwise disjoint interval functionals with an l2-bounded coefficient
vector.  To stay radical-free on the exact backend a combination is stored
as integer-side weights plus a separate ``scale_squared``: the acting
coefficient of term i is weight_i / sqrt(scale_squared).  Identities are
then checked on squares, where everything is rational.

Every evaluation and check works on the whole family at once: the
interval sums come from one sweep of the support's lifted forest, and
disjointness from one ``first_overlap`` sweep of the starts, so a
norming element costs about as much as the norm it attains.  A float
evaluation is the exact value of its inputs, rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .nodes import (
    BranchPrefix,
    Interval,
    NodeId,
    Segment,
    separation_level,
)
# eval_interval is re-exported: the interval functionals live here
from .norm import _lift, _scalar, eval_interval, first_overlap, interval_sums, jt_norm, rounded_root
from .vectors import (
    EXACT,
    BackendMismatchError,
    JTVector,
    Scalar,
    VectorFormatError,
    as_scalar,
    loads_json,
    scalar_to_json,
)


class InvalidKStarError(ValueError):
    """Raised when a combination breaks the l2 bound or interval disjointness."""


def branch_through(prefix: NodeId) -> BranchPrefix:
    """The root-based branch whose bits start with the given nonempty prefix."""
    if prefix.is_root:
        raise ValueError("a branch needs at least one bit of direction")
    return BranchPrefix(NodeId(), prefix.bits)


def separation_witness(p: NodeId, q: NodeId) -> NodeId:
    """First node where the branches through p and q part ways.

    The returned node s lies on the branch through p but not on the branch
    through q, so the two branch functionals differ by exactly 1 on e_s.
    Raises InsufficientPrefixError when one prefix agrees with the other
    on every available bit.
    """
    return p.prefix(separation_level([p, q]))


@dataclass(frozen=True)
class KStarElement:
    """Finite combination sum_i (w_i / sqrt(scale_squared)) * I_i*.

    Invariants, checked once at construction (the element is frozen): the
    intervals are pairwise disjoint and sum_i w_i^2 <= scale_squared (the
    l2 unit-ball constraint on the acting coefficients).  Plain
    hand-written functionals have scale_squared = 1, making w_i the
    literal coefficients.
    """

    terms: tuple[tuple[Scalar, Interval], ...]
    scale_squared: Scalar
    backend: str = EXACT

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[tuple[object, Interval]],
        backend: str = EXACT,
        scale_squared: object = 1,
    ) -> "KStarElement":
        coerced = tuple(
            (as_scalar(alpha, backend), interval) for alpha, interval in terms
        )
        return cls(coerced, as_scalar(scale_squared, backend), backend)

    def validate(self) -> None:
        if self.scale_squared <= 0:
            raise InvalidKStarError("scale_squared must be positive")
        weight_sq = sum(w * w for w, _ in self.terms)
        if self.backend == EXACT:
            if weight_sq > self.scale_squared:
                raise InvalidKStarError(
                    f"l2 bound violated: sum of squares {weight_sq} > {self.scale_squared}"
                )
        else:
            if weight_sq > self.scale_squared * (1.0 + 1e-9):
                raise InvalidKStarError("l2 bound violated")
        intervals = [iv for _, iv in self.terms]
        pair = first_overlap(intervals)
        if pair is not None:
            i, j = pair
            raise InvalidKStarError(f"intervals {intervals[i]} and {intervals[j]} overlap")


def _weighted_sum(k: KStarElement, x: JTVector) -> tuple[int, int]:
    """sum_i w_i I_i*(x) as s / d on ints, for the caller to round once.

    With w_i = p_i / q_i, W the lcm of the q_i and S_i = L * I_i*(x) the
    lifted interval sums, the sum is sum_i p_i * (W / q_i) * S_i over W * L.
    """
    if k.backend != x.backend:
        raise BackendMismatchError(
            f"cannot evaluate {k.backend} functional on {x.backend} vector"
        )
    *_, scale, sums = _lift(x, [iv for _, iv in k.terms])
    ratios = [w.as_integer_ratio() for w, _ in k.terms]
    common = math.lcm(*(q for _, q in ratios))
    return sum(p * (common // q) * s for (p, q), s in zip(ratios, sums)), common * scale


def eval_kstar_squared(k: KStarElement, x: JTVector) -> Scalar:
    """Square of the evaluation: exact, or its exact value rounded once.

    (sum_i w_i I_i*(x))^2 / scale_squared is rational whenever the inputs
    are, even though the evaluation itself may be irrational.
    """
    s, d = _weighted_sum(k, x)
    a, b = k.scale_squared.as_integer_ratio()
    return _scalar(s * s * b, d * d * a, x.backend, "the squared value")


def eval_kstar(k: KStarElement, x: JTVector) -> Scalar:
    """k*(x).  Backend-exact when scale_squared = 1; binary64 otherwise.

    With a nontrivial scale the true value carries a square root, so it is
    returned as the binary64 nearest s / sqrt(scale_squared); exact identity
    checks should use eval_kstar_squared instead.  Either way a float is
    the exact value of the inputs rounded once.
    """
    s, d = _weighted_sum(k, x)
    if k.scale_squared == 1:
        return _scalar(s, d, x.backend, "the value")
    a, b = k.scale_squared.as_integer_ratio()
    root = rounded_root(s * s * b, d * d * a)
    return -root if s < 0 else root


def norming_functional(x: JTVector) -> KStarElement:
    """The element of the norming set that attains the norm of x.

    Takes an optimal disjoint family {F_i} and weights each F_i* by
    F_i*(x); with scale_squared = sum_i F_i*(x)^2 = ||x||^2 the acting
    coefficients are l2-normalized and the evaluation squares back to
    ||x||^2 exactly.
    """
    if x.is_zero:
        raise ValueError("the zero vector has no norming functional")
    witness = jt_norm(x)
    terms = tuple(zip(interval_sums(witness.family, x), witness.family))
    return KStarElement(terms, witness.value_squared, x.backend)


# ---------------------------------------------------------------------------
# file format


def interval_from_json(obj, what: str = "interval") -> Interval:
    """Parse 'start..end' segment strings or {branch_stem, tail} objects."""
    if isinstance(obj, str):
        try:
            return Segment.parse(obj)
        except ValueError as exc:
            raise VectorFormatError(f"bad {what} {obj!r}: {exc}") from exc
    if isinstance(obj, dict):
        extra = set(obj) - {"branch_stem", "tail"}
        if extra or "tail" not in obj:
            raise VectorFormatError(
                f"branch {what} needs keys branch_stem and tail, got {sorted(obj)}"
            )
        stem_text = obj.get("branch_stem", "")
        tail_text = obj["tail"]
        if not isinstance(stem_text, str) or not isinstance(tail_text, str):
            raise VectorFormatError("branch_stem and tail must be bit strings")
        try:
            stem = NodeId.parse(stem_text)
            if not tail_text or tail_text.strip("01"):
                raise ValueError(f"tail must be a nonempty 0/1 string, got {tail_text!r}")
            return BranchPrefix(stem, tuple(int(ch) for ch in tail_text))
        except ValueError as exc:
            raise VectorFormatError(str(exc)) from exc
    raise VectorFormatError(f"bad {what}: {obj!r}")


def interval_to_json(interval: Interval):
    if isinstance(interval, Segment):
        return str(interval)
    return {"branch_stem": str(interval.stem), "tail": "".join(map(str, interval.tail))}


def kstar_from_json_dict(obj, backend: str) -> KStarElement:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise VectorFormatError('functional document must be an object with "terms"')
    extra = set(obj) - {"terms", "scale_squared"}
    if extra:
        raise VectorFormatError(f"unknown functional keys {sorted(extra)}")
    raw_terms = obj["terms"]
    if not isinstance(raw_terms, list):
        raise VectorFormatError('"terms" must be a list')
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict) or set(entry) != {"alpha", "interval"}:
            raise VectorFormatError(
                f"each term needs exactly the keys alpha and interval, got {entry!r}"
            )
        alpha = entry["alpha"]
        if not isinstance(alpha, (int, float, str, Fraction)) or isinstance(alpha, bool):
            raise VectorFormatError(f"bad alpha {alpha!r}")
        terms.append((alpha, interval_from_json(entry["interval"])))
    scale = obj.get("scale_squared", 1)
    if not isinstance(scale, (int, float, str, Fraction)) or isinstance(scale, bool):
        raise VectorFormatError(f"bad scale_squared {scale!r}")
    return KStarElement.from_terms(terms, backend, scale)


def loads_kstar(text: str, backend: str = EXACT) -> KStarElement:
    return kstar_from_json_dict(loads_json(text, backend), backend)


def load_kstar(path, backend: str = EXACT) -> KStarElement:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_kstar(fh.read(), backend)


def kstar_to_json_dict(k: KStarElement) -> dict:
    out = {
        "terms": [
            {"alpha": scalar_to_json(w), "interval": interval_to_json(iv)}
            for w, iv in k.terms
        ]
    }
    if k.scale_squared != 1:
        out["scale_squared"] = scalar_to_json(k.scale_squared)
    return out

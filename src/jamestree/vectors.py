"""Finitely supported tree-indexed vectors with exact rational entries.

Every entry is a ``fractions.Fraction`` (canonical reduced form, arbitrary
precision), so every norm computation downstream is radical-free: squared
values are tracked throughout and square roots are taken only for display.
A backend is an input policy, not an arithmetic.  The exact backend reads
ints, Fractions, "p/q" strings and decimal literals with decimal
semantics; the float backend reads finite binary64 values, each an exact
dyadic rational, and the CLI rounds what it prints from them once.

Zero entries are always dropped, so the key set of ``entries`` IS the
support; the norm engine's candidate-segment pruning relies on that.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .nodes import NodeId

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)
_FLOAT_MAX = sys.float_info.max


class BackendMismatchError(ValueError):
    """Raised when a value is of a type the backend's input policy does not read."""


class VectorFormatError(ValueError):
    """Raised for malformed vector/functional JSON documents."""


def as_scalar(value, backend: str) -> Fraction:
    """Read a user-supplied number as an exact rational, by the backend's policy.

    The exact backend takes ints, Fractions (returned as they are) and
    "p/q" strings, each side bounded like a number literal, and no floats
    (no silent binary-to-rational reading).  The float backend takes
    finite ints and floats and reads each as binary64, then exactly, so an
    int beyond 2^53 rounds first.
    """
    if isinstance(value, bool):
        raise BackendMismatchError(f"not a scalar: {value!r}")
    if backend == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                for side in value.split("/"):
                    _bounded_literal(side)
                return Fraction(value)
            except VectorFormatError:
                raise
            except (ValueError, ZeroDivisionError) as exc:
                raise VectorFormatError(f"bad rational literal {value!r}") from exc
        raise BackendMismatchError(
            f"exact backend takes int, Fraction or 'p/q' strings, got {type(value).__name__}"
        )
    if backend == FLOAT:
        if isinstance(value, (int, float)):
            # false for NaN, the infinities and ints beyond binary64's range
            if not abs(value) <= _FLOAT_MAX:
                raise VectorFormatError(f"{value!r} is not a finite binary64 value")
            return Fraction(float(value))
        if isinstance(value, str):
            raise VectorFormatError(
                f"rational string {value!r} is not allowed on the float backend"
            )
        raise BackendMismatchError(
            f"float backend takes int or float, got {type(value).__name__}"
        )
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def scalar_to_json(value: Fraction | float):
    """Lossless JSON rendering: rationals as 'p/q' strings, floats as numbers."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return value


def _coerce_node(key) -> NodeId:
    if isinstance(key, NodeId):
        return key
    if isinstance(key, str):
        return NodeId.parse(key)
    return NodeId(tuple(key))


@dataclass(frozen=True, eq=False)
class JTVector:
    """Finite-support map from tree nodes to exact rationals.

    ``backend`` names the input policy that read the vector; vectors with
    equal entries are equal whatever read them.
    """

    entries: Mapping[NodeId, Fraction]
    backend: str = EXACT

    @classmethod
    def from_entries(cls, entries: Mapping, backend: str = EXACT) -> "JTVector":
        """Build a vector, coercing keys/values and dropping zero entries."""
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        clean: dict[NodeId, Fraction] = {}
        for key, raw in entries.items():
            value = as_scalar(raw, backend)
            if value:
                clean[_coerce_node(key)] = value
        return cls(clean, backend)

    @classmethod
    def zero(cls, backend: str = EXACT) -> "JTVector":
        return cls.from_entries({}, backend)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> frozenset[NodeId]:
        return frozenset(self.entries)

    def items(self) -> list[tuple[NodeId, Fraction]]:
        """Entries in enumeration order (deterministic)."""
        return sorted(self.entries.items())

    def coordinate(self, node: NodeId) -> Fraction:
        """The biorthogonal coordinate functional: entry at node, 0 if absent."""
        return self.entries.get(node, Fraction(0))

    def add(self, other: "JTVector") -> "JTVector":
        out = dict(self.entries)
        for node, value in other.entries.items():
            total = out.get(node, 0) + value
            if total:
                out[node] = total
            else:
                out.pop(node, None)
        return JTVector(out, self.backend)

    def scale(self, c) -> "JTVector":
        """c times the vector, c read by the vector's input policy."""
        c = as_scalar(c, self.backend)
        out = {n: c * v for n, v in self.entries.items()} if c else {}
        return JTVector(out, self.backend)

    def partial_sum(self, k: int) -> "JTVector":
        """Restriction to the first k nodes of the enumeration (1-based)."""
        if k < 0:
            raise ValueError(f"partial sum length must be >= 0, got {k}")
        kept = {n: v for n, v in self.entries.items() if n <= k}
        return JTVector(kept, self.backend)

    def __add__(self, other: "JTVector") -> "JTVector":
        return self.add(other)

    def __sub__(self, other: "JTVector") -> "JTVector":
        return self.add(other.scale(-1))

    def __neg__(self) -> "JTVector":
        return self.scale(-1)

    def __rmul__(self, c) -> "JTVector":
        return self.scale(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JTVector):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{v}" for n, v in self.items())
        return f"JTVector[{self.backend}]({{{body}}})"

    def to_json_dict(self) -> dict:
        return {str(n): scalar_to_json(v) for n, v in self.items()}


def basis_vector(node: NodeId, backend: str = EXACT, coefficient=1) -> JTVector:
    return JTVector.from_entries({node: coefficient}, backend)


def vector_from_json_dict(obj, backend: str) -> JTVector:
    if not isinstance(obj, dict):
        raise VectorFormatError("vector document must be a JSON object")
    entries = {}
    for key, raw in obj.items():
        if not isinstance(key, str):
            raise VectorFormatError(f"vector keys must be node strings, got {key!r}")
        try:
            node = NodeId.parse(key)
        except ValueError as exc:
            raise VectorFormatError(str(exc)) from exc
        if not isinstance(raw, (int, float, str, Fraction)) or isinstance(raw, bool):
            raise VectorFormatError(f"bad value for node {key!r}: {raw!r}")
        entries[node] = raw
    return JTVector.from_entries(entries, backend)


def _bounded_literal(literal: str) -> str:
    """A number literal, refused when its square could not be printed.

    Literals are JSON numbers and the sides of "p/q" strings.  A literal
    of d digits and exponent e has a value whose numerator and denominator
    have at most d + |e| digits, and a squared norm doubles them.  So
    d + |e| past half the interpreter's int-to-text limit is refused
    before the value is built; expanding 1e800000 alone costs time linear
    in the exponent.  With no limit set, the default limit bounds it.
    """
    # the limit (0 = none) and its default exist from Python 3.10.7 and 3.11 on
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = (limit or getattr(sys.int_info, "default_max_str_digits", 4300)) // 2
    mantissa, _, exponent = literal.lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0")
    digits = len(mantissa.lstrip("-").replace(".", ""))
    if len(exponent) > len(str(bound)) or digits + int(exponent or 0) > bound:
        raise VectorFormatError(
            f"number literal {literal}: digits plus exponent beyond {bound}, "
            "half the digit limit"
        )
    return literal


def _exact_decimal(literal: str) -> Fraction:
    return Fraction(_bounded_literal(literal))


def _exact_int(literal: str) -> int:
    # no digit limit below 640 can be set, so a shorter int literal passes
    return int(literal if len(literal) < 320 else _bounded_literal(literal))


def _unique_keys(pairs: list) -> dict:
    """An object's key-value pairs as a dict; a repeated key is an error."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise VectorFormatError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def loads_json(text: str, backend: str = EXACT):
    """Parse a vector or functional file's JSON text for the given backend.

    Decimal literals in an exact-backend file are read with decimal
    semantics ("0.5" means one half), not reinterpreted binary64.  A key
    repeated within one object is rejected, not silently overwritten.
    """
    try:
        exact = {"parse_float": _exact_decimal} if backend == EXACT else {}
        return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_exact_int, **exact)
    except json.JSONDecodeError as exc:
        raise VectorFormatError(f"invalid JSON: {exc}") from exc


def loads_vector(text: str, backend: str = EXACT) -> JTVector:
    """Parse the vector file format."""
    return vector_from_json_dict(loads_json(text, backend), backend)


def load_vector(path, backend: str = EXACT) -> JTVector:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_vector(fh.read(), backend)


def dumps_vector(x: JTVector) -> str:
    return json.dumps(x.to_json_dict())

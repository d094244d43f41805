"""Node algebra for the infinite rooted binary tree.

Nodes are finite 0/1 sequences; the empty sequence is the root.  A node's
level is the length of its sequence, and ``s`` precedes ``t`` when the bits
of ``s`` are a prefix of the bits of ``t``.  Sets of pairwise comparable
nodes that are convex under this order are intervals: finite ones are
segments (a chain between two comparable endpoints), infinite ones are
branches (everything from a stem node down one fixed 0/1 direction).

The canonical enumeration lists nodes level by level, within a level in
binary-counter order: root, (0), (1), (0,0), (0,1), (1,0), (1,1), ...
Indices are 1-based, so the node at index n sits at level floor(log2 n).

A ``NodeId`` is an int: its enumeration index, a leading 1 followed by
the node's bits, so the root is 1, the children of v are 2v and 2v + 1,
and the parent of v is v >> 1.  It equals and hashes as that int
(``NodeId("") == 1``), so nodes order by enumeration, and arithmetic on
it yields a plain int.  The node algebra below is shifts and compares on
the node itself; the bit tuple and the text form are derived on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union


class InsufficientPrefixError(ValueError):
    """Two branch descriptors agree on every bit both of them provide."""


def _coerce_bits(bits: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"node bits must be 0 or 1, got {out!r}")
    return out


class NodeId(int):
    """A tree node: an int whose value is its 1-based enumeration index.

    ``NodeId(bits)`` takes the root path, most significant bit first.
    """

    __slots__ = ()

    def __new__(cls, bits: Iterable[int] = ()) -> "NodeId":
        text = "".join(map(str, _coerce_bits(bits)))
        return int.__new__(cls, int("1" + text, 2))

    @classmethod
    def _at(cls, index: int) -> "NodeId":
        return int.__new__(cls, index)

    def __reduce__(self):
        # the int's own reduction would pass the index to __new__ as bits
        return node_at, (int(self),)

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Parse the textual form: a string of '0'/'1', empty meaning root."""
        if text.strip("01"):
            raise ValueError(f"invalid node string {text!r}")
        return cls._at(int("1" + text, 2))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, str(self)))

    @property
    def level(self) -> int:
        return self.bit_length() - 1

    @property
    def is_root(self) -> bool:
        return self == 1

    def child(self, bit: int) -> "NodeId":
        if bit not in (0, 1):
            raise ValueError(f"node bits must be 0 or 1, got {bit!r}")
        return NodeId._at(2 * self + int(bit))

    def parent(self) -> "NodeId":
        if self.is_root:
            raise ValueError("the root has no parent")
        return NodeId._at(self >> 1)

    def prefix(self, length: int) -> "NodeId":
        if not 0 <= length <= self.level:
            raise ValueError(f"prefix length {length} out of range")
        return NodeId._at(self >> (self.level - length))

    def precedes(self, other: "NodeId") -> bool:
        """True when self lies on the root path of other (or equals it)."""
        shift = other.level - self.level
        return shift >= 0 and other >> shift == self

    def __str__(self) -> str:
        return bin(self)[3:]

    def __repr__(self) -> str:
        return f"NodeId({str(self)!r})"


ROOT = NodeId()


def node_at(n: int) -> NodeId:
    """The n-th node of the enumeration, 1-based.

    Index 1 is the root; index 2**k + j (0 <= j < 2**k) is the level-k node
    whose bits spell j in binary.
    """
    if n < 1:
        raise ValueError(f"enumeration index must be >= 1, got {n}")
    return NodeId._at(n)


def index_of(node: NodeId) -> int:
    """Inverse of node_at: the 1-based enumeration index of a node."""
    return int(node)


def successor(node: NodeId) -> NodeId:
    """Next node in enumeration order: the next index.

    As a binary-counter step on the bits, all bits 1 (or root) rolls over
    to the all-zero sequence one longer.
    """
    return NodeId._at(node + 1)


def enumerate_nodes(count: int) -> list[NodeId]:
    """The first ``count`` nodes in enumeration order."""
    return [node_at(n) for n in range(1, count + 1)]


@dataclass(frozen=True)
class Segment:
    """A finite chain of nodes between two comparable endpoints.

    Contains exactly the nodes w with start ⊑ w ⊑ end; start and end may
    coincide (a singleton).
    """

    start: NodeId
    end: NodeId

    def __post_init__(self) -> None:
        if not self.start.precedes(self.end):
            raise ValueError(
                f"segment endpoints must be comparable with start above end, "
                f"got {self.start!r} .. {self.end!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "Segment":
        """Parse the textual form "start..end", e.g. "0..011" or ".." (root)."""
        if text.count("..") != 1:
            raise ValueError(f"invalid segment string {text!r}")
        a, b = text.split("..")
        return cls(NodeId.parse(a), NodeId.parse(b))

    def __len__(self) -> int:
        return self.end.level - self.start.level + 1

    def nodes(self) -> list[NodeId]:
        """All nodes of the segment in top-down order."""
        end, depth = self.end, self.end.level
        return [NodeId._at(end >> (depth - k)) for k in range(self.start.level, depth + 1)]

    def contains(self, node: NodeId) -> bool:
        return self.start.precedes(node) and node.precedes(self.end)

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


@dataclass(frozen=True)
class BranchPrefix:
    """A branch: the infinite chain through ``stem`` in one fixed direction.

    The direction below the stem is given by ``tail``, a nonempty finite bit
    pattern whose last bit repeats forever.  Finite-support vectors only ever
    see finitely many branch nodes, but the constant-tail convention makes
    branch equality decidable; the stored pattern is canonicalized by
    stripping repeats of its last bit.
    """

    stem: NodeId = ROOT
    tail: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        tail = _coerce_bits(self.tail)
        if not tail:
            raise ValueError("branch tail pattern must be nonempty")
        while len(tail) > 1 and tail[-2] == tail[-1]:
            tail = tail[:-1]
        object.__setattr__(self, "tail", tail)

    def bit_at(self, i: int) -> int:
        """Bit i (0-based from the root) of the branch's direction sequence."""
        stem = self.stem
        if i < stem.level:
            return (stem >> (stem.level - 1 - i)) & 1
        j = i - stem.level
        return self.tail[j] if j < len(self.tail) else self.tail[-1]

    def node_at_level(self, k: int) -> NodeId:
        """The branch's unique node at level k (k >= stem level)."""
        depth = k - self.stem.level
        if depth < 0:
            raise ValueError(f"branch has no node above its stem (level {k})")
        index = self.stem
        for b in self.tail[:depth]:
            index = 2 * index + b
        repeat = depth - len(self.tail)
        if repeat > 0:
            # append `repeat` copies of the last bit b: (v + b) * 2**r - b
            last = self.tail[-1]
            index = ((index + last) << repeat) - last
        return NodeId._at(index)

    def contains(self, node: NodeId) -> bool:
        return node.level >= self.stem.level and node == self.node_at_level(node.level)

    def __str__(self) -> str:
        return f"{self.stem}~{''.join(str(b) for b in self.tail)}"


Interval = Union[Segment, BranchPrefix]


def disjoint(a: Interval, b: Interval) -> bool:
    """True when the two intervals share no node."""
    if isinstance(a, Segment) and isinstance(b, Segment):
        # Two chains intersect iff one's top endpoint lies inside the other.
        return not (b.contains(a.start) or a.contains(b.start))
    if isinstance(a, Segment):
        a, b = b, a
    # a is a branch.  Both intervals are chains closed under prefixes down
    # to their top level, so they meet iff they meet at the first level
    # where both have a node.
    if isinstance(b, Segment):
        lo = max(a.stem.level, b.start.level)
        return lo > b.end.level or a.node_at_level(lo) != b.end.prefix(lo)
    lo = max(a.stem.level, b.stem.level)
    return a.node_at_level(lo) != b.node_at_level(lo)


def separation_level(
    prefixes: Sequence[NodeId], stems: Sequence[NodeId] = ()
) -> int:
    """Smallest N making all length-N truncations pairwise distinct.

    ``prefixes`` describe branches by finitely many known direction bits;
    the returned N also dominates the level of every stem.  Raises
    InsufficientPrefixError when some pair agrees on every bit both
    provide, which leaves their divergence point unknown.
    """
    if stems and len(stems) != len(prefixes):
        raise ValueError("stems must be empty or match prefixes in length")
    n = max((s.level for s in stems), default=0)
    n = max(n, 1)
    for i in range(len(prefixes)):
        for j in range(i + 1, len(prefixes)):
            p, q = prefixes[i], prefixes[j]
            avail = min(p.level, q.level)
            diff = p.prefix(avail) ^ q.prefix(avail)
            if not diff:
                raise InsufficientPrefixError(
                    f"insufficient prefix: {p!r} and {q!r} agree on all "
                    f"available bits"
                )
            # the highest differing bit is bit avail - diff.bit_length()
            n = max(n, avail - diff.bit_length() + 1)
    return n

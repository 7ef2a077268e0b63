"""Threshold graphs and their interchangeable encodings.

A threshold graph is assembled one vertex at a time: each new vertex is
joined either to every vertex placed before it (a type-1 vertex) or to
none of them (a type-0 vertex).  Recording one bit per vertex yields a
generating sequence, and every other representation handled here is a
reshaping of that sequence:

* composition blocks ``G{p1,...,pk}``: the run lengths of the sequence.
  The last block always consists of type-1 symbols; an odd number of
  blocks starts with a run of ones, an even number with a run of zeros.
* bzp sequence (backward zero positions): for the i-th type-0 vertex,
  the count ``b[i]`` of type-1 vertices inserted after it.  This equals
  that vertex's degree, the list is nonincreasing, and together with the
  number of ones ``c`` it identifies the graph up to isomorphism.
* fop sequence (forward one positions): for the i-th type-1 vertex, the
  count ``f[i]`` of type-0 vertices inserted before it, i.e. its number
  of type-0 neighbours.  Nondecreasing, starts at 0, ends at ``z``.

The first bit of a generating sequence never affects the graph, so it is
stored canonically as 1.  Two graphs are equal exactly when their
canonical sequences are equal.  The graph is connected exactly when the
last bit is 1: the final type-1 vertex dominates everything before it.

Vertices are externally numbered in nonincreasing degree order, type-1
vertices ahead of type-0 vertices at equal degree.  In that order the
adjacency matrix is stepwise: whenever an entry above the diagonal is 1,
every entry above it and to its left (off the diagonal) is 1 as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "BzpSequence",
    "CompositionSpec",
    "FopSequence",
    "ParseError",
    "ThresholdGraph",
    "adjacency_matrix",
    "canonical_vertex_order",
    "degree_sequence",
    "from_bzp",
    "from_composition",
    "from_fop",
    "from_generating_sequence",
    "parse_composition",
    "to_bzp",
    "to_composition",
    "to_fop",
    "to_json_dict",
]


class ParseError(ValueError):
    """Raised when input text does not match the expected grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class CompositionSpec:
    """Run-length blocks ``p1, ..., pk`` of a generating sequence.

    With k odd the expansion is ``1^p1 0^p2 1^p3 ... 1^pk``; with k even
    it is ``0^p1 1^p2 ... 1^pk``.  Either way the final block is a run
    of type-1 symbols, so every composition describes a connected graph.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("composition needs at least one block")
        for i, p in enumerate(self.blocks):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"block {i + 1} must be a positive integer, got {p!r}")

    @property
    def order(self) -> int:
        return sum(self.blocks)

    def format(self) -> str:
        return "G{" + ",".join(str(p) for p in self.blocks) + "}"


@dataclass(frozen=True)
class BzpSequence:
    """Per-type-0-vertex counts of later type-1 vertices, nonincreasing."""

    c: int
    b: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.c, int) or self.c < 1:
            raise ValueError(f"c must be a positive integer, got {self.c!r}")
        for i, bi in enumerate(self.b):
            if not isinstance(bi, int) or not 1 <= bi <= self.c - 1:
                raise ValueError(
                    f"b[{i}] = {bi!r} out of range [1, c-1] = [1, {self.c - 1}]"
                )
        if any(self.b[i] < self.b[i + 1] for i in range(len(self.b) - 1)):
            raise ValueError(f"b must be nonincreasing, got {self.b}")

    @property
    def z(self) -> int:
        return len(self.b)

    @property
    def size(self) -> int:
        """Number of edges: every pair of ones, plus b[i] edges per zero."""
        return comb(self.c, 2) + sum(self.b)


@dataclass(frozen=True)
class FopSequence:
    """Per-type-1-vertex counts of earlier type-0 vertices, nondecreasing."""

    f: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not self.f:
            raise ValueError("f must be nonempty")
        if self.f[0] != 0:
            raise ValueError(f"f[0] must be 0 (the first vertex is type 1), got {self.f[0]}")
        if any(self.f[i] > self.f[i + 1] for i in range(len(self.f) - 1)):
            raise ValueError(f"f must be nondecreasing, got {self.f}")
        z = self.n - len(self.f)
        if z < 0:
            raise ValueError(f"n = {self.n} smaller than the number of ones {len(self.f)}")
        if self.f[-1] != z:
            raise ValueError(
                f"f must end at z = n - c = {z} (all zeros precede the last one), got {self.f[-1]}"
            )

    @property
    def c(self) -> int:
        return len(self.f)

    @property
    def z(self) -> int:
        return self.n - len(self.f)


@dataclass(frozen=True)
class ThresholdGraph:
    """A threshold graph held as its canonical generating sequence.

    Fields are derived once from the sequence: ``n`` vertices, ``m``
    edges, ``c`` type-1 vertices, ``z = n - c`` type-0 vertices.
    """

    bits: tuple[int, ...]
    n: int
    m: int
    c: int
    z: int

    @property
    def is_connected(self) -> bool:
        return self.bits[-1] == 1

    @property
    def generating_string(self) -> str:
        return "".join(str(bit) for bit in self.bits)

    def __repr__(self) -> str:
        return f"ThresholdGraph({self.generating_string})"


def from_generating_sequence(bits) -> ThresholdGraph:
    """Build a graph from an iterable of 0/1 insertion bits.

    The first bit is normalized to 1; it never affects the graph because
    the first vertex has nothing earlier to attach to.
    """
    seq = tuple(int(bit) for bit in bits)
    if not seq:
        raise ValueError("generating sequence must be nonempty")
    if any(bit not in (0, 1) for bit in seq):
        raise ValueError(f"generating sequence must be 0/1 valued, got {seq}")
    seq = (1,) + seq[1:]
    n = len(seq)
    ones = [i for i, bit in enumerate(seq) if bit == 1]
    m = sum(ones)  # a type-1 vertex at 0-based index i contributes i edges
    c = len(ones)
    return ThresholdGraph(bits=seq, n=n, m=m, c=c, z=n - c)


def from_composition(spec) -> ThresholdGraph:
    """Expand composition blocks into a graph.

    Accepts a :class:`CompositionSpec` or a plain iterable of block
    lengths.
    """
    if not isinstance(spec, CompositionSpec):
        spec = CompositionSpec(tuple(int(p) for p in spec))
    return from_generating_sequence(_composition_bits(spec.blocks))


def _composition_bits(blocks) -> list[int]:
    """Expand block lengths into bits; a zero-length block expands to nothing."""
    k = len(blocks)
    bits: list[int] = []
    for j, p in enumerate(blocks, start=1):
        # The last block is ones, and blocks alternate backwards from it.
        symbol = 1 if (k - j) % 2 == 0 else 0
        bits.extend([symbol] * p)
    return bits


def parse_composition(text: str) -> CompositionSpec:
    """Parse ``G{p1,p2,...,pk}`` with positive decimal blocks."""
    if not text.startswith("G{"):
        raise ParseError("expected composition to start with 'G{'", 0)
    if not text.endswith("}"):
        raise ParseError("expected composition to end with '}'", len(text))
    body = text[2:-1]
    if not body:
        raise ParseError("composition needs at least one block", 2)
    blocks: list[int] = []
    pos = 2
    for piece in body.split(","):
        if not piece.isdigit():
            raise ParseError(f"expected a positive integer block, got {piece!r}", pos)
        value = int(piece)
        if value < 1:
            raise ParseError(f"blocks must be >= 1, got {value}", pos)
        blocks.append(value)
        pos += len(piece) + 1
    return CompositionSpec(tuple(blocks))


def to_composition(g: ThresholdGraph) -> CompositionSpec:
    """Run-length encode the canonical sequence.

    Only defined for connected graphs: the notation cannot end in a run
    of zeros, because the final block is a run of ones by definition.
    """
    _require_connected(g, "composition notation")
    blocks: list[int] = []
    run_symbol = g.bits[0]
    run_length = 0
    for bit in g.bits:
        if bit == run_symbol:
            run_length += 1
        else:
            blocks.append(run_length)
            run_symbol = bit
            run_length = 1
    blocks.append(run_length)
    return CompositionSpec(tuple(blocks))


def to_bzp(g: ThresholdGraph) -> BzpSequence:
    """Count, for each type-0 vertex in insertion order, the later ones.

    A complete graph has no type-0 vertex and encodes as ``BzpSequence(c, ())``.
    """
    _require_connected(g, "bzp encoding")
    b: list[int] = []
    ones_seen_after = 0
    for bit in reversed(g.bits):
        if bit == 1:
            ones_seen_after += 1
        else:
            b.append(ones_seen_after)
    b.reverse()
    return BzpSequence(c=g.c, b=tuple(b))


def from_bzp(c: int, b) -> ThresholdGraph:
    """Rebuild the graph whose i-th type-0 vertex has ``b[i]`` later ones.

    Starting from the complete graph on ``c`` vertices, the i-th added
    type-0 vertex is attached to ``b[i]`` clique vertices; in sequence
    terms it is placed so that exactly ``b[i]`` ones follow it.
    """
    seq = BzpSequence(c=int(c), b=tuple(int(bi) for bi in b))
    zeros_by_remaining = Counter(seq.b)
    bits: list[int] = []
    for j in range(1, seq.c + 1):
        bits.append(1)
        # Zeros wanting (c - j) later ones sit right after the j-th one.
        bits.extend([0] * zeros_by_remaining.get(seq.c - j, 0))
    return from_generating_sequence(bits)


def to_fop(g: ThresholdGraph) -> FopSequence:
    """Count, for each type-1 vertex in insertion order, the earlier zeros."""
    _require_connected(g, "fop encoding")
    f: list[int] = []
    zeros_seen = 0
    for bit in g.bits:
        if bit == 1:
            f.append(zeros_seen)
        else:
            zeros_seen += 1
    return FopSequence(f=tuple(f), n=g.n)


def from_fop(f, n: int) -> ThresholdGraph:
    """Rebuild the graph whose i-th type-1 vertex has ``f[i]`` earlier zeros."""
    seq = FopSequence(f=tuple(int(fi) for fi in f), n=int(n))
    bits: list[int] = []
    previous = 0
    for fi in seq.f:
        bits.extend([0] * (fi - previous))
        bits.append(1)
        previous = fi
    return from_generating_sequence(bits)


def _insertion_degrees(g: ThresholdGraph) -> list[int]:
    """Degrees indexed by insertion position.

    A type-1 vertex at 0-based position i is adjacent to all i earlier
    vertices plus every later type-1 vertex; a type-0 vertex only to the
    later type-1 vertices.
    """
    n = g.n
    ones_after = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        ones_after[i] = ones_after[i + 1] + (1 if g.bits[i] == 1 else 0)
    degrees = []
    for i, bit in enumerate(g.bits):
        later_ones = ones_after[i + 1]
        degrees.append(i + later_ones if bit == 1 else later_ones)
    return degrees


def canonical_vertex_order(g: ThresholdGraph) -> tuple[int, ...]:
    """Insertion indices sorted by nonincreasing degree, ones before zeros.

    The sort is stable, so vertices tied on both keys keep insertion
    order; the i-th type-0 vertex then lands at sorted position c + i.
    """
    degrees = _insertion_degrees(g)
    return tuple(sorted(range(g.n), key=lambda v: (-degrees[v], g.bits[v] == 0)))


def degree_sequence(g: ThresholdGraph) -> tuple[int, ...]:
    """Degrees in canonical vertex order (nonincreasing).

    The i-th type-1 vertex has degree c - 1 + f_i and the i-th type-0
    vertex has degree b_i, so no sort is needed: f is nondecreasing, b
    is nonincreasing, and every b_i <= c - 1.
    """
    _require_connected(g, "degree sequence")
    ones = [g.c - 1 + f for f in reversed(to_fop(g).f)]
    return tuple(ones) + to_bzp(g).b


def adjacency_matrix(g: ThresholdGraph) -> np.ndarray:
    """0/1 adjacency matrix under the canonical vertex order.

    Two vertices are adjacent exactly when the later-inserted one is
    type 1.  In degree-sorted order the matrix is stepwise.
    """
    order = canonical_vertex_order(g)
    n = g.n
    a = np.zeros((n, n), dtype=np.int64)
    for p in range(n):
        for q in range(p + 1, n):
            i, j = order[p], order[q]
            if g.bits[max(i, j)] == 1:
                a[p, q] = a[q, p] = 1
    return a


def to_json_dict(g: ThresholdGraph) -> dict:
    """JSON-ready description with all encodings spelled out."""
    if g.is_connected:
        bzp = list(to_bzp(g).b)
        fop = list(to_fop(g).f)
        degrees = list(degree_sequence(g))
    else:
        bzp = None
        fop = None
        degrees = None
    return {
        "n": g.n,
        "m": g.m,
        "c": g.c,
        "z": g.z,
        "generating": g.generating_string,
        "bzp": bzp,
        "fop": fop,
        "degrees": degrees,
    }


def _require_connected(g: ThresholdGraph, what: str) -> None:
    if not g.is_connected:
        raise ValueError(f"{what} requires a connected graph (last bit must be 1)")

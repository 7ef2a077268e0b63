"""Threshold graphs, held as their twin classes, and their encodings.

A threshold graph is assembled one vertex at a time: each new vertex is
joined either to every vertex placed before it (a type-1 vertex) or to
none of them (a type-0 vertex).  Recording one bit per vertex yields a
generating sequence.  The vertices of one run of that sequence are
twins (they have the same neighbours), so the runs are an equitable
partition (Brouwer & Haemers, *Spectra of Graphs* 2.3), and a graph is
held as its run lengths alone.  Every other representation handled here
is read from those runs and one table of the zero runs, ``_zero_classes``:

* composition ``G{p1,...,pk}``: the run lengths themselves, so
  :func:`to_composition` only spells out ``runs`` (always an odd number
  of blocks) and :func:`from_composition` takes plain block lengths.
  The last block always consists of type-1 symbols; an odd number of
  blocks starts with a run of ones, an even number with a run of zeros.
  The text grammar of all three spec forms is
  :func:`threshold_spectra.cli.parse_graph_spec`, which also caps the
  number of vertices a spec may give.
* bzp sequence (backward zero positions): for the i-th type-0 vertex,
  the count ``b[i]`` of type-1 vertices inserted after it.  This equals
  that vertex's degree, the list is nonincreasing, and together with the
  number of ones ``c`` it identifies the graph up to isomorphism.
  :func:`to_bzp` returns the tuple b (c is ``g.c``) and
  :func:`from_bzp` takes c and b.
* fop sequence (forward one positions): for the i-th type-1 vertex, the
  count ``f[i]`` of type-0 vertices inserted before it, i.e. its number
  of type-0 neighbours.  Nondecreasing, starts at 0, ends at ``z``, so
  f alone fixes the graph: :func:`to_fop` returns the tuple f and
  :func:`from_fop` takes f, with ``n = len(f) + f[-1]``.

Both builders check every rule of their sequence and raise
``ValueError`` at the first one broken.

The runs also give the characteristic polynomial of the class quotient
in one exact pass (``_characteristic_polynomial``): q, of ``A + I``,
for the walk recurrence of :mod:`threshold_spectra.walks`, and r, of
A, for the spectral radius in :mod:`threshold_spectra.spectral`.

The first bit of a generating sequence never affects the graph, so it is
stored canonically as 1: the first run is ones and the runs alternate.
Two graphs are equal exactly when their canonical runs are equal.  The
graph is connected exactly when the last bit is 1, i.e. the number of
runs is odd: the final type-1 vertex dominates everything before it.

Vertices are externally numbered in nonincreasing degree order, type-1
vertices ahead of type-0 vertices at equal degree.  In that order the
adjacency matrix is stepwise: whenever an entry above the diagonal is 1,
every entry above it and to its left (off the diagonal) is 1 as well.
Nothing in the package builds that n x n matrix: it and the order are
test oracles in :mod:`threshold_spectra.identities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, cycle, groupby
from math import comb
from operator import add, mul, sub

__all__ = [
    "ParseError",
    "ThresholdGraph",
    "degree_sequence",
    "from_bzp",
    "from_composition",
    "from_fop",
    "from_generating_sequence",
    "to_bzp",
    "to_composition",
    "to_fop",
]

# the walk recurrence pays, and rho's root route runs, only while the quotient's characteristic
# polynomial has machine-sized coefficients
_COEFFICIENT_LIMIT = 2**63


class ParseError(ValueError):
    """Raised when input text does not match the expected grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class ThresholdGraph:
    """A threshold graph held as its twin classes.

    ``runs`` are the run lengths of the canonical generating sequence:
    the first run is ones and the runs alternate.  Fields are derived
    once from them: ``n`` vertices, ``m`` edges, ``c`` type-1 vertices,
    ``z = n - c`` type-0 vertices.
    """

    runs: tuple[int, ...]
    n: int
    m: int
    c: int
    z: int

    @property
    def is_connected(self) -> bool:
        return len(self.runs) % 2 == 1

    @property
    def bits(self) -> tuple[int, ...]:
        """The canonical generating sequence, one bit per vertex."""
        return tuple(map(int, self.generating_string))

    @property
    def generating_string(self) -> str:
        return "".join(map(mul, cycle("10"), self.runs))

    def __repr__(self) -> str:
        return f"ThresholdGraph({self.generating_string})"


def _from_runs(pairs) -> ThresholdGraph:
    """The graph of ``(symbol, length)`` runs, normalised.

    Empty runs vanish, equal neighbours merge, and the first bit becomes
    1 (the first vertex has nothing earlier to attach to).  At least one
    run must be nonempty.
    """
    runs = [0]
    last = 1
    for symbol, length in pairs:
        if runs == [0] and length:
            runs[0], length = 1, length - 1
        if not length:
            continue
        if symbol == last:
            runs[-1] += length
        else:
            runs.append(length)
            last = symbol
    n = c = m = 0
    for i, size in enumerate(runs):
        if i % 2 == 0:
            # a type-1 vertex at 0-based index v contributes v edges
            c += size
            m += size * n + comb(size, 2)
        n += size
    return ThresholdGraph(runs=tuple(runs), n=n, m=m, c=c, z=n - c)


def _zero_classes(g: ThresholdGraph) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The type-0 classes as ``(b, size)`` blocks, then sum b and F_1 = sum b^2.

    b is the degree of a type-0 vertex, its number of later ones: one
    pass from the last run back pairs each zero run with the ones after
    it.  The blocks follow the canonical order, so b is decreasing.
    Every edge outside the clique of the c ones has one type-0 end, so
    sum b = m - C(c, 2).
    """
    runs = g.runs
    zeros = tuple(zip(accumulate(runs[::-2]), runs[-2::-2]))[::-1]
    return zeros, g.m - comb(g.c, 2), _f1(runs)


def _f1(runs: tuple[int, ...]) -> int:
    """F_1 = sum b^2 over the type-0 vertices of a connected graph's runs.

    From the last run back, b counts the ones after each zero run.
    """
    f1 = b = 0
    for i in range(len(runs) - 1, 0, -2):
        b += runs[i]
        f1 += runs[i - 1] * b * b
    return f1


def _characteristic_polynomial(
    runs: tuple[int, ...], diagonal: int = 1
) -> tuple[int, ...] | None:
    """Coefficients ``(1, q_(K-1), ..., q_0)`` of ``q(x) = det(xI - M)``, in descending powers.

    M is the K x K class quotient of ``A + diagonal I``, K = len(runs),
    for diagonal 1 or 0.  With the default diagonal 1, ``q(M) = 0``
    gives ``LW_k = -sum_(i<K) q_i LW_(k-K+i)`` for k > K
    (:func:`threshold_spectra.walks.lw_recurrence`), and the greatest
    root is ``1 + rho``; with diagonal 0 the polynomial is
    ``r(y) = q(y + 1)``, whose greatest root is rho itself
    (:func:`threshold_spectra.spectral.spectral_radii`).  One pass over
    the runs keeps two integer polynomials p, u (descending too: x p
    appends a 0) with ``u / p = 1 + 1^T (xI - A - diagonal I)^-1 1``
    over the vertices read so far, starting at p = u = 1.  With
    d = diagonal, one of the two factors below is x:

    * s type-0 twins add ``s / (x - d)``: ``(p, u) -> ((x-d) p, (x-d) u + s p)``;
    * s type-1 twins join everything read so far and each other (the
      Schur complement of the new class):
      ``(p, u) -> ((x+1-d) p - s u, (x+1-d) u)``.

    At the end p is monic of degree K and equals q.  Returns None at the
    first run after which a coefficient of p reaches 2^63: beyond that
    a product in the recurrence is no longer cheap next to a class step,
    and rho takes its dense route.  The j-th run costs O(j) operations
    on integers below 2^63, and the pass has stopped by run 82 (run 83
    with diagonal 0) on every graph measured (all-ones runs grow p the
    slowest; 4,000 random graphs of 101 or more runs, each run up to
    1,000 vertices, stopped by run 11), so it costs about 1 ms at most.
    """
    p, u = [1], [1]
    for i, s in enumerate(runs):
        if i % 2 != diagonal:  # the run multiplies p and u by x, which appends a 0
            if i % 2:
                p, u = [*p, 0], [a + s * c for a, c in zip([*u, 0], [0, *p])]
            else:
                p, u = [a - s * c for a, c in zip([*p, 0], [0, *u])], [*u, 0]
        elif i % 2:  # type 0 with diagonal 1: x - 1
            u = [a - b + s * c for a, b, c in zip([*u, 0], [0, *u], [0, *p])]
            p = list(map(sub, [*p, 0], [0, *p]))
        else:  # type 1 with diagonal 0: x + 1
            p = [a + b - s * c for a, b, c in zip([*p, 0], [0, *p], [0, *u])]
            u = list(map(add, [*u, 0], [0, *u]))
        if max(map(abs, p)) >= _COEFFICIENT_LIMIT:
            return None
    return tuple(p)


def from_generating_sequence(bits) -> ThresholdGraph:
    """Build a graph from an iterable of 0/1 insertion bits.

    The first bit is normalized to 1; it never affects the graph because
    the first vertex has nothing earlier to attach to.
    """
    seq = tuple(bits)
    if not seq:
        raise ValueError("generating sequence must be nonempty")
    if any(bit not in (0, 1) for bit in seq):
        raise ValueError(f"generating sequence must be 0/1 valued, got {seq}")
    return _from_runs((int(bit), len(list(run))) for bit, run in groupby(seq))


def from_composition(blocks) -> ThresholdGraph:
    """Expand composition blocks ``p1, ..., pk`` into a graph.

    With k odd the expansion is ``1^p1 0^p2 1^p3 ... 1^pk``; with k even
    it is ``0^p1 1^p2 ... 1^pk``.  Either way the final block is a run
    of type-1 symbols, so every composition describes a connected graph.
    ``blocks`` is a nonempty iterable of positive integers.
    """
    blocks = [_integral(p, "block") for p in blocks]
    if not blocks:
        raise ValueError("composition needs at least one block")
    for i, p in enumerate(blocks, start=1):
        if p < 1:
            raise ValueError(f"block {i} must be a positive integer, got {p!r}")
    return _from_runs(_block_runs(blocks))


def _block_runs(blocks) -> list[tuple[int, int]]:
    """``(symbol, length)`` of each block: the last is ones, and they alternate backwards."""
    k = len(blocks)
    return [(1 - (k - j) % 2, p) for j, p in enumerate(blocks, start=1)]


def to_composition(g: ThresholdGraph) -> str:
    """The runs spelled ``G{p1,...,pk}``.

    Only defined for connected graphs: the notation cannot end in a run
    of zeros, because the final block is a run of ones by definition.
    """
    _require_connected(g, "composition notation")
    return "G{" + ",".join(map(str, g.runs)) + "}"


def to_bzp(g: ThresholdGraph) -> tuple[int, ...]:
    """Count, for each type-0 vertex in insertion order, the later ones.

    That count is the vertex's degree.  A complete graph has no type-0
    vertex and encodes as ``()``.
    """
    _require_connected(g, "bzp encoding")
    return _expand(_zero_classes(g)[0])


def from_bzp(c: int, b) -> ThresholdGraph:
    """Rebuild the graph whose i-th type-0 vertex has ``b[i]`` later ones.

    Starting from the complete graph on ``c`` vertices, the i-th added
    type-0 vertex is attached to ``b[i]`` clique vertices; in sequence
    terms it is placed so that exactly ``b[i]`` ones follow it.
    """
    c = _integral(c, "c")
    b = tuple(_integral(bi, "b entry") for bi in b)
    if c < 1:
        raise ValueError(f"c must be a positive integer, got {c!r}")
    for i, bi in enumerate(b):
        if not 1 <= bi <= c - 1:
            raise ValueError(f"b[{i}] = {bi!r} out of range [1, c-1] = [1, {c - 1}]")
    if any(x < y for x, y in zip(b, b[1:])):
        raise ValueError(f"b must be nonincreasing, got {b}")
    pairs, later_ones = [], c
    for value, run in groupby(b):
        # the zeros wanting `value` later ones sit right after the (c - value)-th one
        pairs += [(1, later_ones - value), (0, len(list(run)))]
        later_ones = value
    return _from_runs(pairs + [(1, later_ones)])


def to_fop(g: ThresholdGraph) -> tuple[int, ...]:
    """Count, for each type-1 vertex in insertion order, the earlier zeros.

    A type-1 vertex of degree d has d - (c - 1) of them.
    """
    _require_connected(g, "fop encoding")
    return _expand(_vertex_blocks(g)[1])


def from_fop(f) -> ThresholdGraph:
    """Rebuild the graph whose i-th type-1 vertex has ``f[i]`` earlier zeros.

    Every zero precedes the last one, so the graph has ``len(f) + f[-1]``
    vertices.
    """
    f = tuple(_integral(fi, "f entry") for fi in f)
    if not f:
        raise ValueError("f must be nonempty")
    if f[0] != 0:
        raise ValueError(f"f[0] must be 0 (the first vertex is type 1), got {f[0]}")
    if any(x > y for x, y in zip(f, f[1:])):
        raise ValueError(f"f must be nondecreasing, got {f}")
    pairs, earlier_zeros = [], 0
    for value, run in groupby(f):
        pairs += [(0, value - earlier_zeros), (1, len(list(run)))]
        earlier_zeros = value
    return _from_runs(pairs)


def degree_sequence(g: ThresholdGraph) -> tuple[int, ...]:
    """Degrees in canonical vertex order (nonincreasing).

    The i-th type-1 vertex has degree c - 1 + f_i and the i-th type-0
    vertex has degree b_i.
    """
    _require_connected(g, "degree sequence")
    return _expand(_vertex_blocks(g)[2])


def _vertex_blocks(g: ThresholdGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """bzp, fop and the degree sequence as ``(value, size)`` blocks, one per class.

    bzp is the zero-run table; the i-th ones run has f earlier zeros and
    degree c - 1 + f.  The canonical order lists the ones runs last to
    first, then the zero runs first to last: so do the degree blocks.
    """
    bzp = _zero_classes(g)[0]
    runs = g.runs
    fop = tuple(zip(accumulate(runs[1::2], initial=0), runs[0::2]))
    degrees = tuple((g.c - 1 + f, size) for f, size in reversed(fop)) + bzp
    return bzp, fop, degrees


def _expand(blocks) -> tuple[int, ...]:
    """The tuple that ``(value, size)`` blocks stand for."""
    values = []
    for value, size in blocks:
        values += [value] * size
    return tuple(values)


def _integral(value, what: str) -> int:
    """``int(value)``, raising instead of truncating a value the cast would change."""
    as_int = int(value)
    if as_int != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return as_int


def _require_connected(g: ThresholdGraph, what: str) -> None:
    if not g.is_connected:
        raise ValueError(f"{what} requires a connected graph (last bit must be 1)")

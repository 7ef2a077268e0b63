"""Exact lazy-walk counting on connected threshold graphs.

A lazy walk is a vertex sequence in which consecutive vertices are equal
or adjacent; its length is the number of steps.  Reading the vertex
types (1 for dominating-insertion vertices, 0 for isolated-insertion
vertices) along a walk gives its signature.

Two families of counts drive everything here, and both are exact Python
integers throughout:

* ``F_p``: the number of lazy walks whose signature is p+1 ones
  separated by p nonempty runs of zeros.  All zeros inside one run must
  repeat the same type-0 vertex (distinct type-0 vertices are never
  adjacent), which is why the count does not depend on the run widths.
  ``F_0 = c`` and ``F_1 = sum(b_i^2)``.
* ``LW_k``: the number of lazy walks of length k-1 whose two endpoints
  are both type-1 vertices, with ``LW_0 = 1`` for the empty walk.
  ``LW_k`` satisfies a convolution recurrence over the F values, and is
  sandwiched between two order-3 linear recurrences: ``lw_prime`` keeps
  only single-zero-run contributions (a lower bound) and
  ``lw_double_prime`` overcounts via ``F_p <= F_1 * (sum b)^(p-1)``
  (an upper bound).  Their characteristic cubics depend on c, sum b and
  F_1 alone and are written once, in :func:`bracket_cubics`; the lower
  and upper cubic bounds of :mod:`threshold_spectra.bounds` are built
  from the same two tuples.

The growth rate of ``LW_k`` recovers the spectral radius: the k-th root
and the consecutive ratio both converge to ``1 + rho``.

Cost: the twin classes are an equitable partition (Brouwer & Haemers,
*Spectra of Graphs* 2.3), so ``A + I`` and the zero-overlap matrix act
on one value per class, and ``lw_recurrence`` takes O(k) big-integer
operations per step for k classes, for LW and for F alike.  The
integers grow too: ``LW_k`` has about ``k * log2(1 + rho)`` bits, 973
bits at k = 200 on the 45-vertex alternating graph.  The F-convolution,
matrix and brute-force routines stay as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby, product
from math import exp, log
from operator import add, mul, sub

from .graph_model import (
    BzpSequence,
    FopSequence,
    ThresholdGraph,
    _require_connected,
    _zero_classes,
    adjacency_matrix,
    canonical_vertex_order,
)

__all__ = [
    "WalkTable",
    "bracket_cubics",
    "count_walks_with_signature",
    "fp_sequence",
    "fp_via_max_indices",
    "fp_via_min_products",
    "fp_via_one_overlap",
    "fp_via_zero_overlap",
    "growth_estimate",
    "lw_bruteforce",
    "lw_double_prime",
    "lw_prime",
    "lw_recurrence",
    "one_overlap_matrix",
    "zero_overlap_matrix",
]


@dataclass(frozen=True)
class WalkTable:
    """Walk counts of one graph, indexed by walk length step count k.

    ``lw[k]`` is exact; ``lw_prime[k] <= lw[k] <= lw_double_prime[k]``
    holds entrywise and all three agree up to k = 2 (and k = 3, where
    each equals ``c^3 + F_1``).  ``fp[p]`` holds ``F_p``.
    """

    lw: tuple[int, ...]
    lw_prime: tuple[int, ...]
    lw_double_prime: tuple[int, ...]
    fp: tuple[int, ...]


# ---------------------------------------------------------------------------
# F_p: closed formulas, overlap matrices, and the brute-force signature count
# ---------------------------------------------------------------------------


def fp_via_min_products(bzp: BzpSequence, p: int) -> int:
    """F_p as the p-fold sum of pairwise-minimum products.

    For p >= 2 this enumerates all index tuples (i1, ..., ip) over the
    type-0 vertices and sums ``b[i1] * min(b[i1], b[i2]) * ... *
    min(b[i_{p-1}], b[ip]) * b[ip]``; each factor counts the common
    type-1 neighbours available for one run-to-run transition.  Runs in
    z^p time, so it is only suitable as a small-case oracle.
    """
    _check_nonnegative("p", p)
    if p == 0:
        return bzp.c
    b = bzp.b
    if p == 1:
        return sum(bi * bi for bi in b)
    total = 0
    for idx in product(range(len(b)), repeat=p):
        term = b[idx[0]] * b[idx[-1]]
        for j in range(p - 1):
            term *= min(b[idx[j]], b[idx[j + 1]])
        total += term
    return total


def fp_via_max_indices(bzp: BzpSequence, p: int) -> int:
    """F_p with minima replaced by ``b[max(i, j)]``.

    Because b is nonincreasing, ``min(b[i], b[j]) = b[max(i, j)]``, so
    this must agree with :func:`fp_via_min_products` term by term.
    """
    _check_nonnegative("p", p)
    if p == 0:
        return bzp.c
    b = bzp.b
    if p == 1:
        return sum(bi * bi for bi in b)
    total = 0
    for idx in product(range(len(b)), repeat=p):
        term = b[idx[0]] * b[idx[-1]]
        for j in range(p - 1):
            term *= b[max(idx[j], idx[j + 1])]
        total += term
    return total


def zero_overlap_matrix(bzp: BzpSequence) -> list[list[int]]:
    """Common-neighbour counts between type-0 vertices: ``b[max(i, j)]``.

    Entry (i, j) counts the type-1 vertices adjacent to both the i-th
    and the j-th type-0 vertex; the diagonal is b itself.  Symmetric and
    positive semidefinite.
    """
    b = bzp.b
    z = len(b)
    return [[b[max(i, j)] for j in range(z)] for i in range(z)]


def one_overlap_matrix(fop: FopSequence) -> list[list[int]]:
    """Common type-0 neighbour counts between type-1 vertices: ``f[min(i, j)]``.

    Entry (i, j) counts the type-0 vertices inserted before both the
    i-th and the j-th type-1 vertex.  Symmetric and positive
    semidefinite.
    """
    f = fop.f
    c = len(f)
    return [[f[min(i, j)] for j in range(c)] for i in range(c)]


def fp_via_zero_overlap(bzp: BzpSequence, p: int) -> int:
    """F_p = b^T * Z^(p-1) * b for the zero-overlap matrix Z, p >= 1."""
    if p < 1:
        raise ValueError(f"the zero-overlap identity needs p >= 1, got {p}")
    if bzp.z == 0:
        raise ValueError("the zero-overlap identity needs z >= 1")
    matrix = zero_overlap_matrix(bzp)
    vector = list(bzp.b)
    for _ in range(p - 1):
        vector = _int_matvec(matrix, vector)
    return sum(bi * vi for bi, vi in zip(bzp.b, vector))


def fp_via_one_overlap(fop: FopSequence, p: int) -> int:
    """F_p = 1^T * Phi^p * 1 for the one-overlap matrix Phi, p >= 0."""
    _check_nonnegative("p", p)
    matrix = one_overlap_matrix(fop)
    vector = [1] * fop.c
    for _ in range(p):
        vector = _int_matvec(matrix, vector)
    return sum(vector)


def fp_sequence(bzp: BzpSequence, pmax: int) -> list[int]:
    """F_0 .. F_pmax as ``b^T Z^(p-1) b``, applying Z in O(1) per run of equal b.

    ``Z_ij = b[max(i, j)]`` (see :func:`zero_overlap_matrix`) is constant
    on each block of equal b, so Z acts on one value per block.
    """
    _check_nonnegative("pmax", pmax)
    return _fp_classes(bzp.c, [(len(list(run)), b) for b, run in groupby(bzp.b)], pmax)


def count_walks_with_signature(g: ThresholdGraph, signature) -> int:
    """Brute-force count of lazy walks realizing an alternating signature.

    The signature must be of the alternating form: it starts and ends
    with 1 and every maximal run of zeros is nonempty (no two ones are
    adjacent).  The result equals ``F_p`` where p is the number of zero
    runs, regardless of the run widths.
    """
    sig = tuple(int(s) for s in signature)
    if not sig or any(s not in (0, 1) for s in sig):
        raise ValueError(f"signature must be a nonempty 0/1 sequence, got {signature!r}")
    if sig[0] != 1 or sig[-1] != 1:
        raise ValueError("signature must start and end with 1")
    if any(sig[i] == 1 and sig[i + 1] == 1 for i in range(len(sig) - 1)):
        raise ValueError("signature must separate ones by at least one zero")
    _require_connected(g, "count_walks_with_signature")
    bits = g.bits
    types = [bits[v] for v in canonical_vertex_order(g)]
    closed = _closed_neighbourhood(g)
    counts = [1 if types[v] == sig[0] else 0 for v in range(g.n)]
    for symbol in sig[1:]:
        nxt = [0] * g.n
        for v in range(g.n):
            if types[v] != symbol:
                continue
            nxt[v] = sum(counts[u] for u in closed[v])
        counts = nxt
    return sum(counts)


# ---------------------------------------------------------------------------
# LW: brute force via matrix powers, and the three recurrences
# ---------------------------------------------------------------------------


def lw_bruteforce(g: ThresholdGraph, kmax: int) -> list[int]:
    """LW_0 .. LW_kmax by exact integer powers of (A + I).

    ``LW_k`` sums the (k-1)-step lazy-walk counts over all ordered pairs
    of type-1 endpoints, i.e. ``chi^T (A + I)^(k-1) chi`` with chi the
    type-1 indicator.  Independent of the recurrence path on purpose.
    """
    _check_nonnegative("kmax", kmax)
    _require_connected(g, "lw_bruteforce")
    bits = g.bits
    types = [bits[v] for v in canonical_vertex_order(g)]
    chi = [1 if t == 1 else 0 for t in types]
    closed = _closed_neighbourhood(g)
    values = [1]
    vector = chi[:]
    for _ in range(kmax):
        values.append(sum(ci * vi for ci, vi in zip(chi, vector)))
        vector = [sum(vector[u] for u in closed[v]) for v in range(g.n)]
    return values[: kmax + 1]


def lw_recurrence(g: ThresholdGraph, kmax: int, pmax: int = 10) -> WalkTable:
    """LW_0 .. LW_kmax as ``chi^T (A + I)^(k-1) chi`` on the twin classes, plus both brackets.

    chi is the type-1 indicator.  Twins carry equal values, so the vector
    is one integer y per run; the runs alternate ones, zeros, ..., ones.
    With ``w = size * y``, a type-1 run gets the weight of every one and
    of the zeros before it, a type-0 run its own y plus the weight of
    the ones after it, and ``LW_{k+1}`` is the weight of the ones.
    Cost: O(k) big-integer operations per step for k runs, and the same
    per F value (``fp`` holds F_0 .. F_pmax).  ``LW_k`` has about ``k *
    log2(1 + rho)`` bits (973 at k = 200 on the 45-vertex alternating
    graph), so each operation grows with k as well.
    """
    _check_nonnegative("kmax", kmax)
    _check_nonnegative("pmax", pmax)
    _require_connected(g, "lw_recurrence")
    ones, zeros = g.runs[0::2], g.runs[1::2]
    y1, y0 = [1] * len(ones), [0] * len(zeros)
    lw = [1]
    for _ in range(kmax):
        # reach[i]: the weight of the type-1 runs up to the i-th one
        reach = list(accumulate(map(mul, ones, y1)))
        total = reach[-1]
        lw.append(total)
        y1 = list(map(total.__add__, accumulate(map(mul, zeros, y0), initial=0)))
        y0 = list(map(sub, map(total.__add__, y0), reach))
    classes, sb, f1 = _zero_classes(g)
    lower, upper = bracket_cubics(g.c, sb, f1)
    return WalkTable(
        lw=tuple(lw),
        lw_prime=tuple(_order_three(lower, g.c, kmax)),
        lw_double_prime=tuple(_order_three(upper, g.c, kmax)),
        fp=tuple(_fp_classes(g.c, classes, pmax)),
    )


def bracket_cubics(c: int, sb: int, f1: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Characteristic cubics of the lower and upper bracket sequences.

    Coefficients run in descending powers, from c, ``sb = sum b`` and
    ``F_1 = sum b_i^2``:

    * lower (``LW'``): ``x^3 - (c+1) x^2 + c x - F_1``.  Its value at
      x = c is -F_1 < 0 when z >= 1, so its largest root exceeds c.
    * upper (``LW''``): ``x^3 - (c+1) x^2 + (c - sum b) x + (c sum b - F_1)``.

    The largest root of each, minus one, is the lower or upper cubic
    bound on the spectral radius.
    """
    return (1, -(c + 1), c, -f1), (1, -(c + 1), c - sb, c * sb - f1)


def lw_prime(g: ThresholdGraph, kmax: int) -> list[int]:
    """Lower-bracket sequence: only single-zero-run closings are kept.

    ``LW'_k = c^k`` for k <= 2 and ``LW'_k = c * LW'_{k-1} +
    F_1 * sum_{r=0}^{k-3} LW'_r`` afterwards.  Differencing that sum
    gives the order-3 recurrence with the lower cubic of
    :func:`bracket_cubics` as characteristic polynomial, which is how it
    is evaluated.
    """
    _check_nonnegative("kmax", kmax)
    _require_connected(g, "lw_prime")
    lower, _ = bracket_cubics(g.c, *_zero_classes(g)[1:])
    return _order_three(lower, g.c, kmax)


def lw_double_prime(g: ThresholdGraph, kmax: int) -> list[int]:
    """Upper-bracket sequence: F_{q+1} is replaced by F_1 * (sum b)^q.

    Same convolution shape as the exact recurrence, with each F value
    overestimated geometrically.  Summing that geometric closing series
    gives the order-3 recurrence with the upper cubic of
    :func:`bracket_cubics` as characteristic polynomial, evaluated here
    from ``LW''_k = c^k`` for k <= 2.
    """
    _check_nonnegative("kmax", kmax)
    _require_connected(g, "lw_double_prime")
    _, upper = bracket_cubics(g.c, *_zero_classes(g)[1:])
    return _order_three(upper, g.c, kmax)


def growth_estimate(sequence) -> tuple[float, float]:
    """(k-th root, consecutive ratio) of the last entry, in log space."""
    values = list(sequence)
    if len(values) < 3:
        raise ValueError("growth estimate needs at least three entries")
    if any(v <= 0 for v in values):
        raise ValueError("growth estimate needs positive entries")
    top = len(values) - 1
    log_last = log(values[top])
    root = exp(log_last / top)
    ratio = exp(log_last - log(values[top - 1]))
    return root, ratio


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _order_three(cubic: tuple[int, ...], c: int, kmax: int) -> list[int]:
    """Terms 0 .. kmax of the recurrence with characteristic polynomial ``cubic``.

    The first three terms are c^0, c^1, c^2; a monic cubic ``(1, a1, a2,
    a3)`` then gives ``v_k = -a1 v_{k-1} - a2 v_{k-2} - a3 v_{k-3}``.
    """
    _, a1, a2, a3 = cubic
    values = [c**k for k in range(min(kmax, 2) + 1)]
    for k in range(3, kmax + 1):
        values.append(-a1 * values[k - 1] - a2 * values[k - 2] - a3 * values[k - 3])
    return values


def _int_matvec(matrix: list[list[int]], vector: list[int]) -> list[int]:
    return [sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix]


def _fp_classes(c: int, classes, pmax: int) -> list[int]:
    """F_0 .. F_pmax from the ``(size, b)`` blocks of equal b, b decreasing.

    On blocks, ``(Z u)_J = b_J * sum_{L<=J} s_L u_L + sum_{L>J} s_L b_L
    u_L`` (min(b_i, b_j) = b[max(i, j)], also inside a block), and
    ``F_p = sum_J s_J b_J u_J`` with u starting at b.
    """
    sizes = [size for size, _ in classes]
    b = [value for _, value in classes]
    u = b
    values = [c]
    for _ in range(pmax):
        su = list(map(mul, sizes, u))
        reach = list(accumulate(map(mul, b, su), initial=0))
        total = reach[-1]
        values.append(total)
        u = list(map(add, map(mul, b, accumulate(su)), map(total.__sub__, reach[1:])))
    return values


def _closed_neighbourhood(g: ThresholdGraph) -> list[list[int]]:
    a = adjacency_matrix(g)
    n = g.n
    return [[u for u in range(n) if u == v or a[v, u]] for v in range(n)]


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")

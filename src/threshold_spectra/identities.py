"""The paper's alternative formulas, as independent checks of the core.

The paper states several equivalent formulas for the same quantities.
The package computes each quantity once, in its core modules; this
module holds the other formulas, so the tests can check the core
against them.  No core module imports it, and the command line never
loads it.

* F_p: as p-fold sums of pairwise-minimum products or of
  ``b[max(i, j)]``, as ``b^T Z^(p-1) b`` and ``1^T Phi^p 1`` over the
  zero- and one-overlap matrices, exactly and through their spectra,
  and by counting the walks of one signature.  The core is
  ``lw_recurrence(g, 0, pmax).fp``.
* LW: :func:`lw_bruteforce`, the powers of ``A + I`` over every vertex
  (it lives in :mod:`threshold_spectra.walks` and is re-exported here),
  and :func:`growth_estimate` for its rate.
* Bounds: the lower and upper bracket cubics and the degree quartic as
  tuples of integer coefficients in descending powers, and the degree
  inequality evaluated at a given rho.  The core is
  :func:`~threshold_spectra.bounds.bound_report`.
* The graph: its dense adjacency matrix in the canonical vertex order.

Each of these costs far more than the core (z^p terms, n x n matrices,
a walk over every vertex), so they suit small cases only.
"""

from __future__ import annotations

from itertools import product
from math import exp, log

import numpy as np

from .bounds import _bound_inputs, _inequality_coefficients
from .graph_model import (
    ThresholdGraph,
    _classes,
    _require_connected,
    _zero_classes,
    to_bzp,
    to_fop,
)
from .walks import _check_nonnegative, _closed_neighbourhoods, bracket_cubics, lw_bruteforce

__all__ = [
    "adjacency_matrix",
    "canonical_vertex_order",
    "count_walks_with_signature",
    "fp_spectral_bzp",
    "fp_spectral_fop",
    "fp_via_max_indices",
    "fp_via_min_products",
    "fp_via_one_overlap",
    "fp_via_zero_overlap",
    "growth_estimate",
    "inequality_check",
    "inequality_polynomial",
    "lower_cubic_polynomial",
    "lw_bruteforce",
    "one_overlap_matrix",
    "upper_cubic_polynomial",
    "zero_overlap_matrix",
]

_INEQUALITY_REL = 1e-9


# ---------------------------------------------------------------------------
# the graph as a dense matrix
# ---------------------------------------------------------------------------


def canonical_vertex_order(g: ThresholdGraph) -> tuple[int, ...]:
    """Insertion indices by nonincreasing degree, ones before zeros.

    Twins keep insertion order; the i-th type-0 vertex then lands at
    position c + i.
    """
    return tuple(v for _, start, size, _ in _classes(g) for v in range(start, start + size))


def adjacency_matrix(g: ThresholdGraph) -> np.ndarray:
    """0/1 adjacency matrix under the canonical vertex order.

    Two vertices are adjacent exactly when the later-inserted one is
    type 1.  In degree-sorted order the matrix is stepwise.
    """
    order = canonical_vertex_order(g)
    bits = g.bits
    n = g.n
    a = np.zeros((n, n), dtype=np.int64)
    for p in range(n):
        for q in range(p + 1, n):
            i, j = order[p], order[q]
            if bits[max(i, j)] == 1:
                a[p, q] = a[q, p] = 1
    return a


# ---------------------------------------------------------------------------
# F_p: closed formulas, overlap matrices and their spectra, signature counts
# ---------------------------------------------------------------------------


def fp_via_min_products(g: ThresholdGraph, p: int) -> int:
    """F_p as the p-fold sum of pairwise-minimum products.

    For p >= 2 this enumerates all index tuples (i1, ..., ip) over the
    type-0 vertices and sums ``b[i1] * min(b[i1], b[i2]) * ... *
    min(b[i_{p-1}], b[ip]) * b[ip]``; each factor counts the common
    type-1 neighbours available for one run-to-run transition.  Runs in
    z^p time, so it is only suitable as a small-case oracle.
    """
    _check_nonnegative("p", p)
    b = to_bzp(g)
    if p == 0:
        return g.c
    if p == 1:
        return sum(bi * bi for bi in b)
    total = 0
    for idx in product(range(len(b)), repeat=p):
        term = b[idx[0]] * b[idx[-1]]
        for j in range(p - 1):
            term *= min(b[idx[j]], b[idx[j + 1]])
        total += term
    return total


def fp_via_max_indices(g: ThresholdGraph, p: int) -> int:
    """F_p with minima replaced by ``b[max(i, j)]``.

    Because b is nonincreasing, ``min(b[i], b[j]) = b[max(i, j)]``, so
    this must agree with :func:`fp_via_min_products` term by term.
    """
    _check_nonnegative("p", p)
    b = to_bzp(g)
    if p == 0:
        return g.c
    if p == 1:
        return sum(bi * bi for bi in b)
    total = 0
    for idx in product(range(len(b)), repeat=p):
        term = b[idx[0]] * b[idx[-1]]
        for j in range(p - 1):
            term *= b[max(idx[j], idx[j + 1])]
        total += term
    return total


def zero_overlap_matrix(g: ThresholdGraph) -> list[list[int]]:
    """Common-neighbour counts between type-0 vertices: ``b[max(i, j)]``.

    Entry (i, j) counts the type-1 vertices adjacent to both the i-th
    and the j-th type-0 vertex; the diagonal is b itself.  Symmetric and
    positive semidefinite.
    """
    b = to_bzp(g)
    z = len(b)
    return [[b[max(i, j)] for j in range(z)] for i in range(z)]


def one_overlap_matrix(g: ThresholdGraph) -> list[list[int]]:
    """Common type-0 neighbour counts between type-1 vertices: ``f[min(i, j)]``.

    Entry (i, j) counts the type-0 vertices inserted before both the
    i-th and the j-th type-1 vertex.  Symmetric and positive
    semidefinite.
    """
    f = to_fop(g)
    c = len(f)
    return [[f[min(i, j)] for j in range(c)] for i in range(c)]


def fp_via_zero_overlap(g: ThresholdGraph, p: int) -> int:
    """F_p = b^T * Z^(p-1) * b for the zero-overlap matrix Z, p >= 1."""
    if p < 1:
        raise ValueError(f"the zero-overlap identity needs p >= 1, got {p}")
    if g.z == 0:
        raise ValueError("the zero-overlap identity needs z >= 1")
    b = to_bzp(g)
    matrix = zero_overlap_matrix(g)
    vector = list(b)
    for _ in range(p - 1):
        vector = _int_matvec(matrix, vector)
    return sum(bi * vi for bi, vi in zip(b, vector))


def fp_via_one_overlap(g: ThresholdGraph, p: int) -> int:
    """F_p = 1^T * Phi^p * 1 for the one-overlap matrix Phi, p >= 0."""
    _check_nonnegative("p", p)
    matrix = one_overlap_matrix(g)
    vector = [1] * g.c
    for _ in range(p):
        vector = _int_matvec(matrix, vector)
    return sum(vector)


def fp_spectral_bzp(g: ThresholdGraph, p: int) -> float:
    """F_p as sum_i (b . x_i)^2 * lambda_i^(p-1) over the zero-overlap spectrum."""
    if p < 1:
        raise ValueError(f"the zero-overlap identity needs p >= 1, got {p}")
    if g.z == 0:
        return 0.0
    values, vectors = np.linalg.eigh(np.array(zero_overlap_matrix(g), dtype=float))
    weights = vectors.T @ np.array(to_bzp(g), dtype=float)
    return float(np.sum(weights**2 * values ** (p - 1)))


def fp_spectral_fop(g: ThresholdGraph, p: int) -> float:
    """F_p as sum_i (1 . x_i)^2 * lambda_i^p over the one-overlap spectrum."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    values, vectors = np.linalg.eigh(np.array(one_overlap_matrix(g), dtype=float))
    weights = vectors.T @ np.ones(g.c)
    return float(np.sum(weights**2 * values**p))


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
    closed = _closed_neighbourhoods(g)
    counts = [1 if bit == sig[0] else 0 for bit in bits]
    for symbol in sig[1:]:
        counts = [
            sum(counts[u] for u in row) if bit == symbol else 0 for bit, row in zip(bits, closed)
        ]
    return sum(counts)


# ---------------------------------------------------------------------------
# LW growth
# ---------------------------------------------------------------------------


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
# the bound polynomials and the degree inequality
# ---------------------------------------------------------------------------


def lower_cubic_polynomial(g: ThresholdGraph) -> tuple[int, ...]:
    """Characteristic cubic of the lower walk bracket; its root minus one is ``lower_cubic``."""
    inputs = _bound_inputs(g)
    return bracket_cubics(inputs.c, inputs.sb, inputs.f1)[0]


def upper_cubic_polynomial(g: ThresholdGraph) -> tuple[int, ...]:
    """Characteristic cubic of the upper walk bracket; its root minus one is ``upper_cubic``."""
    inputs = _bound_inputs(g)
    return bracket_cubics(inputs.c, inputs.sb, inputs.f1)[1]


def inequality_polynomial(g: ThresholdGraph) -> tuple[int, ...]:
    """The degree quartic h, with h(rho) >= 0; see ``bounds._inequality_coefficients``."""
    return _inequality_coefficients(_bound_inputs(g))


def inequality_check(g: ThresholdGraph, rho: float) -> tuple[bool, float]:
    """Evaluate the degree inequality at rho: (holds, slack).

    The left side collects the walk mass balanced through the dominating
    block by the principal eigenvector; replacing each tail-degree
    partial sum there by its proportional share can only shrink the
    right side, so slack = left - right is >= 0 (within rounding) at the
    true spectral radius, with equality exactly when every b_i is 1 or
    c - 1.  Values below the largest root of the quartic fail the check.
    """
    inputs = _bound_inputs(g)
    c, z = inputs.c, inputs.z
    tail = ((1, c - 1),) + _zero_classes(g)[0]
    s = c - 1 + inputs.sb
    left = rho * ((rho - c + 2.0) * (rho * rho + rho - (z + 1.0)) - s) * (c - 2.0)
    right = sum(
        count * (d * (rho * rho - (z + 1.0)) - rho * (rho - c + 2.0) + s) * (d - 1.0)
        for count, d in tail
    )
    slack = left - right
    scale = max(1.0, abs(left), abs(right))
    return slack >= -_INEQUALITY_REL * scale, slack


def _int_matvec(matrix: list[list[int]], vector: list[int]) -> list[int]:
    return [sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix]

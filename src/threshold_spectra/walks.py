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
  sandwiched between two order-3 linear recurrences: ``LW'`` keeps only
  single-zero-run contributions (a lower bound) and ``LW''`` overcounts
  via ``F_p <= F_1 * (sum b)^(p-1)`` (an upper bound).  Their
  characteristic cubics depend on c, sum b and F_1 alone and are
  written once, in :func:`bracket_cubics`; the lower and upper cubic
  bounds of :mod:`threshold_spectra.bounds` are built from the same two
  tuples.

:func:`lw_recurrence` is the one entry point: its :class:`WalkTable`
holds LW, both brackets and F_0..F_pmax.  The growth rate of ``LW_k``
recovers the spectral radius: the k-th root and the consecutive ratio
both converge to ``1 + rho``.

Cost: the twin classes are an equitable partition (Brouwer & Haemers,
*Spectra of Graphs* 2.3), so ``A + I`` and the zero-overlap matrix act
on one value per class, and past 3K terms for K classes LW follows the
characteristic polynomial q of the class quotient (Cayley-Hamilton;
Jacobs, Trevisan & Tura, *Eigenvalue location in threshold graphs*, LAA
439, 2013, for the twin-class elimination); :func:`lw_recurrence` gives
the costs.  q, like the bracket cubics, is a tuple of integer
coefficients in descending powers, the package's one polynomial format,
and :func:`threshold_spectra.spectral.greatest_real_root` certifies its
greatest root, ``1 + rho``, as it stands.  The paper's other routes to
F_p and LW (closed formulas, overlap matrices, signature counting) are
independent oracles in :mod:`threshold_spectra.identities`;
:func:`lw_bruteforce`, the powers of ``A + I``, is one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, sub

from .graph_model import (
    ThresholdGraph,
    _characteristic_polynomial,
    _require_connected,
    _zero_classes,
)

__all__ = ["WalkTable", "bracket_cubics", "lw_bruteforce", "lw_recurrence"]


@dataclass(frozen=True)
class WalkTable:
    """Walk counts of one graph, indexed by walk length step count k.

    ``lw[k]`` is exact; ``lw_prime[k] <= lw[k] <= lw_double_prime[k]``
    holds entrywise and all three agree up to k = 2 (and k = 3, where
    each equals ``c^3 + F_1``).  ``fp[p]`` holds ``F_p``.

    ``lw_prime`` keeps only single-zero-run closings: ``LW'_k = c^k``
    for k <= 2, then ``c LW'_{k-1} + F_1 sum_{r<=k-3} LW'_r``.
    ``lw_double_prime`` is the exact convolution with each F_{q+1}
    replaced by ``F_1 (sum b)^q``.  Differencing the one and summing the
    geometric closing series of the other give order-3 recurrences with
    the cubics of :func:`bracket_cubics`, which is how both are evaluated.
    """

    lw: tuple[int, ...]
    lw_prime: tuple[int, ...]
    lw_double_prime: tuple[int, ...]
    fp: tuple[int, ...]


# ---------------------------------------------------------------------------
# LW: the twin-class recurrence, and brute force via matrix powers
# ---------------------------------------------------------------------------


def lw_recurrence(g: ThresholdGraph, kmax: int, pmax: int = 10) -> WalkTable:
    """LW_0 .. LW_kmax as ``chi^T (A + I)^(k-1) chi`` on the twin classes, plus both brackets.

    chi is the type-1 indicator.  Twins carry equal values, so the vector
    is one integer y per run; the runs alternate ones, zeros, ..., ones.
    With ``w = size * y``, a type-1 run gets the weight of every one and
    of the zeros before it, a type-0 run its own y plus the weight of
    the ones after it, and ``LW_{k+1}`` is the weight of the ones.
    That class step costs about 3.5 K big-integer operations for K runs.

    The step applies the K x K class quotient M of ``A + I``, so for
    k >= 1 ``LW_k`` is a fixed linear form in ``M^(k-1) e`` (e the type-1
    indicator), and by Cayley-Hamilton each of LW_(K+1) .. LW_kmax
    follows from the K terms before it by the characteristic polynomial
    q of M: K products of a machine-sized coefficient with a term, about
    a third of a class step.  So the class step runs only to LW_K, and
    the recurrence takes over, when kmax >= 3K and every coefficient of
    q is below 2^63 (:func:`_characteristic_polynomial`); otherwise, as
    for K above about 80, the class step runs on to kmax.  ``fp`` holds
    F_0 .. F_pmax, at O(K) per value.  ``LW_k`` has about ``k * log2(1 +
    rho)`` bits (973 at k = 200 on the 45-vertex alternating graph), so
    each operation grows with k as well.
    """
    _check_nonnegative("kmax", kmax)
    _check_nonnegative("pmax", pmax)
    _require_connected(g, "lw_recurrence")
    order = len(g.runs)
    q = _characteristic_polynomial(g.runs) if kmax >= 3 * order else None
    ones, zeros = g.runs[0::2], g.runs[1::2]
    y1, y0 = [1] * len(ones), [0] * len(zeros)
    lw = [1]
    for _ in range(kmax if q is None else order):
        # reach[i]: the weight of the type-1 runs up to the i-th one
        reach = list(accumulate(map(mul, ones, y1)))
        total = reach[-1]
        lw.append(total)
        y1 = list(map(total.__add__, accumulate(map(mul, zeros, y0), initial=0)))
        y0 = list(map(sub, map(total.__add__, y0), reach))
    if q is not None:
        tail = [-a for a in reversed(q[1:])]
        for start in range(1, kmax - order + 1):
            lw.append(sum(map(mul, tail, lw[start : start + order])))
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


def lw_bruteforce(g: ThresholdGraph, kmax: int) -> list[int]:
    """LW_0 .. LW_kmax by exact integer powers of (A + I).

    ``LW_k`` sums the (k-1)-step lazy-walk counts over all ordered pairs
    of type-1 endpoints, i.e. ``chi^T (A + I)^(k-1) chi`` with chi the
    type-1 indicator.  Independent of the recurrence path on purpose:
    it steps over every vertex, in insertion order.
    """
    _check_nonnegative("kmax", kmax)
    _require_connected(g, "lw_bruteforce")
    chi = g.bits
    closed = _closed_neighbourhoods(g)
    values, vector = [1], list(chi)
    for _ in range(kmax):
        values.append(sum(map(mul, chi, vector)))
        vector = [sum(vector[u] for u in row) for row in closed]
    return values


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _order_three(cubic: tuple[int, ...], c: int, kmax: int) -> list[int]:
    """Terms 0 .. kmax of the recurrence with characteristic polynomial ``cubic``.

    The first three terms are c^0, c^1, c^2; a monic cubic ``(1, a1, a2,
    a3)`` then gives ``v_k = -a1 v_{k-1} - a2 v_{k-2} - a3 v_{k-3}``.
    """
    # three named products, not the q recurrence's sum(map(mul, tail, window)): over the
    # seed-1 walks benchmark pool that stepper took 9.5-9.9 ms for both brackets against
    # 3.9 ms, and lw_recurrence 40-41 ms against 34-35 ms (best of 7, 2-vCPU x86-64 host)
    _, a1, a2, a3 = cubic
    values = [c**k for k in range(min(kmax, 2) + 1)]
    for k in range(3, kmax + 1):
        values.append(-a1 * values[k - 1] - a2 * values[k - 2] - a3 * values[k - 3])
    return values


def _fp_classes(c: int, classes, pmax: int) -> list[int]:
    """F_0 .. F_pmax from the ``(b, size)`` blocks of equal b, b decreasing.

    On blocks, ``(Z u)_J = b_J * sum_{L<=J} s_L u_L + sum_{L>J} s_L b_L
    u_L`` (min(b_i, b_j) = b[max(i, j)], also inside a block), and
    ``F_p = sum_J s_J b_J u_J`` with u starting at b.
    """
    b = [value for value, _ in classes]
    sizes = [size for _, size in classes]
    u = b
    values = [c]
    for _ in range(pmax):
        su = list(map(mul, sizes, u))
        reach = list(accumulate(map(mul, b, su), initial=0))
        total = reach[-1]
        values.append(total)
        u = list(map(add, map(mul, b, accumulate(su)), map(total.__sub__, reach[1:])))
    return values


def _closed_neighbourhoods(g: ThresholdGraph) -> list[list[int]]:
    """Each vertex with its neighbours, in insertion order: u ~ v iff the later is type 1."""
    bits, n = g.bits, g.n
    return [[u for u in range(n) if u == v or bits[max(u, v)]] for v in range(n)]


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")

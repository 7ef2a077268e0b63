"""Closed-form lower and upper bounds on the spectral radius.

:func:`bound_report` is the public way to get the bound values of one
graph; the :class:`BoundReport` fields are all driven by c (number of
type-1 vertices), the b counts of the type-0 vertices, and
F_1 = sum(b_i^2):

* ``lower_cubic``: largest real root of
  ``x^3 - (c+1) x^2 + c x - F_1``, minus one.  This is the growth rate
  of the lower-bracket walk sequence; the root always exceeds c.
* ``lower_corollary``: the explicit relaxation ``c - 1 + F_1 / n^2``.
* ``lower_quadratic``: ``(c - 2 + sqrt(c^2 + 4 F_1 / (c-1))) / 2``.
* ``upper_cubic``: largest real root of
  ``x^3 - (c+1) x^2 + (c - sum b) x + (c sum b - F_1)``, minus one,
  the growth rate of the upper-bracket walk sequence.
* ``inequality_root``: the largest real root of a degree-based quartic
  h that is nonnegative at rho, so the root sits at or below rho.  It
  coincides with rho exactly when every b_i is 1 or c - 1, and is a
  sharp lower estimate otherwise.

The two cubics are the characteristic polynomials of the walk brackets,
built by :func:`threshold_spectra.walks.bracket_cubics`.  All three
polynomials are tuples of integer coefficients, in descending powers,
and a bracket a few ulps wide is proven around each root.  The paper's
polynomials of one graph, and the degree inequality evaluated at a
given rho, are test oracles in :mod:`threshold_spectra.identities`.

A census runs as one batch.  At fixed (n, m) and c, both z = n - c and
sum b = m - C(c, 2) are fixed, so every bound depends on (c, F_1)
alone.  The class core, :func:`_bound_classes`, takes rho for the whole
list from one :func:`~threshold_spectra.spectral.spectral_radii` call
and gives each graph the index of its class, keyed by (n, m, c, F_1)
with F_1 read from the runs (``graph_model._f1``), so the bound inputs
and the standing assumptions are built once per key.  It then
certifies the three polynomials of every class with one call of the
root kernel's column core (``spectral._root_columns``, the core of
:func:`~threshold_spectra.spectral.greatest_real_roots`), reads the
value column and evaluates the bounds once per class.  The core has no option: a graph
outside the standing assumptions gets no class.  :func:`bound_report`
checks those assumptions and then runs the core on a list of one
graph; ``enumerate`` reads the core directly and writes each class's
bounds once.  :func:`_sandwich` is the
one definition of ``sandwich_ok`` and the gaps, from rho and a class's
values, and :data:`_GAP_NAMES` the one list of the five bound names.

The bounds assume a connected graph with n >= 4, c >= 3 and z >= 1;
outside that range :func:`bound_report` raises :class:`PreconditionError`
naming the first assumption broken, before rho is taken.  The size range
n - 1 < m < C(n, 2) follows: m = C(c, 2) + sum b with each b in
[1, c - 1], so n <= m <= C(c, 2) + z (c - 1) < C(n, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import NamedTuple

from .graph_model import ThresholdGraph, _f1
from .spectral import _root_columns, spectral_radii
from .walks import bracket_cubics

__all__ = [
    "BoundReport",
    "PreconditionError",
    "SANDWICH_TOL",
    "bound_report",
]

SANDWICH_TOL = 1e-9  # times max(1, rho): near rho = 10^6 one ulp of rho is 1.2e-10


class PreconditionError(ValueError):
    """The graph is outside the range where a bound is stated."""


@dataclass(frozen=True)
class BoundReport:
    """rho and all bounds for one graph; ``applicable`` is always True."""

    rho: float
    lower_cubic: float
    lower_corollary: float
    lower_quadratic: float
    upper_cubic: float
    inequality_root: float
    sandwich_ok: bool
    gaps: dict[str, float]
    applicable: bool


# the five bounds in field order; a report keys each gap by its bound
_GAP_NAMES = ("lower_cubic", "lower_corollary", "lower_quadratic", "upper_cubic", "inequality_root")


class _Inputs(NamedTuple):
    """What every bound reads: c, z, n, sum b and F_1."""

    c: int
    z: int
    n: int
    sb: int
    f1: int


def _bound_inputs(g: ThresholdGraph) -> _Inputs:
    """The bound inputs, after checking the standing assumptions."""
    _require_applicable(g)
    return _Inputs(c=g.c, z=g.z, n=g.n, sb=g.m - comb(g.c, 2), f1=_f1(g.runs))


def _require_applicable(g: ThresholdGraph) -> None:
    if not g.is_connected:
        raise PreconditionError("bounds require a connected graph")
    if g.n < 4:
        raise PreconditionError(f"bounds require n >= 4, got n = {g.n}")
    if g.c < 3:
        raise PreconditionError(f"bounds require c >= 3, got c = {g.c}")
    if g.z < 1:
        raise PreconditionError(f"bounds require z >= 1, got z = {g.z}")


# ---------------------------------------------------------------------------
# the bounds from precomputed inputs
# ---------------------------------------------------------------------------


def _inequality_coefficients(inputs: _Inputs) -> tuple[int, ...]:
    """The coefficients of the degree quartic h, with h(rho) >= 0.

    With S the degree sum over the positions c..n (S = c - 1 + sum b),
    T1 = sum (d_i - 1)^2, T2 = sum (d_i - 1), and
    T3 = sum (d_i - 1)(S - d_i (z+1)) over those same positions:

    h(x) = (c-2) x^4 + (c-2)(3-c) x^3 - ((c-2)(z+c-1) + T1) x^2
           + (c-2)((c-2)(z+1) - S - T2) x - T3

    The tail of degrees is c - 1 and then b, so T1, T2 and T3 close up
    in c, z, sum b and F_1.  h(rho) = 0 exactly when every b_i is 1 or
    c - 1; otherwise the largest real root of h sits strictly below rho.
    """
    c, z, sb, f1 = inputs.c, inputs.z, inputs.sb, inputs.f1
    s = c - 1 + sb
    t1 = (c - 2) ** 2 + f1 - 2 * sb + z
    t2 = c - 2 + sb - z
    t3 = s * t2 - (z + 1) * ((c - 1) * (c - 2) + f1 - sb)
    return (
        c - 2,
        (c - 2) * (3 - c),
        -((c - 2) * (z + c - 1) + t1),
        (c - 2) * ((c - 2) * (z + 1) - s - t2),
        -t3,
    )


class _BoundClasses(NamedTuple):
    """A batch by (c, F_1) class: what every report and census row is read from."""

    radii: list[float]  # rho per graph
    members: list[int | None]  # per graph, its index into values; None without bounds
    values: list[tuple[float, ...]]  # per class, the five bounds in field order


def _bound_classes(graphs) -> _BoundClasses:
    """rho per graph from one ``spectral_radii`` call, and the bounds once per class.

    A graph's class key is (n, m, c, F_1): it fixes z = n - c,
    sum b = m - C(c, 2) and so the :class:`_Inputs` and every standing
    assumption (``spectral_radii`` has refused disconnected graphs).
    :func:`_bound_inputs` runs once per key, when it is first seen; a
    key outside the standing assumptions gives its graphs no class.
    Classes are numbered in order of first appearance.  Then one
    ``_root_columns`` call certifies the three polynomials of every
    class, in class order; each root is the one ``greatest_real_root``
    gives alone, so a shared value is exactly the one a graph would get
    alone.
    """
    graphs = list(graphs)
    radii = spectral_radii(graphs)
    keys: dict[tuple[int, int, int, int], int | None] = {}
    members, inputs = [], []
    for g in graphs:
        key = (g.n, g.m, g.c, _f1(g.runs))
        k = keys.get(key, -1)
        if k == -1:  # the first graph with this key
            try:
                inputs.append(_bound_inputs(g))
            except PreconditionError:
                k = keys[key] = None
            else:
                k = keys[key] = len(inputs) - 1
        members.append(k)
    roots = _root_columns([p for i in inputs for p in _polynomials(i)])[0]
    values = [_bounds(i, *roots[3 * k : 3 * k + 3]) for k, i in enumerate(inputs)]
    return _BoundClasses(radii, members, values)


def _polynomials(inputs: _Inputs) -> tuple[tuple[int, ...], ...]:
    """The lower cubic, the upper cubic and the degree quartic, whose roots give three bounds."""
    return (*bracket_cubics(inputs.c, inputs.sb, inputs.f1), _inequality_coefficients(inputs))


def _bounds(inputs: _Inputs, lower: float, upper: float, inequality: float) -> tuple[float, ...]:
    """The five bound values in field order, from the greatest roots of the three polynomials."""
    c, f1 = inputs.c, inputs.f1
    return (
        lower - 1.0,
        c - 1.0 + f1 / float(inputs.n * inputs.n),
        (c - 2.0 + sqrt(c * c + 4.0 * f1 / (c - 1.0))) / 2.0,
        upper - 1.0,
        inequality,
    )


def _sandwich(rho: float, values: tuple[float, ...]) -> tuple[bool, tuple[float, ...]]:
    """``sandwich_ok`` and the five gaps (in field order) of rho against its class's bounds."""
    lo_cubic, lo_corollary, lo_quadratic, up_cubic, ineq_root = values
    lowers = (lo_cubic, lo_corollary, lo_quadratic, ineq_root)
    tol = SANDWICH_TOL * max(1.0, rho)
    sandwich_ok = max(lowers) <= rho + tol and rho <= up_cubic + tol
    gaps = (rho - lo_cubic, rho - lo_corollary, rho - lo_quadratic, up_cubic - rho, rho - ineq_root)
    return sandwich_ok, gaps


def bound_report(g: ThresholdGraph) -> BoundReport:
    """Compute rho, the four bounds, and the inequality root, with gaps.

    The standing assumptions are checked first: a graph outside them
    (disconnected, n < 4, c < 3 or z < 1) raises
    :class:`PreconditionError` naming the first one broken, before rho
    is taken.

    ``sandwich_ok`` asserts that every lower-side value (the three lower
    bounds and the inequality root) is at most rho and that rho is at
    most ``upper_cubic``, all within the relative tolerance
    ``SANDWICH_TOL * max(1, rho)``: rho is proven within an ulp where its
    characteristic polynomial stays below 2^63, and a few ulps off from
    ``eigh`` beyond that.
    """
    _require_applicable(g)
    (rho,), (k,), values = _bound_classes([g])
    sandwich_ok, gaps = _sandwich(rho, values[k])
    return BoundReport(rho, *values[k], sandwich_ok, dict(zip(_GAP_NAMES, gaps)), applicable=True)

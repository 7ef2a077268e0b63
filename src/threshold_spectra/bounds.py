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
and ``greatest_real_root`` proves a bracket a few ulps wide around each
root.  The paper's polynomials of one graph, and the degree inequality
evaluated at a given rho, are test oracles in
:mod:`threshold_spectra.identities`.

A census runs as one batch.  At fixed (n, m) and c, both z = n - c and
sum b = m - C(c, 2) are fixed, so every bound depends on (c, F_1)
alone.  The class core, :func:`_bound_classes`, takes rho for the whole
list from one :func:`~threshold_spectra.spectral.spectral_radii` call,
gives each graph the index of its class, and evaluates the bounds, with
their three root certificates, once per class.  :func:`bound_report`
is the core run on a list of one graph; ``enumerate`` reads the core
directly and writes each class's bounds once.  :func:`_sandwich` is the
one definition of ``sandwich_ok`` and the gaps, from rho and a class's
values, and :data:`_GAP_NAMES` the one list of the five bound names.

The bounds assume n >= 4, c >= 3, z >= 1, and n - 1 < m < C(n, 2);
outside that range they raise :class:`PreconditionError`, or are marked
not applicable when a report is built leniently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import NamedTuple

from .graph_model import ThresholdGraph, _zero_classes
from .spectral import greatest_real_root, spectral_radii
from .walks import bracket_cubics

__all__ = [
    "BoundReport",
    "PreconditionError",
    "SANDWICH_TOL",
    "bound_report",
]

SANDWICH_TOL = 1e-9


class PreconditionError(ValueError):
    """The graph is outside the range where a bound is stated."""


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one graph, or rho alone when they do not apply."""

    rho: float
    lower_cubic: float | None
    lower_corollary: float | None
    lower_quadratic: float | None
    upper_cubic: float | None
    inequality_root: float | None
    sandwich_ok: bool | None
    gaps: dict[str, float] | None
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
    _, sb, f1 = _zero_classes(g)
    return _Inputs(c=g.c, z=g.z, n=g.n, sb=sb, f1=f1)


def _require_applicable(g: ThresholdGraph) -> None:
    if not g.is_connected:
        raise PreconditionError("bounds require a connected graph")
    if g.n < 4:
        raise PreconditionError(f"bounds require n >= 4, got n = {g.n}")
    if g.c < 3:
        raise PreconditionError(f"bounds require c >= 3, got c = {g.c}")
    if g.z < 1:
        raise PreconditionError(f"bounds require z >= 1, got z = {g.z}")
    if not g.m > g.n - 1:
        raise PreconditionError(f"bounds require m > n - 1, got m = {g.m}, n = {g.n}")
    if not g.m < comb(g.n, 2):
        raise PreconditionError(f"bounds require m < C(n,2), got m = {g.m}, n = {g.n}")


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


def _bound_classes(graphs, allow_inapplicable: bool) -> _BoundClasses:
    """rho per graph from one ``spectral_radii`` call, and the bounds once per class.

    A class is one distinct :class:`_Inputs`, numbered in order of first
    appearance, and ``_bounds`` runs when it first appears, as it would
    for that graph alone: ``greatest_real_root`` is deterministic, so a
    shared value is exactly the one a graph would get alone.  A graph
    outside the standing assumptions raises :class:`PreconditionError`,
    or with ``allow_inapplicable`` has no class.
    """
    graphs = list(graphs)
    radii = spectral_radii(graphs)
    classes: dict[_Inputs, int] = {}
    members, values = [], []
    for g in graphs:
        try:
            inputs = _bound_inputs(g)
        except PreconditionError:
            if not allow_inapplicable:
                raise
            members.append(None)
            continue
        k = classes.get(inputs)
        if k is None:
            k = classes[inputs] = len(values)
            values.append(_bounds(inputs))
        members.append(k)
    return _BoundClasses(radii, members, values)


def _bounds(inputs: _Inputs) -> tuple[float, ...]:
    """The five bound values in field order."""
    c, f1 = inputs.c, inputs.f1
    lower, upper = bracket_cubics(c, inputs.sb, f1)
    return (
        greatest_real_root(lower).value - 1.0,
        c - 1.0 + f1 / float(inputs.n * inputs.n),
        (c - 2.0 + sqrt(c * c + 4.0 * f1 / (c - 1.0))) / 2.0,
        greatest_real_root(upper).value - 1.0,
        greatest_real_root(_inequality_coefficients(inputs)).value,
    )


def _sandwich(rho: float, values: tuple[float, ...]) -> tuple[bool, tuple[float, ...]]:
    """``sandwich_ok`` and the five gaps (in field order) of rho against its class's bounds."""
    lo_cubic, lo_corollary, lo_quadratic, up_cubic, ineq_root = values
    lowers = (lo_cubic, lo_corollary, lo_quadratic, ineq_root)
    sandwich_ok = max(lowers) <= rho + SANDWICH_TOL and rho <= up_cubic + SANDWICH_TOL
    gaps = (rho - lo_cubic, rho - lo_corollary, rho - lo_quadratic, up_cubic - rho, rho - ineq_root)
    return sandwich_ok, gaps


def bound_report(g: ThresholdGraph, allow_inapplicable: bool = False) -> BoundReport:
    """Compute rho, the four bounds, and the inequality root, with gaps.

    ``sandwich_ok`` asserts that every lower-side value (the three lower
    bounds and the inequality root) is at most rho and that rho is at
    most ``upper_cubic``, all within :data:`SANDWICH_TOL`.

    With ``allow_inapplicable`` the report degrades gracefully for
    graphs outside the standing assumptions (stars, complete graphs,
    c < 3): rho is still reported and every bound is None.  Otherwise
    such graphs raise :class:`PreconditionError`.
    """
    (rho,), (k,), values = _bound_classes([g], allow_inapplicable)
    if k is None:
        # rho alone: the five bounds, sandwich_ok and gaps are None
        return BoundReport(rho, *(None,) * 7, applicable=False)
    sandwich_ok, gaps = _sandwich(rho, values[k])
    return BoundReport(rho, *values[k], sandwich_ok, dict(zip(_GAP_NAMES, gaps)), applicable=True)

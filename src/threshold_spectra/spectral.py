"""Numerical kernels: graph spectra and certified real roots.

A graph is held as its twin classes (the runs of the generating
sequence), which are an equitable partition.  Two classes are joined
when the later one is type 1, and type-1 classes are cliques.  The
spectral radius is the top eigenvalue of the k x k symmetrized quotient
S, with S_ij = sqrt(|i| |j|) for joined classes and S_ii = |i| - 1 or 0,
from ``numpy.linalg.eigh`` (Brouwer & Haemers, *Spectra of Graphs* 2.3).
It reads the twin classes of :mod:`threshold_spectra.graph_model`, so
cost depends on k, not n; the dense adjacency is only a test oracle
(:func:`threshold_spectra.identities.adjacency_matrix`).
There is no tolerance to choose: ``eigh`` is direct, and the residual
of the top eigenpair is checked against a fixed bound only to detect a
fault.  The quotient is dense, so a graph with more than
:data:`MAX_QUOTIENT_CLASSES` classes is refused with ``ValueError``
before it is built.

A census runs as one batch: :func:`spectral_radii` stacks the quotients
of all graphs with the same k and calls ``eigh`` once per stack, and
:func:`spectral_radius` is that kernel run on a list of one graph, so
both give bitwise the same values.

A bound polynomial is a plain tuple of integer coefficients in
descending powers, so the greatest real root from float Newton is
proven in exact integer arithmetic: p is negative just below it and
p(t + high) has only positive Taylor coefficients just above it.  The
spectral F_p routes over the overlap matrices live with the other
identities, in :mod:`threshold_spectra.identities`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graph_model import ThresholdGraph, _require_connected, to_composition

__all__ = [
    "ConvergenceError",
    "RootResult",
    "greatest_real_root",
    "spectral_radii",
    "spectral_radius",
]

# The quotient is a dense k x k matrix.  A connected graph has an odd number of
# classes, so 2047 is the most that pass: eigh takes 1.9 s there and the process
# peaks at 198 MB resident (2-vCPU x86-64 host, one BLAS thread).
MAX_QUOTIENT_CLASSES = 2048
_QUOTIENT_RESIDUAL_REL = 1e-10  # relative to max(1, theta); eigh reaches ~1e-15
_STACK = 4096  # quotients per stacked eigh call: at most 4096 * k^2 floats
_MAX_NEWTON_STEPS = 100
_CERTIFICATE_DOUBLINGS = 16  # the widest bracket tried is 2^16 ulps each side


class ConvergenceError(RuntimeError):
    """A residual or bracket check failed; carries the estimate and its residual."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(f"{message} (estimate {estimate!r}, residual {residual!r})")
        self.estimate = estimate
        self.residual = residual


@dataclass(frozen=True)
class RootResult:
    """A root inside its certified bracket, and the Newton steps taken."""

    value: float
    bracket_low: float
    bracket_high: float
    steps: int


# ---------------------------------------------------------------------------
# twin-class quotient
# ---------------------------------------------------------------------------


def spectral_radii(graphs) -> list[float]:
    """Largest adjacency eigenvalue of each connected threshold graph.

    In insertion order the classes are the runs, ones first and then
    alternating, so S needs only the run lengths.  The graphs are grouped
    by block count k; each group's quotients are stacked into one
    (G, k, k) array (at most :data:`_STACK` of them, which bounds memory
    on huge censuses) and ``eigh`` runs once per stack.  Each S holds the
    floats it holds when built alone, so theta is bitwise the
    single-graph value.  The residual of the top eigenpair is checked per
    graph, and the first failing graph in input order is named.  A graph
    with more than :data:`MAX_QUOTIENT_CLASSES` classes raises
    ``ValueError`` before any array is built.
    """
    graphs = list(graphs)
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        _require_connected(g, "spectral_radius")
        k = len(g.runs)
        if k > MAX_QUOTIENT_CLASSES:
            raise ValueError(
                f"spectral_radius: {k} twin classes exceed the dense-quotient limit "
                f"of {MAX_QUOTIENT_CLASSES}"
            )
        groups.setdefault(k, []).append(i)
    thetas, residuals = np.empty(len(graphs)), np.empty(len(graphs))
    for k, group in groups.items():
        index = np.arange(k)
        ones = index % 2 == 0
        joined = ones[np.maximum.outer(index, index)]
        for start in range(0, len(group), _STACK):
            members = group[start : start + _STACK]
            sizes = np.array([graphs[i].runs for i in members])
            # S is built in insertion order: eigh's last bits depend on the row order
            s = np.sqrt(sizes[:, :, None] * sizes[:, None, :]) * joined
            s[:, index, index] = np.where(ones, sizes - 1, 0)
            values, eigenvectors = np.linalg.eigh(s)
            theta, x = values[:, -1], np.abs(eigenvectors[:, :, -1])
            thetas[members] = theta
            error = (s @ x[:, :, None])[:, :, 0] - theta[:, None] * x
            residuals[members] = np.max(np.abs(error), axis=1)
    bounds = _QUOTIENT_RESIDUAL_REL * np.maximum(1.0, thetas)
    failing = np.flatnonzero(~(residuals <= bounds))
    if failing.size:
        i = failing[0]
        spec = to_composition(graphs[i])
        message = f"spectral_radius: quotient residual above {float(bounds[i])!r} for comp:{spec}"
        raise ConvergenceError(message, float(thetas[i]), float(residuals[i]))
    return thetas.tolist()


def spectral_radius(g: ThresholdGraph) -> float:
    """Largest adjacency eigenvalue of a connected threshold graph."""
    return spectral_radii([g])[0]


# ---------------------------------------------------------------------------
# greatest real root: Newton from above, then an exact certificate
# ---------------------------------------------------------------------------


def greatest_real_root(coefficients: tuple[int, ...]) -> RootResult:
    """Greatest real root, inside a bracket proven in integer arithmetic.

    The coefficients are integers in descending powers, the leading one
    positive, at most five of them (degree at most 4), and each within
    float range: the search evaluates in floats before it certifies in
    integers.  Any other tuple raises ``ValueError``.

    Float Newton starts at the Fujiwara bound
    ``2 max(|a_1/a_0|, ..., |a_{d-1}/a_0|^(1/(d-1)), |a_d/(2 a_0)|^(1/d))``,
    above every root, and steps down while p and p' stay positive; for
    a polynomial convex above its greatest root (both bound cubics, for
    which p'' vanishes at (c+1)/3 < c) that converges to the root from
    above.  The bracket is then certified exactly, starting one ulp
    either side of the Newton value x and doubling the width at most
    :data:`_CERTIFICATE_DOUBLINGS` times: p(low) < 0, and every Taylor
    coefficient of p(t + high) is positive, so by Descartes' rule of
    signs no root is >= high.  Without such a bracket (no real root, a
    root of even multiplicity, Newton stopped elsewhere, or the bound, an
    iterate or the bracket beyond float range) it raises
    :class:`ConvergenceError` naming the coefficients.
    """
    if not coefficients:
        raise ValueError("polynomial needs at least one coefficient")
    if len(coefficients) > 5:
        raise ValueError("only degrees up to 4 are supported")
    if not all(isinstance(a, int) for a in coefficients):
        raise ValueError(f"coefficients must be integers, got {coefficients}")
    for i, a in enumerate(coefficients):
        if abs(a) > sys.float_info.max:
            raise ValueError(
                f"coefficient {i} (of x^{len(coefficients) - 1 - i}) is beyond "
                f"float range: |a| > {sys.float_info.max!r}"
            )
    if coefficients[0] <= 0:
        raise ValueError(f"leading coefficient must be positive, got {coefficients[0]}")
    x = _fujiwara_bound(coefficients)
    steps = 0
    value, slope = _value_and_slope(coefficients, x)
    while value > 0.0 and slope > 0.0 and steps < _MAX_NEWTON_STEPS:
        below = x - value / slope
        if not below < x:
            break
        x = below
        steps += 1
        value, slope = _value_and_slope(coefficients, x)
    width = math.ulp(x)
    for _ in range(_CERTIFICATE_DOUBLINGS + 1):
        low, high = x - width, x + width
        if not (math.isfinite(low) and math.isfinite(high)):
            message = f"greatest_real_root: beyond float range for coefficients {coefficients}"
            raise ConvergenceError(message, x, value)
        if _certified(coefficients, low, high):
            return RootResult(value=x, bracket_low=low, bracket_high=high, steps=steps)
        width *= 2.0
    message = (
        f"greatest_real_root: no certified bracket within 2^{_CERTIFICATE_DOUBLINGS} "
        f"ulps of the Newton value for coefficients {coefficients}"
    )
    raise ConvergenceError(message, x, value)


def _fujiwara_bound(coefficients: tuple[int, ...]) -> float:
    """Fujiwara's bound on the moduli of all roots."""
    lead, degree = coefficients[0], len(coefficients) - 1
    terms = [abs(a / lead) ** (1.0 / k) for k, a in enumerate(coefficients[1:], 1)]
    if terms:
        terms[-1] = abs(coefficients[-1] / (2 * lead)) ** (1.0 / degree)
    return 2.0 * max(terms, default=0.0)


def _value_and_slope(coefficients: tuple[int, ...], x: float) -> tuple[float, float]:
    """p(x) and p'(x) by one Horner pass."""
    value = slope = 0.0
    for a in coefficients:
        slope = slope * x + value
        value = value * x + a
    return value, slope


def _scaled(coefficients: tuple[int, ...], x: float) -> tuple[int, list[int]]:
    """N and the coefficients of the integer polynomial D^d p(y / D), x = N / D."""
    numerator, denominator = x.as_integer_ratio()
    scaled, power = [], 1
    for a in coefficients:
        scaled.append(a * power)
        power *= denominator
    return numerator, scaled


def _certified(coefficients: tuple[int, ...], low: float, high: float) -> bool:
    """p(low) < 0 and every Taylor coefficient of p(t + high) is > 0, exactly.

    With x = N / D, the integer polynomial D^d p(y / D) has the sign of
    p(x) at y = N, and shifting it by N (repeated synthetic division)
    gives coefficients with the signs of those of p(t + x): y = D t + N.
    """
    numerator, scaled = _scaled(coefficients, low)
    value = 0
    for a in scaled:
        value = value * numerator + a
    if value >= 0:
        return False
    numerator, shifted = _scaled(coefficients, high)
    degree = len(shifted) - 1
    for i in range(degree):
        for j in range(1, degree + 1 - i):
            shifted[j] += numerator * shifted[j - 1]
    return all(a > 0 for a in shifted)

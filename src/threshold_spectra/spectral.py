"""Numerical kernels: graph spectra, overlap spectra, real roots.

The composition blocks (runs of the generating sequence) are twin
classes and so an equitable partition.  Two blocks are joined when the
later one is type 1, and type-1 blocks are cliques.  The spectral
radius is the top eigenvalue of the k x k symmetrized quotient S, with
S_ij = sqrt(|i| |j|) for joined blocks and S_ii = |i| - 1 or 0, from
``numpy.linalg.eigh``; its eigenvector x lifts to x_b / sqrt(|b|) on
each vertex of block b (Brouwer & Haemers, *Spectra of Graphs* 2.3).
Cost depends on k, not n; the dense adjacency is only a test oracle.
There is no tolerance to choose: ``eigh`` is direct, and the quotient
residual is checked against a fixed bound only to detect a fault.

The spectral F_p routes diagonalize the zero- and one-overlap matrices
with ``numpy.linalg.eigh``; the exact integer F_p values are their
oracle.  The bound polynomials have their greatest real root bracketed
by doubling and a grid scan, then bisected, with a sign-change
certificate and a residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_model import (
    BzpSequence,
    FopSequence,
    ThresholdGraph,
    _require_connected,
    to_composition,
)
from .walks import one_overlap_matrix, zero_overlap_matrix

__all__ = [
    "ConvergenceError",
    "Polynomial",
    "RootResult",
    "fp_spectral_bzp",
    "fp_spectral_fop",
    "greatest_real_root",
    "perron_vector",
    "spectral_radius",
]

_QUOTIENT_RESIDUAL_REL = 1e-10  # relative to max(1, theta); eigh reaches ~1e-15
_BISECTION_WIDTH = 1e-12
_RESIDUAL_REL = 1e-9


class ConvergenceError(RuntimeError):
    """A residual or bracket check failed; carries the estimate and its residual."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(f"{message} (estimate {estimate!r}, residual {residual!r})")
        self.estimate = estimate
        self.residual = residual


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients in descending powers, leading > 0."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coefficients) > 5:
            raise ValueError("only degrees up to 4 are supported")
        if self.coefficients[0] <= 0:
            raise ValueError(f"leading coefficient must be positive, got {self.coefficients[0]}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        value = 0.0
        for coefficient in self.coefficients:
            value = value * x + coefficient
        return value

    def magnitude_scale(self, x: float) -> float:
        """Sum of absolute term magnitudes at x; reference for residuals."""
        scale = 0.0
        power = 1.0
        for coefficient in reversed(self.coefficients):
            scale += abs(coefficient) * power
            power *= abs(x) if abs(x) > 1.0 else 1.0
        return max(scale, 1.0)


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its sign-change certificate."""

    value: float
    bracket_low: float
    bracket_high: float
    residual: float


# ---------------------------------------------------------------------------
# twin-class quotient
# ---------------------------------------------------------------------------


def _quotient_eigenpair(g: ThresholdGraph, routine: str):
    """Top eigenpair (theta, x >= 0) of S, plus block sizes and types."""
    _require_connected(g, routine)
    spec = to_composition(g)
    sizes = np.array(spec.blocks)
    index = np.arange(sizes.size)
    ones = (index[-1] - index) % 2 == 0
    s = np.sqrt(np.outer(sizes, sizes)) * ones[np.maximum.outer(index, index)]
    s[index, index] = np.where(ones, sizes - 1, 0)
    values, vectors = np.linalg.eigh(s)
    theta, x = float(values[-1]), np.abs(vectors[:, -1])
    residual = float(np.max(np.abs(s @ x - theta * x)))
    bound = _QUOTIENT_RESIDUAL_REL * max(1.0, theta)
    if not residual <= bound:
        message = f"{routine}: quotient residual above {bound!r} for comp:{spec.format()}"
        raise ConvergenceError(message, theta, residual)
    return theta, x, sizes, ones


def spectral_radius(g: ThresholdGraph) -> float:
    """Largest adjacency eigenvalue of a connected threshold graph."""
    theta, *_ = _quotient_eigenpair(g, "spectral_radius")
    return theta


def perron_vector(g: ThresholdGraph) -> np.ndarray:
    """Unit-norm positive eigenvector for the spectral radius.

    Entries follow the canonical vertex order and are nonincreasing
    along it (higher degree never gets smaller weight).  Blocks are
    contiguous in that order: type-1 blocks last to first, then type-0
    blocks first to last, as type-1 degrees grow along the sequence from
    c - 1 and type-0 degrees shrink from at most c - 1.
    """
    _, x, sizes, ones = _quotient_eigenpair(g, "perron_vector")
    index = np.arange(sizes.size)
    order = np.concatenate((index[ones][::-1], index[~ones]))
    v = np.repeat(x[order] / np.sqrt(sizes[order]), sizes[order])
    return v / float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# largest real root by bracket expansion and bisection
# ---------------------------------------------------------------------------


def greatest_real_root(
    poly: Polynomial, bracket_hint: float = 0.0, bracket_high: float | None = None
) -> RootResult:
    """Largest real root at or above ``bracket_hint``.

    The leading coefficient is positive, so the polynomial is eventually
    positive.  The upper bracket end is ``bracket_high`` when the
    polynomial is positive there (the caller asserts the largest root
    lies below it); otherwise it is found by doubling steps from
    ``bracket_high`` or, without one, from the hint.

    The lower end is the hint itself only when no ``bracket_high`` is
    given, p(hint) < 0, and the Taylor-shifted coefficients of
    p(t + hint) change sign exactly once: by Descartes' rule of signs
    exactly one root then lies above the hint.  Otherwise the interval
    up to the upper end is grid-scanned for its rightmost negative
    sample, which avoids bisecting into an inner root when several
    roots lie above the hint.  The returned bracket certifies the sign
    change and the residual is checked against 1e-9 times the
    term-magnitude scale.
    """
    if bracket_high is not None and poly(bracket_high) > 0.0:
        high = bracket_high
    else:
        high = _expand_positive(poly, bracket_hint if bracket_high is None else bracket_high)
    if bracket_high is None and _single_root_above(poly, bracket_hint):
        low = bracket_hint
    else:
        low = _scan_for_negative(poly, bracket_hint, high)
    value = _bisect(poly, low, high)
    residual = abs(poly(value))
    if residual > _RESIDUAL_REL * poly.magnitude_scale(value):
        raise ConvergenceError("root residual above tolerance", value, residual)
    return RootResult(value=value, bracket_low=low, bracket_high=high, residual=residual)


def _single_root_above(poly: Polynomial, x: float) -> bool:
    """p(x) < 0 and p(t + x) has one coefficient sign change (Descartes).

    The shift is repeated synthetic division; its last coefficient is
    p(x), evaluated by the same Horner steps as ``poly(x)``.
    """
    shifted = list(poly.coefficients)
    degree = len(shifted) - 1
    for i in range(degree):
        for j in range(1, degree + 1 - i):
            shifted[j] += x * shifted[j - 1]
    signs = [a > 0.0 for a in shifted if a != 0.0]
    changes = sum(left != right for left, right in zip(signs, signs[1:]))
    return shifted[-1] < 0.0 and changes == 1


def _expand_positive(poly: Polynomial, start: float) -> float:
    step = max(1.0, abs(start))
    for _ in range(200):
        candidate = start + step
        if poly(candidate) > 0.0:
            return candidate
        step *= 2.0
    raise ConvergenceError("no positive value found while expanding upward", start, float("nan"))


def _scan_for_negative(poly: Polynomial, low: float, high: float) -> float:
    """Rightmost sample in [low - margin, high] with a negative value."""
    margin = 1e-6 * max(1.0, abs(low))
    for samples in (64, 256, 1024, 4096):
        xs = np.linspace(low - margin, high, samples)
        values = np.polyval(poly.coefficients, xs)
        negative = np.nonzero(values < 0.0)[0]
        if negative.size:
            return float(xs[negative[-1]])
    raise ConvergenceError(
        "no sign change found at or above the bracket hint", low, poly(low)
    )


def _bisect(poly: Polynomial, low: float, high: float) -> float:
    f_low = poly(low)
    f_high = poly(high)
    if not (f_low < 0.0 < f_high):
        raise ConvergenceError("bisection bracket lost its sign change", low, f_low)
    for _ in range(200):
        if high - low <= _BISECTION_WIDTH:
            break
        mid = 0.5 * (low + high)
        f_mid = poly(mid)
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


# ---------------------------------------------------------------------------
# spectral evaluation of the F_p identities
# ---------------------------------------------------------------------------


def fp_spectral_bzp(bzp: BzpSequence, p: int) -> float:
    """F_p as sum_i (b . x_i)^2 * lambda_i^(p-1) over the zero-overlap spectrum."""
    if p < 1:
        raise ValueError(f"the zero-overlap identity needs p >= 1, got {p}")
    if bzp.z == 0:
        return 0.0
    values, vectors = np.linalg.eigh(np.array(zero_overlap_matrix(bzp), dtype=float))
    weights = vectors.T @ np.array(bzp.b, dtype=float)
    return float(np.sum(weights**2 * values ** (p - 1)))


def fp_spectral_fop(fop: FopSequence, p: int) -> float:
    """F_p as sum_i (1 . x_i)^2 * lambda_i^p over the one-overlap spectrum."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    values, vectors = np.linalg.eigh(np.array(one_overlap_matrix(fop), dtype=float))
    weights = vectors.T @ np.ones(fop.c)
    return float(np.sum(weights**2 * values**p))

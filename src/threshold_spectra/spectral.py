"""Numerical kernels: graph spectra, dense eigensolves, real roots.

The composition blocks (runs of the generating sequence) are twin
classes and so an equitable partition.  Two blocks are joined when the
later one is type 1, and type-1 blocks are cliques.  The spectral
radius is the top eigenvalue of the k x k symmetrized quotient S, with
S_ij = sqrt(|i| |j|) for joined blocks and S_ii = |i| - 1 or 0, from
``numpy.linalg.eigh``; its eigenvector x lifts to x_b / sqrt(|b|) on
each vertex of block b (Brouwer & Haemers, *Spectra of Graphs* 2.3).
Cost depends on k, not n; the dense adjacency is only a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

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
    "EigenDecomposition",
    "Polynomial",
    "RootResult",
    "fp_spectral_bzp",
    "fp_spectral_fop",
    "greatest_real_root",
    "perron_vector",
    "spectral_radius",
    "symmetric_eigen",
]

DEFAULT_TOL = 1e-10
_MAX_JACOBI_SWEEPS = 100
_BISECTION_WIDTH = 1e-12
_RESIDUAL_REL = 1e-9


class ConvergenceError(RuntimeError):
    """An iteration hit its cap; carries the best estimate seen."""

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

    def derivative(self) -> "Polynomial":
        n = self.degree
        if n == 0:
            raise ValueError("constant polynomial has no useful derivative here")
        return Polynomial(
            tuple(coefficient * (n - i) for i, coefficient in enumerate(self.coefficients[:-1]))
        )

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


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted nonincreasing; eigenvector i in column i."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


# ---------------------------------------------------------------------------
# twin-class quotient
# ---------------------------------------------------------------------------


def _quotient_eigenpair(g: ThresholdGraph, tol: float, routine: str):
    """Top eigenpair (theta, x >= 0) of S, plus block sizes and types."""
    if not 0.0 < tol < float("inf"):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
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
    if not residual <= tol * max(1.0, theta):
        message = f"{routine}: quotient residual above tol = {tol!r} for comp:{spec.format()}"
        raise ConvergenceError(message, theta, residual)
    return theta, x, sizes, ones


def spectral_radius(g: ThresholdGraph, tol: float = DEFAULT_TOL) -> float:
    """Largest adjacency eigenvalue of a connected threshold graph."""
    theta, *_ = _quotient_eigenpair(g, tol, "spectral_radius")
    return theta


def perron_vector(g: ThresholdGraph, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unit-norm positive eigenvector for the spectral radius.

    Entries follow the canonical vertex order and are nonincreasing
    along it (higher degree never gets smaller weight).  Blocks are
    contiguous in that order: type-1 blocks last to first, then type-0
    blocks first to last, as type-1 degrees grow along the sequence from
    c - 1 and type-0 degrees shrink from at most c - 1.
    """
    _, x, sizes, ones = _quotient_eigenpair(g, tol, "perron_vector")
    index = np.arange(sizes.size)
    order = np.concatenate((index[ones][::-1], index[~ones]))
    v = np.repeat(x[order] / np.sqrt(sizes[order]), sizes[order])
    return v / float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# cyclic Jacobi eigensolver
# ---------------------------------------------------------------------------


def symmetric_eigen(matrix, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by Jacobi rotations.

    Cyclic sweeps zero each off-diagonal pair in turn; the off-diagonal
    mass converges quadratically, so a handful of sweeps suffices at the
    sizes used here.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    d = a.shape[0]
    vectors = np.eye(d)
    if d <= 1:
        return EigenDecomposition(eigenvalues=np.diag(a).copy(), eigenvectors=vectors)
    frobenius = float(np.linalg.norm(a))
    threshold = tol * max(frobenius, 1.0)
    for _ in range(_MAX_JACOBI_SWEEPS):
        off = float(np.sqrt(np.sum(np.square(a - np.diag(np.diag(a))))))
        if off <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                _jacobi_rotate(a, vectors, p, q)
    else:
        off = float(np.sqrt(np.sum(np.square(a - np.diag(np.diag(a))))))
        raise ConvergenceError("jacobi sweeps did not converge", float(np.max(np.diag(a))), off)
    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(eigenvalues=values[order], eigenvectors=vectors[:, order])


def _jacobi_rotate(a: np.ndarray, vectors: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    if apq == 0.0:
        return
    app, aqq = a[p, p], a[q, q]
    tau = (aqq - app) / (2.0 * apq)
    if tau >= 0.0:
        t = 1.0 / (tau + sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
    c = 1.0 / sqrt(1.0 + t * t)
    s = t * c
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = a[q, p] = 0.0
    vec_p = vectors[:, p].copy()
    vec_q = vectors[:, q].copy()
    vectors[:, p] = c * vec_p - s * vec_q
    vectors[:, q] = s * vec_p + c * vec_q


# ---------------------------------------------------------------------------
# largest real root by bracket expansion and bisection
# ---------------------------------------------------------------------------


def greatest_real_root(
    poly: Polynomial, bracket_hint: float = 0.0, bracket_high: float | None = None
) -> RootResult:
    """Largest real root at or above ``bracket_hint``.

    The leading coefficient is positive, so the polynomial is eventually
    positive; the upper bracket end is found by doubling steps.  If the
    polynomial is already positive at the hint, the interval up to the
    expansion point is grid-scanned for the rightmost sign change.  The
    returned bracket certifies the sign change and the residual is
    checked against 1e-9 times the term-magnitude scale.

    When ``bracket_high`` is given the caller asserts the largest root
    lies below it; the rightmost sign change on [hint, bracket_high] is
    then located by grid scan regardless of the sign at the hint, which
    avoids bisecting into an inner root when several roots sit in the
    interval.
    """
    if bracket_high is not None:
        if poly(bracket_high) > 0.0:
            high = bracket_high
        else:
            high = _expand_positive(poly, bracket_high)
        low = _scan_for_negative(poly, bracket_hint, high)
        value = _bisect(poly, low, high)
        residual = abs(poly(value))
        limit = _RESIDUAL_REL * poly.magnitude_scale(value)
        if residual > limit:
            raise ConvergenceError("root residual above tolerance", value, residual)
        return RootResult(value=value, bracket_low=low, bracket_high=high, residual=residual)
    f_hint = poly(bracket_hint)
    high = _expand_positive(poly, bracket_hint)
    if f_hint < 0.0:
        low = bracket_hint
    elif f_hint == 0.0:
        near = _local_sign_change(poly, bracket_hint)
        if near is not None:
            low, high = near
        else:
            low = _scan_for_negative(poly, bracket_hint, high)
    else:
        low = _scan_for_negative(poly, bracket_hint, high)
    value = _bisect(poly, low, high)
    residual = abs(poly(value))
    limit = _RESIDUAL_REL * poly.magnitude_scale(value)
    if residual > limit:
        raise ConvergenceError("root residual above tolerance", value, residual)
    return RootResult(value=value, bracket_low=low, bracket_high=high, residual=residual)


def _expand_positive(poly: Polynomial, start: float) -> float:
    step = max(1.0, abs(start))
    for _ in range(200):
        candidate = start + step
        if poly(candidate) > 0.0:
            return candidate
        step *= 2.0
    raise ConvergenceError("no positive value found while expanding upward", start, float("nan"))


def _local_sign_change(poly: Polynomial, x: float) -> tuple[float, float] | None:
    delta = 1e-10 * max(1.0, abs(x))
    for _ in range(40):
        if poly(x - delta) < 0.0 < poly(x + delta):
            return x - delta, x + delta
        delta *= 2.0
    return None


def _scan_for_negative(poly: Polynomial, low: float, high: float) -> float:
    """Rightmost sample in [low - margin, high] with a negative value."""
    margin = 1e-6 * max(1.0, abs(low))
    for samples in (64, 256, 1024, 4096):
        xs = np.linspace(low - margin, high, samples)
        values = np.array([poly(float(x)) for x in xs])
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
    decomposition = symmetric_eigen(np.array(zero_overlap_matrix(bzp), dtype=float))
    weights = decomposition.eigenvectors.T @ np.array(bzp.b, dtype=float)
    return float(np.sum(weights**2 * decomposition.eigenvalues ** (p - 1)))


def fp_spectral_fop(fop: FopSequence, p: int) -> float:
    """F_p as sum_i (1 . x_i)^2 * lambda_i^p over the one-overlap spectrum."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    decomposition = symmetric_eigen(np.array(one_overlap_matrix(fop), dtype=float))
    weights = decomposition.eigenvectors.T @ np.ones(fop.c)
    return float(np.sum(weights**2 * decomposition.eigenvalues**p))

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

Every integer polynomial of the package, a bound polynomial or the walk
quotient's q, is a tuple of integer coefficients in descending powers,
of any degree.  :func:`greatest_real_roots` proves the greatest real
root of each from float Newton: it checks every polynomial first, steps
Newton per polynomial or, from :data:`_BATCH_MIN` up, in lock-step in
numpy with the same float operations, and proves each bracket in input
order.  Exact integer arithmetic (:func:`_certified`) decides every
bracket, except that from :data:`_BATCH_MIN` up the first bracket, one
ulp either side of the Newton value, is first tried in the same numpy
arrays by a float filter (:func:`_proven`): compensated Horner for the
signs of p at both ends and plain Horner for the Taylor coefficients,
each counted only beyond an a-priori bound on its rounding error
(Graillat, Langlois & Louvet, *Algorithms for accurate, validated and
fast polynomial evaluation*, 2009; the filter-then-exact pattern of
Shewchuk's robust predicates, 1997).  A bracket the filter proves is
the one the exact test proves at that width, and whatever it cannot
decide goes to the exact test, so the two paths give the same bits.
:func:`greatest_real_root`, the public entry, is its batch of one, so
a root is bitwise the same in any batch.  The spectral F_p routes over
the overlap matrices live with the other identities, in
:mod:`threshold_spectra.identities`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import comb

import numpy as np

from .graph_model import ThresholdGraph, _require_connected, to_composition

__all__ = [
    "ConvergenceError",
    "RootResult",
    "greatest_real_root",
    "greatest_real_roots",
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
# greatest_real_roots steps Newton in lock-step and proves brackets in floats from this many
# polynomials up: numpy's fixed cost makes that 0.3-0.6 ms for an analyze job's 3 polynomials,
# against 0.04-0.06 ms one at a time.  On census (20, 127) classes the batch/per-polynomial time
# is 1.06 at 35, 0.92-1.05 at 42, 0.85 at 48 and 0.74 at 60 polynomials (three runs, best of 15,
# median over slices, 2-vCPU x86-64 host); analyze runs 3, a census job of the benchmark pools
# 60 to 1,095, so any crossover in 35..60 times them alike.
_BATCH_MIN = 42
_CERTIFICATE_DOUBLINGS = 16  # the widest bracket tried is 2^16 ulps each side
_UNIT = 2.0**-53  # unit roundoff of a float
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: 27 + 26 significant bits
_EXACT = 2.0**53  # every integer below is exact in floats
_TINY = sys.float_info.min  # the least normal float


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

    The coefficients are integers in descending powers, of any degree,
    the leading one positive and each within float range: the search
    evaluates in floats before it certifies in integers.  Any other tuple
    raises ``ValueError``.

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
    return greatest_real_roots([coefficients])[0]


def greatest_real_roots(polynomials) -> list[RootResult]:
    """:func:`greatest_real_root` of each polynomial, each bitwise as alone.

    Every polynomial is checked first (:func:`_newton_start`), so the
    first malformed one raises ``ValueError`` before any Newton step, and
    the first polynomial in input order without a certified bracket
    raises :class:`ConvergenceError`.  Below :data:`_BATCH_MIN`
    polynomials, each is stepped (:func:`_newton`) and certified exactly
    (:func:`_certified_root`) on its own.

    From :data:`_BATCH_MIN` up, Newton steps in lock-step on one padded
    float array (:func:`_lockstep_newton`), and :func:`_proven` tries
    each first bracket, one ulp either side of the Newton value x, in
    floats: compensated Horner gives the signs of p at both ends, and
    plain Horner the Taylor coefficients 1 .. d - 1 of p(t + x + ulp),
    each counted only when it clears an a-priori bound on its rounding
    error (twice ``gamma_2d^2 p~`` and ``gamma_2n q~``, with p~ and q~
    the polynomials of absolute coefficients, see :func:`_proven`).
    A proven row is the :class:`RootResult` that
    :func:`_certified_root` returns at its first width; every other row
    (no proof, a value that is not finite or may have underflowed, or
    any row of a batch with a coefficient or a binomial multiple of one
    at or above 2^53) goes to :func:`_certified_root`, so the exact
    :func:`_certified` decides it.
    """
    polynomials = list(polynomials)
    # The starts stay Python floats: numpy's power differs from ** in the last bit on 9,913 of
    # 200,000 uniform draws in [0, 10^6) at exponent 1/3 and on 165 at 1/2 (numpy 2.4, x86-64
    # with AVX-512), and a start one bit off can end Newton elsewhere.
    starts = [_newton_start(p) for p in polynomials]
    if len(polynomials) < _BATCH_MIN:
        rows = _newton(polynomials, starts)
        return [_certified_root(p, *row) for p, row in zip(polynomials, rows)]
    coefficients = _padded(polynomials)
    x, value, steps = _lockstep_newton(coefficients, starts)
    proven, low, high = _proven(coefficients, np.array(list(map(len, polynomials))) - 1, x)
    columns = (column.tolist() for column in (proven, x, low, high, value, steps))
    return [
        RootResult(root, below, above, n) if ok else _certified_root(p, root, residual, n)
        for p, ok, root, below, above, residual, n in zip(polynomials, *columns)
    ]


def _newton_start(coefficients: tuple[int, ...]) -> float:
    """The Fujiwara bound, once the coefficients pass every check."""
    if not coefficients:
        raise ValueError("polynomial needs at least one coefficient")
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
    return _fujiwara_bound(coefficients)


def _padded(polynomials):
    """The coefficients as one float row per power, each polynomial padded to the longest.

    The padding is leading zeros, and each int converts as float() does.
    """
    width = max(map(len, polynomials))
    padded = [(0,) * (width - len(p)) + p for p in polynomials]
    return np.array(padded, dtype=float).T


def _newton(polynomials, starts) -> list[tuple[float, float, int]]:
    """x, p(x) and the step count of each polynomial's Newton run down from its start."""
    rows = []
    for coefficients, x in zip(polynomials, starts):
        steps = 0
        value, slope = _value_and_slope(coefficients, x)
        while value > 0.0 and slope > 0.0 and steps < _MAX_NEWTON_STEPS:
            below = x - value / slope
            if not below < x:
                break
            x = below
            steps += 1
            value, slope = _value_and_slope(coefficients, x)
        rows.append((x, value, steps))
    return rows


def _lockstep_newton(coefficients, starts):
    """:func:`_newton` for all polynomials at once in numpy: x, p(x) and steps, as arrays.

    The coefficients are one row per power of the polynomials, each
    padded to the longest with leading zeros.  Horner's value and slope
    start at +0.0, and a zero coefficient keeps them so while x is
    finite (0 x + 0 = +0.0); at a non-finite x they become nan, as at
    the first coefficient alone.  :func:`_value_and_slope` runs on the
    arrays, so each polynomial takes the float operations of
    :func:`_newton` in their order.  A polynomial moves while p and p'
    are positive and the step goes down; one that stops recomputes the
    same x, p and p' and stays stopped, so one still moving at pass t
    has taken t steps.  Overflow, inf - inf and 0/0 give the IEEE values
    that Python's floats give without a word, so numpy's warnings are
    silenced.
    """
    x = np.array(starts)
    steps = np.zeros(len(starts), dtype=int)
    with np.errstate(all="ignore"):
        value, slope = _value_and_slope(coefficients, x)
        for _ in range(_MAX_NEWTON_STEPS):
            below = x - value / slope
            moving = (value > 0.0) & (slope > 0.0) & (below < x)
            if not np.count_nonzero(moving):
                break
            x = np.where(moving, below, x)
            steps += moving
            value, slope = _value_and_slope(coefficients, x)
    return x, value, steps


def _proven(coefficients, degrees, x):
    """Whether floats prove each bracket [x - ulp, x + ulp] as :func:`_certified` would; the ends.

    The coefficients are one row per power, padded with leading zeros;
    a row's Horner steps through its padding are exact, so its own
    degree d counts its roundings.  The batch is tried only when
    ``max |a| C(D, D // 2) < 2^53`` for its padded degree D, decided on
    exact ints before any table is built: then every coefficient and
    every binomial multiple C(i, k) a_i is an integer exact in floats,
    and D <= 56 keeps the table of those multiples within 57 x 55
    floats per polynomial.  Otherwise no row is proven.  A row is proven
    when, with u = 2^-53 and p~ the polynomial of absolute coefficients
    at |t|:

    * compensated Horner (Graillat, Langlois & Louvet 2009), accurate to
      ``u |p(t)| + gamma_2d^2 p~(|t|)`` with gamma_n = n u / (1 - n u),
      gives p(low) < 0 and p(high) > 0 beyond ``8 d^2 u^2 p~``;
    * plain Horner, accurate to ``gamma_2n q~(|high|)`` on the integer
      coefficients C(i, k) a_i of the k-th Taylor coefficient q_k of
      p(t + high), a polynomial of degree n = d - k, gives each q_k > 0
      beyond ``4 n u q~`` for 1 <= k < d (q_d is the leading
      coefficient, checked positive);
    * each bound is finite and normal, so its own rounding is relative.

    Both bounds are twice the ones proven (that margin covers the
    rounding of p~ and of the product), and they hold while nothing
    overflows or underflows.  An overflow anywhere leaves the value it
    feeds non-finite, so every value must be finite.  Underflow loses
    nothing while every exact value lies on the grid of subnormals: the
    coefficients are integers, the ends are multiples of 2^-q, and every
    value is then a multiple of 2^-dq, so a row needs dq <= 1074.
    """
    size = len(coefficients)
    with np.errstate(all="ignore"):
        width = np.spacing(np.abs(x))  # math.ulp(x) wherever x + width is finite
        low, high = x - width, x + width
        if int(np.abs(coefficients).max()) * comb(size - 1, (size - 1) // 2) >= _EXACT:
            # a float below 2^53 is its int exactly, and |a| >= 2^53 gives a float >= 2^53
            return np.zeros(len(x), dtype=bool), low, high
        taylor = np.zeros((size, max(size - 2, 0), len(x)))
        for k in range(1, size - 1):
            # the coefficient of t^(size - 1 - i) in p, times C(size - 1 - i, k)
            binomials = np.array([comb(size - 1 - i, k) for i in range(size - k)], dtype=float)
            taylor[k:, k - 1] = binomials[:, None] * coefficients[: size - k]
        ends = np.stack([low, high])
        signs = _compensated_horner(coefficients, ends)
        sign_bound = 8.0 * _UNIT**2 * degrees**2 * _horner(np.abs(coefficients), np.abs(ends))
        shifted = _horner(taylor, high)
        orders = np.maximum(degrees - np.arange(1, size - 1)[:, None], 0)
        shift_bound = 4.0 * _UNIT * orders * _horner(np.abs(taylor), np.abs(high))
        grid = np.maximum(53 - np.frexp(ends)[1].min(axis=0), 0)
        proven = (
            np.isfinite(signs).all(axis=0)
            & np.isfinite(shifted).all(axis=0)
            & (signs[0] < -sign_bound[0])
            & (signs[1] > sign_bound[1])
            & (sign_bound.min(axis=0) >= _TINY)
            & np.all((shifted > shift_bound) & (shift_bound >= _TINY) | (orders == 0), axis=0)
            & (degrees * grid <= 1074)
        )
    return proven, low, high


def _compensated_horner(coefficients, t):
    """p(t) by Horner with each rounding error carried (Dekker's TwoProduct, Knuth's TwoSum).

    t is split once by Veltkamp's 2^27 + 1; each product s t and sum
    s t + a gives its exact error while nothing overflows or underflows,
    and the errors go through a second Horner pass.  A product beyond
    2^996 overflows the split and leaves nan.
    """
    big = _SPLIT * t
    t_high = big - (big - t)
    t_low = t - t_high
    value = error = 0.0
    for a in coefficients:
        product = value * t
        big = _SPLIT * value
        head = big - (big - value)
        tail = value - head
        product_error = tail * t_low - (((product - head * t_high) - tail * t_high) - head * t_low)
        value = product + a
        back = value - product
        sum_error = (product - (value - back)) + (a - back)
        error = error * t + (product_error + sum_error)
    return value + error


def _horner(coefficients, t):
    """p(t) by plain Horner, over the first axis of the coefficients."""
    value = 0.0
    for a in coefficients:
        value = value * t + a
    return value


def _certified_root(
    coefficients: tuple[int, ...], x: float, value: float, steps: int
) -> RootResult:
    """The :class:`RootResult` at the Newton value x, in the first bracket certified."""
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
    terms = [abs(a / lead) ** (1.0 / k) for k, a in enumerate(coefficients[1:-1], 1)]
    if degree:
        terms.append(abs(coefficients[-1] / (2 * lead)) ** (1.0 / degree))
    return 2.0 * max(terms, default=0.0)


def _value_and_slope(coefficients, x):
    """p(x) and p'(x) by one Horner pass.

    The coefficients are ints and x a float, or, for a batch, one array
    per power and an array of x: the same float operations either way.
    """
    value = slope = 0.0
    for a in coefficients:
        slope = slope * x + value
        value = value * x + a
    return value, slope


def _certified(coefficients: tuple[int, ...], low: float, high: float) -> bool:
    """p(low) < 0 and every Taylor coefficient of p(t + high) is > 0, exactly.

    Both ends are N / D over the larger of their power-of-two D.  The
    integer polynomial D^d p(y / D), scaled once, has the sign of p(x) at
    y = N, and shifting it by N (repeated synthetic division) gives
    coefficients with the signs of those of p(t + x): y = D t + N.
    """
    (low_n, low_d), (high_n, high_d) = low.as_integer_ratio(), high.as_integer_ratio()
    denominator = max(low_d, high_d)
    scaled, power = [], 1
    for a in coefficients:
        scaled.append(a * power)
        power *= denominator
    value, numerator = 0, low_n * (denominator // low_d)
    for a in scaled:
        value = value * numerator + a
    if value >= 0:
        return False
    numerator = high_n * (denominator // high_d)
    degree = len(scaled) - 1
    for i in range(degree):
        for j in range(1, degree + 1 - i):
            scaled[j] += numerator * scaled[j - 1]
    return all(a > 0 for a in scaled)

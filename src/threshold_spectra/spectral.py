"""Numerical kernels: graph spectra and certified real roots.

A graph is held as its twin classes (the runs of the generating
sequence), which are an equitable partition, so its spectral radius rho
is the greatest eigenvalue of the k x k class quotient Q_A of the
adjacency (Brouwer & Haemers, *Spectra of Graphs* 2.3), and the
greatest root of ``r(y) = det(yI - Q_A)``.  Cost depends on k, not n;
the dense adjacency is only a test oracle
(:func:`threshold_spectra.identities.adjacency_matrix`).
:func:`spectral_radii` takes rho by one of two routes, and the route is
a property of the graph alone:

* **The root route.**  One exact pass over the runs gives r
  (``graph_model._characteristic_polynomial`` with diagonal 0, the pass
  that gives the walk quotient's q with diagonal 1; r(y) = q(y + 1)).  From
  :data:`_RADII_BATCH_MIN` graphs up the same pass runs in int64 numpy
  over all graphs at once, and a graph that could overflow is redone
  exactly.
  Every graph whose pass stays below 2^63 takes this route: every
  graph measured with up to about 82 classes.  Newton starts one ulp
  above Hong's bound ``sqrt(2m - n + 1) >= rho`` (Hong, *A bound on
  the spectral radius of graphs*, LAA 108, 1988); ``sqrt`` is correctly
  rounded, so the start lies above rho and is the same float in Python
  and in numpy.  rho is the Newton value, and its bracket is proven as
  every root of the package is (below), so rho lies within one ulp of
  the true value on every graph measured, whatever LAPACK numpy links.
* **The dense route.**  A graph whose pass reaches 2^63 takes the top
  eigenvalue of the symmetrized quotient S, with S_ij = sqrt(|i| |j|)
  for joined classes (the later one is type 1) and S_ii = |i| - 1 or 0,
  from ``numpy.linalg.eigh``.  Its quotients are stacked by k, and the
  residual of each top eigenpair is checked against a fixed bound only
  to detect a fault.  S is dense, so a graph with more than
  :data:`MAX_QUOTIENT_CLASSES` classes is refused with ``ValueError``
  before anything is built.

A census runs as one batch, and :func:`spectral_radius` is that kernel
run on a list of one graph: each route gives every graph the bits it
gets alone.

Every integer polynomial of the package, a bound polynomial, the walk
quotient's q or r, is a tuple of integer coefficients in descending
powers, of any degree.  :func:`greatest_real_roots` proves the greatest
real root of each from float Newton: it checks every polynomial first,
steps Newton per polynomial or, from :data:`_BATCH_MIN` up, in
lock-step in numpy with the same float operations, and proves each
bracket in input order.  Exact integer arithmetic (:func:`_certified`)
decides every bracket, except that from :data:`_BATCH_MIN` up the first
bracket, one ulp either side of the Newton value, is first tried in the
same numpy arrays by a float filter (:func:`_proven`): compensated
Horner for the signs of p at both ends and plain Horner for the Taylor
coefficients, each counted only beyond an a-priori bound on its
rounding error (Graillat, Langlois & Louvet, *Algorithms for accurate,
validated and fast polynomial evaluation*, 2009; the filter-then-exact
pattern of Shewchuk's robust predicates, 1997).  A bracket the filter
proves is the one the exact test proves at that width, and whatever it
cannot decide goes to the exact test, so the two paths give the same
bits.  The core returns (value, low, high, steps) columns, which the
bound classes and rho read; :func:`greatest_real_root`, the public
entry, is the batch of one, so a root is bitwise the same in any batch.
The spectral F_p routes over the overlap matrices live with the other
identities, in :mod:`threshold_spectra.identities`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain
from math import comb

import numpy as np

from .graph_model import (
    ThresholdGraph,
    _characteristic_polynomial,
    _require_connected,
    to_composition,
)

__all__ = [
    "ConvergenceError",
    "RootResult",
    "greatest_real_root",
    "greatest_real_roots",
    "spectral_radii",
    "spectral_radius",
]

# The dense route's quotient is a k x k matrix.  A connected graph has an odd number of
# classes, so 2047 is the most that pass: eigh takes 1.9 s there and the process peaks at
# 198 MB resident (2-vCPU x86-64 host, one BLAS thread).
MAX_QUOTIENT_CLASSES = 2048
_QUOTIENT_RESIDUAL_REL = 1e-10  # relative to max(1, theta); eigh reaches ~1e-15
_STACK = 4096  # quotients per stacked eigh call: at most 4096 * k^2 floats
# an int64 row whose coefficients, times a run length plus 2, could reach this is redone exactly:
# one step multiplies them by at most that, and the float product is off by far less than 2x
_INT64_RISK = 2.0**62
# every run has s >= 1, so a graph of this many runs (3^40 > 2^62) would always be redone
# exactly; it skips the int64 pass, whose arrays then have at most 40 rows per graph
_INT64_RUNS = math.ceil(math.log(_INT64_RISK, 3))
_MAX_NEWTON_STEPS = 100
# greatest_real_roots steps Newton in lock-step and proves brackets in floats from this many
# polynomials up: numpy's fixed cost makes that 0.3-0.6 ms for an analyze job's 3 polynomials,
# against 0.04-0.06 ms one at a time.  On census (20, 127) classes the batch/per-polynomial time
# is 1.06 at 35, 0.92-1.05 at 42, 0.85 at 48 and 0.74 at 60 polynomials (three runs, best of 15,
# median over slices, 2-vCPU x86-64 host); analyze runs 3, a census job of the benchmark pools
# 60 to 1,095, so any crossover in 35..60 times them alike.
_BATCH_MIN = 42
# spectral_radii runs its pass in int64 numpy and Newton in lock-step from this many graphs up:
# on 400 census cells of 8 to 32 graphs with n = 14..20 the batch/per-graph time was 1.45 at
# 12-15, 1.16 at 16-19, 0.97 at 20-23 and 0.81 at 24-27 graphs (medians, best of 5, 2-vCPU
# x86-64 host), the per-graph path taking 26-28 us a graph
_RADII_BATCH_MIN = 22
# _proven works on this many rows at a time: its Taylor table and the table's absolute values
# are (D + 1) x (D - 1) floats per row for padded degree D, 6.6 MB each for rho of the
# 2,860-graph (20, 127) census at D = 17 if proven at once, which raised the peak resident
# memory of the seed-1 census benchmark pool from 40.8 to 48-49 MB; chunks of 256 to 1,024
# rows measured 40.1-40.6 MB
_PROOF_ROWS = 512
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
# the spectral radius: the root route, and the dense route beyond 2^63
# ---------------------------------------------------------------------------


def spectral_radii(graphs) -> list[float]:
    """Largest adjacency eigenvalue of each connected threshold graph.

    Every graph is checked first: a disconnected one, or one with more
    than :data:`MAX_QUOTIENT_CLASSES` classes, raises ``ValueError``
    before any pass runs.  Each graph whose characteristic pass stays
    below 2^63 (:func:`_adjacency_polynomials`) gets the greatest root
    of r, stepped by Newton down from ``nextafter(sqrt(2m - n + 1),
    inf)`` per graph below :data:`_RADII_BATCH_MIN` graphs and in
    lock-step from there, and proven as :func:`greatest_real_roots`
    proves a root.  Every other graph gets the top eigenvalue of its
    stacked quotient (:func:`_dense_radii`).  A graph without a
    certified bracket, or with a quotient residual above its bound, raises
    :class:`ConvergenceError` naming ``spectral_radius`` and the
    ``comp:`` spec of the first such graph in input order.
    """
    graphs = list(graphs)
    for g in graphs:
        k = len(g.runs)
        if not k % 2:
            _require_connected(g, "spectral_radius")  # raises: an even run count is disconnected
        if k > MAX_QUOTIENT_CLASSES:
            raise ValueError(
                f"spectral_radius: {k} twin classes exceed the dense-quotient limit "
                f"of {MAX_QUOTIENT_CLASSES}"
            )
    if len(graphs) < _RADII_BATCH_MIN:
        polynomials = [_characteristic_polynomial(g.runs, 0) for g in graphs]
        rooted = [i for i, r in enumerate(polynomials) if r is not None]
        starts = [_hong_start(2 * graphs[i].m - graphs[i].n + 1) for i in rooted]
        columns, fault = _scalar_roots([polynomials[i] for i in rooted], starts)
    else:
        rooted, integers, degrees = _adjacency_polynomials(graphs)
        surplus = np.array([2 * graphs[i].m - graphs[i].n + 1 for i in rooted], dtype=float)
        starts = np.nextafter(np.sqrt(surplus), np.inf)  # _hong_start, on the same bits
        top = len(integers) - 1

        def exact(j):
            return tuple(integers[top - degrees[j] :, j].tolist())

        columns, fault = _batch_roots(integers.astype(float), degrees, starts, exact)
    radii = [0.0] * len(graphs)
    for i, value in zip(rooted, columns[0]):
        radii[i] = value
    routed = set(rooted)
    dense = [i for i in range(len(graphs)) if i not in routed]
    thetas, dense_fault = _dense_radii([graphs[i] for i in dense])
    for i, theta in zip(dense, thetas):
        radii[i] = theta
    faults = []
    if fault is not None:
        j, reason, estimate, residual = fault
        faults.append((rooted[j], reason, estimate, residual))
    if dense_fault is not None:
        j, reason, estimate, residual = dense_fault
        faults.append((dense[j], reason, estimate, residual))
    if faults:
        i, reason, estimate, residual = min(faults)
        message = f"spectral_radius: {reason} for comp:{to_composition(graphs[i])}"
        raise ConvergenceError(message, estimate, residual)
    return radii


def spectral_radius(g: ThresholdGraph) -> float:
    """Largest adjacency eigenvalue of a connected threshold graph."""
    return spectral_radii([g])[0]


def _hong_start(surplus: int) -> float:
    """The float just above Hong's bound ``sqrt(2m - n + 1)``, from ``surplus = 2m - n + 1``."""
    return math.nextafter(math.sqrt(surplus), math.inf)


def _adjacency_polynomials(graphs):
    """r of every graph whose pass stays below 2^63, from one int64 pass over all of them.

    Returns the indices of those graphs, their coefficients as one int64
    array with one row per power (descending, each polynomial padded to
    the greatest degree with leading zeros, one column per graph) and
    their degrees.  A graph that :func:`_adjacency_pass` cannot vouch
    for, as none of :data:`_INT64_RUNS` or more runs, is done by
    ``_characteristic_polynomial(runs, 0)``, which decides whether it
    stays below 2^63, so every column is that pass's r.
    """
    degrees = np.fromiter(map(len, (g.runs for g in graphs)), dtype=np.int64, count=len(graphs))
    short = np.flatnonzero(degrees < _INT64_RUNS)
    coefficients, risky = _adjacency_pass(_aligned_runs([graphs[i].runs for i in short.tolist()]))
    exact = {i: _characteristic_polynomial(graphs[i].runs, 0) for i in short[risky].tolist()}
    for i in np.flatnonzero(degrees >= _INT64_RUNS).tolist():
        exact[i] = _characteristic_polynomial(graphs[i].runs, 0)
    rooted = np.zeros(len(graphs), dtype=bool)
    rooted[short[~risky]] = True
    rooted[[i for i, r in exact.items() if r is not None]] = True
    width = max([len(coefficients) - 1] + [len(r) - 1 for r in exact.values() if r is not None])
    integers = np.zeros((width + 1, len(graphs)), dtype=np.int64)
    integers[width + 1 - len(coefficients) :, short] = coefficients[::-1]
    for i, r in exact.items():
        if r is not None:
            integers[:, i] = 0
            integers[width + 1 - len(r) :, i] = r
    return np.flatnonzero(rooted).tolist(), integers[:, rooted], degrees[rooted]


def _aligned_runs(runs):
    """The runs of each graph as one column of an int64 array, ending in its last row.

    Every row before a graph's first run holds -1, which
    :func:`_adjacency_pass` reads as no run.
    """
    degrees = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
    width = int(degrees.max(initial=0))
    aligned = np.full((width, len(runs)), -1, dtype=np.int64)
    columns = np.repeat(np.arange(len(runs)), degrees)
    rows = np.arange(len(columns)) - np.repeat(np.cumsum(degrees) - width, degrees)
    aligned[rows, columns] = np.fromiter(chain.from_iterable(runs), dtype=np.int64)
    return aligned


def _adjacency_pass(runs):
    """``_characteristic_polynomial(runs, 0)`` of each column of runs, in int64.

    A graph's runs end in the last row, after -1 in every row before
    them.  Its p and u are 0 until its first run, where they start at 1;
    a step keeps p = u = 0 at 0.  A type-1 run of s gives
    ``(p, u) -> ((x+1) p - s u, (x+1) u)`` and a type-0 run
    ``(x p, x u + s p)``; the runs alternate back from the last row,
    which is type 1, and a graph has an odd number of runs, so every
    first run is type 1.  Returns the coefficients of p in ascending
    powers, one row per power and one column per graph, and per graph
    whether a step could have reached 2^63: a step multiplies the
    largest coefficient of p and u by at most s + 2, so a graph is
    flagged when the product of its ``s + 2`` (1 for each -1), in
    floats, reaches :data:`_INT64_RISK`.  A graph not flagged is exact,
    and below 2^63 throughout.
    """
    k, count = runs.shape
    risky = np.prod(runs + 2.0, axis=0) >= _INT64_RISK
    first = (runs < 0).sum(axis=0)  # the row of each graph's first run
    starts = {j: np.flatnonzero(first == j) for j in np.unique(first).tolist()}
    p, u = np.zeros((k + 1, count), dtype=np.int64), np.zeros((k + 1, count), dtype=np.int64)
    # a flagged graph may wrap around in int64, silently; it is redone exactly
    for j, s in enumerate(runs):
        if j in starts:
            p[0, starts[j]] = u[0, starts[j]] = 1
        width = j + 2  # p and u have degree at most j + 1 after run j
        if (k - 1 - j) % 2:  # type 0: x u + s p, then x p
            step = s * p[:width]
            step[1:] += u[: width - 1]
            u[:width] = step
            p[1:width] = p[: width - 1]
            p[0] = 0
        else:  # type 1: (x + 1) p - s u, then (x + 1) u
            step = p[:width] - s * u[:width]
            step[1:] += p[: width - 1]
            p[:width] = step
            u[1:width] += u[: width - 1]
    return p, risky


def _dense_radii(graphs):
    """The dense route: the top eigenvalue of each stacked quotient, and the first fault.

    In insertion order the classes are the runs, ones first and then
    alternating, so S needs only the run lengths.  The graphs are grouped
    by block count k; each group's quotients are stacked into one
    (G, k, k) array (at most :data:`_STACK` of them, which bounds memory
    on huge censuses) and ``eigh`` runs once per stack.  Each S holds the
    floats it holds when built alone, so theta is bitwise the
    single-graph value.  The residual of the top eigenpair is checked per
    graph; the fault is None or (index, reason, theta, residual) of the
    first graph above its bound.
    """
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        groups.setdefault(len(g.runs), []).append(i)
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
    fault = None
    if failing.size:
        i = int(failing[0])
        reason = f"quotient residual above {float(bounds[i])!r}"
        fault = (i, reason, float(thetas[i]), float(residuals[i]))
    return thetas.tolist(), fault


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
    on its own (:func:`_scalar_roots`).

    From :data:`_BATCH_MIN` up (:func:`_batch_roots`), Newton steps in
    lock-step on one padded float array (:func:`_lockstep_newton`), and
    :func:`_proven` tries each first bracket, one ulp either side of the
    Newton value x, in floats: compensated Horner gives the signs of p at
    both ends, and plain Horner the Taylor coefficients 1 .. d - 1 of
    p(t + x + ulp), each counted only when it clears an a-priori bound on
    its rounding error (twice ``gamma_2d^2 p~`` and ``gamma_2n q~``, with
    p~ and q~ the polynomials of absolute coefficients, see
    :func:`_proven`).  A proven row is the bracket that
    :func:`_certified_bracket` finds at its first width; every other row
    (no proof, a value that is not finite or may have underflowed, or
    any row of a chunk with a coefficient or a binomial multiple of one
    at or above 2^53) goes to :func:`_certified_bracket`, so the exact
    :func:`_certified` decides it.
    """
    return list(map(RootResult, *_root_columns(polynomials)))


def _root_columns(polynomials):
    """The value, low, high and steps columns of :func:`greatest_real_roots`, as lists."""
    polynomials = list(polynomials)
    # The starts stay Python floats: numpy's power differs from ** in the last bit on 9,913 of
    # 200,000 uniform draws in [0, 10^6) at exponent 1/3 and on 165 at 1/2 (numpy 2.4, x86-64
    # with AVX-512), and a start one bit off can end Newton elsewhere.
    starts = [_newton_start(p) for p in polynomials]
    if len(polynomials) < _BATCH_MIN:
        columns, fault = _scalar_roots(polynomials, starts)
    else:
        degrees = np.array(list(map(len, polynomials))) - 1
        coefficients = _padded(polynomials)
        columns, fault = _batch_roots(coefficients, degrees, starts, polynomials.__getitem__)
    if fault is not None:
        i, reason, estimate, residual = fault
        message = f"greatest_real_root: {reason} for coefficients {polynomials[i]}"
        raise ConvergenceError(message, estimate, residual)
    return columns


def _scalar_roots(polynomials, starts):
    """Columns (value, low, high, steps) from per-polynomial Newton, and the first fault.

    Every bracket is certified exactly, in input order; see
    :func:`_certify_rest` for the fault.
    """
    rows = _newton(polynomials, starts)
    x, values, steps = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    columns = (x, [0.0] * len(x), [0.0] * len(x), steps)
    return columns, _certify_rest(columns, values, range(len(x)), polynomials.__getitem__)


def _batch_roots(coefficients, degrees, starts, exact):
    """Columns (value, low, high, steps) from lock-step Newton and the float proof; the first fault.

    The coefficients are one float row per power, each polynomial padded
    with leading zeros to the longest, and ``exact(i)`` gives the i-th
    polynomial's integer tuple for the rows :func:`_proven` leaves.
    """
    x, values, steps = _lockstep_newton(coefficients, starts)
    proven, low, high = _proven(coefficients, degrees, x)
    columns = tuple(column.tolist() for column in (x, low, high, steps))
    return columns, _certify_rest(columns, values, np.flatnonzero(~proven).tolist(), exact)


def _certify_rest(columns, values, rows, exact):
    """Certify the given rows exactly, in order, filling their low and high; the first fault.

    The fault is None, or (row, reason, x, p(x)) of the first row
    without a certified bracket, where the rows after it are left as
    they are.
    """
    x, low, high, _ = columns
    for i in rows:
        bracket = _certified_bracket(exact(i), x[i])
        if isinstance(bracket, str):
            return i, bracket, x[i], float(values[i])
        low[i], high[i] = bracket
    return None


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
    degree d counts its roundings.  The rows are sorted by degree and
    tried in chunks of :data:`_PROOF_ROWS`, which bounds the tables'
    memory, each padded only to its own greatest degree D; a row's
    verdict does not depend on the other rows of its chunk, except
    through the chunk's gate.  A chunk is tried only when
    ``max |a| C(D, D // 2) < 2^53``, decided on exact ints before any
    table is built: then every coefficient and every binomial multiple
    C(i, k) a_i is an integer exact in floats, and D <= 56 keeps the
    table of those multiples within 57 x 55 floats per polynomial.
    Otherwise no row of the chunk is proven.  A row is proven when, with
    u = 2^-53 and p~ the polynomial of absolute coefficients at |t|:

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
    proven, low, high = np.empty(len(x), dtype=bool), np.empty_like(x), np.empty_like(x)
    order = np.argsort(degrees, kind="stable")
    for at in range(0, len(x), _PROOF_ROWS):
        rows = order[at : at + _PROOF_ROWS]
        width = int(degrees[rows[-1]]) + 1  # the chunk's greatest degree, plus one
        chunk = coefficients[len(coefficients) - width :, rows]
        proven[rows], low[rows], high[rows] = _proven_chunk(chunk, degrees[rows], x[rows])
    return proven, low, high


def _proven_chunk(coefficients, degrees, x):
    """:func:`_proven` on one chunk of rows: the flags, and the bracket ends."""
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


def _certified_bracket(coefficients: tuple[int, ...], x: float) -> tuple[float, float] | str:
    """The first certified bracket around the Newton value x, or why there is none."""
    width = math.ulp(x)
    for _ in range(_CERTIFICATE_DOUBLINGS + 1):
        low, high = x - width, x + width
        if not (math.isfinite(low) and math.isfinite(high)):
            return "beyond float range"
        if _certified(coefficients, low, high):
            return low, high
        width *= 2.0
    return f"no certified bracket within 2^{_CERTIFICATE_DOUBLINGS} ulps of the Newton value"


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

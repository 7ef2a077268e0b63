"""Eigenvalue machinery: the block quotient, overlap spectra, root isolation."""

import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_spectra import (
    ConvergenceError,
    PreconditionError,
    bound_report,
    enumerate_threshold_graphs,
    from_bzp,
    from_composition,
    from_generating_sequence,
    greatest_real_root,
    spectral_radii,
    spectral_radius,
    to_bzp,
)
from threshold_spectra.identities import (
    adjacency_matrix,
    fp_spectral_bzp,
    fp_spectral_fop,
    fp_via_min_products,
    fp_via_one_overlap,
)
from threshold_spectra import spectral, walks
from threshold_spectra.bounds import _bound_inputs, _polynomials
from threshold_spectra.spectral import greatest_real_roots
from conftest import bisection_root, connected_graphs, graph, proves_greatest_root


# ---------------------------------------------------------------------------
# spectral_radius
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_graph_radius(n):
    g = graph("1" * n)
    assert abs(spectral_radius(g) - (n - 1)) <= 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_star_radius(n):
    g = graph("1" + "0" * (n - 2) + "1")
    assert abs(spectral_radius(g) - math.sqrt(n - 1)) <= 1e-10


@pytest.mark.parametrize(
    "bits, rho",
    [
        ("1101", 2.1700864866260186),
        ("10101", 2.685543932670793),
        ("11011", 3.3234042760864764),
    ],
)
def test_radius_reference_values(bits, rho):
    assert spectral_radius(graph(bits)) == pytest.approx(rho, abs=1e-9)


def test_radius_matches_dense_solver():
    for n in range(2, 9):
        for g in connected_graphs(n):
            dense = float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-1])
            assert spectral_radius(g) == pytest.approx(dense, abs=1e-8)


def test_radius_requires_connected():
    with pytest.raises(ValueError):
        spectral_radius(graph("1100"))


def test_connectivity_error_names_the_routine():
    with pytest.raises(ValueError, match="^spectral_radius requires a connected graph"):
        spectral_radius(graph("1100"))


# r of these passes 2^63, so they take the dense route: eigh and its residual check
_DENSE_7 = from_composition([1000] * 7)
_DENSE_9 = from_composition([1000, 999, 1001, 998, 1002, 997, 1003, 996, 1004])


def test_unreachable_tol_names_routine_and_graph(monkeypatch):
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    with pytest.raises(ConvergenceError, match=r"spectral_radius: .*comp:G\{1000,1000,1000,"):
        spectral_radius(_DENSE_7)


def test_stacked_radii_equal_single_graph_radii():
    """Stacking quotients by k changes no bit of rho, on every cell with n <= 12."""
    for n in range(1, 13):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            assert spectral_radii(census) == [spectral_radius(g) for g in census]
    assert spectral_radii([]) == []


def test_batch_names_its_first_failing_graph(monkeypatch):
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    # k = 1 takes the root route, k = 9 and k = 7 fail the residual bound; groups sorted by k
    # would name k = 7
    graphs = [graph("111"), _DENSE_9, _DENSE_7]
    with pytest.raises(ConvergenceError, match=r"spectral_radius: .*comp:G\{1000,999,1001,"):
        spectral_radii(graphs)
    with pytest.raises(ValueError, match="^spectral_radius requires a connected graph"):
        spectral_radii([graph("111"), graph("1100")])


def test_quotient_at_the_class_limit():
    # a connected graph has an odd number of classes: 2047 is the most within 2048
    assert spectral.MAX_QUOTIENT_CLASSES == 2048
    g = from_composition([1] * 2047)
    assert len(g.runs) == 2047
    assert bound_report(g).sandwich_ok


@pytest.mark.parametrize("routine", [spectral_radius, bound_report])
def test_quotient_over_the_class_limit_allocates_nothing_large(routine):
    g = from_composition([1] * (spectral.MAX_QUOTIENT_CLASSES + 1))
    message = "^spectral_radius: 2049 twin classes exceed the dense-quotient limit of 2048$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            routine(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # numpy's buffers are traced; the 2049 x 2049 quotient is 33 MB


def test_batch_refuses_a_graph_over_the_class_limit():
    graphs = [graph("111"), from_composition([1] * 2049), graph("1101")]
    with pytest.raises(ValueError, match="^spectral_radius: 2049 twin classes"):
        spectral_radii(graphs)


# random connected generating sequences with 2 <= n <= 60
sequences = st.lists(st.integers(0, 1), max_size=58).map(
    lambda middle: from_generating_sequence([1, *middle, 1])
)


@settings(max_examples=150, deadline=None)
@given(sequences)
def test_quotient_radius_matches_dense_eigvalsh(g):
    dense = float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-1])
    assert spectral_radius(g) == pytest.approx(dense, rel=1e-12)


# ---------------------------------------------------------------------------
# the root route: rho as the greatest root of r(y) = det(yI - Q_A), from Hong's bound
# ---------------------------------------------------------------------------


def _taylor_shift(coefficients, shift):
    """The descending coefficients of p(y + shift), by repeated synthetic division."""
    shifted = list(coefficients)
    degree = len(shifted) - 1
    for i in range(degree):
        for j in range(1, degree + 1 - i):
            shifted[j] += shift * shifted[j - 1]
    return tuple(shifted)


def _root_route(g):
    """(value, low, high) of rho on the root route, from the per-graph stage of the kernel."""
    r = walks._characteristic_polynomial(g.runs, 0)
    start = spectral._hong_start(2 * g.m - g.n + 1)
    columns, fault = spectral._scalar_roots([r], [start])
    assert fault is None
    (value,), (low,), (high,), _ = columns
    return value, low, high


def test_r_is_the_taylor_shift_of_the_walk_quotients_q():
    count = 0
    for n in range(1, 13):
        for g in connected_graphs(n):
            q = walks._characteristic_polynomial(g.runs)
            assert walks._characteristic_polynomial(g.runs, 0) == _taylor_shift(q, 1)
            count += 1
    assert count == 2048


def test_certified_bracket_holds_rho_and_the_dense_eigvalsh():
    # the bracket is proven by an independent exact test; eigvalsh of the n x n adjacency is
    # itself off by up to 10 ulps at n = 12 (a backward-stable solver errs by about n ulps)
    worst = 0.0
    for n in range(1, 13):
        graphs = connected_graphs(n)
        for g, rho in zip(graphs, spectral_radii(graphs)):
            value, low, high = _root_route(g)
            assert rho == value and low < value < high
            assert high - low == 2 * math.ulp(value)  # the first bracket, one ulp each side
            assert proves_greatest_root(walks._characteristic_polynomial(g.runs, 0), low, high)
            dense = float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-1])
            off = max(low - dense, dense - high, 0.0) / math.ulp(value) if value else 0.0
            assert off <= 2 * n, g
            worst = max(worst, off)
    assert worst > 0  # eigvalsh is not the certified value: the check compares two routes


def _radii_forced(graphs, batch_min):
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(spectral, "_RADII_BATCH_MIN", batch_min)
        warnings.simplefilter("error")  # no numpy warning may reach stderr
        return [rho.hex() for rho in spectral_radii(graphs)]


def test_radii_batch_equals_single_on_both_newton_stages():
    """The int64 pass with lock-step Newton and the per-graph stage: the same bits, n <= 12."""
    cells = 0
    for n in range(1, 13):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            if not census:
                continue
            alone = [spectral_radius(g).hex() for g in census]
            assert _radii_forced(census, 1) == alone
            assert _radii_forced(census, len(census) + 1) == alone
            cells += 1
    assert cells == 232


# the 9-block graph has r below 2^63 but a product of s + 2 over 2^62, so the int64 pass leaves
# it to the exact one, as it leaves every graph of 40 or more runs
_FLAGGED_BUT_BELOW = from_composition([100] * 9)


def _assert_int64_pass_is_the_scalar_pass(graphs):
    rooted, integers, degrees = spectral._adjacency_polynomials(graphs)
    top = len(integers) - 1
    polynomials = [walks._characteristic_polynomial(g.runs, 0) for g in graphs]
    assert rooted == [i for i, r in enumerate(polynomials) if r is not None]
    for j, i in enumerate(rooted):
        assert tuple(integers[top - degrees[j] :, j].tolist()) == polynomials[i]
        assert not integers[: top - degrees[j], j].any()  # padded with leading zeros


def test_int64_pass_equals_the_scalar_pass():
    for n in range(1, 17):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            if census:
                _assert_int64_pass_is_the_scalar_pass(census)
    for cell in [(20, 127), (26, 130)]:
        _assert_int64_pass_is_the_scalar_pass(enumerate_threshold_graphs(*cell))
    assert walks._characteristic_polynomial(_FLAGGED_BUT_BELOW.runs, 0) is not None
    alternating = [from_composition([1] * k) for k in (39, 41, 81, 83)]
    mixed = [graph("111"), _DENSE_7, _FLAGGED_BUT_BELOW, *alternating]
    _assert_int64_pass_is_the_scalar_pass(mixed + enumerate_threshold_graphs(14, 40))
    assert spectral._adjacency_polynomials(mixed)[0] == [0, 2, 3, 4, 5]
    assert spectral._adjacency_polynomials(alternating[2:])[0] == [0]


_ALTERNATING_201 = from_composition([1] * 201)


def test_graphs_past_2_to_the_63_keep_the_eigh_value():
    # the dense route's value for the 201-class alternating graph, alone and inside a census
    assert walks._characteristic_polynomial(_ALTERNATING_201.runs, 0) is None
    expected = float.fromhex("0x1.fdd7b02a08aaap+6")  # 127.46063295057198
    assert spectral_radius(_ALTERNATING_201) == expected
    census = enumerate_threshold_graphs(20, 127)
    assert spectral_radii(census[:1000] + [_ALTERNATING_201] + census[1000:])[1000] == expected
    # up to 81 classes the alternating graph takes the root route, from 83 the dense one
    assert walks._characteristic_polynomial((1,) * 81, 0) is not None
    assert walks._characteristic_polynomial((1,) * 83, 0) is None


@pytest.mark.parametrize(
    "blocks",
    [
        [300, 99000, 700],
        [1, 4820, 991628, 3550, 1],
        [1, 2769, 988631, 8598, 1],
        [3, 5, 5, 2, 4],
        [1] * 21,
        [7, 1, 30, 2, 2, 9, 1, 1, 5, 40, 3],
        [1000, 998, 1000],
        [2, 1, 400, 17, 3, 60, 9],
    ],
)
def test_bracket_holds_the_50_digit_greatest_root_of_r(blocks):
    from mpmath import mp, mpf, polyroots

    g = from_composition(blocks)
    r = walks._characteristic_polynomial(g.runs, 0)
    value, low, high = _root_route(g)
    assert spectral_radius(g) == value
    with mp.workdps(50):
        roots = polyroots(r, maxsteps=400, extraprec=400)
        rho = max(root.real for root in roots if abs(root.imag) < mpf(10) ** -30)
        assert mpf(low) < rho < mpf(high)


def _failing_certificates(monkeypatch, graphs):
    """No bracket is proven in floats, and the exact test fails for r of these graphs."""
    failing = {walks._characteristic_polynomial(g.runs, 0) for g in graphs}
    certified = spectral._certified
    monkeypatch.setattr(
        spectral, "_proven", lambda c, d, x: (np.zeros(len(x), dtype=bool), x, x)
    )
    monkeypatch.setattr(
        spectral,
        "_certified",
        lambda p, low, high: p not in failing and certified(p, low, high),
    )


@pytest.mark.parametrize("batch_min", [1, 10**9])
def test_a_failed_certificate_names_the_first_failing_graph(monkeypatch, batch_min):
    monkeypatch.setattr(spectral, "_RADII_BATCH_MIN", batch_min)
    first, second = graph("1110000011111001111"), graph("1101")
    _failing_certificates(monkeypatch, [first, second])
    message = r"^spectral_radius: no certified bracket within 2\^16 ulps .*comp:G\{3,5,5,2,4\}"
    with pytest.raises(ConvergenceError, match=message):
        spectral_radii([graph("111"), first, second])
    with pytest.raises(ConvergenceError, match=r"comp:G\{2,1,1\}"):
        spectral_radii([second, graph("111"), first])
    # with the dense route's residual failing too, the first failing graph in input order
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    with pytest.raises(ConvergenceError, match=r"quotient residual .*comp:G\{1000,1000,"):
        spectral_radii([graph("111"), _DENSE_7, first])
    with pytest.raises(ConvergenceError, match=r"no certified bracket .*comp:G\{3,5,5,2,4\}"):
        spectral_radii([graph("111"), first, _DENSE_7])


# ---------------------------------------------------------------------------
# closed forms at n = 10^5, where a dense n x n matrix would need 80 GB
# ---------------------------------------------------------------------------

BIG_N = 100_000


def test_star_radius_at_scale():
    g = graph("1" + "0" * (BIG_N - 2) + "1")
    assert spectral_radius(g) == pytest.approx(math.sqrt(BIG_N - 1), rel=1e-12)


def test_complete_graph_radius_at_scale():
    assert spectral_radius(graph("1" * BIG_N)) == pytest.approx(BIG_N - 1, rel=1e-12)


@pytest.mark.parametrize("c", [2, 37, BIG_N // 2, BIG_N - 1])
def test_complete_split_graph_radius_at_scale(c):
    # K_c joined to an independent set of n - c vertices
    g = graph("1" + "0" * (BIG_N - c - 1) + "1" * c)
    rho = ((c - 1) + math.sqrt((c - 1) ** 2 + 4 * c * (BIG_N - c))) / 2
    assert spectral_radius(g) == pytest.approx(rho, rel=1e-12)


# ---------------------------------------------------------------------------
# greatest_real_root
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs, message",
    [
        pytest.param((), "polynomial needs at least one coefficient", id="coeffs0"),
        pytest.param((0, 1), "leading coefficient must be positive, got 0", id="coeffs1"),
        pytest.param((-1, 2), "leading coefficient must be positive, got -1", id="coeffs2"),
        pytest.param(
            (1.0, -2.0), r"coefficients must be integers, got \(1\.0, -2\.0\)", id="coeffs4"
        ),
    ],
)
def test_polynomial_rejects_bad_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        greatest_real_root(coeffs)


@pytest.mark.parametrize("coeffs, index", [((1, -(10**400)), 1), ((10**400, -1), 0)])
def test_polynomial_rejects_coefficients_beyond_float_range(coeffs, index):
    # Newton and the Fujiwara bound work in floats, which these overflow
    with pytest.raises(ValueError, match=f"^coefficient {index} .* beyond float range"):
        greatest_real_root(coeffs)


def test_root_of_cubic_with_complex_pair():
    # (x - 2)(x^2 + 1)
    coeffs = (1, -2, 1, -2)
    res = greatest_real_root(coeffs)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    _assert_certificate(coeffs, res)


def test_root_of_linear():
    res = greatest_real_root((2, -7))
    assert res.value == pytest.approx(3.5, abs=1e-9)
    _assert_certificate((2, -7), res)


def test_rightmost_root_among_several():
    cases = [
        # (x - 1)(x - 3)(x^2 + 1)
        ((1, -4, 4, -4, 3), 3.0),
        # x^3 has a triple root at 0, a sign change all the same
        ((1, 0, 0, 0), 0.0),
    ]
    for coeffs, root in cases:
        res = greatest_real_root(coeffs)
        assert res.value == pytest.approx(root, abs=1e-9)
        _assert_certificate(coeffs, res)


def test_hint_below_picks_root_above_hint():
    # the root finder takes no hint: from any point below the greatest root,
    # with other real roots in between, the bisection oracle and the
    # certified root must agree on the greatest one
    cases = [
        # roots 1 and 3; a hint between them lands on 3
        ((1, -4, 4, -4, 3), 2.0, 3.0),
        # roots 1, 2, 3, 4; p(1.5) < 0 with three roots above the hint
        ((1, -10, 35, -50, 24), 0.0, 4.0),
        ((1, -10, 35, -50, 24), 1.5, 4.0),
        ((1, -10, 35, -50, 24), 2.5, 4.0),
        ((1, -10, 35, -50, 24), 3.5, 4.0),
    ]
    for coeffs, hint, root in cases:
        res = greatest_real_root(coeffs)
        assert res.value == pytest.approx(root, abs=1e-9)
        assert res.value > hint
        assert abs(res.value - bisection_root(coeffs, hint)) <= 1e-12
        _assert_certificate(coeffs, res)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 0, 1),  # x^2 + 1: no real root
        (1, 0, 2, 0, 1),  # (x^2 + 1)^2
        (1, -4, 4),  # (x - 2)^2: the greatest root has no sign change
        (5,),  # a positive constant
    ],
)
def test_no_certified_root_fails_loudly(coeffs):
    with pytest.raises(ConvergenceError, match=r"greatest_real_root.*coefficients"):
        greatest_real_root(coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, -int(sys.float_info.max)),  # the bracket one ulp above the root is inf
        (1, 0, -(10**308)),  # Newton squares 1.4e154 from the Fujiwara bound
    ],
)
def test_float_overflow_is_a_convergence_error(coeffs):
    with pytest.raises(ConvergenceError, match=rf"greatest_real_root: .*{re.escape(str(coeffs))}"):
        greatest_real_root(coeffs)


def test_certificate_agrees_with_bisection_oracle():
    # the roots the package needs, checked against the old float path
    for coeffs, hint, cap in [
        ((1, -4, 3, -1), 3.0, None),
        ((1, -4, 0, 4), 3.0, None),
        ((1, 0, -6, -4, 2), 0.0, 4.0),
        ((2, -2, -13, -8, 1), 0.0, 5.0),
        ((1, -4, 4, -4, 3), 2.0, None),
        ((1, -10, 35, -50, 24), 1.5, None),
    ]:
        res = greatest_real_root(coeffs)
        assert abs(res.value - bisection_root(coeffs, hint, cap)) <= 1e-12


def _product(factors):
    """Descending integer coefficients of the product of descending factors."""
    coeffs = (1,)
    for factor in factors:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = tuple(out)
    return coeffs


@st.composite
def _factored(draw):
    """Distinct rational linear factors d x - n, and up to degree 8 irreducible x^2 + b x + c.

    The roots are the 25 rationals in [-3, 3] with denominator at most 3.
    Every product of 1 to 8 of them certifies: all 1,807,780 were run.
    Closer roots ill-condition p until float Newton stops beyond the
    widest bracket tried, as 20.85 does among 20.7, 20.8125 and 20.818.
    """
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    roots = draw(st.lists(rational, min_size=1, max_size=8, unique=True))
    irreducible = st.tuples(st.integers(-20, 20), st.integers(1, 400)).filter(
        lambda q: q[0] ** 2 < 4 * q[1]
    )
    quadratics = draw(st.lists(irreducible, max_size=(8 - len(roots)) // 2))
    factors = [(r.denominator, -r.numerator) for r in roots] + [(1, b, c) for b, c in quadratics]
    return _product(factors), max(roots), bool(quadratics)


@settings(max_examples=300, deadline=None)
@given(_factored())
def test_every_bracket_contains_the_greatest_real_root(case):
    # a real-rooted product always certifies; with complex factors Newton may stop
    # elsewhere and raise, but a bracket it returns is proven all the same
    coeffs, root, complex_factors = case
    try:
        res = greatest_real_root(coeffs)
    except ConvergenceError:
        assert complex_factors
        return
    assert Fraction(res.bracket_low) < root < Fraction(res.bracket_high)
    assert proves_greatest_root(coeffs, res.bracket_low, res.bracket_high)


@pytest.mark.parametrize(
    "coeffs",
    [
        (2**52, -(2**53 - 1)),  # the root is the float below 2, and its bracket ends at 2.0
        (1, -(2**1000)),
        (2**1000, -1),
    ],
)
def test_certificate_across_binade_edges(coeffs):
    res = greatest_real_root(coeffs)
    _assert_certificate(coeffs, res)
    if coeffs[0] == 2**52:
        # the bracket ends have different power-of-two denominators
        assert res.bracket_high == 2.0
        assert res.bracket_low.as_integer_ratio()[1] == 2**51
    _assert_batch_is_scalar([coeffs])


def test_greatest_root_of_the_walk_quotient_is_one_plus_rho():
    # q of every connected graph with n <= 12 (degrees 1 to 11) against eigh
    count = 0
    for n in range(1, 13):
        graphs = list(connected_graphs(n))
        for g, rho in zip(graphs, spectral_radii(graphs)):
            res = greatest_real_root(walks._characteristic_polynomial(g.runs))
            assert abs(rho + 1.0 - res.value) <= 16 * math.ulp(res.value)
            count += 1
    assert count == 2048


def _assert_certificate(coeffs, res):
    assert res.bracket_low < res.value < res.bracket_high
    assert res.bracket_high - res.bracket_low <= 1e-9 * max(1.0, abs(res.value))
    assert proves_greatest_root(coeffs, res.bracket_low, res.bracket_high)


# ---------------------------------------------------------------------------
# greatest_real_roots: the lock-step stage is the per-polynomial stage, bit for bit
# ---------------------------------------------------------------------------


def _outcome(call):
    """Each root's fields in hex, or the type and message of the exception raised."""
    try:
        results = call()
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return [
        (r.value.hex(), r.bracket_low.hex(), r.bracket_high.hex(), r.steps) for r in results
    ]


def _assert_batch_is_scalar(polynomials):
    """One batch through the lock-step and the per-polynomial Newton stage: the same outcome."""
    outcomes = []
    for batch_min in (1, len(polynomials) + 1):
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            patch.setattr(spectral, "_BATCH_MIN", batch_min)
            warnings.simplefilter("error")  # no numpy warning may reach stderr
            outcomes.append(_outcome(lambda: greatest_real_roots(polynomials)))
    lockstep, per_polynomial = outcomes
    assert lockstep == per_polynomial
    return lockstep


def _contract(polynomials):
    """A batch's outcome, from each polynomial's own.

    Every root; else the first ``ValueError``, since every polynomial is
    checked before Newton; else the first ``ConvergenceError``.
    """
    alone = [_outcome(lambda: [greatest_real_root(p)]) for p in polynomials]
    for error in (ValueError, ConvergenceError):
        for outcome in alone:
            if outcome[0] is error:
                return outcome
    return [row for (row,) in alone]


def _census_polynomials(n_max):
    """The three bound polynomials of every (c, F_1) class, census by census, for n <= n_max."""
    polynomials = []
    for n in range(4, n_max + 1):
        for m in range(math.comb(n, 2) + 1):
            seen = set()
            for g in enumerate_threshold_graphs(n, m):
                try:
                    inputs = _bound_inputs(g)
                except PreconditionError:
                    continue
                if inputs not in seen:
                    seen.add(inputs)
                    polynomials += _polynomials(inputs)
    return polynomials


def test_batch_equals_scalar_on_every_census_class_polynomial():
    polynomials = _census_polynomials(14)
    assert len(polynomials) > 10_000
    assert _assert_batch_is_scalar(polynomials) == _contract(polynomials)
    # slices just below and at the default lock-step size, some padded to a narrower width
    for size in (spectral._BATCH_MIN - 1, spectral._BATCH_MIN):
        for start in range(0, len(polynomials) - size, 997):
            _assert_batch_is_scalar(polynomials[start : start + size])


_wide = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**300), 10**300))
_leading = st.one_of(st.integers(1, 10**6), st.integers(-1, 10**300))  # -1, 0: ValueError
_up_to_degree_8 = st.lists(
    st.tuples(_leading, st.lists(_wide, min_size=1, max_size=8)).map(lambda p: (p[0], *p[1])),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(_up_to_degree_8)
def test_batch_equals_scalar_on_drawn_cubics_and_quartics(polynomials):
    assert _assert_batch_is_scalar(polynomials) == _contract(polynomials)


@pytest.mark.parametrize(
    "polynomials, error",
    [
        ([(1, -3, 2, -7), (1, 0, 1), (0, 1)], ValueError),  # no real root, then bad lead
        ([(1, -3, 2, -7), (0, 1), (1, 0, 1)], ValueError),
        ([(1, -3, 2, -7), (1, 0, 1), (1, 0, 2, 0, 1)], ConvergenceError),
        ([(1, -3, 2, -7), (5,), (1, -(10**400))], ValueError),  # degree 0, then beyond floats
        ([(1, -3, 2, -7), (1, 0, -(10**308)), (2, -7)], ConvergenceError),  # Newton overflows
    ],
)
def test_batch_raises_the_first_failure_in_input_order(polynomials, error):
    # a malformed polynomial raises before any Newton step, so before an uncertified one
    # that comes earlier; without one, the first uncertified polynomial raises.  Each batch
    # runs below and from _BATCH_MIN, and is also padded to the default lock-step size
    for batch in (polynomials, [(1, -3, 2, -7)] * spectral._BATCH_MIN + polynomials):
        outcome = _assert_batch_is_scalar(batch)
        assert outcome[0] is error
        assert outcome == _contract(batch)


# ---------------------------------------------------------------------------
# the array proof: whatever it accepts, the exact certificate proves
# ---------------------------------------------------------------------------


def _proof_rows(polynomials, shift=0, centres=None):
    """(polynomial, low, high, accepted) of ``spectral._proven`` on one batch.

    Each bracket is one ulp either side of a centre moved ``shift`` ulps;
    the centres are the lock-step Newton values unless given.
    """
    coefficients = spectral._padded(polynomials)
    if centres is None:
        starts = [spectral._newton_start(p) for p in polynomials]
        centres = spectral._lockstep_newton(coefficients, starts)[0]
    x = centres
    for _ in range(abs(shift)):
        x = np.nextafter(x, math.copysign(math.inf, shift))
    degrees = np.array([len(p) - 1 for p in polynomials])
    proven, low, high = spectral._proven(coefficients, degrees, x)
    return list(zip(polynomials, low.tolist(), high.tolist(), proven.tolist()))


_CLOSE_ROOTS = _product([(10, -207), (11, -229), (13, -268), (16, -333), (20, -417)])
_near_2_53 = st.integers(2**53 - 3, 2**53 + 3).flatmap(lambda a: st.sampled_from([a, -a]))


@st.composite
def _proof_cases(draw):
    """An integer polynomial of degree 1 to 8 and a point to probe, from one family per draw.

    Small coefficients; coefficients near +-2^53; a real root times
    complex pairs; a repeated rational root, where p and its low
    derivatives vanish together; products of close rationals like
    ``_CLOSE_ROOTS``'s.  The probe is the float nearest a rational root,
    where p is worst conditioned, else 1.
    """
    family = draw(st.sampled_from(["small", "near 2^53", "complex", "repeated", "close"]))
    degree = draw(st.integers(1, 8))
    entries = st.lists(st.integers(-20, 20), min_size=degree, max_size=degree)
    if family == "small":
        return (draw(st.integers(1, 20)), *draw(entries)), 1.0
    if family == "near 2^53":
        entry = st.one_of(st.integers(-50, 50), _near_2_53)
        entries = st.lists(entry, min_size=degree, max_size=degree)
        return (draw(st.sampled_from([1, 3, 2**52, 2**53 - 1])), *draw(entries)), 1.0
    if family == "complex":
        irreducible = st.tuples(st.integers(-20, 20), st.integers(1, 400)).filter(
            lambda q: q[0] ** 2 < 4 * q[1]
        )
        pairs = draw(st.lists(irreducible, min_size=1, max_size=max(1, (degree - 1) // 2)))
        root = draw(st.integers(-10, 10))
        return _product([(1, -root)] + [(1, b, c) for b, c in pairs]), float(root)
    if family == "repeated":
        root = draw(st.fractions(min_value=-30, max_value=30, max_denominator=7))
        factors = [(root.denominator, -root.numerator)] * max(2, degree - 1)
        return _product(factors + [(1, -draw(st.integers(-40, 40)))]), float(root)
    centre = draw(st.fractions(min_value=-30, max_value=30, max_denominator=20))
    offsets = st.fractions(min_value=-1, max_value=1, max_denominator=40)
    near = offsets.map(lambda r: centre + r)
    roots = draw(st.lists(near, min_size=degree, max_size=degree, unique=True))
    return _product([(r.denominator, -r.numerator) for r in roots]), float(max(roots))


@settings(max_examples=300, deadline=None)
@given(st.lists(_proof_cases(), min_size=1, max_size=12), st.integers(-4, 4))
def test_array_proof_accepts_only_certified_brackets(cases, shift):
    # at each Newton value and at each probe, moved by the same 0 to 4 ulps; a batch is tried
    # only below its 2^53 bound, so each polynomial is tried alone too
    polynomials = [_CLOSE_ROOTS, *(p for p, _ in cases)]
    probes = [20.85, *(probe for _, probe in cases)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _proof_rows(polynomials, shift) + _proof_rows(polynomials, shift, np.array(probes))
        for p, probe in zip(polynomials, probes):
            rows += _proof_rows([p], shift) + _proof_rows([p], shift, np.array([probe]))
    for p, low, high, accepted in rows:
        if accepted:
            assert spectral._certified(p, low, high)


def _rho_batch(n, m):
    """r of each graph of a census, sorted by degree: padded floats, degrees, Newton values."""
    census = sorted(enumerate_threshold_graphs(n, m), key=lambda g: len(g.runs))
    polynomials = [walks._characteristic_polynomial(g.runs, 0) for g in census]
    coefficients = spectral._padded(polynomials)
    starts = [spectral._hong_start(2 * g.m - g.n + 1) for g in census]
    x = spectral._lockstep_newton(coefficients, starts)[0]
    return coefficients, np.array([len(p) - 1 for p in polynomials]), x


def test_proof_chunks_give_the_flags_each_chunk_gives_alone(monkeypatch):
    # rows sorted by degree are chunked in order, so each chunk is a slice of the batch
    coefficients, degrees, x = _rho_batch(20, 127)
    for rows in (spectral._PROOF_ROWS, 97):
        monkeypatch.setattr(spectral, "_PROOF_ROWS", rows)
        assert len(x) > 2 * rows
        whole = spectral._proven(coefficients, degrees, x)
        chunks = [slice(at, at + rows) for at in range(0, len(x), rows)]
        alone = [spectral._proven(coefficients[:, c], degrees[c], x[c]) for c in chunks]
        for got, parts in zip(whole, zip(*alone)):
            assert np.array_equal(got, np.concatenate(parts))
        assert whole[0].all()  # every rho bracket of the census is proven in floats


def test_proof_memory_is_bounded_by_the_chunk():
    coefficients, degrees, x = _rho_batch(20, 127)
    tracemalloc.start()
    try:
        spectral._proven(coefficients, degrees, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2,860 rows of degree up to 15 in chunks of 512 peak at 1.8 MB; at once they took 12 MB
    assert peak < 4 * 2**20


def test_array_proof_leaves_repeated_roots_to_the_exact_certificate():
    # p and its low Taylor coefficients vanish together at (d x - n)^k, so rounding hides
    # their signs within 4 ulps of the root, and the error bounds must refuse every bracket
    polynomials, centres = [], []
    for d in range(1, 8):
        for n in range(-60, 60):
            if math.gcd(n, d) == 1:
                for k in range(2, 9):
                    for lower in ([], [(1, 50)]):
                        polynomials.append(_product([(d, -n)] * k + lower))
                        centres.append(n / d)
    assert len(polynomials) == 7826
    for shift in range(-4, 5):
        rows = _proof_rows(polynomials, shift, np.array(centres))
        assert not any(accepted for _, _, _, accepted in rows)


def test_close_rational_roots_raise_the_same_error_on_both_paths():
    # Newton stops more than 2^16 ulps from 20.85, beside 20.7, 20.8125 and 20.818
    outcome = _assert_batch_is_scalar([_CLOSE_ROOTS])
    assert outcome[0] is ConvergenceError
    assert _assert_batch_is_scalar([_CLOSE_ROOTS] * spectral._BATCH_MIN) == outcome


def test_array_proof_accepts_exactly_the_one_ulp_certificates_of_the_census():
    polynomials = _census_polynomials(14)
    rows = _proof_rows(polynomials)
    accepted = [accepted for _, _, _, accepted in rows]
    certified = [spectral._certified(p, low, high) for p, low, high, _ in rows]
    assert accepted == certified
    assert (len(rows), sum(accepted)) == (17_361, 17_342)


def test_batches_beyond_the_error_bounds_take_the_exact_path():
    # 2^53 + 1 rounds to 2^53 as a float; 2^53 - 1 is exact, but C(2, 1) 2^52 = 2^53 is
    # not; at degree 21 the values near 1 lie on a grid of 2^-(21 * 53), below subnormals
    polynomials = [
        (1, -(2**53 + 1)),
        (1, -(2**53 - 1)),
        (2**52, 0, -(2**52)),
        _product([(1, -1), (1, *(0,) * 19, 1)]),
    ]
    alone = [_proof_rows([p])[0] for p in polynomials]
    assert [accepted for _, _, _, accepted in alone] == [False, True, False, False]
    assert all(spectral._certified(p, low, high) for p, low, high, _ in alone)
    # one row at or beyond 2^53 leaves its whole batch to the exact certificate
    assert not any(accepted for _, _, _, accepted in _proof_rows(polynomials))
    batch = polynomials * spectral._BATCH_MIN
    assert _assert_batch_is_scalar(batch) == _contract(batch)


@pytest.mark.parametrize(
    "odd",
    [
        (1, *(0,) * 1099, -1),  # C(1100, 550) is beyond float range
        (1, 10**308, 0, -1),  # C(2, 1) 10^308 is too
        (1, *(0,) * 56, -2),  # C(57, 28) 1 >= 2^53: the widest table is 57 x 55
    ],
    ids=["degree 1100", "coefficient 10^308", "degree 57"],
)
def test_batches_with_huge_binomial_multiples_skip_the_array_proof(odd):
    batch = [odd] + [(1, 0, -2)] * (spectral._BATCH_MIN - 1)
    assert not any(accepted for _, _, _, accepted in _proof_rows(batch))
    assert _assert_batch_is_scalar(batch) == _contract(batch)


# ---------------------------------------------------------------------------
# spectral F_p routes
# ---------------------------------------------------------------------------


def test_spectral_fp_matches_integer_routes():
    for n in range(2, 7):
        for g in connected_graphs(n):
            for p in range(0, 5):
                exact = fp_via_one_overlap(g, p)
                approx = fp_spectral_fop(g, p)
                assert approx == pytest.approx(exact, rel=1e-6, abs=1e-6)
            for p in range(1, 5):
                exact = fp_via_min_products(g, p)
                assert fp_spectral_bzp(g, p) == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_spectral_fp_reference_case():
    g = graph("110101")
    assert to_bzp(g) == (2, 1)
    assert fp_spectral_bzp(g, 3) == pytest.approx(34.0, rel=1e-9)


def test_spectral_fp_zero_of_ones_count():
    # p = 0 counts single type-1 vertices regardless of structure
    for bits in ("1101", "10101", "1111", "11011"):
        g = graph(bits)
        assert fp_spectral_fop(g, 0) == pytest.approx(float(g.c), rel=1e-9)


def test_spectral_fp_domain_errors():
    with pytest.raises(ValueError):
        fp_spectral_bzp(graph("10101"), 0)
    with pytest.raises(ValueError):
        fp_spectral_fop(graph("10101"), -1)


def test_spectral_fp_without_type0_vertices_is_zero():
    assert fp_spectral_bzp(from_bzp(4, ()), 1) == 0.0
    assert fp_spectral_bzp(from_bzp(4, ()), 3) == 0.0

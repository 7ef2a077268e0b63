"""Eigenvalue machinery: the block quotient, overlap spectra, root isolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_spectra import (
    ConvergenceError,
    Polynomial,
    adjacency_matrix,
    fp_spectral_bzp,
    fp_spectral_fop,
    fp_via_min_products,
    fp_via_one_overlap,
    from_generating_sequence,
    greatest_real_root,
    perron_vector,
    spectral_radius,
    to_bzp,
    to_fop,
)
from threshold_spectra import spectral
from conftest import connected_graphs, graph


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
    for routine in (spectral_radius, perron_vector):
        with pytest.raises(ValueError, match=f"^{routine.__name__} requires a connected graph"):
            routine(graph("1100"))


def test_unreachable_tol_names_routine_and_graph(monkeypatch):
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    g = graph("1110000011111001111")
    with pytest.raises(ConvergenceError, match=r"spectral_radius: .*comp:G\{3,5,5,2,4\}"):
        spectral_radius(g)


# random connected generating sequences with 2 <= n <= 60
sequences = st.lists(st.integers(0, 1), max_size=58).map(
    lambda middle: from_generating_sequence([1, *middle, 1])
)


@settings(max_examples=150, deadline=None)
@given(sequences)
def test_quotient_radius_matches_dense_eigvalsh(g):
    dense = float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-1])
    assert spectral_radius(g) == pytest.approx(dense, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(sequences)
def test_quotient_perron_vector_is_an_eigenvector(g):
    v = perron_vector(g)
    rho = spectral_radius(g)
    a = adjacency_matrix(g).astype(float)
    assert v.shape == (g.n,)
    assert np.all(v > 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(v) <= 1e-12)
    assert np.max(np.abs(a @ v - rho * v)) <= 1e-10


# ---------------------------------------------------------------------------
# closed forms at n = 10^5, where a dense n x n matrix would need 80 GB
# ---------------------------------------------------------------------------

BIG_N = 100_000


def test_star_radius_at_scale():
    g = graph("1" + "0" * (BIG_N - 2) + "1")
    assert spectral_radius(g) == pytest.approx(math.sqrt(BIG_N - 1), rel=1e-12)
    v = perron_vector(g)
    assert v.shape == (BIG_N,)
    assert v[0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert np.allclose(v[1:], 1 / math.sqrt(2 * (BIG_N - 1)), rtol=1e-12, atol=0.0)


def test_complete_graph_radius_at_scale():
    assert spectral_radius(graph("1" * BIG_N)) == pytest.approx(BIG_N - 1, rel=1e-12)


@pytest.mark.parametrize("c", [2, 37, BIG_N // 2, BIG_N - 1])
def test_complete_split_graph_radius_at_scale(c):
    # K_c joined to an independent set of n - c vertices
    g = graph("1" + "0" * (BIG_N - c - 1) + "1" * c)
    rho = ((c - 1) + math.sqrt((c - 1) ** 2 + 4 * c * (BIG_N - c))) / 2
    assert spectral_radius(g) == pytest.approx(rho, rel=1e-12)


# ---------------------------------------------------------------------------
# perron_vector
# ---------------------------------------------------------------------------


def test_perron_vector_properties():
    for n in range(2, 8):
        for g in connected_graphs(n):
            v = perron_vector(g)
            rho = spectral_radius(g)
            a = adjacency_matrix(g).astype(float)
            assert v.shape == (g.n,)
            assert np.all(v > 0.0)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(a @ v - rho * v)) <= 1e-8
            # canonical order sorts degrees nonincreasing; weights follow
            assert np.all(np.diff(v) <= 1e-10)


def test_perron_vector_complete_graph_is_uniform():
    v = perron_vector(graph("11111"))
    assert np.allclose(v, np.full(5, 1 / math.sqrt(5)), atol=1e-10)


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


def test_polynomial_evaluates_like_polyval():
    rng = np.random.default_rng(7)
    for degree in range(0, 5):
        coeffs = rng.normal(size=degree + 1)
        coeffs[0] = abs(coeffs[0]) + 0.5
        poly = Polynomial(tuple(coeffs))
        assert poly.degree == degree
        for x in rng.normal(scale=3.0, size=6):
            assert poly(float(x)) == pytest.approx(
                float(np.polyval(coeffs, x)), rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize(
    "coeffs",
    [(), (0.0, 1.0), (-1.0, 2.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
)
def test_polynomial_rejects_bad_coefficients(coeffs):
    with pytest.raises(ValueError):
        Polynomial(coeffs)


def test_magnitude_scale_dominates_value():
    poly = Polynomial((1.0, -4.0, 0.0, 4.0))
    for x in (-3.0, 0.0, 0.7, 2.5, 10.0):
        assert poly.magnitude_scale(x) >= max(1.0, abs(poly(x)))


# ---------------------------------------------------------------------------
# greatest_real_root
# ---------------------------------------------------------------------------


def test_root_of_cubic_with_complex_pair():
    # (x - 2)(x^2 + 1); the second hint is the root itself
    poly = Polynomial((1.0, -2.0, 1.0, -2.0))
    for hint in (0.0, 2.0):
        res = greatest_real_root(poly, hint)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        _assert_certificate(poly, res)


def test_root_of_linear():
    res = greatest_real_root(Polynomial((2.0, -7.0)))
    assert res.value == pytest.approx(3.5, abs=1e-9)


def test_rightmost_root_among_several():
    # (x - 1)(x - 3)(x^2 + 1)
    poly = Polynomial((1.0, -4.0, 4.0, -4.0, 3.0))
    plain = greatest_real_root(poly)
    assert plain.value == pytest.approx(3.0, abs=1e-9)
    capped = greatest_real_root(poly, 0.0, bracket_high=4.0)
    assert capped.value == pytest.approx(3.0, abs=1e-9)
    _assert_certificate(poly, capped)
    # an understated cap still recovers the rightmost root by expansion
    low_cap = greatest_real_root(poly, 0.0, bracket_high=2.0)
    assert low_cap.value == pytest.approx(3.0, abs=1e-9)


def test_hint_above_all_roots_fails_loudly():
    poly = Polynomial((1.0, -2.0, 1.0, -2.0))
    with pytest.raises(ConvergenceError):
        greatest_real_root(poly, bracket_hint=10.0)


def test_hint_below_picks_root_above_hint():
    cases = [
        # roots 1 and 3; a hint between them lands on 3
        ((1.0, -4.0, 4.0, -4.0, 3.0), 2.0, 3.0),
        # roots 1, 2, 3, 4; p(1.5) < 0 with three roots above the hint
        ((1.0, -10.0, 35.0, -50.0, 24.0), 0.0, 4.0),
        ((1.0, -10.0, 35.0, -50.0, 24.0), 1.5, 4.0),
        ((1.0, -10.0, 35.0, -50.0, 24.0), 2.5, 4.0),
        ((1.0, -10.0, 35.0, -50.0, 24.0), 3.5, 4.0),
    ]
    for coeffs, hint, root in cases:
        poly = Polynomial(coeffs)
        res = greatest_real_root(poly, bracket_hint=hint)
        assert res.value == pytest.approx(root, abs=1e-9)
        _assert_certificate(poly, res)


def _assert_certificate(poly, res):
    assert res.bracket_low <= res.value <= res.bracket_high
    assert poly(res.bracket_low) <= 0.0 <= poly(res.bracket_high)
    assert res.residual <= 1e-9 * poly.magnitude_scale(res.value)


# ---------------------------------------------------------------------------
# spectral F_p routes
# ---------------------------------------------------------------------------


def test_spectral_fp_matches_integer_routes():
    for n in range(2, 7):
        for g in connected_graphs(n):
            fop = to_fop(g)
            for p in range(0, 5):
                exact = fp_via_one_overlap(fop, p)
                approx = fp_spectral_fop(fop, p)
                assert approx == pytest.approx(exact, rel=1e-6, abs=1e-6)
            if g.z == 0:
                continue
            bzp = to_bzp(g)
            for p in range(1, 5):
                exact = fp_via_min_products(bzp, p)
                assert fp_spectral_bzp(bzp, p) == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_spectral_fp_reference_case():
    bzp = to_bzp(graph("110101"))
    assert bzp.b == (2, 1)
    assert fp_spectral_bzp(bzp, 3) == pytest.approx(34.0, rel=1e-9)


def test_spectral_fp_zero_of_ones_count():
    # p = 0 counts single type-1 vertices regardless of structure
    for bits in ("1101", "10101", "1111", "11011"):
        g = graph(bits)
        assert fp_spectral_fop(to_fop(g), 0) == pytest.approx(float(g.c), rel=1e-9)


def test_spectral_fp_domain_errors():
    with pytest.raises(ValueError):
        fp_spectral_bzp(to_bzp(graph("10101")), 0)
    with pytest.raises(ValueError):
        fp_spectral_fop(to_fop(graph("10101")), -1)


def test_spectral_fp_without_type0_vertices_is_zero():
    from threshold_spectra import BzpSequence

    assert fp_spectral_bzp(BzpSequence(4, ()), 1) == 0.0
    assert fp_spectral_bzp(BzpSequence(4, ()), 3) == 0.0

"""Eigenvalue machinery: the block quotient, overlap spectra, root isolation."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_spectra import (
    ConvergenceError,
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
from threshold_spectra import spectral
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


def test_unreachable_tol_names_routine_and_graph(monkeypatch):
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    g = graph("1110000011111001111")
    with pytest.raises(ConvergenceError, match=r"spectral_radius: .*comp:G\{3,5,5,2,4\}"):
        spectral_radius(g)


def test_stacked_radii_equal_single_graph_radii():
    """Stacking quotients by k changes no bit of rho, on every cell with n <= 12."""
    for n in range(1, 13):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            assert spectral_radii(census) == [spectral_radius(g) for g in census]
    assert spectral_radii([]) == []


def test_batch_names_its_first_failing_graph(monkeypatch):
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    # k = 1 passes any bound, k = 5 and k = 3 fail it; groups sorted by k would name k = 3
    graphs = [graph("111"), graph("1110000011111001111"), graph("1101")]
    with pytest.raises(ConvergenceError, match=r"spectral_radius: .*comp:G\{3,5,5,2,4\}"):
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
        ((), "polynomial needs at least one coefficient"),
        ((0, 1), "leading coefficient must be positive, got 0"),
        ((-1, 2), "leading coefficient must be positive, got -1"),
        ((1, 0, 0, 0, 0, 0), "only degrees up to 4 are supported"),
        ((1.0, -2.0), r"coefficients must be integers, got \(1\.0, -2\.0\)"),
    ],
    ids=[f"coeffs{i}" for i in range(5)],
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


def _assert_certificate(coeffs, res):
    assert res.bracket_low < res.value < res.bracket_high
    assert res.bracket_high - res.bracket_low <= 1e-9 * max(1.0, abs(res.value))
    assert proves_greatest_root(coeffs, res.bracket_low, res.bracket_high)


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

"""Spectral-radius bounds: closed forms, cubics, and the degree inequality."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threshold_spectra import (
    PreconditionError,
    bound_report,
    enumerate_threshold_graphs,
    from_composition,
    from_generating_sequence,
    greatest_real_root,
    spectral_radius,
    to_bzp,
)
from threshold_spectra.identities import (
    inequality_check,
    inequality_polynomial,
    lower_cubic_polynomial,
    upper_cubic_polynomial,
)
from threshold_spectra.bounds import _GAP_NAMES, SANDWICH_TOL, _bound_classes, _bound_inputs
from threshold_spectra.cli import parse_graph_spec
from threshold_spectra.graph_model import _zero_classes
from threshold_spectra import bounds, spectral
from conftest import (
    bisection_root,
    class_reports,
    connected_graphs,
    graph,
    horner,
    magnitude_scale,
    proves_greatest_root,
)

PAW = graph("1101")
G10101 = graph("10101")
G11011 = graph("11011")


def applicable_graphs(n_range):
    for n in n_range:
        for g in connected_graphs(n):
            if g.c >= 3 and g.z >= 1:
                yield g


# ---------------------------------------------------------------------------
# closed-form lower bounds
# ---------------------------------------------------------------------------


def test_corollary_reference_values():
    assert bound_report(PAW).lower_corollary == pytest.approx(2.0625, abs=1e-12)
    assert bound_report(G10101).lower_corollary == pytest.approx(2.2, abs=1e-12)


def test_quadratic_reference_values():
    assert bound_report(PAW).lower_quadratic == pytest.approx((1 + math.sqrt(11)) / 2, abs=1e-12)
    assert bound_report(G10101).lower_quadratic == pytest.approx((1 + math.sqrt(19)) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic cubics
# ---------------------------------------------------------------------------


def test_cubic_coefficients():
    assert lower_cubic_polynomial(PAW) == (1, -4, 3, -1)
    assert upper_cubic_polynomial(PAW) == (1, -4, 2, 2)
    assert lower_cubic_polynomial(G10101) == (1, -4, 3, -5)
    assert upper_cubic_polynomial(G10101) == (1, -4, 0, 4)
    assert all(type(a) is int for a in upper_cubic_polynomial(G10101))


def test_lower_cubic_root_exceeds_c():
    for g in applicable_graphs(range(4, 9)):
        root = greatest_real_root(lower_cubic_polynomial(g)).value
        assert root > g.c
        assert bound_report(g).lower_cubic > g.c - 1


def test_upper_cubic_tight_when_single_type0_vertex():
    # with z = 1 the upper auxiliary sequence equals LW exactly, so the
    # cubic's shifted root reproduces rho itself
    for g in applicable_graphs(range(4, 8)):
        if g.z == 1:
            report = bound_report(g)
            assert report.upper_cubic == pytest.approx(report.rho, abs=1e-9)


# ---------------------------------------------------------------------------
# bound sandwich
# ---------------------------------------------------------------------------


def test_sandwich_on_corpus():
    for g in applicable_graphs(range(4, 9)):
        report = bound_report(g)
        assert report.applicable is True
        assert report.sandwich_ok is True
        rho = report.rho
        assert report.lower_corollary < rho
        assert report.lower_cubic <= rho + SANDWICH_TOL
        assert report.lower_quadratic <= rho + SANDWICH_TOL
        assert report.inequality_root <= rho + SANDWICH_TOL
        assert rho <= report.upper_cubic + SANDWICH_TOL


def test_report_gaps_are_consistent():
    report = bound_report(G10101)
    gaps = report.gaps
    assert set(gaps) == {
        "lower_cubic",
        "lower_corollary",
        "lower_quadratic",
        "upper_cubic",
        "inequality_root",
    }
    assert gaps["lower_cubic"] == pytest.approx(report.rho - report.lower_cubic, abs=1e-15)
    assert gaps["upper_cubic"] == pytest.approx(report.upper_cubic - report.rho, abs=1e-15)
    assert gaps["inequality_root"] == pytest.approx(
        report.rho - report.inequality_root, abs=1e-15
    )
    assert all(gap >= -SANDWICH_TOL for gap in gaps.values())


def _assert_sandwich_and_certificates(g):
    """sandwich_ok, rho <= upper_cubic, and every root proven and oracle-close."""
    report = bound_report(g)
    assert report.sandwich_ok is True
    assert report.rho <= report.upper_cubic + SANDWICH_TOL
    roots = (
        (lower_cubic_polynomial(g), float(g.c), None, report.lower_cubic + 1.0),
        (upper_cubic_polynomial(g), float(g.c), None, report.upper_cubic + 1.0),
        (inequality_polynomial(g), 0.0, report.rho + 1.0, report.inequality_root),
    )
    for poly, hint, cap, reported in roots:
        result = greatest_real_root(poly)
        assert result.value == reported
        assert result.bracket_low < result.value < result.bracket_high
        assert proves_greatest_root(poly, result.bracket_low, result.bracket_high)
        assert abs(result.value - bisection_root(poly, hint, cap)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=58))
def test_sandwich_and_certificates_on_random_sequences(middle):
    g = from_generating_sequence([1, *middle, 1])
    assume(g.c >= 3 and g.z >= 1)
    _assert_sandwich_and_certificates(g)


def test_sandwich_on_every_graph_up_to_14_vertices():
    checked = 0
    for g in applicable_graphs(range(4, 15)):
        report = bound_report(g)
        assert report.sandwich_ok is True, g.generating_string
        assert report.rho <= report.upper_cubic + SANDWICH_TOL, g.generating_string
        checked += 1
    assert checked == 8166  # 2^13 - 4 connected graphs, less 11 complete and 11 stars


@pytest.mark.parametrize(
    "blocks",
    [
        "G{700,600,700}",
        "G{400,300,500,400,400}",
        "G{1,998,1000,1}",
        "G{300,300,300,300,300,250,250}",
        "G{250,200,300,150,250,200,300,150,200}",
    ],
)
def test_sandwich_and_certificates_at_scale(blocks):
    g = parse_graph_spec("comp:" + blocks)
    assert 1990 <= g.n <= 2010 and g.c >= 3 and g.z >= 1
    _assert_sandwich_and_certificates(g)


def _ulps_from_rho(g, values):
    """How far each value lies above rho, in ulps of rho, with rho from mpmath at 60 digits.

    rho is the top eigenvalue of the symmetrised class quotient.
    """
    from mpmath import eigsy, matrix, mp, mpf, sqrt

    runs, k = g.runs, len(g.runs)
    with mp.workdps(60):
        quotient = matrix(k, k)
        for i in range(k):
            for j in range(k):
                # classes are adjacent when the later one is ones; a ones class is a clique
                if i == j and i % 2 == 0:
                    quotient[i, i] = runs[i] - 1
                elif i != j and max(i, j) % 2 == 0:
                    quotient[i, j] = sqrt(mpf(runs[i]) * runs[j])
        rho = max(eigsy(quotient, eigvals_only=True))
        ulp = math.ulp(float(rho))
        return {name: float((mpf(value) - rho) / ulp) for name, value in values.items()}


@pytest.mark.parametrize("blocks", ["G{1,4820,991628,3550,1}", "G{1,2769,988631,8598,1}"])
def test_sandwich_at_n_one_million_against_a_60_digit_rho(blocks):
    """Near rho = 10^6 the certified rho lies within one ulp of rho at 60 digits.

    ``eigh``'s rho was about 11 ulps low there: over an absolute 1e-9,
    within the relative 1e-9 * rho.  Every b_i is 1 or c - 1, so
    lower_quadratic and inequality_root equal rho exactly.  Against rho
    at 60 digits each bound lies on its side to within one ulp, so
    sandwich_ok must hold.
    """
    g = parse_graph_spec("comp:" + blocks)
    assert g.n == 10**6
    report = bound_report(g)
    above = _ulps_from_rho(g, {name: getattr(report, name) for name in ("rho", *_GAP_NAMES)})
    for name in _GAP_NAMES:
        assert (above[name] >= -1.0) if name == "upper_cubic" else (above[name] <= 1.0), name
    assert abs(above["lower_quadratic"]) <= 1.0 and abs(above["inequality_root"]) <= 1.0
    assert abs(above["rho"]) <= 1.0
    assert abs(above["rho"]) * math.ulp(report.rho) <= SANDWICH_TOL * report.rho
    assert report.sandwich_ok is True


# ---------------------------------------------------------------------------
# degree inequality (quartic)
# ---------------------------------------------------------------------------


def test_quartic_coefficients():
    assert inequality_polynomial(G10101) == (1, 0, -6, -4, 2)
    assert inequality_polynomial(G11011) == (2, -2, -13, -8, 1)


def test_quartic_closed_form_equals_tail_sums():
    """T1, T2 and T3 summed over the degree tail, one term per twin class.

    The tail is the degree sequence from canonical position c - 1 on:
    c - 1 once, then b per type-0 class.
    """
    checked = 0
    for census in censuses(14):
        for g in census:
            try:
                coefficients = inequality_polynomial(g)
            except PreconditionError:
                continue
            c, z = g.c, g.z
            tail = ((c - 1, 1),) + _zero_classes(g)[0]
            s = sum(count * d for d, count in tail)
            t1 = sum(count * (d - 1) ** 2 for d, count in tail)
            t2 = sum(count * (d - 1) for d, count in tail)
            t3 = sum(count * (d - 1) * (s - d * (z + 1)) for d, count in tail)
            assert coefficients == (
                c - 2,
                (c - 2) * (3 - c),
                -((c - 2) * (z + c - 1) + t1),
                (c - 2) * ((c - 2) * (z + 1) - s - t2),
                -t3,
            )
            checked += 1
    assert checked == 8166  # every applicable graph with n <= 14, as in the sandwich test


def test_quartic_agrees_with_direct_slack():
    for g in (PAW, G10101, G11011, graph("1011011")):
        poly = inequality_polynomial(g)
        for x in (0.5, 1.3, 2.0, 3.7, 5.1):
            _, slack = inequality_check(g, x)
            assert horner(poly, x) == pytest.approx(slack, abs=1e-8 * magnitude_scale(poly, x))


def test_inequality_check_at_rho_and_shifts():
    rho = spectral_radius(G10101)
    holds_at_rho, slack_at_rho = inequality_check(G10101, rho)
    assert holds_at_rho
    assert abs(slack_at_rho) <= 1e-6  # 10101 is an equality case
    holds_above, _ = inequality_check(G10101, rho + 1.0)
    assert holds_above  # above the quartic's largest root it stays positive
    holds_below, slack_below = inequality_check(G10101, rho - 1.0)
    assert not holds_below
    assert slack_below < 0.0


def test_inequality_strict_slack_case():
    rho = spectral_radius(G11011)
    holds, slack = inequality_check(G11011, rho)
    assert holds
    assert slack > 1.0  # comfortably positive, not an equality case


def test_equality_exactly_when_blocks_are_extreme():
    # the quartic vanishes at rho precisely when every b_i is 1 or c - 1
    for g in applicable_graphs(range(4, 9)):
        rho = spectral_radius(g)
        poly = inequality_polynomial(g)
        value = horner(poly, rho)
        assert value >= -1e-8 * magnitude_scale(poly, rho)
        is_equality_family = all(bi in (1, g.c - 1) for bi in to_bzp(g))
        is_zero_at_rho = abs(value) <= 1e-8 * magnitude_scale(poly, rho)
        assert is_zero_at_rho == is_equality_family


def test_inequality_root_reference_values():
    report = bound_report(G11011)
    assert report.inequality_root == pytest.approx(3.3128057713129895, abs=1e-9)
    assert 1e-3 < report.rho - report.inequality_root < 0.02
    # equality case: the root reproduces rho
    report = bound_report(G10101)
    assert report.inequality_root == pytest.approx(spectral_radius(G10101), abs=1e-9)


def test_inequality_root_never_exceeds_rho():
    for g in applicable_graphs(range(4, 9)):
        report = bound_report(g)
        assert report.inequality_root <= report.rho + SANDWICH_TOL


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------


def test_applicable_graphs_lie_strictly_between_a_tree_and_a_complete_graph():
    """n - 1 < m < C(n, 2) follows from connected, n >= 4, c >= 3 and z >= 1."""
    checked = 0
    for g in applicable_graphs(range(4, 15)):
        assert g.n - 1 < g.m < math.comb(g.n, 2), g.generating_string
        checked += 1
    assert checked == 8166  # the graphs of the sandwich test


@pytest.mark.parametrize(
    "bits, fragment",
    [
        ("1100", "connected"),
        ("111", "n >= 4"),
        ("10001", "c >= 3"),
        ("11111", "z >= 1"),
    ],
)
def test_preconditions_rejected(bits, fragment):
    g = graph(bits)
    # bound_report checks the standing assumptions before it takes rho, so a disconnected
    # graph is refused as the bounds refuse it, not by spectral_radius
    with pytest.raises(PreconditionError, match=fragment):
        lower_cubic_polynomial(g)
    with pytest.raises(PreconditionError, match=fragment):
        bound_report(g)


def test_inapplicable_graph_is_refused_before_rho(monkeypatch):
    star = graph("10001")
    # the class core gives the star rho and no class
    (rho,), (k,), values = _bound_classes([star])
    assert rho == pytest.approx(2.0, abs=1e-10) and k is None and values == []

    def no_radii(graphs):
        raise AssertionError("spectral_radii called")

    monkeypatch.setattr(bounds, "spectral_radii", no_radii)
    with pytest.raises(PreconditionError, match="c >= 3"):
        bound_report(star)


def test_bound_report_encodes_the_graph_once(monkeypatch):
    """The bounds read c, sum b and F_1 from the class table, never through to_bzp."""
    import sys

    calls = []

    def counting_to_bzp(g):
        calls.append(g)
        return to_bzp(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("threshold_spectra") and hasattr(module, "to_bzp"):
            monkeypatch.setattr(module, "to_bzp", counting_to_bzp)
    report = bound_report(graph("1101011"))
    assert report.applicable and report.sandwich_ok
    assert calls == []


# ---------------------------------------------------------------------------
# a census as one batch
# ---------------------------------------------------------------------------


def censuses(n_max):
    """Every nonempty connected (n, m) census with n <= n_max."""
    for n in range(1, n_max + 1):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            if census:
                yield census


def test_batched_reports_equal_single_graph_reports():
    """Floats compare exactly: a batch row gives each graph the report it gets alone."""
    everything = []
    for census in censuses(10):
        single = [class_reports(_bound_classes([g]))[0] for g in census]
        assert class_reports(_bound_classes(census)) == single
        everything += census
    # several n, m and k, applicable or not, in one call take the same path
    mixed = class_reports(_bound_classes(everything))
    assert mixed == [class_reports(_bound_classes([g]))[0] for g in everything]
    assert {r.applicable for r in mixed} == {True, False}
    # bound_report raises exactly where the class core gives no class, and says which
    # standing assumption the graph breaks, as the bound inputs do
    assert [_strict_outcome(bound_report, g) for g in everything] == [
        report if report.applicable else _strict_outcome(_bound_inputs, g)
        for g, report in zip(everything, mixed)
    ]


def _strict_outcome(call, g):
    try:
        return call(g)
    except PreconditionError as exc:
        return str(exc)


def test_batched_reports_certify_each_polynomial_once(monkeypatch):
    import sys

    calls = []

    def counting_roots(polynomials):
        polynomials = list(polynomials)
        calls.extend(polynomials)
        return root_columns(polynomials)

    # the class core hands every polynomial it certifies to the batch kernel's column core
    root_columns = spectral._root_columns
    for name, module in list(sys.modules.items()):
        if name.startswith("threshold_spectra") and hasattr(module, "_root_columns"):
            monkeypatch.setattr(module, "_root_columns", counting_roots)
    census = enumerate_threshold_graphs(14, 40)
    classes = _bound_classes(census)
    applicable = [g for g, k in zip(census, classes.members) if k is not None]
    distinct = {
        make(g)
        for g in applicable
        for make in (lower_cubic_polynomial, upper_cubic_polynomial, inequality_polynomial)
    }
    assert len(calls) == len(set(calls)) == len(distinct)
    assert set(calls) == distinct
    assert len(distinct) < 3 * len(applicable)  # the census does share roots


def test_every_census_radius_and_class_value_is_finite():
    """enumerate --json writes rows with %r, which spells a float as json does only while finite."""
    kinds = set()
    for census in censuses(12):
        classes = _bound_classes(census)
        assert all(map(math.isfinite, classes.radii))
        assert all(math.isfinite(x) for values in classes.values for x in values)
        kinds |= {k is None for k in classes.members}
    assert kinds == {True, False}  # rows with bounds and rows without


@st.composite
def large_compositions(draw):
    """3 to 51 blocks with n up to 10^6: cut points drawn in 1 .. n - 1."""
    k = draw(st.integers(3, 51))
    n = draw(st.integers(k, 10**6))
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True))
    cuts.sort()
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


@settings(max_examples=60, deadline=None)
@given(large_compositions())
@example([1, 4820, 991628, 3550, 1])
def test_bound_report_values_and_gaps_are_finite_at_scale(blocks):
    report = class_reports(_bound_classes([from_composition(blocks)]))[0]
    assume(report.applicable)
    values = [getattr(report, name) for name in _GAP_NAMES]
    assert all(map(math.isfinite, [report.rho, *values, *report.gaps.values()]))


def test_empty_batch():
    assert _bound_classes([]) == ([], [], [])

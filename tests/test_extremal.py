"""Census enumeration, maximizer search, and literature reconciliation."""

import hashlib
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from threshold_spectra import (
    enumerate_threshold_graphs,
    find_extremal,
    from_bzp,
    predict_maximizers,
    to_composition,
    verify_predictions,
)
from threshold_spectra.extremal import _surplus_graph, _surplus_split
from threshold_spectra.identities import adjacency_matrix
from conftest import all_graphs, connected_graphs, graph


def comps(graphs):
    return [to_composition(g) for g in graphs]


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_matches_bitstring_sweep():
    for n in range(2, 9):
        by_m = {}
        for g in connected_graphs(n):
            by_m.setdefault(g.m, set()).add(g.bits)
        for m in range(0, comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            assert len(census) == len({g.bits for g in census})  # no duplicates
            assert {g.bits for g in census} == by_m.get(m, set())
            assert all(g.is_connected and g.n == n and g.m == m for g in census)
            # ordered by number of dominating-type vertices, ascending
            cs = [g.c for g in census]
            assert cs == sorted(cs)


def bzp_census(n):
    """The (c, b) encodings of the connected graphs on n vertices, by edge count.

    Each list runs over c ascending and, at one c, over the nonincreasing
    b with parts in [1, c - 1] in descending lexicographic order.
    """
    by_m = {}
    for c in range(1, n + 1):
        for b in combinations_with_replacement(range(c - 1, 0, -1), n - c):
            by_m.setdefault(comb(c, 2) + sum(b), []).append((c, b))
    return by_m


def test_census_equals_validated_bzp_rebuild():
    """Each census graph, built straight from its partition, equals ``from_bzp``'s."""
    cells = graphs = 0
    for n in range(1, 15):
        by_m = bzp_census(n)
        for m in range(comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            expected = [from_bzp(c, b) for c, b in by_m.get(m, [])]
            assert [(g.runs, g.n, g.m, g.c, g.z) for g in census] == [
                (g.runs, g.n, g.m, g.c, g.z) for g in expected
            ]
            cells += 1
            graphs += len(census)
    assert (cells, graphs) == (469, 8192)


def test_census_with_disconnected_graphs():
    # the census is exactly the connected part of all threshold graphs
    for n in range(2, 8):
        by_m = {}
        for g in all_graphs(n):
            if g.is_connected:
                by_m.setdefault(g.m, set()).add(g.bits)
        for m in range(0, comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            assert {g.bits for g in census} == by_m.get(m, set())


def recursive_partition_runs(c, total, parts):
    """The census's runs generator before its suffix lists were kept, as an order oracle.

    One generator frame per group of equal b, groups by value and then
    count, both descending.
    """
    if parts == 0:
        yield (c,)
        return
    for value in range(min(c - 1, total - parts + 1), -(-total // parts) - 1, -1):
        most = min(parts, (total - parts) // (value - 1)) if value > 1 else parts
        for count in range(most, max(1, total - parts * (value - 1)) - 1, -1):
            for rest in recursive_partition_runs(value, total - count * value, parts - count):
                yield (c - value, count, *rest)


def recursive_census(n, m):
    """(runs, c) of every connected graph at (n, m), c ascending, from the oracle."""
    for c in range(1, n + 1):
        z, remainder = n - c, m - comb(c, 2)
        if remainder < 0:
            break
        if z <= remainder <= z * (c - 1):
            yield from ((runs, c) for runs in recursive_partition_runs(c, remainder, z))


_SMALL_CELLS = [(n, m) for n in range(1, 17) for m in range(comb(n, 2) + 1)]


@pytest.mark.parametrize(
    "cells, size",
    [
        pytest.param(_SMALL_CELLS, 2**15, id="n<=16"),
        pytest.param([(20, 127)], 2860, id="20-127"),
        pytest.param([(26, 130)], 85884, id="26-130"),
    ],
)
def test_census_order_equals_the_recursive_generator(cells, size):
    """The suffix lists yield the oracle's tuples in the oracle's order."""
    graphs = 0
    for n, m in cells:
        census = enumerate_threshold_graphs(n, m)
        assert [(g.runs, g.c) for g in census] == list(recursive_census(n, m))
        graphs += len(census)
    assert graphs == size


def distinct_parts(s, most):
    """Every set of distinct positive integers summing to s, parts at most ``most``, descending."""
    if s == 0:
        yield ()
        return
    for first in range(min(s, most), 0, -1):
        for rest in distinct_parts(s - first, first - 1):
            yield (first, *rest)


def test_census_equals_the_position_sets():
    """For n >= s + 2 the census at m = n - 1 + s is one graph per set of positions summing to s."""
    cells = graphs = 0
    for s in range(21):
        for n in range(s + 2, s + 9):
            census = {g.runs for g in enumerate_threshold_graphs(n, n - 1 + s)}
            built = [_surplus_graph(n, parts) for parts in distinct_parts(s, s)]
            assert {g.runs for g in built} == census and len(census) == len(built), (n, s)
            cells += 1
            graphs += len(census)
    assert (cells, graphs) == (147, 2597)
    assert len(list(distinct_parts(20, 20))) == 64


@pytest.mark.parametrize("n, m", [(0, 0), (4, -1), (4, 7), (3, 4)])
def test_census_validation(n, m):
    with pytest.raises(ValueError):
        enumerate_threshold_graphs(n, m)


# ---------------------------------------------------------------------------
# find_extremal
# ---------------------------------------------------------------------------


def test_find_extremal_reference_cases():
    paw = find_extremal(4, 4)
    assert [g.bits for g in paw.maximizers] == [(1, 1, 0, 1)]
    assert paw.census_size == 1

    bull_size = find_extremal(5, 6)
    assert [g.bits for g in bull_size.maximizers] == [(1, 0, 1, 0, 1)]

    complete = find_extremal(4, 6)
    assert comps(complete.maximizers) == ["G{4}"]
    assert complete.rho_max == pytest.approx(3.0, abs=1e-10)

    split = find_extremal(7, 9)
    assert comps(split.maximizers) == ["G{3,3,1}"]
    assert split.census_size == 2

    tree = find_extremal(7, 6)
    assert comps(tree.maximizers) == ["G{1,5,1}"]
    assert tree.census_size == 1


def test_find_extremal_matches_dense_solver():
    for n, m in ((5, 7), (6, 9), (7, 12), (8, 14)):
        result = find_extremal(n, m)
        census = enumerate_threshold_graphs(n, m)
        dense = max(
            float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-1]) for g in census
        )
        assert result.rho_max == pytest.approx(dense, abs=1e-8)
        assert result.census_size == len(census)


def test_find_extremal_empty_census():
    with pytest.raises(ValueError):
        find_extremal(4, 2)


# ---------------------------------------------------------------------------
# literature families
# ---------------------------------------------------------------------------


def asserted_row(n, m):
    """The one asserted prediction at (n, m); it comes first."""
    prediction = predict_maximizers(n, m)[0]
    assert prediction.kind == "asserted"
    return prediction


def test_small_size_rules():
    cases = {
        (7, 6): ("m=n-1", ["G{1,5,1}"]),
        (7, 7): ("m=n", ["G{2,4,1}"]),
        (7, 8): ("m=n+1", ["G{1,1,1,3,1}"]),
        (7, 9): ("m=n+2", ["G{3,3,1}"]),
        # an empty block collapses and merges two runs of ones
        (4, 5): ("m=n+1", ["G{1,1,2}"]),
        (4, 6): ("m=n+2", ["G{4}"]),
    }
    for (n, m), (rule, asserted) in cases.items():
        prediction = asserted_row(n, m)
        assert prediction.rule == rule
        assert comps(prediction.graphs) == asserted


def test_binomial_size_rule_offers_two_candidates():
    prediction = asserted_row(10, 15)  # m - n + 1 = C(4,2)
    assert prediction.rule == "m=n+C(k,2)-1"
    assert comps(prediction.graphs) == ["G{4,5,1}", "G{1,5,1,2,1}"]


def test_binomial_minus_one_rule():
    prediction = asserted_row(8, 16)  # m - n + 2 = C(5,2)
    assert prediction.rule == "m=n+C(k,2)-2"
    assert comps(prediction.graphs) == ["G{1,1,3,2,1}"]


def test_intermediate_size_records_candidates():
    large_n, conjecture = predict_maximizers(12, 15)  # no asserted row
    assert (large_n.kind, large_n.rule) == ("large-n", "m=n+t")
    assert comps(large_n.graphs) == ["G{1,3,1,6,1}"]
    assert (conjecture.kind, conjecture.rule) == ("conjecture", "open case")
    assert _surplus_split(15 - 12 + 1) == (3, 1)
    candidate_a, candidate_b = conjecture.graphs
    assert to_composition(candidate_a) == "G{2,1,1,7,1}"
    assert candidate_b == large_n.graphs[0]


def test_surplus_split_matches_the_counting_loop():
    k = 1
    for s in range(10**5 + 1):
        while comb(k + 1, 2) <= s:
            k += 1
        t = s - comb(k, 2)
        assert _surplus_split(s) == (k, t) and 0 <= t < k, s


def prediction_cells():
    """``(n, m, predictions)`` for 1 <= n <= 60 and every m from -2 to C(n, 2) + 1."""
    for n in range(1, 61):
        for m in range(-2, comb(n, 2) + 2):
            yield n, m, predict_maximizers(n, m)


def test_every_predicted_graph_is_connected_at_its_size():
    """A family fits when no block is negative; then it has n vertices and m edges."""
    rows = 0
    for n, m, predictions in prediction_cells():
        for p in predictions:
            assert p.graphs, (n, m, p.kind)
            assert len(set(p.graphs)) == len(p.graphs), (n, m, p.kind)
            for g in p.graphs:
                assert (g.n, g.m, g.is_connected) == (n, m, True), (n, m, p.kind)
            rows += 1
    assert rows == 37081  # 3,089 asserted, 1,540 large-n and 32,452 conjecture rows


def test_prediction_rows_are_pinned():
    """(n, m, kind, rule, runs) of every row, pinned by their sha256."""
    digest = hashlib.sha256()
    for n, m, predictions in prediction_cells():
        for p in predictions:
            digest.update(repr((n, m, p.kind, p.rule, [g.runs for g in p.graphs])).encode())
    assert digest.hexdigest() == (
        "2bfb7946561b19149c9509361af82cf56cbd2e2bb279a1fce425f5c2f18afd33"
    )


def test_predictions_at_a_million_vertices():
    n, m = 10**6, 10**6 + 20  # s = 21 = C(7, 2): the t = 0 pair
    predictions = predict_maximizers(n, m)
    assert [(p.kind, len(p.graphs)) for p in predictions] == [("asserted", 2), ("large-n", 1)]
    for p in predictions:
        for g in p.graphs:
            assert (g.n, g.m, g.is_connected) == (n, m, True)
    assert predictions[0].graphs[0].runs == (7, n - 8, 1)  # P_a = {1, ..., 6}
    assert predictions[1].graphs[0].runs == (1, 20, 1, n - 23, 1)  # P_b = {21}
    assert predictions[1].graphs == predictions[0].graphs[1:]


def test_candidate_b_is_the_large_n_graph():
    pairs = 0
    for n, m, predictions in prediction_cells():
        by_kind = {p.kind: p.graphs for p in predictions}
        candidates = by_kind.get("conjecture", ())
        if len(candidates) > 1:
            assert candidates[1:] == by_kind["large-n"], (n, m)
            pairs += 1
    assert pairs == 1284


def test_no_prediction_below_a_spanning_tree():
    for n in range(1, 30):
        for m in range(-2, n - 1):
            assert predict_maximizers(n, m) == (), (n, m)


def test_prediction_validation():
    with pytest.raises(ValueError):
        predict_maximizers(0, 0)


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------


def test_verify_predictions_has_no_mismatches():
    rows = verify_predictions(range(4, 9))
    assert [row for row in rows if row.ok is False] == []
    assert rows  # something was checked
    for row in rows:
        assert row.kind in {"asserted", "large-n", "conjecture"}
        if row.kind == "asserted":
            assert row.ok is True
            assert row.note == "subset of predicted set"
        else:
            assert row.ok is None
            assert row.note


def test_verify_predictions_conjecture_notes():
    rows = verify_predictions([8])
    notes = {row.note for row in rows if row.kind == "conjecture"}
    assert notes <= {
        "both candidates maximize",
        "candidate_a maximizes",
        "candidate_b maximizes",
        "neither candidate maximizes",
    }
    assert notes  # the open case applies somewhere at n = 8

"""Acceptance gate: the nine headline checks, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; each test prints ``[PASS]``/``[FAIL] criterion N: ...`` and then
asserts, so the gate is honest under plain ``pytest`` too.
"""

import math
import random
from itertools import combinations
from math import comb

import numpy as np

from threshold_spectra import (
    bound_report,
    enumerate_threshold_graphs,
    find_extremal,
    from_bzp,
    from_fop,
    greatest_real_root,
    lw_recurrence,
    predict_maximizers,
    spectral_radius,
    to_bzp,
)
from threshold_spectra.identities import (
    count_walks_with_signature,
    fp_via_max_indices,
    fp_via_min_products,
    fp_via_one_overlap,
    fp_via_zero_overlap,
    inequality_polynomial,
    lower_cubic_polynomial,
    lw_bruteforce,
    one_overlap_matrix,
    upper_cubic_polynomial,
    zero_overlap_matrix,
)
from conftest import (
    bisection_root,
    connected_graphs,
    graph,
    horner,
    magnitude_scale,
    proves_greatest_root,
)


def _verdict(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, (
        f"criterion {number} failed ({len(failures)} case(s)); first: {failures[:5]}"
    )


def test_criterion_1_recurrence_matches_bruteforce():
    failures = []
    checked = 0
    for n in range(2, 9):
        for g in connected_graphs(n):
            checked += 1
            if list(lw_recurrence(g, 12).lw) != lw_bruteforce(g, 12):
                failures.append(g.generating_string)
    _verdict(
        1,
        f"LW recurrence equals brute-force integers on {checked} graphs, k <= 12",
        failures,
    )


def test_criterion_2_fp_five_route_agreement():
    failures = []
    checked = 0
    for n in range(2, 8):
        for g in connected_graphs(n):
            seq = lw_recurrence(g, 0, pmax=5).fp
            for p in range(6):
                checked += 1
                values = {
                    "min": fp_via_min_products(g, p),
                    "max": fp_via_max_indices(g, p),
                    "fop": fp_via_one_overlap(g, p),
                }
                if p >= 1 and g.z >= 1:
                    values["bzp"] = fp_via_zero_overlap(g, p)
                for width in (1, 2):
                    signature = (1,) + ((0,) * width + (1,)) * p
                    values[f"sig{width}"] = count_walks_with_signature(g, signature)
                if any(v != seq[p] for v in values.values()):
                    failures.append((g.generating_string, p, values))
    _verdict(
        2,
        f"five F_p routes agree (widths 1 and 2) on {checked} graph/p pairs, p <= 5",
        failures,
    )


def test_criterion_3_bound_sandwich():
    # the degree-inequality member of the sandwich is a lower estimate:
    # the quartic is nonnegative at rho, so its greatest root sits at or
    # below rho (equality exactly when every b_i is 1 or c - 1)
    failures = []
    checked = 0
    for n in range(4, 11):
        for g in connected_graphs(n):
            if g.c < 3 or g.z < 1 or not (g.n - 1 < g.m < comb(g.n, 2)):
                continue
            checked += 1
            report = bound_report(g)
            rho = report.rho
            ok = (
                report.lower_corollary < rho
                and report.lower_cubic <= rho + 1e-9
                and report.lower_quadratic <= rho + 1e-9
                and rho <= report.upper_cubic + 1e-9
                and report.inequality_root <= rho + 1e-9
                and horner(inequality_polynomial(g), rho)
                >= -1e-9 * magnitude_scale(inequality_polynomial(g), rho)
                and report.sandwich_ok
            )
            if not ok:
                failures.append(g.generating_string)
    _verdict(
        3,
        f"bound sandwich (inequality root on the lower side) on {checked} graphs, n <= 10",
        failures,
    )


def test_criterion_4_bracketing_and_order3_recurrences():
    failures = []
    checked = 0
    for n in range(2, 9):
        for g in connected_graphs(n):
            checked += 1
            table = lw_recurrence(g, 20)
            lo, mid, hi = table.lw_prime, table.lw, table.lw_double_prime
            if not all(a <= b <= c for a, b, c in zip(lo, mid, hi)):
                failures.append((g.generating_string, "bracket"))
                continue
            b = to_bzp(g)
            c_, sb, f1 = g.c, sum(b), sum(x * x for x in b)
            for k in range(3, 21):
                if lo[k] != (c_ + 1) * lo[k - 1] - c_ * lo[k - 2] + f1 * lo[k - 3]:
                    failures.append((g.generating_string, "order-3 lower", k))
                    break
                if hi[k] != (c_ + 1) * hi[k - 1] - (c_ - sb) * hi[k - 2] - (
                    c_ * sb - f1
                ) * hi[k - 3]:
                    failures.append((g.generating_string, "order-3 upper", k))
                    break
    _verdict(
        4,
        f"LW' <= LW <= LW'' and both order-3 recurrences exact on {checked} graphs, k <= 20",
        failures,
    )


def test_criterion_5_growth_limits():
    g = graph("10101")
    table = lw_recurrence(g, 200)
    rho = spectral_radius(g)
    ratio = table.lw[200] / table.lw[199]
    ratio_lo = table.lw_prime[200] / table.lw_prime[199]
    ratio_hi = table.lw_double_prime[200] / table.lw_double_prime[199]
    root_lo = greatest_real_root(lower_cubic_polynomial(g)).value
    root_hi = greatest_real_root(upper_cubic_polynomial(g)).value
    failures = []
    if abs(ratio - (1 + rho)) > 1e-6:
        failures.append(("LW ratio", ratio, 1 + rho))
    if abs(ratio_lo - root_lo) > 1e-3:
        failures.append(("LW' ratio", ratio_lo, root_lo))
    if abs(ratio_hi - root_hi) > 1e-3:
        failures.append(("LW'' ratio", ratio_hi, root_hi))
    _verdict(
        5,
        "consecutive-term ratios at k = 200 approach 1 + rho and the two cubic roots",
        failures,
    )


def test_criterion_6_known_eigenvalues():
    failures = []
    for n in range(2, 13):
        complete = graph("1" * n)
        star = graph("1" + "0" * (n - 2) + "1")
        if abs(spectral_radius(complete) - (n - 1)) > 1e-10:
            failures.append(("complete", n))
        if abs(spectral_radius(star) - math.sqrt(n - 1)) > 1e-10:
            failures.append(("star", n))
    _verdict(6, "complete-graph and star spectral radii exact to 1e-10, n <= 12", failures)


def _asserted_graphs(n, m):
    """The graphs of the asserted prediction at (n, m), or () when none applies."""
    rows = [p for p in predict_maximizers(n, m) if p.kind == "asserted"]
    return rows[0].graphs if rows else ()


def test_criterion_7_prediction_reproduction():
    failures = []
    checked = 0
    for n in range(5, 10):
        for m in (n - 1, n, n + 1, n + 2):
            checked += 1
            asserted = _asserted_graphs(n, m)
            result = find_extremal(n, m)
            winners = set(result.maximizers)
            if not asserted or not winners <= set(asserted):
                failures.append((n, m))
    asserted = _asserted_graphs(10, 15)
    result = find_extremal(10, 15)
    winners = set(result.maximizers)
    checked += 1
    if not winners or not winners <= set(asserted):
        failures.append((10, 15))
    _verdict(
        7,
        f"maximizers match the known extremal families on {checked} (n, m) rows",
        failures,
    )


def test_criterion_8_psd_and_root_certificates():
    failures = []
    rng = random.Random(20260814)
    for index in range(200):
        z = rng.randint(1, 12)
        c = rng.randint(2, 15)
        b = tuple(sorted((rng.randint(1, c - 1) for _ in range(z)), reverse=True))
        eigen_b = np.linalg.eigvalsh(np.array(zero_overlap_matrix(from_bzp(c, b)), float))
        if float(np.min(eigen_b)) < -1e-9:
            failures.append(("B", index, b))
        fc = rng.randint(2, 13)
        fz = rng.randint(0, 12)
        f = tuple(sorted([0] + [rng.randint(0, fz) for _ in range(fc - 2)] + [fz]))
        eigen_f = np.linalg.eigvalsh(np.array(one_overlap_matrix(from_fop(f)), float))
        if float(np.min(eigen_f)) < -1e-9:
            failures.append(("Phi", index, f))

    certified = 0
    for n in range(4, 9):
        for g in connected_graphs(n):
            if g.c < 3 or g.z < 1:
                continue
            rho = spectral_radius(g)
            polys_and_hints = (
                (lower_cubic_polynomial(g), float(g.c), None),
                (upper_cubic_polynomial(g), float(g.c), None),
                (inequality_polynomial(g), 0.0, rho + 1.0),
            )
            for poly, hint, cap in polys_and_hints:
                result = greatest_real_root(poly)
                certified += 1
                proven = result.bracket_low < result.value < result.bracket_high and (
                    proves_greatest_root(poly, result.bracket_low, result.bracket_high)
                )
                if not proven:
                    failures.append(("bracket", g.generating_string))
                if abs(result.value - bisection_root(poly, hint, cap)) > 1e-12:
                    failures.append(("bisection oracle", g.generating_string))
            if greatest_real_root(lower_cubic_polynomial(g)).value <= g.c:
                failures.append(("root <= c", g.generating_string))
    _verdict(
        8,
        "overlap matrices PSD on 200 random sequences; "
        f"{certified} root certificates verified and lower-cubic roots exceed c",
        failures,
    )


def _is_threshold_adjacency(a: np.ndarray) -> bool:
    """Peel isolated-or-dominating vertices; succeeds iff threshold."""
    alive = list(range(a.shape[0]))
    while alive:
        degrees = {v: int(sum(a[v][w] for w in alive if w != v)) for v in alive}
        pick = next(
            (v for v in alive if degrees[v] in (0, len(alive) - 1)),
            None,
        )
        if pick is None:
            return False
        alive.remove(pick)
    return True


def _mask_to_adjacency(mask: int, pairs, n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for e, (i, j) in enumerate(pairs):
        if (mask >> e) & 1:
            a[i, j] = a[j, i] = 1.0
    return a


def _brute_force_cells(n: int, sorted_degrees: bool) -> dict[int, tuple[float, bool]]:
    """Per edge count m: the best rho of a connected graph on n labelled
    vertices, and whether some labelling attaining it is threshold.

    With ``sorted_degrees`` only labellings whose degrees do not increase
    with the label are examined.  Every isomorphism class has such a
    labelling, and both results are isomorphism-invariant, so the cells
    come out the same (at n = 7, 16,758 of 2,097,152 masks remain).
    """
    pairs = list(combinations(range(n), 2))
    edges = len(pairs)
    incidence = np.zeros((edges, n))
    for e, (i, j) in enumerate(pairs):
        incidence[e, i] = incidence[e, j] = 1.0
    chunk_size = 1 << 16
    best: dict[int, float] = {}
    candidates: dict[int, list[tuple[float, int]]] = {}
    squarings = max(1, math.ceil(math.log2(max(n - 1, 1))))
    for start in range(0, 1 << edges, chunk_size):
        masks = np.arange(start, min(start + chunk_size, 1 << edges), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(edges)) & 1).astype(float)
        if sorted_degrees:
            degrees = bits @ incidence
            keep = np.all(degrees[:, :-1] >= degrees[:, 1:], axis=1)
            masks, bits = masks[keep], bits[keep]
        sizes = bits.sum(axis=1).astype(int)
        adj = np.zeros((len(masks), n, n))
        for e, (i, j) in enumerate(pairs):
            adj[:, i, j] = bits[:, e]
            adj[:, j, i] = bits[:, e]
        reach = adj + np.eye(n)
        for _ in range(squarings):
            reach = (reach @ reach > 0).astype(float)
        connected = reach.reshape(len(masks), -1).min(axis=1) > 0
        index = np.nonzero(connected)[0]
        if index.size == 0:
            continue
        tops = np.linalg.eigvalsh(adj[index])[:, -1]
        mvals = sizes[index]
        for m in np.unique(mvals):
            m = int(m)
            local = float(tops[mvals == m].max())
            if local > best.get(m, -math.inf):
                best[m] = local
        thresholds = np.array([best[int(m)] for m in mvals])
        for i in np.nonzero(tops >= thresholds - 1e-9)[0]:
            m = int(mvals[i])
            candidates.setdefault(m, []).append((float(tops[i]), int(masks[index[i]])))
    return {
        m: (
            best[m],
            any(
                _is_threshold_adjacency(_mask_to_adjacency(mask, pairs, n))
                for lam, mask in candidates[m]
                if lam >= best[m] - 1e-9
            ),
        )
        for m in sorted(best)
    }


def test_degree_sorted_labellings_give_the_same_cells():
    """The filter criterion 9 relies on, against every labelling, for n <= 6."""
    for n in range(2, 7):
        full = _brute_force_cells(n, sorted_degrees=False)
        filtered = _brute_force_cells(n, sorted_degrees=True)
        assert sorted(filtered) == sorted(full)
        for m, (rho, threshold) in full.items():
            assert abs(filtered[m][0] - rho) <= 1e-12
            assert filtered[m][1] == threshold


def test_criterion_9_unrestricted_maximizers_are_threshold():
    failures = []
    checked = 0
    for n in range(2, 8):
        for m, (best, threshold) in _brute_force_cells(n, sorted_degrees=True).items():
            checked += 1
            rho_threshold = find_extremal(n, m).rho_max
            if abs(best - rho_threshold) > 1e-9:
                failures.append((n, m, "radius mismatch", best, rho_threshold))
            elif not threshold:
                failures.append((n, m, "maximizer not threshold"))
    _verdict(
        9,
        f"connected brute-force maximizer is threshold with matching rho on {checked} (n, m) cells",
        failures,
    )

"""Exact walk counts: the F_p family and the three LW sequences."""

from math import comb
from operator import add, mul

import pytest
from conftest import connected_graphs, graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_spectra import (
    from_bzp,
    from_composition,
    from_generating_sequence,
    lw_recurrence,
    spectral_radius,
    to_bzp,
)
from threshold_spectra import walks
from threshold_spectra.identities import (
    count_walks_with_signature,
    fp_via_max_indices,
    fp_via_min_products,
    fp_via_one_overlap,
    fp_via_zero_overlap,
    growth_estimate,
    lw_bruteforce,
    one_overlap_matrix,
    zero_overlap_matrix,
)

PAW = graph("1101")
G10101 = graph("10101")


def test_paw_walk_table():
    table = lw_recurrence(PAW, 4)
    assert table.lw == (1, 3, 9, 28, 88)
    assert table.lw_prime == table.lw
    assert table.lw_double_prime == table.lw
    assert lw_bruteforce(PAW, 4) == [1, 3, 9, 28, 88]


def test_10101_walk_table():
    table = lw_recurrence(G10101, 5)
    assert table.lw == (1, 3, 9, 32, 116, 426)
    assert table.lw_prime[5] == 413
    assert table.lw_double_prime[5] == 428
    assert lw_bruteforce(G10101, 5) == list(table.lw)


@pytest.mark.parametrize(
    "c, b, p, expected",
    [
        (3, (2, 1), 0, 3),
        (3, (2, 1), 1, 5),
        (3, (2, 1), 2, 13),
        (3, (2, 1), 3, 34),
        (4, (1, 1, 1), 3, 27),
        (6, (5,), 3, 625),
        (4, (), 0, 4),
        (4, (), 2, 0),
    ],
)
def test_fp_reference_values(c, b, p, expected):
    assert fp_via_min_products(from_bzp(c, b), p) == expected


def test_fp_sequence_example():
    assert lw_recurrence(from_bzp(3, (2, 1)), 0, 4).fp == (3, 5, 13, 34, 89)
    assert lw_recurrence(from_bzp(4, ()), 0, 3).fp == (4, 0, 0, 0)


def test_overlap_matrices():
    assert zero_overlap_matrix(from_bzp(3, (2, 1))) == [[2, 1], [1, 1]]
    assert one_overlap_matrix(G10101) == [
        [0, 0, 0],
        [0, 1, 1],
        [0, 1, 2],
    ]


def test_all_fp_routes_agree():
    """Five independent computations of F_p coincide on the small corpus."""
    for n in range(2, 7):
        for g in connected_graphs(n):
            seq = lw_recurrence(g, 0, pmax=4).fp
            for p in range(5):
                reference = seq[p]
                assert fp_via_min_products(g, p) == reference
                assert fp_via_max_indices(g, p) == reference
                assert fp_via_one_overlap(g, p) == reference
                if p >= 1 and g.z >= 1:
                    assert fp_via_zero_overlap(g, p) == reference
                signature = (1,) + (0, 1) * p
                assert count_walks_with_signature(g, signature) == reference


def test_zero_overlap_identity_needs_p_and_z_at_least_one():
    with pytest.raises(ValueError, match="p >= 1"):
        fp_via_zero_overlap(G10101, 0)
    with pytest.raises(ValueError, match="z >= 1"):
        fp_via_zero_overlap(from_composition([5]), 1)  # comp:G{5} has no type-0 vertex


def test_signature_width_invariance():
    """Widening any zero run never changes the walk count."""
    assert count_walks_with_signature(G10101, (1, 0, 1)) == 5
    assert count_walks_with_signature(G10101, (1, 0, 0, 1)) == 5
    assert count_walks_with_signature(G10101, (1, 0, 0, 0, 1)) == 5
    assert count_walks_with_signature(G10101, (1, 0, 1, 0, 1, 0, 1)) == 34
    assert count_walks_with_signature(G10101, (1, 0, 0, 1, 0, 1, 0, 0, 1)) == 34


@pytest.mark.parametrize(
    "signature",
    [(), (0,), (1, 1), (0, 1), (1, 0), (1, 0, 1, 1), (1, 2, 1)],
)
def test_signature_validation(signature):
    with pytest.raises(ValueError):
        count_walks_with_signature(G10101, signature)


def test_recurrence_matches_bruteforce():
    for n in range(2, 8):
        for g in connected_graphs(n):
            assert list(lw_recurrence(g, 10).lw) == lw_bruteforce(g, 10)


def test_bracketing_sequences():
    """LW' <= LW <= LW'' termwise, with the known exact-collapse cases."""
    for n in range(2, 8):
        for g in connected_graphs(n):
            table = lw_recurrence(g, 14)
            for lo, mid, hi in zip(table.lw_prime, table.lw, table.lw_double_prime):
                assert lo <= mid <= hi
            # the first altered term (an F_2 contribution) enters at k = 5,
            # so all three agree up to k = 4
            assert table.lw_prime[:5] == table.lw[:5] == table.lw_double_prime[:5]
            if g.z == 0:
                # no type-0 vertices: every F_p vanishes and all three agree
                assert table.lw_prime == table.lw == table.lw_double_prime
            if g.z == 1:
                # one type-0 vertex: F_{q+1} = F_1 * b_1^q exactly, so the
                # upper substitution loses nothing
                assert table.lw_double_prime == table.lw


def test_bracket_recurrences_are_order_three():
    for n in range(3, 8):
        for g in connected_graphs(n):
            b = to_bzp(g)
            c, sb, f1 = g.c, sum(b), sum(x * x for x in b)
            table = lw_recurrence(g, 12)
            lo, hi = table.lw_prime, table.lw_double_prime
            for k in range(3, 13):
                assert lo[k] == (c + 1) * lo[k - 1] - c * lo[k - 2] + f1 * lo[k - 3]
                assert hi[k] == (
                    (c + 1) * hi[k - 1] - (c - sb) * hi[k - 2] - (c * sb - f1) * hi[k - 3]
                )


def test_walk_table_fp_cache_length():
    # fp holds F_0 .. F_pmax whatever kmax is; pmax defaults to 10, as in the CLI
    assert len(lw_recurrence(G10101, 3).fp) == 11
    assert len(lw_recurrence(G10101, 12).fp) == 11
    assert len(lw_recurrence(G10101, 12, pmax=8).fp) == 9
    assert lw_recurrence(G10101, 12, pmax=0).fp == (3,)
    with pytest.raises(ValueError, match="^pmax must be >= 0, got -3$"):
        lw_recurrence(G10101, 5, pmax=-3)


def test_growth_estimate_tracks_spectral_radius():
    seq = lw_bruteforce(G10101, 60)
    root, ratio = growth_estimate(seq)
    target = 1.0 + spectral_radius(G10101)
    assert abs(ratio - target) < 1e-6
    assert abs(root - target) < 0.1  # k-th root converges much more slowly


def test_growth_estimate_validation():
    with pytest.raises(ValueError):
        growth_estimate([1, 2])
    with pytest.raises(ValueError):
        growth_estimate([1, 0, 2])


def test_walks_require_connected():
    for fn in (lambda g: lw_recurrence(g, 3), lambda g: lw_bruteforce(g, 3)):
        with pytest.raises(ValueError):
            fn(graph("1010"))


@pytest.mark.parametrize(
    "routine, call",
    [
        ("lw_recurrence", lambda g: lw_recurrence(g, 3)),
        ("lw_bruteforce", lambda g: lw_bruteforce(g, 3)),
        ("count_walks_with_signature", lambda g: count_walks_with_signature(g, (1, 0, 1))),
    ],
)
def test_connectivity_error_names_the_routine(routine, call):
    with pytest.raises(ValueError, match=f"^{routine} requires a connected graph"):
        call(graph("1010"))


def test_lw_double_prime_matches_its_convolution_definition():
    # LW''_k = c LW''_{k-1} + sum_r LW''_r sum_q C(k-3-r-q, q) F_1 (sum b)^q
    for n in range(1, 10):
        for g in connected_graphs(n):
            b = to_bzp(g)
            f1, sb = sum(bi * bi for bi in b), sum(b)
            expected = [1]
            for k in range(1, 21):
                total = g.c * expected[k - 1]
                for r in range(k - 2):
                    slack = k - 3 - r
                    total += expected[r] * sum(
                        comb(slack - q, q) * f1 * sb**q for q in range(slack // 2 + 1)
                    )
                expected.append(total)
            assert list(lw_recurrence(g, 20).lw_double_prime) == expected


# ---------------------------------------------------------------------------
# the twin-class recurrence and F sequence against the convolution oracles
# ---------------------------------------------------------------------------


def lw_seed_convolution(g, kmax):
    """LW by the convolution with the closing sum recomputed for every (k, r).

    F comes from the zero-overlap matrix identity, so neither the
    twin-class F step nor the hoisted closing series is on this path.
    """
    if g.z:
        fp = [g.c] + [fp_via_zero_overlap(g, p) for p in range(1, kmax // 2 + 2)]
    else:
        fp = [g.c] + [0] * (kmax // 2 + 1)
    lw = [1]
    for k in range(1, kmax + 1):
        total = g.c * lw[k - 1]
        for r in range(0, k - 2):
            slack = k - 3 - r
            inner = 0
            q = 0
            while slack - q >= q:
                inner += comb(slack - q, q) * fp[q + 1]
                q += 1
            total += lw[r] * inner
        lw.append(total)
    return lw


def lw_hoisted_convolution(g, kmax):
    """LW by the convolution with its closing series computed once.

    ``closing[s] = sum_q C(s-q, q) F_{q+1}`` counts the closing
    signatures with s units of slack, and ``LW_k = c LW_{k-1} +
    sum_{r<=k-3} LW_r closing[k-3-r]``: O(kmax^2) big-integer products.
    F comes from applying the zero-overlap matrix per type-0 vertex by
    one prefix and one suffix pass, so neither twin-class step (for LW
    or for F) is on this path.
    """
    b = list(to_bzp(g))
    vector, tail = b[:], []
    for _ in range(max((kmax - 3) // 2 + 1, 1)):
        tail.append(sum(map(mul, b, vector)))
        out, prefix = [], 0
        for bi, vi in zip(b, vector):
            prefix += vi
            out.append(bi * prefix)
        suffix = 0
        for i in range(len(b) - 1, -1, -1):
            out[i] += suffix
            suffix += b[i] * vector[i]
        vector = out
    closing = []
    # row holds C(s-q, q); Pascal's rule puts row[q] + previous[q-1] in row s + 1
    previous, row = [], [1]
    for _ in range(kmax - 2):
        closing.append(sum(map(mul, row, tail)))
        previous, row = row, [1, *map(add, row[1:] + [0], previous)]
    lw = [1]
    for k in range(1, kmax + 1):
        head = max(k - 2, 0)
        lw.append(g.c * lw[k - 1] + sum(map(mul, lw[:head], reversed(closing[:head]))))
    return lw


@pytest.mark.parametrize(
    "blocks",
    [
        (700, 600, 700),
        (400, 300, 500, 400, 400),
        (1, 998, 1000, 1),
        (300, 300, 300, 300, 300, 250, 250),
        (250, 200, 300, 150, 250, 200, 300, 150, 200),
    ],
)
def test_recurrence_matches_hoisted_convolution_at_n_2000(blocks):
    g = from_composition(blocks)
    assert g.n == 2000 and g.z >= 1
    assert list(lw_recurrence(g, 120).lw) == lw_hoisted_convolution(g, 120)


def connected_sequences(max_n):
    return st.lists(st.integers(0, 1), max_size=max_n - 2).map(
        lambda middle: from_generating_sequence([1, *middle, 1])
    )


@settings(max_examples=100, deadline=None)
@given(connected_sequences(30), st.integers(0, 40))
def test_recurrence_matches_seed_convolution(g, kmax):
    assert list(lw_recurrence(g, kmax).lw) == lw_seed_convolution(g, kmax)


@settings(max_examples=100, deadline=None)
@given(connected_sequences(14), st.integers(0, 60))
def test_recurrence_matches_bruteforce_property(g, kmax):
    assert list(lw_recurrence(g, kmax).lw) == lw_bruteforce(g, kmax)


@pytest.mark.parametrize(
    "bits, expected",
    [
        ("111", (1, 3, 9, 27)),  # z = 0: every F_p with p >= 1 vanishes
        ("1101", (1, 3, 9, 28)),  # c^3 + F_1 with F_1 = 1
        ("10101", (1, 3, 9, 32)),  # F_1 = 5
        ("1", (1, 1, 1, 1)),  # n = 1: one run, no edge
    ],
)
@pytest.mark.parametrize("kmax", [0, 1, 2, 3])
def test_short_tables(bits, expected, kmax):
    g = graph(bits)
    assert lw_recurrence(g, kmax).lw == expected[: kmax + 1]
    assert lw_bruteforce(g, kmax) == list(expected[: kmax + 1])


bzp_graphs = st.integers(2, 12).flatmap(
    lambda c: st.lists(st.integers(1, c - 1), min_size=1, max_size=12).map(
        lambda b: from_bzp(c, sorted(b, reverse=True))
    )
)


@settings(max_examples=150, deadline=None)
@given(bzp_graphs, st.integers(0, 12))
@example(from_bzp(5, (4, 4, 4, 1)), 12)
def test_fp_sequence_matches_zero_overlap_identity(g, pmax):
    expected = [g.c] + [fp_via_zero_overlap(g, p) for p in range(1, pmax + 1)]
    assert list(lw_recurrence(g, 0, pmax).fp) == expected


def test_fp_sequence_without_type_zero_vertices():
    assert list(lw_recurrence(from_bzp(5, ()), 0, 12).fp) == [5] + [0] * 12


def test_long_walk_growth_ratio_is_one_plus_rho():
    g = from_generating_sequence([1 - i % 2 for i in range(45)])  # 1010...1
    lw = lw_recurrence(g, 600).lw
    assert lw[200].bit_length() == 973
    assert abs(lw[600] / lw[599] - (1.0 + spectral_radius(g))) < 1e-9


# ---------------------------------------------------------------------------
# the characteristic recurrence of the class quotient
# ---------------------------------------------------------------------------


def class_quotient(runs):
    """The K x K quotient of A + I: a vertex of class i has M[i][j] closed neighbours in class j.

    Even runs are type 1 (a clique with itself), odd runs type 0; two
    classes are adjacent when the later one is type 1.
    """
    size = len(runs)
    return [
        [
            (runs[j] if j % 2 == 0 else 1) if i == j else (runs[j] if max(i, j) % 2 == 0 else 0)
            for j in range(size)
        ]
        for i in range(size)
    ]


def matrix_polynomial(coefficients, matrix):
    """The polynomial with these descending coefficients at the matrix, by Horner, exactly."""
    size = len(matrix)
    value = [[0] * size for _ in range(size)]
    for coefficient in coefficients:
        value = [
            [
                sum(value[i][h] * matrix[h][j] for h in range(size))
                + (coefficient if i == j else 0)
                for j in range(size)
            ]
            for i in range(size)
        ]
    return value


def test_characteristic_polynomial_annihilates_the_quotient():
    for n in range(1, 11):
        for g in connected_graphs(n):
            q = walks._characteristic_polynomial(g.runs)
            assert len(q) == len(g.runs) + 1 and q[0] == 1
            assert all(x == 0 for row in matrix_polynomial(q, class_quotient(g.runs)) for x in row)


def test_characteristic_polynomial_of_small_quotients():
    # K_5: M = (5); the star K_{1,9}: (x - 1)(x - 4)(x + 2), from A's eigenvalues 0 and +-3
    assert walks._characteristic_polynomial((5,)) == (1, -5)
    assert walks._characteristic_polynomial(from_composition([1, 8, 1]).runs) == (1, -3, -6, 8)


def characteristic_pass(runs):
    """q by the pass in its (p, r) form, and the largest |coefficient| p reaches on the way.

    ``r / p = 1^T (xI - A - I)^-1 1`` over the runs read so far; p and r
    are ascending lists here, and q is returned in descending powers.
    """
    p, r, largest = [1], [0], 1
    for i, s in enumerate(runs):
        xp, xr, p0, r0 = [0, *p], [0, *r], [*p, 0], [*r, 0]
        if i % 2:  # (x - 1) p, (x - 1) r + s p
            p, r = [a - b for a, b in zip(xp, p0)], [a - b + s * c for a, b, c in zip(xr, r0, p0)]
        else:  # (x - s) p - s r, (x + s) r + s p
            p, r = (
                [a - s * (b + c) for a, b, c in zip(xp, p0, r0)],
                [a + s * (b + c) for a, b, c in zip(xr, r0, p0)],
            )
        largest = max(largest, *map(abs, p))
    return tuple(reversed(p)), largest


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, 1, 1, 2, 3, 5, 10, 100]), min_size=1, max_size=99))
@example([1] * 81)
@example([2] + [1] * 80)
@example([1] * 201)
def test_characteristic_polynomial_stops_exactly_past_2_to_the_63(blocks):
    # the one integer pass returns q exactly when no coefficient reaches 2^63 on the way,
    # and None otherwise: 201 all-ones runs pass 2^63 at run 82
    runs = tuple(blocks) if len(blocks) % 2 else tuple(blocks[:-1])
    q, largest = characteristic_pass(runs)
    assert walks._characteristic_polynomial(runs) == (q if largest < 2**63 else None)


def class_step_lw(g, kmax):
    """LW_0 .. LW_kmax by applying the class quotient of A + I with a prefix and a suffix sum.

    ``(M y)_j`` is, for a type-1 class, the weight ``s_i y_i`` of every class
    up to and including j, and for a type-0 class ``y_j``; every class also
    gets the weight of the later type-1 classes.
    """
    runs = g.runs
    ones = [i % 2 == 0 for i in range(len(runs))]
    y = [int(one) for one in ones]
    lw = [1]
    for _ in range(kmax):
        weights = [s * v for s, v in zip(runs, y)]
        lw.append(sum(w for w, one in zip(weights, ones) if one))
        later, after = 0, []
        for w, one in zip(reversed(weights), reversed(ones)):
            after.append(later)
            later += w if one else 0
        after.reverse()
        earlier, out = 0, []
        for s, v, w, one, rest in zip(runs, y, weights, ones, after):
            earlier += w
            out.append((earlier if one else v) + rest)
        y = out
    return lw


NINE_BLOCKS = from_composition([1000, 999, 1001, 998, 1002, 997, 1003, 996, 1004])


def alternating(classes):
    return from_composition([1] * classes)


@pytest.mark.parametrize(
    "g, kmax, recurrence, bits",
    [
        (NINE_BLOCKS, 200, False, None),  # q has a 90-bit coefficient
        (alternating(121), 400, False, None),  # 95 bits
        (alternating(83), 300, False, None),  # the first alternating graph past 63 bits
        (from_composition([2] + [1] * 80), 243, False, None),  # 64 bits
        (alternating(45), 135, True, 34),
        (alternating(45), 134, False, None),  # kmax < 3K: the pass does not run
        (alternating(81), 243, True, 63),
    ],
    ids=[
        "nine-blocks",
        "alternating-121",
        "alternating-83",
        "81-classes-64-bits",
        "alternating-45",
        "45-short",
        "alternating-81",
    ],
)
def test_recurrence_side_and_class_step_side(g, kmax, recurrence, bits, monkeypatch):
    seen = []
    helper = walks._characteristic_polynomial

    def recorded(runs):
        seen.append(helper(runs))
        return seen[-1]

    monkeypatch.setattr(walks, "_characteristic_polynomial", recorded)
    assert list(lw_recurrence(g, kmax).lw) == class_step_lw(g, kmax)
    if kmax < 3 * len(g.runs):
        assert seen == []
    else:
        (q,) = seen
        assert (q is not None) == recurrence
        if recurrence:
            assert max(map(abs, q)).bit_length() == bits

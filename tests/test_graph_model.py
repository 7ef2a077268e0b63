"""Encodings, conversions, and structural invariants of the graph model."""

import contextlib
import io
import itertools
import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import all_graphs, connected_graphs, graph

from threshold_spectra import (
    ParseError,
    degree_sequence,
    from_bzp,
    from_composition,
    from_fop,
    from_generating_sequence,
    to_bzp,
    to_composition,
    to_fop,
)
from threshold_spectra.cli import parse_graph_spec, run
from threshold_spectra.identities import adjacency_matrix, canonical_vertex_order
from threshold_spectra.graph_model import _vertex_blocks


@pytest.mark.parametrize(
    "bits, n, m, c, z",
    [
        ("1101", 4, 4, 3, 1),
        ("10101", 5, 6, 3, 2),
        ("11011", 5, 8, 4, 1),
        ("1111", 4, 6, 4, 0),
        ("1001", 4, 3, 2, 2),
        ("1", 1, 0, 1, 0),
    ],
)
def test_example_dimensions(bits, n, m, c, z):
    g = graph(bits)
    assert (g.n, g.m, g.c, g.z) == (n, m, c, z)


def test_first_bit_is_canonicalized():
    assert graph("0101") == graph("1101")
    assert graph("0") == graph("1")
    assert graph("0101").generating_string == "1101"


def test_m_counts_positional_ones():
    for n in range(1, 9):
        for g in all_graphs(n):
            assert g.m == sum(i for i, bit in enumerate(g.bits) if bit == 1)


def test_edge_count_matches_adjacency():
    for n in range(2, 8):
        for g in all_graphs(n):
            a = adjacency_matrix(g)
            assert a.sum() == 2 * g.m
            assert (a == a.T).all()
            assert (np.diag(a) == 0).all()


def test_connectivity_is_last_bit():
    """a_n = 1 is equivalent to actual graph connectivity (checked by BFS)."""
    for n in range(2, 9):
        for g in all_graphs(n):
            a = adjacency_matrix(g)
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in np.nonzero(a[v])[0]:
                    if int(u) not in seen:
                        seen.add(int(u))
                        frontier.append(int(u))
            assert g.is_connected == (len(seen) == g.n)


@pytest.mark.parametrize(
    "text, bits",
    [
        ("G{2,1,1}", "1101"),
        ("G{1,1,1,1,1}", "10101"),
        ("G{2,1,2}", "11011"),
        ("G{3}", "111"),
        ("G{6,1}", "1000001"),
        ("G{2,3,2,1}", "10111001"),
    ],
)
def test_composition_construction(text, bits):
    assert parse_graph_spec("comp:" + text) == graph(bits)


def test_composition_round_trip():
    for n in range(1, 10):
        for g in connected_graphs(n):
            text = to_composition(g)
            assert text == "G{" + ",".join(map(str, g.runs)) + "}"
            assert from_composition(g.runs) == g
            assert parse_graph_spec("comp:" + text) == g
            # canonical sequences start with a one, so the block count is odd
            assert len(g.runs) % 2 == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=12))
def test_composition_blocks_expand_to_their_runs(blocks):
    g = from_composition(blocks)
    # the last block is ones and the symbols alternate backwards from it
    bits = []
    for symbol, p in zip(itertools.cycle([1, 0]), reversed(blocks)):
        bits[:0] = [symbol] * p
    assert g == from_generating_sequence(bits)
    assert parse_graph_spec("comp:" + to_composition(g)) == g
    assert parse_graph_spec("comp:G{" + ",".join(map(str, blocks)) + "}") == g


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([], "composition needs at least one block"),
        ([0], "block 1 must be a positive integer, got 0"),
        ([2, 3, -1], "block 3 must be a positive integer, got -1"),
    ],
)
def test_from_composition_validation(blocks, message):
    with pytest.raises(ValueError, match=message):
        from_composition(blocks)


def test_composition_of_disconnected_raises():
    with pytest.raises(ValueError):
        to_composition(graph("1010"))


@pytest.mark.parametrize(
    "text, position",
    [
        ("K{1}", 0),
        ("G{}", 2),
        ("G{1,}", 4),
        ("G{1,2", 5),
        ("G{0}", 2),
        ("G{2,x}", 4),
    ],
)
def test_parse_composition_errors(text, position):
    # ``position`` counts from the G; in the spec it comes after "comp:"
    with pytest.raises(ParseError) as err:
        parse_graph_spec("comp:" + text)
    assert err.value.position == 5 + position


def test_bzp_examples():
    assert to_bzp(graph("1101")) == (1,)
    assert to_bzp(graph("10101")) == (2, 1)
    assert to_bzp(graph("11011")) == (2,)
    assert from_bzp(3, [2, 1]) == graph("10101")


def test_bzp_round_trip_and_size():
    for n in range(1, 11):
        for g in connected_graphs(n):
            b = to_bzp(g)
            assert from_bzp(g.c, b) == g
            assert comb(g.c, 2) + sum(b) == g.m
            assert len(b) == g.z
            assert all(1 <= bi <= g.c - 1 for bi in b)
            assert all(x >= y for x, y in zip(b, b[1:]))


@pytest.mark.parametrize(
    "c, b",
    [
        (3, (3,)),      # b exceeds c - 1
        (3, (0,)),      # b below 1
        (3, (1, 2)),    # not nonincreasing
        (0, ()),        # empty graph
    ],
)
def test_bzp_validation(c, b):
    with pytest.raises(ValueError):
        from_bzp(c, b)


def test_bzp_requires_connected_and_z():
    with pytest.raises(ValueError):
        to_bzp(graph("1010"))
    # a complete graph (z = 0) encodes as the empty b
    assert to_bzp(graph("111")) == ()
    assert from_bzp(3, ()) == graph("111")


def test_fop_examples():
    assert to_fop(graph("10101")) == (0, 1, 2)
    assert to_fop(graph("1001")) == (0, 2)
    assert to_fop(graph("11011")) == (0, 0, 1, 1)
    assert from_fop([0, 1, 2]) == graph("10101")
    # n = len(f) + f[-1]: every zero precedes the last one
    assert from_fop([0, 2]).n == 4


def test_fop_round_trip():
    for n in range(1, 11):
        for g in connected_graphs(n):
            f = to_fop(g)
            assert from_fop(f) == g
            assert f[0] == 0
            assert f[-1] == g.z
            assert len(f) == g.c


@pytest.mark.parametrize(
    "f",
    [
        (1, 1),         # must start at zero
        (0, 2, 1),      # not nondecreasing
        (),             # empty
    ],
)
def test_fop_validation(f):
    # n is len(f) + f[-1], so no f can disagree with it
    with pytest.raises(ValueError):
        from_fop(f)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda c: st.tuples(
            st.just(c), st.lists(st.integers(1, c - 1), max_size=30) if c > 1 else st.just([])
        )
    )
)
def test_bzp_builder_round_trip(cb):
    c, b = cb[0], tuple(sorted(cb[1], reverse=True))
    g = from_bzp(c, b)
    assert to_bzp(g) == b
    assert (g.c, g.z) == (c, len(b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=30))
def test_fop_builder_round_trip(steps):
    f = tuple(itertools.accumulate([0, *steps]))
    g = from_fop(f)
    assert to_fop(g) == f
    assert (g.n, g.c) == (len(f) + f[-1], len(f))


def test_generating_sequence_validation():
    with pytest.raises(ValueError):
        from_generating_sequence([])
    with pytest.raises(ValueError):
        from_generating_sequence([1, 2])


# An int() cast would truncate each of these to a valid but different graph.


def test_from_bzp_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="b entry must be an integer, got 1.9"):
        from_bzp(3, [1.9])
    assert from_bzp(3.0, [2.0, 1]) == graph("10101")


def test_from_fop_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="f entry must be an integer, got 0.5"):
        from_fop([0, 0.5, 1])
    assert from_fop([0.0, 1, 2.0]) == graph("10101")


def test_from_composition_rejects_non_integral_blocks():
    with pytest.raises(ValueError, match="block must be an integer, got 1.5"):
        from_composition([1.5, 2])


def test_from_generating_sequence_rejects_non_integral_bits():
    with pytest.raises(ValueError, match="must be 0/1 valued"):
        from_generating_sequence([1, 0.7, 1])


def test_degree_sequence_structure():
    """Sorted degrees: position c holds c-1 and the tail equals b."""
    for n in range(2, 9):
        for g in connected_graphs(n):
            degs = degree_sequence(g)
            assert degs == tuple(int(d) for d in adjacency_matrix(g).sum(axis=1))
            assert sum(degs) == 2 * g.m
            assert all(a >= b for a, b in zip(degs, degs[1:]))
            assert degs[g.c - 1] == g.c - 1
            assert degs[g.c:] == to_bzp(g)
            if n >= 2:
                assert degs[0] == n - 1  # a dominating vertex exists


def test_canonical_order_types_and_degrees():
    for n in range(2, 9):
        for g in connected_graphs(n):
            order = canonical_vertex_order(g)
            assert sorted(order) == list(range(n))
            types = [g.bits[v] for v in order]
            assert types[: g.c] == [1] * g.c
            assert types[g.c:] == [0] * g.z


def test_adjacency_respects_insertion_rule():
    """Later vertex dominates earlier ones exactly when its bit is 1."""
    for n in range(2, 8):
        for g in connected_graphs(n):
            order = canonical_vertex_order(g)
            a = adjacency_matrix(g)
            for p in range(n):
                for q in range(n):
                    i, j = order[p], order[q]
                    expected = 0 if i == j else g.bits[max(i, j)]
                    assert a[p, q] == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 222), min_size=1, max_size=9))
def test_json_dict_lists_equal_the_validated_encodings(blocks):
    # up to 9 blocks of at most 222: n <= 1998; the JSON "graph" object of walks
    g = from_composition(blocks)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["walks", "comp:" + to_composition(g), "--kmax", "0", "--json"]) == 0
    d = json.loads(out.getvalue())["graph"]
    assert d["bzp"] == list(to_bzp(g))
    assert d["fop"] == list(to_fop(g))
    assert d["degrees"] == list(degree_sequence(g))
    assert (d["n"], d["m"], d["c"], d["z"]) == (g.n, g.m, g.c, g.z)


# ---------------------------------------------------------------------------
# twin classes against the bit-level definitions
# ---------------------------------------------------------------------------


def _bzp_from_bits(bits):
    """For each zero in insertion order, the ones inserted after it."""
    b, later_ones = [], 0
    for bit in reversed(bits):
        if bit == 1:
            later_ones += 1
        else:
            b.append(later_ones)
    return tuple(reversed(b))


def _fop_from_bits(bits):
    """For each one in insertion order, the zeros inserted before it."""
    f, earlier_zeros = [], 0
    for bit in bits:
        if bit == 1:
            f.append(earlier_zeros)
        else:
            earlier_zeros += 1
    return tuple(f)


def _check_against_bits(raw):
    g = from_generating_sequence(raw)
    bits = (1,) + tuple(raw[1:])
    assert g.bits == bits
    assert g.runs == tuple(len(list(run)) for _, run in itertools.groupby(bits))
    assert from_generating_sequence(g.bits) == g
    assert g.generating_string == "".join(map(str, bits))
    assert (g.n, g.c, g.z) == (len(bits), sum(bits), len(bits) - sum(bits))
    assert g.m == sum(i for i, bit in enumerate(bits) if bit)
    assert g.is_connected == (bits[-1] == 1)
    if not g.is_connected:
        return
    ones = np.array(bits, dtype=bool)
    index = np.arange(g.n)
    adjacency = ones[np.maximum.outer(index, index)] & (index[:, None] != index[None, :])
    degrees = adjacency.sum(axis=1)
    # the stable sort that defined the canonical order before graphs held twin classes
    order = tuple(sorted(range(g.n), key=lambda v: (-degrees[v], bits[v] == 0)))
    assert canonical_vertex_order(g) == order
    assert degree_sequence(g) == tuple(int(degrees[v]) for v in order)
    assert to_bzp(g) == _bzp_from_bits(bits)
    assert to_fop(g) == _fop_from_bits(bits)
    assert parse_graph_spec("comp:" + to_composition(g)) == g
    assert from_composition(g.runs) == g
    assert from_bzp(g.c, to_bzp(g)) == g
    assert from_fop(to_fop(g)) == g


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_twin_classes_match_bit_definitions(raw):
    _check_against_bits(raw)


_AT_N_2000 = pytest.mark.parametrize(
    "raw",
    [
        [1] + [0] * 1998 + [1],  # star
        [1, 0] * 1000,  # alternating, disconnected
        [0, 1] * 1000,  # alternating, connected
        [1] * 700 + [0] * 600 + [1] * 700,
        [int(d) for d in format(3**1300, "b")[:1999]] + [1],  # irregular runs
    ],
    ids=["star", "alternating-open", "alternating", "three-blocks", "digits"],
)


@_AT_N_2000
def test_twin_classes_match_bit_definitions_at_n_2000(raw):
    assert len(raw) == 2000
    _check_against_bits(raw)


def _check_vertex_blocks(g):
    """The blocks, expanded, are the per-vertex encodings, with one block per class."""
    blocks = _vertex_blocks(g)
    expanded = tuple(tuple(v for v, size in part for _ in range(size)) for part in blocks)
    assert expanded == (to_bzp(g), to_fop(g), degree_sequence(g))
    assert all(size >= 1 for part in blocks for _, size in part)
    assert len(blocks[2]) == len(g.runs)
    assert len(blocks[0]) + len(blocks[1]) == len(g.runs)
    bits = g.bits
    assert expanded[0] == _bzp_from_bits(bits)
    assert expanded[1] == _fop_from_bits(bits)


def test_vertex_blocks_expand_to_the_encodings():
    for n in range(1, 13):
        for g in connected_graphs(n):
            _check_vertex_blocks(g)


@_AT_N_2000
def test_vertex_blocks_expand_to_the_encodings_at_n_2000(raw):
    g = from_generating_sequence(raw)
    if g.is_connected:
        _check_vertex_blocks(g)
    else:
        with pytest.raises(ValueError, match="^degree sequence requires a connected graph"):
            degree_sequence(g)

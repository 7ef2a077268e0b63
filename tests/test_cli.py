"""Command-line interface: parsing, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import string
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_spectra import (
    ParseError,
    PreconditionError,
    bound_report,
    bounds,
    cli,
    degree_sequence,
    enumerate_threshold_graphs,
    find_extremal,
    from_composition,
    lw_recurrence,
    spectral,
    to_bzp,
    to_composition,
    to_fop,
)
from threshold_spectra.cli import _json_text, _Rows, _Text, parse_graph_spec, run
from threshold_spectra.extremal import TIE_TOL
from threshold_spectra.graph_model import _zero_classes
from conftest import class_reports


# ---------------------------------------------------------------------------
# graph-spec parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, bits",
    [
        ("gen:10101", (1, 0, 1, 0, 1)),
        ("gen:0101", (1, 1, 0, 1)),  # canonicalized leading bit
        ("comp:G{3,3,1}", (1, 1, 1, 0, 0, 0, 1)),
        ("comp:G{6,1}", (1, 0, 0, 0, 0, 0, 1)),
        ("bzp:3:2,1", (1, 0, 1, 0, 1)),
        ("bzp:3:", (1, 1, 1)),
        ("bzp:3", (1, 1, 1)),
    ],
)
def test_parse_graph_spec(spec, bits):
    assert parse_graph_spec(spec).bits == bits


def test_parse_graph_spec_rejects_unknown_prefix():
    with pytest.raises(ParseError):
        parse_graph_spec("foo:10101")


def test_parse_graph_spec_positions():
    with pytest.raises(ParseError) as info:
        parse_graph_spec("gen:10102")
    assert info.value.position == 8
    with pytest.raises(ParseError) as info:
        parse_graph_spec("comp:G{1,}")
    assert info.value.position == 9


def test_empty_generating_sequence_is_a_usage_error(capsys):
    assert run(["analyze", "gen:"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty generating sequence (position 4)\n"


# str.isdigit passes these, but a spec integer is ASCII decimal digits only
@pytest.mark.parametrize(
    "spec, position",
    [
        pytest.param("bzp:\u00b2:1", 4, id="bzp-c-superscript-two"),
        pytest.param("bzp:3:\u00b2", 6, id="bzp-b-superscript-two"),
        pytest.param("comp:G{\u00b2}", 7, id="comp-superscript-two"),
        pytest.param("bzp:\u0663:1", 4, id="bzp-c-arabic-indic-three"),
        pytest.param("bzp:3:\u0661", 6, id="bzp-b-arabic-indic-one"),
        pytest.param("comp:G{2,\u0663}", 9, id="comp-arabic-indic-three"),
    ],
)
def test_parse_graph_spec_takes_only_ascii_digits(spec, position, capsys):
    with pytest.raises(ParseError) as info:
        parse_graph_spec(spec)
    assert info.value.position == position
    assert run(["analyze", spec]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


_LONG = "1" * 4301  # one digit more than int() reads from a string


# a spec gives at most MAX_VERTICES = 10**6 vertices; int() never sees a longer integer
@pytest.mark.parametrize(
    "spec, position, message",
    [
        pytest.param("comp:G{3," + _LONG + ",1}", 9, "integer exceeds", id="comp-4301-digits"),
        pytest.param("bzp:" + _LONG + ":1", 4, "integer exceeds", id="bzp-c-4301-digits"),
        pytest.param("bzp:3:" + _LONG, 6, "integer exceeds", id="bzp-b-4301-digits"),
        pytest.param("comp:G{3,1000001,1}", 9, "integer exceeds", id="comp-block-over"),
        pytest.param("comp:G{3,999997,1}", 16, "graph exceeds", id="comp-n-over"),
        pytest.param("bzp:999999:1,1", 13, "graph exceeds", id="bzp-n-over"),
        pytest.param("gen:1" + "0" * 10**6, 4 + 10**6, "graph exceeds", id="gen-n-over"),
    ],
)
def test_oversize_spec_is_a_usage_error(spec, position, message, capsys):
    with pytest.raises(ParseError, match=message) as info:
        parse_graph_spec(spec)
    assert info.value.position == position
    assert run(["analyze", spec]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_spec_at_the_vertex_limit_is_accepted():
    assert cli.MAX_VERTICES == 10**6
    assert parse_graph_spec("comp:G{3,999996,1}").n == 10**6
    assert parse_graph_spec("comp:G{3,0000999996,1}").n == 10**6  # leading zeros are free
    assert parse_graph_spec("bzp:999999:1").n == 10**6


def test_n_flags_at_the_vertex_limit_are_accepted(capsys):
    assert run(["enumerate", "--n", "1000000", "--m", "999999", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["graphs"]
    assert row["composition"] == "G{1,999998,1}"
    # verify runs the census at every n up to n_max, so only its parsing is checked here
    args = cli._parser().parse_args(["verify", "--n-min", "1000000", "--n-max", "1000000"])
    assert args.n_min == args.n_max == cli.MAX_VERTICES


def test_bzp_range_error_names_the_entry(capsys):
    assert run(["analyze", "bzp:3:5"]) == 1
    assert capsys.readouterr().err == "error: b[0] = 5 out of range [1, c-1] = [1, 2]\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "gen:10101"], 0),
        (["analyze", "gen:10102"], 2),          # bad character
        (["analyze", "comp:G{1,"], 2),          # unterminated composition
        (["analyze", "gen:1001"], 1),           # c < 3: bounds do not apply
        (["analyze", "gen:10100"], 1),          # disconnected
        (["analyze", "bzp:3:5"], 1),            # b out of range
        (["walks", "gen:10100", "--kmax", "4"], 1),
        (["enumerate", "--n", "4", "--m", "2"], 1),   # empty census
        (["enumerate", "--n", "4", "--m", "99"], 1),  # m out of range
        (["frobnicate"], 2),
        ([], 2),
        (["analyze", "gen:10101", "--tol", "1e-10"], 2),  # no such option
        (["verify", "--n-max", "5", "--csv"], 2),          # verify has no CSV form
    ],
)
def test_exit_codes(argv, code, capsys):
    assert run(argv) == code
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error:")


# Case ids are fixed, so a case keeps its name when other rows come or go.
@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(
            ["walks", "gen:10101", "--pmax", "-1"], "argument --pmax:", id="argv9---pmax"
        ),
        pytest.param(
            ["walks", "gen:10101", "--kmax", "-1"], "argument --kmax:", id="argv10---kmax"
        ),
        pytest.param(
            ["verify", "--n-min", "-5", "--n-max", "5"], "argument --n-min:", id="argv11---n-min"
        ),
        pytest.param(["verify", "--n-max", "0"], "argument --n-max:", id="argv12---n-max"),
        # enumerate ranks by extremal.TIE_TOL alone
        pytest.param(
            ["enumerate", "--n", "9", "--m", "14", "--tie-tol", "1"],
            "unrecognized arguments: --tie-tol 1",
            id="enumerate-tie-tol-unrecognized",
        ),
        # run in a fresh directory: "missing" does not exist and "." is a directory
        pytest.param(
            ["analyze", "gen:11011", "--output", "missing/out.txt"],
            "error: --output: [Errno 2] No such file or directory",
            id="output-missing-directory",
        ),
        pytest.param(
            ["analyze", "gen:11011", "--output", "."],
            "error: --output: [Errno 21] Is a directory",
            id="output-is-a-directory",
        ),
        pytest.param(
            ["analyze", "gen:10101", "--output", ""],
            "error: --output: [Errno 2] No such file or directory: ''",
            id="output-empty-path",
        ),
        pytest.param(["enumerate", "--n", "0", "--m", "0"], "argument --n:", id="enumerate-n-0"),
        pytest.param(
            ["enumerate", "--n", "-3", "--m", "2"], "argument --n:", id="enumerate-n-negative"
        ),
        pytest.param(
            ["enumerate", "--n", "5", "--m", "-1"], "argument --m:", id="enumerate-m-negative"
        ),
        # the n flags stop at cli.MAX_VERTICES, like a spec
        pytest.param(
            ["enumerate", "--n", "1000001", "--m", "1000000"],
            "argument --n: exceeds the vertex limit 1000000, got '1000001'",
            id="enumerate-n-over",
        ),
        pytest.param(
            ["verify", "--n-max", "1000001"],
            "argument --n-max: exceeds the vertex limit 1000000, got '1000001'",
            id="verify-n-max-over",
        ),
        pytest.param(
            ["verify", "--n-min", "1000001", "--n-max", "5"],
            "argument --n-min: exceeds the vertex limit 1000000, got '1000001'",
            id="verify-n-min-over",
        ),
        # a flag reads an integer as a spec does: an optional '-' and ASCII digits only
        pytest.param(
            ["walks", "gen:10101", "--kmax", "٣"],
            "argument --kmax: expected an integer, got '٣'",
            id="kmax-arabic-indic-digit",
        ),
        pytest.param(
            ["enumerate", "--n", "５", "--m", "6"],
            "argument --n: expected an integer, got '５'",
            id="enumerate-n-full-width-digit",
        ),
        pytest.param(
            ["walks", "gen:10101", "--kmax", "1_0"],
            "argument --kmax: expected an integer, got '1_0'",
            id="kmax-underscore",
        ),
        pytest.param(
            ["walks", "gen:10101", "--kmax", "+3"],
            "argument --kmax: expected an integer, got '+3'",
            id="kmax-plus-sign",
        ),
        pytest.param(
            ["walks", "gen:10101", "--kmax", " 3"],
            "argument --kmax: expected an integer, got ' 3'",
            id="kmax-leading-blank",
        ),
        pytest.param(
            ["walks", "gen:10101", "--kmax", "-"],
            "argument --kmax: expected an integer, got '-'",
            id="kmax-bare-minus",
        ),
        pytest.param(
            ["walks", "gen:10101", "--kmax", "-3"],
            "argument --kmax: must be an integer >= 0, got '-3'",
            id="kmax-negative",
        ),
    ],
)
def test_bad_arguments_exit_2_naming_the_flag(argv, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert expected in captured.err
    assert "Traceback" not in captured.err


def test_unreachable_tol_is_a_domain_error(monkeypatch, capsys):
    # r of this graph passes 2^63, so rho takes the dense route and its residual check
    monkeypatch.setattr(spectral, "_QUOTIENT_RESIDUAL_REL", 1e-300)
    assert run(["analyze", "comp:G{1000,1000,1000,1000,1000,1000,1000}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spectral_radius" in captured.err and "comp:G{" in captured.err


def test_uncertified_rho_is_a_domain_error(monkeypatch, capsys):
    # no bracket is proven, in floats or exactly: rho fails before any bound root
    monkeypatch.setattr(spectral, "_certified", lambda coefficients, low, high: False)
    monkeypatch.setattr(spectral, "_proven", _nothing_proven)
    for argv in (["analyze", "comp:G{3,5,5,2,4}"], ["enumerate", "--n", "9", "--m", "14"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: spectral_radius: no certified bracket within")
        assert "comp:G{" in captured.err


def _nothing_proven(coefficients, degrees, x):
    return np.zeros(len(x), dtype=bool), x, x


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_human_output(capsys):
    assert run(["analyze", "gen:10101"]) == 0
    out = capsys.readouterr().out
    assert "graph        10101  (n=5, m=6, c=3, z=2)" in out
    assert "composition  G{1,1,1,1,1}" in out
    assert "rho" in out and "<=" in out
    assert "sandwich_ok  True" in out


def test_analyze_json_shape_and_determinism(capsys):
    assert run(["analyze", "gen:10101", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", "gen:10101", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical across runs
    payload = json.loads(first)
    assert payload["graph"]["generating"] == "10101"
    assert payload["sandwich_ok"] is True
    assert payload["rho"] == pytest.approx(2.685543932670793, abs=1e-9)
    assert set(payload["gaps"]) == {
        "lower_cubic",
        "lower_corollary",
        "lower_quadratic",
        "upper_cubic",
        "inequality_root",
    }


def test_analyze_csv_row(capsys):
    assert run(["analyze", "gen:10101", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "generating,n,m,c,z,rho,lower_cubic,lower_corollary,"
        "lower_quadratic,upper_cubic,inequality_root,sandwich_ok"
    )
    fields = lines[1].split(",")
    assert fields[0] == "10101"
    assert fields[1:5] == ["5", "6", "3", "2"]
    assert float(fields[5]) == pytest.approx(2.685543932670793, abs=1e-9)
    assert fields[11] == "true"


def test_analyze_inapplicable_graph_fails_closed(capsys):
    # stars have c = 2; the analyze command reports the failure, not a
    # silently degraded row
    assert run(["analyze", "gen:10001"]) == 1
    assert "c >= 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def test_walks_csv_sections(capsys):
    assert run(["walks", "gen:10101", "--kmax", "12", "--pmax", "4", "--csv"]) == 0
    out = capsys.readouterr().out
    head, tail = out.strip().split("\n\n")
    klines = head.splitlines()
    assert klines[0] == "k,LW,LW_prime,LW_double_prime"
    assert len(klines) == 14  # header + k = 0..12
    assert klines[1] == "0,1,1,1"
    assert klines[4] == "3,32,32,32"
    plines = tail.splitlines()
    assert plines[0] == "p,F_p"
    assert len(plines) == 6  # header + p = 0..4
    assert plines[1] == "0,3"
    assert plines[2] == "1,5"


def test_walks_json_values(capsys):
    assert run(["walks", "gen:1101", "--kmax", "4", "--pmax", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lw"] == [1, 3, 9, 28, 88]
    assert payload["lw_prime"] == [1, 3, 9, 28, 88]
    assert payload["lw_double_prime"] == [1, 3, 9, 28, 88]
    assert payload["fp"] == [3, 1, 1]
    assert payload["graph"]["generating"] == "1101"


def test_walks_rejects_disconnected(capsys):
    assert run(["walks", "gen:1100"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# kmax^2 * ceil(log2(n + 1)) is at most MAX_WALK_BITS = 10**7: n = 1, n = 3 (2 bits) and
# n = 10^6 (20 bits)
@pytest.mark.parametrize(
    "spec, kmax, last",
    [
        ("gen:1", 3162, "3162,1,1,1"),
        ("gen:111", 2236, f"2236,{3**2236},{3**2236},{3**2236}"),
        ("comp:G{1000000}", 707, "707," + ",".join(["1" + "0" * 4242] * 3)),
    ],
    ids=["n-1", "n-3", "n-1000000"],
)
def test_walks_kmax_at_the_limit_and_one_past(spec, kmax, last, capsys, monkeypatch):
    assert cli.MAX_WALK_BITS == 10**7
    # the largest LW_k at the limit, 10^4242 on K_1000000, prints within int's 4,300 digits
    lines = _stdout(["walks", spec, "--kmax", str(kmax), "--csv"], capsys).splitlines()
    assert lines[kmax + 1] == last
    bits = math.ceil(math.log2(parse_graph_spec(spec).n + 1))
    assert kmax**2 * bits <= cli.MAX_WALK_BITS < (kmax + 1) ** 2 * bits

    def unreachable(*args, **kwargs):
        raise AssertionError("the walk table is built after the limit check")

    monkeypatch.setattr(cli, "lw_recurrence", unreachable)
    assert run(["walks", spec, "--kmax", str(kmax + 1), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: --kmax {kmax + 1}: kmax^2 * ceil(log2(n + 1)) = {(kmax + 1) ** 2 * bits} "
        "exceeds the walk-table limit 10000000\n"
    )


@pytest.mark.parametrize("k", [2001, 100_001], ids=["alternating-2001", "alternating-100001"])
def test_walks_time_limit_at_the_limit_and_one_past(k, capsys, monkeypatch):
    """K * kmax^2 * ceil(log2(n + 1)) is at most MAX_WALK_WORK = 10**9 for K twin classes."""
    assert cli.MAX_WALK_WORK == 10**9
    spec = "gen:" + "10" * (k // 2) + "1"  # k one-vertex classes, n = k
    bits = math.ceil(math.log2(k + 1))
    kmax = math.isqrt(cli.MAX_WALK_WORK // (k * bits))
    assert k * kmax**2 * bits <= cli.MAX_WALK_WORK < k * (kmax + 1) ** 2 * bits
    assert (kmax + 1) ** 2 * bits <= cli.MAX_WALK_BITS  # the other limit lets both through
    argv = ["walks", spec, "--kmax", str(kmax), "--pmax", "0", "--json"]
    assert len(json.loads(_stdout(argv, capsys))["lw"]) == kmax + 1

    def unreachable(*args, **kwargs):
        raise AssertionError("the walk table is built after the limit check")

    monkeypatch.setattr(cli, "lw_recurrence", unreachable)
    assert run(["walks", spec, "--kmax", str(kmax + 1), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: --kmax {kmax + 1}: K * kmax^2 * ceil(log2(n + 1)) = "
        f"{k * (kmax + 1) ** 2 * bits} for K = {k} twin classes exceeds the walk-time limit "
        "1000000000\n"
    )


# bit_length(c) + pmax * max(1, bit_length(sum b)) is at most MAX_FP_BITS = 14,000:
# c = 4 and sum b = 1000 (10 bits), whose F_1399 is the largest admitted F_pmax there;
# a complete graph (sum b = 0); and the 5-vertex graph 10101 (c = 3, sum b = 3)
@pytest.mark.parametrize(
    "spec, pmax, digits",
    [("comp:G{3,1000,1}", 1399, 4198), ("comp:G{5}", 13997, 1), ("gen:10101", 6999, 2926)],
    ids=["sum-b-1000", "complete", "10101"],
)
def test_walks_pmax_at_the_limit_and_one_past(spec, pmax, digits, capsys, monkeypatch):
    assert cli.MAX_FP_BITS == 14_000
    g = parse_graph_spec(spec)
    sb = g.m - math.comb(g.c, 2)
    assert sb == sum(to_bzp(g))
    bits = g.c.bit_length() + pmax * max(1, sb.bit_length())
    assert bits <= cli.MAX_FP_BITS < bits + max(1, sb.bit_length())
    lines = _stdout(["walks", spec, "--kmax", "1", "--pmax", str(pmax), "--csv"], capsys)
    p, fp = lines.splitlines()[-1].split(",")
    assert int(p) == pmax and len(fp) == digits  # within int's 4,300 digits
    assert int(fp) == lw_recurrence(g, 0, pmax=pmax).fp[-1] <= g.c * sb**pmax

    def unreachable(*args, **kwargs):
        raise AssertionError("the walk table is built after the limit check")

    monkeypatch.setattr(cli, "lw_recurrence", unreachable)
    assert run(["walks", spec, "--kmax", "1", "--pmax", str(pmax + 1), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: --pmax {pmax + 1}: bit_length(c) + pmax * max(1, bit_length(sum b)) = "
        f"{bits + max(1, sb.bit_length())} exceeds the F_p limit 14000\n"
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=40), st.integers(0, 12))
def test_walks_fp_bits_stay_within_the_bound(middle, pmax):
    """F_p <= c * (sum b)^p, so its bits are within the bound that --pmax is checked on."""
    g = parse_graph_spec("gen:1" + "".join(map(str, middle)) + "1")
    sb = g.m - math.comb(g.c, 2)
    for p, value in enumerate(lw_recurrence(g, 0, pmax=pmax).fp):
        assert value <= g.c * sb**p
        assert value.bit_length() <= g.c.bit_length() + p * max(1, sb.bit_length())


# ---------------------------------------------------------------------------
# the n-long encodings, written from their blocks
# ---------------------------------------------------------------------------


def _graph_payload(g):
    """The ``"graph"`` object, from the public encodings of the graph."""
    return {
        "n": g.n,
        "m": g.m,
        "c": g.c,
        "z": g.z,
        "generating": g.generating_string,
        "bzp": list(to_bzp(g)),
        "fop": list(to_fop(g)),
        "degrees": list(degree_sequence(g)),
    }


def _analyze_payload(g):
    report = asdict(bound_report(g))
    del report["applicable"]
    return {"graph": _graph_payload(g)} | report


def _walks_payload(g, kmax, pmax=10):
    table = lw_recurrence(g, kmax, pmax=pmax)
    return {
        "graph": _graph_payload(g),
        "kmax": kmax,
        "pmax": pmax,
        "lw": list(table.lw),
        "lw_prime": list(table.lw_prime),
        "lw_double_prime": list(table.lw_double_prime),
        "fp": list(table.fp),
    }


def _stdout(argv, capsys, code=0):
    assert run(argv) == code
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def test_graph_object_shapes(capsys):
    # a complete graph's "bzp": [] is checked in test_walks_json_encodings_at_the_edges
    expected = {
        "n": 5,
        "m": 6,
        "c": 3,
        "z": 2,
        "generating": "10101",
        "bzp": [2, 1],
        "fop": [0, 1, 2],
        "degrees": [4, 3, 2, 2, 1],
    }
    for command in ("analyze", "walks"):
        graph = json.loads(_stdout([command, "gen:10101", "--json"], capsys))["graph"]
        assert list(graph.items()) == list(expected.items())  # the keys in this order


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=12))
def test_encodings_are_written_like_json_dumps_and_str(blocks):
    """The "graph" object equals the validated encodings, in json.dumps's bytes."""
    g = from_composition(blocks)
    spec = "comp:" + to_composition(g)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["walks", spec, "--kmax", "3", "--json"]) == 0
    assert out.getvalue() == json.dumps(_walks_payload(g, 3), indent=2) + "\n"
    try:
        payload = _analyze_payload(g)
    except PreconditionError:
        return  # analyze refuses a graph the bounds do not cover
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["analyze", spec, "--json"]) == 0
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["analyze", spec]) == 0
    lines = out.getvalue().splitlines()
    assert lines[2] == f"bzp          {list(to_bzp(g))}"
    assert lines[3] == f"fop          {list(to_fop(g))}"
    assert lines[4] == f"degrees      {list(degree_sequence(g))}"


@pytest.mark.parametrize(
    "spec, bzp",
    [("comp:G{5}", []), ("comp:G{1,998,1}", [1] * 998)],  # no type-0 vertex; a star
    ids=["complete", "star"],
)
def test_walks_json_encodings_at_the_edges(spec, bzp, capsys):
    g = parse_graph_spec(spec)
    text = _stdout(["walks", spec, "--kmax", "3", "--json"], capsys)
    assert text == json.dumps(_walks_payload(g, 3), indent=2) + "\n"
    assert json.loads(text)["graph"]["bzp"] == bzp


def test_analyze_json_encodings_at_n_100000(capsys):
    g = parse_graph_spec("comp:G{300,99000,700}")
    text = _stdout(["analyze", "comp:G{300,99000,700}", "--json"], capsys)
    assert text == json.dumps(_analyze_payload(g), indent=2) + "\n"


def test_analyze_json_at_the_vertex_limit(capsys):
    graph = json.loads(_stdout(["analyze", "comp:G{3,999996,1}", "--json"], capsys))["graph"]
    assert len(graph["bzp"]) == 999_996 and set(graph["bzp"]) == {1}
    assert len(graph["fop"]) == 4 and len(graph["degrees"]) == 10**6
    assert graph["degrees"][:4] == [999_999, 3, 3, 3] and graph["degrees"][-1] == 1


@pytest.mark.parametrize("k", [2049, 199_997], ids=["limit-plus-one", "alternating-199997"])
def test_analyze_over_the_class_limit_is_a_domain_error(k, capsys):
    # without the limit, 199,997 classes would ask numpy for a 298 GiB quotient
    assert run(["analyze", "gen:" + "10" * (k // 2) + "1", "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: spectral_radius: {k} twin classes exceed the dense-quotient limit "
        f"of {spectral.MAX_QUOTIENT_CLASSES}\n"
    )


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_json(capsys):
    assert run(["enumerate", "--n", "7", "--m", "9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 7 and payload["m"] == 9
    assert payload["census_size"] == 2
    assert payload["maximizers"] == ["G{3,3,1}"]
    assert len(payload["graphs"]) == 2
    flags = [row["is_max"] for row in payload["graphs"]]
    assert flags.count(True) == 1


def _census_payload(n, m, tie_tol, census, reports):
    """The ``enumerate --json`` payload with one dict per row: the oracle for the row template."""
    rho_max = max(report.rho for report in reports)
    flags = [rho_max - report.rho <= tie_tol for report in reports]
    rows = [
        {
            "generating": g.generating_string,
            "composition": to_composition(g),
            "c": g.c,
            "z": g.z,
            "m": g.m,
            "is_max": is_max,
            "rho": report.rho,
            "lower_cubic": report.lower_cubic,
            "lower_corollary": report.lower_corollary,
            "lower_quadratic": report.lower_quadratic,
            "upper_cubic": report.upper_cubic,
            "inequality_root": report.inequality_root,
            "sandwich_ok": report.sandwich_ok,
            "gaps": report.gaps,
        }
        for g, report, is_max in zip(census, reports, flags)
    ]
    return {
        "n": n,
        "m": m,
        "census_size": len(census),
        "rho_max": rho_max,
        "maximizers": [row["composition"] for row in rows if row["is_max"]],
        "graphs": rows,
    }


# the oracles rank by the library's one tie rule
@pytest.mark.parametrize("tie_tol", [TIE_TOL], ids=["default-tie-tol"])
def test_enumerate_json_is_json_dumps_of_the_row_dicts(tie_tol, capsys):
    cells = graphs = inapplicable = maximizers = 0
    for n in range(1, 11):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            if not census:
                continue
            assert run(["enumerate", "--n", str(n), "--m", str(m), "--json"]) == 0
            reports = [bound_report(g, allow_inapplicable=True) for g in census]
            payload = _census_payload(n, m, tie_tol, census, reports)
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
            cells += 1
            graphs += len(census)
            inapplicable += sum(not report.applicable for report in reports)
            maximizers += len(payload["maximizers"])
    # rows without bounds: every graph with n < 4, then the star and the complete graph per n
    assert (cells, graphs, inapplicable) == (130, 512, 18)
    # one maximizer per cell
    assert maximizers == 130


def test_library_and_cli_pick_the_same_maximizers(capsys):
    cells = 0
    for n in range(1, 11):
        for m in range(math.comb(n, 2) + 1):
            if not enumerate_threshold_graphs(n, m):
                continue
            assert run(["enumerate", "--n", str(n), "--m", str(m), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            result = find_extremal(n, m)
            assert result.rho_max == payload["rho_max"]
            assert [to_composition(g) for g in result.maximizers] == payload["maximizers"]
            cells += 1
    assert cells == 130


def _census_text(n, m, tie_tol, census, reports, form):
    """``enumerate --csv`` or human output written per report: the oracle for the class rows."""
    rho_max = max(report.rho for report in reports)
    flags = [rho_max - report.rho <= tie_tol for report in reports]
    columns = "rho lower_cubic lower_corollary lower_quadratic upper_cubic inequality_root".split()
    if form == "csv":
        lines = [",".join(["generating", "c", "z", "m", *columns, "is_max"])]
        for g, report, is_max in zip(census, reports, flags):
            cells = [getattr(report, column) for column in columns]
            lines.append(
                ",".join(
                    [g.generating_string, str(g.c), str(g.z), str(g.m)]
                    + ["" if x is None else format(x, ".17g") for x in cells]
                    + [str(is_max).lower()]
                )
            )
        return "\n".join(lines) + "\n"

    def human(x):
        return format(x, ".12g")

    lines = [f"census n={n} m={m}: {len(census)} graph(s)", ""]
    maximizers = []
    for g, report, is_max in zip(census, reports, flags):
        if is_max:
            maximizers.append(to_composition(g))
        bounds_text = "bounds n/a"
        if report.applicable:
            lowers = ("lower_corollary", "lower_quadratic", "lower_cubic", "inequality_root")
            bounds_text = (
                f"lower=[{', '.join(human(getattr(report, key)) for key in lowers)}] "
                f"upper=[{human(report.upper_cubic)}]"
            )
        lines.append(
            f" {'*' if is_max else ' '} {g.generating_string}  {to_composition(g):<18} "
            f"rho={human(report.rho)}  {bounds_text}"
        )
    lines += ["", f"rho_max {human(rho_max)} attained by {', '.join(maximizers)}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("form", ["csv", "human"])
@pytest.mark.parametrize("tie_tol", [TIE_TOL], ids=["default-tie-tol"])
def test_enumerate_csv_and_human_equal_per_report_rendering(tie_tol, form, capsys):
    cells = 0
    for n in range(1, 11):
        for m in range(math.comb(n, 2) + 1):
            census = enumerate_threshold_graphs(n, m)
            if not census:
                continue
            argv = ["enumerate", "--n", str(n), "--m", str(m)]
            text = _stdout(argv + (["--csv"] if form == "csv" else []), capsys)
            reports = [bound_report(g, allow_inapplicable=True) for g in census]
            assert text == _census_text(n, m, tie_tol, census, reports, form)
            cells += 1
    assert cells == 130


def test_enumerate_evaluates_the_bounds_once_per_class(monkeypatch, capsys):
    calls = []
    real = bounds._bounds

    def counting(inputs, *roots):
        calls.append(inputs)
        return real(inputs, *roots)

    monkeypatch.setattr(bounds, "_bounds", counting)
    rows = json.loads(_stdout(["enumerate", "--n", "16", "--m", "60", "--json"], capsys))["graphs"]
    assert len(rows) == 361
    census = enumerate_threshold_graphs(16, 60)
    classes = {(g.c, _zero_classes(g)[2]) for g in census}  # (c, F_1); every graph has bounds
    assert len(calls) == len(set(calls)) == len(classes) == 108
    assert {(inputs.c, inputs.f1) for inputs in calls} == classes


def test_enumerate_csv_header_and_marking(capsys):
    assert run(["enumerate", "--n", "7", "--m", "9", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "generating,c,z,m,rho,lower_cubic,lower_corollary,"
        "lower_quadratic,upper_cubic,inequality_root,is_max"
    )
    assert len(lines) == 3
    marks = [line.split(",")[-1] for line in lines[1:]]
    assert sorted(marks) == ["false", "true"]


def test_enumerate_human_marks_maximizer(capsys):
    assert run(["enumerate", "--n", "5", "--m", "5"]) == 0
    out = capsys.readouterr().out
    assert "*" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_json_is_clean_at_small_n(capsys):
    assert run(["verify", "--n-max", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_min"] == 4 and payload["n_max"] == 5
    assert payload["mismatch_count"] == 0
    assert payload["rows"]
    for row in payload["rows"]:
        assert row["kind"] in {"asserted", "large-n", "conjecture"}
        assert row["ok"] in (True, False, None)
        if row["kind"] == "asserted":
            assert row["ok"] is True


def test_verify_human_summary(capsys):
    assert run(["verify", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatch(es)" in out


def test_verify_rejects_an_empty_range(capsys):
    assert run(["verify", "--n-min", "9", "--n-max", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n-max must be >= --n-min, got 5 < 9\n"


# ---------------------------------------------------------------------------
# output redirection
# ---------------------------------------------------------------------------


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["analyze", "gen:1101", "--json", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["graph"]["generating"] == "1101"


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

_json_pieces = st.sampled_from(['"', "\\", "\n", ", ", ": ", "\u00e9", "\u2028", "\U0001f600"])
_json_strings = st.lists(st.one_of(_json_pieces, st.characters()), max_size=6).map("".join)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, 1e16, 0.1]),
    st.floats(),
    _json_strings,
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(-(2**200), 2**200), max_size=4),
        st.dictionaries(_json_strings, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2) + "\n"


def _spelled(value, depth: int) -> str:
    """``value`` as ``json.dumps`` writes it ``depth`` levels deep in an indent-2 payload."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


@settings(max_examples=100, deadline=None)
@given(_json_values, st.lists(_json_values, max_size=4))
def test_json_writer_copies_pre_spelled_text(leaf, rows):
    # a census row template is a _Text leaf's kind of text, its filled rows a _Rows list
    spelled = {"leaf": _Text(_spelled(leaf, 1)), "rows": _Rows(_spelled(row, 2) for row in rows)}
    assert _json_text(spelled) == json.dumps({"leaf": leaf, "rows": rows}, indent=2) + "\n"


def test_json_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        _json_text({"graphs": [{1, 2}]})


# ---------------------------------------------------------------------------
# fuzzing: any argv exits 0, 1 or 2
# ---------------------------------------------------------------------------

# Sizes are bounded so that every case runs in bounded time: graph specs
# have n <= 12, --kmax and --pmax <= 60, enumerate --n <= 12 and --m <= 66,
# and verify --n-max <= 8 (every bare integer token is <= 8, so a flag
# that picks one up as its value stays bounded as well).  --output is
# left out, and no junk token starts with "-" (argparse would read a
# prefix of --output as that flag), so no case writes a file.
def _ints(low, high):
    return st.integers(low, high).map(str)


_valued_flags = st.one_of(
    st.tuples(st.just("--kmax"), _ints(-2, 60)),
    st.tuples(st.just("--pmax"), _ints(-2, 60)),
    st.tuples(st.just("--n"), _ints(-2, 12)),
    st.tuples(st.just("--m"), _ints(-2, 66)),
    st.tuples(st.just("--n-min"), _ints(-2, 8)),
    st.tuples(st.just("--n-max"), _ints(-2, 8)),
)
_bare_flags = st.sampled_from(
    ["--json", "--csv", "--kmax", "--n", "--m", "--n-max", "--help", "--bogus"]
)
_graph_specs = st.one_of(
    st.text("01", max_size=12).map(lambda bits: f"gen:{bits}"),
    st.lists(st.integers(0, 3), max_size=4).map(
        lambda blocks: "comp:G{" + ",".join(map(str, blocks)) + "}"
    ),
    st.tuples(st.integers(0, 6), st.lists(st.integers(0, 6), max_size=4)).map(
        lambda cb: f"bzp:{cb[0]}:" + ",".join(map(str, cb[1]))
    ),
)
_junk = st.one_of(
    st.sampled_from(
        ["", "gen:", "gen:10102", "comp:G{", "comp:G{1,,2}", "bzp:", "bzp:x:1", "G{3}",
         "1e400", "nan", "0", "7", "8", "\u00e9"]
    ),
    st.text(string.ascii_letters + ":{},;= \u00e9", max_size=6),
)
_pieces = st.one_of(
    _valued_flags.map(list),
    st.one_of(_bare_flags, _graph_specs, _junk).map(lambda token: [token]),
)
_argv = st.builds(
    lambda head, pieces: [head, *(token for piece in pieces for token in piece)],
    st.sampled_from(["analyze", "walks", "enumerate", "verify", "bogus", ""]),
    st.lists(_pieces, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(_argv)
def test_fuzzed_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

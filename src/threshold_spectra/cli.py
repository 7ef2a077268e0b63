"""Command-line interface.

Subcommands: ``analyze`` (bounds for one graph), ``walks`` (exact walk
tables), ``enumerate`` (census with per-graph bounds at fixed n, m),
``verify`` (reconcile literature predictions against enumeration).

Graphs are given as ``gen:<bits>``, ``comp:G{p1,...,pk}``, or
``bzp:<c>:<b1>,...,<bz>``, with at most ``MAX_VERTICES`` vertices.  On
Linux one argv string holds at most 128 KiB (``MAX_ARG_STRLEN``), so a
``gen:`` string longer than about 131,000 bits cannot be passed on a
command line; larger graphs need ``comp:`` or ``bzp:`` (or ``run`` in
process).  ``walks`` refuses a ``--kmax`` whose LW column would pass
``MAX_WALK_BITS``.  Output is a human table by default, or
``--json`` / ``--csv`` (``verify`` has no CSV form); identical
invocations produce identical bytes.
Exit codes: 0 success, 1 domain errors, 2 usage errors.

JSON output is byte for byte ``json.dumps(payload, indent=2)``.  One
generic writer, ``_json_text``, writes every payload except the rows of
``enumerate --json``: those have a fixed shape, so each is filled into
one of two ``%`` templates (with bounds, or with them null) built once
at import from the same column names.  A graph's n-long bzp, fop and
degree lists come from ``graph_model._json_fields`` as ``_Blocks``, their
``(value, size)`` blocks, and ``_Blocks.join`` writes each block with one
``int.__repr__``: in ``analyze --json`` and ``walks --json`` inside
``_json_text``, and in human ``analyze`` as the text of ``str(list)``.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

from .bounds import PreconditionError, bound_report, bound_reports
from .extremal import TIE_TOL, _nonempty_census, _rank, verify_predictions
from .graph_model import (
    ParseError,
    ThresholdGraph,
    _json_fields,
    from_bzp,
    from_composition,
    from_generating_sequence,
    to_composition,
)
from .spectral import ConvergenceError
from .walks import lw_recurrence

__all__ = ["main", "parse_graph_spec", "run"]


# analyze and walks spell out n-long bzp, fop and degree lists, and enumerate n-long
# generating strings, so a spec's n and the n flags of enumerate and verify are capped
MAX_VERTICES = 10**6

# walks prints LW_0 .. LW_kmax, and LW_k <= n^(k+1), so the LW column has at most about
# kmax^2 * ceil(log2(n + 1)) / 2 bits; the cap on that product also keeps every LW_k
# under 14,200 bits, so it prints within CPython's 4,300-digit int-to-str limit
MAX_WALK_BITS = 10**7


class _UsageError(ValueError):
    """A flag value refused before any work starts: exit 2, like a ParseError."""


def parse_graph_spec(text: str) -> ThresholdGraph:
    """Parse one of the three graph spec forms; error positions index ``text``.

    Every integer, and the graph's vertex count, is at most ``MAX_VERTICES``.
    """
    if text.startswith("gen:"):
        body = text[4:]
        if not body:
            raise ParseError("empty generating sequence", 4)
        _check_order(len(body), 4 + MAX_VERTICES)
        for i, ch in enumerate(body):
            if ch not in "01":
                raise ParseError(f"generating sequence must be 0/1, got {ch!r}", 4 + i)
        return from_generating_sequence(int(ch) for ch in body)
    if text.startswith("comp:"):
        if not text.startswith("comp:G{"):
            raise ParseError("expected composition to start with 'G{'", 5)
        if not text.endswith("}"):
            raise ParseError("expected composition to end with '}'", len(text))
        body = text[7:-1]
        if not body:
            raise ParseError("composition needs at least one block", 7)
        blocks, n = [], 0
        for pos, value in _integers(body, 7, "a positive integer block"):
            if value < 1:
                raise ParseError(f"blocks must be >= 1, got {value}", pos)
            blocks.append(value)
            n += value
            _check_order(n, pos)
        return from_composition(blocks)
    if text.startswith("bzp:"):
        head, _, tail = text[4:].partition(":")
        c = _integer(head, 4, "an integer c after 'bzp:'")
        b = []
        for pos, value in _integers(tail, 5 + len(head), "an integer b entry") if tail else ():
            b.append(value)
            _check_order(c + len(b), pos)
        return from_bzp(c, b)
    raise ParseError("graph spec must start with 'gen:', 'comp:', or 'bzp:'", 0)


def _integer(piece: str, pos: int, what: str) -> int:
    """The ASCII decimal ``piece`` at ``pos``, at most ``MAX_VERTICES``.

    Its length is checked before ``int`` reads it: ``int`` refuses more
    than 4,300 digits with a message that has no position.
    ``str.isdigit`` alone also passes superscripts, which ``int`` rejects,
    and the digits of other scripts, which it reads as numbers.
    """
    if not (piece.isascii() and piece.isdigit()):
        raise ParseError(f"expected {what}, got {piece!r}", pos)
    digits = piece.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
        raise ParseError(f"integer exceeds the vertex limit {MAX_VERTICES}", pos)
    return int(digits)


def _integers(body: str, start: int, what: str):
    """``(position, value)`` per comma-separated integer of ``body``, which begins at ``start``."""
    pos = start
    for piece in body.split(","):
        yield pos, _integer(piece, pos, what)
        pos += len(piece) + 1


def _check_order(n: int, pos: int) -> None:
    if n > MAX_VERTICES:
        raise ParseError(f"graph exceeds the vertex limit {MAX_VERTICES}", pos)


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` byte for byte, without its pure-Python encoder."""
    return _json_value(obj, "\n") + "\n"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_SCALARS = {  # by exact type, so bool never reaches int
    float: lambda x: _FLOAT_WORDS.get(text := float.__repr__(x), text),
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda x: "null",
}


class _Blocks(tuple):
    """An int list held as its ``(value, size)`` blocks, as a graph's encodings are."""

    def join(self, sep: str) -> str:
        """``sep.join(map(repr, the list))``, with one ``int.__repr__`` per block."""
        return sep.join([sep.join([int.__repr__(value)] * size) for value, size in self])


def _json_value(value, indent: str) -> str:
    """One value; ``indent`` is the line break and indentation before its closing bracket."""
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    brackets, inner = ("{}" if isinstance(value, dict) else "[]"), indent + "  "
    if not value:
        return brackets
    if isinstance(value, dict):
        items = [
            encode_basestring_ascii(k) + ": " + _json_value(v, inner) for k, v in value.items()
        ]
    elif type(value) is _Blocks:
        items = [value.join("," + inner)]
    elif set(map(type, value)) == {int}:
        items = map(int.__repr__, value)
    else:
        items = [_json_value(item, inner) for item in value]
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _human_float(x) -> str:
    return format(float(x), ".12g")


_BOUND_COLUMNS = (
    "rho",
    "lower_cubic",
    "lower_corollary",
    "lower_quadratic",
    "upper_cubic",
    "inequality_root",
)


_bound_cells = attrgetter(*_BOUND_COLUMNS)  # the report's values, in column order


def _report_dict(report) -> dict:
    return dict(zip(_BOUND_COLUMNS, _bound_cells(report))) | {
        "sandwich_ok": report.sandwich_ok,
        "gaps": report.gaps,
    }


_GAP_KEYS = _BOUND_COLUMNS[1:]  # bound_reports keys each gap by its bound's column


def _object_text(items, indent: str) -> str:
    """``{key: text}`` laid out like :func:`_json_value`; keys need no escaping."""
    inner = indent + "  "
    return "{" + ",".join(f'{inner}"{key}": {text}' for key, text in items) + indent + "}"


def _census_row_template(applicable: bool) -> str:
    """A row of ``enumerate --json`` at its depth in the payload, as a ``%`` template.

    Strings go in as ``"%s"``, ints as ``%d``, floats as ``%r`` (the
    ``float.__repr__`` that ``json`` uses for finite floats) and booleans
    as ``%s`` of "false" or "true".  For a graph the bounds do not cover,
    the five bounds, ``sandwich_ok`` and ``gaps`` are null.
    """
    gaps = _object_text([(key, "%r") for key in _GAP_KEYS], "\n      ")
    bound, sandwich_ok, gaps = ("%r", "%s", gaps) if applicable else ("null",) * 3
    items = [
        *[("generating", '"%s"'), ("composition", '"%s"')],
        *[("c", "%d"), ("z", "%d"), ("m", "%d"), ("is_max", "%s"), ("rho", "%r")],
        *[(column, bound) for column in _BOUND_COLUMNS[1:]],
        *[("sandwich_ok", sandwich_ok), ("gaps", gaps)],
    ]
    return _object_text(items, "\n    ")


_CENSUS_ROWS = (_census_row_template(False), _census_row_template(True))  # by applicable
_JSON_BOOLS = ("false", "true")
_gap_values = itemgetter(*_GAP_KEYS)


def _census_json(envelope: dict, census, compositions, reports, flags) -> str:
    """``_json_text(envelope | {"graphs": rows})``, with each row from its template."""
    rows = []
    for g, composition, report, is_max in zip(census, compositions, reports, flags):
        head = (g.generating_string, composition, g.c, g.z, g.m, _JSON_BOOLS[is_max])
        if report.applicable:
            rows.append(
                _CENSUS_ROWS[1]
                % (
                    *head,
                    *_bound_cells(report),
                    _JSON_BOOLS[report.sandwich_ok],
                    *_gap_values(report.gaps),
                )
            )
        else:
            rows.append(_CENSUS_ROWS[0] % (*head, report.rho))
    # %r spells non-finite floats nan, inf and -inf, json NaN, Infinity and -Infinity;
    # after ": " only a value can read so, as the strings hold just 0, 1, G, {, } and ","
    text = ",\n    ".join(rows)
    for word, spelling in (("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity")):
        text = text.replace(": " + word, ": " + spelling)
    # the census is never empty: the envelope without its closing "\n}\n", then the rows
    return _json_text(envelope)[:-3] + ',\n  "graphs": [\n    ' + text + "\n  ]\n}\n"


def _csv_line(cells) -> str:
    return ",".join(map(_csv_cell, cells))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> str:
    g = parse_graph_spec(args.graph)
    report = bound_report(g)
    if args.json:
        return _json_text({"graph": _json_fields(g, _Blocks)} | _report_dict(report))
    if args.csv:
        header = _csv_line(["generating", "n", "m", "c", "z", *_BOUND_COLUMNS, "sandwich_ok"])
        row = _csv_line(
            [g.generating_string, g.n, g.m, g.c, g.z, *_bound_cells(report), report.sandwich_ok]
        )
        return header + "\n" + row + "\n"
    info = _json_fields(g, _Blocks)
    lines = [
        f"graph        {g.generating_string}  (n={g.n}, m={g.m}, c={g.c}, z={g.z})",
        f"composition  {to_composition(g)}",
        f"bzp          [{info['bzp'].join(', ')}]",
        f"fop          [{info['fop'].join(', ')}]",
        f"degrees      [{info['degrees'].join(', ')}]",
        "",
    ]
    ordered = sorted(
        [
            (report.lower_corollary, "lower_corollary"),
            (report.lower_quadratic, "lower_quadratic"),
            (report.lower_cubic, "lower_cubic"),
            (report.inequality_root, "inequality_root"),
            (report.rho, "rho"),
            (report.upper_cubic, "upper_cubic"),
        ],
        key=lambda pair: pair[0],
    )
    lines.append("  <=  ".join(f"{label} {_human_float(value)}" for value, label in ordered))
    lines.append(f"sandwich_ok  {report.sandwich_ok}")
    lines.append("gaps to rho  " + "  ".join(
        f"{key}={_human_float(value)}" for key, value in report.gaps.items()
    ))
    return "\n".join(lines) + "\n"


def _cmd_walks(args) -> str:
    g = parse_graph_spec(args.graph)
    table_bits = args.kmax**2 * g.n.bit_length()  # bit_length(n) = ceil(log2(n + 1))
    if table_bits > MAX_WALK_BITS:
        raise _UsageError(
            f"--kmax {args.kmax}: kmax^2 * ceil(log2(n + 1)) = {table_bits} exceeds the walk-table "
            f"limit {MAX_WALK_BITS}"
        )
    table = lw_recurrence(g, args.kmax, pmax=args.pmax)
    if args.json:
        return _json_text(
            {
                "graph": _json_fields(g, _Blocks),
                "kmax": args.kmax,
                "pmax": args.pmax,
                "lw": list(table.lw),
                "lw_prime": list(table.lw_prime),
                "lw_double_prime": list(table.lw_double_prime),
                "fp": list(table.fp),
            }
        )
    if args.csv:
        lines = ["k,LW,LW_prime,LW_double_prime"]
        for k in range(args.kmax + 1):
            lines.append(f"{k},{table.lw[k]},{table.lw_prime[k]},{table.lw_double_prime[k]}")
        lines.append("")
        lines.append("p,F_p")
        for p, value in enumerate(table.fp):
            lines.append(f"{p},{value}")
        return "\n".join(lines) + "\n"
    width = max(len(str(table.lw_double_prime[-1])), len("LW_double_prime"))
    lines = [
        f"graph {g.generating_string}  (n={g.n}, m={g.m}, c={g.c}, z={g.z})",
        "",
        f"{'k':>4}  {'LW':>{width}}  {'LW_prime':>{width}}  {'LW_double_prime':>{width}}",
    ]
    for k in range(args.kmax + 1):
        lines.append(
            f"{k:>4}  {table.lw[k]:>{width}}  {table.lw_prime[k]:>{width}}  "
            f"{table.lw_double_prime[k]:>{width}}"
        )
    lines.append("")
    lines.append(f"{'p':>4}  F_p")
    for p, value in enumerate(table.fp):
        lines.append(f"{p:>4}  {value}")
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> str:
    census = _nonempty_census(args.n, args.m)
    reports = bound_reports(census, allow_inapplicable=True)
    rho_max, flags = _rank([report.rho for report in reports], args.tie_tol)
    if args.csv:
        lines = [_csv_line(["generating", "c", "z", "m", *_BOUND_COLUMNS, "is_max"])]
        for g, report, is_max in zip(census, reports, flags):
            lines.append(
                _csv_line([g.generating_string, g.c, g.z, g.m, *_bound_cells(report), is_max])
            )
        return "\n".join(lines) + "\n"
    compositions = [to_composition(g) for g in census]
    maximizers = [text for text, is_max in zip(compositions, flags) if is_max]
    if args.json:
        envelope = {
            "n": args.n,
            "m": args.m,
            "census_size": len(census),
            "rho_max": rho_max,
            "maximizers": maximizers,
        }
        return _census_json(envelope, census, compositions, reports, flags)
    lines = [f"census n={args.n} m={args.m}: {len(census)} graph(s)", ""]
    for g, composition, report, is_max in zip(census, compositions, reports, flags):
        marker = "*" if is_max else " "
        bounds = (
            "bounds n/a"
            if not report.applicable
            else (
                f"lower=[{_human_float(report.lower_corollary)}, "
                f"{_human_float(report.lower_quadratic)}, {_human_float(report.lower_cubic)}, "
                f"{_human_float(report.inequality_root)}]"
                f" upper=[{_human_float(report.upper_cubic)}]"
            )
        )
        lines.append(
            f" {marker} {g.generating_string}  {composition:<18} "
            f"rho={_human_float(report.rho)}  {bounds}"
        )
    lines.append("")
    lines.append(f"rho_max {_human_float(rho_max)} attained by {', '.join(maximizers)}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> str:
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max must be >= --n-min, got {args.n_max} < {args.n_min}")
    verified = verify_predictions(range(args.n_min, args.n_max + 1))
    mismatches = sum(row.ok is False for row in verified)
    rows = []
    for row in verified:
        rows.append(
            {
                "n": row.n,
                "m": row.m,
                "kind": row.kind,
                "rule": row.rule,
                "predicted": [to_composition(g) for g in row.predicted],
                "maximizers": [to_composition(g) for g in row.maximizers],
                "ok": row.ok,
                "note": row.note,
            }
        )
    if args.json:
        return _json_text(
            {
                "n_min": args.n_min,
                "n_max": args.n_max,
                "mismatch_count": mismatches,
                "rows": rows,
            }
        )
    lines = []
    for row in rows:
        status = {True: "ok", False: "MISMATCH", None: "recorded"}[row["ok"]]
        lines.append(
            f"n={row['n']:<3} m={row['m']:<4} {row['kind']:<10} {row['rule']:<16} "
            f"{status:<9} predicted={','.join(row['predicted'])} "
            f"maximizers={','.join(row['maximizers'])} ({row['note']})"
        )
    asserted = [row for row in rows if row["kind"] == "asserted"]
    lines.append("")
    lines.append(
        f"checked {len(asserted)} asserted rows, {mismatches} mismatch(es); "
        f"{len(rows) - len(asserted)} evidence rows recorded"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser and entry points
# ---------------------------------------------------------------------------


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _order(text: str) -> int:
    """An n flag: an integer in [1, MAX_VERTICES], like the n of a spec."""
    value = _int_at_least(1)(text)
    if value > MAX_VERTICES:
        raise argparse.ArgumentTypeError(f"exceeds the vertex limit {MAX_VERTICES}, got {text!r}")
    return value


def _add_format_flags(parser: argparse.ArgumentParser, csv: bool = True) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    if csv:
        group.add_argument("--csv", action="store_true", help="emit CSV")
    parser.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-spectra",
        description="Spectral radii, lazy-walk counts, and extremal threshold graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="bound report for one graph")
    p_analyze.add_argument("graph", help="gen:<bits> | comp:G{p1,...} | bzp:<c>:<b1,...>")
    _add_format_flags(p_analyze)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_walks = sub.add_parser("walks", help="exact walk-count tables for one graph")
    p_walks.add_argument("graph", help="gen:<bits> | comp:G{p1,...} | bzp:<c>:<b1,...>")
    p_walks.add_argument(
        "--kmax",
        type=_int_at_least(0),
        default=50,
        help="longest walk length (default 50), with kmax^2 * ceil(log2(n+1)) at most "
        f"{MAX_WALK_BITS}; a step costs about 3.5*K big-integer operations for K twin "
        "classes, and about K small-by-big products once kmax >= 3*K and the class "
        "quotient's characteristic polynomial has coefficients below 2^63 (so K "
        "below about 80); LW_k has about k*log2(1+rho) bits, 973 at k = 200 on the "
        "45-vertex alternating graph",
    )
    p_walks.add_argument("--pmax", type=_int_at_least(0), default=10)
    _add_format_flags(p_walks)
    p_walks.set_defaults(handler=_cmd_walks)

    p_enum = sub.add_parser("enumerate", help="census with bounds at fixed n, m")
    p_enum.add_argument("--n", type=_order, required=True)
    # m above C(n, 2) is a domain error (exit 1): that limit depends on n
    p_enum.add_argument("--m", type=_int_at_least(0), required=True)
    p_enum.add_argument("--tie-tol", type=_nonnegative_float, default=TIE_TOL, dest="tie_tol")
    _add_format_flags(p_enum)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="reconcile predictions with enumeration")
    p_verify.add_argument("--n-max", type=_order, required=True, dest="n_max")
    p_verify.add_argument("--n-min", type=_order, default=4, dest="n_min")
    _add_format_flags(p_verify, csv=False)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


_parser = cache(build_parser)  # run reuses one parser: building it costs more than a parse


def run(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        text = args.handler(args)
    except (ParseError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: --output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

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
``MAX_WALK_BITS``, a ``--pmax`` whose F_pmax could pass ``MAX_FP_BITS``
bits, and a table whose LW and F_p steps over the graph's K twin
classes together would take longer than ``MAX_WALK_WORK`` allows.
Output is a human table by default, or ``--json`` / ``--csv``
(``verify`` has no CSV form); identical invocations produce identical
bytes.
Exit codes: 0 success, 1 domain errors, 2 usage errors.

JSON output is byte for byte ``json.dumps(payload, indent=2)``.  One
generic writer, ``_json_text``, lays out every payload, rows included.
The rows of ``enumerate --json`` have a fixed shape: it lays out two
row dicts with ``%`` placeholder leaves (``_Text``) once, at import,
and each census hands it the filled rows as one ``_Rows`` list.
``enumerate`` reads the class core of :mod:`threshold_spectra.bounds`
(rho per graph, a class index per graph, five bounds per (c, F_1)
class), not a report per graph.  A row without bounds fills the null
template.  A class fills the other with its c, z, m and bounds once, at
its first graph, and each graph of the class then fills only its own
fields.  The human and CSV forms likewise spell each class's bounds
once per census, and each row writes its own cells around them.  The
two text columns are built once per census as well, in
:mod:`threshold_spectra.graph_model`: ``_generating_strings`` cuts every
generating string from one byte buffer, and ``_compositions`` spells
each distinct run length once.  All three forms read the string column;
JSON and human rows, and the maximizers, read the composition column.
The CLI writes the ``"graph"`` object of ``analyze`` and ``walks``
itself: a graph's n-long bzp, fop and degree lists are ``_Blocks``,
their ``(value, size)`` blocks from
``graph_model._vertex_blocks``, and ``_Blocks.join`` writes each block
with one ``int.__repr__``: in ``analyze --json`` and ``walks --json``
inside ``_json_text``, and in human ``analyze`` as the text of
``str(list)``.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import comb
from operator import attrgetter

from .bounds import _GAP_NAMES, _bound_classes, _sandwich, bound_report
from .extremal import _nonempty_census, _rank, verify_predictions
from .graph_model import (
    ParseError,
    ThresholdGraph,
    _compositions,
    _generating_strings,
    _vertex_blocks,
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

# a class step of LW costs about 3.5 K operations on integers of up to about kmax * log2(n + 1)
# bits, and an F_p step about K on up to fp_bits bits (the quantity MAX_FP_BITS caps), so
# a table's time grows with K * (kmax^2 * ceil(log2(n + 1)) + pmax * fp_bits) for K twin
# classes; at this one budget the whole table takes at most about 2 s on a 2-vCPU host
# (10^6 one-vertex classes at kmax 7 and pmax 0, or at kmax 0 and pmax 4), and the walks
# benchmark pool peaks at 45 * (220^2 * 6 + 10 * 116), about 1.3 * 10^7
MAX_WALK_WORK = 10**9

# walks prints F_0 .. F_pmax, and F_p <= c * (sum b)^p, so bit_length(c) + pmax *
# bit_length(sum b) bounds their bits; this cap keeps each within CPython's 4,300-digit
# int-to-str limit (2^14000 < 10^4215).  sum b counts as one bit at least, so a complete
# graph gets no endless table; the walks benchmark pool (pmax 10, n <= 45) needs at most 116
MAX_FP_BITS = 14_000


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
    """
    if not _ascii_digits(piece):
        raise ParseError(f"expected {what}, got {piece!r}", pos)
    digits = piece.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
        raise ParseError(f"integer exceeds the vertex limit {MAX_VERTICES}", pos)
    return int(digits)


def _ascii_digits(text: str) -> bool:
    """ASCII digits only: ``int`` also reads other scripts' digits, '_', signs and blanks."""
    return text.isascii() and text.isdigit()


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
    if isinstance(x, bool):
        return _BOOL_WORDS[x]
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` byte for byte, without its pure-Python encoder."""
    return _json_value(obj, "\n") + "\n"


class _Text(str):
    """A value already spelled as JSON text, which the writer copies as it stands."""


class _Rows(list):
    """A list of values already spelled as JSON text at their depth, joined as they stand."""


class _Blocks(tuple):
    """An int list held as its ``(value, size)`` blocks, as a graph's encodings are.

    Every block has size >= 1, as ``graph_model._vertex_blocks`` builds them.
    """

    def join(self, sep: str) -> str:
        """``sep.join(map(repr, the list))``, each block one ``int.__repr__`` and one repeat."""
        blocks = []
        for value, size in self:
            text = int.__repr__(value)
            blocks.append((text + sep) * (size - 1) + text)
        return sep.join(blocks)


_BOOL_WORDS = ("false", "true")
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_SCALARS = {  # by exact type, so bool never reaches int
    float: lambda x: _FLOAT_WORDS.get(text := float.__repr__(x), text),
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _BOOL_WORDS.__getitem__,
    type(None): lambda x: "null",
    _Text: str,
}


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
        items = [f"{encode_basestring_ascii(k)}: {_json_value(v, inner)}" for k, v in value.items()]
    elif type(value) is _Blocks:
        items = [value.join("," + inner)]
    elif type(value) is _Rows:
        items = value
    elif set(map(type, value)) == {int}:
        # an LW or F_p column: int.__repr__ per item, not a _json_value call; without this
        # branch the 40 seed-1 walks --json benchmark runs took 58-62 ms against 55-56 ms
        items = map(int.__repr__, value)
    else:
        items = [_json_value(item, inner) for item in value]
    # one f-string builds the text in one copy; "+" would copy a census's rows once per piece
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _human_float(x) -> str:
    return format(float(x), ".12g")


_BOUND_COLUMNS = ("rho", *_GAP_NAMES)  # rho, then the five bounds in report field order
_bound_cells = attrgetter(*_BOUND_COLUMNS)  # the report's values, in column order


def _report_dict(report) -> dict:
    return dict(zip(_BOUND_COLUMNS, _bound_cells(report))) | {
        "sandwich_ok": report.sandwich_ok,
        "gaps": report.gaps,
    }


def _graph_object(g: ThresholdGraph) -> dict:
    """The ``"graph"`` object of ``analyze`` and ``walks``, each n-long list as its ``_Blocks``."""
    bzp, fop, degrees = map(_Blocks, _vertex_blocks(g))
    return {
        "n": g.n,
        "m": g.m,
        "c": g.c,
        "z": g.z,
        "generating": g.generating_string,
        "bzp": bzp,
        "fop": fop,
        "degrees": degrees,
    }


def _census_row_template(applicable: bool) -> str:
    """A row of ``enumerate --json`` at its depth in the payload, as a ``%`` template.

    Strings go in as ``"%s"``, ints as ``%d``, floats as ``%r`` (the
    ``float.__repr__`` that ``json`` uses for finite floats) and booleans
    as ``%s`` of "false" or "true".  For a graph the bounds do not cover,
    the five bounds, ``sandwich_ok`` and ``gaps`` are null, and the
    graph fills the rest.  With bounds, this is a class template: c, z,
    m and the five bounds of one (c, F_1) class fill it, and the fields
    of one graph (escaped as ``%%``) are left for each graph of the class.
    """
    own = "%%" if applicable else "%"  # the fields each graph fills
    string, flag, number = _Text(f'"{own}s"'), _Text(own + "s"), _Text(own + "r")
    count = _Text("%d")  # c, z and m, which the class or the graph fills
    row = {"generating": string, "composition": string, "c": count, "z": count, "m": count}
    row |= {"is_max": flag, "rho": number, **dict.fromkeys(_GAP_NAMES, _Text("%r"))}
    row |= {"sandwich_ok": flag, "gaps": dict.fromkeys(_GAP_NAMES, number)}
    if not applicable:
        row |= dict.fromkeys([*_GAP_NAMES, "sandwich_ok", "gaps"])  # null, each key in its place
    return _json_value(row, "\n    ")


_NULL_ROW, _CLASS_ROW = _census_row_template(False), _census_row_template(True)


def _census_json(envelope: dict, census, strings, compositions, classes, flags) -> str:
    """``_json_text(envelope | {"graphs": rows})``, with each row from a template.

    ``strings`` and ``compositions`` are the census's generating-string
    and composition columns.  A class's row template is filled once, at
    its first graph; each graph then writes only its own fields, of
    which rho and the five gaps are floats.  On the seed-1 census
    benchmark pool these fills take about 160 ms per pass, the text
    columns 27 ms more (in-process, 2-vCPU x86-64 host); one template
    with all 18 fields filled per row was 31 % slower when it was tried.
    """
    values = classes.values
    templates = [None] * len(values)
    rows = _Rows()
    for g, text, composition, rho, k, is_max in zip(
        census, strings, compositions, classes.radii, classes.members, flags
    ):
        if k is None:
            rows.append(_NULL_ROW % (text, composition, g.c, g.z, g.m, _BOOL_WORDS[is_max], rho))
            continue
        template = templates[k]
        if template is None:
            template = templates[k] = _CLASS_ROW % (g.c, g.z, g.m, *values[k])
        sandwich_ok, gaps = _sandwich(rho, values[k])
        rows.append(
            template
            % (text, composition, _BOOL_WORDS[is_max], rho, _BOOL_WORDS[sandwich_ok], *gaps)
        )
    # %r spells a float as json does only while it is finite, and no row float is nan or inf:
    # rho and each root bound come from a bracket the root kernel checked finite, or from eigh
    # with a residual check that a non-finite rho fails, the corollary and quadratic bounds are
    # finite for c >= 3 and n >= 4, and every value is below about 2e6 for n <= 10^6, so no gap
    # overflows
    return _json_text(envelope | {"graphs": rows})


# the lower-side values in human output, in the order a sort by value keeps for ties
_HUMAN_LOWERS = ("lower_corollary", "lower_quadratic", "lower_cubic", "inequality_root")


def _human_bounds(values) -> str:
    """One class's bounds in a human ``enumerate`` line, in ``_HUMAN_LOWERS`` order."""
    named = dict(zip(_GAP_NAMES, map(_human_float, values)))
    lowers = ", ".join(named[name] for name in _HUMAN_LOWERS)
    return f"lower=[{lowers}] upper=[{named['upper_cubic']}]"


def _csv_line(cells) -> str:
    return ",".join(map(_csv_cell, cells))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> str:
    g = parse_graph_spec(args.graph)
    report = bound_report(g)
    if args.json:
        return _json_text({"graph": _graph_object(g)} | _report_dict(report))
    if args.csv:
        header = _csv_line(["generating", "n", "m", "c", "z", *_BOUND_COLUMNS, "sandwich_ok"])
        row = _csv_line(
            [g.generating_string, g.n, g.m, g.c, g.z, *_bound_cells(report), report.sandwich_ok]
        )
        return header + "\n" + row + "\n"
    bzp, fop, degrees = map(_Blocks, _vertex_blocks(g))
    lines = [
        f"graph        {g.generating_string}  (n={g.n}, m={g.m}, c={g.c}, z={g.z})",
        f"composition  {to_composition(g)}",
        f"bzp          [{bzp.join(', ')}]",
        f"fop          [{fop.join(', ')}]",
        f"degrees      [{degrees.join(', ')}]",
        "",
    ]
    ordered = sorted(
        [(getattr(report, name), name) for name in (*_HUMAN_LOWERS, "rho", "upper_cubic")],
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
    lw_bits = args.kmax**2 * g.n.bit_length()  # bit_length(n) = ceil(log2(n + 1))
    if lw_bits > MAX_WALK_BITS:
        raise _UsageError(
            f"--kmax {args.kmax}: kmax^2 * ceil(log2(n + 1)) = {lw_bits} exceeds the walk-table "
            f"limit {MAX_WALK_BITS}"
        )
    sb = g.m - comb(g.c, 2)  # every edge but the C(c, 2) among the ones has one type-0 end
    fp_bits = g.c.bit_length() + args.pmax * max(1, sb.bit_length())
    if fp_bits > MAX_FP_BITS:
        raise _UsageError(
            f"--pmax {args.pmax}: bit_length(c) + pmax * max(1, bit_length(sum b)) = {fp_bits} "
            f"exceeds the F_p limit {MAX_FP_BITS}"
        )
    work = len(g.runs) * (lw_bits + args.pmax * fp_bits)
    if work > MAX_WALK_WORK:
        raise _UsageError(
            f"--kmax {args.kmax} --pmax {args.pmax}: K * (kmax^2 * ceil(log2(n + 1)) + pmax * "
            f"(bit_length(c) + pmax * max(1, bit_length(sum b)))) = {work} for K = "
            f"{len(g.runs)} twin classes exceeds the walk-time limit {MAX_WALK_WORK}"
        )
    table = lw_recurrence(g, args.kmax, pmax=args.pmax)
    if args.json:
        # then lw, lw_prime, lw_double_prime and fp: the table's fields, its tuples as they are
        head = {"graph": _graph_object(g), "kmax": args.kmax, "pmax": args.pmax}
        return _json_text(head | vars(table))
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
    classes = _bound_classes(census)
    rho_max, flags = _rank(classes.radii)
    strings = _generating_strings(census)
    rows = zip(census, strings, classes.radii, classes.members, flags)
    if args.csv:
        bounds = [_csv_line(values) for values in classes.values]  # once per (c, F_1) class
        lines = [_csv_line(["generating", "c", "z", "m", *_BOUND_COLUMNS, "is_max"])]
        for g, text, rho, k, is_max in rows:
            cells = ",,,," if k is None else bounds[k]  # five empty cells without bounds
            lines.append(f"{text},{g.c},{g.z},{g.m},{rho:.17g},{cells},{_BOOL_WORDS[is_max]}")
        return "\n".join(lines) + "\n"
    compositions = _compositions(census)
    maximizers = [text for text, is_max in zip(compositions, flags) if is_max]
    if args.json:
        envelope = {
            "n": args.n,
            "m": args.m,
            "census_size": len(census),
            "rho_max": rho_max,
            "maximizers": maximizers,
        }
        return _census_json(envelope, census, strings, compositions, classes, flags)
    bounds = [_human_bounds(values) for values in classes.values]
    lines = [f"census n={args.n} m={args.m}: {len(census)} graph(s)", ""]
    for (_, text, rho, k, is_max), composition in zip(rows, compositions):
        marker = "*" if is_max else " "
        lines.append(
            f" {marker} {text}  {composition:<18} "
            f"rho={_human_float(rho)}  {'bounds n/a' if k is None else bounds[k]}"
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


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            # an optional '-' and ASCII digits, as a spec reads them; int refuses 4,301 digits
            if not _ascii_digits(text.removeprefix("-")):
                raise ValueError
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
        f"{MAX_WALK_BITS}, and K * (that + pmax * F_p bits) at most {MAX_WALK_WORK} for K "
        "twin classes",
    )
    p_walks.add_argument(
        "--pmax",
        type=_int_at_least(0),
        default=10,
        help="largest p of F_p (default 10), with F_p bits = bit_length(c) + pmax * "
        f"max(1, bit_length(sum b)) at most {MAX_FP_BITS}; pmax * F_p bits counts in the "
        f"time limit {MAX_WALK_WORK} of --kmax",
    )
    _add_format_flags(p_walks)
    p_walks.set_defaults(handler=_cmd_walks)

    p_enum = sub.add_parser("enumerate", help="census with bounds at fixed n, m")
    p_enum.add_argument("--n", type=_order, required=True)
    # m above C(n, 2) is a domain error (exit 1): that limit depends on n
    p_enum.add_argument("--m", type=_int_at_least(0), required=True)
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
    except (ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is not None:
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

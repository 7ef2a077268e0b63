"""Exhaustive spectral-radius maximizer search at fixed order and size.

Connected threshold graphs with n vertices and m edges are enumerated
through their (c, b) encoding: for every feasible count c of type-1
vertices, the b entries form a nonincreasing tuple of length z = n - c
with parts in [1, c-1] summing to m - C(c, 2).  That makes the census
isomorphism-free by construction and cheap to walk exhaustively.

``find_extremal`` ranks the census by spectral radius under one tie
rule: a graph is a maximizer when its rho is within ``TIE_TOL`` = 1e-9
of the best (``enumerate`` ranks by the same rule).  For several size ranges the literature pins down (or
conjectures) the maximizing family; ``predict_maximizers`` instantiates
those families at (n, m) as ``Prediction(kind, rule, graphs)`` rows and
``verify_predictions`` reconciles them against the enumeration.

The rules read the surplus s = m - n + 1 over a spanning tree, split
once as s = C(k, 2) + t with 0 <= t < k (k the largest with
C(k, 2) <= s); no rule speaks about s < 0.  A connected graph's
generating sequence has ones at vertices 0 and n - 1 and at a set P of
distinct positions in [1, n - 2] summing to s, and every family is one
of two such sets: P_a = {1, ..., k} minus {k - t}, and P_b = {s}.  A
set fits at n exactly when each position is at most n - 2, and P_b fits
only where P_a does; a row keeps the graphs that fit, in order, and a
row with none is left out.

===============  ==========  ========================================  ========
rule             kind        condition                                 rows
===============  ==========  ========================================  ========
m=n-1 ... m=n+2  asserted    s = 0, 1, 2, 3 in turn                    P_a
m=n+C(k,2)-1     asserted    t = 0, s >= 4                             P_a, P_b
m=n+C(k,2)-2     asserted    t = k - 1, s >= 4, 2n <= m < C(n, 2) - 1  P_a
m=n+t            large-n     s >= 4 (t' = s - 1 in m = n + t')         P_b
open case        conjecture  t >= 1, k >= 3                            P_a, P_b
===============  ==========  ========================================  ========

An asserted row is a set: the maximizers must be a nonempty subset of
it (Bell 1991 for the t = 0 pair; in m=n+C(k,2)-2 the rule's k is
k + 1).  Large-n rows, expected to win for large enough n, and open-case
rows (candidate_a, then candidate_b) are evidence, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator

from .graph_model import ThresholdGraph, _from_runs
from .spectral import spectral_radii

__all__ = [
    "ExtremalResult",
    "Prediction",
    "VerificationRow",
    "enumerate_threshold_graphs",
    "find_extremal",
    "predict_maximizers",
    "verify_predictions",
]

TIE_TOL = 1e-9


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of ranking one (n, m) census by spectral radius."""

    n: int
    m: int
    rho_max: float
    maximizers: tuple[ThresholdGraph, ...]
    census_size: int


@dataclass(frozen=True)
class Prediction:
    """Literature families instantiated at (n, m), one row per kind.

    ``kind`` is "asserted" (the maximizers must be a nonempty subset of
    ``graphs``), "large-n" or "conjecture" (expectations to record, not
    to assert); ``rule`` names the size range.
    """

    kind: str
    rule: str
    graphs: tuple[ThresholdGraph, ...]


@dataclass(frozen=True)
class VerificationRow:
    """One reconciliation line of predictions against enumeration."""

    n: int
    m: int
    kind: str  # "asserted", "large-n", or "conjecture"
    rule: str
    predicted: tuple[ThresholdGraph, ...]
    maximizers: tuple[ThresholdGraph, ...]
    ok: bool | None  # None for evidence-only rows
    note: str


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def _partition_runs(c: int, total: int, parts: int, memo: dict) -> list[tuple[int, ...]]:
    """The runs of ``from_bzp(c, b)`` for every nonincreasing b with ``parts``
    entries in [1, c - 1] summing to ``total``, b in descending lex order.

    The runs are c - b_1, then per group of equal b its count and the gap
    to the next value, then b_last.  Groups come by value, then count,
    both descending.  The list of each (c, total, parts) is kept in
    ``memo``, so a census lists the runs after a group once, and every
    group before it reuses them.
    """
    key = (c, total, parts)
    found = memo.get(key)
    if found is not None:
        return found
    if parts == 0:
        found = [(c,)]
    else:
        found = []
        # the first value is at least the average and leaves at least 1 per later part
        for value in range(min(c - 1, total - parts + 1), -(-total // parts) - 1, -1):
            # the other parts - count entries lie in [1, value - 1] and sum to total - count * value
            most = min(parts, (total - parts) // (value - 1)) if value > 1 else parts
            for count in range(most, max(1, total - parts * (value - 1)) - 1, -1):
                head = (c - value, count)
                rests = _partition_runs(value, total - count * value, parts - count, memo)
                found += [head + rest for rest in rests]
    memo[key] = found
    return found


def _connected_census(n: int, m: int) -> Iterator[ThresholdGraph]:
    memo: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    for c in range(1, n + 1):
        z = n - c
        remainder = m - comb(c, 2)
        if remainder < 0:
            break  # C(c, 2) only grows with c
        if not z <= remainder <= z * (c - 1):
            continue  # every b_i lies in [1, c - 1]
        for runs in _partition_runs(c, remainder, z, memo):
            yield ThresholdGraph(runs=runs, n=n, m=m, c=c, z=z)


def enumerate_threshold_graphs(n: int, m: int) -> list[ThresholdGraph]:
    """All connected threshold graphs with n vertices and m edges, one per class.

    Ordered by (c ascending, b descending lexicographic).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0 or m > comb(n, 2):
        raise ValueError(f"m must lie in [0, C(n,2)] = [0, {comb(n, 2)}], got {m}")
    return list(_connected_census(n, m))


def _nonempty_census(n: int, m: int) -> list[ThresholdGraph]:
    """``enumerate_threshold_graphs(n, m)``; an empty census is a ValueError."""
    census = enumerate_threshold_graphs(n, m)
    if not census:
        raise ValueError(f"no connected threshold graph has n = {n}, m = {m}")
    return census


def _rank(radii) -> tuple[float, list[bool]]:
    """The greatest radius, and per radius whether it is within ``TIE_TOL`` of it."""
    rho_max = max(radii)
    return rho_max, [rho_max - rho <= TIE_TOL for rho in radii]


# ---------------------------------------------------------------------------
# maximizer search
# ---------------------------------------------------------------------------


def find_extremal(n: int, m: int) -> ExtremalResult:
    """Rank the connected census at (n, m) by spectral radius.

    Graphs within ``TIE_TOL`` of the best value are maximizers.
    """
    census = _nonempty_census(n, m)
    rho_max, flags = _rank(spectral_radii(census))
    maximizers = tuple(g for g, is_max in zip(census, flags) if is_max)
    return ExtremalResult(n, m, rho_max, maximizers, len(census))


# ---------------------------------------------------------------------------
# literature families
# ---------------------------------------------------------------------------


def _surplus_split(s: int) -> tuple[int, int]:
    """(k, t) with s == C(k, 2) + t and 0 <= t < k, for s >= 0.

    k is the largest with C(k, 2) <= s, so the split is unique.
    """
    k = (1 + isqrt(1 + 8 * s)) // 2
    return k, s - comb(k, 2)


def _surplus_graph(n: int, positions) -> ThresholdGraph | None:
    """The graph on n vertices with ones at vertex 0, at vertex n - 1 and at each position.

    ``positions`` are distinct positive integers; they fit, and the
    graph is connected with n - 1 + sum(positions) edges, exactly when
    each is at most n - 2, and otherwise there is no graph (None).  The
    runs come from the sorted positions, so the cost does not grow with n.
    """
    if any(p > n - 2 for p in positions):
        return None
    ones = sorted({0, *positions, n - 1})  # vertex 0 is vertex n - 1 at n = 1
    pairs = [(1, 1)]
    for before, one in zip(ones, ones[1:]):
        pairs += [(0, one - before - 1), (1, 1)]
    return _from_runs(pairs)


# the rules of the fixed small sizes, by the surplus s = m - n + 1
_SMALL_RULES = ("m=n-1", "m=n", "m=n+1", "m=n+2")


def predict_maximizers(n: int, m: int) -> tuple[Prediction, ...]:
    """Instantiate every literature family that speaks about (n, m).

    At most one row per kind, in the order asserted, large-n, conjecture;
    a row keeps the graphs that fit, and a row with none is left out.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = m - n + 1
    if s < 0:
        return ()
    k, t = _surplus_split(s)
    # P_a and P_b of the module docstring, None where the set does not fit
    a = _surplus_graph(n, [p for p in range(1, k + 1) if p != k - t])
    b = _surplus_graph(n, [s]) if s >= 4 else None
    rows = []
    if s <= 3:
        rows.append(("asserted", _SMALL_RULES[s], (a,)))
    elif t == 0:
        rows.append(("asserted", "m=n+C(k,2)-1", (a, b)))
    elif t == k - 1 and 2 * n <= m < comb(n, 2) - 1:
        # the rule's k is k + 1 here: s + 1 == C(k + 1, 2)
        rows.append(("asserted", "m=n+C(k,2)-2", (a,)))
    rows.append(("large-n", "m=n+t", (b,)))
    if t >= 1 and k >= 3:
        rows.append(("conjecture", "open case", (a, b)))
    predictions = [Prediction(kind, rule, tuple(filter(None, row))) for kind, rule, row in rows]
    return tuple(p for p in predictions if p.graphs)


def verify_predictions(n_values) -> tuple[VerificationRow, ...]:
    """Reconcile every applicable prediction against the enumeration.

    Asserted rows fail (ok is False) when the empirical maximizers are
    not a subset of the predicted set.  Large-n and open-case rows only
    record whether the empirical winner matches a candidate.
    """
    rows: list[VerificationRow] = []
    for n in n_values:
        for m in range(max(n - 1, 0), comb(n, 2) + 1):
            predictions = predict_maximizers(n, m)
            if not predictions:
                continue
            maximizers = find_extremal(n, m).maximizers  # never empty
            winners = set(maximizers)
            for p in predictions:
                ok = None
                if p.kind == "asserted":
                    ok = winners <= set(p.graphs)
                    note = "subset of predicted set" if ok else "maximizer outside predicted set"
                elif p.kind == "large-n":
                    note = "matches" if p.graphs[0] in winners else "does not match at this n"
                else:
                    in_a = p.graphs[0] in winners
                    in_b = len(p.graphs) > 1 and p.graphs[1] in winners
                    note = _CONJECTURE_NOTES[in_a, in_b]
                rows.append(VerificationRow(n, m, p.kind, p.rule, p.graphs, maximizers, ok, note))
    return tuple(rows)


# by (candidate_a maximizes, candidate_b maximizes)
_CONJECTURE_NOTES = {
    (True, True): "both candidates maximize",
    (True, False): "candidate_a maximizes",
    (False, True): "candidate_b maximizes",
    (False, False): "neither candidate maximizes",
}

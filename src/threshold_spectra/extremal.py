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
C(k, 2) <= s); no rule speaks about s < 0:

* s <= 3: the star (m = n - 1), then one fixed small family each for
  m = n, n + 1, n + 2.
* t = 0, s >= 4 (m = n + C(k, 2) - 1, k >= 4): one or both of two
  families (the prediction is a set, maximizers must be a nonempty subset).
* t = k - 1, s >= 4, with 2n <= m < C(n, 2) - 1
  (m = n + C(k + 1, 2) - 2): one family.
* s >= 4 (m = n + t' with t' = s - 1 >= 3): a ``large-n`` family
  expected to win for large enough n; recorded as evidence, never asserted.
* t >= 1, 3 <= k <= n - 2: a ``conjecture`` row of two open-case
  candidates, candidate_a then candidate_b (the large-n family) when it
  fits; the empirical winner is recorded, never asserted.

Each family is a tuple of alternating block lengths that sum to n and
end in one vertex of type 1, and its rule's size gives it m edges, so
it fits at (n, m), as a connected graph, exactly when no block is
negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator

from .graph_model import ThresholdGraph, _block_runs, _from_runs
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


def _families(*families: tuple[int, ...]) -> tuple[ThresholdGraph, ...]:
    """The families with no negative block, instantiated, in order.

    At small n some blocks become 0 (the runs collapse) or negative (the
    family does not fit).
    """
    return tuple(_from_runs(_block_runs(blocks)) for blocks in families if min(blocks) >= 0)


def _surplus_split(s: int) -> tuple[int, int]:
    """(k, t) with s == C(k, 2) + t and 0 <= t < k, for s >= 0.

    k is the largest with C(k, 2) <= s, so the split is unique.
    """
    k = (1 + isqrt(1 + 8 * s)) // 2
    return k, s - comb(k, 2)


# the fixed small sizes, keyed by the surplus s = m - n + 1: the rule and the family's blocks at n
_SMALL_SIZES = {
    0: ("m=n-1", lambda n: (n - 1, 1)),
    1: ("m=n", lambda n: (2, n - 3, 1)),
    2: ("m=n+1", lambda n: (2, 1, n - 4, 1)),
    3: ("m=n+2", lambda n: (3, n - 4, 1)),
}


def predict_maximizers(n: int, m: int) -> tuple[Prediction, ...]:
    """Instantiate every literature family that speaks about (n, m).

    At most one row per kind, in the order asserted, large-n, conjecture.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = m - n + 1
    if s < 0:
        return ()
    k, t = _surplus_split(s)
    # the large-n rule's m = n + t' has t' = s - 1; its graph is also the second t = 0
    # family and candidate_b
    large_n = _families((s, 1, n - 2 - s, 1)) if s >= 4 else ()
    asserted: tuple[ThresholdGraph, ...] = ()
    if s <= 3:
        rule, blocks = _SMALL_SIZES[s]
        asserted = _families(blocks(n))
    elif t == 0:
        rule = "m=n+C(k,2)-1"
        asserted = _families((k, n - 1 - k, 1)) + large_n
    elif t == k - 1 and 2 * n <= m < comb(n, 2) - 1:
        rule = "m=n+C(k,2)-2"  # the rule's k is k + 1 here: s + 1 == C(k + 1, 2)
        asserted = _families((2, k - 1, n - 2 - k, 1))
    predictions = [Prediction("asserted", rule, asserted)] if asserted else []
    if large_n:
        predictions.append(Prediction("large-n", "m=n+t", large_n))
    if t >= 1 and 3 <= k <= n - 2:  # then candidate_a has no negative block
        candidate_a = _families((k - t, 1, t, n - 2 - k, 1))
        predictions.append(Prediction("conjecture", "open case", candidate_a + large_n))
    return tuple(predictions)


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

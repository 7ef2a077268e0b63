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
``verify_predictions`` reconciles them against the enumeration:

* m = n - 1: the star.
* m = n, n + 1, n + 2: one fixed small family each.
* m = n + C(k, 2) - 1 (k >= 4): one or both of two families
  (the prediction is a set, maximizers must be a nonempty subset).
* m = n + C(k, 2) - 2 with 2n <= m < C(n, 2) - 1: one family.
* m = n + t (t >= 3): a ``large-n`` family expected to win for large
  enough n; recorded as evidence, never asserted.
* the remaining sizes m = n - 1 + C(k, 2) + t (3 <= k <= n - 2,
  1 <= t < k): a ``conjecture`` row of two open-case candidates,
  candidate_a then candidate_b when it fits; the empirical winner is
  recorded, never asserted.
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


def _partition_runs(c: int, total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The runs of ``from_bzp(c, b)`` for every nonincreasing b with ``parts``
    entries in [1, c - 1] summing to ``total``, b in descending lex order.

    The runs are c - b_1, then per group of equal b its count and the gap
    to the next value, then b_last.  Groups come by value, then count,
    both descending, with one generator frame per group.
    """
    if parts == 0:
        yield (c,)
        return
    # the first value is at least the average and leaves at least 1 per later part
    for value in range(min(c - 1, total - parts + 1), -(-total // parts) - 1, -1):
        # the other parts - count entries lie in [1, value - 1] and sum to total - count * value
        most = min(parts, (total - parts) // (value - 1)) if value > 1 else parts
        for count in range(most, max(1, total - parts * (value - 1)) - 1, -1):
            for rest in _partition_runs(value, total - count * value, parts - count):
                yield (c - value, count, *rest)


def _connected_census(n: int, m: int) -> Iterator[ThresholdGraph]:
    for c in range(1, n + 1):
        z = n - c
        remainder = m - comb(c, 2)
        if remainder < 0:
            break  # C(c, 2) only grows with c
        if not z <= remainder <= z * (c - 1):
            continue  # every b_i lies in [1, c - 1]
        for runs in _partition_runs(c, remainder, z):
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


def _families(n: int, m: int, *families: tuple[int, ...]) -> tuple[ThresholdGraph, ...]:
    """The alternating-block families that fit at (n, m), instantiated, in order.

    Families are written with symbolic block lengths; at small n some
    become 0 (the runs collapse) or negative (the family does not fit).
    A family fits when its expansion is a connected graph with exactly
    n vertices and m edges.
    """
    graphs = []
    for blocks in families:
        runs = _block_runs(blocks)
        if any(p < 0 for p in blocks) or not any(p for symbol, p in runs if symbol == 1):
            continue
        g = _from_runs(runs)
        if g.n == n and g.m == m and g.is_connected:
            graphs.append(g)
    return tuple(graphs)


# the fixed small sizes, keyed by m - n: the rule and the family's blocks at n
_SMALL_SIZES = {
    -1: ("m=n-1", lambda n: (n - 1, 1)),
    0: ("m=n", lambda n: (2, n - 3, 1)),
    1: ("m=n+1", lambda n: (2, 1, n - 4, 1)),
    2: ("m=n+2", lambda n: (3, n - 4, 1)),
}


def predict_maximizers(n: int, m: int) -> tuple[Prediction, ...]:
    """Instantiate every literature family that speaks about (n, m).

    At most one row per kind, in the order asserted, large-n, conjecture.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    asserted: tuple[ThresholdGraph, ...] = ()
    if m - n in _SMALL_SIZES:
        rule, blocks = _SMALL_SIZES[m - n]
        asserted = _families(n, m, blocks(n))
    else:
        k = _binomial_index(m - n + 1)
        if k is not None and k >= 4:
            rule = "m=n+C(k,2)-1"
            asserted = _families(n, m, (k, n - 1 - k, 1), (comb(k, 2), 1, n - 2 - comb(k, 2), 1))
        k = _binomial_index(m - n + 2)
        if not asserted and k is not None and 2 * n <= m < comb(n, 2) - 1:
            rule = "m=n+C(k,2)-2"
            asserted = _families(n, m, (2, k - 2, n - 1 - k, 1))
    predictions = [Prediction("asserted", rule, asserted)] if asserted else []

    t = m - n
    large_n = _families(n, m, (t + 1, 1, n - 3 - t, 1)) if t >= 3 else ()
    if large_n:
        predictions.append(Prediction("large-n", "m=n+t", large_n))

    decomposition = _conjecture_indices(m - n + 1)
    if decomposition is not None and 3 <= decomposition[0] <= n - 2:
        k, t = decomposition
        candidate_a = _families(n, m, (k - t, 1, t, n - 2 - k, 1))
        if candidate_a:
            candidate_b = _families(n, m, (comb(k, 2) + t, 1, n - 2 - comb(k, 2) - t, 1))
            predictions.append(Prediction("conjecture", "open case", candidate_a + candidate_b))
    return tuple(predictions)


def _binomial_floor(value: int) -> int:
    """The largest k >= 2 with C(k, 2) <= value, for value >= 1."""
    return (1 + isqrt(1 + 8 * value)) // 2


def _binomial_index(value: int) -> int | None:
    """k with C(k, 2) == value, if one exists (k >= 2)."""
    if value < 1:
        return None
    k = _binomial_floor(value)
    return k if comb(k, 2) == value else None


def _conjecture_indices(surplus: int) -> tuple[int, int] | None:
    """(k, t) with surplus == C(k, 2) + t and 1 <= t <= k - 1, if any.

    The ranges [C(k,2)+1, C(k+1,2)-1] are disjoint for consecutive k,
    so the decomposition is unique when it exists.
    """
    if surplus < 4:
        return None
    k = _binomial_floor(surplus)
    t = surplus - comb(k, 2)
    if 1 <= t <= k - 1:
        return k, t
    return None


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

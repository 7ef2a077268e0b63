"""Exhaustive spectral-radius maximizer search at fixed order and size.

Connected threshold graphs with n vertices and m edges are enumerated
through their (c, b) encoding: for every feasible count c of type-1
vertices, the b entries form a nonincreasing tuple of length z = n - c
with parts in [1, c-1] summing to m - C(c, 2).  That makes the census
isomorphism-free by construction and cheap to walk exhaustively.

``find_extremal`` ranks the census by spectral radius.  For several
size ranges the literature pins down (or conjectures) the maximizing
family; ``predict_maximizers`` instantiates those families at (n, m)
and ``verify_predictions`` reconciles them against the enumeration:

* m = n - 1: the star.
* m = n, n + 1, n + 2: one fixed small family each.
* m = n + C(k, 2) - 1 (k >= 4): one or both of two families
  (the prediction is a set, maximizers must be a nonempty subset).
* m = n + C(k, 2) - 2 with 2n <= m < C(n, 2) - 1: one family.
* m = n + t (t >= 3): a family expected to win for large enough n;
  recorded as evidence, never asserted.
* the remaining sizes m = n - 1 + C(k, 2) + t (3 <= k <= n - 2,
  1 <= t < k): two open-case candidates; the empirical winner is
  recorded, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator

from .graph_model import ThresholdGraph, _block_runs, _from_runs
from .spectral import spectral_radii

__all__ = [
    "ConjecturePair",
    "ExtremalResult",
    "MaximizerPrediction",
    "VerificationReport",
    "VerificationRow",
    "enumerate_threshold_graphs",
    "find_extremal",
    "predict_maximizers",
    "verify_predictions",
]

TIE_TOL = 1e-9
NEAR_TIE_TOL = 1e-6


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of ranking one (n, m) census by spectral radius."""

    n: int
    m: int
    rho_max: float
    maximizers: tuple[ThresholdGraph, ...]
    near_ties: tuple[tuple[ThresholdGraph, float], ...]
    census_size: int


@dataclass(frozen=True)
class ConjecturePair:
    """The two open-case candidate maximizers at one intermediate size.

    ``candidate_b`` is None when its family needs more room than n
    vertices provide (the zeros-before-the-first-one block would be
    negative).
    """

    k: int
    t: int
    candidate_a: ThresholdGraph
    candidate_b: ThresholdGraph | None


@dataclass(frozen=True)
class MaximizerPrediction:
    """Literature families instantiated at (n, m).

    ``asserted`` lists graphs the maximizers must be a nonempty subset
    of (``rule`` names the size range); ``large_n`` and ``conjecture``
    are expectations to record, not to assert.
    """

    n: int
    m: int
    asserted: tuple[ThresholdGraph, ...]
    rule: str | None
    large_n: ThresholdGraph | None
    conjecture: ConjecturePair | None

    @property
    def has_content(self) -> bool:
        return bool(self.asserted) or self.large_n is not None or self.conjecture is not None


@dataclass(frozen=True)
class VerificationRow:
    """One reconciliation line of predictions against enumeration."""

    n: int
    m: int
    kind: str  # "asserted", "large-n", or "conjecture"
    rule: str | None
    predicted: tuple[ThresholdGraph, ...]
    maximizers: tuple[ThresholdGraph, ...]
    ok: bool | None  # None for evidence-only rows
    note: str


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[VerificationRow, ...]

    @property
    def mismatches(self) -> tuple[VerificationRow, ...]:
        return tuple(row for row in self.rows if row.ok is False)


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


# ---------------------------------------------------------------------------
# maximizer search
# ---------------------------------------------------------------------------


def find_extremal(
    n: int, m: int, tie_tol: float = TIE_TOL, near_tie_tol: float = NEAR_TIE_TOL
) -> ExtremalResult:
    """Rank the connected census at (n, m) by spectral radius.

    Graphs within ``tie_tol`` of the best value are maximizers; graphs
    within ``near_tie_tol`` but not maximizers are reported separately
    so silent photo-finishes stay visible.  Both tolerances must be
    finite and >= 0.
    """
    for name, tol in (("tie_tol", tie_tol), ("near_tie_tol", near_tie_tol)):
        if not 0.0 <= tol < float("inf"):
            raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")
    census = enumerate_threshold_graphs(n, m)
    if not census:
        raise ValueError(f"no connected threshold graph has n = {n}, m = {m}")
    radii = spectral_radii(census)
    rho_max = max(radii)
    maximizers = tuple(g for g, rho in zip(census, radii) if rho_max - rho <= tie_tol)
    near_ties = tuple(
        (g, rho)
        for g, rho in zip(census, radii)
        if tie_tol < rho_max - rho <= near_tie_tol
    )
    return ExtremalResult(
        n=n,
        m=m,
        rho_max=rho_max,
        maximizers=maximizers,
        near_ties=near_ties,
        census_size=len(census),
    )


# ---------------------------------------------------------------------------
# literature families
# ---------------------------------------------------------------------------


def _family(n: int, m: int, blocks: tuple[int, ...]) -> ThresholdGraph | None:
    """Instantiate an alternating-block family, tolerating empty blocks.

    Families are written with symbolic block lengths; at small n some
    become 0 (the runs collapse) or negative (the family does not fit).
    Returns None unless the expansion is a connected graph with exactly
    n vertices and m edges.
    """
    runs = _block_runs(blocks)
    if any(p < 0 for p in blocks) or not any(p for symbol, p in runs if symbol == 1):
        return None
    g = _from_runs(runs)
    if g.n != n or g.m != m or not g.is_connected:
        return None
    return g


# the fixed small sizes, keyed by m - n: the rule and the family's blocks at n
_SMALL_SIZES = {
    -1: ("m=n-1", lambda n: (n - 1, 1)),
    0: ("m=n", lambda n: (2, n - 3, 1)),
    1: ("m=n+1", lambda n: (2, 1, n - 4, 1)),
    2: ("m=n+2", lambda n: (3, n - 4, 1)),
}


def predict_maximizers(n: int, m: int) -> MaximizerPrediction:
    """Instantiate every literature family that speaks about (n, m)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    asserted: tuple[ThresholdGraph, ...] = ()
    rule: str | None = None
    if m - n in _SMALL_SIZES:
        name, blocks = _SMALL_SIZES[m - n]
        g = _family(n, m, blocks(n))
        if g is not None:
            asserted, rule = (g,), name
    else:
        k = _binomial_index(m - n + 1)
        if k is not None and k >= 4:
            pair = (
                _family(n, m, (k, n - 1 - k, 1)),
                _family(n, m, (comb(k, 2), 1, n - 2 - comb(k, 2), 1)),
            )
            candidates = tuple(g for g in pair if g is not None)
            if candidates:
                asserted, rule = candidates, "m=n+C(k,2)-1"
        if not asserted:
            k = _binomial_index(m - n + 2)
            if k is not None and 2 * n <= m < comb(n, 2) - 1:
                g = _family(n, m, (2, k - 2, n - 1 - k, 1))
                if g is not None:
                    asserted, rule = (g,), "m=n+C(k,2)-2"

    large_n: ThresholdGraph | None = None
    t = m - n
    if t >= 3:
        large_n = _family(n, m, (t + 1, 1, n - 3 - t, 1))

    conjecture: ConjecturePair | None = None
    surplus = m - (n - 1)
    decomposition = _conjecture_indices(surplus)
    if decomposition is not None:
        k, t = decomposition
        if 3 <= k <= n - 2:
            candidate_a = _family(n, m, (k - t, 1, t, n - 2 - k, 1))
            candidate_b = _family(n, m, (comb(k, 2) + t, 1, n - 2 - comb(k, 2) - t, 1))
            if candidate_a is not None:
                conjecture = ConjecturePair(k=k, t=t, candidate_a=candidate_a, candidate_b=candidate_b)

    return MaximizerPrediction(
        n=n, m=m, asserted=asserted, rule=rule, large_n=large_n, conjecture=conjecture
    )


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


def verify_predictions(n_values) -> VerificationReport:
    """Reconcile every applicable prediction against the enumeration.

    Asserted rows fail (ok is False) when the empirical maximizers are
    not a nonempty subset of the predicted set.  Large-n and open-case
    rows only record whether the empirical winner matches a candidate.
    """
    rows: list[VerificationRow] = []
    for n in n_values:
        for m in range(max(n - 1, 0), comb(n, 2) + 1):
            prediction = predict_maximizers(n, m)
            if not prediction.has_content:
                continue
            result = find_extremal(n, m)
            maximizers = set(result.maximizers)
            entries = []
            if prediction.asserted:
                ok = bool(maximizers) and maximizers <= set(prediction.asserted)
                note = "subset of predicted set" if ok else "maximizer outside predicted set"
                entries.append(("asserted", prediction.rule, prediction.asserted, ok, note))
            if prediction.large_n is not None:
                hit = prediction.large_n in maximizers
                note = "matches" if hit else "does not match at this n"
                entries.append(("large-n", "m=n+t", (prediction.large_n,), None, note))
            if prediction.conjecture is not None:
                pair = prediction.conjecture
                in_a = pair.candidate_a in maximizers
                in_b = pair.candidate_b in maximizers if pair.candidate_b is not None else False
                if in_a and in_b:
                    note = "both candidates maximize"
                elif in_a:
                    note = "candidate_a maximizes"
                elif in_b:
                    note = "candidate_b maximizes"
                else:
                    note = "neither candidate maximizes"
                predicted = tuple(g for g in (pair.candidate_a, pair.candidate_b) if g is not None)
                entries.append(("conjecture", "open case", predicted, None, note))
            rows += [
                VerificationRow(n, m, kind, rule, predicted, result.maximizers, ok, note)
                for kind, rule, predicted, ok, note in entries
            ]
    return VerificationReport(rows=tuple(rows))

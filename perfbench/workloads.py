"""Seeded job generators for the three benchmark workloads.

Each generator turns a ``random.Random`` into a pool of jobs.  A job is
the argv list handed to ``threshold_spectra.cli.run`` plus what the
checks and the metrics need to know about it: the number of items it
reports and the graph parameters it was built from.  The program sees
only the argv.

The pools are stratified so that the spread of job sizes is the same
for every seed and only the graphs inside each stratum change.  That
keeps medians and tail percentiles comparable between seeds.

* ``census``: ``enumerate --n N --m M --json`` with 17 <= n <= 20.  Job
  j targets a census size on a log scale between 20 and 3000 graphs, on
  the sparse side of the size curve for even j and the dense side for
  odd j; the seed picks among the (n, m) pairs within 5 % of the target
  (the nearest one when none is that close).
* ``walks``: ``walks gen:<bits> --kmax K --json``.  n runs evenly over
  25..45 and kmax over 150..220 (paired by a fixed permutation); every
  fifth graph is alternating (k = n blocks), the others have half of
  their free bits set, in random places.
* ``large``: ``analyze comp:G{...} --json``.  n runs evenly over
  600..2000, with a random composition of 3 to 9 blocks whose edge
  density is within 0.02 of a target that runs over 0.3..0.7 (paired
  with n by a fixed permutation).  c >= 3 and a density in [0.28, 0.72] meet
  the standing assumptions of the bounds (z >= 1, n - 1 < m < C(n,2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log

POOL_SIZE = 40
QUICK_POOL_SIZE = 20
TARGET_SLACK = 0.05  # census sizes within 5 % of a target count as equal
DENSITY_SLACK = 0.02  # large graphs within 0.02 of their target edge density


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    items: int
    spec: dict


def connected_count(n: int, m: int) -> int:
    """Connected threshold graphs with n vertices and m edges.

    A canonical connected generating sequence has bit 0 and bit n-1 set
    and a free choice of bits 1..n-2; a one at index i adds i edges.  So
    the count is the number of subsets of {1, ..., n-2} summing to
    m - (n - 1).
    """
    target = m - (n - 1)
    if n < 2 or target < 0:
        return 1 if n == 1 and m == 0 else 0
    ways = [1] + [0] * target
    for i in range(1, n - 1):
        for total in range(target, i - 1, -1):
            ways[total] += ways[total - i]
    return ways[target]


def edge_count(bits: str) -> int:
    """Edges of the graph with canonical generating string ``bits``."""
    return sum(i for i, bit in enumerate(bits) if bit == "1")


def composition_bits(blocks) -> str:
    """Canonical generating string of ``G{blocks}``; the last block is ones."""
    k = len(blocks)
    text = "".join(("1" if (k - j) % 2 == 0 else "0") * p for j, p in enumerate(blocks, 1))
    return "1" + text[1:]


def census_jobs(rng, quick: bool = False) -> list[Job]:
    orders, low, high = (range(9, 12), 5, 60) if quick else (range(17, 21), 20, 3000)
    size = QUICK_POOL_SIZE if quick else POOL_SIZE
    # Each order's census size rises and then falls with m.  Sparse graphs
    # (the rising side) cost about a quarter more per graph than dense ones,
    # so the side alternates with j instead of being left to the seed.
    sides = ([], [])
    for n in orders:
        counts = {m: connected_count(n, m) for m in range(n + 1, comb(n, 2))}
        peak = max(counts, key=counts.get)
        for m, count in counts.items():
            if low <= count <= high:
                sides[m >= peak].append((n, m, count))
    jobs = []
    for j in range(size):
        target = log(low) + (j + 0.5) / size * log(high / low)
        candidates = sides[j % 2]
        nearest = sorted(candidates, key=lambda cand: abs(log(cand[2]) - target))
        close = [cand for cand in nearest if abs(log(cand[2]) - target) <= TARGET_SLACK]
        n, m, count = rng.choice(close or nearest[:1])
        candidates.remove((n, m, count))
        argv = ("enumerate", "--n", str(n), "--m", str(m), "--json")
        jobs.append(Job(argv=argv, items=count, spec={"n": n, "m": m}))
    return jobs


def walks_jobs(rng, quick: bool = False) -> list[Job]:
    (n_low, n_span), (k_low, k_span) = ((8, 6), (20, 20)) if quick else ((25, 20), (150, 70))
    size = QUICK_POOL_SIZE if quick else POOL_SIZE
    jobs = []
    for j in range(size):
        n = n_low + round(n_span * j / (size - 1))
        kmax = k_low + round(k_span * ((17 * j) % size) / (size - 1))
        if j % 5 == 0:
            middle = "".join("1" if (n - 1 - i) % 2 == 0 else "0" for i in range(1, n - 1))
        else:
            # Half of the free bits are ones, in random places: the number of
            # ones sets the size of the integers, their places set the graph.
            free = ["1"] * ((n - 2) // 2) + ["0"] * (n - 2 - (n - 2) // 2)
            rng.shuffle(free)
            middle = "".join(free)
        bits = "1" + middle + "1"
        argv = ("walks", "gen:" + bits, "--kmax", str(kmax), "--json")
        jobs.append(Job(argv=argv, items=kmax + 1, spec={"bits": bits, "kmax": kmax}))
    return jobs


def large_jobs(rng, quick: bool = False) -> list[Job]:
    n_low, n_span = (60, 140) if quick else (600, 1400)
    size = QUICK_POOL_SIZE if quick else POOL_SIZE
    jobs = []
    for j in range(size):
        n = n_low + round(n_span * j / (size - 1))
        # The adjacency build writes every edge, so job time and resident
        # memory follow the edge density; it is fixed per job, not seeded.
        density = 0.3 + 0.4 * ((7 * j) % size) / (size - 1)
        while True:
            k = rng.randint(3, 9)
            cuts = sorted(rng.sample(range(1, n), k - 1))
            blocks = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            bits = composition_bits(blocks)
            m = edge_count(bits)
            if bits.count("1") >= 3 and abs(m / comb(n, 2) - density) <= DENSITY_SLACK:
                break
        spec = "comp:G{" + ",".join(map(str, blocks)) + "}"
        jobs.append(Job(argv=("analyze", spec, "--json"), items=n, spec={"bits": bits}))
    return jobs


GENERATORS = {"census": census_jobs, "walks": walks_jobs, "large": large_jobs}

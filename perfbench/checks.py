"""Output checks against oracles that do not share the program's code path.

Each ``check_<workload>(job, text)`` parses one job's JSON output and
returns a list of problems; an empty list means the output is correct.

* census: the census size equals the subset-sum count of connected
  generating sequences with m edges, every row is a distinct valid
  sequence with m edges, every rho is within 1e-9 of ``eigvalsh`` of
  the adjacency, ``sandwich_ok`` holds on every applicable row, and the
  maximizer list is the set of rows within ``tie_tol`` of the largest rho.
* walks: ``lw`` equals ``lw_bruteforce`` term by term and
  ``lw_prime <= lw <= lw_double_prime`` entrywise.
* large: rho agrees with ``eigvalsh`` of the dense adjacency to a
  relative 1e-9 and ``sandwich_ok`` is true.

The adjacency here is built directly from the generating string (two
vertices are adjacent when the later-inserted one is type 1), not by
``graph_model.adjacency_matrix``; the spectrum does not depend on the
vertex order.
"""

from __future__ import annotations

import json

import numpy as np
from threshold_spectra.graph_model import from_generating_sequence
from threshold_spectra.walks import lw_bruteforce

from workloads import connected_count, edge_count

RHO_ABS_TOL = 1e-9
RHO_REL_TOL = 1e-9
TIE_TOL = 1e-9  # the CLI's default --tie-tol


def adjacency(bits: str) -> np.ndarray:
    ones = np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1")
    index = np.arange(len(bits))
    a = ones[np.maximum.outer(index, index)].astype(float)
    np.fill_diagonal(a, 0.0)
    return a


def composition(bits: str) -> str:
    runs = []
    for i, bit in enumerate(bits):
        if i and bit == bits[i - 1]:
            runs[-1] += 1
        else:
            runs.append(1)
    return "G{" + ",".join(map(str, runs)) + "}"


def check_census(job, text: str) -> list[str]:
    n, m = job.spec["n"], job.spec["m"]
    data = json.loads(text)
    rows = data["graphs"]
    expected = connected_count(n, m)
    problems = []
    if data["census_size"] != expected or len(rows) != expected:
        problems.append(f"census size {data['census_size']} ({len(rows)} rows), expected {expected}")
    strings = [row["generating"] for row in rows]
    if len(set(strings)) != len(strings):
        problems.append("duplicate graphs in the census")
    for bits in strings:
        if len(bits) != n or bits[0] != "1" or bits[-1] != "1" or edge_count(bits) != m:
            problems.append(f"{bits} is not a connected graph with n={n}, m={m}")
    if problems:
        return problems
    rho = np.array([row["rho"] for row in rows])
    oracle = np.linalg.eigvalsh(np.stack([adjacency(bits) for bits in strings]))[:, -1]
    worst = int(np.argmax(np.abs(rho - oracle)))
    if abs(rho[worst] - oracle[worst]) > RHO_ABS_TOL:
        problems.append(f"{strings[worst]}: rho {float(rho[worst])!r}, eigvalsh {float(oracle[worst])!r}")
    for row in rows:
        if row["composition"] != composition(row["generating"]):
            problems.append(f"{row['generating']}: composition {row['composition']}")
        if row["sandwich_ok"] is False:
            problems.append(f"{row['generating']}: sandwich_ok is false")
    rho_max = float(rho.max())
    flagged = [rho_max - value <= TIE_TOL for value in rho]
    if data["rho_max"] != rho_max:
        problems.append(f"rho_max {data['rho_max']!r}, largest rho {rho_max!r}")
    if [row["is_max"] for row in rows] != flagged:
        problems.append("is_max flags differ from the argmax set")
    if data["maximizers"] != [row["composition"] for row, f in zip(rows, flagged) if f]:
        problems.append(f"maximizers {data['maximizers']} differ from the argmax set")
    return problems


def check_walks(job, text: str) -> list[str]:
    bits, kmax = job.spec["bits"], job.spec["kmax"]
    data = json.loads(text)
    problems = []
    if data["graph"]["generating"] != bits:
        problems.append(f"graph {data['graph']['generating']}, expected {bits}")
    lw, low, high = data["lw"], data["lw_prime"], data["lw_double_prime"]
    oracle = lw_bruteforce(from_generating_sequence(int(bit) for bit in bits), kmax)
    if lw != oracle:
        first = next((k for k, (a, b) in enumerate(zip(lw, oracle)) if a != b), len(oracle))
        problems.append(f"{bits}: lw differs from lw_bruteforce at k = {first}")
    if len(low) != kmax + 1 or len(high) != kmax + 1:
        problems.append(f"{bits}: bracket lengths {len(low)}, {len(high)}, expected {kmax + 1}")
    elif not all(a <= b <= c for a, b, c in zip(low, lw, high)):
        problems.append(f"{bits}: lw_prime <= lw <= lw_double_prime fails")
    return problems


def check_large(job, text: str) -> list[str]:
    bits = job.spec["bits"]
    data = json.loads(text)
    problems = []
    if data["graph"]["generating"] != bits:
        return [f"graph {data['graph']['generating'][:40]}..., expected {bits[:40]}..."]
    oracle = float(np.linalg.eigvalsh(adjacency(bits))[-1])
    if abs(data["rho"] - oracle) > RHO_REL_TOL * oracle:
        problems.append(f"n={len(bits)}: rho {data['rho']!r}, eigvalsh {oracle!r}")
    if data["sandwich_ok"] is not True:
        problems.append(f"n={len(bits)}: sandwich_ok is {data['sandwich_ok']}")
    return problems


CHECKS = {"census": check_census, "walks": check_walks, "large": check_large}

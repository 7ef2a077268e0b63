"""Smoke test for the benchmark at a quick size; no timing gate.

Runs every workload untraced and traced with ``--quick`` and checks that
the result line names every metric of ``BENCHMARK.json`` with its unit
and that every output check passed.  Run from the root of a checkout::

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload: str, trace: int) -> dict:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(
        command + argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_present_and_outputs_correct():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            expected = {entry["name"]: entry["unit"] for entry in spec[key]}
            found = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert found == expected, (workload, trace)
            for entry in result["metrics"].values():
                assert isinstance(entry["value"], (int, float))


if __name__ == "__main__":
    test_every_metric_present_and_outputs_correct()
    print("smoke test passed")

"""Benchmark for the threshold_spectra CLI: census, walks and large graphs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``census``: ``enumerate --n N --m M --json`` with 17 <= n <= 20, census
  sizes from tens to a few thousand graphs.  Thousands of small
  per-graph calls into adjacency, power iteration and root isolation.
* ``walks``: ``walks gen:<bits> --kmax K --json`` with 25 <= n <= 45 and
  150 <= K <= 220.  Exact bigint recurrences only; no spectral call.
* ``large``: ``analyze comp:G{...} --json`` with 600 <= n <= 2000 and 3
  to 9 blocks.  Few huge dense calls into the same spectral layer.

The seed makes a pool of 40 jobs (argv lists); a fresh worker process
(``worker.py``) runs them one at a time, smallest first, in a closed
loop with one client, for ``--seconds``, after one untimed warm-up job.
Every output is checked afterwards in this process against the oracles
in ``checks.py``.  BLAS is pinned to one thread in both processes.

Times are scaled to a reference machine speed.  The worker times a
fixed loop shaped like the package's hot loops
(``worker.reference_seconds``) before and after every job, and each job
time is multiplied by ``REFERENCE_S`` over the mean of the two.  On a
shared host the CPU speed changes by up to 2x over seconds to minutes;
the scaling removes most of that drift while a change to the program
still moves the scaled times.  The raw (unscaled) values are printed
too, as ``raw_*``.  Per-layer self times are raw seconds.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over six fresh interpreters (five probes and the
  worker) of the time from spawning one to having numpy and the package
  imported and the CLI parser built; scaled like the job times, with the
  reference loop timed in this process around the spawn.
* ``items_per_s``: items of the jobs that passed their checks, divided by
  the summed job times; each job's time is the median of its runs.  An
  item is a census graph, a walk-table row (kmax + 1 per job) or a vertex.
* ``job_p50_s`` / ``job_tail_s``: the median job time, and the highest
  percentile of job times with at least ten jobs beyond it (75 with 40
  jobs; the ``env`` line records it).
* ``peak_rss_mb``: peak resident memory of the worker.
* ``ok_frac``: job runs that exited 0 and passed their checks, over runs
  attempted.  It is 1 - failed_frac, which is printed too; the benchmark
  reports the complement because a metric must never read 0.

With ``--trace 1`` an untraced worker runs first, then a traced one that
records a span around each public function listed in ``tracing.py`` and
stops only at the end of a pass.  It reports the per-layer metrics per
pass over the pool, and ``trace.overhead_frac``, the untraced over the
traced ``items_per_s`` minus one.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give the run environment and each
metric with its unit.  ``--quick`` shrinks the graphs and the pool for
the smoke test (``smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import threading
from math import ceil, floor
from pathlib import Path
from statistics import median
from time import perf_counter

from worker import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
REFERENCE_S = 0.0016  # the reference loop's time on an idle 2-vCPU Xeon host
WORKER_DEADLINE_S = 150  # workers must be done by then; checks follow

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class BenchmarkError(RuntimeError):
    pass


def spawn_worker(env: dict, jobs: list, seconds: float, trace: bool, deadline: float):
    """Run one worker; return (scaled set-up seconds, records it printed).

    The worker is killed at ``deadline`` (a ``perf_counter`` value), so a
    hung job fails the run instead of stalling it.
    """
    before = reference_seconds()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(ROOT)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        if not ready:
            raise BenchmarkError("worker exited before it was ready")
        setup *= REFERENCE_S / ((before + reference_seconds()) / 2)
        proc.stdin.write(json.dumps({"jobs": jobs, "seconds": seconds, "trace": trace}))
        proc.stdin.close()
        lines = proc.stdout.readlines()  # parsed only after the worker exits
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchmarkError(f"worker exited with code {code}")
    return setup, [json.loads(line) for line in [ready, *lines]]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "threshold_spectra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def judge(workload: str, jobs: list, records: list, checked: dict) -> dict:
    """Check every job run of one worker and collect its job times.

    ``checked`` maps (job, output SHA-256) to the problems found, so an
    output seen before, here or in another worker, is not checked twice.
    A run fails when its job's output fails a check or differs from the
    first output of the same job.
    """
    from checks import CHECKS

    runs = [r for r in records if "job" in r]
    first = {}
    for run in runs:
        first.setdefault(run["job"], run)
    problems = {}
    for index, run in first.items():
        key = (index, run["code"], run["sha"])
        if key not in checked:
            if run["code"] != 0:
                checked[key] = [f"exit code {run['code']}: {run['stderr'].strip()[-300:]}"]
            else:
                try:
                    checked[key] = CHECKS[workload](jobs[index], run["output"])
                except (KeyError, TypeError, ValueError) as exc:
                    checked[key] = [f"malformed output: {exc!r}"]
        problems[index] = checked[key]
    failures = []
    for run in runs:
        index = run["job"]
        found = list(problems[index])
        if run["code"] != first[index]["code"] or run["sha"] != first[index]["sha"]:
            found.append("output differs from the first run of the same job")
        if found:
            failures.append(f"job {index} {' '.join(jobs[index].argv)[:80]}: {found[0]}")
    scaled, raw = {}, {}
    for run in runs:
        if not run["warmup"]:
            factor = REFERENCE_S / run["reference"]
            scaled.setdefault(run["job"], []).append(run["seconds"] * factor)
            raw.setdefault(run["job"], []).append(run["seconds"])
    passed = {index for index in scaled if not problems[index]}
    return {
        "failures": failures,
        "attempted": len(runs),
        "scaled": timings(jobs, scaled, passed),
        "raw": timings(jobs, raw, passed),
        "done": records[-1],
    }


def timings(jobs: list, times: dict, passed: set) -> dict:
    """items_per_s, job_p50_s and job_tail_s from each job's median time."""
    medians = {index: median(values) for index, values in times.items()}
    ordered = sorted(medians.values())
    percentile, rank = tail_rank(len(ordered))
    return {
        "items_per_s": sum(jobs[index].items for index in passed) / sum(ordered),
        "job_p50_s": median(ordered),
        "job_tail_s": ordered[rank - 1],
        "tail_percentile": percentile,
    }


def tail_rank(count: int) -> tuple[int, int]:
    """(percentile, 1-based rank) of the highest percentile with >= 10 beyond."""
    if count <= 10:
        return 100, count
    percentile = floor(100 * (count - 10) / count)
    return percentile, max(1, ceil(percentile * count / 100))


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("lw_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["census", "walks", "large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="small graphs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "threshold_spectra" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import GENERATORS

    jobs = GENERATORS[args.workload](random.Random(f"{args.workload}:{args.seed}"), args.quick)
    # Smallest first: numpy's large arrays come from the heap or from fresh
    # pages depending on what was freed before, so a fixed order keeps the
    # peak resident memory the same for every seed.
    jobs.sort(key=lambda job: job.items)
    argvs = [list(job.argv) for job in jobs]
    env = dict(os.environ)
    deadline = started + WORKER_DEADLINE_S

    setups = [spawn_worker(env, [], 0, False, deadline)[0] for _ in range(SETUP_PROBES)]
    setup, records = spawn_worker(env, argvs, args.seconds, False, deadline)
    setups.append(setup)
    checked = {}
    untraced = judge(args.workload, jobs, records, checked)
    outcomes = [untraced]
    if args.trace:
        setup, traced_records = spawn_worker(env, argvs, args.seconds, True, deadline)
        setups.append(setup)
        traced = judge(args.workload, jobs, traced_records, checked)
        outcomes.append(traced)
    failures = [message for outcome in outcomes for message in outcome["failures"]]
    attempted = sum(outcome["attempted"] for outcome in outcomes)

    scaled = untraced["scaled"]
    end_to_end = {
        "setup_s": median(setups),
        "items_per_s": scaled["items_per_s"],
        "job_p50_s": scaled["job_p50_s"],
        "job_tail_s": scaled["job_tail_s"],
        "peak_rss_mb": untraced["done"]["peak_rss_kb"] / 1024,
        "ok_frac": 1 - len(failures) / attempted,
    }
    if args.trace:
        layers = dict(traced["done"]["layers"])
        layers["trace.overhead_frac"] = (
            scaled["items_per_s"] / traced["scaled"]["items_per_s"] - 1
        )
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": records[0]["numpy"],
        "blas_threads": {name: BLAS_THREADS for name in BLAS_VARIABLES},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "jobs": len(jobs),
        "job_runs": attempted,
        "passes": untraced["done"]["passes"],
        "tail_percentile": scaled["tail_percentile"],
        "setup_samples": len(setups),
        "reference_s": REFERENCE_S,
    }
    print("env " + json.dumps(environment))
    for message in failures[:10]:
        print("FAILED " + message, file=sys.stderr)
    for name, value in end_to_end.items():
        print(f"{args.workload} {name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{args.workload} failed_frac {len(failures) / attempted:.6g} frac")
    for name in ("items_per_s", "job_p50_s", "job_tail_s"):
        print(f"{args.workload} raw_{name} {untraced['raw'][name]:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

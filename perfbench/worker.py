"""One workload run in a fresh interpreter, driven by ``run.py``.

Usage: ``python3 perfbench/worker.py <checkout root>`` with a JSON
request on stdin: ``{"jobs": [argv, ...], "seconds": s, "trace": bool}``.

The worker imports the package and numpy and builds the CLI parser,
then prints a ``ready`` line; the parent times set-up up to that line.
It reads the request and runs one warm-up job (untimed) and then the
job pool in passes, one job at a time, in the given order and reversed
on every other pass, timing each ``cli.run(argv)`` call with its output
captured in memory.  Untraced, it stops as soon as ``seconds`` have
passed and at least one whole pass is done; traced, it stops only at
the end of a pass, so the per-pass layer totals cover the same work
every time.

After each job it prints one record: job index, seconds, the mean
reference-loop time just before and after the job, exit code, the
SHA-256 of the output and, the first time the job runs, the output
itself.  The parent checks outputs once this process has exited, so the
checks add neither time nor memory here.  The last line reports the
peak resident memory and, when traced, the layer metrics.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from statistics import median
from time import perf_counter


REFERENCE_BITS = (0, 1) * 1000


def reference_seconds() -> float:
    """Median time of three runs of a fixed loop, for scaling job times.

    The loop has the shape of the package's hot Python loops: tuple
    indexing, ``max`` and numpy scalar stores.  Such code slows down
    together with the program when the host is busy, which a plain
    arithmetic loop tracks less well.
    """
    import numpy

    samples = []
    for _ in range(3):
        start = perf_counter()
        a = numpy.zeros((4, 2000), dtype=numpy.int64)
        for p in range(4):
            for q in range(p + 1, 2000):
                if REFERENCE_BITS[max(p, q)] == 1:
                    a[p, q] = 1
        samples.append(perf_counter() - start)
    return median(samples)


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    from threshold_spectra import cli

    cli.build_parser()
    out = sys.stdout
    print(json.dumps({"ready": True, "numpy": numpy.__version__}), file=out, flush=True)

    request = json.load(sys.stdin)
    jobs = request["jobs"]
    if not jobs:
        return 0
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    seen = set()

    def run_job(index: int, warmup: bool) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        before = reference_seconds()
        start = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.run(jobs[index])
        except Exception:  # a crash is a failed job, not the end of the run
            stderr.write(traceback.format_exc())
        seconds = perf_counter() - start
        reference = (before + reference_seconds()) / 2
        text = stdout.getvalue()
        record = {
            "job": index,
            "warmup": warmup,
            "seconds": seconds,
            "reference": reference,
            "code": code,
            "sha": hashlib.sha256(text.encode()).hexdigest(),
            "stderr": stderr.getvalue()[-2000:],
            "output": None if index in seen else text,
        }
        seen.add(index)
        print(json.dumps(record), file=out, flush=True)

    run_job(0, warmup=True)
    if tracer is not None:
        tracer.install()
    deadline = perf_counter() + request["seconds"]
    passes = 0
    stopped = False
    while not stopped:
        # Odd passes run largest first, so a pass cut short by the clock
        # repeats the large jobs as often as the small ones.
        order = range(len(jobs)) if passes % 2 == 0 else range(len(jobs) - 1, -1, -1)
        for index in order:
            if tracer is not None:
                tracer.job = (passes, index)
            run_job(index, warmup=False)
            if tracer is None and passes >= 1 and perf_counter() >= deadline:
                stopped = True
                break
        else:
            passes += 1
            stopped = perf_counter() >= deadline
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"done": True, "passes": passes, "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics(passes)
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

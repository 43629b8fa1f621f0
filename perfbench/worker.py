"""Runs the passes of one workload in a fresh process.

Usage: python3 perfbench/worker.py PLAN.json

The plan names the jobs (id, argv, output file), the measuring time, the
minimum number of passes and whether to trace.  Each job is one call of
``graphgrowth.cli.main`` in this process, the next starting when the
previous one returns (a closed loop with one client).  Only the call is
timed; removing the old output before it and hashing the new one after
it are not.  A first warm-up pass, checked like the others but not
timed, lets the heap grow to its working size and lazy set-up finish.  The result file gets per-pass job times, exit codes and
output digests, the process's peak RSS, host facts and, when tracing,
per-pass layer metrics; the spans go to their own file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback


def _digest(path: str) -> tuple[str | None, int]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None, 0
    return hashlib.blake2b(data, digest_size=16).hexdigest(), len(data)


def _host_facts() -> dict:
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_simd": sorted(k for k, v in __cpu_features__.items() if v),
    }


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from graphgrowth import cli, packets, quadrature

    tracer = None
    run = cli.main
    if plan["trace"]:
        from spans import Tracer, pass_metrics

        tracer = Tracer()
        tracer.install({"cli": cli, "quadrature": quadrature, "packets": packets})

        def run(argv):
            return tracer.call("cli.main", cli.main, None, (argv,), {})

    passes = []
    start = None
    while True:
        first_span = len(tracer.spans) if tracer else 0
        record = {"times": [], "codes": [], "digests": [], "bytes": []}
        for job_id, argv, output in plan["jobs"]:
            if os.path.exists(output):
                os.remove(output)
            gc.collect()  # each job starts on a clean heap, as in a fresh process
            if tracer:
                tracer.job = job_id
            t0 = time.perf_counter()
            try:
                code = run(argv)
            except Exception:  # a crash is a failed job, not a failed run
                traceback.print_exc()
                code = -1
            record["times"].append(time.perf_counter() - t0)
            record["codes"].append(code)
            digest, size = _digest(output)
            record["digests"].append(digest)
            record["bytes"].append(size)
        if tracer:
            record["layers"] = pass_metrics(tracer.spans[first_span:], first_span,
                                            sum(record["bytes"]))
            record["spans"] = [first_span, len(tracer.spans)]
        passes.append(record)
        if start is None:
            record["warmup"] = True
            start = time.perf_counter()
            continue
        elapsed = time.perf_counter() - start
        if (len(passes) > plan["min_passes"]
                and elapsed + sum(record["times"]) > plan["seconds"]):
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": _host_facts(),
        "skipped": tracer.skipped if tracer else [],
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

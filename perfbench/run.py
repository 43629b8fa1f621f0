"""graphgrowth benchmark: three seeded closed-loop CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload quad-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (job lists in workloads.py, why each exists in BENCHMARK.json):
quad-ladder (area quadrature, enclosure kernels on ~11k-cell batches),
packet-ledger (packet certification, ~60 cells per enclosure call) and
schedule-audit (schedule tables, CSV/JSON writing and an SVG plot, no
enclosure calls).  The program is imported from ``src/`` and runs
single-threaded with GRAPHGROWTH_THREADS at its default.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median wall time of fresh interpreters that import
  graphgrowth and finish the smallest CLI job (``python3 -m graphgrowth
  area --family exp --r 2 --max-depth 2``).
- ``pass_s``: median over passes of a pass's summed job times.  A worker
  process runs passes until the next one would end after ``--seconds``.
- ``job_tail_s``: the job time with ten jobs slower than it, i.e. the
  highest percentile with ten samples beyond it; the percentile and the
  sample count are printed to stderr.  A job is one CLI call, what a user
  waits for; a run holds too few passes for a tail over passes.
- ``peak_rss_mb``: peak resident memory of the worker process.
- ``certified_frac``: the proved share of what the workload reports.
  quad-ladder: the mean over estimate-mode area rows of
  area_lower / area_estimate.  packet-ledger: sum of proved
  min|f'|^2 over sum of sampled min|f'|^2 on the packets the sampling
  ledger lists.  schedule-audit: share of schedule rows with hyp2_ok and
  sigma_feasible true.

Every output is checked (checks.py): the final pass in full, every other
pass by its output digest, and for the reference seed also against
reference.json.  ``failed`` counts failing jobs; error_rate =
failed / attempted is printed to stderr.

``--trace 1`` runs the workload untraced for half of ``--seconds`` and
traced for the other half, and reports the per-layer metrics (medians
over traced passes, per pass; spans.py) plus ``trace.overhead_frac``,
the traced over the untraced median pass time, minus one.

Results, host facts and spans are written under ``.perfbench_out/``.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_output, packet_cross_check, reference_problems
from workloads import WORKLOADS, build_jobs, setup_job

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 9
WORKER_GRACE_S = 120


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("GRAPHGROWTH_THREADS", None)
    # Bytecode is cached, as an installed package's is, but inside the
    # checkout: the first interpreter start fills the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / OUT / "pycache")
    env["PYTHONPATH"] = "src"
    return env


def _git_sha() -> str:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git") / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _time_setup(out: Path) -> tuple[list[float], int]:
    """Fresh-interpreter set-up times, after one untimed start that fills
    the bytecode cache; returns the times and the number of failed jobs."""
    job = setup_job(out)
    times, failed = [], 0
    for i in range(SETUP_REPEATS + 1):
        if os.path.exists(job.output):
            os.remove(job.output)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "graphgrowth", *job.argv],
                              env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60, check=False)
        elapsed = time.perf_counter() - t0
        problems = check_output(job).problems if proc.returncode == 0 else [
            f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"]
        if problems:
            failed += 1
            print(f"FAIL setup: {problems[0]}", file=sys.stderr)
        if i:
            times.append(elapsed)
    return times, failed


def _run_worker(name: str, jobs, out: Path, seconds: float, trace: bool) -> dict:
    tag = "traced" if trace else "untraced"
    plan = {
        "src": str(ROOT / "src"),
        "jobs": [[j.id, list(j.argv), j.output] for j in jobs],
        "seconds": seconds,
        "min_passes": max(3, math.ceil(11 / len(jobs))),
        "trace": trace,
        "result": str(out / f"worker-{tag}.json"),
        "spans": str(out / f"spans-{tag}.json"),
    }
    plan_path = out / f"plan-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    worker = Path(__file__).resolve().parent / "worker.py"
    try:
        proc = subprocess.run([sys.executable, str(worker), str(plan_path)],
                              env=_env(), timeout=seconds + WORKER_GRACE_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text())


def _check_passes(jobs, result: dict, reference: dict | None) -> tuple[int, dict]:
    """Failed job runs of a worker, and the checked final outputs by job id.

    The final pass's outputs are checked in full; a job run of an earlier
    pass is correct when its output digest equals the final one."""
    passes = result["passes"]
    final = passes[-1]
    failed = 0
    checked = {}
    for k, job in enumerate(jobs):
        res = check_output(job)
        problems = list(res.problems)
        if final["codes"][k] != 0:
            problems.insert(0, f"exit code {final['codes'][k]}")
        if reference is not None:
            problems += reference_problems(job, res, reference.get(job.id))
        checked[job.id] = res
        for p in problems:
            print(f"FAIL {job.id}: {p}", file=sys.stderr)
        for record in passes:
            if (problems or record["codes"][k] != 0
                    or record["digests"][k] != final["digests"][k]):
                failed += 1
    return failed, checked


def _certified_frac(workload: str, jobs, checked: dict) -> tuple[float, list[str]]:
    if workload == "quad-ladder":
        ratios = [lo / est
                  for job in jobs if job.kind == "area" and job.expect["mode"] == "estimate"
                  for lo, est in zip(checked[job.id].columns.get("area_lower", []),
                                     checked[job.id].columns.get("area_estimate", []))
                  if est > 0]
        return (statistics.fmean(ratios) if ratios else 0.0), []
    if workload == "packet-ledger":
        problems, frac = packet_cross_check(checked["packets-sin-exp-sq"],
                                            checked["packets-sin-exp-sq-sampling"])
        return frac, problems
    cols = checked["schedule-gaussian"].columns
    return (cols["feasible"] / cols["rows"] if cols.get("rows") else 0.0), []


def _timed(passes: list[dict]) -> list[dict]:
    return [record for record in passes if not record.get("warmup")]


def _job_tail(passes: list[dict]) -> tuple[float, float, int]:
    """The job time with ten job times above it, its percentile and n."""
    times = sorted(t for record in _timed(passes) for t in record["times"])
    n = len(times)
    return times[n - 11], 100.0 * (n - 10) / n, n


def _median_pass(passes: list[dict]) -> float:
    return statistics.median(sum(record["times"]) for record in _timed(passes))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None) -> tuple[dict, dict]:
    """One workload run; returns the result object and extra facts."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    jobs = build_jobs(workload, seed, out)
    ref_jobs = None
    if reference is not None and reference["seed"] == seed:
        ref_jobs = reference["workloads"].get(workload, {})

    attempted = failed = 0
    extra: dict = {"workload": workload, "seed": seed, "git_sha": _git_sha()}
    metrics: dict = {}
    if trace:
        plain = _run_worker(workload, jobs, out, seconds / 2, False)
        traced = _run_worker(workload, jobs, out, seconds / 2, True)
        runs = (plain, traced)
        layers = [record["layers"] for record in _timed(traced["passes"])]
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        metrics["trace.overhead_frac"] = (
            _median_pass(traced["passes"]) / _median_pass(plain["passes"]) - 1.0)
        extra["skipped_wraps"] = traced["skipped"]
    else:
        setup_times, setup_failed = _time_setup(out)
        attempted += len(setup_times) + 1
        failed += setup_failed
        plain = _run_worker(workload, jobs, out, seconds, False)
        runs = (plain,)
        tail, pct, n = _job_tail(plain["passes"])
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["pass_s"] = _median_pass(plain["passes"])
        metrics["job_tail_s"] = tail
        metrics["peak_rss_mb"] = plain["peak_rss_mb"]
        extra["job_tail"] = {"percentile": pct, "samples": n}
        extra["setup_times_s"] = setup_times
    for result in runs:
        run_failed, checked = _check_passes(jobs, result, ref_jobs)
        attempted += len(jobs) * len(result["passes"])
        failed += run_failed
    frac, problems = _certified_frac(workload, jobs, checked)
    for p in problems:
        print(f"FAIL {workload}: {p}", file=sys.stderr)
    failed += len(problems)
    if not trace:
        metrics["certified_frac"] = frac
    extra["host"] = plain["host"]
    extra["passes"] = [len(_timed(r["passes"])) for r in runs]
    extra["reference_checked"] = ref_jobs is not None
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, extra


def _with_units(metrics: dict, declared: list[dict]) -> dict:
    """Attach the units BENCHMARK.json declares; the measured names must
    be exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def _report(result: dict, extra: dict) -> None:
    host = extra["host"]
    print(f"== {extra['workload']} seed={extra['seed']} passes={extra['passes']} "
          f"git={extra['git_sha']}", file=sys.stderr)
    print(f"   host: cpus={host['cpu_count']} usable={host['cpus_usable']} "
          f"{host['machine']} python={host['python']} numpy={host['numpy']} "
          f"simd={','.join(host['numpy_simd'])}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if "job_tail" in extra:
        tail = extra["job_tail"]
        print(f"   job_tail_s is p{tail['percentile']:.1f} of {tail['samples']} jobs",
              file=sys.stderr)
    print(f"   error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} jobs failed)", file=sys.stderr)
    if extra.get("skipped_wraps"):
        print(f"   not traced (no longer imported): {extra['skipped_wraps']}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (Path("src") / "graphgrowth" / "cli.py").is_file():
        print("error: src/graphgrowth is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else None
    declared = json.loads(Path("BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, extra = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), reference)
            result["metrics"] = _with_units(result["metrics"], declared)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _report(result, extra)
        results[name] = result
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{tag}.json").write_text(
            json.dumps({"result": result, **extra}, indent=1))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

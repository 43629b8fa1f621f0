"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation (the argv handed to ``graphgrowth.cli.main``)
plus what the checker needs to know about its inputs.  A pass runs a
workload's jobs in order; every job writes to its own file under the
run's output directory.

The seed only picks values inside fixed bands.  Radii are drawn one per
equal-width stratum of the band, from the middle JITTER share of the
stratum, so that every seed gives a pass of about the same cost and the
same mix of easy and hard radii.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("quad-ladder", "packet-ledger", "schedule-audit")

# Share of each stratum the seeded radius may fall in (centred).
JITTER = 0.25

# Packet-ledger range lengths: long enough that the pass takes seconds.
SIN_EXP_PACKETS = 2000
SIN_EXP_SQ_PACKETS = 1000
SAMPLING_PACKETS = 100
PACKET_DELTA = "0.01"

SCHEDULE_N = 100000


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the facts its output is checked against."""

    id: str
    kind: str
    argv: tuple[str, ...]
    output: str
    expect: dict = field(default_factory=dict)


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    width = (hi - lo) / k
    return [round(lo + (i + 0.5 + (rng.random() - 0.5) * JITTER) * width, 3)
            for i in range(k)]


def _reals(values) -> str:
    return ",".join(repr(v) for v in values)


def _area(job_id: str, out: Path, family: str, r: float, depth: int, mode: str) -> Job:
    path = str(out / f"{job_id}.csv")
    argv = ("area", "--family", family, "--r", repr(r), "--mode", mode,
            "--max-depth", str(depth), "--output", path)
    return Job(job_id, "area", argv, path,
               {"radii": [r], "depth": depth, "mode": mode})


def _growth(job_id: str, out: Path, family: str, radii, model: str,
            extra: tuple[str, ...] = ()) -> Job:
    path = str(out / f"{job_id}.json")
    argv = ("growth", "--family", family, "--r", _reals(radii), *extra,
            "--output", path)
    return Job(job_id, "growth", argv, path, {"model": model})


def _packets(job_id: str, out: Path, family: str, n_lo: int, count: int,
             method: str = "interval") -> Job:
    path = str(out / f"{job_id}.csv")
    n_hi = n_lo + count - 1
    argv = ["packets", "--family", family, "--n", f"{n_lo}..{n_hi}",
            "--method", method]
    if family == "sin-exp-sq":
        argv += ["--delta", PACKET_DELTA]
    argv += ["--output", path]
    return Job(job_id, "packets", tuple(argv), path,
               {"n_lo": n_lo, "n_hi": n_hi, "method": method})


def _schedule(job_id: str, out: Path, variant: str, n0: int, fmt: str,
              queries=None) -> Job:
    path = str(out / f"{job_id}.{fmt}")
    argv = ["schedule", "--variant", variant, "--n0", str(n0),
            "--N", str(SCHEDULE_N), "--format", fmt]
    if queries:
        argv += ["--query-R", _reals(queries)]
    argv += ["--output", path]
    return Job(job_id, "schedule", tuple(argv), path,
               {"N": SCHEDULE_N, "format": fmt, "queries": list(queries or [])})


def _quad_ladder(rng: random.Random, out: Path) -> list[Job]:
    jobs = []
    for family, lo, hi, k, depth in (("exp", 8.0, 32.0, 3, 14),
                                     ("sin-exp", 3.5, 8.0, 3, 13),
                                     ("sin-exp-sq", 2.0, 2.9, 2, 13)):
        for i, r in enumerate(_stratified(rng, lo, hi, k)):
            jobs.append(_area(f"area-{family}-{i}", out, family, r, depth, "estimate"))
    (r_lower,) = _stratified(rng, 3.5, 8.0, 1)
    jobs.append(_area("area-sin-exp-lower", out, "sin-exp", r_lower, 14, "lower"))
    jobs.append(_growth("growth-exp", out, "exp", [4.0, 8.0, 16.0, 32.0], "polynomial"))
    return jobs


def _packet_ledger(rng: random.Random, out: Path) -> list[Job]:
    n_se = rng.randint(1, 4000)
    n_sq = rng.randint(2, 2000)
    return [
        _packets("packets-sin-exp", out, "sin-exp", n_se, SIN_EXP_PACKETS),
        _packets("packets-sin-exp-sq", out, "sin-exp-sq", n_sq, SIN_EXP_SQ_PACKETS),
        _packets("packets-sin-exp-sq-sampling", out, "sin-exp-sq", n_sq,
                 SAMPLING_PACKETS, method="sampling"),
        _growth("growth-sin-exp", out, "sin-exp",
                _stratified(rng, 4.0, 40.0, 6), "exponential"),
        _growth("growth-sin-exp-sq", out, "sin-exp-sq",
                _stratified(rng, 2.6, 6.0, 6), "gaussian",
                ("--delta", PACKET_DELTA)),
    ]


def _queries(rng: random.Random, lo: float, hi: float) -> list[float]:
    """Four radii inside the schedule's queryable range (stage radii
    run from r_1 to r_N; the outer tenth on each side is left out)."""
    pad = 0.1 * (hi - lo)
    return _stratified(rng, lo + pad, hi - pad, 4)


def _schedule_audit(rng: random.Random, out: Path) -> list[Job]:
    n0 = rng.randint(5000, 20000)
    exp_q = _queries(rng, math.log(n0 + 1), math.log(n0 + SCHEDULE_N))
    gauss_q = _queries(rng, math.sqrt(math.log(2)), math.sqrt(math.log(1 + SCHEDULE_N)))
    table = _schedule("schedule-gaussian", out, "gaussian", 1, "csv")
    svg = str(out / "plot-gaussian.svg")
    plot = Job("plot-gaussian", "plot",
               ("plot", "--input", table.output, "--output", svg), svg, {})
    return [
        table,
        _schedule("schedule-exp-json", out, "exp", n0, "json", exp_q),
        _schedule("schedule-gaussian-json", out, "gaussian", 1, "json", gauss_q),
        plot,
    ]


_JOB_LISTS = {
    "quad-ladder": _quad_ladder,
    "packet-ledger": _packet_ledger,
    "schedule-audit": _schedule_audit,
}


def build_jobs(workload: str, seed: int, out: Path) -> list[Job]:
    """The job list of one pass; the same seed gives the same argv."""
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"), out)


def setup_job(out: Path) -> Job:
    """The smallest CLI job, run in a fresh interpreter to time set-up."""
    return _area("setup", out, "exp", 2.0, 2, "estimate")

"""Output checks for benchmark jobs, and the comparison with the reference.

``check_output`` parses one job's output file and returns a ``Checked``:
the problems found (an empty list means the output is correct) and the
values that the reference comparison and the workload metrics need.

The values split three ways, which is the whole reference contract:

- ``exact``: integer columns, boolean flags, the fitted model and the
  schedule's ``N_of_R``; they must equal the reference.
- ``no_higher``: certified lower bounds (``area_lower`` and
  ``min_abs_fprime``); a change may lower them but never raise them.
- ``no_lower``: certified upper bounds (``max_abs_f``); a change may raise
  them but never lower them.

Long columns are kept in ``exact`` as a digest, so the stored reference
stays small.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from workloads import Job

AREA_HEADER = ["r", "area_lower", "area_estimate", "source",
               "cells_inside", "cells_boundary", "depth_reached"]
PACKET_HEADER = ["n", "center", "radius", "max_abs_f", "min_abs_fprime",
                 "f_bound_ok", "fprime_bound_ok", "disjoint_ok"]
SCHEDULE_HEADER = ["n", "r_n", "mu_n", "a_n", "b_n", "eps_n",
                   "sigma_n", "eta_n", "hyp2_ok", "sigma_feasible"]
GROWTH_KEYS = {"model", "rate", "log_intercept", "residual_rms",
               "c_witness", "r0_witness"}
SCHEDULE_JSON_KEYS = {"all_hyp2_ok", "all_sigma_feasible", "eta_max_tail",
                      "N_of_R", "area_lower_of_R", "sigma_partial_sums",
                      "completeness_trend"}


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    exact: dict = field(default_factory=dict)
    no_higher: dict = field(default_factory=dict)
    no_lower: dict = field(default_factory=dict)
    columns: dict = field(default_factory=dict)

    def reference_entry(self, job: Job) -> dict:
        return {"argv": list(job.argv), "exact": self.exact,
                "no_higher": self.no_higher, "no_lower": self.no_lower}


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()[:16]


def _read_csv(path: str, header: list[str], res: Checked) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        res.problems.append(f"header {rows[0] if rows else None} != {header}")
        return []
    body = rows[1:]
    bad = [i for i, row in enumerate(body) if len(row) != len(header)]
    if bad:
        res.problems.append(f"row {bad[0] + 1} has the wrong number of fields")
        return []
    return body


def _float(text: str, what: str, res: Checked) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        res.problems.append(f"{what}: {text!r} is not a finite number")
    return value


def _check_area(job: Job, path: str, res: Checked) -> None:
    body = _read_csv(path, AREA_HEADER, res)
    exp = job.expect
    if len(body) != len(exp["radii"]):
        res.problems.append(f"{len(body)} rows for {len(exp['radii'])} radii")
        return
    lower, estimate, ints = [], [], []
    for row, r in zip(body, exp["radii"]):
        if _float(row[0], "r", res) != r:
            res.problems.append(f"row r={row[0]} for requested r={r}")
        lo = _float(row[1], "area_lower", res)
        if not lo >= 0:
            res.problems.append(f"area_lower {row[1]} < 0")
        if exp["mode"] == "estimate":
            est = _float(row[2], "area_estimate", res)
            if not lo <= est:
                res.problems.append(f"area_lower {row[1]} > area_estimate {row[2]}")
            estimate.append(est)
        elif row[2] != "":
            res.problems.append("area_estimate given in lower mode")
        if row[3] != "Quadrature":
            res.problems.append(f"source {row[3]!r}")
        try:
            counts = [int(v) for v in row[4:7]]
        except ValueError:
            res.problems.append(f"non-integer cell counts {row[4:7]}")
            continue
        if min(counts) < 0:
            res.problems.append(f"negative cell count {row[4:7]}")
        if counts[2] != exp["depth"]:
            res.problems.append(f"depth_reached {counts[2]} != --max-depth {exp['depth']}")
        lower.append(lo)
        ints.append(counts)
    res.exact["cells_and_depth"] = ints
    res.no_higher["area_lower"] = lower
    res.columns = {"area_lower": lower, "area_estimate": estimate}


def _check_packets(job: Job, path: str, res: Checked) -> None:
    body = _read_csv(path, PACKET_HEADER, res)
    exp = job.expect
    ns = [row[0] for row in body]
    if ns != [str(n) for n in range(exp["n_lo"], exp["n_hi"] + 1)]:
        res.problems.append(f"rows do not list n = {exp['n_lo']}..{exp['n_hi']}")
    flags = [row[5:8] for row in body]
    failed = [row[0] for row in body if row[5:8] != ["true", "true", "true"]]
    if failed:
        res.problems.append(f"{len(failed)} packets with a false flag, first n={failed[0]}")
    max_f = [_float(row[3], "max_abs_f", res) for row in body]
    min_fp = [_float(row[4], "min_abs_fprime", res) for row in body]
    res.exact["n"] = _digest(ns)
    res.exact["flags"] = _digest(",".join(f) for f in flags)
    res.no_lower["max_abs_f"] = max_f
    res.no_higher["min_abs_fprime"] = min_fp
    res.columns = {"n": [int(n) for n in ns if n.isdigit()],
                   "max_abs_f": max_f, "min_abs_fprime": min_fp}


def _load_json(path: str, res: Checked):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            res.problems.append(f"output is not JSON: {exc}")
            return None


def _check_growth(job: Job, path: str, res: Checked) -> None:
    doc = _load_json(path, res)
    if not isinstance(doc, dict) or set(doc) != GROWTH_KEYS:
        res.problems.append(f"growth keys {sorted(doc) if isinstance(doc, dict) else doc}")
        return
    if doc["model"] != job.expect["model"]:
        res.problems.append(f"model {doc['model']!r}, expected {job.expect['model']!r}")
    res.exact["model"] = doc["model"]


def _check_schedule_csv(job: Job, path: str, res: Checked) -> None:
    body = _read_csv(path, SCHEDULE_HEADER, res)
    ns = [row[0] for row in body]
    if ns != [str(n) for n in range(1, job.expect["N"] + 1)]:
        res.problems.append(f"{len(ns)} rows do not list n = 1..{job.expect['N']}")
    flags = [(row[8], row[9]) for row in body]
    if any(f not in ("true", "false") for pair in flags for f in pair):
        res.problems.append("hyp2_ok or sigma_feasible is not true/false")
    res.exact["n"] = _digest(ns)
    res.exact["flags"] = _digest(",".join(f) for f in flags)
    res.columns = {"rows": len(body),
                   "feasible": sum(f == ("true", "true") for f in flags)}


def _check_schedule_json(job: Job, path: str, res: Checked) -> None:
    doc = _load_json(path, res)
    if not isinstance(doc, dict) or set(doc) != SCHEDULE_JSON_KEYS:
        res.problems.append(f"schedule keys {sorted(doc) if isinstance(doc, dict) else doc}")
        return
    n_of_r = doc["N_of_R"]
    queries = job.expect["queries"]
    if [float(k) for k in n_of_r] != queries:
        res.problems.append(f"N_of_R radii {list(n_of_r)} != --query-R {queries}")
    if not all(isinstance(v, int) and 0 <= v <= job.expect["N"] for v in n_of_r.values()):
        res.problems.append(f"N_of_R counts out of range: {n_of_r}")
    if len(doc["sigma_partial_sums"]) != job.expect["N"]:
        res.problems.append("sigma_partial_sums does not have N entries")
    trend = doc["completeness_trend"]
    flags = [doc["all_hyp2_ok"], doc["all_sigma_feasible"],
             trend["diverging"] if isinstance(trend, dict) else None]
    if not all(isinstance(f, bool) for f in flags[:2]):
        res.problems.append("all_hyp2_ok or all_sigma_feasible is not a boolean")
    res.exact["N_of_R"] = n_of_r
    res.exact["flags"] = flags


def _check_plot(job: Job, path: str, res: Checked) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        res.problems.append(f"output is not XML: {exc}")
        return
    if not root.tag.endswith("svg"):
        res.problems.append(f"root element {root.tag!r} is not svg")


def check_output(job: Job, path: str | None = None) -> Checked:
    """Check the output file of one job run (``path`` defaults to the
    job's own output file)."""
    res = Checked()
    path = path or job.output
    try:
        if job.kind == "area":
            _check_area(job, path, res)
        elif job.kind == "packets":
            _check_packets(job, path, res)
        elif job.kind == "growth":
            _check_growth(job, path, res)
        elif job.kind == "schedule" and job.expect["format"] == "csv":
            _check_schedule_csv(job, path, res)
        elif job.kind == "schedule":
            _check_schedule_json(job, path, res)
        else:
            _check_plot(job, path, res)
    except FileNotFoundError:
        res.problems.append("no output file")
    return res


def reference_problems(job: Job, res: Checked, entry: dict | None) -> list[str]:
    """Differences from the reference that a correct change may not make."""
    if entry is None:
        return ["job missing from the reference"]
    if entry["argv"] != list(job.argv):
        return ["reference was recorded for other inputs"]
    problems = []
    for key, ref in entry["exact"].items():
        if res.exact.get(key) != ref:
            problems.append(f"{key} differs from the reference")
    for key, ref in entry["no_higher"].items():
        new = res.no_higher.get(key, [])
        if len(new) != len(ref) or any(a > b for a, b in zip(new, ref)):
            problems.append(f"{key} rose above the reference")
    for key, ref in entry["no_lower"].items():
        new = res.no_lower.get(key, [])
        if len(new) != len(ref) or any(a < b for a, b in zip(new, ref)):
            problems.append(f"{key} fell below the reference")
    return problems


def packet_cross_check(interval: Checked, sampling: Checked) -> tuple[list[str], float]:
    """Compare the interval ledger with the sampling ledger on the
    packets both list.

    Sampled extrema are attained values, so a sound interval certificate
    has max_abs_f no lower and min_abs_fprime no higher than them.
    Returns the problems and the certified share of the sampled packet
    area, sum(proved min|f'|^2) / sum(sampled min|f'|^2).
    """
    proved = dict(zip(interval.columns.get("n", []),
                      zip(interval.columns.get("max_abs_f", []),
                          interval.columns.get("min_abs_fprime", []))))
    problems = []
    num = den = 0.0
    for n, s_f, s_fp in zip(sampling.columns.get("n", []),
                            sampling.columns.get("max_abs_f", []),
                            sampling.columns.get("min_abs_fprime", [])):
        if n not in proved:
            problems.append(f"sampled packet n={n} is not in the interval ledger")
            continue
        p_f, p_fp = proved[n]
        if p_f < s_f or p_fp > s_fp:
            problems.append(f"packet n={n}: interval bounds exclude a sampled value")
        num += p_fp * p_fp
        den += s_fp * s_fp
    return problems, (num / den if den > 0 else 0.0)

"""Spans at the package's layer boundaries, recorded from outside it.

``install`` replaces public functions with timing wrappers where each
consumer module imported them (``cli.graph_area``, ``quadrature.
bound_abs_f_batch``, ...), so calls the package makes through those names
are recorded and no source file changes.  A name a module no longer
imports is skipped and listed in ``Tracer.skipped``.

A span is ``[name, start, end, parent, job, counts, overhead]``: parent is
the index of the enclosing span (-1 at the top), job the id of the CLI
job it ran in, counts what the call worked on (cells, rows, bytes), and
overhead the time spent computing those counts after ``end``, which the
parent's self time excludes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, JOB, COUNTS, OVERHEAD = range(7)

_COUNT_ERRORS = (AttributeError, TypeError, IndexError, ValueError)


def _cells(args, kwargs, out):
    lo, hi = out
    return {"cells": int(np.size(args[1])),
            "trivial": int(np.count_nonzero(np.isneginf(lo) & np.isposinf(hi)))}


def _points(args, kwargs, out):
    return {"points": int(np.size(args[1]))}


def _area(args, kwargs, out):
    return {"inside": out.cells_inside, "boundary": out.cells_boundary}


def _certify(args, kwargs, out):
    requested = args[1] if len(args) > 1 else kwargs.get("method")
    method = out.certificate.method.value
    asked_proof = requested is None or requested.value != "DenseSampling"
    return {"proved": int(out.certificate.certified),
            "fallback": int(asked_proof and method == "DenseSampling")}


def _rows(args, kwargs, out):
    return {"rows": len(out),
            "infeasible": sum(not row.sigma_feasible for row in out),
            "hyp2_fail": sum(not row.hyp2_ok for row in out)}


def _svg(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


# (consumer module, imported name, span name, counter)
WRAPS = (
    ("cli", "graph_area", "quadrature.graph_area", _area),
    ("cli", "certify_packet", "packets.certify", _certify),
    ("cli", "make_packet", "packets.make", None),
    ("cli", "verify_disjoint", "packets.disjoint", None),
    ("cli", "packet_growth_lower_bound", "packets.count", None),
    ("cli", "fit_growth", "growth.fit", None),
    ("cli", "classify_growth", "growth.fit", None),
    ("cli", "witness_constants", "growth.witness", None),
    ("cli", "build_schedule", "schedule.build", _rows),
    ("cli", "diagnostics", "schedule.diagnostics", None),
    ("cli", "completeness_trend", "schedule.trend", None),
    ("cli", "render_line_chart", "svgplot.render", _svg),
    ("quadrature", "bound_abs_f_batch", "families.bound_f@quadrature", _cells),
    ("quadrature", "bound_abs_fprime_batch", "families.bound_fprime@quadrature", _cells),
    ("quadrature", "log_abs_f_batch", "families.point@quadrature", _points),
    ("quadrature", "log_abs_fprime_batch", "families.point@quadrature", _points),
    ("packets", "bound_abs_f_batch", "families.bound_f@packets", _cells),
    ("packets", "bound_abs_fprime_batch", "families.bound_fprime@packets", _cells),
    ("packets", "log_abs_f_batch", "families.point@packets", _points),
    ("packets", "log_abs_fprime_batch", "families.point@packets", _points),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.skipped: list[str] = []
        self.job = ""
        self._stack: list[int] = []

    def call(self, name, fn, counter, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.job, None, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span[START], span[END] = start, end
        if counter is not None:
            try:
                span[COUNTS] = counter(args, kwargs, out)
            except _COUNT_ERRORS:
                span[COUNTS] = None
            span[OVERHEAD] = time.perf_counter() - end
        return out

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name of WRAPS that its consumer module still has."""
        for module_name, attr, name, counter in WRAPS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, counter))


def pass_metrics(spans: list[list], first: int, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass, whose spans start at index ``first``
    of the run's span list."""
    covered = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START] + span[OVERHEAD]
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(float)
    for offset, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] += 1
        total[name] += duration
        own[name] += duration - covered.get(first + offset, 0.0)
        for key, value in (span[COUNTS] or {}).items():
            counts[f"{name}:{key}"] += value

    def pick(table, *names):
        return sum(table[n] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    consumers = ("quadrature", "packets")
    bound_f = [f"families.bound_f@{c}" for c in consumers]
    bound_fp = [f"families.bound_fprime@{c}" for c in consumers]
    point = [f"families.point@{c}" for c in consumers]
    m: dict[str, float] = {}
    for key, names in (("bound_f", bound_f), ("bound_fprime", bound_fp)):
        cells = sum(counts[f"{n}:cells"] for n in names)
        m[f"families.{key}.calls"] = pick(calls, *names)
        m[f"families.{key}.cells"] = cells
        m[f"families.{key}.s"] = pick(total, *names)
        m[f"families.{key}.cells_per_s"] = ratio(cells, pick(total, *names))
    points = sum(counts[f"{n}:points"] for n in point)
    m["families.point.calls"] = pick(calls, *point)
    m["families.point.points"] = points
    m["families.point.s"] = pick(total, *point)
    m["families.point.points_per_s"] = ratio(points, pick(total, *point))
    cells = m["families.bound_f.cells"] + m["families.bound_fprime.cells"]
    enclosures = m["families.bound_f.calls"] + m["families.bound_fprime.calls"]
    trivial = sum(counts[f"{n}:trivial"] for n in bound_f + bound_fp)
    m["families.cells_per_call"] = ratio(cells, enclosures)
    m["families.trivial_frac"] = ratio(trivial, cells)

    quad = "quadrature.graph_area"
    inside = counts[f"{quad}:inside"]
    m["quadrature.calls"] = calls[quad]
    m["quadrature.s"] = total[quad]
    m["quadrature.self_s"] = own[quad]
    m["quadrature.classify_s"] = total["families.bound_f@quadrature"]
    m["quadrature.inside_sum_s"] = total["families.bound_fprime@quadrature"]
    m["quadrature.boundary_sample_s"] = total["families.point@quadrature"]
    m["quadrature.cells_inside"] = inside
    m["quadrature.cells_boundary"] = counts[f"{quad}:boundary"]
    m["quadrature.inside_per_enclosed"] = ratio(
        inside, counts["families.bound_f@quadrature:cells"])

    certify = "packets.certify"
    packets = calls[certify]
    packet_names = ("packets.certify", "packets.make", "packets.disjoint", "packets.count")
    m["packets.certify.calls"] = packets
    m["packets.certify.s"] = total[certify]
    m["packets.self_s"] = pick(own, *packet_names)
    m["packets.enclosures_per_packet"] = ratio(
        pick(calls, "families.bound_f@packets", "families.bound_fprime@packets"), packets)
    m["packets.cells_per_packet"] = ratio(
        counts["families.bound_f@packets:cells"]
        + counts["families.bound_fprime@packets:cells"], packets)
    m["packets.proved_frac"] = ratio(counts[f"{certify}:proved"], packets)
    m["packets.sampling_fallbacks"] = counts[f"{certify}:fallback"]
    m["packets.disjoint.s"] = total["packets.disjoint"]
    m["packets.count.s"] = total["packets.count"]

    m["growth.fit.calls"] = calls["growth.fit"]
    m["growth.fit.s"] = total["growth.fit"]
    m["growth.witness.s"] = total["growth.witness"]

    build = "schedule.build"
    rows = counts[f"{build}:rows"]
    m["schedule.build.s"] = total[build]
    m["schedule.rows"] = rows
    m["schedule.rows_per_s"] = ratio(rows, total[build])
    m["schedule.diagnostics.s"] = total["schedule.diagnostics"]
    m["schedule.trend.s"] = total["schedule.trend"]
    m["schedule.infeasible_rows"] = counts[f"{build}:infeasible"]
    m["schedule.hyp2_fail_rows"] = counts[f"{build}:hyp2_fail"]

    m["svgplot.render.s"] = total["svgplot.render"]
    m["svgplot.out_bytes"] = counts["svgplot.render:bytes"]

    m["cli.self_s"] = own["cli.main"]
    m["cli.out_bytes"] = out_bytes
    return m

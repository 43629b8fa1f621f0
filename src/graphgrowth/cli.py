"""Command-line surface: batch runs, CSV/JSON serialization, SVG plots.

Commands
  area      certified / estimated graph area over a list of radii (CSV)
  packets   packet construction + certification ledger (CSV)
  growth    growth-model fit and witness constants (JSON)
  schedule  induction parameter table (CSV) or diagnostics (JSON)
  plot      SVG line chart from a CSV produced by the other commands

Output contracts: CSV uses UTF-8, "\n" line endings, "." decimals, and
fixed column orders; JSON is a single object per invocation with stable
keys; every numeric value is printed with 17 significant digits so that
identical invocations are byte-identical.  No environment variable
affects any command.

Exit codes: 0 success, 2 usage or input error (an allocation that
fails too), 3 guarded-resource refusal (radius beyond the family cap
without --allow-large-r, a quadtree level past the cell budget, a
--samples or --samples-per-cell count past the sample budget, a
schedule --N past the stage budget, or a packets --n range longer than
the packet budget).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from operator import itemgetter

import numpy as np

from .families import GraphFamily
from .growth import (
    GrowthModel,
    GrowthSample,
    NoWitnessError,
    SampleSource,
    classify_growth,
    fit_growth,
    witness_constants,
)
from .packets import (
    CertifyMethod,
    _certify_columns,
    _layout,
    packet_growth_lower_bound,
    verify_disjoint,
)
from .quadrature import (
    GuardedResourceError,
    QuadConfig,
    QuadMode,
    SublevelDomain,
    graph_area,
)
from .schedule import (
    InsufficientRowsError,
    RadiiVariant,
    Schedule,
    ScheduleConfig,
    build_schedule,
    completeness_trend,
    diagnostics,
)
from .svgplot import AXES_MODES, render_line_chart

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Values of a float list formatted per % in _json_dump.  Pieces of a
# bounded size are joined once at their exact total length; one % over
# a whole 1e5-value list would grow its text by repeated reallocation
# and leave the heap several MB larger.
_FLOAT_BLOCK = 4096


def _json_dump(value) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if type(value) is float:  # the common case first: long float lists
        return "%.17g" % value
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, dict):
        inner = ", ".join(f"{_json_dump(str(k))}: {_json_dump(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        if {*map(type, value)} == {float}:  # long float lists: one % per block
            blocks = [value[i:i + _FLOAT_BLOCK] for i in range(0, len(value), _FLOAT_BLOCK)]
            return "[" + ", ".join([", ".join(["%.17g"] * len(block)) % tuple(block)
                                    for block in blocks]) + "]"
        return "[" + ", ".join(map(_json_dump, value)) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_output(path: str, text: str | Iterable[str]) -> None:
    """Write text, or each of its pieces in order, to path ("-": stdout)."""
    pieces = [text] if isinstance(text, str) else text
    if path == "-":
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


# Rows of a CSV table formatted and written per piece.  The text of a
# 1e5-stage schedule is 17 MB; a block of 4096 rows is under 1 MB, and no
# table's text is ever held whole.
_CSV_BLOCK = 4096
_BOOL = ("false", "true")


def _csv_blocks(header: str, row: str, size: int,
                fields: Callable[[slice], Sequence[Iterable]]) -> Iterator[str]:
    """A CSV table of size rows: the header, then one string per _CSV_BLOCK rows.

    fields(block) gives the block's columns, one per conversion of row, the
    first of them sized; each block is one % of row * k over their values,
    laid out row after row."""
    yield header
    for lo in range(0, size, _CSV_BLOCK):
        columns = fields(slice(lo, lo + _CSV_BLOCK))
        yield (row * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _flags(values: np.ndarray) -> Iterator[str]:
    return map(_BOOL.__getitem__, values.tolist())


def _csv_body(reader, width: int) -> Iterator[list[str]]:
    """The data rows of a csv.reader whose header has width fields.

    Blank lines are skipped; a row shorter than the header is an input
    error rather than a row of missing values."""
    for row in reader:
        if len(row) >= width:
            yield row
        elif row:
            raise ValueError(f"CSV line {reader.line_num} has {len(row)} fields, "
                             f"the header has {width}")


def _parse_reals(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad real list {text!r}") from exc
    if not values:
        raise ValueError("empty real list")
    return values


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range 'lo..hi' (or a single integer)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ValueError(f"bad integer range {text!r}") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


# ---------------------------------------------------------------- area

_AREA_HEADER = "r,area_lower,area_estimate,source,cells_inside,cells_boundary,depth_reached\n"
_AREA_ROW = "%.17g,%.17g,%s,%s,%d,%d,%d\n"


def _cmd_area(args: argparse.Namespace) -> int:
    family = GraphFamily.parse(args.family)
    radii = _parse_reals(args.r)
    mode = QuadMode.LOWER_BOUND if args.mode == "lower" else QuadMode.ESTIMATE
    cfg = QuadConfig(
        mode=mode,
        max_depth=args.max_depth,
        seed_box_pad=args.pad,
        samples_per_cell=args.samples_per_cell,
    )
    results = [graph_area(SublevelDomain(family, r), cfg, allow_large_r=args.allow_large_r)
               for r in radii]
    columns = [
        radii,
        [res.lower for res in results],
        ["" if res.estimate is None else "%.17g" % res.estimate for res in results],
        [SampleSource.QUADRATURE.value] * len(results),
        [res.cells_inside for res in results],
        [res.cells_boundary for res in results],
        [res.depth_reached for res in results],
    ]
    _write_output(args.output, _csv_blocks(
        _AREA_HEADER, _AREA_ROW, len(radii), lambda block: [col[block] for col in columns]))
    return 0


# ------------------------------------------------------------- packets

_PACKET_HEADER = ("n,center,radius,max_abs_f,min_abs_fprime,"
                  "f_bound_ok,fprime_bound_ok,disjoint_ok\n")
_PACKET_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%s,%s,%s\n"


def _cmd_packets(args: argparse.Namespace) -> int:
    """The packet ledger, read column by column from _layout and the
    certifier; no per-packet object is built."""
    family = GraphFamily.parse(args.family)
    n_lo, n_hi = _parse_range(args.n)
    method = (CertifyMethod.INTERVAL_PROOF if args.method == "interval"
              else CertifyMethod.DENSE_SAMPLING)
    centers, radii = _layout(family, n_lo, n_hi, args.delta)
    ns = np.fromiter(map(float, range(n_lo, n_hi + 1)), float, centers.size)
    max_f, min_fp, f_ok, fp_ok = _certify_columns(family, ns, centers, radii,
                                                  method, args.samples)

    # a packet is disjoint when the gaps on both of its sides are positive
    gap_ok = verify_disjoint(family, n_lo, n_hi, args.delta).gaps > 0
    disjoint = np.append(gap_ok, True) & np.insert(gap_ok, 0, True)

    def fields(block: slice) -> list:
        return [range(n_lo, n_hi + 1)[block], centers[block].tolist(), radii[block].tolist(),
                max_f[block].tolist(), min_fp[block].tolist(),
                _flags(f_ok[block]), _flags(fp_ok[block]), _flags(disjoint[block])]

    _write_output(args.output, _csv_blocks(_PACKET_HEADER, _PACKET_ROW, centers.size, fields))
    return 0


# -------------------------------------------------------------- growth

def _read_samples_csv(path: str) -> list[GrowthSample]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {name: i for i, name in enumerate(header)}
        if "r" not in index or "area_lower" not in index:
            raise ValueError("input CSV needs columns r and area_lower")
        est, src = index.get("area_estimate"), index.get("source")
        samples = []
        for row in _csv_body(reader, len(header)):
            estimate_text = row[est].strip() if est is not None else ""
            source_text = ((row[src] if src is not None else "") or "Quadrature").strip()
            samples.append(GrowthSample(
                r=float(row[index["r"]]),
                area_lower=float(row[index["area_lower"]]),
                area_estimate=float(estimate_text) if estimate_text else None,
                source=SampleSource(source_text),
            ))
    if not samples:
        raise ValueError("input CSV has no sample rows")
    return samples


def _generate_samples(args: argparse.Namespace) -> list[GrowthSample]:
    family = GraphFamily.parse(args.family)
    radii = _parse_reals(args.r)
    if family is GraphFamily.EXP:
        cfg = QuadConfig(mode=QuadMode.ESTIMATE, max_depth=args.max_depth)
        samples = []
        for r in radii:
            result = graph_area(SublevelDomain(family, r), cfg,
                                allow_large_r=args.allow_large_r)
            samples.append(GrowthSample(
                r=r,
                area_lower=result.lower,
                area_estimate=result.estimate,
                source=SampleSource.QUADRATURE,
            ))
        return samples
    return [
        GrowthSample(
            r=r,
            area_lower=packet_growth_lower_bound(family, r, args.delta),
            area_estimate=None,
            source=SampleSource.PACKETS,
        )
        for r in radii
    ]


def _cmd_growth(args: argparse.Namespace) -> int:
    if args.input is not None:
        samples = _read_samples_csv(args.input)
    elif args.family is not None and args.r is not None:
        samples = _generate_samples(args)
    else:
        raise ValueError("growth needs --input CSV or --family with --r")

    if args.model is not None:
        model = GrowthModel(args.model.capitalize())
        fit = fit_growth(samples, model)
    else:
        fit = classify_growth(samples)

    try:
        c_witness, r0_witness = witness_constants(samples, fit.model)
    except (NoWitnessError, ValueError):
        c_witness, r0_witness = None, None

    payload = {
        "model": fit.model.value.lower(),
        "rate": fit.rate,
        "log_intercept": fit.log_intercept,
        "residual_rms": fit.residual_rms,
        "c_witness": c_witness,
        "r0_witness": r0_witness,
    }
    _write_output(args.output, _json_dump(payload) + "\n")
    return 0


# ------------------------------------------------------------ schedule

_SCHEDULE_HEADER = "n,r_n,mu_n,a_n,b_n,eps_n,sigma_n,eta_n,hyp2_ok,sigma_feasible\n"
_SCHEDULE_ROW = "%d,%.17g,%.17g,%s,%s,%s,%s,%.17g,%s,%s\n"


def _schedule_csv(schedule: Schedule) -> Iterator[str]:
    """The schedule CSV in blocks.  a_n, b_n and eps_n are the one a
    column, formatted once per row; sigma_n is an empty cell where the
    stage is infeasible."""
    r = schedule.r[:-1]

    def fields(block: slice) -> list:
        ok = schedule.sigma_feasible[block]
        a = list(map("%.17g".__mod__, schedule.a[block].tolist()))
        sigma = ["%.17g" % s if f else ""
                 for s, f in zip(schedule.sigma[block].tolist(), ok.tolist())]
        return [schedule.n[block].tolist(), r[block].tolist(), schedule.mu[block].tolist(),
                a, a, a, sigma, schedule.eta[block].tolist(),
                _flags(schedule.hyp2_ok[block]), _flags(ok)]

    return _csv_blocks(_SCHEDULE_HEADER, _SCHEDULE_ROW, len(schedule.n), fields)


def _cmd_schedule(args: argparse.Namespace) -> int:
    variant = RadiiVariant.parse(args.variant)
    cfg = ScheduleConfig(
        variant=variant,
        N=args.N,
        n0=args.n0,
        d=args.d,
        theta=args.theta,
        a0=args.a0,
    )
    schedule = build_schedule(cfg)

    if args.format == "csv":
        _write_output(args.output, _schedule_csv(schedule))
        return 0

    queries = _parse_reals(args.query_R) if args.query_R else None
    diag = diagnostics(schedule, cfg, queries)
    try:
        exponent, diverging = completeness_trend(schedule, cfg)
        trend = {"exponent": exponent, "diverging": diverging}
    except InsufficientRowsError:
        trend = None
    payload = {
        "all_hyp2_ok": diag.all_hyp2_ok,
        "all_sigma_feasible": diag.all_sigma_feasible,
        "eta_max_tail": diag.eta_max_tail,
        "N_of_R": {_fmt(k): v for k, v in diag.N_of_R.items()},
        "area_lower_of_R": {_fmt(k): v for k, v in diag.area_lower_of_R.items()},
        "sigma_partial_sums": list(diag.sigma_partial_sums),
        "completeness_trend": trend,
    }
    _write_output(args.output, _json_dump(payload) + "\n")
    return 0


# ---------------------------------------------------------------- plot

def _read_plot_columns(path: str) -> tuple[list[float], list[float]]:
    """x and y of a chart: r against area_estimate (area_lower where any
    estimate is missing) for area CSVs, else the first two columns."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV input")
        index = {name: i for i, name in enumerate(header)}
        if "r" in index and "area_lower" in index:
            picks = [index["r"], index["area_lower"]]
            if "area_estimate" in index:
                picks.append(index["area_estimate"])
        elif len(header) >= 2:
            picks = [0, 1]
        else:
            raise ValueError("CSV needs at least two columns")
        # the picked fields, row after row: no tuple per row is kept
        cells = list(chain.from_iterable(
            map(itemgetter(*picks), _csv_body(reader, len(header)))))
    if not cells:
        raise ValueError("CSV has no data rows")
    k = len(picks)
    xs, ys = cells[0::k], cells[1::k]
    if k == 3 and all(text.strip() for text in cells[2::k]):
        ys = cells[2::k]
    return list(map(float, xs)), list(map(float, ys))


def _cmd_plot(args: argparse.Namespace) -> int:
    xs, ys = _read_plot_columns(args.input)
    svg = render_line_chart(xs, ys, args.mode, label=args.label)
    _write_output(args.output, svg)
    return 0


# ---------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgrowth",
        description="Certified area-growth laboratory for minimal graphs "
                    "of holomorphic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="graph area over radii")
    p_area.add_argument("--family", required=True)
    p_area.add_argument("--r", required=True, help="comma-separated radii")
    p_area.add_argument("--mode", choices=("lower", "estimate"), default="estimate")
    p_area.add_argument("--max-depth", type=int, default=12)
    p_area.add_argument("--pad", type=float, default=0.5)
    p_area.add_argument("--samples-per-cell", type=int, default=4)
    p_area.add_argument("--allow-large-r", action="store_true")
    p_area.add_argument("--output", default="-")
    p_area.add_argument("--format", choices=("csv",), default="csv")
    p_area.set_defaults(func=_cmd_area)

    p_pack = sub.add_parser("packets", help="packet certification ledger")
    p_pack.add_argument("--family", required=True)
    p_pack.add_argument("--n", required=True, help="inclusive range lo..hi")
    p_pack.add_argument("--method", choices=("interval", "sampling"), default="interval")
    p_pack.add_argument("--samples", type=int, default=10000)
    p_pack.add_argument("--delta", type=float, default=None)
    p_pack.add_argument("--output", default="-")
    p_pack.add_argument("--format", choices=("csv",), default="csv")
    p_pack.set_defaults(func=_cmd_packets)

    p_growth = sub.add_parser("growth", help="fit growth models")
    p_growth.add_argument("--input", default=None, help="CSV of samples")
    p_growth.add_argument("--family", default=None)
    p_growth.add_argument("--r", default=None, help="comma-separated radii")
    p_growth.add_argument("--delta", type=float, default=None)
    p_growth.add_argument("--max-depth", type=int, default=12)
    p_growth.add_argument("--allow-large-r", action="store_true")
    p_growth.add_argument("--model",
                          choices=("polynomial", "exponential", "gaussian"),
                          default=None)
    p_growth.add_argument("--output", default="-")
    p_growth.add_argument("--format", choices=("json",), default="json")
    p_growth.set_defaults(func=_cmd_growth)

    p_sched = sub.add_parser("schedule", help="induction parameter tables")
    p_sched.add_argument("--variant", required=True)
    p_sched.add_argument("--n0", type=int, default=1)
    p_sched.add_argument("--N", type=int, default=100)
    p_sched.add_argument("--d", type=float, default=1.0)
    p_sched.add_argument("--theta", type=float, default=1.0)
    p_sched.add_argument("--a0", type=float, default=math.pi / 4096.0)
    p_sched.add_argument("--query-R", dest="query_R", default=None)
    p_sched.add_argument("--output", default="-")
    p_sched.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sched.set_defaults(func=_cmd_schedule)

    p_plot = sub.add_parser("plot", help="SVG chart from CSV")
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--mode", choices=AXES_MODES, default="linear")
    p_plot.add_argument("--label", default="growth curve")
    p_plot.add_argument("--output", default="-")
    p_plot.add_argument("--format", choices=("svg",), default="svg")
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except GuardedResourceError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

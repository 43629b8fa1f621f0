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
identical invocations are byte-identical.  Every output is written as
UTF-8 bytes, to stdout's binary buffer for "--output -", so no locale
or environment variable affects any command.

The numeric text of the CSV tables, of JSON float64 arrays and of the
SVG polyline is built column-wise in numpy (_text) and equals Python's
'%.17g', '%d' and '%.3f' of each value byte for byte.  Python's own %
formats the values the column path cannot prove: a 17-digit fraction
within 2^-20 of 1/2 (the exact ties among them), a decade np.log10
guessed wrong, 0, inf, nan, |x| outside [1e-290, 1e300], pixels of
1e9 and more, and a column of integers past int64 (a huge packets --n).

plot --input reads a plain CSV (every byte printable ASCII or "\n", no
'"', no line longer than csv.field_size_limit(), all checked over the
bytes first) in blocks, with the fields found and read by numpy
(_text.reals: decimals exactly, float() for any other form); any other
file, and a plain one with a row shorter than its header or a picked
field float() refuses, is read by csv.reader.  The values, and the
errors, are csv.reader's either way.

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
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from operator import itemgetter

import numpy as np

from . import _text
from ._text import fmt17
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


# Values of a float array formatted per piece in _json_dump.  Each block
# of values is written as its own bytes piece, so the character arrays
# of a 1e5-value array are never held at once and its text is never
# joined.
_FLOAT_BLOCK = 4096


def _json_dump(value) -> Iterator[bytes]:
    """Deterministic JSON with 17-significant-digit floats, as bytes
    pieces in order; a 1-D float64 array is a list, its text made in
    numpy per block and passed on as _text.rows made it."""
    if value is None:
        yield b"null"
    elif isinstance(value, bool):
        yield b"true" if value else b"false"
    elif isinstance(value, int):
        yield str(value).encode()
    elif isinstance(value, float):
        yield fmt17(value).encode()
    elif isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        yield f'"{out}"'.encode()
    elif isinstance(value, dict):
        yield b"{"
        for i, (k, v) in enumerate(value.items()):
            if i:
                yield b", "
            yield from _json_dump(str(k))
            yield b": "
            yield from _json_dump(v)
        yield b"}"
    elif isinstance(value, np.ndarray):
        yield b"["
        for i in range(0, len(value), _FLOAT_BLOCK):
            block = _text.rows([_text.g17(value[i:i + _FLOAT_BLOCK]), ", "])
            # every line of a block ends in ", "; the array's last drops it
            yield block if i + _FLOAT_BLOCK < len(value) else memoryview(block)[:-2]
        yield b"]"
    elif isinstance(value, (list, tuple)):
        yield b"["
        for i, item in enumerate(value):
            if i:
                yield b", "
            yield from _json_dump(item)
        yield b"]"
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def _write_output(path: str, pieces: Iterable[bytes]) -> None:
    """Write each bytes piece in order to path ("-": stdout's binary
    buffer, after its text layer is flushed).

    writelines drops each piece as soon as it is written, so one CSV
    block's bytes are never held while the next block is made."""
    if path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.writelines(pieces)
        return
    with open(path, "wb") as fh:
        fh.writelines(pieces)


# Rows of a CSV table formatted and written per piece.  The text of a
# 1e5-stage schedule is 17 MB; a block of 4096 rows is under 1 MB, and no
# table's text is ever held whole.
_CSV_BLOCK = 4096


def _csv_blocks(header: str, size: int, fields: Callable[[slice], list]) -> Iterator[bytes]:
    """A CSV table of size rows as bytes: the header encoded as UTF-8,
    then each _CSV_BLOCK rows as _text.rows lays them out.

    fields(block) gives the block's columns in order, each a character
    array of _text or a str that every row repeats."""
    yield header.encode()
    for lo in range(0, size, _CSV_BLOCK):
        line = [part for column in fields(slice(lo, lo + _CSV_BLOCK)) for part in (column, ",")]
        line[-1] = "\n"
        yield _text.rows(line)


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
    reals = np.array([(r, res.lower, math.nan if res.estimate is None else res.estimate)
                      for r, res in zip(radii, results)])
    missing = np.array([res.estimate is None for res in results])
    counts = np.array([(res.cells_inside, res.cells_boundary, res.depth_reached)
                       for res in results])

    def fields(block: slice) -> list:
        r, lower, estimate = _text.g17(reals[block].T).swapaxes(0, 1)
        estimate[:, missing[block]] = 0  # an empty cell where there is no estimate
        return [r, lower, estimate, SampleSource.QUADRATURE.value,
                *_text.ints(counts[block].T).swapaxes(0, 1)]

    _write_output(args.output, _csv_blocks(_AREA_HEADER, len(radii), fields))
    return 0


# ------------------------------------------------------------- packets

_PACKET_HEADER = ("n,center,radius,max_abs_f,min_abs_fprime,"
                  "f_bound_ok,fprime_bound_ok,disjoint_ok\n")


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
        return [_text.ints(range(n_lo, n_hi + 1)[block]),
                *_text.g17(np.stack([col[block] for col in (centers, radii, max_f, min_fp)]))
                .swapaxes(0, 1),
                *(_text.flags(col[block]) for col in (f_ok, fp_ok, disjoint))]

    _write_output(args.output, _csv_blocks(_PACKET_HEADER, centers.size, fields))
    return 0


# -------------------------------------------------------------- growth

def _read_samples_csv(path: str) -> list[GrowthSample]:
    """The samples of a CSV: its r and area_lower columns, which are all
    the fit reads."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {name: i for i, name in enumerate(header)}
        if "r" not in index or "area_lower" not in index:
            raise ValueError("input CSV needs columns r and area_lower")
        pick = itemgetter(index["r"], index["area_lower"])
        samples = [GrowthSample(r=float(r), area_lower=float(lower))
                   for r, lower in map(pick, _csv_body(reader, len(header)))]
    if not samples:
        raise ValueError("input CSV has no sample rows")
    return samples


def _generate_samples(args: argparse.Namespace) -> list[GrowthSample]:
    family = GraphFamily.parse(args.family)
    radii = _parse_reals(args.r)
    if family is GraphFamily.EXP:
        if args.delta is not None:
            raise ValueError("delta applies only to the sin(e^(z^2)) family")
        # the fit and the witness read area_lower alone
        depth = 12 if args.max_depth is None else args.max_depth
        cfg = QuadConfig(mode=QuadMode.LOWER_BOUND, max_depth=depth)
        return [
            GrowthSample(
                r=r,
                area_lower=graph_area(SublevelDomain(family, r), cfg,
                                      allow_large_r=args.allow_large_r).lower,
                source=SampleSource.QUADRATURE,
            )
            for r in radii
        ]
    return [
        GrowthSample(
            r=r,
            area_lower=packet_growth_lower_bound(family, r, args.delta),
            source=SampleSource.PACKETS,
        )
        for r in radii
    ]


def _cmd_growth(args: argparse.Namespace) -> int:
    if args.input is not None:
        # the flags that generate samples are refused, not ignored
        for flag, value in (("--family", args.family), ("--r", args.r),
                            ("--delta", args.delta), ("--max-depth", args.max_depth),
                            ("--allow-large-r", args.allow_large_r or None)):
            if value is not None:
                raise ValueError(f"{flag} applies to generated samples, not to --input")
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
    _write_output(args.output, chain(_json_dump(payload), [b"\n"]))
    return 0


# ------------------------------------------------------------ schedule

_SCHEDULE_HEADER = "n,r_n,mu_n,a_n,b_n,eps_n,sigma_n,eta_n,hyp2_ok,sigma_feasible\n"


def _schedule_csv(schedule: Schedule) -> Iterator[bytes]:
    """The schedule CSV in blocks.  a_n, b_n and eps_n are the one a
    column, formatted once; sigma_n is an empty cell where the stage is
    infeasible."""
    r = schedule.r[:-1]

    def fields(block: slice) -> list:
        ok = schedule.sigma_feasible[block]
        r_n, mu, a, sigma, eta = _text.g17(np.stack([
            r[block], schedule.mu[block], schedule.a[block], schedule.sigma[block],
            schedule.eta[block]])).swapaxes(0, 1)
        sigma[:, ~ok] = 0
        return [_text.ints(schedule.n[block]), r_n, mu, a, a, a, sigma, eta,
                _text.flags(schedule.hyp2_ok[block]), _text.flags(ok)]

    return _csv_blocks(_SCHEDULE_HEADER, len(schedule.n), fields)


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.query_R is not None and args.format == "csv":
        raise ValueError("--query-R needs --format json: the CSV table has no N(R) column")
    queries = None if args.query_R is None else _parse_reals(args.query_R)
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
        "N_of_R": {fmt17(k): v for k, v in diag.N_of_R.items()},
        "area_lower_of_R": {fmt17(k): v for k, v in diag.area_lower_of_R.items()},
        "sigma_partial_sums": diag.sigma_partial_sums,
        "completeness_trend": trend,
    }
    _write_output(args.output, chain(_json_dump(payload), [b"\n"]))
    return 0


# ---------------------------------------------------------------- plot

# Bytes read per block of a plot --input file on the byte path; the
# picked fields of a block become floats before the next block is read.
_READ_BLOCK = 1 << 19


def _plot_picks(header: list[str]) -> list[int]:
    """Columns of a chart: r, area_lower and area_estimate if present for
    area CSVs, else the first two columns."""
    index = {name: i for i, name in enumerate(header)}
    if "r" in index and "area_lower" in index:
        return [index[name] for name in ("r", "area_lower", "area_estimate")
                if name in index]
    if len(header) >= 2:
        return [0, 1]
    raise ValueError("CSV needs at least two columns")


def _read_plot_columns(path: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y of a chart: r against area_estimate (area_lower where any
    estimate is blank) for area CSVs, else the first two columns.

    A plain file is read by _plain_plot_columns; every other file, and
    any plain file it declines, by csv.reader.  Both give the same
    values, or the same error."""
    columns = _plain_plot_columns(path)
    return _csv_plot_columns(path) if columns is None else columns


def _csv_plot_columns(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV input")
        picks = _plot_picks(header)
        # the picked fields, row after row: no tuple per row is kept
        cells = list(chain.from_iterable(
            map(itemgetter(*picks), _csv_body(reader, len(header)))))
    if not cells:
        raise ValueError("CSV has no data rows")
    k = len(picks)
    xs, ys = cells[0::k], cells[1::k]
    if k == 3 and all(text.strip() for text in cells[2::k]):
        ys = cells[2::k]
    return _floats(xs), _floats(ys)


def _floats(texts: list) -> np.ndarray:
    """float() of each str, as a float64 array."""
    return np.fromiter(map(float, texts), float, len(texts))


def _plain_bytes(path: str, limit: int) -> bool:
    """Whether every byte of the file is printable ASCII or "\n", none is
    '"', and no line is longer than limit bytes."""
    line = 0  # the bytes of the last line so far
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            buf = np.frombuffer(block, np.uint8)
            newlines = np.flatnonzero(buf == 10)
            if b'"' in block or buf.max() > 126 or np.count_nonzero(buf < 32) > newlines.size:
                return False
            if newlines.size:
                longest = max(line + int(newlines[0]), int(np.diff(newlines).max(initial=1)) - 1)
                line = buf.size - int(newlines[-1]) - 1
            else:
                longest = line = line + buf.size
            if longest > limit or line > limit:
                return False
    return True


def _any_blank(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether any field buf[lo:hi] is empty or spaces only."""
    filled = np.concatenate(([0], np.cumsum(buf != 32)))
    return bool(np.any(filled[hi] == filled[lo]))


def _plain_plot_columns(path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """_read_plot_columns of a plain file, or None where csv.reader must
    decide.

    In a plain file every byte is printable ASCII or "\n" and none is
    '"', and every line is at most csv.field_size_limit() bytes long; a
    first pass over the bytes alone declines any other file.  There a
    field is the text between commas and a row the text between
    newlines, exactly as csv.reader reads it, and _text.reals gives
    float() of each picked field.  The file is still declined when its
    header is blank, when a non-blank row is shorter than the header,
    when float() refuses a picked field, and when it has no data rows, as
    a header without its newline has."""
    if not _plain_bytes(path, csv.field_size_limit()):
        return None
    picks = width = estimate = None
    xs, lower = [], []
    rest = b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_READ_BLOCK)
            data = rest + block
            if not block:
                if not data:
                    break
                data += b"\n"  # a last line without its newline
            buf = np.frombuffer(data, np.uint8)
            seps = np.flatnonzero((buf == 44) | (buf == 10))  # the commas and newlines
            ends = np.flatnonzero(buf[seps] == 10)  # each line's newline among seps
            if not ends.size:
                rest = data
                continue
            rest = data[seps[ends[-1]] + 1:]
            first = np.concatenate(([0], ends[:-1] + 1))  # each line's first separator
            starts = np.concatenate(([0], seps[ends[:-1]] + 1))
            if picks is None:
                if seps[ends[0]] == 0:
                    return None  # a blank header
                header = data[:seps[ends[0]]].decode("ascii").split(",")
                picks, width = _plot_picks(header), len(header)
                estimate = [] if len(picks) == 3 else None
                first, starts, ends = first[1:], starts[1:], ends[1:]
            filled = seps[ends] > starts  # csv.reader skips blank lines
            first, starts, ends = first[filled], starts[filled], ends[filled]
            if not starts.size:
                continue
            if (ends - first).min() < width - 1:  # a row shorter than the header
                return None
            # field j of a line ends at its separator j, a comma or the newline
            fields = [(seps[first + j - 1] + 1 if j else starts, seps[first + j]) for j in picks]
            if estimate is not None and _any_blank(buf, *fields[2]):
                estimate = None  # a blank estimate: area_lower for every row
            # one call per column, so that each reads with its own window
            try:
                values = [_text.reals(buf, lo, hi)
                          for lo, hi in fields[:3 if estimate is not None else 2]]
            except ValueError:
                return None
            xs.append(values[0])
            lower.append(values[1])
            if estimate is not None:
                estimate.append(values[2])
    if not xs:
        return None
    ys = lower if estimate is None else estimate
    return np.concatenate(xs), np.concatenate(ys)


def _cmd_plot(args: argparse.Namespace) -> int:
    xs, ys = _read_plot_columns(args.input)
    svg = render_line_chart(xs, ys, args.mode, label=args.label)
    _write_output(args.output, [svg.encode()])
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
    p_growth.add_argument("--max-depth", type=int, default=None)
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


_parser: argparse.ArgumentParser | None = None  # built by the first call of main


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
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
    except (ValueError, OSError, KeyError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

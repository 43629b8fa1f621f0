"""Certified quadrature of graph area over implicit sublevel domains.

The area of the graph of f over the domain

    Omega_r = { z : |z|^2 + |f(z)|^2 <= r^2 }

equals the integral of 1 + |f'(z)|^2 over Omega_r.  Omega_r is the part
of the parameter plane whose graph points lie in the centered ball of
radius r, so this integral is exactly the graph area inside that ball.

The engine subdivides the seed box [-h, h]^2, h = r + seed_box_pad,
quadtree-style; an h above half the largest double is refused, so every
cell width is finite.  Each cell is classified with rigorous magnitude
enclosures: INSIDE and OUTSIDE are proved, and everything else is
refined until max_depth.  In LOWER_BOUND mode only proved-inside cells
contribute, each with the certified cell-wise lower bound of the
integrand, so the result is a true lower bound for the graph area.
ESTIMATE mode additionally samples the unresolved boundary cells on a
fixed centered subgrid, giving a convergent point estimate that still
never counts anything outside the proved-or-sampled region.

Only one fundamental region of the domain's mirror symmetry is
subdivided.  |f| and |f'| are even in Im z for every family, and in Re z
too for sin(e^(z^2)) (families.MIRROR_AXES), so Omega_r is symmetric
about those axes, and so is the seed box [-h, h]^2, which is split at
exactly 0.0.  The seed box itself is classified whole; of its children
only those with Im z >= 0 are kept, and also Re z >= 0 when both axes
apply.  Each kept cell stands for itself and its mirror images, so
everything summed over the kept cells carries the weight w = 2 (upper
half plane) or w = 4 (first quadrant): the inside terms, the cell
counts and the sampled boundary sum.  The inside terms are multiplied
by w before their correctly rounded sum, and multiplying by 2 or 4 is
exact, so every per-depth part and the lower bound equal the
whole-domain sums bit for bit whenever the enclosure
kernels return the same bits on mirrored cells (a sum past the double
range still ends at the largest double).  Soundness does not rest on
those bits: the magnitudes and Omega_r are exactly symmetric, so a sound
enclosure of a kept cell also encloses its mirror images.

A quadtree level is a (2, n) intp array of (column, row) cell
addresses plus two edge tables, (2, m) float arrays of the lo and hi
edges of each column and each row.  Every cell of one column has the
same x edges bit for bit, since each edge is the same midpoint of the
same parent edges, and likewise every cell of one row its y edges.  So
whatever depends on one coordinate is computed once per column or row
and gathered per cell: the kernel's column and row terms (the ranges
of x^2 and y^2, from which classification takes |z|^2; all of e^z's
enclosure; for sin(e^z), exp of the x edges and the sin and cos ranges
of Im z), the split's far-child distances, and the cell widths and
heights.  The boundary samples are the exception: their coordinates are
built from the gathered edges one chunk of cells at a time, so their
memory stays bounded by the chunk, not by the tables.  At a split,
column k splits into columns 2k and 2k+1 of a halved table at the
midpoint 0.5*(lo + hi) of its edges, the float midpoint of each of its
cells, so every edge keeps its bits.  A table with more entries
than there are cells to split is first cut down to the entries they
use, so a table holds at most two entries per cell split into its
level, and no address can wrap at any depth.

Classification runs the enclosure kernel's first stage (|f|) on every
cell and its second stage (|f'|, from the same e^u box) only on the
proved-inside cells, the only ones whose |f'| is summed.  It returns an
inside mask, an undecided mask (proved neither) and the log lower
bound of |f'| on the inside cells; each mask selects its cells with one
compress along the cell axis.  The undecided cells split into SW, SE,
NW, NE blocks, and a child wholly outside the disk |z|^2 <= r^2 is
dropped at the split: it lies outside Omega_r whatever f is, so it
could only be proved OUTSIDE and never counted.  Every undecided parent
keeps the child holding its nearest point, and the kept cells keep their
order, so dropping far children changes no count, sum or depth.

Cell traversal, subdivision and accumulation follow a fixed
deterministic order, so results are bit-identical from run to run
regardless of any ambient threading configuration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .families import (
    MIRROR_AXES,
    GraphFamily,
    _abs_z2_range,
    _column_terms,
    _enclose_f,
    _enclose_fprime,
    _nudge_down,
    _row_terms,
    log_abs_f_fprime_batch,
)

__all__ = [
    "QuadMode",
    "SublevelDomain",
    "QuadConfig",
    "AreaEstimate",
    "GuardedResourceError",
    "RadiusCapError",
    "RADIUS_CAPS",
    "graph_area",
    "ez_area_closed_bound",
]

# Hard per-family radius caps: the oscillatory families become
# intractably fine to certify beyond these radii, and e^z stays cheap
# far longer.  graph_area refuses larger radii unless explicitly
# overridden.
RADIUS_CAPS: dict[GraphFamily, float] = {
    GraphFamily.SIN_EXP: 8.0,
    GraphFamily.SIN_EXP_SQ: 3.0,
    GraphFamily.EXP: 64.0,
}


# Most cells one quadtree level may hold, 40 times the largest depth-14
# level of the benchmark's area jobs (about 1e5 cells).  e^z at r = 2 and
# max_depth 20, whose last level holds 2.8e6 cells, peaked at 238 MB of
# resident memory, about 75 bytes per cell above the 30 MB the imports
# take, so a full level stays near 0.35 GB.  Without the budget a large
# max_depth doubles the boundary level until memory runs out.
_CELL_BUDGET = 1 << 22

# Most sample points one packet (packets' DENSE_SAMPLING) or one boundary
# cell (ESTIMATE mode) may ask for, about 100 times the benchmark's 10001
# per packet and 4 per cell.  A count at the budget peaked at 177 MB of
# resident memory for `packets --method sampling` and at 111 MB for
# `area --mode estimate`; past it, a count would grow memory until the
# host kills the process.
_SAMPLE_BUDGET = 1 << 20


class GuardedResourceError(ValueError):
    """A request refused because it would pass a guarded resource limit."""


class RadiusCapError(GuardedResourceError):
    """Requested radius exceeds the family's guarded cap."""


class QuadMode(Enum):
    LOWER_BOUND = "LowerBound"
    ESTIMATE = "Estimate"


@dataclass(frozen=True)
class SublevelDomain:
    """Domain Omega_r for one family and one ball radius."""

    family: GraphFamily
    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"radius must be positive and finite, got {self.r}")


@dataclass(frozen=True)
class QuadConfig:
    mode: QuadMode = QuadMode.LOWER_BOUND
    max_depth: int = 12
    seed_box_pad: float = 0.5
    samples_per_cell: int = 4

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0 <= self.seed_box_pad < math.inf:
            raise ValueError(f"seed_box_pad must be finite and >= 0, not {self.seed_box_pad}")
        if self.samples_per_cell < 4:
            raise ValueError("samples_per_cell must be >= 4")


@dataclass(frozen=True)
class AreaEstimate:
    """Result of one quadrature run.

    lower is always a certified lower bound of the graph area; estimate
    is present in ESTIMATE mode only and is >= lower by construction.
    cells_inside and cells_boundary count cells of the whole domain,
    mirror images included, although only one fundamental region is
    subdivided.
    """

    lower: float
    estimate: float | None
    cells_inside: int
    cells_boundary: int
    depth_reached: int

    def __post_init__(self) -> None:
        if self.lower < 0 or self.cells_inside < 0 or self.cells_boundary < 0:
            raise ValueError("negative field in AreaEstimate")
        if self.estimate is not None and self.estimate < self.lower:
            raise ValueError("estimate below certified lower bound")


# Cells per kernel call.  The kernels are elementwise, so chunks give the
# same bits as one call, while their temporaries (up to about 40 arrays the
# size of the batch) stay small on the deepest levels.  Twelve area runs at
# the benchmark's radii and depths (2-vCPU host, numpy 2.4) took 314 ms at
# 8192 cells against 322 ms at 16384, peaked at 35.3 MB of resident memory
# against 36.9 MB, and made 21.6k minor page faults against 31.0k.
_KERNEL_CHUNK = 1 << 13


def _dist2(lo, hi):
    """Squared distance from 0 to each interval [lo, hi]."""
    d = np.maximum(0.0, np.maximum(lo, -hi))
    return d * d


def _decide(cols: dict, rows: dict, col, row, f_lo_log, f_hi_log, r2: float):
    """(inside, outside): the cells proved in, and proved out of,
    |z|^2 + |f(z)|^2 <= r2, from the log enclosure of |f| and the range
    of |z|^2 that the column and row terms give (_abs_z2_range)."""
    dmin2, dmax2 = _abs_z2_range(cols, rows, col, row)
    # exp(2*log) is exactly 0 at -inf and inf at +inf
    with np.errstate(over="ignore"):
        return (dmax2 + np.exp(2.0 * f_hi_log) <= r2,
                dmin2 + np.exp(2.0 * f_lo_log) > r2)


def _classify_batch(family: GraphFamily, r: float, xs: np.ndarray, ys: np.ndarray,
                    cells: np.ndarray):
    """Classify the cells of one level against |z|^2 + |f(z)|^2 <= r^2.

    xs and ys are the level's column and row tables, (2, m) arrays of lo
    and hi edges, and cells is the (2, n) array of (column, row)
    addresses.  The kernel's column and row terms, which hold the ranges
    of x^2 and y^2 too, are computed once per column and row, then
    gathered per cell.
    The kernel's first stage (|f|) runs on contiguous slices of
    _KERNEL_CHUNK cells, its second (|f'|) only on the inside cells of
    each slice.  Returns the inside mask, the undecided mask (neither
    proved inside nor proved outside, trivial enclosures among them) and
    the log lower bound of |f'| on each inside cell, in cell order.
    """
    r2 = r * r
    cols = _column_terms(family, *xs)
    rows = _row_terms(family, *ys)
    n = cells.shape[1]
    inside = np.empty(n, dtype=bool)
    undecided = np.empty(n, dtype=bool)
    fp_lo_log = []
    for start in range(0, n, _KERNEL_CHUNK):
        c = slice(start, start + _KERNEL_CHUNK)
        col, row = cells[:, c]
        f_lo_log, f_hi_log, box = _enclose_f(family, cols, rows, col, row)
        ins, out = _decide(cols, rows, col, row, f_lo_log, f_hi_log, r2)
        inside[c] = ins
        undecided[c] = ~(ins | out)
        sel = np.flatnonzero(ins)
        fp_lo_log.append(_enclose_fprime(family, cols, rows, col, row, box, sel)[0])
    return inside, undecided, np.concatenate(fp_lo_log) if fp_lo_log else np.empty(0)


def _compact(table: np.ndarray, index: np.ndarray):
    """The entries of a (2, m) table that index uses, in order, and index
    renumbered into them."""
    used = np.zeros(table.shape[1], dtype=bool)
    used[index] = True
    rank = np.cumsum(used) - 1
    return np.compress(used, table, axis=1), rank.take(index)


def _split4(xs: np.ndarray, ys: np.ndarray, cells: np.ndarray, r2: float):
    """(xs, ys, cells) of the next level: the children of each cell that
    meet the disk |z|^2 <= r2.

    A table with more entries than there are cells first keeps only the
    entries the cells use (_compact).  Then column k, from lo to hi,
    splits into columns 2k (lo to mid) and 2k+1 (mid to hi) with
    mid = 0.5*(lo + hi), the bits of a midpoint of the cells' edges; rows
    likewise.  So the children of cell (c, r) are (2c + i, 2r + j), and a
    new table holds at most two entries per cell split: every address
    stays below that, at any depth.  The children are laid out in SW, SE,
    NW, NE blocks, each in parent order.  A child whose nearest point to
    the origin lies beyond the disk is dropped before it is written: it
    is outside Omega_r without an enclosure, so it would never be
    counted.  A parent that meets the disk keeps the child holding its
    nearest point, whose distances dx and dy equal the parent's exactly.
    """
    col, row = cells
    if xs.shape[1] > col.size:
        xs, col = _compact(xs, col)
    if ys.shape[1] > row.size:
        ys, row = _compact(ys, row)
    xs, ys = _halves(xs), _halves(ys)
    col, row = 2 * col, 2 * row  # the west and south children's addresses
    with np.errstate(over="ignore"):
        dx2 = _dist2(*xs)
        dy2 = _dist2(*ys)
        dx2 = dx2.take(col), dx2[1:].take(col)  # west, east
        dy2 = dy2.take(row), dy2[1:].take(row)  # south, north
        near = [(i, j, ~(dx2[i] + dy2[j] > r2)) for j in (0, 1) for i in (0, 1)]
    counts = [int(np.count_nonzero(keep)) for _, _, keep in near]
    kids = np.empty((2, sum(counts)), dtype=np.intp)
    start = 0
    for (i, j, keep), count in zip(near, counts):
        stop = start + count
        np.compress(keep, col, out=kids[0, start:stop])
        np.compress(keep, row, out=kids[1, start:stop])
        kids[0, start:stop] += i
        kids[1, start:stop] += j
        start = stop
    return xs, ys, kids


def _halves(table: np.ndarray) -> np.ndarray:
    """The (2, 2m) table of the halves of the intervals of a (2, m) lo/hi
    table: entry 2k runs from lo to mid and 2k+1 from mid to hi, with
    mid = 0.5*(lo + hi) of entry k."""
    lo, hi = table
    halves = np.empty((2, 2 * lo.size))
    halves[0, 0::2] = lo
    halves[1, 1::2] = hi
    halves[0, 1::2] = halves[1, 0::2] = 0.5 * (lo + hi)
    return halves


def _inside_lower_sum(fp_lo_log, widths, heights, weight: int) -> float:
    """Certified sum of (1 + |f'|^2) over proved-inside cells, given the
    log lower bound of |f'| and the width and height of each, with each
    cell counted weight times.

    The weight scales each term before the sum: that is exact, and fsum
    is correctly rounded, so the result is the sum over all weight
    copies of the cells.  A term past half the double range becomes inf
    and the sum the largest double, as the copies' sum would.
    """
    # A downward widening moves a value by at least 3.5*2^-52 of itself after
    # its own rounding: more than the error of exp (1 ulp on numpy's
    # validation set) or of the five roundings in a term (2.5*2^-52).
    with np.errstate(over="ignore"):
        fp_lo2 = np.maximum(_nudge_down(np.exp(2.0 * fp_lo_log)), 0.0)
        terms = _nudge_down(widths * heights * (1.0 + fp_lo2))
        return _sum_down(memoryview(weight * terms))


def _sum_down(terms) -> float:
    """Lower bound of the exact sum of nonnegative terms.

    fsum is correctly rounded, so one step toward -inf lands at or below
    the exact sum; a sum beyond the double range rounds down to the
    largest double.  Pass a float64 array as a memoryview: fsum then reads
    plain floats instead of making a numpy scalar per term, and returns
    the same sum.
    """
    try:
        total = math.fsum(terms)
    except OverflowError:
        return sys.float_info.max
    return max(0.0, math.nextafter(total, -math.inf))


def _boundary_estimate_sum(family: GraphFamily, r: float, cfg: QuadConfig,
                           xs: np.ndarray, ys: np.ndarray, cells: np.ndarray) -> float:
    """Midgrid-sampled contribution of unresolved boundary cells, given as
    (column, row) addresses into the lo/hi tables xs and ys.  The edges
    of each cell, and from them its k*k sample coordinates, are gathered
    one chunk of cells at a time, so memory stays bounded by the chunk
    whatever the size of the tables."""
    k = max(2, int(math.isqrt(cfg.samples_per_cell)))
    frac = (np.arange(k) + 0.5) / k
    fx, fy = np.meshgrid(frac, frac, indexing="ij")
    fx = fx.ravel()[None, :]
    fy = fy.ravel()[None, :]
    widths = xs[1] - xs[0]
    heights = ys[1] - ys[0]
    col, row = cells
    cell_mean = np.empty(col.size)
    step = max(1, _KERNEL_CHUNK // (k * k))
    for start in range(0, col.size, step):
        c = slice(start, start + step)
        px = xs[0].take(col[c])[:, None] + widths.take(col[c])[:, None] * fx
        py = ys[0].take(row[c])[:, None] + heights.take(row[c])[:, None] * fy
        log_f, log_fp = log_abs_f_fprime_batch(family, px, py)
        with np.errstate(over="ignore"):
            f2 = np.exp(2.0 * log_f)
            fp2 = np.exp(2.0 * log_fp)
            # pointwise membership |z|^2 + |f|^2 <= r^2
            member = px * px + py * py + f2 <= r * r
            cell_mean[c] = np.where(member, 1.0 + fp2, 0.0).mean(axis=1)
    # a cell with no member sample adds 0, even when its area overflows
    with np.errstate(over="ignore", invalid="ignore"):
        areas = widths.take(col) * heights.take(row)
        return float(np.sum(np.where(cell_mean == 0.0, 0.0, areas * cell_mean)))


def graph_area(domain: SublevelDomain, cfg: QuadConfig | None = None,
               allow_large_r: bool = False) -> AreaEstimate:
    """Compute certified (and optionally estimated) graph area in B_r.

    Raises RadiusCapError when domain.r exceeds the family cap and
    allow_large_r is not set, and GuardedResourceError before a split
    whose level would hold more than _CELL_BUDGET cells, or at once when
    ESTIMATE mode asks for more than _SAMPLE_BUDGET samples per cell.
    Raises ValueError when r + seed_box_pad passes half the largest double.
    """
    cfg = cfg or QuadConfig()
    cap = RADIUS_CAPS[domain.family]
    if domain.r > cap and not allow_large_r:
        raise RadiusCapError(
            f"r={domain.r} exceeds the {domain.family.value} cap {cap}; "
            "pass allow_large_r to override"
        )
    if cfg.mode is QuadMode.ESTIMATE and cfg.samples_per_cell > _SAMPLE_BUDGET:
        raise GuardedResourceError(
            f"{cfg.samples_per_cell} samples per cell, over the budget of "
            f"{_SAMPLE_BUDGET}; lower samples_per_cell"
        )
    half = domain.r + cfg.seed_box_pad
    if half > sys.float_info.max / 2:
        raise ValueError(f"seed box half-width r + pad = {half} is over half "
                         "the largest double")
    xs = ys = np.array([[-half], [half]])
    cells = np.zeros((2, 1), dtype=np.intp)
    r2 = domain.r * domain.r

    lower_parts: list[float] = []
    cells_inside = 0
    depth_reached = 0
    weight = 1  # copies of each cell in the whole domain; see the module docstring

    for depth in range(cfg.max_depth + 1):
        if cells.shape[1] == 0:
            break
        depth_reached = depth
        ins, und, fp_lo_log = _classify_batch(domain.family, domain.r, xs, ys, cells)
        cells_inside += weight * fp_lo_log.size
        col, row = np.compress(ins, cells, axis=1)
        lower_parts.append(_inside_lower_sum(fp_lo_log, (xs[1] - xs[0]).take(col),
                                             (ys[1] - ys[0]).take(row), weight))
        cells = np.compress(und, cells, axis=1)
        if depth == cfg.max_depth:
            break
        children = 4 * cells.shape[1]
        if children > _CELL_BUDGET:
            raise GuardedResourceError(
                f"depth {depth + 1} would hold {children} cells, over the "
                f"budget of {_CELL_BUDGET}; lower max_depth"
            )
        xs, ys, cells = _split4(xs, ys, cells, r2)
        if depth == 0:
            axes = MIRROR_AXES[domain.family]
            lows = {"re": xs[0].take(cells[0]), "im": ys[0].take(cells[1])}
            keep = np.logical_and.reduce([lows[axis] >= 0.0 for axis in axes])
            cells = np.compress(keep, cells, axis=1)
            weight = 2 ** len(axes)

    lower = _sum_down(lower_parts)
    # the undecided cells of the last level (none if a level emptied)
    cells_boundary = weight * cells.shape[1]

    estimate = None
    if cfg.mode is QuadMode.ESTIMATE:
        estimate = lower + weight * _boundary_estimate_sum(
            domain.family, domain.r, cfg, xs, ys, cells
        )
    return AreaEstimate(
        lower=lower,
        estimate=estimate,
        cells_inside=cells_inside,
        cells_boundary=cells_boundary,
        depth_reached=depth_reached,
    )


def ez_area_closed_bound(R: float) -> float:
    """Closed-form comparison value R*log(R) + 3R^2 - R*e^(-2R).

    This is the box-integral value obtained from enclosing the e^z
    sublevel domain in the strip |Im z| <= R, -R <= Re z <= (log R)/2.
    Defined for R >= 2.  See the acceptance notes: the enclosure it
    encodes is tighter than the true domain for R > 2, so measured
    areas overtake this curve; it is kept as the stated reference.
    """
    if not (math.isfinite(R) and R >= 2.0):
        raise ValueError(f"closed bound defined for R >= 2, got {R}")
    return R * math.log(R) + 3.0 * R * R - R * math.exp(-2.0 * R)

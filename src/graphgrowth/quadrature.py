"""Certified quadrature of graph area over implicit sublevel domains.

The area of the graph of f over the domain

    Omega_r = { z : |z|^2 + |f(z)|^2 <= r^2 }

equals the integral of 1 + |f'(z)|^2 over Omega_r.  Omega_r is the part
of the parameter plane whose graph points lie in the centered ball of
radius r, so this integral is exactly the graph area inside that ball.

The engine subdivides a seed box quadtree-style.  Each cell is classified
with rigorous magnitude enclosures: INSIDE and OUTSIDE are proved, and
everything else is refined until max_depth.  In LOWER_BOUND mode only
proved-inside cells contribute, each with the certified cell-wise lower
bound of the integrand, so the result is a true lower bound for the
graph area.  ESTIMATE mode additionally samples the unresolved boundary
cells on a fixed centered subgrid, giving a convergent point estimate
that still never counts anything outside the proved-or-sampled region.

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
    GraphFamily,
    RectBounds,
    _nudge_down,
    bound_abs_f_batch,
    bound_abs_fprime_batch,
    log_abs_f_batch,
    log_abs_fprime_batch,
)

__all__ = [
    "CellClass",
    "QuadMode",
    "SublevelDomain",
    "QuadConfig",
    "AreaEstimate",
    "RadiusCapError",
    "RADIUS_CAPS",
    "classify_cell",
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


class RadiusCapError(ValueError):
    """Requested radius exceeds the family's guarded cap."""


class CellClass(Enum):
    INSIDE = "Inside"
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"
    UNKNOWN = "Unknown"


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
    tol_rel: float = 1e-3
    seed_box_pad: float = 0.5
    samples_per_cell: int = 4

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (self.tol_rel > 0):
            raise ValueError("tol_rel must be > 0")
        if self.seed_box_pad < 0:
            raise ValueError("seed_box_pad must be >= 0")
        if self.samples_per_cell < 4:
            raise ValueError("samples_per_cell must be >= 4")


@dataclass(frozen=True)
class AreaEstimate:
    """Result of one quadrature run.

    lower is always a certified lower bound of the graph area; estimate
    is present in ESTIMATE mode only and is >= lower by construction.
    depth_exceeded flags that the unresolved boundary area still exceeds
    tol_rel relative to the result when max_depth was reached (a warning,
    not a failure).
    """

    lower: float
    estimate: float | None
    cells_inside: int
    cells_boundary: int
    depth_reached: int
    depth_exceeded: bool

    def __post_init__(self) -> None:
        if self.lower < 0 or self.cells_inside < 0 or self.cells_boundary < 0:
            raise ValueError("negative field in AreaEstimate")
        if self.estimate is not None and self.estimate < self.lower:
            raise ValueError("estimate below certified lower bound")


_INSIDE, _OUTSIDE, _BOUNDARY, _UNKNOWN = 0, 1, 2, 3


def _classify_batch(family: GraphFamily, r: float, xlo, xhi, ylo, yhi) -> np.ndarray:
    """Classify cells against |z|^2 + |f(z)|^2 <= r^2, vectorized."""
    r2 = r * r
    dx = np.maximum(0.0, np.maximum(xlo, -xhi))
    dy = np.maximum(0.0, np.maximum(ylo, -yhi))
    dmin2 = dx * dx + dy * dy
    dmax2 = np.maximum(xlo * xlo, xhi * xhi) + np.maximum(ylo * ylo, yhi * yhi)

    out = np.full(xlo.shape, _BOUNDARY, dtype=np.int8)
    far = dmin2 > r2
    out[far] = _OUTSIDE

    near = np.flatnonzero(~far)
    if near.size:
        f_lo_log, f_hi_log = bound_abs_f_batch(
            family, xlo[near], xhi[near], ylo[near], yhi[near]
        )
        with np.errstate(over="ignore"):
            f_lo2 = np.where(np.isneginf(f_lo_log), 0.0, np.exp(2.0 * f_lo_log))
            f_hi2 = np.where(np.isposinf(f_hi_log), np.inf, np.exp(2.0 * f_hi_log))
        inside = dmax2[near] + f_hi2 <= r2
        outside = dmin2[near] + f_lo2 > r2
        trivial = np.isneginf(f_lo_log) & np.isposinf(f_hi_log)
        sub = np.full(near.shape, _BOUNDARY, dtype=np.int8)
        sub[trivial] = _UNKNOWN
        sub[outside] = _OUTSIDE
        sub[inside] = _INSIDE
        out[near] = sub
    return out


def classify_cell(domain: SublevelDomain, cell: RectBounds) -> CellClass:
    """Classify one rectangle against the sublevel domain.

    INSIDE and OUTSIDE are certified by interval enclosures; BOUNDARY
    means the enclosure straddles the threshold, UNKNOWN that the
    enclosure was trivial (magnitudes beyond the representable range).
    """
    code = _classify_batch(
        domain.family,
        domain.r,
        np.array([cell.re_lo]),
        np.array([cell.re_hi]),
        np.array([cell.im_lo]),
        np.array([cell.im_hi]),
    )[0]
    return (CellClass.INSIDE, CellClass.OUTSIDE, CellClass.BOUNDARY, CellClass.UNKNOWN)[code]


def _split4(xlo, xhi, ylo, yhi):
    """Children of each cell in fixed SW, SE, NW, NE order."""
    xm = 0.5 * (xlo + xhi)
    ym = 0.5 * (ylo + yhi)
    cx_lo = np.concatenate([xlo, xm, xlo, xm])
    cx_hi = np.concatenate([xm, xhi, xm, xhi])
    cy_lo = np.concatenate([ylo, ylo, ym, ym])
    cy_hi = np.concatenate([ym, ym, yhi, yhi])
    return cx_lo, cx_hi, cy_lo, cy_hi


def _inside_lower_sum(family: GraphFamily, xlo, xhi, ylo, yhi) -> float:
    """Certified sum of (1 + |f'|^2) over proved-inside cells."""
    if xlo.size == 0:
        return 0.0
    fp_lo_log, _ = bound_abs_fprime_batch(family, xlo, xhi, ylo, yhi)
    # A downward widening moves a value by at least 3.5*2^-52 of itself after
    # its own rounding: more than the error of exp (1 ulp on numpy's
    # validation set) or of the five roundings in a term (2.5*2^-52).
    with np.errstate(over="ignore"):
        fp_lo2 = np.maximum(_nudge_down(np.exp(2.0 * fp_lo_log)), 0.0)
    terms = _nudge_down((xhi - xlo) * (yhi - ylo) * (1.0 + fp_lo2))
    return _sum_down(terms)


def _sum_down(terms) -> float:
    """Lower bound of the exact sum of nonnegative terms.

    fsum is correctly rounded, so one step toward -inf lands at or below
    the exact sum; a sum beyond the double range rounds down to the
    largest double.
    """
    try:
        total = math.fsum(terms)
    except OverflowError:
        return sys.float_info.max
    return max(0.0, math.nextafter(total, -math.inf))


def _membership(family: GraphFamily, r: float, zre, zim) -> np.ndarray:
    """Pointwise membership |z|^2 + |f|^2 <= r^2 (exact evaluation)."""
    log_f = log_abs_f_batch(family, zre, zim)
    with np.errstate(over="ignore"):
        f2 = np.where(np.isneginf(log_f), 0.0, np.exp(2.0 * log_f))
    return zre * zre + zim * zim + f2 <= r * r


def _boundary_estimate_sum(family: GraphFamily, r: float, cfg: QuadConfig,
                           xlo, xhi, ylo, yhi) -> float:
    """Midgrid-sampled contribution of unresolved boundary cells."""
    if xlo.size == 0:
        return 0.0
    k = max(2, int(math.isqrt(cfg.samples_per_cell)))
    frac = (np.arange(k) + 0.5) / k
    fx, fy = np.meshgrid(frac, frac, indexing="ij")
    fx = fx.ravel()[None, :]
    fy = fy.ravel()[None, :]
    px = xlo[:, None] + (xhi - xlo)[:, None] * fx
    py = ylo[:, None] + (yhi - ylo)[:, None] * fy
    member = _membership(family, r, px, py)
    log_fp = log_abs_fprime_batch(family, px, py)
    with np.errstate(over="ignore"):
        fp2 = np.where(np.isneginf(log_fp), 0.0, np.exp(2.0 * log_fp))
    integrand = np.where(member, 1.0 + fp2, 0.0)
    cell_mean = integrand.mean(axis=1)
    areas = (xhi - xlo) * (yhi - ylo)
    return float(np.sum(areas * cell_mean))


def graph_area(domain: SublevelDomain, cfg: QuadConfig | None = None,
               allow_large_r: bool = False) -> AreaEstimate:
    """Compute certified (and optionally estimated) graph area in B_r.

    Raises RadiusCapError when domain.r exceeds the family cap and
    allow_large_r is not set.
    """
    cfg = cfg or QuadConfig()
    cap = RADIUS_CAPS[domain.family]
    if domain.r > cap and not allow_large_r:
        raise RadiusCapError(
            f"r={domain.r} exceeds the {domain.family.value} cap {cap}; "
            "pass allow_large_r to override"
        )
    half = domain.r + cfg.seed_box_pad
    xlo = np.array([-half])
    xhi = np.array([half])
    ylo = np.array([-half])
    yhi = np.array([half])

    lower_parts: list[float] = []
    cells_inside = 0
    depth_reached = 0
    final_b = (np.empty(0),) * 4

    for depth in range(cfg.max_depth + 1):
        if xlo.size == 0:
            break
        depth_reached = depth
        codes = _classify_batch(domain.family, domain.r, xlo, xhi, ylo, yhi)
        ins = codes == _INSIDE
        und = (codes == _BOUNDARY) | (codes == _UNKNOWN)
        cells_inside += int(np.count_nonzero(ins))
        lower_parts.append(
            _inside_lower_sum(domain.family, xlo[ins], xhi[ins], ylo[ins], yhi[ins])
        )
        if depth == cfg.max_depth:
            final_b = (xlo[und], xhi[und], ylo[und], yhi[und])
            break
        xlo, xhi, ylo, yhi = _split4(xlo[und], xhi[und], ylo[und], yhi[und])

    lower = _sum_down(lower_parts)
    bx_lo, bx_hi, by_lo, by_hi = final_b
    cells_boundary = int(bx_lo.size)
    leftover_area = float(np.sum((bx_hi - bx_lo) * (by_hi - by_lo))) if cells_boundary else 0.0
    depth_exceeded = leftover_area > cfg.tol_rel * max(lower, 1e-12)

    estimate = None
    if cfg.mode is QuadMode.ESTIMATE:
        estimate = lower + _boundary_estimate_sum(
            domain.family, domain.r, cfg, bx_lo, bx_hi, by_lo, by_hi
        )
    return AreaEstimate(
        lower=lower,
        estimate=estimate,
        cells_inside=cells_inside,
        cells_boundary=cells_boundary,
        depth_reached=depth_reached,
        depth_exceeded=depth_exceeded,
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

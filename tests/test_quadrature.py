"""Certified quadtree quadrature of the sublevel-domain area integral.

Frozen values below were produced by this library at the stated configs
and double-checked against Monte-Carlo estimates; they pin determinism
and guard against silent regressions of the certified path.
"""

import math

import numpy as np
import pytest

from graphgrowth import (
    AreaEstimate,
    CellClass,
    GraphFamily,
    QuadConfig,
    QuadMode,
    RadiusCapError,
    RectBounds,
    SublevelDomain,
    classify_cell,
    ez_area_closed_bound,
    graph_area,
)
from graphgrowth.families import log_abs_f_fprime_batch
from graphgrowth.quadrature import (
    _BOUNDARY,
    _INSIDE,
    _UNKNOWN,
    RADIUS_CAPS,
    _boundary_estimate_sum,
    _classify_batch,
    _inside_lower_sum,
    _split4,
    _sum_down,
)


def lower_cfg(depth=10, **kw):
    return QuadConfig(mode=QuadMode.LOWER_BOUND, max_depth=depth, **kw)


def estimate_cfg(depth=10, **kw):
    return QuadConfig(mode=QuadMode.ESTIMATE, max_depth=depth, **kw)


# ---------------------------------------------------------------------------
# cell classification
# ---------------------------------------------------------------------------

def test_classify_small_cell_inside():
    dom = SublevelDomain(GraphFamily.SIN_EXP, 3.0)
    cell = RectBounds(0.0, 0.1, 0.0, 0.1)
    assert classify_cell(dom, cell) is CellClass.INSIDE


@pytest.mark.parametrize("family", list(GraphFamily))
def test_classify_far_cell_outside(family):
    dom = SublevelDomain(family, 1.0)
    cell = RectBounds(5.0, 6.0, 0.0, 1.0)  # |z|^2 >= 25 > 1
    assert classify_cell(dom, cell) is CellClass.OUTSIDE


def test_classify_straddling_cell_boundary():
    # x^2 + y^2 + e^{2x} = 4 crosses x ~ 0.64 on the real axis
    dom = SublevelDomain(GraphFamily.EXP, 2.0)
    cell = RectBounds(0.5, 0.8, -0.1, 0.1)
    assert classify_cell(dom, cell) is CellClass.BOUNDARY


def test_classify_overflow_cell_unknown():
    # enclosure is trivial there, so no membership claim is possible
    dom = SublevelDomain(GraphFamily.SIN_EXP, 8.0)
    cell = RectBounds(720.0, 721.0, 0.0, 1.0)
    assert classify_cell(dom, cell) in (CellClass.OUTSIDE, CellClass.UNKNOWN)


# ---------------------------------------------------------------------------
# graph_area: frozen desk-scale values
# ---------------------------------------------------------------------------

def test_exp_r2_estimate_below_closed_bound():
    res = graph_area(SublevelDomain(GraphFamily.EXP, 2.0), estimate_cfg())
    assert res.estimate <= 13.35
    assert res.lower == 11.058114197050362
    assert res.estimate == 11.125758485740805
    assert res.cells_inside == 2614
    assert res.cells_boundary == 2768
    assert res.depth_reached == 10


def test_sin_exp_lower_contains_first_packet():
    # r = 3.2 >= log(pi) + 2, so packet D_1 lies inside
    res = graph_area(SublevelDomain(GraphFamily.SIN_EXP, 3.2), lower_cfg())
    assert res.lower >= math.pi / 4096
    assert res.lower == 77.707330813720219


def test_frozen_lower_values():
    got = graph_area(SublevelDomain(GraphFamily.SIN_EXP, 1.5), lower_cfg()).lower
    assert got == 7.4301355111692802
    got = graph_area(SublevelDomain(GraphFamily.SIN_EXP_SQ, 1.8), lower_cfg()).lower
    assert got == 30.624308207515917


def test_tiny_radius_empty_domain():
    # |f(0)| is order 1 for every family, so small balls miss the graph
    res = graph_area(SublevelDomain(GraphFamily.EXP, 1e-3), estimate_cfg(depth=6))
    assert res.lower == 0.0
    assert res.estimate == 0.0
    assert res.cells_inside == 0


# ---------------------------------------------------------------------------
# soundness against Monte Carlo: lower <= estimate <= MC + 5 sigma
# ---------------------------------------------------------------------------

MC_CONFIGS = [
    (GraphFamily.SIN_EXP, 1.1), (GraphFamily.SIN_EXP, 1.7),
    (GraphFamily.SIN_EXP, 2.3), (GraphFamily.SIN_EXP, 2.9),
    (GraphFamily.SIN_EXP, 3.4), (GraphFamily.SIN_EXP, 4.1),
    (GraphFamily.SIN_EXP, 4.6),
    (GraphFamily.SIN_EXP_SQ, 1.2), (GraphFamily.SIN_EXP_SQ, 1.5),
    (GraphFamily.SIN_EXP_SQ, 1.9), (GraphFamily.SIN_EXP_SQ, 2.2),
    (GraphFamily.SIN_EXP_SQ, 2.5), (GraphFamily.SIN_EXP_SQ, 2.8),
    (GraphFamily.EXP, 1.3), (GraphFamily.EXP, 2.0),
    (GraphFamily.EXP, 3.1), (GraphFamily.EXP, 4.2),
    (GraphFamily.EXP, 5.5), (GraphFamily.EXP, 6.8),
    (GraphFamily.EXP, 8.0),
]


@pytest.mark.parametrize("family,r", MC_CONFIGS)
def test_soundness_vs_monte_carlo(family, r):
    res = graph_area(SublevelDomain(family, r), estimate_cfg(depth=9))
    assert res.lower <= res.estimate

    rng = np.random.default_rng(hash((family.value, r)) % 2**32)
    n = 1_000_000
    half = r + 0.5
    xs = rng.uniform(-half, half, size=n)
    ys = rng.uniform(-half, half, size=n)
    member = xs * xs + ys * ys <= r * r
    log_f, log_fp = log_abs_f_fprime_batch(family, xs[member], ys[member])
    inside = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore"):
        f2 = np.exp(2.0 * np.minimum(log_f, 400.0))
    inside_member = xs[member] ** 2 + ys[member] ** 2 + f2 <= r * r
    inside[member] = inside_member
    vals = np.zeros(n)
    vals[inside] = 1.0 + np.exp(2.0 * np.minimum(log_fp[inside_member], 400.0))
    box_area = (2 * half) ** 2
    mc = vals.mean() * box_area
    sigma = vals.std(ddof=1) / math.sqrt(n) * box_area
    assert res.estimate <= mc + 5 * sigma, (res.estimate, mc, sigma)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

RADII_CHAINS = [
    (GraphFamily.SIN_EXP, (1.5, 2.0, 3.0)),
    (GraphFamily.SIN_EXP_SQ, (1.2, 1.8, 2.5)),
    (GraphFamily.EXP, (2.0, 3.0, 4.0)),
]


@pytest.mark.parametrize("family,radii", RADII_CHAINS)
def test_lower_monotone_in_r(family, radii):
    lows = [graph_area(SublevelDomain(family, r), lower_cfg()).lower for r in radii]
    assert lows == sorted(lows)
    assert lows[0] < lows[-1]


@pytest.mark.parametrize("family,r", [
    (GraphFamily.SIN_EXP, 2.0),
    (GraphFamily.SIN_EXP_SQ, 1.8),
    (GraphFamily.EXP, 3.0),
])
def test_lower_monotone_in_depth(family, r):
    lows = [graph_area(SublevelDomain(family, r), lower_cfg(depth=d)).lower
            for d in (6, 8, 10, 12)]
    for a, b in zip(lows, lows[1:]):
        assert a <= b


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_graph_area_deterministic():
    dom = SublevelDomain(GraphFamily.SIN_EXP, 2.7)
    cfg = estimate_cfg(depth=9)
    a = graph_area(dom, cfg)
    b = graph_area(dom, cfg)
    assert a == b  # dataclass equality is fieldwise and bit-exact on floats


# ---------------------------------------------------------------------------
# one fundamental region of the mirror symmetry against the whole seed box
# ---------------------------------------------------------------------------

def _whole_box_area(domain, cfg):
    """Reference: the quadtree over the whole seed box, every cell
    classified and summed once, as graph_area ran before it kept one
    fundamental region of the mirror symmetry."""
    half = domain.r + cfg.seed_box_pad
    xlo, xhi, ylo, yhi = (np.array([v]) for v in (-half, half, -half, half))
    parts = []
    cells_inside = depth_reached = 0
    final_b = (np.empty(0),) * 4
    for depth in range(cfg.max_depth + 1):
        if xlo.size == 0:
            break
        depth_reached = depth
        codes, fp_lo_log = _classify_batch(domain.family, domain.r, xlo, xhi, ylo, yhi)
        ins = codes == _INSIDE
        und = (codes == _BOUNDARY) | (codes == _UNKNOWN)
        cells_inside += int(np.count_nonzero(ins))
        parts.append(_inside_lower_sum(fp_lo_log[ins], xlo[ins], xhi[ins], ylo[ins], yhi[ins], 1))
        if depth == cfg.max_depth:
            final_b = (xlo[und], xhi[und], ylo[und], yhi[und])
            break
        xlo, xhi, ylo, yhi = _split4(xlo[und], xhi[und], ylo[und], yhi[und])
    lower = _sum_down(parts)
    bx_lo, bx_hi, by_lo, by_hi = final_b
    leftover_area = float(np.sum((bx_hi - bx_lo) * (by_hi - by_lo)))
    estimate = None
    if cfg.mode is QuadMode.ESTIMATE:
        estimate = lower + _boundary_estimate_sum(domain.family, domain.r, cfg, *final_b)
    return AreaEstimate(
        lower=lower,
        estimate=estimate,
        cells_inside=cells_inside,
        cells_boundary=int(bx_lo.size),
        depth_reached=depth_reached,
        depth_exceeded=leftover_area > cfg.tol_rel * max(lower, 1e-12),
    )


@pytest.mark.parametrize("mode", list(QuadMode))
@pytest.mark.parametrize("family,r,extra", [
    (GraphFamily.EXP, 2.0, {}),
    (GraphFamily.EXP, 16.0, {"seed_box_pad": 0.0}),
    (GraphFamily.SIN_EXP, 2.7, {"samples_per_cell": 9}),
    (GraphFamily.SIN_EXP, 4.6, {}),
    (GraphFamily.SIN_EXP_SQ, 1.8, {"seed_box_pad": 0.0, "samples_per_cell": 9}),
    (GraphFamily.SIN_EXP_SQ, 2.8, {}),
])
def test_fundamental_region_matches_whole_box(family, r, extra, mode):
    # the certified outputs are bit-identical to the whole-box quadtree;
    # the sampled boundary sum is summed pairwise over another set of
    # cells, so the estimate may move in its last bits
    domain = SublevelDomain(family, r)
    cfg = QuadConfig(mode=mode, max_depth=11, **extra)
    got = graph_area(domain, cfg)
    ref = _whole_box_area(domain, cfg)
    assert got.lower == ref.lower
    assert got.cells_inside == ref.cells_inside
    assert got.cells_boundary == ref.cells_boundary
    assert got.depth_reached == ref.depth_reached
    assert got.depth_exceeded == ref.depth_exceeded
    if mode is QuadMode.ESTIMATE:
        assert got.estimate == pytest.approx(ref.estimate, rel=1e-12, abs=0.0)
    else:
        assert got.estimate is None and ref.estimate is None


# ---------------------------------------------------------------------------
# radius caps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,r", [
    (GraphFamily.SIN_EXP, 4.2),
    (GraphFamily.SIN_EXP_SQ, 2.3),
    (GraphFamily.EXP, 8.0),
])
def test_kernel_chunks_do_not_change_results(family, r, monkeypatch):
    # classification and boundary sampling call the kernels in chunks; a
    # chunk far smaller than every level must give the same bits as one call
    from graphgrowth import quadrature
    domain = SublevelDomain(family, r)
    whole = graph_area(domain, estimate_cfg(depth=7))
    monkeypatch.setattr(quadrature, "_KERNEL_CHUNK", 37)
    assert graph_area(domain, estimate_cfg(depth=7)) == whole


def test_radius_caps_values():
    assert RADIUS_CAPS[GraphFamily.SIN_EXP] == 8.0
    assert RADIUS_CAPS[GraphFamily.SIN_EXP_SQ] == 3.0
    assert RADIUS_CAPS[GraphFamily.EXP] == 64.0


def test_cap_violation_raises():
    with pytest.raises(RadiusCapError):
        graph_area(SublevelDomain(GraphFamily.SIN_EXP, 50.0), lower_cfg())
    assert issubclass(RadiusCapError, ValueError)


def test_cap_override():
    res = graph_area(SublevelDomain(GraphFamily.SIN_EXP, 8.5),
                     lower_cfg(depth=6), allow_large_r=True)
    assert res.lower > 0.0


# ---------------------------------------------------------------------------
# closed-form bounding-box integral for e^z
# ---------------------------------------------------------------------------

def test_closed_bound_values():
    assert ez_area_closed_bound(2.0) == pytest.approx(13.349663083342422, rel=1e-15)
    assert ez_area_closed_bound(4.0) == pytest.approx(53.543835593967955, rel=1e-15)


def test_closed_bound_quadratic_coefficient():
    R = 1e6
    assert ez_area_closed_bound(R) / R**2 == pytest.approx(3.0, abs=2e-5)


def test_closed_bound_rejects_small_radius():
    with pytest.raises(ValueError):
        ez_area_closed_bound(1.9)


@pytest.mark.parametrize("R", [2.0, 4.0, 8.0, 16.0])
def test_ez_cross_check(R):
    # Expected to FAIL at R >= 8: the certified lower bound already
    # exceeds the closed-form curve there (the area integral carries an
    # e^{2x} mass of order (2/3) R^3 near x = log R, so no sound
    # quadrature can land under a quadratic curve).  Kept faithful to
    # the stated invariant; see the decisions ledger.
    res = graph_area(SublevelDomain(GraphFamily.EXP, R), estimate_cfg(depth=12))
    assert res.estimate <= ez_area_closed_bound(R) + 1e-9 * res.estimate


# ---------------------------------------------------------------------------
# config and result validation
# ---------------------------------------------------------------------------

def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(max_depth=0)
    with pytest.raises(ValueError):
        QuadConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        QuadConfig(samples_per_cell=3)


def test_domain_validation():
    with pytest.raises(ValueError):
        SublevelDomain(GraphFamily.EXP, 0.0)
    with pytest.raises(ValueError):
        SublevelDomain(GraphFamily.EXP, float("inf"))


def test_area_estimate_validation():
    with pytest.raises(ValueError):
        AreaEstimate(lower=2.0, estimate=1.0, cells_inside=0,
                     cells_boundary=0, depth_reached=0, depth_exceeded=False)
    with pytest.raises(ValueError):
        AreaEstimate(lower=-1.0, estimate=None, cells_inside=0,
                     cells_boundary=0, depth_reached=0, depth_exceeded=False)


def test_depth_exceeded_flag():
    res = graph_area(SublevelDomain(GraphFamily.SIN_EXP, 3.0), lower_cfg(depth=4))
    assert res.depth_exceeded
    assert res.depth_reached <= 4

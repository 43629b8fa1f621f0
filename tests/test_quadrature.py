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
    GuardedResourceError,
    QuadConfig,
    QuadMode,
    RadiusCapError,
    RectBounds,
    SublevelDomain,
    classify_cell,
    ez_area_closed_bound,
    graph_area,
)
from graphgrowth import quadrature
from graphgrowth.families import (
    MIRROR_AXES,
    _enclose_f,
    bound_abs_f_fprime_batch,
    log_abs_f_fprime_batch,
)
from graphgrowth.quadrature import (
    RADIUS_CAPS,
    _boundary_estimate_sum,
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


def test_classify_cell_makes_one_kernel_call(monkeypatch):
    # one call of the kernel's first stage (|f|) classifies the cell, and
    # the UNKNOWN check reads the same enclosure; |f'| is never needed
    calls = []

    def counted(*args):
        calls.append(args)
        return _enclose_f(*args)

    def no_fprime(*args):
        raise AssertionError("finished |f'| for one cell")

    monkeypatch.setattr(quadrature, "_enclose_f", counted)
    monkeypatch.setattr(quadrature, "_enclose_fprime", no_fprime)
    for r, cell, want in ((800.0, RectBounds(720.0, 721.0, 0.0, 1.0), CellClass.UNKNOWN),
                          (2.0, RectBounds(0.5, 0.8, -0.1, 0.1), CellClass.BOUNDARY),
                          (3.0, RectBounds(0.0, 0.1, 0.0, 0.1), CellClass.INSIDE)):
        family = GraphFamily.EXP if want is CellClass.BOUNDARY else GraphFamily.SIN_EXP
        calls.clear()
        assert classify_cell(SublevelDomain(family, r), cell) is want
        assert len(calls) == 1


def test_classify_near_trivial_cell_is_exactly_unknown():
    # the cell meets the disk |z| <= 800, so its distance alone proves
    # nothing, and e^720 overflows, so the enclosure is trivial
    dom = SublevelDomain(GraphFamily.SIN_EXP, 800.0)
    cell = RectBounds(720.0, 721.0, 0.0, 1.0)
    f_lo, f_hi, _, _ = bound_abs_f_fprime_batch(GraphFamily.SIN_EXP, *(
        np.array([v]) for v in (720.0, 721.0, 0.0, 1.0)))
    assert np.isneginf(f_lo[0]) and np.isposinf(f_hi[0])
    assert classify_cell(dom, cell) is CellClass.UNKNOWN


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

_INSIDE, _OUTSIDE, _BOUNDARY, _UNKNOWN = 0, 1, 2, 3


def _reference_classify(family, r, xlo, xhi, ylo, yhi):
    """Per-cell codes and log lower bounds of |f'|, as the quadtree once
    classified its levels: far cells are OUTSIDE without an enclosure
    (and get -inf), the near ones get one kernel call."""
    r2 = r * r
    dx = np.maximum(0.0, np.maximum(xlo, -xhi))
    dy = np.maximum(0.0, np.maximum(ylo, -yhi))
    with np.errstate(over="ignore"):
        dmin2 = dx * dx + dy * dy
        dmax2 = np.maximum(xlo * xlo, xhi * xhi) + np.maximum(ylo * ylo, yhi * yhi)
    out = np.full(xlo.shape, _BOUNDARY, dtype=np.int8)
    far = dmin2 > r2
    out[far] = _OUTSIDE
    fp_lo_log = np.full(xlo.shape, -np.inf)
    near = np.flatnonzero(~far)
    f_lo_log, f_hi_log, fp_lo_log[near], _ = bound_abs_f_fprime_batch(
        family, xlo[near], xhi[near], ylo[near], yhi[near])
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
    return out, fp_lo_log


def _reference_split4(xlo, xhi, ylo, yhi):
    """All four children of each cell in SW, SE, NW, NE blocks."""
    xm = 0.5 * (xlo + xhi)
    ym = 0.5 * (ylo + yhi)
    return (np.concatenate([xlo, xm, xlo, xm]), np.concatenate([xm, xhi, xm, xhi]),
            np.concatenate([ylo, ylo, ym, ym]), np.concatenate([ym, ym, yhi, yhi]))


def _whole_box_area(domain, cfg):
    """Reference: the quadtree over the whole seed box, every cell
    classified and summed once and every child of an undecided cell kept
    (far ones are classified OUTSIDE), as graph_area ran before it kept
    one fundamental region of the mirror symmetry and dropped far
    children at the split."""
    half = domain.r + cfg.seed_box_pad
    xlo, xhi, ylo, yhi = (np.array([v]) for v in (-half, half, -half, half))
    parts = []
    cells_inside = depth_reached = 0
    final_b = (np.empty(0),) * 4
    for depth in range(cfg.max_depth + 1):
        if xlo.size == 0:
            break
        depth_reached = depth
        codes, fp_lo_log = _reference_classify(domain.family, domain.r, xlo, xhi, ylo, yhi)
        ins = codes == _INSIDE
        und = (codes == _BOUNDARY) | (codes == _UNKNOWN)
        cells_inside += int(np.count_nonzero(ins))
        parts.append(_inside_lower_sum(fp_lo_log[ins], xhi[ins] - xlo[ins],
                                       yhi[ins] - ylo[ins], 1))
        if depth == cfg.max_depth:
            final_b = (xlo[und], xhi[und], ylo[und], yhi[und])
            break
        xlo, xhi, ylo, yhi = _reference_split4(xlo[und], xhi[und], ylo[und], yhi[und])
    lower = _sum_down(parts)
    bx_lo, bx_hi, by_lo, by_hi = final_b
    leftover_area = float(np.sum((bx_hi - bx_lo) * (by_hi - by_lo)))
    estimate = None
    if cfg.mode is QuadMode.ESTIMATE:
        # one column and one row per cell
        cells = np.stack([np.arange(bx_lo.size)] * 2)
        estimate = lower + _boundary_estimate_sum(
            domain.family, domain.r, cfg, np.array([bx_lo, bx_hi]),
            np.array([by_lo, by_hi]), cells)
    return AreaEstimate(
        lower=lower,
        estimate=estimate,
        cells_inside=cells_inside,
        cells_boundary=int(bx_lo.size),
        depth_reached=depth_reached,
        depth_exceeded=leftover_area > cfg.tol_rel * max(lower, 1e-12),
    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _edges(xs, ys, cells):
    """(4, n) float edges xlo, xhi, ylo, yhi of cells given as addresses."""
    col, row = cells
    return np.array([xs[0][col], xs[1][col], ys[0][row], ys[1][row]])


def _near(xlo, xhi, ylo, yhi, r2):
    dx = np.maximum(0.0, np.maximum(xlo, -xhi))
    dy = np.maximum(0.0, np.maximum(ylo, -yhi))
    return dx * dx + dy * dy <= r2


def test_split_drops_exactly_the_far_children(rng):
    # the kept children are the reference children whose nearest point lies
    # in the disk, in the same order, and their edges, read from the halved
    # tables, are the reference float midpoints bit for bit; the cells share
    # columns and rows (20 cells use fewer than the tables hold, so the
    # tables are compacted first), straddle an axis, lie on it and off it,
    # near and far
    xlo = rng.uniform(-3.0, 3.0, 60)
    ylo = rng.uniform(-3.0, 3.0, 50)
    xlo[:5] = 0.0
    ylo[5:10] = -1.0
    xs = np.array([xlo, xlo + rng.uniform(0.0, 2.0, 60)])
    ys = np.array([ylo, ylo + rng.uniform(0.0, 2.0, 50)])
    r2 = 4.0
    for n_cells in (500, 20):
        cells = np.array([rng.integers(0, 60, n_cells), rng.integers(0, 50, n_cells)])
        ref = np.array(_reference_split4(*_edges(xs, ys, cells)))
        near = _near(*ref, r2)
        assert 0 < np.count_nonzero(near) < near.size
        kid_xs, kid_ys, kids = _split4(xs, ys, cells, r2)
        assert kids.dtype == np.intp and kids.shape == (2, np.count_nonzero(near))
        assert np.array_equal(_bits(_edges(kid_xs, kid_ys, kids)), _bits(ref[:, near]))
        assert kid_xs.shape[1] <= 2 * min(60, n_cells)
        assert kid_ys.shape[1] <= 2 * min(50, n_cells)


@pytest.mark.parametrize("family", list(GraphFamily))
def test_level_tables_match_float_midpoints(family, monkeypatch):
    # with every cell left undecided, each level's cells, read from its
    # column and row tables, are the float quadtree's bit for bit: all four
    # children of each cell by _reference_split4, far ones dropped, and
    # after depth 0 only the fundamental region of the mirror symmetry; no
    # table holds more than twice its level's cells
    seen = []

    def undecided(family, r, xs, ys, cells):
        seen.append((xs, ys, cells))
        n = cells.shape[1]
        return np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.empty(0)

    monkeypatch.setattr(quadrature, "_classify_batch", undecided)
    graph_area(SublevelDomain(family, 2.0), lower_cfg(depth=7))
    assert len(seen) == 8
    ref = np.array([[-2.5], [2.5], [-2.5], [2.5]])
    for depth, (xs, ys, cells) in enumerate(seen):
        assert cells.dtype == np.intp
        assert xs.shape[1] <= 2 * cells.shape[1] and ys.shape[1] <= 2 * cells.shape[1]
        assert np.array_equal(_bits(_edges(xs, ys, cells)), _bits(ref))
        ref = np.array(_reference_split4(*ref))
        ref = ref[:, _near(*ref, 4.0)]
        if depth == 0:
            lows = {"re": ref[0], "im": ref[2]}
            ref = ref[:, np.logical_and.reduce([lows[a] >= 0.0 for a in MIRROR_AXES[family]])]


def test_addresses_stay_small_at_any_depth():
    # four cells meet at the origin at every depth (r2 = 0 keeps just the
    # children touching it); numbered in full tables, their columns would
    # pass 2^63 at depth 64, but the tables keep only what the cells use
    xs = ys = np.array([[-1.0], [1.0]])
    cells = np.zeros((2, 1), dtype=np.intp)
    ref = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    for _ in range(200):
        xs, ys, cells = _split4(xs, ys, cells, 0.0)
        ref = np.array(_reference_split4(*ref))
        ref = ref[:, _near(*ref, 0.0)]
        assert cells.shape == (2, 4) and xs.shape[1] <= 8 and ys.shape[1] <= 8
        assert np.array_equal(_bits(_edges(xs, ys, cells)), _bits(ref))
    assert ref[1].max() == 2.0 ** -199


@pytest.mark.parametrize("mode", list(QuadMode))
@pytest.mark.parametrize("family,r,extra", [
    (GraphFamily.EXP, 2.0, {}),
    (GraphFamily.EXP, 16.0, {"seed_box_pad": 0.0}),
    (GraphFamily.SIN_EXP, 2.7, {"samples_per_cell": 9}),
    (GraphFamily.SIN_EXP, 4.6, {}),
    (GraphFamily.SIN_EXP_SQ, 1.8, {"seed_box_pad": 0.0, "samples_per_cell": 9}),
    (GraphFamily.SIN_EXP_SQ, 2.8, {}),
    # many children of undecided cells lie wholly outside the disk
    (GraphFamily.EXP, 2.0, {"seed_box_pad": 6.0}),
    # trivial enclosures (UNKNOWN cells) at depth 5
    (GraphFamily.SIN_EXP, 750.0, {"max_depth": 5}),
])
def test_fundamental_region_matches_whole_box(family, r, extra, mode):
    # the certified outputs are bit-identical to the whole-box quadtree;
    # the sampled boundary sum is summed pairwise over another set of
    # cells, so the estimate may move in its last bits
    domain = SublevelDomain(family, r)
    cfg = QuadConfig(mode=mode, **{"max_depth": 11, **extra})
    got = graph_area(domain, cfg, allow_large_r=True)
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
    assert issubclass(RadiusCapError, GuardedResourceError)
    assert issubclass(GuardedResourceError, ValueError)


def test_cell_budget_refuses_the_split_past_it(monkeypatch):
    # the guard counts each next level before _split4 allocates it: a
    # budget equal to the largest level of a depth-8 run lets the run
    # through, one cell less refuses it, and so does an unbounded depth
    # (the budget is tiny, so nothing large is allocated)
    domain = SublevelDomain(GraphFamily.EXP, 2.0)
    levels = []

    def split4(xs, ys, cells, r2):
        levels.append(4 * cells.shape[1])
        return _split4(xs, ys, cells, r2)

    monkeypatch.setattr(quadrature, "_split4", split4)
    whole = graph_area(domain, lower_cfg(depth=8))
    monkeypatch.setattr(quadrature, "_CELL_BUDGET", max(levels))
    assert graph_area(domain, lower_cfg(depth=8)) == whole
    monkeypatch.setattr(quadrature, "_CELL_BUDGET", max(levels) - 1)
    with pytest.raises(GuardedResourceError, match="over the budget"):
        graph_area(domain, lower_cfg(depth=8))
    with pytest.raises(GuardedResourceError, match="over the budget"):
        graph_area(domain, lower_cfg(depth=100000))


def test_sample_budget_refuses_before_the_quadtree(monkeypatch):
    # an estimate asking for more samples per cell than the budget is
    # refused before the first level is classified; the lower bound takes
    # no samples and runs
    def no_classify(*args):
        raise AssertionError("classified a level")

    domain = SublevelDomain(GraphFamily.EXP, 2.0)
    count = quadrature._SAMPLE_BUDGET + 1
    lower = graph_area(domain, lower_cfg(depth=3, samples_per_cell=count))
    assert lower == graph_area(domain, lower_cfg(depth=3))
    monkeypatch.setattr(quadrature, "_classify_batch", no_classify)
    with pytest.raises(GuardedResourceError, match="samples per cell, over the budget"):
        graph_area(domain, estimate_cfg(depth=3, samples_per_cell=count))


def test_estimate_samples_stay_within_one_chunk():
    # the sample coordinates are built per chunk of cells, never for every
    # column and row of the last level at once: at 2^14 samples per cell
    # (one cell per chunk) the last level of e^z at r = 2, depth 8, has
    # hundreds of boundary cells over about a hundred columns and rows,
    # yet the peak stays a few arrays of one cell's samples
    import tracemalloc

    spc = 1 << 14
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = graph_area(SublevelDomain(GraphFamily.EXP, 2.0),
                         estimate_cfg(depth=8, samples_per_cell=spc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.cells_boundary > 500
    assert peak < 32 * spc * 8


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

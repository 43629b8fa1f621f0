"""Point evaluation and rigorous cell enclosures for the three families.

Oracle: mpmath at 40 digits for point values; dense sampling inside
cells, and mpmath at 50 digits at cell corners and centres, for enclosure
soundness; repeated np.nextafter for the outward widening.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgrowth import (
    GraphFamily,
    LogScaledComplex,
    eval_f,
    eval_fprime,
)
from graphgrowth.families import (
    LOG2,
    MIRROR_AXES,
    _column_terms,
    _enclose_f,
    _enclose_fprime,
    _log_sqrt_s2_plus_sinh2,
    _nudge_down,
    _nudge_up,
    _row_terms,
    log_abs_f_fprime_batch,
)
from graphgrowth.packets import _PROOF_GRID, _disk_cells, _layout
from conftest import enclose_cells, mp_f, mp_fprime, mp_log_abs, sample_cell

FAMILIES = list(GraphFamily)

# boxes where plain complex arithmetic stays far from overflow, per family
SAFE_BOX = {
    GraphFamily.SIN_EXP: 4.0,
    GraphFamily.SIN_EXP_SQ: 2.0,
    GraphFamily.EXP: 40.0,
}


# ---------------------------------------------------------------------------
# point evaluation vs mpmath
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_eval_f_matches_mpmath(family, rng):
    half = SAFE_BOX[family]
    for _ in range(50):
        z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
        got = eval_f(family, z)
        want = mp_f(family, z)
        want_log = mp_log_abs(want)
        assert got.log_mag == pytest.approx(want_log, rel=1e-12, abs=1e-9)
        if abs(want) > 1e-12:
            want_phase = float(mpmath.arg(want))
            diff = abs(cmath.exp(1j * got.phase) - cmath.exp(1j * want_phase))
            assert diff < 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_eval_fprime_matches_mpmath(family, rng):
    half = SAFE_BOX[family]
    for _ in range(50):
        z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
        got = eval_fprime(family, z)
        want = mp_fprime(family, z)
        assert got.log_mag == pytest.approx(mp_log_abs(want), rel=1e-12, abs=1e-9)


def test_eval_f_near_first_packet_center():
    # z = log(2 pi) + 0.001i sits just off the n=2 packet center
    z = complex(math.log(2 * math.pi), 0.001)
    got = eval_f(GraphFamily.SIN_EXP, z)
    want = mp_f(GraphFamily.SIN_EXP, z)
    assert got.log_mag == pytest.approx(mp_log_abs(want), rel=1e-12)


def test_fprime_exact_at_sin_exp_center():
    # f'(log pi) = e^{log pi} cos(pi) = -pi: magnitude pi, phase pi
    got = eval_fprime(GraphFamily.SIN_EXP, complex(math.log(math.pi), 0.0))
    assert math.exp(got.log_mag) == pytest.approx(math.pi, rel=1e-14)
    assert got.phase == pytest.approx(math.pi, abs=1e-12)


def test_fprime_at_gaussian_center():
    # |f'(sqrt(log 2pi))| = 2 sqrt(log 2pi) * 2pi * |cos 2pi| = 4 pi sqrt(log 2pi)
    z = complex(math.sqrt(math.log(2 * math.pi)), 0.0)
    got = eval_fprime(GraphFamily.SIN_EXP_SQ, z)
    assert math.exp(got.log_mag) == pytest.approx(17.036018118466465, rel=1e-12)


def test_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        eval_f(GraphFamily.EXP, complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        eval_fprime(GraphFamily.SIN_EXP, complex(0.0, float("inf")))
    # a finite z whose u = z^2 is not finite (inf - inf)
    with pytest.raises(ValueError):
        eval_f(GraphFamily.SIN_EXP_SQ, complex(1e200, 1e200))


def test_deep_overflow_saturates_without_nan():
    # Re e^u beyond double range: magnitude may saturate, phase is the
    # sentinel, and no NaN escapes; where sin(Im u) is 0, Im e^u is 0 too
    # and log|f| is the sentinel 0
    for family, z, log_mag in ((GraphFamily.SIN_EXP, complex(800.0, 1.0), math.inf),
                               (GraphFamily.SIN_EXP_SQ, complex(1e200, 0.0), 0.0),
                               (GraphFamily.SIN_EXP_SQ, complex(1e308, -1e-308), math.inf)):
        got = eval_f(family, z)
        assert (got.log_mag, got.phase) == (log_mag, 0.0)


@pytest.mark.parametrize("family", [GraphFamily.SIN_EXP, GraphFamily.SIN_EXP_SQ])
def test_eval_phase_matches_mpmath_past_the_asymptotic_band(family):
    # 36 < |Im e^u| < 700 with |e^u| < 1000, where the phase of sin and cos
    # of e^u comes from tanh(Im e^u) = +-1 and no point of SAFE_BOX goes
    rng = np.random.default_rng(20261104)
    checked = 0
    while checked < 40:
        u = complex(rng.uniform(3.7, 6.9), rng.uniform(-math.pi, math.pi))
        z = u if family is GraphFamily.SIN_EXP else cmath.sqrt(u)
        u = z if family is GraphFamily.SIN_EXP else z * z
        if not 36.0 < abs(cmath.exp(u).imag) < 700.0:
            continue
        for evaluate, want in ((eval_f, mp_f(family, z)), (eval_fprime, mp_fprime(family, z))):
            got = evaluate(family, z)
            assert abs(cmath.exp(1j * got.phase) - cmath.exp(1j * float(mpmath.arg(want)))) < 1e-9
            assert got.log_mag == pytest.approx(mp_log_abs(want), rel=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# LogScaledComplex plumbing
# ---------------------------------------------------------------------------

def test_from_complex_roundtrip(rng):
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        back = LogScaledComplex.from_complex(z).to_complex()
        assert abs(back - z) <= 1e-13 * abs(z)


def test_logscaled_zero_and_overflow():
    assert LogScaledComplex.from_complex(0.0).magnitude == 0.0
    big = LogScaledComplex(1e4, 0.0)
    assert big.magnitude == float("inf")
    with pytest.raises(OverflowError):
        big.to_complex()


def test_logscaled_validation():
    with pytest.raises(ValueError):
        LogScaledComplex(float("nan"), 0.0)
    with pytest.raises(ValueError):
        LogScaledComplex(0.0, 4.0)  # phase outside (-pi, pi]


# ---------------------------------------------------------------------------
# derivative vs finite difference: 100 points per family, rel tol 1e-4
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_fprime_vs_finite_difference(family, rng):
    half = min(SAFE_BOX[family], 2.0)
    h = 1e-6
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
        want = eval_fprime(family, z)
        if want.log_mag < -3.0:  # FD loses accuracy near critical points
            continue
        fd = (mp_f(family, z + h) - mp_f(family, z - h)) / (2 * h)
        got = want.to_complex()
        rel = abs(got - complex(fd)) / abs(complex(fd))
        assert rel < 1e-4, f"z={z}: fd={complex(fd)} got={got}"
        checked += 1


# ---------------------------------------------------------------------------
# enclosure soundness: 1000 random cells per family, dense samples inside
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_cell_enclosures_contain_samples(family, rng):
    half = SAFE_BOX[family]
    n_cells = 1000
    cells = np.array([sample_cell(rng, -half, half) for _ in range(n_cells)])
    re_lo, re_hi, im_lo, im_hi = cells.T
    f_lo, f_hi, fp_lo, fp_hi = enclose_cells(family, re_lo, re_hi, im_lo, im_hi)

    n_pts = 16
    u = rng.uniform(size=(n_cells, n_pts))
    v = rng.uniform(size=(n_cells, n_pts))
    u[:, 0], v[:, 0] = 0.0, 0.0  # corners and center always sampled
    u[:, 1], v[:, 1] = 1.0, 1.0
    u[:, 2], v[:, 2] = 0.5, 0.5
    xs = re_lo[:, None] + u * (re_hi - re_lo)[:, None]
    ys = im_lo[:, None] + v * (im_hi - im_lo)[:, None]

    log_f, log_fp = log_abs_f_fprime_batch(family, xs, ys)
    tol = 1e-9
    assert np.all(log_f <= f_hi[:, None] + tol)
    assert np.all(log_f >= f_lo[:, None] - tol)
    assert np.all(log_fp <= fp_hi[:, None] + tol)
    assert np.all(log_fp >= fp_lo[:, None] - tol)


@pytest.mark.parametrize("family", FAMILIES)
def test_cell_enclosures_contain_mpmath_values(family):
    # log|f| and log|f'| at 50 digits at the corners and centre of each cell
    # lie inside the float enclosure with no slack at all
    rng = np.random.default_rng(20261017)
    half = SAFE_BOX[family]
    cells = np.array([sample_cell(rng, -half, half) for _ in range(300)])
    re_lo, re_hi, im_lo, im_hi = cells.T
    f_lo, f_hi, fp_lo, fp_hi = enclose_cells(family, re_lo, re_hi, im_lo, im_hi)
    with mpmath.workdps(50):
        for i, (x0, x1, y0, y1) in enumerate(cells):
            centre = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
            for z in (complex(x0, y0), complex(x1, y0), complex(x0, y1),
                      complex(x1, y1), centre):
                for w, lo, hi in ((mp_f(family, z), f_lo[i], f_hi[i]),
                                  (mp_fprime(family, z), fp_lo[i], fp_hi[i])):
                    log_w = mpmath.log(abs(w)) if w != 0 else -mpmath.inf
                    assert lo <= log_w <= hi, (z, lo, log_w, hi)


@pytest.mark.parametrize("family", FAMILIES)
def test_point_log_batch_matches_mpmath(family, rng):
    half = SAFE_BOX[family]
    xs = rng.uniform(-half, half, size=200)
    ys = rng.uniform(-half, half, size=200)
    got_f, got_fp = log_abs_f_fprime_batch(family, xs, ys)
    for i in range(0, 200, 7):
        z = complex(xs[i], ys[i])
        want_f = mp_log_abs(mp_f(family, z))
        want_fp = mp_log_abs(mp_fprime(family, z))
        if math.isfinite(want_f):
            assert got_f[i] == pytest.approx(want_f, rel=1e-10, abs=1e-8)
        if math.isfinite(want_fp):
            assert got_fp[i] == pytest.approx(want_fp, rel=1e-10, abs=1e-8)


def _log_uniform_coords(rng, size):
    """Signed coordinates with magnitudes spread over 1e-3..1e13, so that
    every regime of the kernels appears: plain e^u, |e^u| beyond the
    plain range, and Im u beyond the trig argument limit."""
    mag = 10.0 ** rng.uniform(-3.0, 13.0, size)
    return np.where(rng.uniform(size=size) < 0.5, -mag, mag)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _packet_edges(xs, ys, cells, counts):
    """Per-cell edges (re_lo, re_hi, im_lo, im_hi) of _disk_cells' cells,
    read from its tables through its addresses."""
    col, row = cells
    return (*xs[:, col], *ys[:, row])


@pytest.mark.parametrize("family", FAMILIES)
def test_merged_kernels_are_batch_independent(family):
    # each element's bits depend on that element alone: the full array, a
    # boolean subset and the reversed array agree, for lengths that are
    # not a multiple of a SIMD width; and a cell's mirror image across each
    # axis the family declares gives the cell's bits, which keeps the
    # quadrature over one fundamental region bit-identical to the whole box,
    # also on the half-disk cells of both packet families
    rng = np.random.default_rng(20261018)
    n = 1003
    x = np.concatenate([rng.uniform(-4.0, 4.0, 300), rng.uniform(690.0, 720.0, 100),
                        _log_uniform_coords(rng, n - 400)])
    y = np.concatenate([rng.uniform(-4.0, 4.0, 300), rng.uniform(-3.0, 3.0, 100),
                        _log_uniform_coords(rng, n - 400)])
    w = 10.0 ** rng.uniform(-6.0, 0.5, n)
    h = 10.0 ** rng.uniform(-6.0, 0.5, n)
    cells = (x - w, x + w, y - h, y + h)
    u_re, u_im = (x, y) if family is not GraphFamily.SIN_EXP_SQ else (x * x - y * y, 2.0 * x * y)
    assert np.count_nonzero(u_re > 700.0) > 20
    assert np.count_nonzero(np.abs(u_im) > 1e12) > 20
    subset = rng.uniform(size=n) < 0.6
    assert np.count_nonzero(subset) % 8 != 0

    for kernel, args in ((log_abs_f_fprime_batch, (x, y)),
                         (enclose_cells, cells)):
        full = kernel(family, *args)
        part = kernel(family, *(a[subset] for a in args))
        rev = kernel(family, *(a[::-1] for a in args))
        for whole, sub, back in zip(full, part, rev):
            assert np.array_equal(_bits(whole)[subset], _bits(sub))
            assert np.array_equal(_bits(whole)[::-1], _bits(back))

    assert "im" in MIRROR_AXES[family]
    assert ("re" in MIRROR_AXES[family]) == (family is GraphFamily.SIN_EXP_SQ)
    xlo, xhi, ylo, yhi = cells
    zero = np.zeros(n)
    mirrors = {"im": lambda c: (c[0], c[1], -c[3], -c[2]),
               "re": lambda c: (-c[1], -c[0], c[2], c[3])}
    on_axis = {"im": (xlo, xhi, zero, 2.0 * h), "re": (zero, 2.0 * w, ylo, yhi)}
    se_cells = _packet_edges(*_disk_cells(*_layout(GraphFamily.SIN_EXP, 1, 300), _PROOF_GRID))
    sq_cells = _packet_edges(*_disk_cells(*_layout(GraphFamily.SIN_EXP_SQ, 2, 300, 0.01),
                                          _PROOF_GRID))
    packet_box = tuple(map(np.concatenate, zip(se_cells, sq_cells)))
    for axis in MIRROR_AXES[family]:
        for box in (cells, on_axis[axis], packet_box):
            whole = enclose_cells(family, *box)
            mirrored = enclose_cells(family, *mirrors[axis](box))
            for a, b in zip(whole, mirrored):
                assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_stages_on_addressed_cells_match_the_whole_kernel(family):
    # cells given as (column, row) addresses into edge tables: stage 1 gives
    # |f| on every cell and stage 2, on a subset, |f'|, each with the bits
    # of both stages on per-cell tables of the gathered edges; among the
    # cells are ones with Re u > 700 and ones whose enclosure is trivial
    rng = np.random.default_rng(20261019)
    x = np.concatenate([rng.uniform(-4.0, 4.0, 150), rng.uniform(690.0, 720.0, 30),
                        _log_uniform_coords(rng, 60)])
    y = np.concatenate([rng.uniform(-4.0, 4.0, 150), rng.uniform(-3.0, 3.0, 30),
                        _log_uniform_coords(rng, 40)])
    w = 10.0 ** rng.uniform(-6.0, 0.5, x.size)
    h = 10.0 ** rng.uniform(-6.0, 0.5, y.size)
    xs, ys = np.array([x - w, x + w]), np.array([y - h, y + h])
    n = 3001
    col = rng.integers(0, x.size, n)
    row = np.where(col < 180, rng.integers(0, 180, n), rng.integers(0, y.size, n))
    whole = enclose_cells(family, xs[0][col], xs[1][col], ys[0][row], ys[1][row])
    cols, rows = _column_terms(family, *xs), _row_terms(family, *ys)
    f_lo, f_hi, box = _enclose_f(family, cols, rows, col, row)
    sel = np.flatnonzero(rng.uniform(size=n) < 0.3)
    fp_lo, fp_hi = _enclose_fprime(family, cols, rows, col, row, box, sel)
    for got, want in zip((f_lo, f_hi, fp_lo, fp_hi),
                         (whole[0], whole[1], whole[2][sel], whole[3][sel])):
        assert np.array_equal(_bits(got), _bits(want))
    if family is not GraphFamily.EXP:
        trivial = np.isneginf(f_lo) & np.isposinf(f_hi)
        assert np.count_nonzero(trivial[sel]) > 20
        assert np.count_nonzero(np.isfinite(fp_lo)) > 200


# ---------------------------------------------------------------------------
# branch-only kernels against evaluate-everything-then-select references
# ---------------------------------------------------------------------------

def _point_kernel_reference(family, zre, zim):
    """log_abs_f_fprime_batch as it was before it computed each branch
    only where taken: every form on every point, then np.where.  Its
    large-|Im e^u| form, big, is that branch's expression as first
    written, with (4*osc)*osc."""
    zre = np.asarray(zre, dtype=float)
    zim = np.asarray(zim, dtype=float)
    with np.errstate(all="ignore"):
        if family is GraphFamily.EXP:
            log_mag = zre + 0.0 * zim
            return log_mag, log_mag
        if family is GraphFamily.SIN_EXP:
            w_log, w_arg = zre, zim
        else:
            w_log, w_arg = zre * zre - zim * zim, 2.0 * (zre * zim)
        scale = np.exp(np.minimum(w_log, 700.0))
        sin_arg = np.sin(w_arg)
        x = scale * np.cos(w_arg)
        y = scale * sin_arg
        ay = np.abs(y)
        ay_small = np.minimum(ay, 36.0)
        osc = np.stack([np.sin(x), np.cos(x)])
        other = osc[::-1]
        small = np.log(np.hypot(osc * np.cosh(ay_small), other * np.sinh(ay_small)))
        ay_clip = np.minimum(ay, 400.0)
        corr = (4.0 * osc * osc - 2.0) * np.exp(-2.0 * ay_clip) + np.exp(-4.0 * ay_clip)
        big = ay - LOG2 + 0.5 * np.log1p(corr)
        plain = np.where(ay <= 36.0, small, big)
        log_im = np.where(sin_arg == 0.0, -np.inf, w_log + np.log(np.abs(sin_arg)))
        m = np.where(log_im > 709.0, np.inf, np.exp(np.minimum(log_im, 709.0)))
        scaled = np.where(m > 36.0, m - LOG2, np.log(np.cosh(np.minimum(m, 36.0))))
        log_sin, log_cos = np.where(w_log <= 700.0, plain, scaled)
        if family is GraphFamily.SIN_EXP:
            return log_sin, zre + log_cos
        log_2z = LOG2 + 0.5 * np.log(zre * zre + zim * zim)
        return log_sin, log_2z + w_log + log_cos


def _log_sqrt_reference(s2, m):
    """_log_sqrt_s2_plus_sinh2 with both forms on every element."""
    with np.errstate(all="ignore"):
        sh = np.sinh(np.minimum(m, 36.0))
        v = s2 + sh * sh
        small = np.where(v > 0.0, 0.5 * np.log(v), -np.inf)
        m_clip = np.minimum(m, 400.0)
        corr = (4.0 * s2 - 2.0) * np.exp(-2.0 * m_clip) + np.exp(-4.0 * m_clip)
        return np.where(m <= 36.0, small, m - LOG2 + 0.5 * np.log1p(corr))


def _branch_points(rng):
    """Points u = Re u + i Im u, one block per branch of the point kernel:
    |Im e^u| <= 36, in (36, 400] and beyond 400 while Re u <= 700; then
    Re u > 700 with log|Im e^u| beyond 709, with |Im e^u| > 36 and with
    the thin band |Im e^u| <= 36; then NaN, +-inf and +-0 coordinates."""
    re_u = np.concatenate([
        rng.uniform(-5.0, 3.0, 40), rng.uniform(3.7, 5.9, 40),
        rng.uniform(6.5, 690.0, 40), rng.uniform(712.0, 1.0e4, 20),
        rng.uniform(700.5, 708.0, 20), np.full(20, 701.0),
    ])
    im_u = np.concatenate([
        rng.uniform(-3.1, 3.1, 160), 10.0 ** rng.uniform(-290.0, -280.0, 10),
        -(10.0 ** rng.uniform(-306.0, -304.0, 10)),
    ])
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5]
    grid_re, grid_im = np.meshgrid(special, special)
    return re_u, im_u, grid_re.ravel(), grid_im.ravel()


def _branch_coords(family, rng):
    """Coordinates z whose u (z, or z^2 for SIN_EXP_SQ) take every branch;
    returns them with the u the kernel computes from them."""
    re_u, im_u, sp_re, sp_im = _branch_points(rng)
    if family is GraphFamily.SIN_EXP_SQ:
        z = np.sqrt(re_u + 1j * im_u)
        zre, zim = z.real, z.imag
    else:
        zre, zim = re_u, im_u
    zre, zim = np.concatenate([zre, sp_re]), np.concatenate([zim, sp_im])
    if family is GraphFamily.SIN_EXP_SQ:
        with np.errstate(invalid="ignore"):
            return zre, zim, zre * zre - zim * zim, 2.0 * (zre * zim)
    return zre, zim, zre, zim


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("family", FAMILIES)
def test_point_kernel_matches_select_everything_reference(family):
    rng = np.random.default_rng(20261101)
    zre, zim, w_log, w_arg = _branch_coords(family, rng)
    if family is not GraphFamily.EXP:
        with np.errstate(all="ignore"):
            ay = np.abs(np.exp(np.minimum(w_log, 700.0)) * np.sin(w_arg))
            im = np.exp(w_log + np.log(np.abs(np.sin(w_arg))))
        plain = w_log <= 700.0
        for taken in (plain & (ay <= 36.0), plain & (ay > 36.0) & (ay <= 400.0),
                      plain & (ay > 400.0), (w_log > 700.0) & np.isinf(im),
                      (w_log > 700.0) & (im > 36.0) & np.isfinite(im),
                      (w_log > 700.0) & (im <= 36.0)):
            assert np.count_nonzero(taken) >= 5
    special = np.isnan(zre) | np.isnan(zim) | np.isinf(zre) | np.isinf(zim)
    assert np.count_nonzero(special) >= 20
    n = zre.size
    cases = [(zre, zim)]
    # every branch alone, and the (cells, k^2) shapes of boundary sampling
    for block in (slice(0, 40), slice(40, 80), slice(80, 120), slice(120, 140),
                  slice(140, 180), slice(180, n)):
        cases.append((zre[block], zim[block]))
    for k2 in (4, 9):
        cut = n - n % k2
        cases.append((zre[:cut].reshape(-1, k2), zim[:cut].reshape(-1, k2)))
    cases.append((zre[:1].reshape(()), zim[:1].reshape(())))
    for args in cases:
        _assert_same_bits(log_abs_f_fprime_batch(family, *args),
                          _point_kernel_reference(family, *args))


@pytest.mark.parametrize("family", [GraphFamily.SIN_EXP, GraphFamily.SIN_EXP_SQ])
def test_point_kernel_large_im_block_keeps_its_bits(family):
    # the point kernel's large-|Im e^u| block is |Im e^u| - log 2, whose
    # log1p correction never moves a bit; the reference keeps the
    # correction with osc scaled by 4 before squaring, and every point
    # here takes the block
    rng = np.random.default_rng(20261104)
    re_u = rng.uniform(math.log(36.0), math.log(1000.0), 100_000)
    im_u = rng.uniform(-math.pi, math.pi, 100_000)
    if family is GraphFamily.SIN_EXP_SQ:
        z = np.sqrt(re_u + 1j * im_u)
        zre, zim = z.real, z.imag
        w_log, w_arg = zre * zre - zim * zim, 2.0 * (zre * zim)
    else:
        zre, zim = w_log, w_arg = re_u, im_u
    ay = np.abs(np.exp(w_log) * np.sin(w_arg))
    block = (ay > 36.0) & (ay <= 1000.0)
    assert np.count_nonzero(block) > 50_000
    zre, zim = zre[block], zim[block]
    _assert_same_bits(log_abs_f_fprime_batch(family, zre, zim),
                      _point_kernel_reference(family, zre, zim))


def test_log_sqrt_s2_plus_sinh2_matches_select_everything_reference():
    rng = np.random.default_rng(20261102)
    m = np.concatenate([
        [0.0, 5e-324, 1e-8, 1.0, 35.9, 36.0, np.nextafter(36.0, 40.0), 100.0,
         399.0, 400.0, 401.0, 1e5, 1e300, np.inf, np.nan],
        rng.uniform(0.0, 36.0, 40), rng.uniform(36.0, 500.0, 40),
    ])
    s2 = np.stack([rng.uniform(0.0, 1.0, m.size), rng.uniform(0.0, 1.0, m.size)])
    s2[:, :4] = [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]
    small, large = m <= 36.0, ~(m <= 36.0)
    cut = 90
    cases = [(s2, m), (s2[0], m), (s2[:, small], m[small]), (s2[:, large], m[large]),
             (s2[:, :cut].reshape(2, 9, 10), m[:cut].reshape(9, 10)),
             (s2[:, 5], m[5]), (s2[:, 7], m[7])]
    for s2_case, m_case in cases:
        got = _log_sqrt_s2_plus_sinh2(s2_case, m_case)
        want = _log_sqrt_reference(s2_case, m_case)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


HUGE = np.array([1e200, 1e200, 0.0, -1e300, 1.7e308, 1.3e154, 2e154, 1e308])
HUGE_OTHER = np.array([1e200, 0.0, 1e200, 3.0, 1.7e308, 1.0, 2e154, -1e-308])


@pytest.mark.parametrize("family", FAMILIES)
def test_point_kernel_is_quiet_on_huge_finite_inputs(family):
    # tier-1 turns a RuntimeWarning into an error; the overflows here are
    # handled (inf, or NaN where u = z^2 is not finite, as in the
    # reference), so none may be raised
    for zre, zim in ((HUGE, HUGE_OTHER), (HUGE_OTHER, HUGE), (-HUGE, HUGE)):
        _assert_same_bits(log_abs_f_fprime_batch(family, zre, zim),
                          _point_kernel_reference(family, zre, zim))


@pytest.mark.parametrize("family", FAMILIES)
def test_point_evaluators_read_the_point_kernel(family):
    # eval_f and eval_fprime take log_mag from log_abs_f_fprime_batch bit for
    # bit, on every branch of the kernel and on huge finite inputs, and raise
    # exactly where the kernel has no value
    zre, zim, _, _ = _branch_coords(family, np.random.default_rng(20261103))
    zre = np.concatenate([zre, HUGE, HUGE_OTHER, -HUGE])
    zim = np.concatenate([zim, HUGE_OTHER, HUGE, HUGE])
    finite = np.isfinite(zre) & np.isfinite(zim)
    zre, zim = zre[finite], zim[finite]
    log_f, log_fp = log_abs_f_fprime_batch(family, zre, zim)
    for x, y, lf, lfp in zip(zre.tolist(), zim.tolist(), log_f, log_fp):
        for evaluate, want in ((eval_f, lf), (eval_fprime, lfp)):
            if np.isnan(want):
                with pytest.raises(ValueError):
                    evaluate(family, complex(x, y))
            else:
                assert _bits(evaluate(family, complex(x, y)).log_mag) == _bits(want)


def _nextafter4(x, direction):
    for _ in range(4):
        x = np.nextafter(x, direction)
    return x


def test_nudges_dominate_four_ulp_steps():
    # exact, on both signs of: zero, subnormals, every power of two (binade
    # edge) and its neighbours, max, inf; plus 10^6 random bit patterns
    edges = np.ldexp(1.0, np.arange(-1074, 1024))
    special = np.array([0.0, 5e-324, 2.5e-322, 2.2250738585072009e-308,
                        1.7976931348623157e308, np.inf])
    pos = np.concatenate([
        special, edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ])
    bits = np.random.default_rng(20261017).integers(
        0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    rand = bits.view(np.float64)
    x = np.concatenate([pos, -pos, rand[~np.isnan(rand)]])
    with np.errstate(over="ignore"):
        assert np.all(_nudge_up(x) >= _nextafter4(x, np.inf))
        assert np.all(_nudge_down(x) <= _nextafter4(x, -np.inf))
    assert np.isnan(_nudge_up(np.array([np.nan]))[0])
    assert np.isnan(_nudge_down(np.array([np.nan]))[0])


def _one_cell(family, re_lo, re_hi, im_lo, im_hi):
    """(f_lo, f_hi, fp_lo, fp_hi) of the cell kernel on the one cell
    [re_lo, re_hi] x [im_lo, im_hi], as floats."""
    out = enclose_cells(family, *(np.array([v]) for v in (re_lo, re_hi, im_lo, im_hi)))
    return tuple(float(a[0]) for a in out)


def test_exp_cell_bound_is_tight():
    # |e^z| over [0,1] x [0,1] is exactly [1, e]; nudges only widen outward
    f_lo, f_hi, _, _ = _one_cell(GraphFamily.EXP, 0.0, 1.0, 0.0, 1.0)
    lo, hi = math.exp(f_lo), math.exp(f_hi)
    assert lo <= 1.0 <= hi
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert hi == pytest.approx(math.e, rel=1e-12)


def test_first_packet_cell_bounds():
    # bounding box of D_1: |f| stays below 2 and |f'| above pi/4 on it
    c = math.log(math.pi)
    rad = 1.0 / (16 * math.pi)
    _, f_hi, fp_lo, _ = _one_cell(GraphFamily.SIN_EXP, c - rad, c + rad, -rad, rad)
    assert math.exp(f_hi) < 2.0
    assert math.exp(fp_lo) >= math.pi / 4


def test_deep_overflow_cell_is_trivial():
    # once Re u can exceed the double exponent range the enclosure
    # degrades to the trivial interval rather than guessing
    f_lo, f_hi, _, _ = _one_cell(GraphFamily.SIN_EXP, 710.0, 711.0, 0.0, 1.0)
    assert f_lo == -math.inf and f_hi == math.inf


# ---------------------------------------------------------------------------
# interval plumbing properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    x0=st.floats(-50.0, 50.0),
    span=st.floats(1e-9, 20.0),
    t=st.floats(0.0, 1.0),
)
def test_interval_trig_soundness(x0, span, t):
    # sin/cos range over [x0, x0+span] contains every inner point value
    from graphgrowth.families import _interval_trig

    x = x0 + t * span
    lo = np.array([x0])
    hi = np.array([x0 + span])
    t_min, t_max = _interval_trig(lo, hi)  # rows: sin, cos
    for row, val in enumerate((math.sin(x), math.cos(x))):
        assert t_min[row][0] <= val <= t_max[row][0]


def test_family_parse():
    assert GraphFamily.parse("sin-exp") is GraphFamily.SIN_EXP
    assert GraphFamily.parse("EXP") is GraphFamily.EXP
    with pytest.raises(ValueError):
        GraphFamily.parse("cosh")

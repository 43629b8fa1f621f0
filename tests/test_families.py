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
    MagInterval,
    RectBounds,
    bound_abs_f,
    bound_abs_fprime,
    eval_f,
    eval_fprime,
)
from graphgrowth.families import (
    _nudge_down,
    _nudge_up,
    bound_abs_f_batch,
    bound_abs_fprime_batch,
    log_abs_f_batch,
    log_abs_fprime_batch,
)
from conftest import mp_f, mp_fprime, mp_log_abs, sample_cell

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


def test_deep_overflow_saturates_without_nan():
    # Re e^{z} beyond double range: magnitude may saturate, phase is the
    # sentinel, and no NaN escapes
    got = eval_f(GraphFamily.SIN_EXP, complex(800.0, 1.0))
    assert not math.isnan(got.log_mag)
    assert got.phase == 0.0


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
    f_lo, f_hi = bound_abs_f_batch(family, re_lo, re_hi, im_lo, im_hi)
    fp_lo, fp_hi = bound_abs_fprime_batch(family, re_lo, re_hi, im_lo, im_hi)

    n_pts = 16
    u = rng.uniform(size=(n_cells, n_pts))
    v = rng.uniform(size=(n_cells, n_pts))
    u[:, 0], v[:, 0] = 0.0, 0.0  # corners and center always sampled
    u[:, 1], v[:, 1] = 1.0, 1.0
    u[:, 2], v[:, 2] = 0.5, 0.5
    xs = re_lo[:, None] + u * (re_hi - re_lo)[:, None]
    ys = im_lo[:, None] + v * (im_hi - im_lo)[:, None]

    log_f = log_abs_f_batch(family, xs, ys)
    log_fp = log_abs_fprime_batch(family, xs, ys)
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
    f_lo, f_hi = bound_abs_f_batch(family, re_lo, re_hi, im_lo, im_hi)
    fp_lo, fp_hi = bound_abs_fprime_batch(family, re_lo, re_hi, im_lo, im_hi)
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
    got_f = log_abs_f_batch(family, xs, ys)
    got_fp = log_abs_fprime_batch(family, xs, ys)
    for i in range(0, 200, 7):
        z = complex(xs[i], ys[i])
        want_f = mp_log_abs(mp_f(family, z))
        want_fp = mp_log_abs(mp_fprime(family, z))
        if math.isfinite(want_f):
            assert got_f[i] == pytest.approx(want_f, rel=1e-10, abs=1e-8)
        if math.isfinite(want_fp):
            assert got_fp[i] == pytest.approx(want_fp, rel=1e-10, abs=1e-8)


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


def test_exp_cell_bound_is_tight():
    # |e^z| over [0,1] x [0,1] is exactly [1, e]; nudges only widen outward
    box = RectBounds(0.0, 1.0, 0.0, 1.0)
    ival = bound_abs_f(GraphFamily.EXP, box)
    assert ival.lo <= 1.0 <= ival.hi
    assert ival.lo == pytest.approx(1.0, rel=1e-12)
    assert ival.hi == pytest.approx(math.e, rel=1e-12)


def test_first_packet_cell_bounds():
    # bounding box of D_1: |f| stays below 2 and |f'| above pi/4 on it
    c = math.log(math.pi)
    rad = 1.0 / (16 * math.pi)
    box = RectBounds(c - rad, c + rad, -rad, rad)
    f_ival = bound_abs_f(GraphFamily.SIN_EXP, box)
    fp_ival = bound_abs_fprime(GraphFamily.SIN_EXP, box)
    assert f_ival.hi < 2.0
    assert fp_ival.lo >= math.pi / 4


def test_deep_overflow_cell_is_trivial():
    # once Re u can exceed the double exponent range the enclosure
    # degrades to the trivial interval rather than guessing
    box = RectBounds(710.0, 711.0, 0.0, 1.0)
    ival = bound_abs_f(GraphFamily.SIN_EXP, box)
    assert ival.is_trivial


# ---------------------------------------------------------------------------
# interval plumbing properties
# ---------------------------------------------------------------------------

def test_mag_interval_validation():
    with pytest.raises(ValueError):
        MagInterval(1.0, 0.0)
    with pytest.raises(ValueError):
        MagInterval.from_values(-1.0, 2.0)
    triv = MagInterval.trivial()
    assert triv.is_trivial and triv.lo == 0.0 and triv.hi == float("inf")


def test_mag_interval_accessors():
    ival = MagInterval.from_values(0.0, 2.0)
    assert ival.lo == 0.0
    assert ival.hi == pytest.approx(2.0)
    assert ival.contains_log(math.log(1.5))
    assert not ival.contains_log(math.log(2.5))


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
    for use_cos in (False, True):
        t_min, t_max = _interval_trig(lo, hi, use_cos=use_cos)
        val = math.cos(x) if use_cos else math.sin(x)
        assert t_min[0] <= val <= t_max[0]


def test_family_parse():
    assert GraphFamily.parse("sin-exp") is GraphFamily.SIN_EXP
    assert GraphFamily.parse("EXP") is GraphFamily.EXP
    with pytest.raises(ValueError):
        GraphFamily.parse("cosh")


def test_rect_bounds_validation():
    with pytest.raises(ValueError):
        RectBounds(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RectBounds(0.0, float("inf"), 0.0, 1.0)
    box = RectBounds(-1.0, 2.0, -3.0, 1.0)
    assert box.area == pytest.approx(12.0)
    assert box.min_abs2() == 0.0  # box contains the origin
    assert box.max_abs2() == pytest.approx(4.0 + 9.0)

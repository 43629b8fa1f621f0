"""Induction parameter schedules: sigma equation, shells, diagnostics.

Heavy schedules are built once per module.  The root-finding oracle for
solve_sigma is scipy.optimize.brentq on the defining equation.
"""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from graphgrowth import (
    GrowthModel,
    GrowthSample,
    InsufficientRowsError,
    RadiiVariant,
    Schedule,
    ScheduleConfig,
    build_schedule,
    check_hyp2,
    completeness_trend,
    diagnostics,
    fit_growth,
    queryable_range,
    sigma_residual,
    solve_sigma,
)
from graphgrowth import _crmath
from graphgrowth.growth import _least_squares
from graphgrowth.svgplot import render_line_chart


@pytest.fixture(scope="module")
def exp_big():
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=10_000, n0=10_000)
    return cfg, build_schedule(cfg)


@pytest.fixture(scope="module")
def exp_100():
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=100, n0=10_000)
    return cfg, build_schedule(cfg)


@pytest.fixture(scope="module")
def gauss_big():
    cfg = ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=100_000, n0=10_000)
    return cfg, build_schedule(cfg)


# ---------------------------------------------------------------------------
# solve_sigma
# ---------------------------------------------------------------------------

def test_solve_sigma_closed_form():
    got = solve_sigma(2.0, 0.0, 0.0, 0.05)
    assert got == pytest.approx(0.5 * math.sqrt(2.05**2 - 4.0), rel=1e-15)
    assert got == pytest.approx(0.225, abs=1e-12)


def test_solve_sigma_small_parameters():
    got = solve_sigma(2.0, 0.001, 0.001, 0.05)
    assert got == pytest.approx(0.2200, abs=1e-4)


def test_solve_sigma_infeasible():
    assert solve_sigma(2.0, 0.1, 0.2, 0.05) is None  # eps_next > half_dist


def test_solve_sigma_vs_root_finder(rng):
    # oracle: brentq on sqrt((r+a)^2 + (2s+a)^2) - r + eps = half_dist
    for _ in range(200):
        r = rng.uniform(0.5, 50.0)
        a = rng.uniform(0.0, 1e-2)
        eps = rng.uniform(0.0, 1e-2)
        half = rng.uniform(1e-4, 0.5)
        got = solve_sigma(r, a, eps, half)
        if got is None:
            continue

        def g(s):
            return math.hypot(r + a, 2 * s + a) - r + eps - half

        want = brentq(g, 0.0, 10.0 * (got + 1.0), xtol=1e-15, rtol=1e-15)
        assert got == pytest.approx(want, rel=1e-10)


def test_sigma_residual_small_on_examples():
    for (r, a, eps, half) in [(2.0, 0.0, 0.0, 0.05), (2.0, 0.001, 0.001, 0.05),
                              (10.0, 1e-6, 1e-6, 0.01)]:
        sigma = solve_sigma(r, a, eps, half)
        assert sigma is not None
        assert sigma_residual(r, a, eps, half, sigma) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(0.5, 100.0),
    a=st.floats(0.0, 1e-2),
    eps=st.floats(0.0, 1e-2),
    half=st.floats(1e-4, 0.5),
    bump=st.floats(1e-6, 0.5),
)
def test_sigma_monotone_in_half_dist(r, a, eps, half, bump):
    s1 = solve_sigma(r, a, eps, half)
    s2 = solve_sigma(r, a, eps, half + bump)
    if s1 is not None:
        assert s2 is not None
        assert s2 >= s1


# ---------------------------------------------------------------------------
# check_hyp2
# ---------------------------------------------------------------------------

def test_check_hyp2_examples():
    assert check_hyp2(2.0, 0.001, 0.001, 0.1)
    assert check_hyp2(2.0, 0.0, 0.0, 0.1)
    assert not check_hyp2(2.0, 0.5, 0.0, 0.1)


def test_check_hyp2_matches_naive_formula():
    # stable form vs naive sqrt form, away from cancellation
    for (r, a, eps, dist) in [(2.0, 0.01, 0.005, 0.3), (7.0, 1e-4, 1e-4, 0.05),
                              (1.0, 0.2, 0.1, 1.5)]:
        naive = math.hypot(a + r, a) - r + eps < dist / 2
        assert check_hyp2(r, a, eps, dist) == naive


# ---------------------------------------------------------------------------
# build_schedule
# ---------------------------------------------------------------------------

def test_build_exp_100_all_feasible(exp_100):
    cfg, rows = exp_100
    assert len(rows) == 100
    assert all(row.hyp2_ok for row in rows)
    assert all(row.sigma_feasible for row in rows)
    assert rows[0].r_n == 9.2104403669765169  # log(10001)
    assert rows[0].r_n == pytest.approx(math.log(10001), rel=1e-15)


def test_build_small_n0_stress():
    rows = build_schedule(ScheduleConfig(RadiiVariant.EXP_RADII, N=5, n0=1))
    assert len(rows) == 5
    assert not all(row.hyp2_ok for row in rows)  # early rows violate hyp2
    assert not rows[0].hyp2_ok


def test_rows_structurally_sound(exp_big):
    cfg, rows = exp_big
    rs = [row.r_n for row in rows]
    assert all(b > a for a, b in zip(rs, rs[1:]))
    assert all(row.mu_n > 0 for row in rows)
    for row in rows[:100]:
        assert row.a_n == row.b_n == row.eps_n == 1 / (row.n + cfg.n0) ** 3


def test_gaussian_smallness_scaling(gauss_big):
    cfg, rows = gauss_big
    for row in (rows[0], rows[999], rows[-1]):
        want = (row.n + cfg.n0) ** -3.0 / (row.n * math.sqrt(math.log(row.n + 2)))
        assert row.a_n == pytest.approx(want, rel=1e-15)


def test_sigma_residual_on_schedule(exp_big, gauss_big):
    for cfg, rows in (exp_big, gauss_big):
        step = max(1, len(rows) // 500)
        for row in rows[::step]:
            if row.sigma_n is None:
                continue
            eps_next = (row.n + 1 + cfg.n0) ** -3.0
            if cfg.variant is RadiiVariant.GAUSSIAN_RADII:
                eps_next /= (row.n + 1) * math.sqrt(math.log(row.n + 3))
            res = sigma_residual(row.r_n, row.a_n, eps_next, row.mu_n / 2,
                                 row.sigma_n)
            assert res < 1e-12, row.n


def test_eta_formula_recomputed():
    # eta_n = 2(a_n + b_{n+1}) + sum_{k>=n} eps_k with the analytic
    # remainder for the truncated cube series and extrapolated b_{N+1}
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=50, n0=100)
    rows = build_schedule(cfg)
    eps = [(k + cfg.n0) ** -3.0 for k in range(1, cfg.N + 1)]
    remainder = 0.5 / (cfg.N + cfg.n0) ** 2
    for i, row in enumerate(rows):
        b_next = (row.n + 1 + cfg.n0) ** -3.0
        tail = sum(eps[i:]) + remainder
        want = 2 * (row.a_n + b_next) + tail
        assert row.eta_n == pytest.approx(want, rel=1e-12)


def test_eta_decreasing_and_small():
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=1000, n0=1000)
    rows = build_schedule(cfg)
    etas = [row.eta_n for row in rows]
    assert all(b < a for a, b in zip(etas[9:], etas[10:]))
    assert rows[-1].eta_n == 1.2562462537468773e-07  # frozen
    assert rows[-1].eta_n < 10.0 / (cfg.N + cfg.n0) ** 2


def test_smallness_ratio():
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=1000, n0=1000)
    rows = build_schedule(cfg)
    eps = np.array([row.eps_n for row in rows])
    tail = np.cumsum(eps[::-1])[::-1] + 0.5 / (cfg.N + cfg.n0) ** 2
    mu = np.array([row.mu_n for row in rows])
    a = np.array([row.a_n for row in rows])
    b = np.array([row.b_n for row in rows])
    ratio = (a + b + eps + tail) / mu
    assert ratio[-1] < ratio[0] < 0.1


def _mp_logs(values):
    """Correctly rounded logs: mpmath at 200 bits, rounded once."""
    with mpmath.workprec(200):
        return [float(mpmath.log(v)) for v in values]


def _reference_columns(cfg):
    """The per-stage scalar evaluation: correctly rounded logs (mpmath)
    and powers (Python int division), solve_sigma and check_hyp2, and the
    tail sums accumulated from the last stage."""
    gauss = cfg.variant is RadiiVariant.GAUSSIAN_RADII
    ks = range(1 + cfg.n0, cfg.N + 2 + cfg.n0)
    log_k = _mp_logs(ks)
    log_gauss = _mp_logs(range(3, cfg.N + 4)) if gauss else None

    if gauss:
        r = [math.sqrt(v / cfg.d) for v in log_k]
        eps = [1 / k ** 3 / (n * math.sqrt(g))
               for n, k, g in zip(range(1, cfg.N + 2), ks, log_gauss)]
    else:
        r = [cfg.theta * v for v in log_k]
        eps = [1 / k ** 3 for k in ks]
    remainder = 0.5 * (1 / (cfg.N + cfg.n0) ** 2)
    if gauss:
        remainder /= cfg.N * math.sqrt(log_gauss[cfg.N - 1])
    tail = [0.0] * cfg.N
    acc = 0.0
    for i in reversed(range(cfg.N)):
        acc += eps[i]
        tail[i] = acc + remainder
    cols = {"n": [], "mu": [], "a": [], "sigma": [], "eta": [],
            "hyp2_ok": [], "sigma_feasible": []}
    for i in range(cfg.N):
        mu = r[i + 1] - r[i]
        sigma = solve_sigma(r[i], eps[i], eps[i + 1], mu / 2.0)
        cols["n"].append(i + 1)
        cols["mu"].append(mu)
        cols["a"].append(eps[i])
        cols["sigma"].append(sigma)
        cols["eta"].append(2.0 * (eps[i] + eps[i + 1]) + tail[i])
        cols["hyp2_ok"].append(check_hyp2(r[i], eps[i], eps[i], mu))
        cols["sigma_feasible"].append(sigma is not None)
    cols["r"] = r
    return cols


_COLUMN_CASES = [
    (RadiiVariant.EXP_RADII, 100_000, 1, 1.0, 1.0),
    (RadiiVariant.GAUSSIAN_RADII, 100_000, 1, 1.0, 1.0),
    (RadiiVariant.EXP_RADII, 2000, 10_000, 1.0, 0.3),
    (RadiiVariant.GAUSSIAN_RADII, 2000, 10_000, 2.5, 1.0),
    (RadiiVariant.EXP_RADII, 1000, 1, 1.0, 0.3),
    (RadiiVariant.GAUSSIAN_RADII, 1000, 1, 2.5, 1.0),
    (RadiiVariant.EXP_RADII, 5, 1, 1.0, 1.0),
    (RadiiVariant.GAUSSIAN_RADII, 5, 1, 1.0, 1.0),
    (RadiiVariant.EXP_RADII, 2, 1, 1.0, 2.0),
    (RadiiVariant.GAUSSIAN_RADII, 1, 1, 1.0, 1.0),
    # the Gaussian logs of n + n0 and of n + 2: one table up to n0 = N + 3
    (RadiiVariant.GAUSSIAN_RADII, 50, 2, 1.0, 1.0),
    (RadiiVariant.GAUSSIAN_RADII, 50, 51, 1.0, 1.0),
    (RadiiVariant.GAUSSIAN_RADII, 50, 52, 1.0, 1.0),
    (RadiiVariant.GAUSSIAN_RADII, 50, 53, 1.0, 1.0),
    (RadiiVariant.GAUSSIAN_RADII, 50, 54, 1.0, 1.0),
]


@pytest.mark.parametrize(
    "variant, N, n0, d, theta", _COLUMN_CASES,
    ids=[f"{v.value}-N{N}-n0_{n0}-d{d}-theta{t}" for v, N, n0, d, t in _COLUMN_CASES])
def test_columns_match_scalar_reference(variant, N, n0, d, theta):
    # exact: every log and power of the build is correctly rounded, so a
    # libm or numpy log or pow anywhere in it (neither is correctly
    # rounded everywhere, and numpy's SIMD kernels vary by host) shows up
    # here as a mismatch
    cfg = ScheduleConfig(variant, N=N, n0=n0, d=d, theta=theta)
    schedule = build_schedule(cfg)
    want = _reference_columns(cfg)
    assert len(schedule) == N
    assert schedule.r.tolist() == want["r"]
    for name in ("n", "mu", "a", "eta", "hyp2_ok", "sigma_feasible"):
        assert getattr(schedule, name).tolist() == want[name], name
    assert [None if np.isnan(s) else s for s in schedule.sigma.tolist()] == want["sigma"]


def test_schedule_is_a_row_sequence():
    cfg = ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=7, n0=1)
    schedule = build_schedule(cfg)
    rows = list(schedule)
    assert [row.n for row in rows] == list(range(1, 8))
    assert schedule[0] == rows[0] and schedule[-1] == rows[-1]
    assert schedule[2:5] == rows[2:5] and schedule[::-3] == rows[::-3]
    assert rows[0].sigma_n is None and not rows[0].sigma_feasible
    assert rows[0].a_n == rows[0].b_n == rows[0].eps_n == schedule.a[0]
    with pytest.raises(IndexError):
        schedule[7]


def test_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(RadiiVariant.EXP_RADII, N=0)
    with pytest.raises(ValueError):
        ScheduleConfig(RadiiVariant.EXP_RADII, N=10, n0=0)
    with pytest.raises(ValueError):
        ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=10, d=-1.0)
    with pytest.raises(ValueError):
        ScheduleConfig(RadiiVariant.EXP_RADII, N=10, theta=0.0)
    with pytest.raises(ValueError):
        ScheduleConfig(RadiiVariant.EXP_RADII, N=10, n0=10 ** 400)


def test_variant_specific_parameters():
    # theta scales only the exp radii and d only the Gaussian radii: the
    # other variant refuses any value but the default 1.0
    with pytest.raises(ValueError, match="theta applies only to the exp radii"):
        ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=10, theta=5.0)
    with pytest.raises(ValueError, match="d applies only to the Gaussian radii"):
        ScheduleConfig(RadiiVariant.EXP_RADII, N=10, d=2.0)
    ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=10, d=2.0, theta=1.0)
    ScheduleConfig(RadiiVariant.EXP_RADII, N=10, d=1.0, theta=2.0)


@pytest.mark.parametrize("theta", [1e308, 2e154])
def test_overflowing_radii_rejected(theta):
    # 1e308: the sigma closed form overflows; 2e154: only the hypothesis
    # denominator sqrt((a+r)^2 + a^2) does
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=3, theta=theta)
    with pytest.raises(ValueError):
        build_schedule(cfg)
    r = theta * math.log(2.0)
    with pytest.raises(ValueError):
        check_hyp2(r, 0.125, 0.125, r)
    if theta == 1e308:
        with pytest.raises(ValueError):
            solve_sigma(r, 0.125, 0.0, r)


def test_variant_parse():
    assert RadiiVariant.parse("exp") is RadiiVariant.EXP_RADII
    assert RadiiVariant.parse("gaussian") is RadiiVariant.GAUSSIAN_RADII
    assert RadiiVariant.parse("ExpRadii") is RadiiVariant.EXP_RADII
    with pytest.raises(ValueError):
        RadiiVariant.parse("cubic")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_n_of_r_definition(exp_100):
    cfg, rows = exp_100
    Rq = rows[50].r_n + rows[49].eta_n  # r_51 + eta_50
    diag = diagnostics(rows, cfg, [Rq])
    assert diag.N_of_R[Rq] == 50


@pytest.mark.parametrize("variant", list(RadiiVariant))
def test_n_of_r_is_the_last_stage_within_R(variant):
    # n0 = 1 leaves T_n = r_{n+1} + eta_n unsorted over the first stages;
    # the count is max{n : T_n <= R} all the same, a Python int
    cfg = ScheduleConfig(variant, N=2000, n0=1)
    rows = build_schedule(cfg)
    T = rows.r[1:] + rows.eta
    assert (np.diff(T) < 0).any()
    rng = np.random.default_rng(29)
    grid = np.concatenate([T, np.nextafter(T, -np.inf), [np.inf, -np.inf, -1.0, 0.0],
                           rng.uniform(T.min() - 1, T.max() + 1, 500)]).tolist()
    diag = diagnostics(rows, cfg, grid)
    for R in grid:
        hits = np.flatnonzero(T <= R)
        want = int(hits[-1]) + 1 if hits.size else 0
        assert type(diag.N_of_R[R]) is int and diag.N_of_R[R] == want


def test_area_lower_equals_quantum_times_count(exp_100):
    cfg, rows = exp_100
    lo, hi = queryable_range(rows)
    grid = list(np.linspace(lo, hi, 9))
    diag = diagnostics(rows, cfg, grid)
    counts = [diag.N_of_R[R] for R in grid]
    assert counts == sorted(counts)
    for R in grid:
        assert diag.area_lower_of_R[R] == cfg.a0 * diag.N_of_R[R]


def test_sigma_partial_sums_nondecreasing(exp_big):
    cfg, rows = exp_big
    diag = diagnostics(rows, cfg)
    sums = diag.sigma_partial_sums
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert len(sums) == len(rows)


def test_sigma_partial_sums_are_a_read_only_column(exp_big):
    cfg, rows = exp_big
    sums = diagnostics(rows, cfg).sigma_partial_sums
    assert sums.dtype == np.float64 and sums.shape == (len(rows),)
    with pytest.raises(ValueError):
        sums[0] = 0.0


def test_eta_max_tail(exp_big):
    cfg, rows = exp_big
    diag = diagnostics(rows, cfg)
    assert diag.eta_max_tail == 1.6333684316685521e-09  # frozen
    want = max(row.eta_n for row in rows[3 * len(rows) // 4:])
    assert diag.eta_max_tail == want
    assert diag.all_hyp2_ok and diag.all_sigma_feasible


def test_exp_counting_slope_near_one():
    # the e^R law emerges once the count dwarfs the index offset n0
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=10_000, n0=1)
    rows = build_schedule(cfg)
    lo, hi = queryable_range(rows)
    diag = diagnostics(rows, cfg, list(np.linspace(lo, hi, 16)))
    Rs = np.array(sorted(diag.N_of_R))
    Ns = np.array([diag.N_of_R[R] for R in Rs], dtype=float)
    mask = Ns > 0
    slope = np.polyfit(Rs[mask], np.log(Ns[mask]), 1)[0]
    assert slope == pytest.approx(1.0663273516241834, rel=1e-12)  # frozen
    assert abs(slope - 1.0 / cfg.theta) <= 0.1


def test_exp_counting_slope_scaled_radii():
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=10_000, n0=1, theta=2.0)
    rows = build_schedule(cfg)
    lo, hi = queryable_range(rows)
    diag = diagnostics(rows, cfg, list(np.linspace(lo, hi, 16)))
    Rs = np.array(sorted(diag.N_of_R))
    Ns = np.array([diag.N_of_R[R] for R in Rs], dtype=float)
    mask = Ns > 0
    slope = np.polyfit(Rs[mask], np.log(Ns[mask]), 1)[0]
    assert abs(slope - 1.0 / cfg.theta) <= 0.1 / cfg.theta


def test_gaussian_counting_quotient(gauss_big):
    # log N(R)/R^2 settles at d; the lower end of the queryable window
    # is still offset-dominated (N(R) <= n0 there), so the asymptotic
    # check applies to the upper half
    cfg, rows = gauss_big
    lo, hi = queryable_range(rows)
    grid = list(np.linspace(lo, hi, 16))
    diag = diagnostics(rows, cfg, grid)
    upper = [R for R in grid if R >= 0.5 * (lo + hi)]
    for R in upper:
        q = math.log(diag.N_of_R[R]) / R**2
        assert abs(q - cfg.d) <= 0.15 * cfg.d


def test_gaussian_sigma_sqrt_n_factor(gauss_big):
    # s_n ~ c/sqrt(n) in the construction's stage counter n + n0
    cfg, rows = gauss_big
    half = len(rows) // 2
    sig = np.array([row.sigma_n for row in rows[half:]])
    stage = np.array([row.n + cfg.n0 for row in rows[half:]], dtype=float)
    v = sig * np.sqrt(stage)
    assert v.max() / v.min() == pytest.approx(1.000001939696985, rel=1e-12)
    plain = sig * np.sqrt(stage - cfg.n0)
    assert plain.max() / plain.min() == pytest.approx(1.0444662207063089, rel=1e-12)
    assert v.max() / v.min() < 3.0


# ---------------------------------------------------------------------------
# completeness trend
# ---------------------------------------------------------------------------

def test_trend_exp_big(exp_big):
    cfg, rows = exp_big
    exponent, diverging = completeness_trend(rows, cfg)
    assert exponent == pytest.approx(-0.44773940691261249, rel=1e-12)  # frozen
    assert -0.65 <= exponent <= -0.35
    assert diverging


def test_trend_gaussian(gauss_big):
    cfg, rows = gauss_big
    exponent, diverging = completeness_trend(rows, cfg)
    assert exponent == pytest.approx(-0.49999265300820472, rel=1e-12)  # frozen
    assert diverging


def test_trend_memory_is_bounded():
    # the fit reads the feasible stages as arrays: no list of 1e5 Python
    # stage numbers, logs or scaled integers is held
    cfg = ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=100_000, n0=1)
    schedule = build_schedule(cfg)
    tracemalloc.start()
    try:
        exponent, diverging = completeness_trend(schedule, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exponent == -0.49984187226735133  # the CLI golden, bit for bit
    assert diverging
    assert peak < 12e6


@pytest.mark.parametrize("variant, n0", [
    (RadiiVariant.GAUSSIAN_RADII, 1),
    (RadiiVariant.GAUSSIAN_RADII, 10_000),
    (RadiiVariant.EXP_RADII, 7),
])
def test_trend_reads_the_build_logs_at_its_n0(monkeypatch, variant, n0):
    # a built schedule lends the trend its log(n + n0) column when cfg.n0
    # is the build's: the same exponent as the logs taken afresh from the
    # same columns without it; another n0 takes its logs afresh from either
    cfg = ScheduleConfig(variant, N=3000, n0=n0)
    built = build_schedule(cfg)
    bare = dataclasses.replace(built, _stage_logs=None)
    other = dataclasses.replace(cfg, n0=n0 + 5)
    want = completeness_trend(bare, cfg)
    sizes = []
    log = _crmath.log
    monkeypatch.setattr(_crmath, "log", lambda x: sizes.append(x.size) or log(x))
    assert completeness_trend(built, cfg) == want
    assert len(sizes) == 1  # the logs of sigma only
    assert completeness_trend(built, other) == completeness_trend(bare, other)
    assert completeness_trend(built, other) != want


def _synthetic_schedule(ns, sigmas):
    """A Schedule of feasible stages numbered ns, with the given sigmas,
    radii 1, 2, 3, ... and every budget 0."""
    size = len(ns)
    return Schedule(n=np.array(ns), r=np.arange(1.0, size + 2), mu=np.ones(size),
                    a=np.zeros(size), sigma=np.array(sigmas, dtype=float),
                    eta=np.zeros(size), hyp2_ok=np.ones(size, dtype=bool),
                    sigma_feasible=np.ones(size, dtype=bool))


def test_trend_synthetic_convergent():
    rows = _synthetic_schedule(range(1, 40), [1.0 / k**2 for k in range(1, 40)])
    exponent, diverging = completeness_trend(rows)
    assert exponent == pytest.approx(-2.0, abs=1e-9)
    assert not diverging


def test_trend_insufficient_rows():
    rows = build_schedule(ScheduleConfig(RadiiVariant.EXP_RADII, N=5, n0=100))
    with pytest.raises(InsufficientRowsError):
        completeness_trend(rows)


def _mp_fit(x, y):
    """Least-squares slope, intercept and rms residual of y on x at 60
    digits, each rounded to a double."""
    with mpmath.workdps(60):
        xs = [mpmath.mpf(v) for v in x]
        ys = [mpmath.mpf(v) for v in y]
        xbar = mpmath.fsum(xs) / len(xs)
        ybar = mpmath.fsum(ys) / len(ys)
        num = mpmath.fsum((a - xbar) * (b - ybar) for a, b in zip(xs, ys))
        den = mpmath.fsum((a - xbar) ** 2 for a in xs)
        slope = num / den
        intercept = ybar - slope * xbar
        ssr = mpmath.fsum((b - intercept - slope * a) ** 2 for a, b in zip(xs, ys))
        return float(slope), float(intercept), float(mpmath.sqrt(ssr / len(xs)))


def _synthetic_stages(seed):
    # stage numbers from 1 to ~1e90; sigma near 1 (log sigma ~ 0), at
    # moderate scales, and with binary exponents from -1070 to 1020
    rng = np.random.default_rng(seed)
    ns = [1] + [int(v) for v in rng.choice(10**6, size=120, replace=False) + 2]
    ns += [int(v) ** 5 for v in rng.integers(10**6, 10**18, size=40)]
    sigmas = [1.0]
    for _ in range(len(ns) - 1):
        kind = rng.integers(3)
        if kind == 0:
            sigmas.append(1.0 + rng.choice([-1.0, 1.0]) * 2.0 ** -int(rng.integers(1, 53)))
        elif kind == 1:
            sigmas.append(math.ldexp(1.0 + rng.random(), int(rng.integers(-60, 61))))
        else:
            sigmas.append(math.ldexp(1.0 + rng.random(), int(rng.integers(-1070, 1021))))
    return _synthetic_schedule(ns, sigmas)


def _growth_samples(n_points):
    # growth-sized data: radii in [1.5, 15], areas from about e^1.4 to
    # e^15, off every model's line by a mixed law and up to 20% noise
    rng = np.random.default_rng(n_points)
    rs = sorted(rng.uniform(1.5, 15.0, n_points).tolist())
    return [GrowthSample(r=r, area_lower=math.exp(0.6 * r + 1.2 * math.log(r) + 0.01 * r * r)
                         * (1.0 + 0.2 * float(rng.random())))
            for r in rs]


def _no_np_log(*args, **kwargs):
    raise AssertionError("the fit must take its logs from libm")


@pytest.mark.parametrize(
    "case", [*range(12), *(f"growth-{k}pt" for k in range(4, 10)), "no-np-log"])
def test_trend_correctly_rounded_synthetic(case, monkeypatch):
    # one exact fit serves the trend, fit_growth and the plot title; its
    # slope, intercept and rms each equal the 60-digit value rounded once
    if isinstance(case, int):
        schedule = _synthetic_stages(case)
        x = _mp_logs(map(float, schedule.n.tolist()))  # the stage number as a double
        y = _mp_logs(schedule.sigma.tolist())
        oracle = _mp_fit(x, y)
        exponent, _ = completeness_trend(schedule)
        assert exponent == oracle[0]
        assert _least_squares(x, y) == oracle
        return
    if case == "no-np-log":
        monkeypatch.setattr(np, "log", _no_np_log)
        samples = _growth_samples(9)
    else:
        samples = _growth_samples(int(case.removeprefix("growth-").removesuffix("pt")))
    rs = [s.r for s in samples]
    areas = [s.area_lower for s in samples]
    y = list(map(math.log, areas))
    for model, x in ((GrowthModel.POLYNOMIAL, list(map(math.log, rs))),
                     (GrowthModel.EXPONENTIAL, rs),
                     (GrowthModel.GAUSSIAN, [r * r for r in rs])):
        fit = fit_growth(samples, model)
        assert (fit.rate, fit.log_intercept, fit.residual_rms) == _mp_fit(x, y)
    svg = render_line_chart(rs, areas, "log-log")
    slope = _mp_fit(list(map(math.log10, rs)), list(map(math.log10, areas)))[0]
    assert f"fitted slope={slope:.17g}</title>" in svg


def test_trend_correctly_rounded_gaussian(monkeypatch):
    cfg = ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=3000, n0=1)
    rows = build_schedule(cfg)
    feas = [r for r in rows if r.sigma_feasible]
    oracle = _mp_fit(_mp_logs(r.n + cfg.n0 for r in feas),
                     _mp_logs(r.sigma_n for r in feas))[0]

    def no_np_log(*args, **kwargs):
        raise AssertionError("completeness_trend must take correctly rounded logs")

    monkeypatch.setattr(np, "log", no_np_log)
    exponent, diverging = completeness_trend(rows, cfg)
    assert exponent == oracle
    assert diverging

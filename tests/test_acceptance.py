"""Acceptance gate: every headline capability at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL line (visible
with -s, or in the captured output of a failing test) and then asserts.
Two criteria are expected to fail against this implementation; the
analysis lives in the decisions ledger kept with the development
notes. They are kept failing on purpose rather than weakened.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graphgrowth import (
    CertifyMethod,
    GraphFamily,
    GrowthModel,
    GrowthSample,
    QuadConfig,
    QuadMode,
    RadiiVariant,
    SampleSource,
    ScheduleConfig,
    SublevelDomain,
    build_schedule,
    certify_packet,
    classify_growth,
    count_packets_in_ball,
    diagnostics,
    ez_area_closed_bound,
    fit_growth,
    graph_area,
    make_packet,
    packet_area_lower,
    packet_growth_lower_bound,
    queryable_range,
    sigma_residual,
    verify_disjoint,
    witness_constants,
)
from graphgrowth.families import (
    bound_abs_f_fprime_batch,
    log_abs_f_fprime_batch,
)
from conftest import mp_f, run_cli, sample_cell

PI = math.pi


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. packet ledger n = 1..1000
# ---------------------------------------------------------------------------

def test_criterion_1_packet_ledger():
    t0 = time.perf_counter()
    rep = verify_disjoint(GraphFamily.SIN_EXP, 1, 1000)

    def one(n):
        method = (CertifyMethod.INTERVAL_PROOF if n <= 100
                  else CertifyMethod.DENSE_SAMPLING)
        p = certify_packet(make_packet(GraphFamily.SIN_EXP, n), method,
                           samples=10_000)
        return p, packet_area_lower(p)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(one, range(1, 1001)))

    rigorous_ok = all(
        p.certificate.method is CertifyMethod.INTERVAL_PROOF
        and p.certificate.certified
        for p, _ in results[:100]
    )
    sampled_ok = all(
        p.certificate.method is CertifyMethod.DENSE_SAMPLING
        and p.certificate.samples >= 10_000
        and p.certificate.f_bound_ok and p.certificate.fprime_bound_ok
        for p, _ in results[100:]
    )
    quantum_ok = all(area == PI / 4096 for _, area in results)
    elapsed = time.perf_counter() - t0
    ok = (rep.all_disjoint and rep.min_gap > 0 and rigorous_ok
          and sampled_ok and quantum_ok and elapsed < 60.0)
    report("C1", ok,
           f"1000 packets disjoint (min gap {rep.min_gap:.3g}), "
           f"interval n<=100 {rigorous_ok}, sampled>=1e4 {sampled_ok}, "
           f"quantum==pi/4096 {quantum_ok}, {elapsed:.1f}s")
    assert rep.all_disjoint and rep.min_gap > 0
    assert rigorous_ok and sampled_ok and quantum_ok
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. exponential growth witness
# ---------------------------------------------------------------------------

def test_criterion_2_exponential_witness():
    samples = [
        GrowthSample(r=float(r),
                     area_lower=packet_growth_lower_bound(GraphFamily.SIN_EXP, float(r)),
                     source=SampleSource.PACKETS)
        for r in range(6, 15)
    ]
    fit = classify_growth(samples)
    c, r0 = witness_constants(samples, GrowthModel.EXPONENTIAL)
    ok = (fit.model is GrowthModel.EXPONENTIAL and 0.5 <= c <= 1.05 and r0 <= 6)
    report("C2", ok, f"model={fit.model.value} c={c:.3f} r0={r0}")
    assert fit.model is GrowthModel.EXPONENTIAL
    assert 0.5 <= c <= 1.05
    assert r0 <= 6


# ---------------------------------------------------------------------------
# 3. quadrature vs packet bound at desk scale
# ---------------------------------------------------------------------------

def test_criterion_3_quadrature_cross_check():
    cfg = QuadConfig(mode=QuadMode.LOWER_BOUND, max_depth=14)
    details = []
    ok = True
    for r in (3.2, 3.6, 4.0, 4.4, 4.8):
        t0 = time.perf_counter()
        lower = graph_area(SublevelDomain(GraphFamily.SIN_EXP, r), cfg).lower
        dt = time.perf_counter() - t0
        bound = packet_growth_lower_bound(GraphFamily.SIN_EXP, r)
        good = lower >= bound - 1e-12 and dt < 120.0
        ok = ok and good
        details.append(f"r={r}: {lower:.2f}>={bound:.4f} ({dt:.1f}s)")
        assert lower >= bound - 1e-12
        assert dt < 120.0
    report("C3", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. e^z quadratic growth  (EXPECTED FAIL, see ledger)
# ---------------------------------------------------------------------------

def test_criterion_4_ez_quadratic():
    cfg = QuadConfig(mode=QuadMode.ESTIMATE, max_depth=12)
    radii = (2.0, 4.0, 8.0, 16.0, 32.0)
    samples = []
    bound_ok = True
    pairs = []
    for R in radii:
        res = graph_area(SublevelDomain(GraphFamily.EXP, R), cfg)
        bound = ez_area_closed_bound(R)
        pairs.append(f"R={R:g}: est {res.estimate:.1f} vs bound {bound:.1f}")
        bound_ok = bound_ok and res.estimate <= bound
        samples.append(GrowthSample(r=R, area_lower=res.lower,
                                    area_estimate=res.estimate))
    fit = classify_growth(samples)
    rate_ok = fit.model is GrowthModel.POLYNOMIAL and abs(fit.rate - 2.0) <= 0.3
    ok = bound_ok and rate_ok
    report("C4", ok,
           f"{'; '.join(pairs)}; model={fit.model.value} rate={fit.rate:.3f} "
           "(the certified lower bound already exceeds the quadratic curve "
           "at R>=8: the area mass near x=log R grows like (2/3)R^3)")
    assert bound_ok, "estimate exceeds the closed-form curve at large R"
    assert rate_ok, f"fitted degree {fit.rate:.3f} not within 2 +/- 0.3"


# ---------------------------------------------------------------------------
# 5. Gaussian packets
# ---------------------------------------------------------------------------

def test_criterion_5_gaussian_packets():
    delta = 1e-2
    rep = verify_disjoint(GraphFamily.SIN_EXP_SQ, 2, 200, delta=delta)
    certified = all(
        certify_packet(make_packet(GraphFamily.SIN_EXP_SQ, n, delta=delta),
                       CertifyMethod.INTERVAL_PROOF).certificate.certified
        for n in range(2, 201)
    )
    rs = (2.5, 3.0, 3.5, 4.0)
    quotients = [math.log(count_packets_in_ball(GraphFamily.SIN_EXP_SQ, r,
                                                delta=delta)) / r**2
                 for r in rs]
    mid = sum(quotients) / len(quotients)
    spread_ok = all(abs(q - mid) <= 0.15 * mid for q in quotients)
    ok = rep.all_disjoint and certified and spread_ok
    report("C5", ok,
           f"disjoint={rep.all_disjoint} certified={certified} "
           f"logN/r^2={['%.3f' % q for q in quotients]} (mean {mid:.3f})")
    assert rep.all_disjoint
    assert certified
    assert spread_ok


# ---------------------------------------------------------------------------
# 6. exponential schedule  (EXPECTED FAIL on the slope clause, see ledger)
# ---------------------------------------------------------------------------

def test_criterion_6_exponential_schedule():
    t0 = time.perf_counter()
    cfg = ScheduleConfig(RadiiVariant.EXP_RADII, N=10_000, n0=10_000)
    rows = build_schedule(cfg)
    flags_ok = all(row.hyp2_ok and row.sigma_feasible for row in rows)

    worst_res = 0.0
    for row in rows:
        eps_next = (row.n + 1 + cfg.n0) ** -3.0
        worst_res = max(worst_res, sigma_residual(row.r_n, row.a_n, eps_next,
                                                  row.mu_n / 2, row.sigma_n))
    res_ok = worst_res < 1e-12

    etas = [row.eta_n for row in rows]
    eta_ok = (all(b < a for a, b in zip(etas[9:], etas[10:]))
              and etas[-1] < 1e-5)

    eps = np.array([row.eps_n for row in rows])
    tail = np.cumsum(eps[::-1])[::-1] + 0.5 / (cfg.N + cfg.n0) ** 2
    mu = np.array([row.mu_n for row in rows])
    ratios = (np.array([r.a_n for r in rows]) + np.array([r.b_n for r in rows])
              + eps + tail) / mu
    small_ok = float(ratios.max()) < 0.1

    lo, hi = queryable_range(rows)
    diag = diagnostics(rows, cfg, list(np.linspace(lo, hi, 16)))
    Rs = np.array(sorted(diag.N_of_R))
    Ns = np.array([diag.N_of_R[R] for R in Rs], dtype=float)
    mask = Ns > 0
    slope = float(np.polyfit(Rs[mask], np.log(Ns[mask]), 1)[0])
    slope_ok = abs(slope - 1.0) <= 0.1

    elapsed = time.perf_counter() - t0
    ok = flags_ok and res_ok and eta_ok and small_ok and slope_ok and elapsed < 30.0
    report("C6", ok,
           f"flags={flags_ok} residual<1e-12={res_ok} (worst {worst_res:.2e}) "
           f"eta={eta_ok} smallness={small_ok} slope={slope:.3f} "
           f"(needs N >> n0 to reach 1; see ledger), {elapsed:.1f}s")
    assert flags_ok
    assert res_ok
    assert eta_ok
    assert small_ok
    assert elapsed < 30.0
    assert slope_ok, f"log N(R) slope {slope:.3f} not within 10% of 1"


# ---------------------------------------------------------------------------
# 7. Gaussian schedule
# ---------------------------------------------------------------------------

def test_criterion_7_gaussian_schedule():
    cfg = ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=100_000, n0=10_000)
    rows = build_schedule(cfg)

    half = len(rows) // 2
    v = np.array([row.sigma_n * math.sqrt(row.n) for row in rows[half:]])
    factor = float(v.max() / v.min())
    factor_ok = factor <= 3.0

    lo, hi = queryable_range(rows)
    grid = list(np.linspace(lo, hi, 16))
    diag = diagnostics(rows, cfg, grid)
    top = sorted(diag.N_of_R)[-3:]
    slopes = []
    for (r1, r2) in [(top[0], top[1]), (top[1], top[2]), (top[0], top[2])]:
        n1, n2 = diag.N_of_R[r1], diag.N_of_R[r2]
        slopes.append(math.log(n2 / n1) / (r2**2 - r1**2))
    growth_ok = all(s >= 0.85 for s in slopes)

    ok = factor_ok and growth_ok
    report("C7", ok,
           f"sigma*sqrt(n) factor={factor:.4f} (<=3), pairwise exp-slopes "
           f"{['%.3f' % s for s in slopes]} (>=0.85)")
    assert factor_ok
    assert growth_ok


# ---------------------------------------------------------------------------
# 8. property suites
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites():
    rng = np.random.default_rng(8)
    half_box = {GraphFamily.SIN_EXP: 4.0, GraphFamily.SIN_EXP_SQ: 2.0,
                GraphFamily.EXP: 40.0}

    # enclosure soundness: 1000 random cells per family
    enclosure_ok = True
    for family in GraphFamily:
        half = half_box[family]
        cells = np.array([sample_cell(rng, -half, half) for _ in range(1000)])
        re_lo, re_hi, im_lo, im_hi = cells.T
        f_lo, f_hi, fp_lo, fp_hi = bound_abs_f_fprime_batch(family, re_lo, re_hi, im_lo, im_hi)
        u = rng.uniform(size=(1000, 8))
        v = rng.uniform(size=(1000, 8))
        xs = re_lo[:, None] + u * (re_hi - re_lo)[:, None]
        ys = im_lo[:, None] + v * (im_hi - im_lo)[:, None]
        log_f, log_fp = log_abs_f_fprime_batch(family, xs, ys)
        enclosure_ok = enclosure_ok and bool(
            np.all(log_f <= f_hi[:, None] + 1e-9)
            and np.all(log_f >= f_lo[:, None] - 1e-9)
            and np.all(log_fp <= fp_hi[:, None] + 1e-9)
            and np.all(log_fp >= fp_lo[:, None] - 1e-9)
        )

    # derivative vs finite difference: 100 points per family, rel 1e-4
    from graphgrowth import eval_fprime
    fd_ok = True
    h = 1e-6
    for family in GraphFamily:
        half = min(half_box[family], 2.0)
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
            want = eval_fprime(family, z)
            if want.log_mag < -3.0:
                continue
            fd = complex((mp_f(family, z + h) - mp_f(family, z - h)) / (2 * h))
            fd_ok = fd_ok and abs(want.to_complex() - fd) / abs(fd) < 1e-4
            checked += 1

    # quadrature monotonicity in r and in depth
    lows_r = [graph_area(SublevelDomain(GraphFamily.SIN_EXP, r),
                         QuadConfig(mode=QuadMode.LOWER_BOUND, max_depth=10)).lower
              for r in (1.5, 2.0, 2.5, 3.0)]
    lows_d = [graph_area(SublevelDomain(GraphFamily.SIN_EXP, 2.0),
                         QuadConfig(mode=QuadMode.LOWER_BOUND, max_depth=d)).lower
              for d in (6, 8, 10, 12)]
    mono_ok = (lows_r == sorted(lows_r)) and (lows_d == sorted(lows_d))

    # determinism: bit-identical CSV across 4 runs
    outs = set()
    for _ in range(4):
        proc = run_cli("area", "--family", "sin-exp", "--r", "1.5,2.5",
                       "--max-depth", "9")
        outs.add(proc.stdout)
    det_ok = len(outs) == 1

    # fit recovery on exact synthetic data to 1e-9
    rs = [1.0, 1.5, 2.0, 2.5, 3.0]
    fits = [
        (fit_growth([GrowthSample(r=r, area_lower=math.exp(2 * r)) for r in rs],
                    GrowthModel.EXPONENTIAL), 2.0),
        (fit_growth([GrowthSample(r=r, area_lower=5 * r**2) for r in rs],
                    GrowthModel.POLYNOMIAL), 2.0),
        (fit_growth([GrowthSample(r=r, area_lower=math.exp(0.5 * r**2)) for r in rs],
                    GrowthModel.GAUSSIAN), 0.5),
    ]
    fit_ok = all(abs(f.rate - want) < 1e-9 and f.residual_rms < 1e-9
                 for f, want in fits)

    ok = enclosure_ok and fd_ok and mono_ok and det_ok and fit_ok
    report("C8", ok,
           f"enclosures={enclosure_ok} fd={fd_ok} monotonicity={mono_ok} "
           f"determinism={det_ok} fit-recovery={fit_ok}")
    assert enclosure_ok
    assert fd_ok
    assert mono_ok
    assert det_ok
    assert fit_ok

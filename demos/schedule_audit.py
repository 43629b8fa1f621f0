"""Generate and audit the induction parameter schedules.

The three-dimensional transplant of each growth rate needs, at every
stage n, a radius r_n, a clearance mu_n, perturbation budgets a_n, b_n,
eps_n, a bridge height sigma_n solving a quadratic balance equation,
and an accumulated error eta_n.  This script builds both radius
variants, spot-checks the structural guarantees, and prints the
counting diagnostics that recover the intended growth law.

Run:  python3 demos/schedule_audit.py
"""

import math

import numpy as np

from graphgrowth import (
    RadiiVariant,
    ScheduleConfig,
    build_schedule,
    completeness_trend,
    diagnostics,
    queryable_range,
    sigma_residual,
)

for variant, N, n0 in ((RadiiVariant.EXP_RADII, 10_000, 10_000),
                       (RadiiVariant.GAUSSIAN_RADII, 100_000, 10_000)):
    cfg = ScheduleConfig(variant, N=N, n0=n0)
    rows = build_schedule(cfg)
    print(f"== {variant.value}  N={N}  n0={n0} ==")

    print(f"{'n':>7} {'r_n':>10} {'mu_n':>11} {'sigma_n':>12} {'eta_n':>12}")
    for row in (rows[0], rows[9], rows[len(rows) // 2], rows[-1]):
        print(f"{row.n:>7} {row.r_n:>10.5f} {row.mu_n:>11.4e}"
              f" {row.sigma_n:>12.5e} {row.eta_n:>12.5e}")

    flags = all(r.hyp2_ok and r.sigma_feasible for r in rows)
    worst = max(
        sigma_residual(r.r_n, r.a_n, (r.n + 1 + cfg.n0) ** -3.0,
                       r.mu_n / 2, r.sigma_n)
        for r in rows[:: max(1, len(rows) // 50)]
    )
    print(f"all rows feasible: {flags}; worst sigma residual {worst:.2e}")

    lo, hi = queryable_range(rows)
    grid = list(np.linspace(lo, hi, 8))
    diag = diagnostics(rows, cfg, grid)
    print(f"queryable R in [{lo:.4f}, {hi:.4f}]")
    for R in sorted(diag.N_of_R):
        k = diag.N_of_R[R]
        note = ""
        if k > 0 and variant is RadiiVariant.GAUSSIAN_RADII:
            note = f"  log(k)/R^2 = {math.log(k) / R**2:.3f}"
        elif k > 0:
            note = f"  log(k)/R   = {math.log(k) / R:.3f}"
        print(f"  N({R:.4f}) = {k}{note}")
    print(f"stage area lower bound at R={hi:.4f}:"
          f" {diag.area_lower_of_R[hi]:.6e}")
    print(f"eta tail max: {diag.eta_max_tail:.3e}")

    exponent, diverging = completeness_trend(rows, cfg)
    print(f"sum sigma_n diverges: {diverging}"
          f" (fitted sigma ~ stage^{exponent:.3f})")
    print()

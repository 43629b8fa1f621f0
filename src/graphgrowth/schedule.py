"""Inductive parameter schedules for shell-by-shell surface assembly.

A schedule is a finite table of stages n = 1..N.  Stage n carries a
target radius r_n (two variants: theta*log(n+n0) growing like log, or
sqrt(log(n+n0)/d) growing like the Gaussian counting radii), the gap
mu_n = r_{n+1} - r_n to the next stage, and three smallness parameters
a_n = b_n = eps_n, defaulting to (n+n0)^-3 for the log radii and to
(n+n0)^-3 / (n*sqrt(log(n+2))) for the Gaussian radii (whose
inter-radius gaps shrink faster, so the parameters must too).

Two scalar conditions drive each stage:

  sigma equation    sqrt((r+a)^2 + (2*sigma+a)^2) - r + eps_next = mu/2
                    solved in closed form for sigma; infeasible when no
                    positive sigma exists.

  hypothesis check  sqrt((a+r)^2 + a^2) - r + eps < dist/2
                    evaluated in a cancellation-free form.

The properness budget eta_n = 2*(a_n + b_{n+1}) + sum_{k>=n} eps_k uses
the full infinite tail: the cube series beyond stage N is bounded
analytically by the integral remainder 1/2 * (N+n0)^-2, so finite
tables still honor the infinite-sum definition.

Diagnostics count how many stages fit below a query radius R
(N_of_R, via the thickened outer radii r_{n+1} + eta_n), convert counts
into certified area lower bounds a0 * N(R), and track the partial sums
of sigma plus a power-law trend of sigma against n (a divergent sigma
series is the completeness indicator for the limiting surface).

build_schedule returns a Schedule: one numpy column per quantity, with
r carrying N+1 entries so that r_{n+1} is the slice r[1:].  The logs
and the powers (n+n0)^-3 and (N+n0)^-2 are correctly rounded (_crmath);
every other step is an IEEE-exact numpy operation (+ - * /, sqrt,
comparisons, a sequential cumsum), so each column equals the scalar
per-stage evaluation with solve_sigma and check_hyp2 bit for bit, and
depends neither on the host's libm nor on numpy's SIMD kernels.  The
scalar functions stay as that reference.  A Schedule is also a sequence
of ScheduleRow values, built on demand; diagnostics and the trend take
a Schedule and read its columns.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _crmath
from .growth import _least_squares
from .quadrature import GuardedResourceError

__all__ = [
    "RadiiVariant",
    "ScheduleConfig",
    "ScheduleRow",
    "Schedule",
    "ScheduleDiagnostics",
    "InsufficientRowsError",
    "solve_sigma",
    "sigma_residual",
    "check_hyp2",
    "build_schedule",
    "diagnostics",
    "completeness_trend",
]


class RadiiVariant(Enum):
    EXP_RADII = "ExpRadii"
    GAUSSIAN_RADII = "GaussianRadii"

    @classmethod
    def parse(cls, text: str) -> "RadiiVariant":
        key = text.strip().lower()
        if key in ("exp", "expradii"):
            return cls.EXP_RADII
        if key in ("gaussian", "gauss", "gaussianradii"):
            return cls.GAUSSIAN_RADII
        raise ValueError(f"unknown radii variant {text!r}")


# solve_sigma, check_hyp2 and build_schedule refuse radii whose stage
# equations overflow: an inf sigma would read as feasible, and an inf
# hypothesis denominator would drop the a-terms from the left side.
_OVERFLOW = "radii too large: the stage equations overflow a double"


class InsufficientRowsError(ValueError):
    """Too few feasible rows for the requested trend analysis."""


# Most stages one schedule (schedule --N) may hold, 10 times the
# benchmark's 1e5 stages.  A 1e6-stage schedule peaked at 240 MB of
# resident memory for --format json (139 MB for csv); past the budget
# the columns would grow memory until the host kills the process.
_STAGE_BUDGET = 1 << 20


@dataclass(frozen=True)
class ScheduleConfig:
    variant: RadiiVariant
    N: int
    n0: int = 1
    d: float = 1.0
    theta: float = 1.0
    a0: float = math.pi / 4096.0

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.n0 + self.N + 1 > sys.float_info.max:
            raise ValueError("n0 + N + 1 exceeds the largest double")
        if not (self.d > 0):
            raise ValueError("d must be > 0")
        if not (self.theta > 0):
            raise ValueError("theta must be > 0")
        if self.variant is RadiiVariant.EXP_RADII and self.d != 1.0:
            raise ValueError("d applies only to the Gaussian radii")
        if self.variant is RadiiVariant.GAUSSIAN_RADII and self.theta != 1.0:
            raise ValueError("theta applies only to the exp radii")
        if not (self.a0 > 0):
            raise ValueError("a0 must be > 0")


@dataclass(frozen=True)
class ScheduleRow:
    n: int
    r_n: float
    mu_n: float
    a_n: float
    b_n: float
    eps_n: float
    sigma_n: float | None
    eta_n: float
    hyp2_ok: bool
    sigma_feasible: bool


@dataclass(frozen=True, eq=False)
class ScheduleDiagnostics:
    sigma_partial_sums: np.ndarray  # read-only float64, one entry per stage
    eta_max_tail: float
    N_of_R: dict[float, int]
    area_lower_of_R: dict[float, float]
    all_hyp2_ok: bool
    all_sigma_feasible: bool


def solve_sigma(r: float, a: float, eps_next: float, half_dist: float) -> float | None:
    """Solve sqrt((r+a)^2 + (2s+a)^2) = r + half_dist - eps_next for s > 0.

    Returns None when the stage is infeasible (no positive solution).
    Closed form: with h = half_dist - eps_next the squared equation gives
    (2s+a)^2 = (r+h)^2 - (r+a)^2 = (2r+h+a)*(h-a), so a positive root
    needs that product to exceed a^2.
    """
    if not (r > 0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    if a < 0 or eps_next < 0 or half_dist <= 0:
        raise ValueError("need a >= 0, eps_next >= 0, half_dist > 0")
    h = half_dist - eps_next
    if h <= a:
        return None
    q = (2.0 * r + h + a) * (h - a)
    if not math.isfinite(q):
        raise ValueError(_OVERFLOW)
    if q <= a * a:
        return None
    return 0.5 * (math.sqrt(q) - a)


def sigma_residual(r: float, a: float, eps_next: float, half_dist: float,
                   sigma: float) -> float:
    """Relative defect of sigma in the squared stage equation.

    The linear form of the equation subtracts two nearly equal large
    numbers and cannot resolve below roughly sqrt-epsilon relative to
    half_dist, so the residual contract is stated on the squared form:

        |(r+a)^2 + (2*sigma+a)^2 - (r+h)^2| / (r+h)^2
    """
    h = half_dist - eps_next
    lhs = (r + a) ** 2 + (2.0 * sigma + a) ** 2
    rhs = (r + h) ** 2
    return abs(lhs - rhs) / rhs


def check_hyp2(r: float, a: float, eps: float, dist: float) -> bool:
    """Stage hypothesis sqrt((a+r)^2 + a^2) - r + eps < dist/2.

    Evaluated as (2*a*r + 2*a^2)/(sqrt((a+r)^2 + a^2) + r) + eps, which
    avoids the catastrophic cancellation of the direct form when a is
    many orders below r.
    """
    if not (r > 0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    if a < 0 or eps < 0 or dist <= 0:
        raise ValueError("need a >= 0, eps >= 0, dist > 0")
    den = math.sqrt((a + r) * (a + r) + a * a) + r
    if not math.isfinite(den):
        raise ValueError(_OVERFLOW)
    lhs = (2.0 * a * r + 2.0 * a * a) / den + eps
    return lhs < dist / 2.0


@dataclass(frozen=True, eq=False)
class Schedule(Sequence[ScheduleRow]):
    """A built schedule as equal-length numpy columns, one entry per stage.

    r has N+1 entries, so r[1:] holds r_{n+1}; a holds a_n = b_n = eps_n;
    sigma is NaN where the stage is infeasible.  Indexing and iteration
    build ScheduleRow values on demand.  A built schedule also keeps
    (n0, log(n + n0) for n = 1..N+1), the correctly rounded logs its
    radii came from, for completeness_trend.
    """

    n: np.ndarray
    r: np.ndarray
    mu: np.ndarray
    a: np.ndarray
    sigma: np.ndarray
    eta: np.ndarray
    hyp2_ok: np.ndarray
    sigma_feasible: np.ndarray
    _stage_logs: tuple[int, np.ndarray] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, index: int | slice) -> ScheduleRow | list[ScheduleRow]:
        if isinstance(index, slice):
            return list(self._rows(index))
        i = range(len(self))[index]
        return next(self._rows(slice(i, i + 1)))

    def __iter__(self) -> Iterator[ScheduleRow]:
        return self._rows(slice(None))

    def _rows(self, index: slice) -> Iterator[ScheduleRow]:
        a = self.a[index].tolist()
        sigma = [None if s != s else s for s in self.sigma[index].tolist()]
        return map(ScheduleRow, self.n[index].tolist(), self.r[:-1][index].tolist(),
                   self.mu[index].tolist(), a, a, a, sigma, self.eta[index].tolist(),
                   self.hyp2_ok[index].tolist(), self.sigma_feasible[index].tolist())


def _integers(lo: int, count: int) -> np.ndarray:
    """float(k) for the count integers k from lo on."""
    if lo + count <= 2 ** 53:
        return np.arange(lo, lo + count, dtype=float)
    return np.array(range(lo, lo + count), dtype=float)


@np.errstate(over="ignore")
def build_schedule(cfg: ScheduleConfig) -> Schedule:
    """Emit stages 1..N as columns; flags record infeasibility, rows are
    never suppressed (the table is an audit log, not a gatekeeper).
    Raises GuardedResourceError, before anything is allocated, when N is
    past _STAGE_BUDGET.

    The only transcendentals are correctly rounded, once per stage:
    log(n+n0) and (n+n0)^-3, plus log(n+2) for the Gaussian factor (one
    table of logs where the two runs of integers meet).
    The rest is IEEE-exact numpy arithmetic (+ - * /, sqrt, comparisons,
    a sequential cumsum), so every column equals the per-stage scalar
    evaluation with solve_sigma and check_hyp2 bit for bit, on any host.
    """
    N, n0 = cfg.N, cfg.n0
    if N > _STAGE_BUDGET:
        raise GuardedResourceError(
            f"N={N} stages, over the budget of {_STAGE_BUDGET}; lower N")
    n = np.arange(1, N + 2)
    ks = _integers(n0 + 1, N + 1)
    eps = _crmath.recip_power(ks, 3)
    if cfg.variant is RadiiVariant.EXP_RADII:
        log_k = _crmath.log(ks)
        r = cfg.theta * log_k
    else:
        if n0 <= N + 3:  # the logs of n + n0 and of n + 2 cover one run of integers
            lo = min(n0 + 1, 3)
            logs = _crmath.log(np.arange(lo, max(n0 + N + 2, N + 4), dtype=float))
            log_k, log_gauss = logs[n0 + 1 - lo:][:N + 1], logs[3 - lo:][:N + 1]
        else:
            log_k, log_gauss = _crmath.log(ks), _crmath.log(_integers(3, N + 1))
        r = np.sqrt(log_k / cfg.d)
        gauss = n * np.sqrt(log_gauss)
        eps = eps / gauss

    # the checks solve_sigma and check_hyp2 make on every stage
    r_n, a = r[:-1], eps[:-1]
    if not np.all((r_n > 0) & np.isfinite(r_n)):
        raise ValueError("r must be positive and finite")
    mu = r[1:] - r_n
    half = mu / 2.0
    if np.any(half <= 0):
        raise ValueError("need a >= 0, eps_next >= 0, half_dist > 0")

    eps_next = eps[1:]
    h = half - eps_next
    q = (2.0 * r_n + h + a) * (h - a)
    feasible = (h > a) & (q > a * a)
    den = np.sqrt((a + r_n) * (a + r_n) + a * a) + r_n
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(den))):
        raise ValueError(_OVERFLOW)
    sigma = 0.5 * (np.sqrt(q, out=np.full(N, np.nan), where=feasible) - a)
    lhs = (2.0 * a * r_n + 2.0 * a * a) / den + a

    # sum_{k>=n} eps_k; the cube series tail obeys the integral comparison
    # sum_{k>N} (k+n0)^-3 <= 1/2 * (N+n0)^-2, and the Gaussian factor
    # 1/(k*sqrt(log(k+2))) is decreasing, so the same bound scaled by its
    # value at k=N dominates that tail
    remainder = 0.5 * float(_crmath.recip_power(float(N + n0), 2))
    if cfg.variant is RadiiVariant.GAUSSIAN_RADII:
        remainder /= float(gauss[N - 1])
    suffix = np.cumsum(a[::-1])[::-1] + remainder

    return Schedule(
        n=n[:-1],
        r=r,
        mu=mu,
        a=a,
        sigma=sigma,
        eta=2.0 * (a + eps_next) + suffix,
        hyp2_ok=lhs < half,
        sigma_feasible=feasible,
        _stage_logs=(n0, log_k),
    )


def _thickened_outer_radii(schedule: Schedule) -> np.ndarray:
    """T_n = r_{n+1} + eta_n, the radius certainly containing stage n.

    Usually increasing, but for tiny n0 the eta drop can outrun the
    radius growth over the first few stages, so no order is assumed."""
    return schedule.r[1:] + schedule.eta


def queryable_range(schedule: Schedule) -> tuple[float, float]:
    """Radii between which stage counting is informative (1 <= N(R) <= N)."""
    T = _thickened_outer_radii(schedule)
    return float(np.min(T)), float(T[-1])


def diagnostics(schedule: Schedule, cfg: ScheduleConfig,
                radii_query: Sequence[float] | None = None) -> ScheduleDiagnostics:
    """Audit summary of a built schedule.

    N_of_R maps each query radius R to the largest n whose thickened
    outer radius r_{n+1} + eta_n stays below R (0 when even the first
    stage does not fit); area_lower_of_R multiplies the count by the
    per-stage area quantum a0.  The default query grid is 16 evenly
    spaced radii across the queryable range.  eta_max_tail is the
    largest eta over the last quarter of the table.  A NaN query radius
    raises ValueError; inf and negative radii count all stages and none.
    """
    if not schedule:
        raise ValueError("diagnostics needs at least one row")
    T = _thickened_outer_radii(schedule)
    if radii_query is None:
        radii_query = np.linspace(np.min(T), T[-1], 16).tolist()
    elif any(math.isnan(R) for R in radii_query):
        raise ValueError("query radius must not be nan")

    sigma_vals = np.where(np.isnan(schedule.sigma), 0.0, schedule.sigma)
    partial = np.cumsum(sigma_vals)
    partial.flags.writeable = False
    tail_start = (3 * len(schedule)) // 4

    # max{n : T_n <= R} (stages from 1, 0 when none qualify) is the number
    # of suffix minima of T at most R, which are nondecreasing
    suffix_min = np.minimum.accumulate(T[::-1])[::-1]
    counts = np.searchsorted(suffix_min, radii_query, side="right").tolist()
    n_of_r = dict(zip(map(float, radii_query), counts))
    area_of_r = {R: cfg.a0 * count for R, count in n_of_r.items()}

    return ScheduleDiagnostics(
        sigma_partial_sums=partial,
        eta_max_tail=float(np.max(schedule.eta[tail_start:])),
        N_of_R=n_of_r,
        area_lower_of_R=area_of_r,
        all_hyp2_ok=bool(schedule.hyp2_ok.all()),
        all_sigma_feasible=bool(schedule.sigma_feasible.all()),
    )


# Fewest feasible rows completeness_trend fits a power law to
_TREND_ROWS = 20


def completeness_trend(schedule: Schedule,
                       cfg: ScheduleConfig | None = None) -> tuple[float, bool]:
    """Power-law exponent of sigma against the stage index.

    Fits log(sigma) = p*log(stage) + const by least squares and reports
    (p, p > -1): exponents above -1 mean the sigma series diverges,
    the evidence needed for completeness of the limiting surface.
    Raises InsufficientRowsError below _TREND_ROWS feasible rows.

    The stage index is n + n0 when cfg is given: row numbering restarts
    at 1 for every schedule, but the construction's own stage counter is
    offset by n0, and the expected -1/2 law holds in that counter.  With
    no cfg the raw row number is used (apt for a synthetic schedule).

    The logs are correctly rounded (_crmath) and p is the exact
    least-squares slope over them rounded once (growth._least_squares),
    so it depends on no libm, no numpy log kernel and no summation order.
    A built schedule read with its own n0 lends the logs of n + n0 that
    its radii were computed from; they are the same doubles.
    """
    keep = schedule.sigma_feasible & (schedule.sigma > 0)
    count = int(np.count_nonzero(keep))
    if count < _TREND_ROWS:
        raise InsufficientRowsError(
            f"need at least {_TREND_ROWS} feasible rows, got {count}"
        )
    built = schedule._stage_logs
    if cfg is not None and built is not None and built[0] == cfg.n0:
        log_stages = built[1][:-1][keep]
    else:
        offset = cfg.n0 if cfg is not None else 0
        stages = schedule.n[keep]
        if stages.dtype.kind == "i" and offset + int(stages.max()) <= 2 ** 53:
            stages = (stages + offset).astype(float)
        else:  # float() of each exact stage number
            stages = (stages.astype(object) + offset).astype(float)
        log_stages = _crmath.log(stages)
    exponent = _least_squares(log_stages, _crmath.log(schedule.sigma[keep]))[0]
    return exponent, exponent > -1.0

"""Classify area growth and extract certified witness constants.

Given samples (r, area(r)) the three candidate laws are

    Polynomial:   area ~ C * r^p        (linear in log-log coordinates)
    Exponential:  area ~ C * e^(c*r)    (linear in semilog coordinates)
    Gaussian:     area ~ C * e^(c*r^2)  (linear in log vs r^2 coordinates)

Each model is fit by ordinary least squares in its linearizing
coordinates; classification picks the model with the smallest RMS
residual.  witness_constants then turns a fit into a checked inequality

    area(r) >= C * exp(c * m(r))   for all samples with r >= r0

(m(r) = log r, r or r^2 according to the model) by fixing C at the
fitted intercept
and searching the largest c on a fixed granularity grid for which the
inequality holds at every sample beyond some r0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "GrowthModel",
    "SampleSource",
    "GrowthSample",
    "GrowthFit",
    "InsufficientSamplesError",
    "NonPositiveAreaError",
    "NoWitnessError",
    "fit_growth",
    "classify_growth",
    "witness_constants",
]

MIN_SAMPLES = 4


class GrowthModel(Enum):
    POLYNOMIAL = "Polynomial"
    EXPONENTIAL = "Exponential"
    GAUSSIAN = "Gaussian"


class SampleSource(Enum):
    QUADRATURE = "Quadrature"
    PACKETS = "Packets"
    SCHEDULE = "Schedule"


class InsufficientSamplesError(ValueError):
    """Fewer samples than the fit requires."""


class NonPositiveAreaError(ValueError):
    """Areas must be strictly positive to fit in log coordinates."""


class NoWitnessError(Exception):
    """No positive witness rate validates against the samples."""


@dataclass(frozen=True)
class GrowthSample:
    r: float
    area_lower: float
    area_estimate: float | None = None
    source: SampleSource = SampleSource.QUADRATURE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError("sample radius must be positive and finite")
        if math.isnan(self.area_lower) or self.area_lower < 0:
            raise ValueError("area_lower must be nonnegative")


@dataclass(frozen=True)
class GrowthFit:
    model: GrowthModel
    rate: float
    log_intercept: float
    residual_rms: float
    r_range: tuple[float, float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if math.isnan(self.residual_rms) or self.residual_rms < 0:
            raise ValueError("residual_rms must be nonnegative")


def _model_coord(model: GrowthModel, rs: np.ndarray) -> np.ndarray:
    if model is GrowthModel.POLYNOMIAL:
        return np.log(rs)
    if model is GrowthModel.EXPONENTIAL:
        return rs.copy()
    return rs * rs


def _areas(samples: Sequence[GrowthSample], use_estimate: bool) -> np.ndarray:
    if use_estimate:
        vals = [s.area_estimate for s in samples]
        if any(v is None for v in vals):
            raise ValueError("use_estimate requires every sample to carry an estimate")
        return np.array(vals, dtype=float)
    return np.array([s.area_lower for s in samples], dtype=float)


def _validate(samples: Sequence[GrowthSample], use_estimate: bool):
    if len(samples) < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"need at least {MIN_SAMPLES} samples, got {len(samples)}"
        )
    rs = np.array([s.r for s in samples], dtype=float)
    if not np.all(np.diff(rs) > 0):
        raise ValueError("samples must be sorted by strictly increasing r")
    areas = _areas(samples, use_estimate)
    if not np.all(areas > 0):
        raise NonPositiveAreaError("all areas must be strictly positive")
    return rs, areas


def fit_growth(samples: Sequence[GrowthSample], model: GrowthModel,
               use_estimate: bool = False) -> GrowthFit:
    """Least-squares fit of one growth model in linearizing coordinates.

    rate is the slope (the exponent p for POLYNOMIAL, the rate c
    otherwise); log_intercept is the fitted log C.
    """
    rs, areas = _validate(samples, use_estimate)
    x = _model_coord(model, rs)
    y = np.log(areas)
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate abscissae: all model coordinates equal")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    rms = float(math.sqrt(float(np.mean(resid * resid))))
    return GrowthFit(
        model=model,
        rate=slope,
        log_intercept=intercept,
        residual_rms=rms,
        r_range=(float(rs[0]), float(rs[-1])),
    )


# Tie preference when residuals coincide: simpler model wins.
_MODEL_ORDER = (GrowthModel.POLYNOMIAL, GrowthModel.EXPONENTIAL, GrowthModel.GAUSSIAN)


def classify_growth(samples: Sequence[GrowthSample],
                    use_estimate: bool = False) -> GrowthFit:
    """Fit all three models and return the one with smallest RMS residual."""
    fits = [fit_growth(samples, m, use_estimate) for m in _MODEL_ORDER]
    best = fits[0]
    for fit in fits[1:]:
        if fit.residual_rms < best.residual_rms:
            best = fit
    return best


def witness_constants(samples: Sequence[GrowthSample], model: GrowthModel,
                      granularity: float = 1e-3,
                      use_estimate: bool = False) -> tuple[float, float]:
    """Largest grid rate c (and earliest onset r0) with a verified bound.

    Fixes C = exp(fitted log_intercept) and returns (c, r0) where c is
    the largest positive multiple of granularity such that

        area(r) >= C * exp(c * m(r))   for every sample with r >= r0,

    with r0 ranging over the sample radii from earliest to latest.  The
    returned pair is re-verified sample by sample before returning.
    Raises NoWitnessError when no positive grid rate works even from the
    last sample onward.
    """
    if not (granularity > 0):
        raise ValueError("granularity must be positive")
    rs, areas = _validate(samples, use_estimate)
    fit = fit_growth(samples, model, use_estimate)
    log_c_const = fit.log_intercept
    m = _model_coord(model, rs)
    y = np.log(areas)
    if np.any(m <= 0):
        raise ValueError(
            "witness search needs positive model coordinates "
            "(r > 1 for the polynomial model)"
        )

    for i in range(len(rs)):
        mi = m[i:]
        yi = y[i:]
        # largest k with all(yi >= log_c_const + k*granularity*mi):
        # the slack (yi - log_c_const)/mi caps k pointwise.
        caps = (yi - log_c_const) / mi
        k = int(math.floor(float(np.min(caps)) / granularity))
        if k < 1:
            continue
        # re-verify (floor can sit exactly on the boundary)
        while k >= 1 and not np.all(yi >= log_c_const + k * granularity * mi):
            k -= 1
        if k >= 1:
            return (k * granularity, float(rs[i]))
    raise NoWitnessError(
        f"no positive witness rate at granularity {granularity} for {model.value}"
    )

"""Classify area growth and extract certified witness constants.

Given samples (r, area(r)) the three candidate laws are

    Polynomial:   area ~ C * r^p        (linear in log-log coordinates)
    Exponential:  area ~ C * e^(c*r)    (linear in semilog coordinates)
    Gaussian:     area ~ C * e^(c*r^2)  (linear in log vs r^2 coordinates)

Each model is fit by ordinary least squares in its linearizing
coordinates; classification picks the model with the smallest RMS
residual.  The fit (_least_squares, which also gives the schedule trend
and the plot title) is exact over math.log values, with slope, intercept
and RMS each rounded once, so it does not depend on the host's numpy.
witness_constants then turns a fit into a checked inequality

    area(r) >= C * exp(c * m(r))   for all samples with r >= r0

(m(r) = log r, r or r^2 according to the model) by fixing C at the
fitted intercept
and searching the largest c on a fixed granularity grid for which the
inequality holds at every sample beyond some r0.
"""

from __future__ import annotations

import math
import operator
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


def _scaled_ints(values: Sequence[float]) -> tuple[list[int], int]:
    """Integers M_i and a common k with values[i] == M_i * 2**k exactly.

    frexp mantissas scaled by 2**53 are integers that fit in int64 (for
    subnormals too); shifting each to the smallest exponent is exact."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("least squares needs finite values")
    mant, exp = np.frexp(arr)
    ints = (mant * 2.0**53).astype(np.int64).tolist()
    low = int(exp.min())
    return list(map(operator.lshift, ints, (exp - low).tolist())), low - 53


def _rounded_ratio(num: int, den: int, shift: int) -> float:
    """num / den * 2**shift for den > 0, rounded once (+-inf past the range)."""
    try:
        return (num << shift) / den if shift >= 0 else num / (den << -shift)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _least_squares(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """(slope, intercept, rms residual) of the least-squares line of y on x.

    With x = X*2**kx, y = Y*2**ky for integers X, Y and S for sums, the
    slope num/den (num = n*SXY - SX*SY, den = n*SXX - SX^2), intercept
    (SY*SXX - SX*SXY)/den and rms^2 ((n*SYY - SY^2)*den - num^2)/(n^2*den)
    are exact rationals, each rounded once: by int division, and by an
    isqrt of at least 55 bits with a sticky last bit.  Raises ValueError
    when den = 0 (all x equal) or a value is not finite.
    """
    X, kx = _scaled_ints(x)
    Y, ky = _scaled_ints(y)
    n = len(X)
    sx, sy = sum(X), sum(Y)
    sxx = sum(map(operator.mul, X, X))
    sxy = sum(map(operator.mul, X, Y))
    den = n * sxx - sx * sx
    if den == 0:
        raise ValueError("degenerate abscissae: all x values equal")
    num = n * sxy - sx * sy
    p = (n * sum(map(operator.mul, Y, Y)) - sy * sy) * den - num * num
    q = n * n * den
    # rms = sqrt(p/q) * 2**ky; scale p/q by 4**m so its root has >= 55 bits
    m = max(0, (q.bit_length() - p.bit_length() + 112) // 2)
    scaled = p << (2 * m)
    root = math.isqrt(scaled // q)
    if root * root * q != scaled:
        root |= 1
    return (_rounded_ratio(num, den, ky - kx),
            _rounded_ratio(sy * sxx - sx * sxy, den, ky),
            _rounded_ratio(root, 1, ky - m))


def _model_coord(model: GrowthModel, rs: Sequence[float]) -> list[float]:
    if model is GrowthModel.POLYNOMIAL:
        return list(map(math.log, rs))
    if model is GrowthModel.EXPONENTIAL:
        return rs
    return [r * r for r in rs]


def _fit(samples: Sequence[GrowthSample], model: GrowthModel, use_estimate: bool):
    """The fit with the coordinates it was made in: (fit, rs, x, y)."""
    if len(samples) < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"need at least {MIN_SAMPLES} samples, got {len(samples)}"
        )
    rs = [float(s.r) for s in samples]
    if not all(map(operator.lt, rs, rs[1:])):
        raise ValueError("samples must be sorted by strictly increasing r")
    areas = [s.area_estimate if use_estimate else s.area_lower for s in samples]
    if any(a is None for a in areas):
        raise ValueError("use_estimate requires every sample to carry an estimate")
    if not all(a > 0 for a in areas):
        raise NonPositiveAreaError("all areas must be strictly positive")
    x = _model_coord(model, rs)
    y = list(map(math.log, areas))
    # _least_squares gives (rate, log_intercept, residual_rms) in field order
    fit = GrowthFit(model, *_least_squares(x, y), r_range=(rs[0], rs[-1]))
    return fit, rs, x, y


def fit_growth(samples: Sequence[GrowthSample], model: GrowthModel,
               use_estimate: bool = False) -> GrowthFit:
    """Least-squares fit of one growth model in linearizing coordinates.

    rate is the slope (the exponent p for POLYNOMIAL, the rate c
    otherwise); log_intercept is the fitted log C.
    """
    return _fit(samples, model, use_estimate)[0]


# Tie preference when residuals coincide: simpler model wins.
_MODEL_ORDER = (GrowthModel.POLYNOMIAL, GrowthModel.EXPONENTIAL, GrowthModel.GAUSSIAN)


def classify_growth(samples: Sequence[GrowthSample],
                    use_estimate: bool = False) -> GrowthFit:
    """Fit all three models and return the one with smallest RMS residual."""
    return min((fit_growth(samples, m, use_estimate) for m in _MODEL_ORDER),
               key=operator.attrgetter("residual_rms"))


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
    fit, rs, m, y = _fit(samples, model, use_estimate)
    log_c_const = fit.log_intercept
    m, y = np.array(m), np.array(y)
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
            return (k * granularity, rs[i])
    raise NoWitnessError(
        f"no positive witness rate at granularity {granularity} for {model.value}"
    )

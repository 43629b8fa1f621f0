"""Classify area growth and extract certified witness constants.

Given samples (r, area(r)) the three candidate laws are

    Polynomial:   area ~ C * r^p        (linear in log-log coordinates)
    Exponential:  area ~ C * e^(c*r)    (linear in semilog coordinates)
    Gaussian:     area ~ C * e^(c*r^2)  (linear in log vs r^2 coordinates)

Each model is fit by ordinary least squares in its linearizing
coordinates; classification picks the model with the smallest RMS
residual.  The fit (_least_squares, which also gives the schedule trend
and the plot title) is exact over its inputs, with slope, intercept and
RMS each rounded once, so it does not depend on the host's numpy.  The
inputs here are math.log values, once per sample; the schedule trend
fits correctly rounded logs (_crmath).

Its five sums (of X, Y, X^2, XY and Y^2, with each value written as an
integer X = M * 2**(e - min e) from its int64 frexp mantissa |M| < 2**53)
are exact integers computed in numpy.  Each M is split into three
18-bit limbs, two unsigned and the top one signed, so a limb product is
below 2**36 in magnitude and a column of products of equal limb weight
is below 3 * 2**36.  np.bincount sums each column per exponent over
chunks of at most _FIT_CHUNK = 2**14 terms, so every float64 partial
sum is an integer below 3 * 2**50 < 2**52: each addition is exact
and the order does not matter.  The nonzero bins are then shifted into
Python ints.  No transcendental and no SIMD-dependent rounding is
involved, so the fit is portable as well as exact.

witness_constants then turns a fit into a checked inequality

    area(r) >= C * exp(c * m(r))   for all samples with r >= r0

(m(r) = log r, r or r^2 according to the model) by fixing C at the
fitted intercept
and searching the largest c on the grid of multiples of _WITNESS_STEP =
1e-3 for which the inequality holds at every sample beyond some r0.
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

# Grid step of the witness rate c in witness_constants
_WITNESS_STEP = 1e-3


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


# Terms per bincount in _least_squares (the bound in the module docstring)
_FIT_CHUNK = 1 << 14
_LIMB = (1 << 18) - 1


def _limbs(mant: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """frexp mantissas as integers M = L0 + L1*2**18 + L2*2**36 below 2**53,
    split into float64 limbs: L0, L1 in [0, 2**18), L2 in [-2**17, 2**17)."""
    m = (mant * 2.0**53).astype(np.int64)
    return ((m & _LIMB).astype(float), ((m >> 18) & _LIMB).astype(float),
            (m >> 36).astype(float))


def _limb_products(a, b) -> tuple[np.ndarray, ...]:
    """Columns c = 0..4 of the limb products a_j*b_k with j + k = c."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
            a1 * b2 + a2 * b1, a2 * b2)


def _fold(shift: np.ndarray, columns) -> int:
    """Sum over c and i of columns[c][i] * 2**(18*c + shift[i]), exactly.

    Every bin of each bincount is an integer below 2**52 (see the module
    docstring), so its float64 sum is exact in any order."""
    bins = np.stack([np.bincount(shift, weights=column) for column in columns])
    column, at = np.nonzero(bins)
    return sum(map(operator.lshift, bins[column, at].astype(np.int64).tolist(),
                   (at + 18 * column).tolist()))


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("least squares needs finite values")
    n = x.size
    # frexp runs per chunk, so no temporary is longer than a chunk
    parts = [slice(lo, lo + _FIT_CHUNK) for lo in range(0, n, _FIT_CHUNK)]
    # X_i = M_i << (ex_i - low) with x_i = X_i * 2**kx, kx = low - 53
    low_x = min(int(np.frexp(x[part])[1].min()) for part in parts)
    low_y = min(int(np.frexp(y[part])[1].min()) for part in parts)
    kx, ky = low_x - 53, low_y - 53
    sx = sy = sxx = sxy = syy = 0
    for part in parts:
        mx, ex = np.frexp(x[part])
        my, ey = np.frexp(y[part])
        dx = (ex - low_x).astype(np.intp)
        dy = (ey - low_y).astype(np.intp)
        X, Y = _limbs(mx), _limbs(my)
        sx += _fold(dx, X)
        sy += _fold(dy, Y)
        sxx += _fold(2 * dx, _limb_products(X, X))
        sxy += _fold(dx + dy, _limb_products(X, Y))
        syy += _fold(2 * dy, _limb_products(Y, Y))
    den = n * sxx - sx * sx
    if den == 0:
        raise ValueError("degenerate abscissae: all x values equal")
    num = n * sxy - sx * sy
    p = (n * syy - sy * sy) * den - num * num
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
    """Of the models that can be fit, the one with smallest RMS residual.

    A model is skipped when its coordinates or fit leave the double
    range (say r^2 overflowing for the Gaussian model); the ValueError
    of the first model is raised when none can be fit."""
    fits, errors = [], []
    for model in _MODEL_ORDER:
        try:
            fits.append(fit_growth(samples, model, use_estimate))
        except ValueError as exc:
            errors.append(exc)
    if not fits:
        raise errors[0]
    return min(fits, key=operator.attrgetter("residual_rms"))


def witness_constants(samples: Sequence[GrowthSample], model: GrowthModel,
                      use_estimate: bool = False) -> tuple[float, float]:
    """Largest grid rate c (and earliest onset r0) with a verified bound.

    Fixes C = exp(fitted log_intercept) and returns (c, r0) where c is
    the largest positive multiple of _WITNESS_STEP = 1e-3 such that

        area(r) >= C * exp(c * m(r))   for every sample with r >= r0,

    with r0 ranging over the sample radii from earliest to latest.  The
    returned pair is re-verified sample by sample before returning.
    Raises NoWitnessError when no positive grid rate works even from the
    last sample onward.
    """
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
        # largest k with all(yi >= log_c_const + k*_WITNESS_STEP*mi):
        # the slack (yi - log_c_const)/mi caps k pointwise.
        caps = (yi - log_c_const) / mi
        k = int(math.floor(float(np.min(caps)) / _WITNESS_STEP))
        if k < 1:
            continue
        # re-verify (floor can sit exactly on the boundary)
        while k >= 1 and not np.all(yi >= log_c_const + k * _WITNESS_STEP * mi):
            k -= 1
        if k >= 1:
            return (k * _WITNESS_STEP, rs[i])
    raise NoWitnessError(
        f"no positive witness rate at step {_WITNESS_STEP} for {model.value}"
    )

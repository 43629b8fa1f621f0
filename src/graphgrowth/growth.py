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
integer times a power of two) are exact integers, taken a chunk of at
most _FIT_CHUNK = 2**14 terms at a time by one of two paths.

  Gram path: each column is scaled to X = x * 2**(53 - e), e its lowest
  frexp exponent.  Where that leaves k > 0 bits past 2**63, e rises by
  k if k <= 52 and every X stays an integer.  When both columns of a
  chunk scale so to integers below 2**63, each is split into four 16-bit
  limbs (three unsigned, the top one signed).  A limb product is below
  2**32, so a sum of limbs (SX, SY) is below 2**30 and each entry of the
  limb Gram products (SXX, SXY, SYY from one BLAS matrix product) is an
  integer below 2**46, whatever order BLAS adds in: no float64 sum
  reaches 2**53, so each addition is exact.

  Python path: any other chunk writes X = M * 2**(e_i - min e) from its
  frexp mantissas |M| < 2**53 as Python ints.  Its sums are taken term
  by term, exactly.

Either way the chunk's sums are Python ints.  No transcendental and no
SIMD-dependent rounding is involved, so the fit is portable as well as
exact.

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


# Terms per chunk of _least_squares, and the widest exponent range of a
# column whose integers at its lowest exponent stay below 2**63
_FIT_CHUNK = 1 << 14
_GRAM_SPAN = 10
_LIMB16 = (1 << 16) - 1
_SUM_SHIFTS = [16 * j for j in range(4)]
_GRAM_SHIFTS = [16 * (j + k) for j in range(4) for k in range(4)]


def _binades(v: np.ndarray) -> tuple[int, int]:
    """The lowest and highest frexp exponent of the nonzero values of v,
    (0, 0) when there are none."""
    a = np.abs(v)
    top = a.max()
    if top == 0:
        return 0, 0
    bottom = a.min()
    if bottom == 0:
        bottom = a.min(where=a > 0, initial=math.inf)
    return math.frexp(bottom)[1], math.frexp(top)[1]


def _gram_integers(v: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(v * 2**(53 - e) as int64, e) for the lowest e at which every value
    of v is below 2**63 in magnitude, or None when that e is more than
    52 above v's lowest frexp exponent or leaves a value that is not an
    integer."""
    low, top = _binades(v)
    # bits past 2**63 at the lowest exponent; past 52 the smallest nonzero
    # value would fall below 1 (and ldexp could underflow)
    k = max(top - low - _GRAM_SPAN, 0)
    if k > 52:
        return None
    scaled = np.ldexp(v, 53 - low - k)
    if k and not (np.trunc(scaled) == scaled).all():
        return None
    return scaled.astype(np.int64), low + k


def _gram_limbs(m: np.ndarray, out: np.ndarray) -> None:
    """out[j] = L_j of the int64 m = L0 + L1*2**16 + L2*2**32 + L3*2**48:
    L0..L2 in [0, 2**16), L3 in [-2**15, 2**15)."""
    for j in range(3):
        np.bitwise_and(m >> 16 * j, _LIMB16, out=out[j], casting="unsafe")
    np.right_shift(m, 48, out=out[3], casting="unsafe")


def _gram_sums(x: np.ndarray, y: np.ndarray) -> list[int]:
    """[SX, SY, SXX, SXY, SYY] over int64 x and y, from limb sums and one
    Gram product (every float64 sum an integer below 2**46)."""
    z = np.empty((8, x.size))
    _gram_limbs(x, z[:4])
    _gram_limbs(y, z[4:])
    s = z.sum(axis=1).astype(np.int64).tolist()
    g = z @ z.T
    return [_weigh(s[:4], _SUM_SHIFTS), _weigh(s[4:], _SUM_SHIFTS),
            *(_weigh(block.astype(np.int64).ravel().tolist(), _GRAM_SHIFTS)
              for block in (g[:4, :4], g[:4, 4:], g[4:, 4:]))]


def _weigh(terms: list[int], shifts: list[int]) -> int:
    """Sum of terms[i] * 2**shifts[i] as a Python int."""
    return sum(map(operator.lshift, terms, shifts))


def _python_ints(v: np.ndarray) -> tuple[list[int], int]:
    """The integers v * 2**(53 - e) as Python ints, and e, the lowest
    frexp exponent of v (a zero's 0 included)."""
    mant, exp = np.frexp(v)
    low = int(exp.min())
    ints = (mant * 2.0**53).astype(np.int64).tolist()
    return list(map(operator.lshift, ints, (exp - low).tolist())), low


def _chunk_sums(x: np.ndarray, y: np.ndarray) -> tuple[list[int], int, int]:
    """([SX, SY, SXX, SXY, SYY], low_x, low_y) of one chunk, over the
    integers X = x * 2**(53 - low_x) and Y = y * 2**(53 - low_y): from
    _gram_sums when both columns are integers below 2**63 at one scale,
    else term by term over Python ints."""
    gram_x, gram_y = _gram_integers(x), _gram_integers(y)
    if gram_x is not None and gram_y is not None:
        return _gram_sums(gram_x[0], gram_y[0]), gram_x[1], gram_y[1]
    (X, low_x), (Y, low_y) = _python_ints(x), _python_ints(y)
    sums = [sum(X), sum(Y), sum(map(operator.mul, X, X)),
            sum(map(operator.mul, X, Y)), sum(map(operator.mul, Y, Y))]
    return sums, low_x, low_y


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
    chunks = [_chunk_sums(x[lo:lo + _FIT_CHUNK], y[lo:lo + _FIT_CHUNK])
              for lo in range(0, n, _FIT_CHUNK)]
    # the chunks' integers brought to the lowest scale: x_i = X_i * 2**kx
    low_x = min((chunk[1] for chunk in chunks), default=0)
    low_y = min((chunk[2] for chunk in chunks), default=0)
    kx, ky = low_x - 53, low_y - 53
    sx = sy = sxx = sxy = syy = 0
    for (cx, cy, cxx, cxy, cyy), chunk_x, chunk_y in chunks:
        dx, dy = chunk_x - low_x, chunk_y - low_y
        sx += cx << dx
        sy += cy << dy
        sxx += cxx << 2 * dx
        sxy += cxy << dx + dy
        syy += cyy << 2 * dy
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


def _fit(samples: Sequence[GrowthSample], model: GrowthModel):
    """The fit with the coordinates it was made in: (fit, rs, x, y)."""
    if len(samples) < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"need at least {MIN_SAMPLES} samples, got {len(samples)}"
        )
    rs = [float(s.r) for s in samples]
    if not all(map(operator.lt, rs, rs[1:])):
        raise ValueError("samples must be sorted by strictly increasing r")
    areas = [s.area_lower for s in samples]
    if not all(a > 0 for a in areas):
        raise NonPositiveAreaError("all areas must be strictly positive")
    x = _model_coord(model, rs)
    y = list(map(math.log, areas))
    # _least_squares gives (rate, log_intercept, residual_rms) in field order
    fit = GrowthFit(model, *_least_squares(x, y), r_range=(rs[0], rs[-1]))
    return fit, rs, x, y


def fit_growth(samples: Sequence[GrowthSample], model: GrowthModel) -> GrowthFit:
    """Least-squares fit of one growth model in linearizing coordinates.

    rate is the slope (the exponent p for POLYNOMIAL, the rate c
    otherwise); log_intercept is the fitted log C.
    """
    return _fit(samples, model)[0]


# Tie preference when residuals coincide: simpler model wins.
_MODEL_ORDER = (GrowthModel.POLYNOMIAL, GrowthModel.EXPONENTIAL, GrowthModel.GAUSSIAN)


def classify_growth(samples: Sequence[GrowthSample]) -> GrowthFit:
    """Of the models that can be fit, the one with smallest RMS residual.

    A model is skipped when its coordinates or fit leave the double
    range (say r^2 overflowing for the Gaussian model); the ValueError
    of the first model is raised when none can be fit."""
    fits, errors = [], []
    for model in _MODEL_ORDER:
        try:
            fits.append(fit_growth(samples, model))
        except ValueError as exc:
            errors.append(exc)
    if not fits:
        raise errors[0]
    return min(fits, key=operator.attrgetter("residual_rms"))


def witness_constants(samples: Sequence[GrowthSample],
                      model: GrowthModel) -> tuple[float, float]:
    """Largest grid rate c (and earliest onset r0) with a verified bound.

    Fixes C = exp(fitted log_intercept) and returns (c, r0) where c is
    the largest positive multiple of _WITNESS_STEP = 1e-3 such that

        area(r) >= C * exp(c * m(r))   for every sample with r >= r0,

    with r0 ranging over the sample radii from earliest to latest.  The
    returned pair is re-verified sample by sample before returning.
    Raises NoWitnessError when no positive grid rate works even from the
    last sample onward.
    """
    fit, rs, m, y = _fit(samples, model)
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

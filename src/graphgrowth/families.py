"""Overflow-safe evaluation and rigorous magnitude enclosures for the
three holomorphic families studied by this package:

    SIN_EXP     f(z) = sin(e^z)        f'(z) = e^z cos(e^z)
    SIN_EXP_SQ  f(z) = sin(e^(z^2))    f'(z) = 2 z e^(z^2) cos(e^(z^2))
    EXP         f(z) = e^z             f'(z) = e^z

Values of sin(e^z) overflow double precision already for moderate Re z,
so all magnitudes are carried as natural logarithms (LogScaledComplex,
MagInterval).  The workhorse identities, for w = x + iy,

    |sin w|^2 = sin^2 x + sinh^2 y
    |cos w|^2 = cos^2 x + sinh^2 y

split the magnitude into a bounded oscillatory part and a hyperbolic
part that is tame in log scale.  Phase is tracked modulo 2*pi while the
inner value e^u is plain-representable; beyond that the phase of a point
evaluation degrades to a documented sentinel and rectangle enclosures
fall back to the trivial interval [0, +inf) instead of failing.

Rectangle enclosures (bound_abs_f / bound_abs_fprime) are outward-rounded
interval computations: monotone pieces are evaluated at the correct cell
corners, trig ranges account for interior critical points, and every
computed endpoint is widened outward in one fused pass,
x -> max(x(1+4*2^-52), x(1-4*2^-52)) + 4*2^-1074 upward and its mirror
image downward, which is never narrower than four ulp steps.  They are
used by the sublevel-set quadrature to certify cells and by the packet
certifier.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "GraphFamily",
    "LogScaledComplex",
    "RectBounds",
    "MagInterval",
    "eval_f",
    "eval_fprime",
    "bound_abs_f",
    "bound_abs_fprime",
    "log_abs_f_batch",
    "log_abs_fprime_batch",
    "bound_abs_f_batch",
    "bound_abs_fprime_batch",
]

LOG2 = math.log(2.0)
TWO_PI = 2.0 * math.pi
# |Im w| beyond which cosh/sinh agree with e^|y|/2 to double precision.
_ASYMPTOTIC_IM = 36.0
# Re u beyond which w = e^u itself is not plain-representable.
_MAX_PLAIN_EXPONENT = 700.0
# Largest x with e^x finite in double precision.
_MAX_LOG = 709.0
# Trig range extraction is reliable only while argument reduction is.
_TRIG_ARG_LIMIT = 1.0e12


class GraphFamily(Enum):
    """Closed set of holomorphic functions whose graphs are analyzed."""

    SIN_EXP = "sin-exp"
    SIN_EXP_SQ = "sin-exp-sq"
    EXP = "exp"

    @classmethod
    def parse(cls, name: str) -> "GraphFamily":
        for fam in cls:
            if fam.value == name or fam.name == name:
                return fam
        raise ValueError(f"unknown family {name!r}")


@dataclass(frozen=True)
class LogScaledComplex:
    """Complex value stored as (log magnitude, phase).

    log_mag is the natural log of the absolute value (-inf encodes an
    exact zero, +inf a saturated overflow beyond one level of log
    scaling).  phase lies in (-pi, pi]; when the underlying value sits
    beyond the plain-representable range of its defining exponential the
    phase is no longer recoverable and is reported as the sentinel 0.0.
    """

    log_mag: float
    phase: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_mag) or math.isnan(self.phase):
            raise ValueError("NaN component in LogScaledComplex")
        if not (-math.pi < self.phase <= math.pi):
            raise ValueError(f"phase {self.phase} outside (-pi, pi]")

    @classmethod
    def from_complex(cls, z: complex) -> "LogScaledComplex":
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite complex value {z!r}")
        mag = abs(z)
        if mag == 0.0:
            return cls(float("-inf"), 0.0)
        return cls(math.log(mag), _normalize_phase(math.atan2(z.imag, z.real)))

    @property
    def magnitude(self) -> float:
        """Plain |value|; +inf once log_mag exceeds the double range."""
        if self.log_mag == float("-inf"):
            return 0.0
        if self.log_mag > _MAX_LOG:
            return float("inf")
        return math.exp(self.log_mag)

    def to_complex(self) -> complex:
        if self.log_mag > _MAX_LOG:
            raise OverflowError("magnitude not plain-representable")
        m = self.magnitude
        return complex(m * math.cos(self.phase), m * math.sin(self.phase))


@dataclass(frozen=True)
class RectBounds:
    """Closed axis-aligned rectangle in the parameter plane.

    Degenerate (point or segment) rectangles are allowed.
    """

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self) -> None:
        vals = (self.re_lo, self.re_hi, self.im_lo, self.im_hi)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("RectBounds requires finite corners")
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValueError("RectBounds requires lo <= hi")

    @property
    def width(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> float:
        return self.im_hi - self.im_lo

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    def contains(self, z: complex) -> bool:
        return self.re_lo <= z.real <= self.re_hi and self.im_lo <= z.imag <= self.im_hi

    def min_abs2(self) -> float:
        dx = max(self.re_lo, -self.re_hi, 0.0)
        dy = max(self.im_lo, -self.im_hi, 0.0)
        return dx * dx + dy * dy

    def max_abs2(self) -> float:
        dx = max(abs(self.re_lo), abs(self.re_hi))
        dy = max(abs(self.im_lo), abs(self.im_hi))
        return dx * dx + dy * dy

    def split4(self) -> tuple["RectBounds", ...]:
        xm = 0.5 * (self.re_lo + self.re_hi)
        ym = 0.5 * (self.im_lo + self.im_hi)
        return (
            RectBounds(self.re_lo, xm, self.im_lo, ym),
            RectBounds(xm, self.re_hi, self.im_lo, ym),
            RectBounds(self.re_lo, xm, ym, self.im_hi),
            RectBounds(xm, self.re_hi, ym, self.im_hi),
        )


@dataclass(frozen=True)
class MagInterval:
    """Enclosure [lo, hi] of a nonnegative magnitude, stored in log scale
    so that astronomically large bounds remain representable.

    log_lo = -inf encodes lo = 0; log_hi = +inf encodes an unbounded
    (trivial) upper end.  The plain-value accessors saturate to +inf.
    """

    log_lo: float
    log_hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_lo) or math.isnan(self.log_hi):
            raise ValueError("NaN endpoint in MagInterval")
        if self.log_lo > self.log_hi:
            raise ValueError("MagInterval requires lo <= hi")

    @classmethod
    def from_values(cls, lo: float, hi: float) -> "MagInterval":
        if lo < 0 or hi < 0:
            raise ValueError("magnitudes are nonnegative")
        llo = float("-inf") if lo == 0.0 else math.log(lo)
        lhi = float("-inf") if hi == 0.0 else (float("inf") if math.isinf(hi) else math.log(hi))
        return cls(llo, lhi)

    @classmethod
    def trivial(cls) -> "MagInterval":
        return cls(float("-inf"), float("inf"))

    @property
    def lo(self) -> float:
        if self.log_lo == float("-inf"):
            return 0.0
        return math.exp(self.log_lo) if self.log_lo <= _MAX_LOG else float("inf")

    @property
    def hi(self) -> float:
        if self.log_hi == float("-inf"):
            return 0.0
        return math.exp(self.log_hi) if self.log_hi <= _MAX_LOG else float("inf")

    @property
    def is_trivial(self) -> bool:
        return self.log_lo == float("-inf") and self.log_hi == float("inf")

    def contains_log(self, log_mag: float) -> bool:
        return self.log_lo <= log_mag <= self.log_hi


def _normalize_phase(p: float) -> float:
    """Reduce to (-pi, pi]."""
    r = math.remainder(p, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite input {z!r}")
    return z


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

def _sin_plain(x: float, y: float) -> tuple[float, float]:
    """(log|sin(x+iy)|, arg sin(x+iy)) for a plain-representable x+iy."""
    ay = abs(y)
    if ay <= _ASYMPTOTIC_IM:
        a = math.sin(x) * math.cosh(y)
        b = math.cos(x) * math.sinh(y)
        h = math.hypot(a, b)
        log_mag = math.log(h) if h > 0.0 else float("-inf")
        phase = math.atan2(b, a) if h > 0.0 else 0.0
        return log_mag, phase
    # sinh and cosh collapse onto e^|y|/2; keep the exact correction term.
    s = math.sin(x)
    corr = (4.0 * s * s - 2.0) * math.exp(-2.0 * ay) + math.exp(-4.0 * ay)
    log_mag = ay - LOG2 + 0.5 * math.log1p(corr)
    sign = 1.0 if y > 0 else -1.0
    return log_mag, math.atan2(math.cos(x) * sign, s)


def _cos_plain(x: float, y: float) -> tuple[float, float]:
    """(log|cos(x+iy)|, arg cos(x+iy)) for a plain-representable x+iy."""
    ay = abs(y)
    if ay <= _ASYMPTOTIC_IM:
        a = math.cos(x) * math.cosh(y)
        b = -math.sin(x) * math.sinh(y)
        h = math.hypot(a, b)
        log_mag = math.log(h) if h > 0.0 else float("-inf")
        phase = math.atan2(b, a) if h > 0.0 else 0.0
        return log_mag, phase
    c = math.cos(x)
    corr = (4.0 * c * c - 2.0) * math.exp(-2.0 * ay) + math.exp(-4.0 * ay)
    log_mag = ay - LOG2 + 0.5 * math.log1p(corr)
    sign = 1.0 if y > 0 else -1.0
    return log_mag, math.atan2(-math.sin(x) * sign, c)


def _trig_of_exp_point(u: complex, use_cos: bool) -> tuple[float, float]:
    """(log mag, phase) of sin(e^u) or cos(e^u) at a point.

    While e^u is plain-representable this is exact to rounding.  Beyond
    that only |Im e^u| matters for the magnitude; the phase (and, in the
    razor-thin band where Im e^u stays small, the magnitude itself) is
    not recoverable in double precision and degrades to a sentinel.
    """
    if u.real <= _MAX_PLAIN_EXPONENT:
        w = cmath.exp(u)
        return _cos_plain(w.real, w.imag) if use_cos else _sin_plain(w.real, w.imag)
    sin_arg = math.sin(u.imag)
    if sin_arg == 0.0:
        return 0.0, 0.0  # Re e^u unreducible: sentinel representative
    log_im = u.real + math.log(abs(sin_arg))
    if log_im > _MAX_LOG:
        return float("inf"), 0.0  # saturated beyond one level of log scaling
    m = math.exp(log_im)
    if m > _ASYMPTOTIC_IM:
        return m - LOG2, 0.0
    return math.log(math.cosh(m)), 0.0  # thin-band sentinel (upper representative)


def eval_f(family: GraphFamily, z: complex) -> LogScaledComplex:
    """Evaluate f at z in log-magnitude/phase form."""
    z = _require_finite(z)
    if family is GraphFamily.EXP:
        return LogScaledComplex(z.real, _normalize_phase(z.imag))
    u = z if family is GraphFamily.SIN_EXP else z * z
    log_mag, phase = _trig_of_exp_point(u, use_cos=False)
    return LogScaledComplex(log_mag, _normalize_phase(phase))


def eval_fprime(family: GraphFamily, z: complex) -> LogScaledComplex:
    """Evaluate f' at z in log-magnitude/phase form."""
    z = _require_finite(z)
    if family is GraphFamily.EXP:
        return LogScaledComplex(z.real, _normalize_phase(z.imag))
    if family is GraphFamily.SIN_EXP:
        log_c, ph_c = _trig_of_exp_point(z, use_cos=True)
        return LogScaledComplex(z.real + log_c, _normalize_phase(z.imag + ph_c))
    u = z * z
    log_c, ph_c = _trig_of_exp_point(u, use_cos=True)
    two_z = 2.0 * z
    mag_2z = abs(two_z)
    if mag_2z == 0.0:
        return LogScaledComplex(float("-inf"), 0.0)
    log_mag = math.log(mag_2z) + u.real + log_c
    phase = math.atan2(two_z.imag, two_z.real) + u.imag + ph_c
    return LogScaledComplex(log_mag, _normalize_phase(phase))


# ---------------------------------------------------------------------------
# Vectorized log-magnitudes (single source of truth for |f|, |f'|)
# ---------------------------------------------------------------------------

def _log_abs_trig_of_exp(w_log: np.ndarray, w_arg: np.ndarray, use_cos: bool) -> np.ndarray:
    """log|sin(e^u)| (or cos) elementwise, u = w_log + i*w_arg."""
    w_log = np.asarray(w_log, dtype=float)
    w_arg = np.asarray(w_arg, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        scale = np.exp(np.minimum(w_log, _MAX_PLAIN_EXPONENT))
        x = scale * np.cos(w_arg)
        y = scale * np.sin(w_arg)
        ay = np.abs(y)
        ay_small = np.minimum(ay, _ASYMPTOTIC_IM)
        osc = np.cos(x) if use_cos else np.sin(x)
        other = np.sin(x) if use_cos else np.cos(x)
        small = np.log(np.hypot(osc * np.cosh(ay_small), other * np.sinh(ay_small)))
        ay_clip = np.minimum(ay, 400.0)
        corr = (4.0 * osc * osc - 2.0) * np.exp(-2.0 * ay_clip) + np.exp(-4.0 * ay_clip)
        big = ay - LOG2 + 0.5 * np.log1p(corr)
        plain = np.where(ay <= _ASYMPTOTIC_IM, small, big)

        # e^u not plain-representable: magnitude via log|Im e^u| = Re u + log|sin Im u|.
        log_im = w_log + np.log(np.abs(np.sin(w_arg)))
        m = np.where(log_im > _MAX_LOG, np.inf, np.exp(np.minimum(log_im, _MAX_LOG)))
        scaled = np.where(
            m > _ASYMPTOTIC_IM,
            m - LOG2,
            np.log(np.cosh(np.minimum(m, _ASYMPTOTIC_IM))),
        )
        return np.where(w_log <= _MAX_PLAIN_EXPONENT, plain, scaled)


def _u_components(family: GraphFamily, zre: np.ndarray, zim: np.ndarray):
    """(Re u, Im u) with u = z for SIN_EXP and u = z^2 for SIN_EXP_SQ."""
    if family is GraphFamily.SIN_EXP:
        return zre, zim
    return zre * zre - zim * zim, 2.0 * zre * zim


def log_abs_f_batch(family: GraphFamily, zre: np.ndarray, zim: np.ndarray) -> np.ndarray:
    """Elementwise log|f(z)| for arrays of coordinates."""
    zre = np.asarray(zre, dtype=float)
    zim = np.asarray(zim, dtype=float)
    if family is GraphFamily.EXP:
        return zre + 0.0 * zim
    w_log, w_arg = _u_components(family, zre, zim)
    return _log_abs_trig_of_exp(w_log, w_arg, use_cos=False)


def log_abs_fprime_batch(family: GraphFamily, zre: np.ndarray, zim: np.ndarray) -> np.ndarray:
    """Elementwise log|f'(z)| for arrays of coordinates."""
    zre = np.asarray(zre, dtype=float)
    zim = np.asarray(zim, dtype=float)
    if family is GraphFamily.EXP:
        return zre + 0.0 * zim
    w_log, w_arg = _u_components(family, zre, zim)
    log_cos = _log_abs_trig_of_exp(w_log, w_arg, use_cos=True)
    if family is GraphFamily.SIN_EXP:
        return zre + log_cos
    with np.errstate(divide="ignore"):
        log_2z = LOG2 + 0.5 * np.log(zre * zre + zim * zim)
    return log_2z + w_log + log_cos


# ---------------------------------------------------------------------------
# Outward-rounded interval helpers
# ---------------------------------------------------------------------------

# Outward rounding by one fused widening (the successor bound of Rump,
# Zimmermann, Boldo and Melquiond, BIT 49 (2009), applied array-wide as in
# Rump, BIT 39 (1999)).  Claim: _nudge_up(x) >= nextafter^4(x, +inf) for
# every double x, and _nudge_down is its mirror image.  Proof, with
# eps = 2^-52 and eta = 2^-1074: for finite x the larger product is
# p = fl(x + 4 eps |x|), one rounding of that exact value, and the result is
# fl(p + 4 eta) >= p >= x.  Rounding to nearest is monotone, so the result is
# >= every double F with F <= x + 4 eps |x| or F <= x + 4 eta.  Take F = the
# fourth successor of x.
#   |x| in [2^e, 2^(e+1)), e >= -1022, where doubles are s = 2^(e-52) <= eps |x|
#   apart.  From x < 0 each step is at most s.  From x > 0 four steps cover 4s,
#   or, when they cross 2^(e+1) (+inf in the role of 2^1024) where the spacing
#   doubles, at most 3s + 2s + 2s = 7s, i.e. 7 half-ulps of the upper binade;
#   that needs x >= 2^(e+1) - 3s, so 4 eps x >= 8s - 12 eps s > 7s.  Either
#   way F <= x + 4 eps |x|.
#   |x| < 2^-1022: every double below 2^-1021 is a multiple of eta, so
#   F = x + 4 eta.
# Products never meet inf - inf, so no NaN arises; +inf stays +inf and the
# final clamp lifts -inf to its own fourth successor.  NaN passes through.
_WIDEN_REL = 4.0 * 2.0 ** -52
_WIDEN_ABS = 4.0 * 2.0 ** -1074
_DOWN_CEIL = sys.float_info.max - 3.0 * 2.0 ** 971  # nextafter^4(+inf, -inf)


def _nudge_up(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.asarray(x * (1.0 + _WIDEN_REL))  # a 0-d product is a scalar
    np.maximum(out, x * (1.0 - _WIDEN_REL), out=out)
    out += _WIDEN_ABS
    return np.maximum(out, -_DOWN_CEIL, out=out)


def _nudge_down(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.asarray(x * (1.0 + _WIDEN_REL))
    np.minimum(out, x * (1.0 - _WIDEN_REL), out=out)
    out -= _WIDEN_ABS
    return np.minimum(out, _DOWN_CEIL, out=out)


def _interval_trig(lo: np.ndarray, hi: np.ndarray, use_cos: bool):
    """Range of sin (or cos) over [lo, hi], outward rounded.

    Critical-point containment is widened by an absolute slack so that
    argument-reduction rounding can only make the answer more
    conservative, never unsound.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    big = (np.abs(lo) > _TRIG_ARG_LIMIT) | (np.abs(hi) > _TRIG_ARG_LIMIT) | ~np.isfinite(lo) | ~np.isfinite(hi)
    lo_s = np.where(big, 0.0, lo)
    hi_s = np.where(big, 0.0, hi)
    slack = 1e-13 * np.maximum(1.0, np.maximum(np.abs(lo_s), np.abs(hi_s)))
    max_loc = 0.0 if use_cos else 0.5 * math.pi
    min_loc = math.pi if use_cos else -0.5 * math.pi

    def _contains(c):
        k = np.ceil((lo_s - c - slack) / TWO_PI)
        return c + k * TWO_PI <= hi_s + slack

    f = np.cos if use_cos else np.sin
    v_lo, v_hi = f(lo_s), f(hi_s)
    end_max = _nudge_up(np.maximum(v_lo, v_hi))
    end_min = _nudge_down(np.minimum(v_lo, v_hi))
    t_max = np.where(_contains(max_loc), 1.0, np.minimum(end_max, 1.0))
    t_min = np.where(_contains(min_loc), -1.0, np.maximum(end_min, -1.0))
    t_max = np.where(big, 1.0, t_max)
    t_min = np.where(big, -1.0, t_min)
    return t_min, t_max


def _interval_prod(alo, ahi, blo, bhi):
    """Interval product; endpoints are already outward rounded upstream."""
    c1, c2, c3, c4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
    hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    return lo, hi


def _log_sqrt_s2_plus_sinh2(s2: np.ndarray, m: np.ndarray) -> np.ndarray:
    """0.5*log(s2 + sinh(m)^2) without overflow; s2 in [0,1], m >= 0."""
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        m_small = np.minimum(m, _ASYMPTOTIC_IM)
        sh = np.sinh(m_small)
        v = s2 + sh * sh
        small = np.where(v > 0.0, 0.5 * np.log(v), -np.inf)
        m_clip = np.minimum(m, 400.0)
        corr = (4.0 * s2 - 2.0) * np.exp(-2.0 * m_clip) + np.exp(-4.0 * m_clip)
        large = m - LOG2 + 0.5 * np.log1p(corr)
        return np.where(m <= _ASYMPTOTIC_IM, small, large)


def _bound_trig_of_exp_batch(w_log_lo, w_log_hi, arg_lo, arg_hi, use_cos: bool):
    """Enclosure of log|sin e^u| (or cos) over a box of u values.

    u ranges over [w_log_lo, w_log_hi] x [arg_lo, arg_hi].  Returns
    (log_lo, log_hi) arrays; cells whose |e^u| exceeds the plain double
    range collapse to the trivial enclosure.
    """
    usable = np.asarray(w_log_hi, dtype=float) <= _MAX_PLAIN_EXPONENT
    w_log_lo = np.where(usable, w_log_lo, 0.0)
    w_log_hi_s = np.where(usable, w_log_hi, 0.0)
    with np.errstate(over="ignore", under="ignore"):
        v_lo = _nudge_down(np.exp(w_log_lo))
        v_hi = _nudge_up(np.exp(w_log_hi_s))
    s_min, s_max = _interval_trig(arg_lo, arg_hi, use_cos=False)
    c_min, c_max = _interval_trig(arg_lo, arg_hi, use_cos=True)
    im_lo, im_hi = _interval_prod(v_lo, v_hi, s_min, s_max)
    re_lo, re_hi = _interval_prod(v_lo, v_hi, c_min, c_max)
    im_lo = _nudge_down(im_lo)
    im_hi = _nudge_up(im_hi)
    m_lo = np.maximum(0.0, np.maximum(im_lo, -im_hi))
    m_hi = np.maximum(np.abs(im_lo), np.abs(im_hi))
    t_min, t_max = _interval_trig(_nudge_down(re_lo), _nudge_up(re_hi), use_cos=use_cos)
    straddles = (t_min <= 0.0) & (t_max >= 0.0)
    s2_min = np.where(straddles, 0.0, np.minimum(t_min * t_min, t_max * t_max))
    s2_max = np.minimum(np.maximum(t_min * t_min, t_max * t_max), 1.0)
    log_hi = _nudge_up(_log_sqrt_s2_plus_sinh2(s2_max, m_hi))
    log_lo = _nudge_down(_log_sqrt_s2_plus_sinh2(s2_min, m_lo))
    log_lo = np.where(usable, log_lo, -np.inf)
    log_hi = np.where(usable, log_hi, np.inf)
    return log_lo, log_hi


def _square_range(lo, hi):
    """Range of t^2 for t in [lo, hi]."""
    straddles = (lo <= 0.0) & (hi >= 0.0)
    lo2 = np.where(straddles, 0.0, np.minimum(lo * lo, hi * hi))
    hi2 = np.maximum(lo * lo, hi * hi)
    return lo2, hi2


def _u_ranges(family: GraphFamily, re_lo, re_hi, im_lo, im_hi):
    """Cellwise ranges of (Re u, Im u); exact arithmetic, nudged outward."""
    if family is GraphFamily.SIN_EXP:
        return re_lo, re_hi, im_lo, im_hi
    x2_lo, x2_hi = _square_range(re_lo, re_hi)
    y2_lo, y2_hi = _square_range(im_lo, im_hi)
    w_log_lo = _nudge_down(x2_lo - y2_hi)
    w_log_hi = _nudge_up(x2_hi - y2_lo)
    p_lo, p_hi = _interval_prod(re_lo, re_hi, im_lo, im_hi)
    return w_log_lo, w_log_hi, _nudge_down(2.0 * p_lo), _nudge_up(2.0 * p_hi)


def _bound_exp_batch(re_lo, re_hi, im_lo):
    """EXP enclosure of both |f| and |f'| = e^x: the cell's Re edges."""
    shape = np.broadcast(re_lo, im_lo).shape
    return (
        _nudge_down(np.broadcast_to(re_lo, shape)),
        _nudge_up(np.broadcast_to(re_hi, shape)),
    )


def bound_abs_f_batch(family: GraphFamily, re_lo, re_hi, im_lo, im_hi):
    """(log_lo, log_hi) enclosures of |f| over each cell, vectorized."""
    re_lo = np.asarray(re_lo, dtype=float)
    re_hi = np.asarray(re_hi, dtype=float)
    im_lo = np.asarray(im_lo, dtype=float)
    im_hi = np.asarray(im_hi, dtype=float)
    if family is GraphFamily.EXP:
        return _bound_exp_batch(re_lo, re_hi, im_lo)
    w_log_lo, w_log_hi, a_lo, a_hi = _u_ranges(family, re_lo, re_hi, im_lo, im_hi)
    return _bound_trig_of_exp_batch(w_log_lo, w_log_hi, a_lo, a_hi, use_cos=False)


def bound_abs_fprime_batch(family: GraphFamily, re_lo, re_hi, im_lo, im_hi):
    """(log_lo, log_hi) enclosures of |f'| over each cell, vectorized."""
    re_lo = np.asarray(re_lo, dtype=float)
    re_hi = np.asarray(re_hi, dtype=float)
    im_lo = np.asarray(im_lo, dtype=float)
    im_hi = np.asarray(im_hi, dtype=float)
    if family is GraphFamily.EXP:
        return _bound_exp_batch(re_lo, re_hi, im_lo)
    w_log_lo, w_log_hi, a_lo, a_hi = _u_ranges(family, re_lo, re_hi, im_lo, im_hi)
    c_lo, c_hi = _bound_trig_of_exp_batch(w_log_lo, w_log_hi, a_lo, a_hi, use_cos=True)
    if family is GraphFamily.SIN_EXP:
        # |f'| = e^x |cos e^z|: logs add, exponent bounds are the cell edges.
        return _nudge_down(re_lo + c_lo), _nudge_up(re_hi + c_hi)
    dx = np.maximum(0.0, np.maximum(re_lo, -re_hi))
    dy = np.maximum(0.0, np.maximum(im_lo, -im_hi))
    dmin2 = dx * dx + dy * dy
    dmax2 = np.maximum(re_lo * re_lo, re_hi * re_hi) + np.maximum(im_lo * im_lo, im_hi * im_hi)
    with np.errstate(divide="ignore"):
        log_2z_lo = LOG2 + 0.5 * np.log(dmin2)
        log_2z_hi = LOG2 + 0.5 * np.log(dmax2)
    lo = _nudge_down(log_2z_lo + w_log_lo + c_lo)
    hi = _nudge_up(log_2z_hi + w_log_hi + c_hi)
    # -inf + -inf stays -inf; guard the impossible inversion from rounding.
    return np.minimum(lo, hi), hi


def bound_abs_f(family: GraphFamily, cell: RectBounds) -> MagInterval:
    """Rigorous enclosure of |f| over a rectangle."""
    lo, hi = bound_abs_f_batch(
        family,
        np.array([cell.re_lo]),
        np.array([cell.re_hi]),
        np.array([cell.im_lo]),
        np.array([cell.im_hi]),
    )
    return MagInterval(float(lo[0]), float(hi[0]))


def bound_abs_fprime(family: GraphFamily, cell: RectBounds) -> MagInterval:
    """Rigorous enclosure of |f'| over a rectangle."""
    lo, hi = bound_abs_fprime_batch(
        family,
        np.array([cell.re_lo]),
        np.array([cell.re_hi]),
        np.array([cell.im_lo]),
        np.array([cell.im_hi]),
    )
    return MagInterval(float(lo[0]), float(hi[0]))

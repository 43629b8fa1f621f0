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

Two batch kernels do all array work, each returning |f| and |f'| from
one pass: log_abs_f_fprime_batch at points, bound_abs_f_fprime_batch
over rectangles.  |f| = |sin e^u| and |f'| carries |cos e^u| (u = z or
z^2), so only the outer sin and cos run twice.  Each element depends on
its own inputs alone, never on the batch it came in.

The rectangle kernel runs in two stages.  Its inputs are column terms
(computed from the Re edges of the cells) and row terms (from the Im
edges), named arrays gathered per cell by (column, row) addresses, so a
caller whose cells share columns and rows, as the quadtree's do,
computes them once per column and row.  Every family's terms hold the
edges and the ranges of x^2 and y^2, from which the quadtree also takes
|z|^2 (_abs_z2_range).  Stage 1 (_enclose_f) builds the box of e^u and
takes the outer sin, giving |f| on every cell; stage 2
(_enclose_fprime) takes the outer cos of the same box, giving |f'| on
any subset of the cells.  bound_abs_f_fprime_batch is both stages on
every cell, one column and one row per cell, so every caller gets the
same bits from either path.

A point evaluation (eval_f, eval_fprime) is log_abs_f_fprime_batch at
that one point, so its log_mag has the kernel's bits.  Only the phase is
computed apart, with cosh y > 0 divided out:

    arg sin(x + iy) = atan2(cos x tanh y, sin x)
    arg cos(x + iy) = atan2(-sin x tanh y, cos x)

Rectangle enclosures (bound_abs_f_fprime_batch, and per cell
bound_abs_f / bound_abs_fprime) are outward-rounded interval
computations: monotone pieces are evaluated at the correct cell
corners, trig ranges account for interior critical points, and every
computed endpoint is widened outward in one fused pass,
x -> max(x(1+4*2^-52), x(1-4*2^-52)) + 4*2^-1074 upward and its mirror
image downward, which is never narrower than four ulp steps.  They are
used by the sublevel-set quadrature to certify cells and by the packet
certifier.  MIRROR_AXES records, per family, the coordinates in which
|f| and |f'| are even; the quadrature subdivides one fundamental region
of those mirror symmetries.
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
    "log_abs_f_fprime_batch",
    "bound_abs_f_fprime_batch",
    "MIRROR_AXES",
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

def _arg_trig_of_exp(u: complex) -> tuple[float, float]:
    """(arg sin e^u, arg cos e^u), or the sentinel (0.0, 0.0) past Re u = 700.

    With e^u = x + iy, sin(x+iy) = sin x cosh y + i cos x sinh y and
    cos(x+iy) = cos x cosh y - i sin x sinh y.  Dividing both parts by
    cosh y > 0 keeps the phase and leaves tanh y, which never overflows.
    """
    if not u.real <= _MAX_PLAIN_EXPONENT:
        return 0.0, 0.0
    w = cmath.exp(u)
    s, c, t = math.sin(w.real), math.cos(w.real), math.tanh(w.imag)
    return math.atan2(c * t, s), math.atan2(-s * t, c)


def eval_f(family: GraphFamily, z: complex) -> LogScaledComplex:
    """Evaluate f at z in log-magnitude/phase form; log_mag is
    log_abs_f_fprime_batch at the one point."""
    z = _require_finite(z)
    log_f, _ = log_abs_f_fprime_batch(family, z.real, z.imag)
    if family is GraphFamily.EXP:
        phase = z.imag
    else:
        phase = _arg_trig_of_exp(z if family is GraphFamily.SIN_EXP else z * z)[0]
    return LogScaledComplex(float(log_f), _normalize_phase(phase))


def eval_fprime(family: GraphFamily, z: complex) -> LogScaledComplex:
    """Evaluate f' at z in log-magnitude/phase form; log_mag is
    log_abs_f_fprime_batch at the one point."""
    z = _require_finite(z)
    _, log_fp = log_abs_f_fprime_batch(family, z.real, z.imag)
    if family is GraphFamily.EXP:
        phase = z.imag
    elif family is GraphFamily.SIN_EXP:
        phase = z.imag + _arg_trig_of_exp(z)[1]
    else:  # f' = 2z e^u cos e^u with u = z^2
        u = z * z
        phase = math.atan2(z.imag, z.real) + u.imag + _arg_trig_of_exp(u)[1]
    return LogScaledComplex(float(log_fp), _normalize_phase(phase))


# ---------------------------------------------------------------------------
# Vectorized log-magnitudes: |f| and |f'| from one pass
# ---------------------------------------------------------------------------

def log_abs_f_fprime_batch(family: GraphFamily, zre: np.ndarray, zim: np.ndarray):
    """Elementwise (log|f(z)|, log|f'(z)|) for arrays of coordinates.

    With u = z (SIN_EXP) or z^2 (SIN_EXP_SQ), only the final hypot/log and
    log1p steps differ between |sin e^u| and |cos e^u|; they run once on a
    leading axis of length 2.  For EXP the same array is returned twice.

    Every point gets the plain small-|Im e^u| form.  The asymptotic form
    (|Im e^u| > 36, or NaN) and the form for e^u past the plain double
    range (Re u > 700, or NaN) are computed only on the points their
    boolean masks select, and written in by those masks; a branch whose
    mask is empty costs one reduction.  Each element still sees the same
    operations as in an evaluate-everything-then-select kernel, so the
    bits agree with it.
    """
    zre = np.asarray(zre, dtype=float)
    zim = np.asarray(zim, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        if family is GraphFamily.EXP:
            log_mag = zre + 0.0 * zim
            return log_mag, log_mag
        if family is GraphFamily.SIN_EXP:
            zre, zim = np.broadcast_arrays(zre, zim)  # full-shape masks below
            w_log, w_arg = zre, zim
        else:
            w_log, w_arg = zre * zre - zim * zim, 2.0 * (zre * zim)  # 2.0 * zre may overflow alone
        scale = np.exp(np.minimum(w_log, _MAX_PLAIN_EXPONENT))
        sin_arg = np.sin(w_arg)
        x = scale * np.cos(w_arg)
        ay = np.abs(scale * sin_arg)
        ay_small = np.minimum(ay, _ASYMPTOTIC_IM)
        osc = np.stack([np.sin(x), np.cos(x)])  # |sin w| from sin x, |cos w| from cos x
        other = osc[::-1]
        out = np.log(np.hypot(osc * np.cosh(ay_small), other * np.sinh(ay_small)))

        far = ~(w_log <= _MAX_PLAIN_EXPONENT)
        asym = ~(ay <= _ASYMPTOTIC_IM) & ~far  # far points are overwritten below
        if asym.any():
            ay_a = ay[asym]
            ay_clip = np.minimum(ay_a, 400.0)
            osc_a = osc[:, asym]
            corr = (4.0 * osc_a * osc_a - 2.0) * np.exp(-2.0 * ay_clip) + np.exp(-4.0 * ay_clip)
            out[:, asym] = ay_a - LOG2 + 0.5 * np.log1p(corr)
        if far.any():
            # e^u not plain-representable: magnitude via log|Im e^u| =
            # Re u + log|sin Im u|, the same for sin and cos.  Where
            # sin Im u is 0, so is Im e^u, even when Re u is inf.
            sin_far = sin_arg[far]
            log_im = np.where(sin_far == 0.0, -np.inf, w_log[far] + np.log(np.abs(sin_far)))
            m = np.where(log_im > _MAX_LOG, np.inf, np.exp(np.minimum(log_im, _MAX_LOG)))
            out[:, far] = np.where(
                m > _ASYMPTOTIC_IM,
                m - LOG2,
                np.log(np.cosh(np.minimum(m, _ASYMPTOTIC_IM))),
            )
        log_sin, log_cos = out
        if family is GraphFamily.SIN_EXP:
            return log_sin, zre + log_cos
        log_2z = LOG2 + 0.5 * np.log(zre * zre + zim * zim)
        return log_sin, log_2z + w_log + log_cos


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
# Assumption: the kernels widen each computed endpoint once, so the 4-ulp
# step must also absorb the error of numpy's exp, log, sin and cos behind
# it.  numpy validates those to 1 ulp, which the step covers; a full proof
# would need bounds on those kernels themselves.
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


# Each trig function with the points where it peaks and bottoms out.
_SIN = (np.sin, 0.5 * math.pi, -0.5 * math.pi)
_COS = (np.cos, 0.0, math.pi)


def _interval_trig(lo: np.ndarray, hi: np.ndarray, trigs=(_SIN, _COS)):
    """Ranges of each of trigs (sin and cos by default) over [lo, hi],
    outward rounded.

    Returns (t_min, t_max), each a tuple with one array per function in
    the order of trigs.  Critical-point containment is widened by an
    absolute slack so that argument-reduction rounding can only make the
    answer more conservative, never unsound.  Past _TRIG_ARG_LIMIT (or at
    inf or NaN) the range is the trivial [-1, 1].
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mag = np.maximum(np.abs(lo), np.abs(hi))
    big = ~(mag <= _TRIG_ARG_LIMIT)
    if big.any():
        lo, hi, mag = (np.where(big, 0.0, a) for a in (lo, hi, mag))
    slack = 1e-13 * np.maximum(1.0, mag)
    top = hi + slack

    def _contains(c):
        hit = c + np.ceil((lo - c - slack) / TWO_PI) * TWO_PI <= top
        return hit | big

    t_min, t_max = [], []
    for fn, peak, trough in trigs:
        v_lo = fn(lo)
        v_hi = fn(hi)
        end_max = _nudge_up(np.maximum(v_lo, v_hi))
        end_min = _nudge_down(np.minimum(v_lo, v_hi))
        t_max.append(np.where(_contains(peak), 1.0, np.minimum(end_max, 1.0)))
        t_min.append(np.where(_contains(trough), -1.0, np.maximum(end_min, -1.0)))
    return tuple(t_min), tuple(t_max)


def _interval_prod(alo, ahi, blo, bhi):
    """Interval product; endpoints are already outward rounded upstream."""
    with np.errstate(over="ignore"):
        c1, c2, c3, c4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
    hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    return lo, hi


def _log_sqrt_s2_plus_sinh2(s2: np.ndarray, m: np.ndarray) -> np.ndarray:
    """0.5*log(s2 + sinh(m)^2) without overflow; s2 in [0,1], m >= 0.

    s2 has m's shape, or m's shape behind leading axes.  The large-m form
    (m > 36, or NaN) is computed only where its mask selects it, as in
    log_abs_f_fprime_batch.
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        m_small = np.minimum(m, _ASYMPTOTIC_IM)
        sh = np.sinh(m_small)
        v = s2 + sh * sh
        out = np.where(v > 0.0, 0.5 * np.log(v), -np.inf)
        large = ~(m <= _ASYMPTOTIC_IM)
        if large.any():
            m_large = m[large]
            m_clip = np.minimum(m_large, 400.0)
            corr = (4.0 * s2[..., large] - 2.0) * np.exp(-2.0 * m_clip) + np.exp(-4.0 * m_clip)
            out[..., large] = m_large - LOG2 + 0.5 * np.log1p(corr)
        return out


def _square_range(lo, hi):
    """Range of t^2 for t in [lo, hi]."""
    straddles = (lo <= 0.0) & (hi >= 0.0)
    with np.errstate(over="ignore"):
        lo_sq = lo * lo
        hi_sq = hi * hi
    return np.where(straddles, 0.0, np.minimum(lo_sq, hi_sq)), np.maximum(lo_sq, hi_sq)


def _exp_range(w_lo, w_hi):
    """(usable, v_lo, v_hi): usable where w_hi <= _MAX_PLAIN_EXPONENT, and
    there [v_lo, v_hi] encloses e^w over [w_lo, w_hi]; elsewhere v is the
    enclosure of e^0 and the caller discards it."""
    usable = w_hi <= _MAX_PLAIN_EXPONENT
    with np.errstate(over="ignore", under="ignore"):
        v_lo = _nudge_down(np.exp(np.where(usable, w_lo, 0.0)))
        v_hi = _nudge_up(np.exp(np.where(usable, w_hi, 0.0)))
    return usable, v_lo, v_hi


def _exp_box(usable, v_lo, v_hi, s_min, s_max, c_min, c_max) -> dict:
    """The box of w = e^u over each cell of u, with |e^u| in [v_lo, v_hi]
    where usable (_exp_range) and the sin and cos of Im u in
    [s_min, s_max] and [c_min, c_max].

    Returns per-cell arrays by name: "re_lo" and "re_hi", the
    outward-rounded range of Re w, where the outer sin or cos is taken;
    "m_lo" and "m_hi", that of |Im w|; and "usable"."""
    im_lo, im_hi = _interval_prod(v_lo, v_hi, s_min, s_max)
    re_lo, re_hi = _interval_prod(v_lo, v_hi, c_min, c_max)
    im_lo = _nudge_down(im_lo)
    im_hi = _nudge_up(im_hi)
    return {"usable": usable, "re_lo": _nudge_down(re_lo), "re_hi": _nudge_up(re_hi),
            "m_lo": np.maximum(0.0, np.maximum(im_lo, -im_hi)),
            "m_hi": np.maximum(np.abs(im_lo), np.abs(im_hi))}


def _log_trig_of_box(box: dict, trig):
    """Enclosure (log_lo, log_hi) of log|sin w| (trig _SIN) or log|cos w|
    (_COS) over the box of _exp_box, via |sin w|^2 = sin^2 Re w +
    sinh^2 Im w and its cos twin; trivial where the box is not usable."""
    (t_min,), (t_max,) = _interval_trig(box["re_lo"], box["re_hi"], (trig,))
    s2_min, s2_max = _square_range(t_min, t_max)
    log_hi = _nudge_up(_log_sqrt_s2_plus_sinh2(np.minimum(s2_max, 1.0), box["m_hi"]))
    log_lo = _nudge_down(_log_sqrt_s2_plus_sinh2(s2_min, box["m_lo"]))
    usable = box["usable"]
    return np.where(usable, log_lo, -np.inf), np.where(usable, log_hi, np.inf)


# Mirror symmetries of |f| and |f'|, and so of the sublevel domains the
# quadrature integrates over.  Every family is real on the real axis, so
# f(conj z) = conj f(z) and both magnitudes are even in Im z ("im");
# sin(e^(z^2)) is also even in z, so for it they are even in Re z ("re")
# too.  bound_abs_f_fprime_batch returns the same bits on a cell and on its
# mirror image in each declared coordinate; tests/test_families.py checks it.
MIRROR_AXES: dict[GraphFamily, tuple[str, ...]] = {
    GraphFamily.SIN_EXP: ("im",),
    GraphFamily.SIN_EXP_SQ: ("im", "re"),
    GraphFamily.EXP: ("im",),
}


# ---------------------------------------------------------------------------
# Cell enclosures in two stages over column and row terms
# ---------------------------------------------------------------------------

def _gather(terms: dict, index, *names):
    """The named column or row terms at index (one entry per cell), or
    the terms themselves when index is None (cells given one by one)."""
    if index is None:
        return tuple(terms[name] for name in names)
    return tuple(terms[name].take(index) for name in names)


def _axis_terms(lo, hi) -> dict:
    """The terms every family keeps for intervals [lo, hi] of one axis:
    the edges "lo" and "hi", and the range of t^2 over each interval,
    "sq_lo" and "sq_hi"."""
    sq_lo, sq_hi = _square_range(lo, hi)
    return {"lo": lo, "hi": hi, "sq_lo": sq_lo, "sq_hi": sq_hi}


def _column_terms(family: GraphFamily, lo, hi) -> dict:
    """What classification and the cell kernel need from the Re edges
    [lo, hi] of cells, by name, one entry per interval.  Cells that share
    a column share these bits, so a caller holding cells as (column, row)
    addresses computes them once per column and lets the kernel gather
    them per cell.  Beyond _axis_terms, e^z keeps its enclosure, since
    |f| = |f'| = e^x is bounded by the edges ("e_lo", "e_hi"), and
    sin(e^z) that of |e^u| = e^x (_exp_range: "usable", "v_lo", "v_hi")."""
    terms = _axis_terms(lo, hi)
    if family is GraphFamily.EXP:
        terms["e_lo"], terms["e_hi"] = _nudge_down(lo), _nudge_up(hi)
    elif family is GraphFamily.SIN_EXP:
        terms["usable"], terms["v_lo"], terms["v_hi"] = _exp_range(lo, hi)
    return terms


def _row_terms(family: GraphFamily, lo, hi) -> dict:
    """_column_terms' twin for the Im edges of cells.  Beyond _axis_terms,
    sin(e^z) keeps the ranges of sin and cos of Im u = y ("s_min",
    "s_max", "c_min", "c_max")."""
    terms = _axis_terms(lo, hi)
    if family is GraphFamily.SIN_EXP:
        (terms["s_min"], terms["c_min"]), (terms["s_max"], terms["c_max"]) = (
            _interval_trig(lo, hi))
    return terms


def _abs_z2_range(cols: dict, rows: dict, col, row):
    """(dmin2, dmax2): the range of |z|^2 = x^2 + y^2 over each cell."""
    x2_lo, x2_hi = _gather(cols, col, "sq_lo", "sq_hi")
    y2_lo, y2_hi = _gather(rows, row, "sq_lo", "sq_hi")
    with np.errstate(over="ignore"):
        return x2_lo + y2_lo, x2_hi + y2_hi


def _enclose_f(family: GraphFamily, cols: dict, rows: dict, col, row):
    """Stage 1: (f_lo, f_hi, box), log enclosures of |f| over each cell,
    and box, the per-cell arrays by name that stage 2 needs to finish |f'|
    on any subset of the cells.

    Cell i has the column terms at col[i] and the row terms at row[i]
    (col and row None: cell i has entry i of both).  For EXP, box holds
    the enclosure of e^x.  Else it is the e^u box (_exp_box), whose outer
    sin stage 1 takes, and for SIN_EXP_SQ it also holds the range of
    Re u ("w_lo", "w_hi"), which |f'| = |2z| e^(Re u) |cos e^u| needs.
    """
    if family is GraphFamily.EXP:
        e_lo, e_hi = _gather(cols, col, "e_lo", "e_hi")
        return e_lo, e_hi, {"e_lo": e_lo, "e_hi": e_hi}
    if family is GraphFamily.SIN_EXP:
        box = _exp_box(*_gather(cols, col, "usable", "v_lo", "v_hi"),
                       *_gather(rows, row, "s_min", "s_max", "c_min", "c_max"))
        return (*_log_trig_of_box(box, _SIN), box)
    x_lo, x_hi, x2_lo, x2_hi = _gather(cols, col, "lo", "hi", "sq_lo", "sq_hi")
    y_lo, y_hi, y2_lo, y2_hi = _gather(rows, row, "lo", "hi", "sq_lo", "sq_hi")
    # u = z^2: Re u = x^2 - y^2 and Im u = 2xy, exact arithmetic nudged outward
    w_lo = _nudge_down(x2_lo - y2_hi)
    w_hi = _nudge_up(x2_hi - y2_lo)
    p_lo, p_hi = _interval_prod(x_lo, x_hi, y_lo, y_hi)
    with np.errstate(over="ignore"):
        a_lo, a_hi = _nudge_down(2.0 * p_lo), _nudge_up(2.0 * p_hi)
    (s_min, c_min), (s_max, c_max) = _interval_trig(a_lo, a_hi)
    box = _exp_box(*_exp_range(w_lo, w_hi), s_min, s_max, c_min, c_max)
    box["w_lo"], box["w_hi"] = w_lo, w_hi
    return (*_log_trig_of_box(box, _SIN), box)


def _enclose_fprime(family: GraphFamily, cols: dict, rows: dict, col, row, box: dict,
                    sel=None):
    """Stage 2: (fp_lo, fp_hi), log enclosures of |f'| over the cells sel
    (an index array into the cells of stage 1, or None for all of them).
    It takes the outer cos of stage 1's e^u box, so on any subset it
    returns the bits of bound_abs_f_fprime_batch on those cells."""
    if sel is not None:
        box = {name: a.take(sel) for name, a in box.items()}
        col, row = (sel if a is None else a.take(sel) for a in (col, row))
    if family is GraphFamily.EXP:
        return box["e_lo"], box["e_hi"]
    c_lo, c_hi = _log_trig_of_box(box, _COS)
    if family is GraphFamily.SIN_EXP:
        # |f'| = e^x |cos e^z|: logs add, exponent bounds are the cell edges.
        x_lo, x_hi = _gather(cols, col, "lo", "hi")
        return _nudge_down(x_lo + c_lo), _nudge_up(x_hi + c_hi)
    # |f'| = |2z| e^(Re u) |cos e^u|
    dmin2, dmax2 = _abs_z2_range(cols, rows, col, row)
    with np.errstate(divide="ignore"):
        log_2z_lo = LOG2 + 0.5 * np.log(dmin2)
        log_2z_hi = LOG2 + 0.5 * np.log(dmax2)
    lo = _nudge_down(log_2z_lo + box["w_lo"] + c_lo)
    hi = _nudge_up(log_2z_hi + box["w_hi"] + c_hi)
    # -inf + -inf stays -inf; guard the impossible inversion from rounding.
    return np.minimum(lo, hi), hi


def bound_abs_f_fprime_batch(family: GraphFamily, re_lo, re_hi, im_lo, im_hi):
    """(f_lo, f_hi, fp_lo, fp_hi): log enclosures of |f| and |f'| over
    each cell, vectorized: both stages of the cell kernel on every cell.
    For EXP, |f| = |f'| = e^x and the same two arrays are returned for
    both."""
    re_lo, re_hi, im_lo, im_hi = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (re_lo, re_hi, im_lo, im_hi)))
    cols = _column_terms(family, re_lo, re_hi)
    rows = _row_terms(family, im_lo, im_hi)
    f_lo, f_hi, box = _enclose_f(family, cols, rows, None, None)
    return (f_lo, f_hi, *_enclose_fprime(family, cols, rows, None, None, box))


def _bound_cell(family: GraphFamily, cell: RectBounds):
    return bound_abs_f_fprime_batch(
        family,
        np.array([cell.re_lo]),
        np.array([cell.re_hi]),
        np.array([cell.im_lo]),
        np.array([cell.im_hi]),
    )


def bound_abs_f(family: GraphFamily, cell: RectBounds) -> MagInterval:
    """Rigorous enclosure of |f| over a rectangle."""
    lo, hi, _, _ = _bound_cell(family, cell)
    return MagInterval(float(lo[0]), float(hi[0]))


def bound_abs_fprime(family: GraphFamily, cell: RectBounds) -> MagInterval:
    """Rigorous enclosure of |f'| over a rectangle."""
    _, _, lo, hi = _bound_cell(family, cell)
    return MagInterval(float(lo[0]), float(hi[0]))

"""Minimal self-contained SVG 1.1 line charts for growth curves.

No plotting dependency: the chart is a polyline in transformed
coordinates plus a frame, tick labels at the corners, and a <title>
element carrying machine-readable metadata (the axes mode and the
least-squares slope of the transformed data, which is the growth rate
under the matching model, exact and rounded once by growth's fit).
Output is deterministic text: the pixel map and the '%.3f' points use
only IEEE-exact numpy operations, so no byte depends on numpy's SIMD
dispatch.  The render works on float64 arrays (cli passes them so);
the log axes take math.log10 of each value, not numpy's log10.

Axes modes and their coordinate transforms:

  linear     (x, y)
  semilog-y  (x, log10 y)        straight for exponential laws
  y-vs-r2    (x^2, y)            straightens nothing but exposes
                                 Gaussian abscissae spacing
  log-log    (log10 x, log10 y)  straight for power laws

For semilog-y / log-log the y values must be positive, likewise x for
log-log.  Every transformed value must be finite (an inf or nan in the
input, or an x^2 past the double range, raises ValueError), so the
polyline and the tick labels are always plain numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _text
from ._text import fmt17
from .growth import _least_squares

__all__ = ["AXES_MODES", "render_line_chart"]

AXES_MODES = ("linear", "semilog-y", "y-vs-r2", "log-log")

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = 60.0
_POINT_BLOCK = 4096  # points per piece of text (see cli._FLOAT_BLOCK for why blocks)


def _log10(values: np.ndarray) -> np.ndarray:
    """math.log10 of each value: libm's, not numpy's SIMD log10."""
    return np.fromiter(map(math.log10, values.tolist()), float, values.size)


def _transform(mode: str, xs: np.ndarray, ys: np.ndarray):
    if mode == "linear":
        tx, ty = xs, ys
    elif mode == "semilog-y":
        if (ys <= 0).any():
            raise ValueError("semilog-y requires positive y values")
        tx, ty = xs, _log10(ys)
    elif mode == "y-vs-r2":
        with np.errstate(over="ignore"):  # inf past the double range, as Python's x * x
            tx, ty = xs * xs, ys
    elif mode == "log-log":
        if (xs <= 0).any() or (ys <= 0).any():
            raise ValueError("log-log requires positive x and y values")
        tx, ty = _log10(xs), _log10(ys)
    else:
        raise ValueError(f"unknown axes mode {mode!r}")
    if not (np.isfinite(tx).all() and np.isfinite(ty).all()):
        raise ValueError(f"{mode} plot needs finite transformed values")
    return tx, ty


def _extremes(values: np.ndarray) -> tuple[float, float]:
    """min and max as Python's give them: the first of equal values, so
    that -0.0 and 0.0 keep their order."""
    return float(values[values.argmin()]), float(values[values.argmax()])


def _pixels(values: np.ndarray, lo: float, hi: float,
            out_lo: float, out_hi: float) -> np.ndarray:
    """values mapped linearly from [lo, hi] onto [out_lo, out_hi], with
    the operations of out_lo + (v - lo) * out_span / span per value."""
    values = np.asarray(values, dtype=float)
    if hi == lo:
        return np.full(values.size, 0.5 * (out_lo + out_hi))
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError("plot range is wider than the double range")
    out_span = out_hi - out_lo
    with np.errstate(over="ignore"):  # an inf pixel, as Python's float product gives
        return out_lo + (values - lo) * out_span / span


def render_line_chart(xs: Sequence[float], ys: Sequence[float], mode: str,
                      label: str = "growth curve") -> str:
    """Render one curve to an SVG document string.

    The <title> carries "<label>; mode=<mode>; fitted slope=<slope>"
    where slope is the least-squares slope in the transformed
    coordinates (17 significant digits), nan when there is none.  The
    label is XML-escaped (&, <, >) there and in the caption.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least 2 points to plot")
    tx, ty = _transform(mode, xs, ys)
    try:
        slope = _least_squares(tx, ty)[0]
    except ValueError:  # all transformed x equal
        slope = math.nan

    x_lo, x_hi = _extremes(tx)
    y_lo, y_hi = _extremes(ty)
    px = _pixels(tx, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN)
    # SVG y axis points down
    py = _pixels(ty, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN)
    # "x,y" per point, a block of points at a time, the blocks joined at
    # their exact length
    points = b" ".join([_text.rows([_text.f3(px[i:i + _POINT_BLOCK]), ",",
                                    _text.f3(py[i:i + _POINT_BLOCK]), " "])[:-1]
                        for i in range(0, len(px), _POINT_BLOCK)]).decode("ascii")

    # escaped as xml.sax.saxutils.escape does, without importing urllib
    text = label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    title = f"{text}; mode={mode}; fitted slope={fmt17(slope)}"
    frame = (
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#888" stroke-width="1"/>'
    )
    labels = (
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 20}" font-size="12" '
        f'font-family="monospace">{fmt17(x_lo)}</text>\n'
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 20}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{fmt17(x_hi)}</text>\n'
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{fmt17(y_lo)}</text>\n'
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{fmt17(y_hi)}</text>\n'
        f'<text x="{_WIDTH / 2}" y="{_MARGIN - 20}" font-size="13" '
        f'font-family="monospace" text-anchor="middle">{title}</text>'
    )
    polyline = f'<polyline fill="none" stroke="#1f4e9c" stroke-width="1.5" points="{points}"/>'
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">\n'
        f"<title>{title}</title>\n"
        f"{frame}\n{polyline}\n{labels}\n"
        "</svg>\n"
    )

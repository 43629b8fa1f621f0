"""Minimal self-contained SVG 1.1 line charts for growth curves.

No plotting dependency: the chart is a polyline in transformed
coordinates plus a frame, tick labels at the corners, and a <title>
element carrying machine-readable metadata (the axes mode and the
least-squares slope of the transformed data, which is the growth rate
under the matching model, exact and rounded once by growth's fit).
Output is deterministic text that does not depend on numpy.

Axes modes and their coordinate transforms:

  linear     (x, y)
  semilog-y  (x, log10 y)        straight for exponential laws
  y-vs-r2    (x^2, y)            straightens nothing but exposes
                                 Gaussian abscissae spacing
  log-log    (log10 x, log10 y)  straight for power laws

For semilog-y / log-log the y values must be positive, likewise x for
log-log.
"""

from __future__ import annotations

import math
from typing import Sequence

from .growth import _least_squares

__all__ = ["AXES_MODES", "render_line_chart"]

AXES_MODES = ("linear", "semilog-y", "y-vs-r2", "log-log")

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = 60.0


def _transform(mode: str, xs: Sequence[float], ys: Sequence[float]):
    if mode not in AXES_MODES:
        raise ValueError(f"unknown axes mode {mode!r}")
    tx = []
    ty = []
    for x, y in zip(xs, ys):
        if mode == "linear":
            tx.append(x)
            ty.append(y)
        elif mode == "semilog-y":
            if y <= 0:
                raise ValueError("semilog-y requires positive y values")
            tx.append(x)
            ty.append(math.log10(y))
        elif mode == "y-vs-r2":
            tx.append(x * x)
            ty.append(y)
        else:
            if x <= 0 or y <= 0:
                raise ValueError("log-log requires positive x and y values")
            tx.append(math.log10(x))
            ty.append(math.log10(y))
    return tx, ty


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _pix(v: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi == lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def render_line_chart(xs: Sequence[float], ys: Sequence[float], mode: str,
                      label: str = "growth curve") -> str:
    """Render one curve to an SVG document string.

    The <title> carries "<label>; mode=<mode>; fitted slope=<slope>"
    where slope is the least-squares slope in the transformed
    coordinates (17 significant digits), nan when there is none.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least 2 points to plot")
    tx, ty = _transform(mode, xs, ys)
    try:
        slope = _least_squares(tx, ty)[0]
    except ValueError:  # all transformed x equal, or a value not finite
        slope = math.nan

    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ty), max(ty)
    px = [_pix(v, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN) for v in tx]
    # SVG y axis points down
    py = [_pix(v, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN) for v in ty]
    points = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(px, py))

    title = f"{label}; mode={mode}; fitted slope={_fmt(slope)}"
    frame = (
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#888" stroke-width="1"/>'
    )
    labels = (
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 20}" font-size="12" '
        f'font-family="monospace">{_fmt(x_lo)}</text>\n'
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 20}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{_fmt(x_hi)}</text>\n'
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{_fmt(y_lo)}</text>\n'
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{_fmt(y_hi)}</text>\n'
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

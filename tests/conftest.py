"""Shared test fixtures and oracle helpers.

Oracles live here so every test module compares the library against an
independent implementation: mpmath for arbitrary-precision point values,
plain numpy for dense sampling, subprocess for the CLI surface.
"""

import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from graphgrowth import GraphFamily
from graphgrowth.families import _column_terms, _enclose_f, _enclose_fprime, _row_terms

mpmath.mp.dps = 40


def mp_f(family: GraphFamily, z: complex) -> mpmath.mpc:
    """High-precision f(z) for each family."""
    zm = mpmath.mpc(z.real, z.imag)
    if family is GraphFamily.SIN_EXP:
        return mpmath.sin(mpmath.exp(zm))
    if family is GraphFamily.SIN_EXP_SQ:
        return mpmath.sin(mpmath.exp(zm * zm))
    return mpmath.exp(zm)


def mp_fprime(family: GraphFamily, z: complex) -> mpmath.mpc:
    """High-precision f'(z) for each family."""
    zm = mpmath.mpc(z.real, z.imag)
    if family is GraphFamily.SIN_EXP:
        return mpmath.exp(zm) * mpmath.cos(mpmath.exp(zm))
    if family is GraphFamily.SIN_EXP_SQ:
        return 2 * zm * mpmath.exp(zm * zm) * mpmath.cos(mpmath.exp(zm * zm))
    return mpmath.exp(zm)


def mp_log_abs(w: mpmath.mpc) -> float:
    """log|w| as a float, -inf for w == 0."""
    if w == 0:
        return float("-inf")
    return float(mpmath.log(abs(w)))


def sample_cell(rng: np.random.Generator, lo: float, hi: float,
                span_max: float = 2.0) -> tuple[float, float, float, float]:
    """Random axis-aligned cell with corners in [lo, hi]^2."""
    x0 = rng.uniform(lo, hi)
    y0 = rng.uniform(lo, hi)
    w = rng.uniform(1e-6, span_max)
    h = rng.uniform(1e-6, span_max)
    return x0, x0 + w, y0, y0 + h


def enclose_cells(family: GraphFamily, re_lo, re_hi, im_lo, im_hi):
    """(f_lo, f_hi, fp_lo, fp_hi): log enclosures of |f| and |f'| over
    cells given by per-cell edge arrays.  Each cell is its own column and
    row: the edges become per-cell tables with identity addresses, then
    both stages of the cell kernel run on every cell."""
    xs = np.array([re_lo, re_hi], dtype=float)
    ys = np.array([im_lo, im_hi], dtype=float)
    index = np.arange(xs.shape[1])
    cols, rows = _column_terms(family, *xs), _row_terms(family, *ys)
    f_lo, f_hi, box = _enclose_f(family, cols, rows, index, index)
    return (f_lo, f_hi, *_enclose_fprime(family, cols, rows, index, index, box))


def run_cli(*args: str, env_extra: dict | None = None,
            timeout: float = 300.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "graphgrowth", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260819)

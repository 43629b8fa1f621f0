"""The correctly rounded log and k^-p of graphgrowth._crmath.

log is compared bit for bit with mpmath's log at 200 bits, rounded once,
and recip_power with Python's int division, which CPython rounds
correctly.  The arguments include the hard cases: the integers up to
2^20 whose log glibc does not round correctly, arguments next to 1, the
table boundaries, every power of two and subnormals; the slow paths are
forced by a margin no fast result can meet.
"""

import subprocess
import sys

import mpmath
import numpy as np
import pytest

from graphgrowth import _crmath

# the integers k <= 2^20 whose math.log(k) is not correctly rounded with
# glibc 2.36 (found against mpmath; other libms miss others)
_LIBM_MISSES = [9170, 136837, 141614, 147674, 277862, 278555, 330034, 351497, 372772,
                394915, 416542, 504274, 507328, 557003, 622817, 658711, 664679, 672295,
                699095, 721368, 822630, 832164, 843741, 900741, 1006553]


def _log_arguments():
    rng = np.random.default_rng(20261019)
    # m = x 2^-e at the level-1 boundaries (i +- 1/2) / 512 and the split
    # at sqrt(1/2), a few ulps either way
    edges = np.concatenate([(np.arange(362, 726) - 0.5) / 512, [_crmath._SQRT_HALF]])
    edges = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 2.0)])
    parts = [
        np.arange(2.0, 40_002.0),  # stage numbers
        np.array(_LIBM_MISSES, float),
        1.0 + rng.uniform(-2.0 ** -8, 2.0 ** -8, 20_000),
        1.0 + rng.integers(-2 ** 12, 2 ** 12, 4000) * 2.0 ** -53,  # a few ulps from 1
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
        rng.integers(1, 2 ** 52, 4000, dtype=np.uint64).view(np.float64),  # subnormals
        np.ldexp(edges, rng.integers(-1000, 1000, edges.size)),
        edges,
        rng.integers(2 ** 52, 0x7FF0_0000_0000_0000, 28_000, dtype=np.uint64).view(np.float64),
    ]
    x = np.concatenate(parts)
    return x[x != 1.0]


@pytest.fixture(scope="module")
def logs():
    x = _log_arguments()
    with mpmath.workprec(200):
        exact = [mpmath.log(v) for v in x.tolist()]
    return x, exact


def test_log_matches_mpmath(logs):
    x, exact = logs
    assert x.size >= 100_000
    assert _crmath.log(x).tolist() == [float(v) for v in exact]


def test_log_fast_path_error_bound(logs):
    # Ziv's test is sound only if hi + lo is within 2^-79 |log x|, the
    # bound the docstring derives; _ERR leaves a margin of 3 bits
    x, exact = logs
    hi, lo = _crmath._log_parts(x)
    worst = mpmath.mpf(0)
    with mpmath.workprec(200):
        for h, l, v in zip(hi.tolist(), lo.tolist(), exact):
            worst = max(worst, abs((mpmath.mpf(h) + l) - v) / abs(v))
    assert worst < mpmath.mpf(2) ** -79 <= _crmath._ERR / 8


def test_log_slow_path(monkeypatch):
    # a margin no double-double meets: every element takes decimal's ln
    x = _log_arguments()[::300]
    monkeypatch.setattr(_crmath, "_ERR", 1.0)
    with mpmath.workprec(200):
        want = [float(mpmath.log(v)) for v in x.tolist()]
    assert _crmath.log(x).tolist() == want


def test_log_special_values_and_shapes():
    x = np.array([np.inf, 0.0, -0.0, -1.0, np.nan, 1.0, 2.0])
    got = _crmath.log(x)
    assert got[:3].tolist() == [np.inf, -np.inf, -np.inf]
    assert np.isnan(got[3:5]).all()
    assert got[5:].tolist() == [0.0, 0.6931471805599453]
    grid = np.arange(2.0, 14.0).reshape(3, 4)
    assert _crmath.log(grid).tolist() == _crmath.log(grid.ravel()).reshape(3, 4).tolist()
    assert _crmath.log(np.array([])).shape == (0,)
    assert _crmath.log(7.0).shape == ()


def _recip_arguments():
    rng = np.random.default_rng(147)
    cube_edge, square_edge = 208063, 94906266  # k^3 and k^2 pass 2^53 there
    parts = [
        np.arange(1.0, 2 ** 17 + 1),
        np.arange(cube_edge - 2000, cube_edge + 2000, dtype=float),
        np.arange(square_edge - 2000, square_edge + 2000, dtype=float),
        rng.integers(2 ** 17, 2 ** 53, 20_000).astype(float),
        # every double from 2^53 on is an integer
        rng.integers(0x4340_0000_0000_0000, 0x7FF0_0000_0000_0000, 20_000,
                     dtype=np.uint64).view(np.float64),
        np.ldexp(1.0, np.arange(0, 1024)),
        np.array([2.0 ** 299, 2.0 ** 300, 2.0 ** 341, 1e300, sys.float_info.max]),
    ]
    return np.concatenate(parts)


@pytest.mark.parametrize("p", [2, 3])
def test_recip_power_matches_int_division(p):
    k = _recip_arguments()
    assert k.size >= 100_000
    want = [1 / int(v) ** p for v in k.tolist()]
    assert _crmath.recip_power(k, p).tolist() == want
    assert _crmath.recip_power(147.0, 3) == 1 / 147 ** 3


@pytest.mark.parametrize("p", [2, 3])
def test_recip_power_slow_path(p, monkeypatch):
    k = _recip_arguments()[::50]
    monkeypatch.setattr(_crmath, "_ERR", 1.0)
    assert _crmath.recip_power(k, p).tolist() == [1 / int(v) ** p for v in k.tolist()]


def test_tables_are_mpmath_values():
    # -log c for the level-1 multipliers c1 = k / 128 and the level-2
    # multipliers c2, split hi + lo with hi on the grids the sums need
    def split(value, grid):
        hi = float(mpmath.nint(value * 2 ** grid)) / 2.0 ** grid
        return hi, float(value - hi)

    with mpmath.workprec(300):
        assert (_crmath._LOG2_HI, _crmath._LOG2_LO) == split(mpmath.log(2), 42)
        t1 = [split(-mpmath.log(mpmath.mpf(k) / 128), 43) for k in range(91, 182)]
        c2 = np.rint(2.0 ** 20 / (1.0 + np.arange(-113, 114) * 2.0 ** -14)) / 2.0 ** 20
        t2 = [split(-mpmath.log(c), 43) for c in c2.tolist()]
    i = np.arange(362, 725)
    k = np.rint(65536.0 / i).astype(int)
    assert _crmath._C1[i].tolist() == (k / 128.0).tolist()
    assert list(zip(_crmath._T1_HI[i].tolist(), _crmath._T1_LO[i].tolist())) == [
        t1[v - 91] for v in k.tolist()]
    j = np.arange(-113, 114)
    assert _crmath._C2[j].tolist() == c2.tolist()
    assert list(zip(_crmath._T2_HI[j].tolist(), _crmath._T2_LO[j].tolist())) == t2


def test_logs_need_no_decimal():
    # the slow path imports decimal; a schedule and its trend never reach it
    code = ("import sys; from graphgrowth import cli; "
            "[cli.main(['schedule', '--variant', v, '--N', '20000', '--format', 'json', "
            "'--output', '/dev/null']) for v in ('exp', 'gaussian')]; "
            "print('decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.strip() == "False"

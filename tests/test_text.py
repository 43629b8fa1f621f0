"""The numpy column formatters against Python's own %, value by value.

graphgrowth._text builds the CSV fields, the JSON float lists and the
SVG points without a per-value %; each case here compares its text with
the % of every value, and rows' one-pass assembly with the plain one.
Random bit patterns cover all of the double range; the hand-picked
inputs sit where a correctly rounded conversion is hardest: powers of
ten one ulp either way, exact ties, the changes of form, and the values
the numpy path hands back to Python.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgrowth import _text


def _lines(chars):
    return _text.rows([chars, "\n"]).split(b"\n")[:-1]


def _encoded(form, values):
    return [(form % v).encode() for v in values]


def _check_g17(values):
    x = np.asarray(values, dtype=float)
    assert _lines(_text.g17(x)) == _encoded("%.17g", x.tolist())


def _random_doubles(count, seed=20260101):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, count, dtype=np.uint64)
    return bits.view(np.float64)


def _powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def _ties():
    """Doubles x with x * 10^e an odd half in [1e16, 1e17): their
    17-digit decimals are exact ties.  x = m * 2^-(e + 1) with m odd and
    m * 5^e in [2e16, 2e17)."""
    rng = np.random.default_rng(7)
    out = []
    for e in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** e), min(2 * 10 ** 17 // 5 ** e, 2 ** 53)
        for m in {lo, hi - 1, *rng.integers(lo, hi, 20).tolist()}:
            m -= 1 - m % 2
            if m >= lo:
                x = math.ldexp(m, -(e + 1))
                assert 10 ** 16 <= Fraction(x) * 10 ** e < 10 ** 17
                assert Fraction(x) * 10 ** e % 1 == Fraction(1, 2)
                out.append(x)
    return np.array(out)


_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, sys.float_info.max, -sys.float_info.max,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, 1e-290,
    1e300, 1.0000000000000001e300, 1e301,
    # the changes of form: k = -5 and -4, 16 and 17
    1e-5, 9.9999999999999991e-06, 1.2345678901234567e-05, 1e-4, 9.9999999999999991e-05,
    1.2345678901234567e-4, 1e16, 9999999999999998.0, 12345678901234568.0, 1e17,
    99999999999999984.0, 123456789012345680.0, 0.1, 1.0, 123.0, 1e22, 1e23,
]


def test_g17_random_bit_patterns():
    _check_g17(_random_doubles(200_000))


@pytest.mark.parametrize("values", [_powers_of_ten(), _ties(), np.array(_EDGES)],
                         ids=["powers-of-ten", "ties", "edges"])
def test_g17_hard_values(values):
    _check_g17(values)
    _check_g17(-values)


def test_g17_subnormals():
    bits = np.random.default_rng(3).integers(1, 2 ** 52, 2000, dtype=np.uint64)
    _check_g17(bits.view(np.float64))


def test_g17_proves_almost_every_value():
    # the numpy path, not Python's % behind it, makes the text: inside
    # [1e-290, 1e300] the exact ties fall back, and otherwise only
    # fractions within 2^-20 of 1/2 and values next to a power of ten
    x = np.abs(_random_doubles(200_000))
    x = x[(x >= 1e-290) & (x <= 1e300)]
    fallback = x[~_text._decimal17(x)[2]].tolist()
    decades = [int(("%.16e" % v).split("e")[1]) for v in fallback]
    ties = [Fraction(v) * Fraction(10) ** (16 - k) % 1 == Fraction(1, 2)
            for v, k in zip(fallback, decades)]
    assert x.size > 100_000 and len(fallback) - sum(ties) <= 5


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_g17_log10_a_decade_off(monkeypatch, shift):
    # np.log10 only guesses the decade: a guess a decade off in either
    # direction changes which values take Python's %, and no byte
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda a: real(a) + shift)
    x = np.concatenate([_random_doubles(20_000, seed=5), _powers_of_ten(), _ties(),
                        np.array(_EDGES)])
    _check_g17(x)


def test_g17_keeps_the_shape():
    x = np.array([[0.5, 1e-7], [3.0, -2e20]])
    chars = _text.g17(x)
    assert chars.shape == (29, 2, 2)
    assert _lines(chars[:, 1]) == [b"3", b"-2e+20"]


def test_f3_binary_ties():
    # every 1/16 step of the plot's pixel range: the odd ones times 1000
    # end in exactly .5, and go to the even neighbour as Python's do
    x = np.arange(60 * 16, 580 * 16 + 1) / 16
    assert _lines(_text.f3(x)) == _encoded("%.3f", x.tolist())


def test_f3_values():
    rng = np.random.default_rng(11)
    x = np.concatenate([
        rng.uniform(60.0, 580.0, 100_000), rng.uniform(-1e9, 1e9, 1000),
        np.nextafter(np.arange(-2000, 2000) / 2000, np.inf),
        [0.0, -0.0, -0.0001, 0.0005, -0.0005, 999999999.9995, 1e9, -1e12, 1e300,
         math.inf, -math.inf, math.nan, 5e-324]])
    assert _lines(_text.f3(x)) == _encoded("%.3f", x.tolist())


# each a block's largest magnitude, which sizes its digit rows
_DIGIT_COUNT_EDGES = sorted({b for k in range(19) for b in (10 ** k - 1, 10 ** k)})


@pytest.mark.parametrize("values", [
    np.array([0, 1, -1, 9, 10, 99, 100, 2 ** 63 - 1, -2 ** 63, 10 ** 18, -10 ** 18]),
    np.random.default_rng(2).integers(-2 ** 63, 2 ** 63 - 1, 10_000, dtype=np.int64),
    range(10 ** 30, 10 ** 30 + 5),
    range(2 ** 63 - 2, 2 ** 63 + 2),
    [],
    *(np.array([top, 0, -top]) for top in _DIGIT_COUNT_EDGES),
], ids=["edges", "random", "past-int64", "across-int64", "empty",
        *(f"digits-{top}" for top in _DIGIT_COUNT_EDGES)])
def test_ints(values):
    assert _lines(_text.ints(values)) == _encoded("%d", values)


def test_rows_and_flags():
    text = _text.rows([_text.ints(np.array([1, 20])), ",", _text.flags(np.array([True, False])),
                       ",Quadrature,", _text.g17(np.array([0.5, 0.1])), "\n"])
    assert text == b"1,true,Quadrature,0.5\n20,false,Quadrature,0.10000000000000001\n"


def _concatenated_rows(cells):
    """The former assembly of rows: every cell's character rows stacked
    whole, the (w, n) block transposed into row order, the NULs dropped."""
    n = next(cell.shape[1] for cell in cells if not isinstance(cell, str))
    chars = np.concatenate([
        np.broadcast_to(np.frombuffer(cell.encode(), np.uint8)[:, None], (len(cell), n))
        if isinstance(cell, str) else cell for cell in cells])
    return chars.T.tobytes().translate(None, b"\0")


_CELL_DOUBLES = st.floats() | st.sampled_from([0.0, -0.0, 0.5, 1e-7, -2e20, 1e300, 1e9])


@st.composite
def _row_cells(draw):
    """Cells of one block of n lines, as the CSV, JSON and SVG writers
    pass them: the g17 cells are views of one formatted stack, f3 of
    1e300 and ints past int64 are widened by _patch, and a blank cell is
    all NUL, as a sigma column whose stages are all infeasible."""
    n = draw(st.integers(1, 5))
    doubles = st.lists(_CELL_DOUBLES, min_size=n, max_size=n)
    kinds = draw(st.lists(st.sampled_from(["g17", "blank", "ints", "f3", "flags", "sep"]),
                          min_size=1, max_size=8))
    cells = []
    for kind in kinds:
        if kind in ("g17", "blank"):
            chars = _text.g17(np.array([draw(doubles), draw(doubles)])).swapaxes(0, 1)[1]
            if kind == "blank":
                chars[:] = 0
            cells.append(chars)
        elif kind == "ints":
            cells.append(_text.ints(draw(st.lists(st.integers(-2 ** 70, 2 ** 70),
                                                  min_size=n, max_size=n))))
        elif kind == "f3":
            cells.append(_text.f3(draw(doubles)))
        elif kind == "flags":
            cells.append(_text.flags(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        else:
            cells.append(draw(st.text(st.characters(min_codepoint=32, max_codepoint=126),
                                      max_size=3)))
    if all(isinstance(cell, str) for cell in cells):
        cells.append(_text.ints(range(n)))
    return cells


def _blank_widened_line():
    """One line: a blank cell and a '%.3f' cell that _patch widened."""
    blank = _text.g17(np.array([2.5]))
    blank[:] = 0
    return [_text.ints(np.array([7])), ",", blank, ",", _text.f3(np.array([1e300])), "\n"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cells=_row_cells())
@example(cells=_blank_widened_line())
def test_rows_match_the_concatenated_assembly(cells):
    assert _text.rows(cells) == _concatenated_rows(cells)


def _read(fields, pad=0):
    """_text.reals of fields laid out comma-separated after pad bytes."""
    data = b"x" * pad + b",".join(fields) + b","
    ends = np.cumsum([len(f) + 1 for f in fields]) + pad - 1
    starts = ends - [len(f) for f in fields]
    return _text.reals(np.frombuffer(data, np.uint8), starts, ends)


def _float_or_error(field):
    try:
        return float(field)
    except ValueError:
        return ValueError


# where float()'s correct rounding is hardest: halfway cases, the edges of
# the subnormals and of the range, 19-20 digit mantissas, signs, zeros
_FIELD_EDGES = [
    "9007199254740993", "9007199254740995", "-9007199254740993", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "1e23", "8.5e22", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623158e308",
    "1.7976931348623159e308", "1e400", "-1e400", "1e-400", "0.1", "0.30000000000000004",
    "1234567890123456789", "12345678901234567890", "123456789012345678.5",
    "99999999999999999.5", "0.000000000000000000001", "-0", "+0", "-0.0", "00", "007.50",
    "1.", ".5", "-.5", ".", "-", "+", "", "e5", "1e", "1.2.3", "--1", "1-", " 1", "1 ",
    "1_000", "inf", "-Infinity", "nan", "0x10", "\u0661".encode().decode("ascii", "ignore"),
]
_DIGIT_RUNS = st.text("0123456789", max_size=21)
_DECIMALS = st.builds(
    lambda sign, whole, point, frac, exp: sign + whole + point + frac + exp,
    st.sampled_from(["", "-", "+"]), _DIGIT_RUNS, st.sampled_from(["", "."]), _DIGIT_RUNS,
    st.sampled_from(["", "", "e5", "E-3", "e+400", "e-400", "e0", "e-330"]))
_FIELDS = (_DECIMALS | st.sampled_from(_FIELD_EDGES)
           | st.text(alphabet="0123456789.-+eE_ x", max_size=8))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fields=st.lists(_FIELDS.map(str.encode), min_size=1, max_size=40),
       pad=st.integers(0, 30))
def test_reals_match_float(fields, pad):
    want = [_float_or_error(f) for f in fields]
    if ValueError in want:
        with pytest.raises(ValueError):
            _read(fields, pad)
        return
    assert _read(fields, pad).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_reals_decide_decimals_in_numpy(monkeypatch):
    # float() sees only what the numpy path leaves: forms it does not read
    # and the halfway products it cannot prove
    seen = []
    monkeypatch.setattr(_text, "float", lambda f: seen.append(f) or float(f), raising=False)
    rng = np.random.default_rng(19)
    x = np.concatenate([rng.uniform(0.0, 4.0, 5000), rng.uniform(-1e6, 1e6, 5000),
                        np.ldexp(rng.random(5000), rng.integers(-60, 60, 5000))])
    fields = ["%.17g" % v for v in x.tolist() if "e" not in "%.17g" % v]
    fields += ["%d" % v for v in rng.integers(-10 ** 15, 10 ** 15, 5000).tolist()]
    edges = ["9007199254740993", "1e5", "12345678901234567890", "0.5"]
    got = _read([f.encode() for f in fields + edges], pad=24)
    assert got.tolist() == [float(f) for f in fields + edges]
    assert seen == [b"9007199254740993", b"1e5", b"12345678901234567890"]

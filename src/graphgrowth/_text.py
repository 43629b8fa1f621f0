"""Exact numeric text for whole columns: '%.17g', '%d' and '%.3f' in numpy.

Each formatter turns a column of n values into a (w, n) uint8 array of
ASCII codes, one row per character position, with NUL bytes where a
value's text has no character.  ``rows`` lays such columns side by side
with separators as n lines of bytes: each column keeps only the
character rows some value uses, goes transposed into one row-major
block, and the NULs are dropped from the block's bytes in one pass.
The text equals Python's ``%`` of each value byte for byte.

'%.17g' needs the correctly rounded 17-digit decimal of a double (D. M.
Gay, "Correctly rounded binary-decimal and decimal-binary conversions",
1990).  For |x| in [1e-290, 1e300] it is read off |x| * 10^e, where
e = 16 - floor(log10 |x|): the frexp mantissa of x times a double-double
10^e (built from exact integers by correctly rounded int / int) is taken
as T. J. Dekker's error-free product (1971), so the integer part and the
fraction of |x| * 10^e are known to within 2^-45.  Python's own % takes
a value whose fraction lies within 2^-20 of 1/2 (the exact 17-digit ties
among them), a value whose integer part falls outside [10^16, 10^17)
(np.log10 may be a decade off near a power of ten, on any host), 0, inf,
nan, and |x| outside that range.  '%.3f' is exact the same way, through
the error-free product x * 1000 with ties to even decided from its two
halves; |x| >= 1e9, inf and nan take Python's %.  '%d' is exact on int64
columns; a column of larger integers takes Python's % whole.

Only IEEE-exact numpy operations (+ - * on doubles, floor, frexp, ldexp,
integer division) produce a character, so the text does not depend on
numpy's SIMD dispatch.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ._crmath import _veltkamp

_ZERO, _POINT, _MINUS, _PLUS, _E = b"0.-+e"
_LOW, _HIGH = 1e-290, 1e300  # |x| range of the numpy '%.17g' path
_NEAR_HALF = 2.0 ** -20  # fractions this close to 1/2 take Python's %
_E_MIN = -300  # 10^e for e in [_E_MIN, 308]: every decade of the range, and one more


def _pow10(e: int) -> tuple[float, int, float]:
    """(m, s, rest): 10^e = (m + rest) * 2^s, m the correctly rounded
    mantissa in [0.5, 1) and rest the correctly rounded remainder."""
    p, q = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
    m, s = math.frexp(p / q)
    big = int(m * 2.0 ** 53)
    if s <= 53:
        rest = ((p << (53 - s)) - big * q) / (q << 53)
    else:
        rest = (p - (big * q << (s - 53))) / (q << s)
    return m, s, rest


# the scales are int32: np.ldexp takes a slow loop for int64 exponents
_M, _S, _REST = (np.array(col, dtype) for col, dtype in
                 zip(zip(*map(_pow10, range(_E_MIN, 309))), (float, np.int32, float)))
_MH, _ML = _veltkamp(_M)


def _form(k: int) -> tuple[int, bytes, bytes]:
    """The '%.17g' form of decade k: the index of the first of the 17
    digits after the point (-1: none, the point is in the prefix), the
    prefix before the digits and the suffix after them."""
    if k < -4 or k > 16:
        return 1, b"", b"e%+03d" % k
    if k < 0:
        return -1, b"0." + b"0" * (-k - 1), b""
    return k + 1, b"", b""


_K_MIN = 16 - 308  # the decades of 10^16..10^17 * 10^-e, and one past the last
_FIRST, _PREFIX, _SUFFIX = zip(*map(_form, range(_K_MIN, 16 - _E_MIN + 2)))
_FIRST = np.array(_FIRST, np.int8)
_PREFIX, _SUFFIX = (np.array(col, "S5").view(np.uint8).reshape(-1, 5).T.copy()
                    for col in (_PREFIX, _SUFFIX))


def fmt17(x: float) -> str:
    """'%.17g' of one value, as the columns print it."""
    return format(float(x), ".17g")


def _digits(v: np.ndarray, count: int) -> np.ndarray:
    """(count, n) decimal digits of the uint64 values v < 10^count,
    most significant first: 8-digit limbs, split in uint32."""
    out = np.empty((count, v.size), np.uint8)
    for end in range(count, 0, -8):
        q = v // np.uint64(10 ** 8)
        limb = (v - q * np.uint64(10 ** 8)).astype(np.uint32)
        v = q
        for j in range(end - 1, max(end - 8, 0) - 1, -1):
            q = limb // np.uint32(10)
            out[j] = limb - q * np.uint32(10)
            limb = q
    return out


def _leading(dig: np.ndarray) -> np.ndarray:
    """The characters of digits dig with leading zeros dropped, a last
    zero kept."""
    shown = dig != 0  # then: a nonzero digit at or before this one
    for j in range(1, len(dig) - 1):
        np.logical_or(shown[j], shown[j - 1], out=shown[j])
    shown[-1] = True
    return (dig + _ZERO) * shown


def _patch(chars: np.ndarray, where: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    """chars with the columns where replaced by texts, widened if needed."""
    if len(texts) == 0:
        return chars
    fixed = np.array(texts, dtype=bytes)
    w = fixed.dtype.itemsize
    if w > len(chars):
        chars = np.concatenate([chars, np.zeros((w - len(chars), chars.shape[1]), np.uint8)])
    chars[:, where] = 0
    chars[:w, where] = fixed.view(np.uint8).reshape(-1, w).T
    return chars


def _decimal17(ax: np.ndarray):
    """(d, k, ok): ax = d * 10^(k - 16) rounded to the nearest integer d
    with 10^16 <= d < 10^17, proven where ok."""
    ok = (ax >= _LOW) & (ax <= _HIGH)
    ax = np.where(ok, ax, 1.0)
    e = 16 - np.floor(np.log10(ax)).astype(np.intp)  # a decade off at worst
    i = e - _E_MIN
    mx, ex = np.frexp(ax)
    xh, xl = _veltkamp(mx)
    mh, ml = np.take(_MH, i), np.take(_ML, i)
    top = mx * np.take(_M, i)
    # top + low = mx * (m + rest), the first product exact (Dekker)
    low = (((xh * mh - top) + xh * ml + xl * mh) + xl * ml) + mx * np.take(_REST, i)
    scale = ex + np.take(_S, i)  # int32, as frexp's exponents
    top, low = np.ldexp(top, scale), np.ldexp(low, scale)
    whole = np.floor(top)
    part = (top - whole) + low
    carry = np.floor(part)
    frac = part - carry
    d = whole.astype(np.int64) + carry.astype(np.int64)
    ok &= (d >= 10 ** 16) & (d < 10 ** 17) & (np.abs(frac - 0.5) > _NEAR_HALF)
    d += frac > 0.5
    k = 16 - e
    up = d == 10 ** 17
    d[up] = 10 ** 16
    k += up
    d[~ok] = 10 ** 16
    return d, k, ok


def g17(values) -> np.ndarray:
    """(29, ...) characters of '%.17g' % v for each double v, of any
    shape: the sign, a prefix '0.000' at most, the 17 digits with a row
    for the point, and a suffix 'e+XXX' at most."""
    x = np.asarray(values, dtype=float)
    shape, x = x.shape, x.ravel()
    d, k, ok = _decimal17(np.abs(x))
    form = k - _K_MIN
    first = _FIRST[form]
    dig = _digits(d.astype(np.uint64), 17)
    tail = dig != 0  # then: a nonzero digit at or after this one
    for j in range(15, -1, -1):
        np.logical_or(tail[j], tail[j + 1], out=tail[j])
    row = np.arange(18, dtype=np.int8)[:, None]
    before = row[:17] < first
    chars = (dig + _ZERO) * (tail | before)  # the fraction's trailing zeros dropped
    after = chars * ~before

    out = np.empty((29, x.size), np.uint8)
    out[0] = np.signbit(x) * np.uint8(_MINUS)
    out[1:6] = np.take(_PREFIX, form, axis=1)
    body = out[6:24]  # digit j in row j before the point, in row j + 1 after it
    body[:17] = chars * before
    body[17] = 0
    body[1:] += after
    body += (row == first) * (after.any(axis=0) * np.uint8(_POINT))
    out[24:] = np.take(_SUFFIX, form, axis=1)
    bad = np.flatnonzero(~ok)
    return _patch(out, bad, ["%.17g" % v for v in x[bad].tolist()]).reshape(29, *shape)


def ints(values) -> np.ndarray:
    """(20, ...) characters of '%d' % v for each integer v, of any shape;
    values past int64 are formatted by Python's % alone."""
    try:
        v = np.asarray(values, dtype=np.int64)
    except OverflowError:
        texts = ["%d" % i for i in values]
        return _patch(np.zeros((1, len(texts)), np.uint8), np.arange(len(texts)), texts)
    shape, v = v.shape, v.ravel()
    out = np.empty((20, v.size), np.uint8)
    out[0] = (v < 0) * np.uint8(_MINUS)
    out[1:] = _leading(_digits(np.abs(v).astype(np.uint64), 19))
    return out.reshape(20, *shape)


def f3(values) -> np.ndarray:
    """(15, n) characters of '%.3f' % v for each double v: sign, ten
    integer digits, the point and three decimals."""
    x = np.asarray(values, dtype=float).ravel()
    ax = np.abs(x)
    ok = ax < 1e9
    ax = np.where(ok, ax, 0.0)
    top = ax * 1000.0
    hi, lo = _veltkamp(ax)
    low = (hi * 1000.0 - top) + lo * 1000.0  # top + low = ax * 1000 exactly
    whole = np.floor(top)
    frac = top - whole  # a multiple of ulp(top), and |low| < ulp(top) / 2
    d = whole.astype(np.int64)
    half = frac == 0.5
    d += (frac > 0.5) | (half & (low > 0)) | (half & (low == 0) & (d % 2 == 1))
    dig = _digits(d.astype(np.uint64), 13)
    out = np.empty((15, x.size), np.uint8)
    out[0] = np.signbit(x) * np.uint8(_MINUS)
    out[1:11] = _leading(dig[:10])
    out[11] = _POINT
    out[12:] = dig[10:] + _ZERO
    bad = np.flatnonzero(~ok)
    return _patch(out, bad, ["%.3f" % v for v in x[bad].tolist()])


_WORDS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)


def flags(values) -> np.ndarray:
    """(5, n) characters of 'true' or 'false' for each boolean."""
    return _WORDS[np.asarray(values, dtype=np.intp)].T


def _used(chars: np.ndarray) -> np.ndarray:
    """chars cut to its character rows from the first to the last that
    holds a character in any column (none where all are NUL)."""
    used = np.flatnonzero(chars.any(axis=1))
    return chars[used[0]:used[-1] + 1] if used.size else chars[:0]


def rows(cells: Sequence) -> bytes:
    """One line of bytes per value: the cells side by side, each a (w, n)
    character array or a str the same on every line, NULs dropped.

    The lines are laid out in one row-major block of n rows, each cell
    in its own columns: an array trimmed to its used character rows (_used)
    and written transposed, a str's UTF-8 bytes broadcast down every
    line.  One translate of the block's bytes drops the NULs."""
    pieces = [np.frombuffer(cell.encode(), np.uint8) if isinstance(cell, str) else _used(cell)
              for cell in cells]
    n = next(cell.shape[1] for cell in cells if not isinstance(cell, str))
    width = sum(map(len, pieces))
    block = bytearray(n * width)  # numpy writes into it and translate reads it: no copy
    out = np.frombuffer(block, np.uint8).reshape(n, width)
    at = 0
    for piece in pieces:
        out[:, at:at + len(piece)] = piece.T
        at += len(piece)
    return bytes(block.translate(None, b"\0"))


# Reading numbers: 8 bytes of text as one little-endian uint64 word, the
# first character in the low byte, worked on a byte at a time.
_BYTES = 0x0101010101010101
_TOP = 0x80 * _BYTES
# fields of at most 24 bytes, with an optional leading '-', one '.' at
# most, and digits below 2^62, are read in numpy; float() reads any other
_WINDOW = 24
_OFFSETS = np.arange(0, _WINDOW, 8)[:, None]
_TAIL = np.array([(2 ** 64 - 1) << 8 * q & 2 ** 64 - 1 for q in range(9)], np.uint64)
_POW10 = 10 ** np.arange(19, dtype=np.uint64)
_POW10F = np.array([float(10 ** nf) for nf in range(_WINDOW)])  # exact to 10^22
_PROOF = 2.0 ** -90  # the product errs below 2^-100 of the value


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The 8-digit number of each word whose bytes are digits 0..9, the
    first the most significant (D. Lemire, "Number parsing at a gigabyte
    per second", 2021)."""
    v = v * 10 + (v >> 8)
    mask = 0x000000FF000000FF
    return ((v & mask) * (100 + (1000000 << 32))
            + ((v >> 16) & mask) * (1 + (10000 << 32))) >> 32


def _byte_sum(v: np.ndarray) -> np.ndarray:
    """The sum of the 8 bytes of each word, where it is below 256."""
    return ((v * _BYTES) >> 56).astype(np.intp)


def reals(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """float() of each field buf[start:end] of the uint8 array buf.

    A field of an optional '-', digits and one '.' at most (24 bytes at
    most, the digits below 2^62) is read in numpy, from a window of 8, 16
    or 24 bytes that ends with it.  Its digits form an exact integer M,
    and its value M / 10^nf is one correctly rounded division where
    M <= 2^53; above, it is T. J. Dekker's product of M with the
    double-double 10^-nf that g17 writes with, rounded where its error,
    under 2^-100 of the value, cannot reach a rounding boundary.  float()
    reads every other field (and one whose window would start before
    buf), and raises ValueError for one it refuses."""
    values = np.empty(start.size)
    neg = buf[np.minimum(start, buf.size - 1)] == 45  # '-'
    digits = end - start - neg
    k = -(-min(int(digits.max(initial=0)), _WINDOW) // 8)
    fast = (digits >= 1) & (digits <= 8 * k) & (end >= 8 * k)
    if fast.any():
        fast &= _read_decimals(buf, np.where(fast, end, 8 * k), digits, k, values)
    np.negative(values, out=values, where=neg)
    for i in np.flatnonzero(~fast).tolist():
        values[i] = float(buf[start[i]:end[i]].tobytes())
    return values


def _read_decimals(buf, end, digits, k, values) -> np.ndarray:
    """values = the decimal whose last digits bytes end at end, where
    they are one; False where they are not."""
    w = 8 * k
    words = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))  # 8 bytes from each
    d = words[end - w + _OFFSETS[:k]]  # (k, n): the field right-aligned in w bytes
    d ^= 0x30 * _BYTES  # digits to 0..9, '.' to 0x1E
    d &= _TAIL[np.clip(w - digits - _OFFSETS[:k], 0, 8)]  # the bytes before the field to 0
    y = d ^ 0x1E * _BYTES
    point = (y - _BYTES) & ~y & _TOP  # a '.', or a '/' just after one
    other = ((d + 0x76 * _BYTES) | d) & _TOP  # a byte past 9
    ok = ~np.bitwise_or.reduce(other ^ point, axis=0).astype(bool)
    point >>= 7  # 1 at a '.'
    points = _byte_sum(point).sum(axis=0)
    ok &= (points <= 1) & (digits > points)
    m = _eight_digits(d ^ point * 0x1E)  # the '.' read as a 0
    if k == 3:
        ok &= m[0] < 1000  # so that the digits stay below 10^19 < 2^64
    m = m[0] if k == 1 else np.add.reduce(m * _POW10[8 * (k - 1)::-8][:, None], axis=0)
    # nf, the digits after the '.', from the bytes before it in its word
    at = np.where(point, _byte_sum((point - 1) & _BYTES) + _OFFSETS[:k], 0).sum(axis=0)
    nf = np.where(points == 1, w - 1 - at, 0)
    p = _POW10[np.minimum(nf, 18)]  # from nf = 18 on, I is 0
    m -= m // (10 * p) * 9 * p * (points > 0)  # I 10^(nf+1) + F to I 10^nf + F
    ok &= m < 2 ** 62

    mf = m.astype(np.int64).astype(np.float64)
    exact = (m <= 2 ** 53) & (nf <= 22)
    np.divide(mf, _POW10F[nf], out=values, where=exact)
    far = np.flatnonzero(ok & ~exact)
    if far.size:
        mf = mf[far]
        mr = (m[far].astype(np.int64) - mf.astype(np.int64)).astype(np.float64)  # m - mf
        i = -nf[far] - _E_MIN  # 10^-nf = (t + _REST[i]) 2^_S[i]
        t, th, tl = _M[i], _MH[i], _ML[i]
        xh, xl = _veltkamp(mf)
        top = mf * t  # m 10^-nf = (top + low) 2^_S[i], to 2^-100
        low = (((xh * th - top) + xh * tl + xl * th) + xl * tl) + (mr * t + mf * _REST[i])
        margin = np.abs(top) * _PROOF
        hi = top + (low + margin)
        ok[far] &= hi == top + (low - margin)
        values[far] = np.ldexp(hi, _S[i])
    return ok

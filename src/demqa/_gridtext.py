"""Grid text of float64 values, byte for byte as ``repr`` writes them.

A cell's text is Python's shortest round-trip ``repr``, with ".0" dropped
from integral values below 1e16 and -0.0 written as 0. Array operations
give it, a few thousand cells at a time: integral values below 1e16 as
integers, and every other value in [1e-4, 1e16) from an exact product of
the value and a power of ten (``shortest``; the shortest-digits idea of
Loitsch 2010 and Adams 2018, done with 64-bit integers). ``repr`` itself
formats the rest: values below 1e-4 or from 1e16 up (which it writes with
an exponent) and values whose rounding is an exact tie or lands exactly
half an ulp away. So no byte depends on which path a value took.

A cell is D / 10^s for an integer D < 10^18 (s = 0 if integral). Its text
is built in six little-endian words, 48 bytes: a sign slot and a "0" (the
units of a value below 1e-3), then D's twenty digits, four a word of
``_WORDS``, each followed by a NUL gap. A row of ``_KEEP`` clears the
leading and trailing zeros, one of ``_POINTS`` puts the decimal point in
the gap after the digit of 10^s if a fraction follows, the last gap takes
the separator, and dropping every NUL byte leaves the text.
"""

from __future__ import annotations

import numpy as np

_TENS = np.array([float(10**k) for k in range(23)])  # exact: 5^22 < 2^53
_FIVES = np.array([5**k for k in range(23)], np.int64)
_POW10 = np.array([10**k for k in range(19)], np.int64)
# The four digits of 0..9999 with a NUL gap after each, a word each, and
# the last nonzero one of them (-99: none).
_WORDS = np.zeros((10000, 8), np.uint8)
_LAST4 = np.full(10000, -99, np.int8)
for _k in range(4):
    _WORDS[:, 2 * _k] = np.arange(10000) // 10 ** (3 - _k) % 10 + 48
    _LAST4[_WORDS[:, 2 * _k] > 48] = _k
_WORDS = _WORDS.view("<u8").ravel()
# Byte 8 + 2j holds digit j of D, its digit of 10^(19 - j) (j = -1: the "0").
# Row (lead + 1) * 21 + last + 1 of _KEEP keeps digits lead..last; row u + 2
# of _POINTS has a "." in the gap after digit u (row 0: none).
_KEEP = np.frombuffer(bytes(255 if c < 6 or c % 2 or lead <= c // 2 - 4 <= last else 0
                            for lead in range(-1, 20) for last in range(-1, 20)
                            for c in range(48)), "<u8").reshape(-1, 6)
_POINTS = np.frombuffer(bytes(46 if r and c == 5 + 2 * r else 0
                              for r in range(22) for c in range(48)), "<u8").reshape(-1, 6)
# A cell's first word (sign slot, five NULs, the "0" and its gap) and its
# separator, in the last gap.
_PLUS, _MINUS = np.frombuffer(b"\0" * 6 + b"0\0" + b"-" + b"\0" * 5 + b"0\0", "<u8")
_SPACE, _NEWLINE = np.uint64(32 << 56), np.uint64(10 << 56)
# Cells formatted at a time: their arrays take about 200 bytes a cell, and
# a call costs about 0.1 ms of numpy overhead whatever its size.
_FORMAT_CELLS = 1 << 11


def grid_text(values: np.ndarray) -> bytes:
    """The rows of 2-D ``values`` as grid text, a line each."""
    ncols = values.shape[1]
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return b"".join(_cells_text(flat[k : k + _FORMAT_CELLS], (ncols - 1 - k) % ncols, ncols)
                    for k in range(0, flat.size, _FORMAT_CELLS))


def _cells_text(v: np.ndarray, end: int, ncols: int) -> bytes:
    """The text of the cells ``v``, of which ``end``, ``end + ncols``, ...
    end a row."""
    a = np.abs(v)
    integral = (a < 1e16) & (np.floor(a) == a)
    d = np.where(integral, a, 0).astype(np.int64)
    s = np.zeros(v.size, np.int64)
    slow = ~integral
    fast = np.flatnonzero(slow & (a >= 1e-4) & (a < 1e16))
    d[fast], s[fast], sure = shortest(a[fast])
    slow[fast[sure]] = False
    first = 20 - np.searchsorted(_POW10, d, side="right")  # D's first nonzero digit
    last = np.full(v.size, -99)  # and its last (-99: D = 0)
    words = np.empty((v.size, 6), "<u8")  # little-endian: the first byte is the lowest
    words[:, 0] = np.where(v < 0, _MINUS, _PLUS)
    for k in range(5, 0, -1):
        q = d // 10000
        r = d - q * 10000
        words[:, k] = _WORDS.take(r)
        np.maximum(last, _LAST4.take(r) + 4 * (k - 1), out=last)
        d = q
    units = 19 - s
    words &= _KEEP.take(np.minimum(first, units) * 21 + np.maximum(last, units) + 22, axis=0)
    words |= _POINTS.take(np.where(last > units, units + 2, 0), axis=0)
    words[:, 5] |= _SPACE
    words[end::ncols, 5] ^= _SPACE ^ _NEWLINE
    text = words.view(np.uint8)
    if slow.any():  # repr, which is not integral below 1e16, in place of the rest
        text[slow, :47] = np.array([repr(x) for x in v[slow].tolist()], "S47").view(
            np.uint8).reshape(-1, 47)
    return text.tobytes().translate(None, b"\0")


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(D, s, sure)`` for positive non-integral ``x`` in [1e-4, 1e16):
    where ``sure``, ``repr(x)`` shows the digits of D / 10^s.

    s gives P = x * 10^s 17 integer digits (16 if log10 rounds up next to
    a power of ten), and P is held exactly: x * 10^s = hi + lo, and with
    2^g its last bit, floor(P) and an int64 count of 2^g for the rest.
    Rounding P to 15, 16 and 17 digits gives three candidates; one reads
    back as x when it is nearer than half an ulp of x, 5^s 2^(g - 1) after
    scaling, and the shortest that does is ``repr``'s digits (of its
    length it is the nearest to x). The ulp below a power of two is half
    the one above, but the powers of two here (2^-13 to 2^-1) are short
    decimals that P holds exactly. Not sure: a candidate that is a rounding
    tie or exactly half an ulp away, P out of range, and none that reads
    back."""
    ex = np.frexp(x)[1]
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _product(x, _TENS.take(s))
    g = ex - 53 + s  # x's last bit is 2^(ex - 53)
    sure = (g <= 0) & (hi >= 2.0**53) & (hi < 1e17)
    unit = np.left_shift(1, -np.minimum(g, 0))  # 2^-g
    whole = np.floor(lo)
    m = hi.astype(np.int64) + whole.astype(np.int64)  # floor(P)
    frac = ((lo - whole) * unit).astype(np.int64)  # P - m, in units
    half = _FIVES.take(s)  # half an ulp of x times 10^s is half / 2 units
    d = None
    for step in (1, 10, 100):  # a coarser candidate that reads back wins
        q = m // step
        rest = (m - q * step) * unit + frac  # P mod step, in units
        span = step * unit
        up = 2 * rest > span
        off = 2 * np.abs(up * span - rest)  # twice |candidate - P|
        sure &= (2 * rest != span) & (off != half)
        ok = off < half
        d = (q + up) * step if d is None else np.where(ok, (q + up) * step, d)
        if step == 1:
            sure &= ok  # no shorter candidate reads back unless this one does
    return d, s, sure


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` with hi + lo = a * b exactly (Dekker 1971): each factor
    is split into halves of 26 bits, whose products are exact."""
    hi = a * b
    ac, bc = a * 134217729.0, b * 134217729.0  # 2^27 + 1
    ah, bh = ac - (ac - a), bc - (bc - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl

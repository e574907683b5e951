"""The cells of a float array as text, by one of two digit rules: the bytes
of ``"%.17g" % v`` (CSV) or of ``json.dumps(v)`` (JSON), per cell.

``%.17g`` writes a finite v != 0 as the 17 significant digits of its exact
decimal value, rounded half to even: with X = floor(log10 |v|) the decimal
exponent, those digits are the integer N = round(|v| * 10^(16 - X)) in
[1e16, 1e17).  For 1e-4 <= |v| < 1e17 it writes them in fixed notation with
trailing zeros (and then a trailing '.') dropped; otherwise as d.ddd...e±XX,
with the same trailing zeros dropped and an exponent of at least two digits.

``json.dumps`` writes ``float.__repr__``: the shortest digits that read back
as v, and of those the nearest to v.  In units of N's last digit, with P =
|v| * 10^(16 - X) and m the 53-bit mantissa of v, the double above v lies
2h = P / m away, and so does the one below but at a normal power of two (h
away), so the 17-digit integers that read back lie in [L, U] = [N + ceil(P -
N - h_below), N + floor(P - N + h)]: at most 23 wide, N among them.  Where
a multiple of 100 lies in [L, U] it is the only one, and the shortest; else
the multiple of 10 in [L, U] nearest P, if there is one; else N.  A result of
10^17 carries into X + 1.  repr writes fixed notation for 1e-4 <= |v| < 1e16
and keeps at least one digit after the '.' (1.0), none in exponent notation
(1e+16).

Every normal cell takes the same steps.  The product is formed as a pair
hi + lo of doubles by Dekker's two-product (Numer. Math. 18 (1971) 224;
Veltkamp's split stands in for a fused multiply-add), with 10^(16 - X) 2^-s
taken from a table of double-double powers (hi + tail) and |v| prescaled by
the exact 2^s that brings it near 1, so that no step leaves the double range.
Where the tail is 0 (every X of fixed notation, with s = 0 and 10^(16 - X)
<= 1e20 an exact double) the product is exact and rounding lo half to even
rounds N exactly.  Elsewhere the tail adds an error below 4 u^2 |hi|
(u = 2^-53), under 1e-13 for every product formed, and a cell is written
only where the error bound rules out a tie at .5 and a product on either
side of 1e16 or 1e17 (exact ties exist: 9 * 2^-23).  The shortest digits
are written only where each end of [L, U] is that far from an integer, and P
that far from halfway between two multiples of 10: the doubles from 2^52 to
1e17, integers whose range ends are integers, all fall back, so this rule
writes no cell with X = 16 itself.  A chunk whose
normal cells all lie in [1e-4, 1e17) reads only the 21 exact rows of fixed
notation, built at import, and skips the prescale, the tail and the
product's certificate; the table of every normal X is built on the first
chunk that needs it (about 3 ms, once per process).

Each cell is laid out in a 48-byte row: sign and the "0.000" prefix, the 17
digits each followed by a slot for the '.', "e±XX" and the separator; a mask
per (rule, X, last nonzero digit) zeroes the digits and slots that are not
written, and the zero bytes are dropped.  A cell in exponent notation takes the
layout of X = 0, d.ddd..., and its "e±XX"; a cell in fixed notation has no
exponent bytes.  Every other cell (zero, subnormal, non-finite, or one whose
digits are not certain) is written by one ``%`` call over the chunk, with
the texts of ``%.17g`` or of one ``json.dumps`` over the chunk's fallback
cells.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Iterator, NamedTuple

import numpy as np

_CHUNK = 2048  # cells per pass at most; at 4,096 the buffers cost 0.8 MB more peak RSS
_WIDTH = 48  # bytes per cell: sign and prefix, 17 digits, 16 '.' slots, "e±XXX", separator
_LOW, _HIGH = 1e-4, 1e17  # %.17g's fixed notation: the magnitudes with exact powers of ten
_TINY, _HUGE = 2.2250738585072014e-308, 1.7976931348623157e308  # the normal doubles
_LAYOUTS = 22  # per rule: X = -4..16 in fixed notation, then exponent notation
_MARGIN = 2.0**-30  # far above the inexact product's error bound, far below one digit
_SPLITTER = 134217729.0  # 2^27 + 1


class _Rule(NamedTuple):
    """A digit rule.  ``row``: its row of each layout table of ``_Powers``;
    ``shortest``: the shortest digits that read back, else all 17; fixed
    notation for -4 <= X <= ``last_fixed``, with at least ``point`` digits
    after the '.'; ``end`` follows a row's last cell, ',' every other; a
    cell that falls back holds ``placeholder``, and ``spell`` gives the
    texts of the fallback cells' values, in order."""

    row: int
    shortest: bool
    last_fixed: int
    point: int
    end: str
    placeholder: bytes
    spell: Callable[[list], tuple]


_G17 = _Rule(0, False, 16, 0, "\n", b"%.17g", tuple)
_JSON = _Rule(1, True, 15, 1, ",", b"%s",
              lambda values: tuple(json.dumps(values)[1:-1].split(", ")))
_RULES = (_G17, _JSON)


def _split(v):
    """v = hi + lo, each half with at most 26 significant bits (Veltkamp)."""
    t = v * _SPLITTER
    hi = t - (t - v)
    return hi, v - hi


class _Powers(NamedTuple):
    """For X in [x_min, x_min + hi.size), by row X - x_min: 10^(16 - X) 2^-s
    as hi + tail, hi's Veltkamp halves, the prescale 2^s, the margin a product
    must keep from 1e16, 1e17 and a tie (0 where the tail is 0); and by rule
    row, then X: the layout (see ``_build``) and the bytes "e±XX" as a word
    (none in fixed notation).  ``exact``: every tail is 0 and every s 0."""

    x_min: int
    hi: np.ndarray
    hi_hi: np.ndarray
    hi_lo: np.ndarray
    tail: np.ndarray
    scale: np.ndarray
    margin: np.ndarray
    layout: np.ndarray
    exponent: np.ndarray
    exact: bool


def _powers(x_min: int, x_max: int) -> _Powers:
    """The powers of X in [x_min, x_max].  hi and tail come from the exact
    rational num/den: Python's int true division rounds correctly."""
    tens = [1]
    for _ in range(16 - x_min):
        tens.append(tens[-1] * 10)
    xs = range(x_min, x_max + 1)
    rows = []
    for x in xs:
        # 2^s brings 10^X near 1; fixed notation keeps the exact power
        s = 0 if -4 <= x <= 16 else min(max(round(-3.321928094887362 * x), -1022), 1023)
        num, den = tens[max(16 - x, 0)] << max(-s, 0), tens[max(x - 16, 0)] << max(s, 0)
        hi = num / den
        h_num, h_den = hi.as_integer_ratio()
        tail = (num * h_den - h_num * den) / (den * h_den)
        rows.append((hi, tail, 2.0**s, _MARGIN if tail else 0.0))
    hi, tail, scale, margin = (np.array(column) for column in zip(*rows))
    layout, exponent = [], []
    for rule in _RULES:
        fixed = [-4 <= x <= rule.last_fixed for x in xs]
        layout.append([rule.row * _LAYOUTS + (x + 4 if f else _LAYOUTS - 1)
                       for x, f in zip(xs, fixed)])
        words = b"".join((b"" if f else f"e{x:+03d}".encode()).ljust(8, b"\0")
                         for x, f in zip(xs, fixed))
        exponent.append(np.frombuffer(words, np.uint64))
    return _Powers(x_min, hi, *_split(hi), tail, scale, margin, np.array(layout),
                   np.array(exponent), -4 <= x_min and x_max <= 16)


@functools.cache
def _all_powers() -> _Powers:
    """The powers of every normal X, built on first use: about 3 ms."""
    return _powers(-308, 308)


def _build():
    # by broadcasting and slicing alone: arithmetic on these arrays pages in
    # numpy loops that nothing else runs, about 0.4 MB of RSS at every import
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    # the 4-digit groups, each digit followed by a '.' slot
    digits = np.empty((10, 10, 10, 10, 8), np.uint8)
    digits[..., 1::2] = ord(".")
    digits[..., 0] = digit[:, None, None, None]
    digits[..., 2] = digit[:, None, None]
    digits[..., 4] = digit[:, None]
    digits[..., 6] = digit
    zeros = np.zeros((10, 10, 10, 10), np.uint8)  # each group's trailing zeros
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[:, 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    # layouts i, one set per rule: X + 4 in fixed notation, then exponent
    # notation, laid out as X = 0
    # the first word by (i, negative, first digit): sign, "0." and -X - 1
    # zeros, the digit and its '.' slot
    first = np.zeros((_LAYOUTS, 2, 10, 8), np.uint8)
    first[:, 1, :, 0] = ord("-")
    for i in range(4):
        first[i, :, :, 1:6 - i] = ord("0")
        first[i, :, :, 2] = ord(".")
    first[..., 6] = digit
    first[..., 7] = ord(".")
    # the bytes kept by (i, K), K the last nonzero digit: the prefix, digits
    # 0..K, the '.' after digit X when a digit follows it, and the exponent
    # word; in fixed notation digits up to X + the rule's point at least
    keep = np.zeros((_LAYOUTS, 17, _WIDTH), np.uint8)
    keep[..., :6] = 0xFF
    keep[..., 40:] = 0xFF
    for k in range(17):
        keep[:, k, 6:7 + 2 * k:2] = 0xFF
    for x in range(16):
        keep[x + 4, x + 1:, 7 + 2 * x] = 0xFF
    keep[-1] = keep[4]  # exponent notation
    kept = []
    for rule in _RULES:
        kept.append(keep.copy())
        for i in range(4, _LAYOUTS - 1):
            least = min(i - 4 + rule.point, 16)
            kept[-1][i, :least] = keep[i, least]
    return (digits.view(np.uint64).ravel(), zeros.ravel(),
            np.concatenate([first] * len(_RULES)).view(np.uint64).ravel(),
            np.concatenate(kept).view(np.uint64).reshape(-1, 6))


_DIGITS, _ZEROS, _FIRST, _KEEP = _build()
_FIXED_POWERS = _powers(-4, 16)


def _product(a, j, powers: _Powers):
    """a * 10^(16 - X) as hi + lo for the rows j of ``powers``; -1 where
    hi + lo < 1e16, +1 where hi + lo >= 1e17, else 0; and where its rounding
    is certain.  hi - 1e16 is exact wherever the sign of the sum is in doubt,
    and rounding keeps signs.  Exact powers skip the prescale, the tail and
    the certificate, which could not change a bit."""
    if not powers.exact:
        a = a * powers.scale[j]
    hi = a * powers.hi[j]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = powers.hi_hi[j], powers.hi_lo[j]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    if not powers.exact:
        lo += a * powers.tail[j]
    low, high = (hi - 1e16) + lo, (hi - _HIGH) + lo
    off = (high >= 0).astype(np.intp) - (low < 0)
    if powers.exact:
        return hi, lo, off, np.ones(off.shape, bool)
    e = powers.margin[j]
    sure = (abs(low) >= e) & (abs(high) >= e) & (abs(lo - np.rint(lo)) <= 0.5 - e)
    return hi, lo, off, sure


def _shortest(a, hi, r, n):
    """The step from N = n to the shortest digits that read back as a, where
    the product P = a 10^(16 - X) is hi + lo = N + r; and where that step is
    not certain."""
    mantissa, _ = np.frexp(a)  # m / 2^53, in [0.5, 1)
    h = hi / mantissa * 2.0**-54  # half the gap to the next double, in units of N's last digit
    # half as wide below a power of two; not at 2^-1022, but its digits come out the same
    below = h - 0.5 * h * (mantissa == 0.5)
    low, high = r - below, r + h
    unsure = (abs(low - np.rint(low)) < _MARGIN) | (abs(high - np.rint(high)) < _MARGIN)
    np.ceil(low, out=low)  # [low, high] = [L - N, U - N]
    np.floor(high, out=high)
    t = (n - n // 100 * 100).astype(float)  # N's last two digits
    # the largest multiple of 100 up to U: where it is in [L, U], the only one
    hundred = np.floor((t + high) * 0.01) * 100.0 - t
    two = hundred >= low
    # else the multiple of 10 nearest P, or its neighbour where it lies just outside
    ten = np.rint((t + r) * 0.1) * 10.0 - t
    tie = abs(abs(ten - r) - 5.0) < _MARGIN
    ten += 10.0 * (ten < low) - 10.0 * (ten > high)
    one = (low <= ten) & (ten <= high) & ~two
    unsure |= tie & one
    return np.where(two, hundred, ten * one), unsure


def _texts(table: np.ndarray, rule: _Rule) -> Iterator[str]:
    """The cells of a 2-D float array by ``rule``, each followed by its
    separator, in pieces of whole rows."""
    rows, cols = table.shape
    cells = table.ravel()
    chunks = -(-cells.size // _CHUNK)
    chunk = _Chunk(-(-rows // chunks) * cols, cols, rule)  # chunks of equal size, nearly
    for start in range(0, cells.size, chunk.size):
        yield chunk.text(cells[start:start + chunk.size])


def csv_rows(table: np.ndarray) -> Iterator[str]:
    """The CSV text of a 2-D float array's rows, in pieces: each cell as
    ``"%.17g" % v``, cells joined by ',' and each row ended by '\\n'."""
    return _texts(table, _G17)


def json_cells(table: np.ndarray) -> list[str]:
    """The text of each cell of a 2-D float array as ``json.dumps(v)``,
    row by row."""
    return "".join(_texts(table, _JSON))[:-1].split(",")


class _Chunk:
    """The buffers for a chunk of whole rows, kept from one chunk to the next."""

    def __init__(self, size: int, cols: int, rule: _Rule):
        self.size, self.rule = size, rule
        self.v, self.a, self.hi, self.lo, self.rounded = (np.empty(size) for _ in range(5))
        self.j, self.n, self.first, self.index = (np.empty(size, np.int64) for _ in range(4))
        self.groups = np.empty((4, size), np.int64)
        self.out, self.keep = np.empty((size, 6), np.uint64), np.empty((size, 6), np.uint64)
        separator = np.zeros((size, 8), np.uint8)  # each cell's last word
        separator[:, 7] = ord(",")
        separator[cols - 1::cols, 7] = ord(rule.end)
        self.separator = separator.view(np.uint64).ravel()

    def text(self, cells: np.ndarray) -> str:
        m = cells.size  # a last, short chunk is padded with ones
        v, a, hi, lo, rounded, j, n, first, index = (self.v, self.a, self.hi, self.lo, self.rounded,
                                                     self.j, self.n, self.first, self.index)
        v[:m] = cells
        v[m:] = 1.0
        np.abs(v, out=a)
        bad = ~((a >= _TINY) & (a <= _HUGE))
        a[bad] = 1.0
        powers = _FIXED_POWERS if a.min() >= _LOW and a.max() < _HIGH else _all_powers()
        x_min, size = powers.x_min, powers.hi.size
        # X = floor(log10 a) by row j = X - x_min, then N = round(a * 10^(16 - X))
        np.log10(a, out=lo)
        np.floor(lo, out=lo)
        np.clip(lo, x_min, x_min + size - 1, out=lo)
        np.subtract(lo, x_min, out=j, casting="unsafe")
        hi[...], lo[...], off, sure = _product(a, j, powers)
        moved = np.flatnonzero(off)
        if moved.size:  # log10 rounded across a power of ten
            j[moved] += off[moved]
            np.clip(j, 0, size - 1, out=j)
            hi[moved], lo[moved], off, sure[moved] = _product(a[moved], j[moved], powers)
            sure[moved] &= off == 0
        bad |= ~sure
        # hi >= 1e16 is an even integer, so rounding lo half to even rounds
        # hi + lo half to even
        np.copyto(n, hi, casting="unsafe")
        np.rint(lo, out=rounded)
        np.copyto(index, rounded, casting="unsafe")
        n += index
        if self.rule.shortest:  # from N to the shortest digits, with P - N in lo
            lo -= rounded
            step, unsure = _shortest(a, hi, lo, n)
            bad |= unsure
            np.copyto(index, step, casting="unsafe")
            n += index
        top = np.flatnonzero(n == 10 ** 17)
        if top.size:  # rounded up to the next power of ten, never past the table's last X
            n[top] = 10 ** 16
            j[top] += 1
        # N's first digit, and the four 4-digit groups of the other 16
        g1, g2, g3, g4 = self.groups
        np.floor_divide(n, 10 ** 16, out=first)
        n -= first * 10 ** 16
        np.floor_divide(n, 10 ** 8, out=g2)
        np.subtract(n, g2 * 10 ** 8, out=g4)
        np.floor_divide(g2, 10 ** 4, out=g1)
        g2 -= g1 * 10 ** 4
        np.floor_divide(g4, 10 ** 4, out=g3)
        g4 -= g3 * 10 ** 4
        # K, the last nonzero digit: trailing zeros go, unless the layout keeps them
        index[...] = _ZEROS[g4]
        zero = np.flatnonzero(g4 == 0)
        for g in (g3, g2, g1):
            index[zero] += _ZEROS[g[zero]]
            zero = zero[g[zero] == 0]
        i = np.take(powers.layout[self.rule.row], j)
        np.subtract(16, index, out=index)
        index += i * 17
        out = self.out
        np.take(_KEEP, index, axis=0, out=self.keep)
        np.multiply(i, 20, out=index)
        index += np.signbit(v) * 10
        index += first
        np.take(_FIRST, index, out=out[:, 0])
        for w, g in enumerate(self.groups, 1):
            np.take(_DIGITS, g, out=out[:, w])
        np.take(powers.exponent[self.rule.row], j, out=out[:, 5])
        out &= self.keep
        fallback = bad.any()
        if fallback:
            out[bad] = np.frombuffer(self.rule.placeholder.ljust(_WIDTH, b"\0"), np.uint64)
        out[:, 5] |= self.separator
        text = out[:m].tobytes().translate(None, b"\0").decode("ascii")
        return text % self.rule.spell(v[:m][bad[:m]].tolist()) if fallback else text

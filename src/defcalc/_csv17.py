"""The CSV rows of a float array, with the bytes of ``"%.17g" % v`` per cell.

``%.17g`` writes a float v with 1e-4 <= |v| < 1e17 as the 17 significant
digits of its exact decimal value, rounded half to even, in fixed notation
with trailing zeros (and then a trailing '.') dropped.  For such a v, with
X = floor(log10 |v|) the decimal exponent, those digits are the integer
N = round(|v| * 10^(16 - X)) in [1e16, 1e17), and the product is exact as a
pair hi + lo of doubles (Dekker, Numer. Math. 18 (1971) 224: 10^p is an exact
double for p <= 22, and Veltkamp's split stands in for a fused multiply-add).
Each cell is laid out in a 40-byte row: sign and the "0.000" prefix, the 17
digits each followed by a slot for the '.', and the separator; a mask per
(X, last kept digit) zeroes the digits and slots that are not written, and
the zero bytes are dropped.  Every other cell (zero, |v| < 1e-4, |v| >= 1e17,
non-finite, or one whose exponent the product does not confirm) is written
by one ``%`` call over the chunk.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_CHUNK = 2048  # cells per pass at most; at 4,096 the buffers cost 0.8 MB more peak RSS
_WIDTH = 40  # bytes per cell: 6 of sign and prefix, 17 digits, 16 '.' slots, separator
_LOW, _HIGH = 1e-4, 1e17  # the magnitudes that %.17g writes in fixed notation
_SPLITTER = 134217729.0  # 2^27 + 1


def _split(v):
    """v = hi + lo, each half with at most 26 significant bits (Veltkamp)."""
    t = v * _SPLITTER
    hi = t - (t - v)
    return hi, v - hi


def _build():
    # by broadcasting and slicing alone: arithmetic on these arrays pages in
    # numpy loops that nothing else runs, about 0.4 MB of RSS at every import
    power = np.array([float(10 ** (20 - i)) for i in range(21)])  # i = X + 4
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
    # the first word by (i, negative, first digit): sign, "0." and -X - 1
    # zeros, the digit and its '.' slot
    first = np.zeros((21, 2, 10, 8), np.uint8)
    first[:, 1, :, 0] = ord("-")
    for i in range(4):
        first[i, :, :, 1:6 - i] = ord("0")
        first[i, :, :, 2] = ord(".")
    first[..., 6] = digit
    first[..., 7] = ord(".")
    # the bytes kept by (i, K): the prefix, digits 0..K, and the '.' after
    # digit X when a digit follows it
    keep = np.zeros((21, 17, _WIDTH), np.uint8)
    keep[..., :6] = 0xFF
    for k in range(17):
        keep[:, k, 6:7 + 2 * k:2] = 0xFF
    for x in range(16):
        keep[x + 4, x + 1:, 7 + 2 * x] = 0xFF
    return (power, *_split(power), digits.view(np.uint64).ravel(), zeros.ravel(),
            first.view(np.uint64).ravel(), keep.view(np.uint64).reshape(21 * 17, 5))


_POWER, _POWER_HI, _POWER_LO, _DIGITS, _ZEROS, _FIRST, _KEEP = _build()
_FALLBACK = np.frombuffer(b"%.17g".ljust(_WIDTH, b"\0"), np.uint64)


def _scaled(a, i):
    """a * 10^(20 - i) as hi + lo exactly, by Dekker's two-product."""
    hi = a * _POWER[i]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POWER_HI[i], _POWER_LO[i]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _off(hi, lo):
    """-1 where hi + lo < 1e16, +1 where hi + lo >= 1e17, else 0.  hi - 1e16 is
    exact wherever the sign of the sum is in doubt, and rounding keeps signs."""
    return ((hi - _HIGH) + lo >= 0).astype(np.intp) - ((hi - 1e16) + lo < 0)


def csv_rows(table: np.ndarray) -> Iterator[str]:
    """The CSV text of a 2-D float array's rows, in pieces: each cell as
    ``"%.17g" % v``, cells joined by ',' and each row ended by '\\n'."""
    rows, cols = table.shape
    cells = table.ravel()
    chunks = -(-cells.size // _CHUNK)
    chunk = _Chunk(-(-rows // chunks) * cols, cols)  # chunks of equal size, nearly
    for start in range(0, cells.size, chunk.size):
        yield chunk.text(cells[start:start + chunk.size])


class _Chunk:
    """The buffers for a chunk of whole rows, kept from one chunk to the next."""

    def __init__(self, size: int, cols: int):
        self.size = size
        self.v, self.a, self.hi, self.lo = (np.empty(size) for _ in range(4))
        self.i, self.n, self.first, self.index = (np.empty(size, np.int64) for _ in range(4))
        self.groups = np.empty((4, size), np.int64)
        self.out, self.keep = np.empty((size, 5), np.uint64), np.empty((size, 5), np.uint64)
        separator = np.zeros((size, 8), np.uint8)  # each cell's last word
        separator[:, 7] = ord(",")
        separator[cols - 1::cols, 7] = ord("\n")
        self.separator = separator.view(np.uint64).ravel()

    def text(self, cells: np.ndarray) -> str:
        m = cells.size  # a last, short chunk is padded with ones
        v, a, hi, lo, i, n, first, index = (
            self.v, self.a, self.hi, self.lo, self.i, self.n, self.first, self.index)
        v[:m] = cells
        v[m:] = 1.0
        np.abs(v, out=a)
        bad = ~((a >= _LOW) & (a < _HIGH))
        a[bad] = 1.0
        # X = floor(log10 a), then N = round(a * 10^(16 - X)); i = X + 4
        np.log10(a, out=lo)
        np.floor(lo, out=lo)
        np.clip(lo, -4, 16, out=lo)
        np.add(lo, 4, out=i, casting="unsafe")
        hi[...], lo[...] = _scaled(a, i)
        off = _off(hi, lo)
        moved = np.flatnonzero(off)
        if moved.size:  # log10 rounded across a power of ten
            i[moved] += off[moved]
            np.clip(i, 0, 20, out=i)
            hi[moved], lo[moved] = _scaled(a[moved], i[moved])
            bad[moved[_off(hi[moved], lo[moved]) != 0]] = True
        # hi >= 1e16 is an even integer, so rounding lo half to even rounds
        # hi + lo half to even
        np.copyto(n, hi, casting="unsafe")
        np.rint(lo, out=lo)
        np.copyto(index, lo, casting="unsafe")
        n += index
        top = np.flatnonzero(n == 10 ** 17)
        if top.size:  # rounded up to the next power of ten: X < 16, as a < 1e17
            n[top] = 10 ** 16
            i[top] += 1
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
        # K, the last digit written: trailing zeros go, but none before the '.'
        index[...] = _ZEROS[g4]
        zero = np.flatnonzero(g4 == 0)
        for g in (g3, g2, g1):
            index[zero] += _ZEROS[g[zero]]
            zero = zero[g[zero] == 0]
        np.subtract(16, index, out=index)
        np.maximum(index, i - 4, out=index)
        index += i * 17
        out = self.out
        np.take(_KEEP, index, axis=0, out=self.keep)
        np.multiply(i, 20, out=index)
        index += np.signbit(v) * 10
        index += first
        np.take(_FIRST, index, out=out[:, 0])
        for w, g in enumerate(self.groups, 1):
            np.take(_DIGITS, g, out=out[:, w])
        out &= self.keep
        out[:, 4] |= self.separator
        if not bad.any():
            return out[:m].tobytes().translate(None, b"\0").decode("ascii")
        out[bad] = _FALLBACK
        out[bad, 4] |= self.separator[bad]
        text = out[:m].tobytes().translate(None, b"\0").decode("ascii")
        return text % tuple(v[:m][bad[:m]].tolist())

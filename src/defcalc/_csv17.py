"""Tables as text.  ``write_table`` writes a 2-D float array as CSV or JSON,
each cell by one of two digit rules: the bytes of ``"%.17g" % v`` (CSV) or of
``json.dumps(v)`` (JSON).  A table of fewer than ``_KERNEL_CELLS`` cells takes
one ``%`` pass over a template of all its rows; a larger one takes the array
kernel described below, with the same bytes.

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

Each step is one numpy call over a chunk of cells.  The product is a pair
hi + lo of doubles by Dekker's two-product (Numer. Math. 18 (1971) 224):
|v| split by masking its low 27 bits, 10^(16 - X) 2^-s and its Veltkamp
halves by one gather from a table of double-double powers (hi + tail), and
|v| prescaled by the exact 2^s that brings it near 1, so that no step leaves
the double range.  A chunk whose normal cells all lie in [1e-4, 1e17) reads
the 21 exact rows of fixed notation, built at import (tail 0, s = 0): its
product is exact, rounding lo half to even rounds N exactly, and the
prescale, the tail and the certificates are skipped.  Any other chunk reads
the table of every normal X, built on first use (about 3 ms); its tail adds
an error below 4 u^2 |hi| (u = 2^-53), under 1e-13, and a cell is written
only where that bound rules out a tie at .5 (exact ties exist: 9 * 2^-23).
Only a cell with hi within 16 of 1e16 or 1e17 can take a wrong X from log10,
or carry: those are settled apart, and fall back where X stays in doubt.
The shortest digits are written only where each end of [L, U] is that far
from an integer, and P that far from halfway between two multiples of 10:
the doubles from 2^52 to 1e17, integers whose range ends are integers, all
fall back, so this rule writes no cell with X = 16 itself.

A cell is laid out in six 8-byte words: sign, "0.000" prefix, first digit
and '.' slot; four of N's 4-digit groups, each digit followed by a '.' slot;
"e±XX" and the separator.  K, N's last nonzero digit, is the largest of the
groups' places of last nonzero digit; a mask per (rule, X, K) zeroes the
digits and slots not written, and the zero bytes are dropped.  Exponent
notation takes the layout of X = 0 and its "e±XX"; in an exact chunk
below 1e16, all in fixed notation, the separator takes the slot after the
17th digit, and the sixth word goes.  Every other cell (zero, subnormal,
non-finite, or one whose digits are not certain) is written by one ``%``
call over the chunk, with the texts of ``%.17g`` or of one ``json.dumps``
over the chunk's fallback cells.  CSV cells end with ',' or, at a row's
end, '\\n'; a JSON cell in column c ends with chr(1 + c), which
``write_table`` turns into the text between the cells.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Iterator, NamedTuple

import numpy as np

_CHUNK = 2048  # cells per pass at most; 1,024, 3,072 and 4,096 each took longer per cell
# A table with this many cells or more takes the kernel.  On Mittag-Leffler and
# solve tables, in both formats, it matched one ``%`` pass at about 250 cells,
# and took 0.55 of its time at 600.
_KERNEL_CELLS = 256
_LOW, _HIGH = 1e-4, 1e17  # %.17g's fixed notation: the magnitudes with exact powers of ten
# the normal doubles: their bits, less those of the least, as unsigned integers
_TINY_BITS, _NORMAL_SPAN = 0x0010000000000000, 0x7FEFFFFFFFFFFFFF - 0x0010000000000000
_TOP26 = np.uint64(0xFFFFFFFFF8000000)  # sign, exponent and the leading 26 bits of a double
_SIGN, _MINUS = np.uint64(63), np.frombuffer(b"-".ljust(8, b"\0"), np.uint64)[0]  # '-' by sign bit
_LAYOUTS = 22  # per rule: X = -4..16 in fixed notation, then exponent notation
_MARGIN = 2.0**-30  # far above the inexact product's error bound, far below one digit


class _Rule(NamedTuple):
    """A digit rule.  ``row``: its row of each layout table of ``_Powers``;
    ``shortest``: the shortest digits that read back, else all 17; fixed
    notation for -4 <= X <= ``last_fixed``, with at least ``point`` digits
    after the '.'; ``ends(cols)``: the byte after each cell of a row; a
    cell that falls back holds ``placeholder``, and ``spell`` gives the
    texts of the fallback cells' values, in order."""

    row: int
    shortest: bool
    last_fixed: int
    point: int
    ends: Callable[[int], str]
    placeholder: bytes
    spell: Callable[[list], tuple]


_G17 = _Rule(0, False, 16, 0, lambda cols: "," * (cols - 1) + "\n", b"%.17g", tuple)
_JSON = _Rule(1, True, 15, 1, lambda cols: "".join(map(chr, range(1, cols + 1))), b"%s",
              lambda values: tuple(json.dumps(values)[1:-1].split(", ")))
_RULES = (_G17, _JSON)


class _Powers(NamedTuple):
    """For X in [x_min, x_min + tail.size), by row X - x_min: 10^(16 - X) 2^-s
    as hi + tail, with hi and its Veltkamp halves in ``power``'s three rows,
    the prescale 2^s and the margin a product must keep from 1e16, 1e17 and
    a tie (0 where the tail is 0); and by rule row, then X: 17 times the
    layout (see ``_build``), and the bytes "e±XX" as a word (none in fixed
    notation).  ``exact``: every tail is 0 and every s 0."""

    x_min: int
    power: np.ndarray
    tail: np.ndarray
    scale: np.ndarray
    margin: np.ndarray
    layout: np.ndarray
    exponent: np.ndarray
    exact: bool


def _powers(x_min: int, x_max: int) -> _Powers:
    """The powers of X in [x_min, x_max].  hi and tail come from the exact
    rational num/den: Python's int true division rounds correctly."""
    tens = [10**k for k in range(17 - x_min)]
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
    t = hi * 134217729.0  # Veltkamp's split by 2^27 + 1: halves of 26 significant bits
    power = np.array([hi, t - (t - hi), hi - (t - (t - hi))])
    layout, exponent = [], []
    for rule in _RULES:
        fixed = [-4 <= x <= rule.last_fixed for x in xs]
        layout.append([17 * (rule.row * _LAYOUTS + (x + 4 if f else _LAYOUTS - 1))
                       for x, f in zip(xs, fixed)])
        words = b"".join((b"" if f else f"e{x:+03d}".encode()).ljust(8, b"\0")
                         for x, f in zip(xs, fixed))
        exponent.append(np.frombuffer(words, np.uint64))
    return _Powers(x_min, power, tail, scale, margin, np.array(layout), np.array(exponent),
                   -4 <= x_min and x_max <= 16)


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
    # each group's place of last nonzero digit, 1 to 4, and far below 0 for none
    last = np.full((10, 10, 10, 10), -16, np.int8)
    last[..., 1:] = 4
    last[..., 1:, 0] = 3
    last[:, 1:, 0, 0] = 2
    last[1:, 0, 0, 0] = 1
    # layouts i, one set per rule: X + 4 in fixed notation, then exponent
    # notation, laid out as X = 0
    # the first word by (i, first digit, padded to 17): "0." and -X - 1
    # zeros, the digit and its '.' slot; a '-' is ORed into the first byte
    first = np.zeros((_LAYOUTS, 17, 8), np.uint8)
    for i in range(4):
        first[i, :, 1:6 - i] = ord("0")
        first[i, :, 2] = ord(".")
    first[:, :10, 6] = digit
    first[..., 7] = ord(".")
    # the bytes of the first five words kept by (i, K), K the last nonzero
    # digit: the prefix, digits 0..K, and the '.' after digit X when a digit
    # follows it; in fixed notation digits up to X + the rule's point at least
    keep = np.zeros((_LAYOUTS, 17, 40), np.uint8)
    keep[..., :6] = 0xFF
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
    return (digits.view(np.uint64).ravel(), last.ravel(),
            np.concatenate([first] * len(_RULES)).view(np.uint64).ravel(),
            np.concatenate(kept).view(np.uint64).reshape(-1, 5).T.copy())


_DIGITS, _LAST, _FIRST, _KEEP = _build()
_PLACES = np.array([[0], [4], [8], [12]], np.int8)  # digits before each group, past the first
_FIXED_POWERS = _powers(-4, 16)
_NONE = np.empty(0, np.intp)


def _product(a, j, powers: _Powers, hi=None, lo=None):
    """a * 10^(16 - X) as hi + lo for the rows j of ``powers``, into the
    arrays given.  Masking a's low 27 bits leaves 26, and each of the four
    partial products is exact; so are the sums, in this order (Dekker).
    Exact powers skip the prescale and the tail, which could not change a
    bit."""
    p, p_hi, p_lo = powers.power.take(j, axis=1)
    if not powers.exact:
        a = a * powers.scale.take(j)
    hi = np.multiply(a, p, out=hi)
    a_hi = np.bitwise_and(a.view(np.uint64), _TOP26).view(np.float64)
    a_lo = a - a_hi
    lo = np.multiply(a_hi, p_hi, out=lo)
    lo -= hi
    for x, y in ((a_hi, p_lo), (a_lo, p_hi), (a_lo, p_lo)):
        lo += np.multiply(x, y, out=p)
    if not powers.exact:
        lo += np.multiply(a, powers.tail.take(j), out=p)
    return hi, lo


def write_table(out, fmt: str, command: str, params: dict, header: tuple[str, ...],
                table: np.ndarray) -> None:
    """Write a 2-D float array, one column per ``header`` name, to ``out``:
    as CSV, the header line, then a line per row of ``"%.17g" % v`` cells
    joined by ','; as JSON, the bytes of ``json.dumps({"command": command,
    "params": params, "rows": rows}, indent=2)`` and '\\n', with an object
    per row from ``header``'s names to its cells."""
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        out.writelines(_texts(table, _G17))
        return
    # any indent makes json run its pure-Python encoder, so only the head goes
    # through it; the rows come from _texts, with the same bytes
    head = json.dumps({"command": command, "params": params, "rows": []}, indent=2)
    if table.size:  # head ends with "[]\n}"
        names = [f"      {json.dumps(name)}: " for name in header]
        body = "".join(_texts(table, _JSON))[:-1]  # not the last byte
        texts = [",\n"] * (len(header) - 1) + ["\n    },\n    {\n"]
        for end, text, name in zip(_JSON.ends(len(header)), texts, names[1:] + names):
            body = body.replace(end, text + name)
        head = head[:-4] + "[\n    {\n" + names[0] + body + "\n    }\n  ]\n}"
    out.write(head + "\n")


def _texts(table: np.ndarray, rule: _Rule) -> Iterator[str]:
    """The cells of a 2-D float array by ``rule``, each followed by its
    separator, in pieces of whole rows: below ``_KERNEL_CELLS`` cells, one
    ``%`` pass over a template of all the rows; from there on, the kernel."""
    (rows, cols), cells = table.shape, table.ravel()
    if cells.size < _KERNEL_CELLS:
        line = "".join(rule.placeholder.decode() + end for end in rule.ends(cols))
        yield line * rows % rule.spell(cells.tolist())
        return
    chunks = -(-cells.size // _CHUNK)
    chunk = _Chunk(-(-rows // chunks) * cols, cols, rule)  # chunks of equal size, nearly
    for start in range(0, cells.size, chunk.size):
        yield chunk.text(cells[start:start + chunk.size])


class _Chunk:
    """The buffers for a chunk of whole rows, kept from one chunk to the next."""

    def __init__(self, size: int, cols: int, rule: _Rule):
        self.size, self.rule = size, rule
        self.v, self.a, self.hi, self.lo, self.rounded = (np.empty(size) for _ in range(5))
        self.scratch = np.empty((4, size))
        self.j, self.n, self.first, self.index = (np.empty(size, np.int64) for _ in range(4))
        self.wide, self.groups = np.empty((2, size), np.int64), np.empty((4, size), np.int64)
        self.words, self.bad = np.empty((6, size), np.uint64), np.empty(size, bool)
        separator = np.zeros((size, 8), np.uint8)  # each cell's last word
        separator[:, 7] = np.frombuffer(rule.ends(cols).encode() * (size // cols), np.uint8)
        self.separator = separator.view(np.uint64).ravel()
        self.placeholder = np.frombuffer(rule.placeholder.ljust(48, b"\0"), np.uint64)[:, None]

    def text(self, cells: np.ndarray) -> str:
        m = cells.size  # a last, short chunk is padded with twos: 2e16 is no edge
        v, a, hi, lo, j, n, bad = self.v, self.a, self.hi, self.lo, self.j, self.n, self.bad
        rule, g, wide, words = self.rule, self.groups, self.wide, self.words
        v[:m], v[m:] = cells, 2.0
        np.abs(v, out=a)
        np.greater((a.view(np.int64) - _TINY_BITS).view(np.uint64), _NORMAL_SPAN, out=bad)
        np.copyto(a, 2.0, where=bad)
        powers = _FIXED_POWERS if a.min() >= _LOW and a.max() < _HIGH else _all_powers()
        # X = floor(log10 a) by row j = X - x_min, where log10 a - x_min > -1
        # and the cast truncates; then N = round(a * 10^(16 - X))
        np.log10(a, out=lo)
        np.add(lo, -powers.x_min, out=j, casting="unsafe")
        np.minimum(j, powers.tail.size - 1, out=j)
        _product(a, j, powers, hi, lo)
        edge = (np.flatnonzero((hi <= 1e16) | (hi >= _HIGH - 16))
                if hi.min() <= 1e16 or hi.max() >= _HIGH - 16 else _NONE)
        if edge.size:
            self._settle(edge, powers)
        # hi >= 1e16 is an even integer, so rounding lo half to even rounds
        # hi + lo half to even
        rounded = np.rint(lo, out=self.rounded)
        if not powers.exact:
            bad |= abs(lo - rounded) > 0.5 - powers.margin.take(j)
        np.copyto(n, hi, casting="unsafe")
        n += rounded.astype(np.int64)
        if rule.shortest:  # from N to the shortest digits, with P - N in lo
            self._shortest(np.subtract(lo, rounded, out=lo))
        if edge.size:  # rounded up to the next power of ten, never past the table's last X
            top = edge[n[edge] == 10**17]
            n[top] = 10**16
            j[top] += 1
        # N's first digit and the other 16, then their 8-digit halves, then
        # the four 4-digit groups in the rows of g
        for x, q, r, d in ((n, self.first, self.index, 10**16), (self.index, *wide, 10**8),
                           (wide, g[0::2], g[1::2], 10**4)):
            np.floor_divide(x, d, out=q)
            np.subtract(x, np.multiply(q, d, out=r), out=r)
        # K, the last nonzero digit: trailing zeros go, unless the layout keeps them
        i = powers.layout[rule.row].take(j)
        keep = _KEEP.take((_LAST.take(g) + _PLACES).max(axis=0, initial=0) + i, axis=1)
        words[0] = _FIRST.take(self.first + i)
        words[0] |= (v.view(np.uint64) >> _SIGN) * _MINUS
        words[1:5] = _DIGITS.take(g)
        words[:5] &= keep
        # below 1e16 an exact chunk is all fixed notation: separators take the 17th digit's slot
        exponent = None if powers.exact and a.max() < 1e16 else powers.exponent[rule.row]
        w = 5 if exponent is None else 6
        if exponent is not None:
            words[5] = exponent.take(j)
        fallback = bad.any()
        if fallback:
            words[:w, bad] = self.placeholder[:w]
        words[w - 1] |= self.separator
        text = words[:w, :m].T.tobytes().translate(None, b"\0").decode("ascii")
        return text % rule.spell(v[:m][bad[:m]].tolist()) if fallback else text

    def _settle(self, edge, powers: _Powers) -> None:
        """Where log10 rounded across a power of ten, move X by one and form
        the product again; a cell whose X stays in doubt falls back.  hi -
        1e16 is exact wherever the sign of the sum is in doubt, and rounding
        keeps signs."""
        for again in (True, False):
            hi, lo = self.hi[edge], self.lo[edge]
            low, high, e = (hi - 1e16) + lo, (hi - _HIGH) + lo, powers.margin[self.j[edge]]
            self.bad[edge] |= (abs(low) < e) | (abs(high) < e)
            off = (high >= 0).astype(np.intp) - (low < 0)
            edge, off = edge[off != 0], off[off != 0]
            if not (again and edge.size):
                self.bad[edge] = True
                return
            self.j[edge] = j = np.clip(self.j[edge] + off, 0, powers.tail.size - 1)
            self.hi[edge], self.lo[edge] = _product(self.a[edge], j, powers)

    def _shortest(self, r) -> None:
        """Add to N the step to the shortest digits that read back as a, where
        the product P = a 10^(16 - X) is hi + lo = N + r; where
        that step is not certain, the cell falls back."""
        n, bad, (h, low, high, ten) = self.n, self.bad, self.scratch
        mantissa = np.frexp(self.a)[0]  # m / 2^53, in [0.5, 1)
        # half the gap to the next double, in units of N's last digit
        np.multiply(np.divide(self.hi, mantissa, out=h), 2.0**-54, out=h)
        # half as wide below a power of two; not at 2^-1022, but its digits come out the same
        np.subtract(r, h - 0.5 * h * (mantissa == 0.5), out=low)
        np.add(r, h, out=high)
        bad |= (abs(self.scratch[1:3] - np.rint(self.scratch[1:3])) < _MARGIN).any(axis=0)
        np.ceil(low, out=low)  # [low, high] = [L - N, U - N]
        np.floor(high, out=high)
        t = (n - n // 100 * 100).astype(float)  # N's last two digits
        # the largest multiple of 100 up to U: where it is in [L, U], the only one
        hundred = np.floor((t + high) * 0.01) * 100.0 - t
        two = hundred >= low
        # else the multiple of 10 nearest P, or its neighbour where it lies just outside
        np.subtract(np.rint((t + r) * 0.1) * 10.0, t, out=ten)
        tie = abs(abs(ten - r) - 5.0) < _MARGIN
        ten += 10.0 * (ten < low) - 10.0 * (ten > high)
        one = (low <= ten) & (ten <= high) & ~two
        bad |= tie & one
        np.copyto(self.index, np.where(two, hundred, ten * one), casting="unsafe")
        n += self.index

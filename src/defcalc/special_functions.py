"""Special functions backing the operator toolkit.

gamma        math.gamma with a pole check, DomainError past the double range.
gen_binomial generalized binomial coefficient via the pole-free product form.
mittag_leffler  E_alpha(z) = sum z^k / Gamma(alpha k + 1), by the truncated
                series or a fixed contour, over a float or an array.
stretched_exp   exp(x^alpha).
balankin_exp    exp((l0/zeta) (x/l0 + 1)^zeta).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, _elementwise, _reject

__all__ = [
    "HausdorffParams",
    "gamma",
    "gen_binomial",
    "mittag_leffler",
    "mittag_leffler_array",
    "stretched_exp",
    "balankin_exp",
]

_POLE_EPS = 1e-12


@dataclass(frozen=True)
class HausdorffParams:
    """Scaling exponent zeta and lower cutoff length l0 of the fractal metric."""

    zeta: float
    l0: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.l0) and self.l0 > 0.0):
            raise ValueError(f"l0 must be positive and finite, got {self.l0}")
        if not math.isfinite(self.zeta):
            raise ValueError(f"zeta must be finite, got {self.zeta}")


def gamma(x: float) -> float:
    """Gamma function: :func:`math.gamma`, finite or an error.

    Non-positive integer arguments (within 1e-12) raise :class:`PoleError`,
    and -inf raises :class:`DomainError`, as does an x where Gamma(x) exceeds
    the largest double (x > 171.62, or 0 < x < 5.6e-309), inf or nan.
    """
    if x == -math.inf:
        raise DomainError("gamma is undefined at x = -inf")
    if x <= 0.0 and abs(x - round(x)) < _POLE_EPS:
        raise PoleError(f"gamma pole at non-positive integer x = {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        value = math.inf
    _reject(not math.isfinite(value), x, "gamma passes the double range")
    return value


def _binomials(alpha: float) -> Iterator[float]:
    """C(alpha, 0), C(alpha, 1), ...: the falling-factorial recurrence
    C(alpha, k + 1) = C(alpha, k) (alpha - k) / (k + 1), one product a term."""
    c = 1.0
    for k in itertools.count():
        yield c
        c *= (alpha - k) / (k + 1.0)


def gen_binomial(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for non-negative integer k.

    Computed as the falling-factorial product alpha (alpha-1) ... (alpha-k+1) / k!,
    which is defined for every real alpha (no gamma poles).  Equals
    Gamma(alpha+1) / (Gamma(k+1) Gamma(alpha-k+1)) wherever the latter exists;
    a product past the double range raises :class:`DomainError`."""
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a non-negative integer, got {k}")
    value = next(itertools.islice(_binomials(alpha), int(k), None))
    _reject(not math.isfinite(value), alpha, "gen_binomial passes the double range")
    return value


_ML_REL_TOL = 1e-12
_ML_DOMAIN = 10.0  # the declared domain |z| <= _ML_DOMAIN
_ML_MAX_TERMS = 10_000
# Largest block of terms in the array series, and terms x elements per block
# (at least four terms a block, whatever the number of active elements).
# Below _ML_ACCUMULATE_BELOW active elements a block is summed by two
# accumulate calls, each about 2.5 ns per cell at any width; from there on by
# two ufunc calls per term, together about 1.2 ns per cell at 1,000 elements
# (2-vCPU Xeon, numpy 2.4.6).  A call whose elements times lead terms (below)
# fit in _ML_ONE_BLOCK_CELLS runs all of those terms as its first block.
_ML_BLOCK = 64
_ML_BLOCK_CELLS = 16384
_ML_ONE_BLOCK_CELLS = 65536
_ML_ACCUMULATE_BELOW = 256


def _ml_term_ratio(alpha: float, k: int) -> float:
    # term_{k+1} / term_k divided by z: Gamma(alpha k + 1) / Gamma(alpha k + alpha + 1),
    # in log space; where lgamma passes the double range the ratio is below 5e-324
    try:
        return math.exp(math.lgamma(alpha * k + 1.0) - math.lgamma(alpha * k + alpha + 1.0))
    except OverflowError:
        return 0.0


def _ml_series(z: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    """Sum the Mittag-Leffler series over the 1-d array z, each element on its
    own recurrence.

    Element e runs ``term = term * (z[e] * r_k)``, ``total += term`` and stops
    at the second consecutive ``|term| < _ML_REL_TOL * |total|``: the bits of
    a scalar loop over z[e].  Each r_k is computed once.  The terms come in
    blocks laid out (term, element), one row per term, and the stopping test
    runs on a whole block at once.  The lead count L is the number of terms
    after which the largest |z| has fallen below _ML_REL_TOL twice, enough for
    every z >= 0.  If L rows of z.size elements fit in _ML_ONE_BLOCK_CELLS,
    the first block has L rows, so an array with no z < 0 takes one block and
    one test; else it has at most _ML_BLOCK rows and _ML_BLOCK_CELLS cells.
    Later blocks double, up to those limits, and run only on the elements not
    yet finished.  On the region the series serves no term exceeds about
    e^10; a non-finite term would never qualify, so its element would run to
    the budget.

    Returns the totals and the index of the first element still unconverged
    when the budget runs out (-1 if none); such elements hold their last
    partial sums.
    """
    tol = _ML_REL_TOL
    ratios: list[float] = []
    lead, lead_small = 1.0, 0  # |term| of the largest |z| and its run below tol
    z_max = float(np.max(np.abs(z))) if z.size else 0.0
    while len(ratios) < _ML_MAX_TERMS and lead_small < 2:
        ratios.append(_ml_term_ratio(alpha, len(ratios)))
        lead *= z_max * ratios[-1]
        lead_small = lead_small + 1 if lead < tol else 0
    first = len(ratios) if z.size * len(ratios) <= _ML_ONE_BLOCK_CELLS else 0
    out = np.empty(z.size)
    # the active set: position in z, z, last term, partial sum, last term qualified
    pos, zs, term, total = np.arange(z.size), z, np.ones(z.size), np.ones(z.size)
    streak = np.zeros(z.size, dtype=bool)
    # block buffers, reused: terms (then |terms|), totals and tol |totals|; fresh
    # arrays each block cost page faults (+8% on the benchmark's fractional_chain)
    cells = max(min(_ML_BLOCK_CELLS, _ML_BLOCK * z.size), 4 * z.size, first * z.size)
    buffers = np.empty((3, cells))
    k = 0
    with np.errstate(all="ignore"):
        while k < _ML_MAX_TERMS and pos.size:
            m = pos.size
            if k == 0 and first:
                b = first
            else:
                cap = min(max(4, min(_ML_BLOCK, _ML_BLOCK_CELLS // m)), _ML_MAX_TERMS - k)
                b = min(cap, max(len(ratios) - k, 8, k))
            ratios.extend(_ml_term_ratio(alpha, j) for j in range(len(ratios), k + b))
            terms, totals, bound = (buf[: b * m].reshape(b, m) for buf in buffers)
            np.multiply.outer(ratios[k : k + b], zs, out=terms)  # z r_k, then term_k
            if m < _ML_ACCUMULATE_BELOW:
                # accumulate runs row after row: the same products and sums
                terms[0] *= term
                np.multiply.accumulate(terms, axis=0, out=terms)
                np.copyto(totals, terms)
                totals[0] += total
                np.add.accumulate(totals, axis=0, out=totals)
                term, total = terms[-1], totals[-1]
            else:
                for row, running in zip(terms, totals):
                    np.multiply(term, row, out=row)
                    np.add(total, row, out=running)
                    term, total = row, running
            term = term.copy()  # |terms| below overwrites this row
            small = np.empty((b + 1, m), dtype=bool)
            small[0] = streak
            np.abs(totals, out=bound)
            bound *= tol
            np.less(np.abs(terms, out=terms), bound, out=small[1:])
            stop = small[1:] & small[:-1]
            hit = np.logical_or.reduce(stop, axis=0)
            k += b
            if hit.all():  # every element stops in this block
                out[pos] = totals[stop.argmax(axis=0), np.arange(m)]
                return out, -1
            if hit.any():
                done = np.flatnonzero(hit)
                out[pos[done]] = totals[stop[:, done].argmax(axis=0), done]
            keep = np.flatnonzero(~hit)
            pos, zs, term, total, streak = (a[keep] for a in (pos, zs, term, total, small[-1]))
    out[pos] = total  # pos left: the budget ran out on these
    return out, int(pos[0]) if pos.size else -1


# The fixed contour of Weideman & Trefethen, Math. Comp. 76 (2007) 1341: the
# parabola s(u) = N (0.1309 - 0.1194 u^2 + 0.25 i u) and the trapezoid rule on
# u = k 3/N, k = -N..N.  Its conjugate half k = -N..-1 mirrors k = 1..N, so
# the nodes are k = 0..N and every node but k = 0 counts twice.  Each node's
# weight is e^s s' h / (2 pi) times that count; s^(a-1) is s^a / s.
_ML_NODES = 32
_ML_U = np.arange(_ML_NODES + 1) * (3.0 / _ML_NODES)
_ML_S = _ML_NODES * (0.1309 - 0.1194 * _ML_U**2 + 0.25j * _ML_U)
_ML_LOG_S = np.log(_ML_S)
_ML_WEIGHT = (np.exp(_ML_S) * _ML_NODES * (-0.2388 * _ML_U + 0.25j) / _ML_S
              * np.where(_ML_U > 0.0, 2.0, 1.0) * (3.0 / _ML_NODES / (2.0 * math.pi)))
# elements per (element, node) block of the contour sum
_ML_CONTOUR_ROWS = 1024


def _ml_contour(z: np.ndarray, alpha: float) -> np.ndarray:
    """E_alpha(z) = (1/2 pi i) int e^s s^(alpha-1) / (s^alpha - z) ds over the
    fixed parabola, for 0 < alpha < 2 and real z off the series region.

    With w_k the weight times s_k^(alpha-1) and p_k = s_k^alpha, the sum is
    Im sum_k w_k / (p_k - z) = sum_k (Im(w_k conj p_k) - Im(w_k) z) / |p_k - z|^2,
    taken in blocks of at most _ML_CONTOUR_ROWS elements, one row each.  For
    z > 0 the pole s = z^(1/alpha) > 10 lies right of the parabola (which
    crosses the real axis at 4.19); its residue e^(z^(1/alpha)) / alpha is
    added, inf where that passes the double range.  For z < 0 and
    1 < alpha < 2 the poles |z|^(1/alpha) e^(+-i pi/alpha) lie left of it
    while |z| <= 10; they cross it near |z| = 30.
    """
    p = np.exp(alpha * _ML_LOG_S)
    w = _ML_WEIGHT * p
    re, im2 = p.real, p.imag**2
    a, b = w.imag * p.real - w.real * p.imag, w.imag
    out = np.empty(z.size)
    for start in range(0, z.size, _ML_CONTOUR_ROWS):
        zb = z[start:start + _ML_CONTOUR_ROWS, None]
        den = re - zb
        den *= den
        den += im2
        num = b * zb
        np.subtract(a, num, out=num)
        num /= den
        num.sum(axis=1, out=out[start:start + zb.shape[0]])
    inverse = 1.0 / alpha
    for i in np.flatnonzero(z > 0.0).tolist():
        try:
            out[i] += math.exp(float(z[i]) ** inverse) / alpha
        except OverflowError:
            out[i] = math.inf
    return out


def mittag_leffler(z, alpha: float):
    """One-parameter Mittag-Leffler function E_alpha(z), over a float or an
    array.

    A float z gives a float; an array gives an array of its shape.  Declared
    domain |z| <= 10 (NaN lies outside), alpha > 0.  Each element takes one
    method, chosen from alpha and its own z alone:

    - alpha = 1: ``math.exp``.
    - alpha >= 2, and -1 <= z <= 10^alpha for 0 < alpha < 2 (that is, z >= 0
      with z^(1/alpha) <= 10, or z < 0 with |z|^(1/alpha) <= 1): the power
      series.  It truncates once |term| < 1e-12 |partial sum| holds for two
      consecutive terms, with the bits of the scalar recurrence.  10,000 terms
      run out only for alpha < 0.004, and raise :class:`ConvergenceError`.
    - Everywhere else (0 < alpha < 2): the fixed contour of :func:`_ml_contour`.

    So an element has the bits of its own float call.  For z > 0,
    E_alpha(z) past the double range raises :class:`DomainError`.  Over an
    array the error names the first failing element, and ``index`` its
    position in ``z.ravel()``.
    """
    scalar = not isinstance(z, np.ndarray) and np.ndim(z) == 0
    flat = np.asarray(z, dtype=float).ravel()

    def z_at(i: int):
        return z if scalar else float(flat[i])

    if not 0.0 < alpha < math.inf:
        need = "finite alpha" if alpha > 0.0 else "alpha > 0"
        raise DomainError(f"mittag_leffler requires {need}, got {alpha}",
                          index=None if scalar or not flat.size else 0)
    outside = ~(np.abs(flat) <= _ML_DOMAIN)
    end = int(outside.argmax()) if outside.any() else flat.size
    zs, failed = flat[:end], -1
    if alpha == 1.0:
        values = np.array([math.exp(v) for v in zs.tolist()])
    else:
        series = (zs >= -1.0) & (zs <= 10.0**alpha) if alpha < 2.0 else np.ones(end, dtype=bool)
        values = np.empty(end)
        at = np.flatnonzero(series)
        if at.size:
            values[at], failed = _ml_series(zs[at], alpha)
            failed = int(at[failed]) if failed >= 0 else -1
        at = np.flatnonzero(~series)
        if at.size:
            values[at] = _ml_contour(zs[at], alpha)
    summed = end if failed < 0 else failed + 1
    over = (flat[:summed] > 0.0) & ~np.isfinite(values[:summed])
    if over.any():
        i = int(over.argmax())
        raise DomainError(f"mittag_leffler overflows the double range at z={z_at(i)} "
                          f"(alpha={alpha})", index=None if scalar else i)
    if failed >= 0:
        raise ConvergenceError(f"mittag_leffler did not converge within {_ML_MAX_TERMS} terms "
                               f"(z={z_at(failed)}, alpha={alpha})",
                               index=None if scalar else failed)
    if end < flat.size:
        raise DomainError(f"mittag_leffler series domain is |z| <= {_ML_DOMAIN:g}, got {z_at(end)}",
                          index=None if scalar else end)
    return float(values[0]) if scalar else values.reshape(np.shape(z))


mittag_leffler_array = mittag_leffler


@_elementwise
def stretched_exp(x: float | np.ndarray, alpha: float):
    """Stretched exponential exp(x^alpha) for x >= 0, over a float or an array."""
    _reject(x < 0.0, x, "stretched_exp requires x >= 0")
    return [math.exp(v**alpha) for v in np.ravel(x).tolist()]


@_elementwise
def balankin_exp(x: float | np.ndarray, hp: HausdorffParams):
    """Fractal-metric exponential exp((l0/zeta) (x/l0 + 1)^zeta), for a float
    or an array.

    Eigenfunction of the Hausdorff derivative; requires x > -l0 and zeta != 0,
    else raises :class:`DomainError` (for an array of x, with the ``index`` of
    the first x <= -l0), as does a value past the double range.  Over an
    array, x/l0 + 1 is formed by numpy and each power and exponential is taken
    from Python floats, so every element has the bits of its own float call.
    """
    if abs(hp.zeta) < 1e-12:
        raise DomainError("balankin_exp is undefined at zeta = 0")
    _reject(x <= -hp.l0, x, f"balankin_exp requires x > -l0 = {-hp.l0}")
    with np.errstate(over="ignore"):  # an inf base is the float call's inf: DomainError
        base = x / hp.l0 + 1.0
    bases = base.ravel().tolist() if isinstance(x, np.ndarray) else [base]
    scale, zeta = hp.l0 / hp.zeta, hp.zeta
    return [math.exp(scale * b**zeta) for b in bases]

"""References for ``gl_jumarie_derivative``: the GL chain evaluated one chain
at a time, with the rounding bound between it and the library's shared
lattices; and the lattices set up one grid point at a time, which the
library's array set-up must match bit for bit."""

import math

import numpy as np

from defcalc.derivative_ops import _LATTICE_RTOL, _RESIDUE_RTOL, _chain_sum, gl_weights
from defcalc.function_catalog import as_real_function

EPS = float(np.finfo(float).eps)


def lattice_point(x: float, h: float) -> tuple[int, float]:
    """x = (t + r) h: t = round(x/h) and r = 0 exactly where x is a multiple of
    h up to round-off, else t = floor(x/h) and 0 < r < 1."""
    q = x / h
    n = round(q)
    if abs(q - n) <= _LATTICE_RTOL * max(1.0, q):
        return n, 0.0
    t = math.floor(q)
    return t, q - t


def _lattices(chains):
    """Lattices [a, lo, hi, members]: the chains (t, r, N) of ``members`` have
    residues that agree to round-off with that of chain a, the one nearest
    the origin, and index ranges t - N..t that cover lo..hi with no gap."""
    groups, anchor = [], math.nan
    for i in sorted(range(len(chains)), key=lambda i: chains[i][1]):
        t, r, _ = chains[i]
        if not r - anchor <= _RESIDUE_RTOL * max(1.0, t + r):
            anchor = r
            groups.append([])
        groups[-1].append(i)
    lattices = []
    for group in groups:
        a = min(group, key=lambda i: chains[i][0])
        for i in sorted(group, key=lambda i: chains[i][0] - chains[i][2]):
            t, _, n = chains[i]
            if not lattices or lattices[-1][0] != a or t - n > lattices[-1][2] + 1:
                lattices.append([a, t - n, t, []])
            lattices[-1][2] = max(lattices[-1][2], t)
            lattices[-1][3].append(i)
    return lattices


def gl_lattice_by_point(f, x, alpha, h, n_terms=None):
    """``gl_jumarie_derivative`` over a grid x with its lattices set up in
    Python, one grid point and one chain at a time: the same lattices, the
    same calls of f and the same dot product per chain, so the same bits."""
    f = as_real_function(f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    chains = [(t, r, t if n_terms is None else min(t, int(n_terms)))
              for t, r in (lattice_point(v, h) for v in xs.tolist())]
    weights = gl_weights(alpha, max(n for _, _, n in chains))
    sums = np.empty(xs.size)
    for a, lo, hi, members in _lattices(chains):
        x_a, t_a = (0.0, 0) if chains[a][1] == 0.0 else (xs[a], chains[a][0])
        values = f(x_a + (np.arange(lo, hi + 1, dtype=float) - t_a) * h)
        for i in members:
            t, _, n = chains[i]
            sums[i] = h ** (-alpha) * _chain_sum(weights[: n + 1], values[t - lo - n: t - lo + 1][::-1])
    return sums

# The largest ratio of |lattice sum - chain sum| to the bound below without
# this factor was 1.2, over 50,000 grids drawn like ``_gl_grids`` in
# test_derivative_ops (with n_terms, scalar-only f, residues on and off the
# lattice, f = cos(3x) + sqrt(x)).
BOUND_FACTOR = 1.5


def gl_chain_by_chain(f, x, alpha, h, n_terms=None, size=None, slope=None):
    """(sums, bounds) over the grid x (a float or an array).

    Each sum is h^-alpha sum_k w_k f(x_k) with f called on that chain's own
    nodes x_k = x - kh, k = 0..N, and the weights built for it alone.  A chain
    on the h-lattice is that of t h: its nodes are (t - k) h, ending on 0.0.

    Each bound is BOUND_FACTOR eps h^-alpha sum_k |w_k| ((N + 1) size(x_k) +
    x |slope(x_k)|): the rounding of the dot product and of f, whose terms are
    of magnitude ``size`` (|f| by default), and a node moved by about one ulp
    of x, where ``slope`` is f' (a central difference by default).  Nodes on
    the lattice do not move, so there the second term is 0.
    """
    f = as_real_function(f)
    size = size or (lambda t: np.abs(f(t)))
    slope = slope or (lambda t: (f(t * (1 + 1e-7)) - f(t * (1 - 1e-7))) / (2e-7 * t))
    sums, bounds = [], []
    for v in np.atleast_1d(np.asarray(x, dtype=float)).tolist():
        t, r = lattice_point(v, h)
        n = t if n_terms is None else min(t, n_terms)
        k = np.arange(n + 1)
        nodes = h * (t - k) if r == 0.0 else np.maximum(v - h * k, 0.0)
        w = gl_weights(alpha, n)
        moved = 0.0 if r == 0.0 else v * np.abs(slope(nodes))
        sums.append(h**-alpha * np.dot(w, f(nodes)))
        bounds.append(BOUND_FACTOR * EPS * h**-alpha
                      * np.sum(np.abs(w) * ((n + 1) * size(nodes) + moved)))
    return np.array(sums), np.array(bounds)

"""The GL chain evaluated one chain at a time, the reference for
``gl_jumarie_derivative``, whose chains share lattices, and the rounding bound
between the two."""

import numpy as np

from defcalc.derivative_ops import _lattice_point, gl_weights
from defcalc.function_catalog import as_real_function

EPS = float(np.finfo(float).eps)

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
        t, r = _lattice_point(v, h)
        n = t if n_terms is None else min(t, n_terms)
        k = np.arange(n + 1)
        nodes = h * (t - k) if r == 0.0 else np.maximum(v - h * k, 0.0)
        w = gl_weights(alpha, n)
        moved = 0.0 if r == 0.0 else v * np.abs(slope(nodes))
        sums.append(h**-alpha * np.dot(w, f(nodes)))
        bounds.append(BOUND_FACTOR * EPS * h**-alpha
                      * np.sum(np.abs(w) * ((n + 1) * size(nodes) + moved)))
    return np.array(sums), np.array(bounds)

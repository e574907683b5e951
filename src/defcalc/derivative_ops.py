"""Derivative operators in closed form and limit-quotient numerical form.

Closed forms multiply f'(x) by the operator's prefactor:

    q-deformed     [1 + (1-q) x] f'(x)
    Kaniadakis     sqrt(1 + k^2 x^2) f'(x)
    Hausdorff      (x/l0 + 1)^(1-zeta) f'(x)
    Yang LFD       Gamma(alpha+1) (x/l0 + 1)^(1-alpha) f'(x)
    conformable    t^(1-alpha) f'(t)

Limit-quotient forms (classical, the q quotient and Chen's Hausdorff
quotient) evaluate the defining difference quotient on a geometric probe
sequence (step halving) and Richardson-extrapolate.  The Grunwald-Letnikov /
Jumarie sum realizes the non-local fractional derivative as an alternating
binomial chain anchored at the origin.

Every operator takes x as a float or as a 1-d array; over an array, each
closed form is one elementwise product prefactor(xs) * f'(xs), and each
limit form evaluates its probe steps as stacks with one row per step, all
steps in one call of f up to ``_STACK_VALUES`` values; a stack that raises
runs again one step per call, to raise the first failing step's error.

``OPERATORS`` describes each operator once: its parameters, its closed and
quotient forms and, for a local operator d/dm, its prefactor p = 1/m' and
eigenfunction exp(m).  Each operator checks its own domain before it
evaluates f, and raises :class:`DomainError` at the first x outside (its
``index`` over an array): Hausdorff and Yang act on the fractal-metric
coordinate 1 + x/l0 and need x > -l0, the conformable operator and the
Hausdorff quotient x > 0, and the GL chain x >= 0.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import deformed_algebra, special_functions
from .deformed_algebra import KappaParam, QParam, _as_kappa, _as_q, q_difference
from .errors import DefcalcError, DomainError, _finite, _reject
from .function_catalog import as_real_function
from .special_functions import HausdorffParams, gamma

__all__ = [
    "DiffSettings",
    "Classical",
    "Conformable",
    "GrunwaldJumarie",
    "YangLFD",
    "DerivativeKind",
    "classical_derivative",
    "q_derivative",
    "q_derivative_quotient",
    "hausdorff_derivative",
    "hausdorff_quotient",
    "kaniadakis_derivative",
    "conformable_derivative",
    "gl_jumarie_derivative",
    "gl_weights",
    "rl_power_rule",
    "yang_lfd",
    "jumarie_taylor_eval",
    "evaluate_kind",
    "Form",
    "Operator",
    "OPERATORS",
]


@dataclass(frozen=True)
class DiffSettings:
    """Numerical limit policy: initial step and Richardson depth."""

    base_step: float = 1e-2
    richardson_levels: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.base_step) and self.base_step > 0.0):
            raise ValueError(f"base_step must be positive and finite, got {self.base_step}")
        if not 1 <= self.richardson_levels <= 6:
            raise ValueError(f"richardson_levels must be in 1..6, got {self.richardson_levels}")


_DEFAULT_SETTINGS = DiffSettings()


# --- Operator kinds: the dataclass fields are the operator's parameters ------


@dataclass(frozen=True)
class Classical:
    pass


@dataclass(frozen=True)
class _Order:
    """An operator of order alpha, 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"{type(self).__name__} requires 0 < alpha <= 1, got {self.alpha}")


@dataclass(frozen=True)
class Conformable(_Order):
    pass


@dataclass(frozen=True)
class GrunwaldJumarie(_Order):
    h: float
    # optional cap on the chain length, set by --terms
    n_terms: Optional[int] = field(default=None, metadata={"flag": "terms"})

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"GrunwaldJumarie requires finite h > 0, got {self.h}")
        if self.n_terms is not None and self.n_terms < 1:
            raise ValueError(f"GrunwaldJumarie requires N >= 1, got {self.n_terms}")


@dataclass(frozen=True)
class YangLFD(_Order):
    l0: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.l0) and self.l0 > 0.0):
            raise ValueError(f"YangLFD requires finite l0 > 0, got {self.l0}")


DerivativeKind = Union[
    Classical, QParam, KappaParam, HausdorffParams, Conformable, GrunwaldJumarie, YangLFD
]


# --- Richardson extrapolation ---------------------------------------------


def _richardson(values, p: int):
    # values[i] computed at step base * 2^-i: floats, or the rows of a stack
    # over a grid, extrapolated elementwise with the same arithmetic; error
    # powers p, 2p, 3p, ...
    stacked = isinstance(values, np.ndarray)
    vals = values if stacked else list(values)
    n = len(vals)
    for j in range(1, n):
        factor = 2.0 ** (p * j)
        if stacked:  # every row k >= j at once, from the rows of level j - 1
            vals[j:] = (factor * vals[j:] - vals[j - 1:-1]) / (factor - 1.0)
            continue
        for k in range(n - 1, j - 1, -1):
            vals[k] = (factor * vals[k] - vals[k - 1]) / (factor - 1.0)
    return vals[-1]


# A stack of probe steps holds at most this many values (64 KiB): over a grid
# of more than _STACK_VALUES / (levels + 1) points, each call of the quotient
# takes fewer steps, down to one, which is faster there and keeps the memory
# of one step at a time.
_STACK_VALUES = 8192


def _limit(quotient: Callable, x, settings: DiffSettings | None, p: int, reach=None):
    """The Richardson limit, error powers p, 2p, ..., of quotient(h) over the
    probe steps h = base 2^-j, j = 0..richardson_levels, for the three limit
    forms (central difference, q quotient, Chen's Hausdorff quotient); base is
    base_step, or min(base_step, reach/4) (elementwise over an array) when
    ``reach`` is given: the distance from x within which a probe stays smooth.

    Over an array of x, quotient takes its steps as a stack with one row per
    step, all of them in one call unless the stack would pass
    ``_STACK_VALUES``.  If a call raises, the steps run again one per call, so
    the error is the one the first failing step raises, as at a float x; a
    limit that is not finite raises :class:`DomainError` at the first such x.
    """
    s = settings or _DEFAULT_SETTINGS
    base = s.base_step
    if reach is not None:
        base = (min if np.ndim(reach) == 0 else np.minimum)(base, reach / 4.0)
    levels = range(s.richardson_levels + 1)

    def make():
        if not (isinstance(x, np.ndarray) and x.ndim):
            return _richardson([quotient(base * 0.5**j) for j in levels], p)
        shrink = np.array([0.5**j for j in levels]).reshape((-1,) + (1,) * x.ndim)
        rows = max(1, _STACK_VALUES // max(x.size, 1))
        values = np.empty((len(levels),) + x.shape)
        while True:
            try:
                for j in range(0, len(levels), rows):
                    values[j:j + rows] = quotient(base * shrink[j:j + rows])
                break
            except Exception:  # whatever a stack raises, raise what the first failing step raises
                if rows == 1:
                    raise
                rows = 1
        return _richardson(values, p)

    return _finite(make, x, "the difference quotient is not finite: a probe step is lost to "
                            "round-off or a value passes the double range")


def classical_derivative(f, x, settings: DiffSettings | None = None, *, reach=None):
    """f'(x) by central differences with Richardson extrapolation.

    Serves as the numerical fallback wherever a symbolic derivative is not
    available.  Probes f within base_step of x, or reach/4 if that is less.
    """
    f = as_real_function(f)
    return _limit(lambda h: (f(x + h) - f(x - h)) / (2.0 * h), x, settings, 2, reach)


def _closed_form(f, x, settings: DiffSettings | None, name: str, kind, reach=None):
    """p(x) f'(x) with p from ``OPERATORS[name]``, the form every local operator
    shares, finite or a :class:`DomainError`; f' is symbolic, else a central
    difference whose probes stay within reach/4 of x, the distance to the edge
    of the operator's domain, and is taken first, so that its error wins over p's."""
    f = as_real_function(f)
    fp = f.derivative_at(x) if f.derivative else classical_derivative(f, x, settings, reach=reach)
    return _finite(lambda: OPERATORS[name].prefactor(kind, x) * fp, x,
                   "prefactor * f'(x) passes the double range")


# --- Closed-form operators -------------------------------------------------


def q_derivative(f, x, q: QParam | float, settings: DiffSettings | None = None):
    """q-deformed derivative [1 + (1-q) x] f'(x); classical derivative at q = 1."""
    return _closed_form(f, x, settings, "q", _as_q(q))


def q_derivative_quotient(f, x, q: QParam | float, settings: DiffSettings | None = None):
    """q-deformed derivative as the limit of (f(x) - f(y)) over the deformed
    difference of x and y, probed at y_n = x - base_step 2^-n and
    Richardson-extrapolated.  Raises :class:`DomainError` if a probe hits the
    deformed-difference singularity y = 1/(q-1)."""
    f = as_real_function(f)
    fx = f(x)
    return _limit(lambda h: (fx - f(x - h)) / q_difference(x, x - h, q), x, settings, 1)


def hausdorff_derivative(f, x, hp: HausdorffParams, settings: DiffSettings | None = None):
    """Hausdorff (fractal-metric) derivative (x/l0 + 1)^(1-zeta) f'(x) for x > -l0."""
    _reject(x <= -hp.l0, x, f"hausdorff_derivative requires x > -l0 = {-hp.l0}")
    return _closed_form(f, x, settings, "hausdorff", hp, x + hp.l0)


def hausdorff_quotient(f, x, zeta: float, settings: DiffSettings | None = None):
    """Derivative with respect to the fractal measure coordinate x^zeta:
    limit of (f(x') - f(x)) / (x'^zeta - x^zeta) with x' -> x from above.

    By the chain rule this equals x^(1-zeta) f'(x) / zeta; it needs x > 0.
    The probes start at min(base_step, x/4): a step much larger than x would
    make x'^zeta - x^zeta non-smooth in it, outside the Richardson tableau.
    """
    HausdorffParams(zeta)  # checks zeta
    f = as_real_function(f)
    _reject(x <= 0.0, x, "hausdorff_quotient requires x > 0")
    fx = f(x)
    xz = _finite(lambda: x**zeta, x, "hausdorff_quotient's x^zeta passes the double range")
    # d / d is 1, or nan (not finite, as a float's ** raises) where numpy's (x + h)^zeta is inf
    return _limit(lambda h: (f(x + h) - fx) / (d := (x + h) ** zeta - xz) * (d / d),
                  x, settings, 1, x)


def kaniadakis_derivative(f, x, kappa: KappaParam | float, settings: DiffSettings | None = None):
    """Kaniadakis derivative sqrt(1 + kappa^2 x^2) f'(x); classical at kappa = 0."""
    return _closed_form(f, x, settings, "kappa", _as_kappa(kappa))


def conformable_derivative(f, t, alpha: float, settings: DiffSettings | None = None):
    """Conformable derivative t^(1-alpha) f'(t) for t > 0: the limit of
    (f(t + eps t^(1-alpha)) - f(t)) / eps for classically differentiable f,
    which is d/dm of the measure m = t^alpha/alpha."""
    kind = Conformable(alpha)  # checks alpha, before t
    _reject(t <= 0.0, t, "conformable_derivative requires t > 0")
    return _closed_form(f, t, settings, "conformable", kind, t)


# --- Grunwald-Letnikov / Jumarie chain ------------------------------------


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Weights (-1)^k C(alpha, k) for k = 0..n, by the stable ratio recurrence."""
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(all="ignore"):  # a weight past the double range is rejected below
        weights = np.cumprod(np.concatenate(([1.0], (k - 1.0 - alpha) / k)))
    _reject(not np.isfinite(weights).all(), alpha, "gl_weights passes the double range")
    return weights


# x on the h-lattice up to this relative round-off counts as a lattice point:
# x = m h computed along any float path is off by a few m ulp at most.
_LATTICE_RTOL = 1e-9

# Residues x/h - t within this times max(1, x/h) agree to round-off.
_RESIDUE_RTOL = 8 * np.finfo(float).eps


# OpenBLAS's ddot wakes its worker threads for more elements than this, which
# can take milliseconds where the sum itself takes microseconds.
_DOT_SLICE = 10_000


def _chain_sum(weights, values) -> float:
    """np.dot(weights, values), over slices of at most ``_DOT_SLICE`` nodes."""
    if weights.size <= _DOT_SLICE:
        return np.dot(weights, values)
    return sum(np.dot(weights[s:s + _DOT_SLICE], values[s:s + _DOT_SLICE])
               for s in range(0, weights.size, _DOT_SLICE))


def _lattice_points(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) with q = x/h = t + r: t = round(q) and r = 0 exactly where x is a
    multiple of h up to round-off, else t = floor(q) and 0 < r < 1."""
    near = np.rint(q)
    on = abs(q - near) <= _LATTICE_RTOL * np.maximum(1.0, q)
    t = np.where(on, near, np.floor(q))
    return t.astype(np.int64), np.where(on, 0.0, q - t)


def _lattices(t: np.ndarray, r: np.ndarray, lo: np.ndarray):
    """The lattices of the chains (t, r) whose nodes run from index lo = t - N
    to t, where lo grows with t: arrays anchor, lo, hi and first with one
    entry per lattice, and members and at with one per chain.  ``members``
    holds the chains in lattice order, lattice j's from first[j] on, and
    ``at`` the index of each in its lattice, t - lo of the lattice.

    A group holds the chains whose residues, taken in order (a stable sort),
    lie within _RESIDUE_RTOL max(1, t + r) of the group's first.  Its anchor
    is its chain nearest the origin.  Taken by t, its chains join a lattice
    until one starts past the last one's t plus one."""
    if t.size == 1:  # a float x: one chain, its own lattice, without the sorts below
        zero = np.zeros(1, dtype=np.intp)
        return zero, lo, t, zero, zero, t - lo
    by_r = r.argsort(kind="stable")
    rs, ts = r[by_r], t[by_r]
    tol = _RESIDUE_RTOL * np.maximum(1.0, ts + rs)
    # a residue past the one before it by more than tol starts a group; then
    # the first residue of each group past that group's first starts one too
    starts = np.empty(rs.size, dtype=bool)
    starts[0] = True
    np.greater(rs[1:] - rs[:-1], tol[1:], out=starts[1:])
    while True:
        group = np.maximum.accumulate(np.where(starts, rs, -np.inf))  # the first residue
        late = (rs - group > tol).nonzero()[0]
        if not late.size:
            break
        starts[late[np.unique(group[late], return_index=True)[1]]] = True
    order = np.lexsort((ts, group))
    members, group, ts = by_r[order], group[order], ts[order]
    lo = lo[members]
    new = np.empty(ts.size, dtype=bool)
    new[0] = True
    np.greater(lo[1:], ts[:-1] + 1, out=new[1:])
    new[1:] |= group[1:] != group[:-1]
    first = new.nonzero()[0]
    anchors = members[group.searchsorted(group[first])]
    lattice = np.add.accumulate(new, dtype=np.intp) - 1
    return (anchors, lo[first], np.maximum.reduceat(ts, first), first, members,
            ts - lo[first][lattice])


def gl_jumarie_derivative(f, x, alpha: float, h: float, n_terms: Optional[int] = None):
    """Grunwald-Letnikov sum h^-alpha sum_k (-1)^k C(alpha,k) f(x - kh).

    The chain is anchored at the origin: with x = (t + r) h, where t = round(x/h)
    and r = 0 exactly for x on the h-lattice (up to round-off), else
    t = floor(x/h), its N = t nodes below x end at r h, so a chain on the
    lattice ends on 0.0.  ``n_terms`` (>= 1) optionally caps N.  Requires
    0 < alpha <= 1, h > 0, and finite x >= 0 with x < 2^53 h.  Chains whose
    residues agree to round-off and whose index ranges t - N..t overlap share
    a lattice: one call of f on the nodes of their chain nearest the origin,
    extended (j h on the lattice), and a dot product per chain with its
    reversed slice, equal to the chain alone up to rounding (README).  If a
    lattice call raises, each chain calls f on its own nodes in grid order,
    (t - k) h on the lattice and x - kh off it, so an error is the first
    failing chain's, with ``index`` set to its grid position.
    """
    GrunwaldJumarie(alpha, h, n_terms)  # checks the parameters
    _reject(~(np.isfinite(x) & (x >= 0.0)), x, "gl_jumarie_derivative requires finite x >= 0")
    _reject(np.greater_equal(x, 2.0**53 * h), x, "gl_jumarie_derivative requires x < 2^53 h")
    f = as_real_function(f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not xs.size:  # no chain to sum
        return np.empty(np.shape(x))
    t, r = _lattice_points(xs / h)
    n = t if n_terms is None else np.minimum(t, int(n_terms))
    weights = gl_weights(alpha, int(n.max()))
    anchors, los, his, firsts, members, at = _lattices(t, r, t - n)
    # each chain in lattice order: its grid index, and the start and end of
    # its nodes among its lattice's
    chains = list(zip(members.tolist(), (at - n[members]).tolist(), (at + 1).tolist()))
    bounds = firsts.tolist() + [xs.size]
    sums = np.empty(xs.size)
    try:
        for j, (a, lo, hi) in enumerate(zip(anchors.tolist(), los.tolist(), his.tolist())):
            # node j is j h on the lattice, else x_a - (t_a - j) h: chain a's own nodes
            nodes = np.arange(lo, hi + 1, dtype=float)
            values = f(nodes * h if r[a] == 0.0 else xs[a] + (nodes - int(t[a])) * h)
            for i, start, end in chains[bounds[j]:bounds[j + 1]]:
                sums[i] = _chain_sum(weights[:end - start], values[start:end][::-1])
    except Exception:  # whatever f raises, raise what the first failing chain raises
        for i, (t_i, r_i, n_i) in enumerate(zip(t.tolist(), r.tolist(), n.tolist())):
            k = np.arange(n_i + 1, dtype=float)
            try:
                values = f((t_i - k) * h if r_i == 0.0 else xs[i] - k * h)
            except DefcalcError as exc:
                exc.index = i
                raise
            sums[i] = _chain_sum(weights[: n_i + 1], values)
    # a float x's value is a Python float, as _finite takes it; for a
    # subnormal h, h^-alpha alone passes the double range
    return _finite(lambda: sums * h ** (-alpha) if np.ndim(x) else float(sums[0]) * h ** (-alpha),
                   x, "gl_jumarie_derivative passes the double range")


def rl_power_rule(gamma_exp: float, alpha: float, x: float) -> float:
    """Fractional power rule Gamma(gamma+1) x^(gamma-alpha) / Gamma(gamma-alpha+1).

    The analytic value the Grunwald-Letnikov sum converges to on f = x^gamma
    (lower terminal 0).  Requires gamma > -1 and x > 0; a pole of the
    denominator gamma propagates as :class:`PoleError`, a value past the
    double range as :class:`DomainError`.
    """
    _reject(gamma_exp <= -1.0, gamma_exp, "rl_power_rule requires gamma > -1")
    _reject(x <= 0.0, x, "rl_power_rule requires x > 0")
    return _finite(lambda: gamma(gamma_exp + 1.0) * x ** (gamma_exp - alpha)
                   / gamma(gamma_exp - alpha + 1.0), x, "rl_power_rule passes the double range")


def yang_lfd(f, x, alpha: float, hp: HausdorffParams, settings: DiffSettings | None = None):
    """Local fractional derivative Gamma(alpha+1) (x/l0 + 1)^(1-alpha) f'(x).

    The increment approximation Delta^alpha ~ Gamma(alpha+1) Delta turns the
    pointwise fractional limit into a Hausdorff derivative with scaling
    exponent alpha, dilated by the constant Gamma(alpha+1).
    """
    kind = YangLFD(alpha, hp.l0)  # checks alpha, before x
    _reject(x <= -hp.l0, x, f"yang_lfd requires x > -l0 = {-hp.l0}")
    return _closed_form(f, x, settings, "yang", kind, x + hp.l0)


def jumarie_taylor_eval(
    f_derivs: Sequence[float], h: float, alpha: float, terms: int
) -> float:
    """Truncated fractional Taylor sum sum_k h^(alpha k) f^(alpha k)(x) / Gamma(alpha k + 1).

    ``f_derivs[k]`` supplies the alpha-fractional derivative of order alpha*k
    at the expansion point, k = 0..terms-1, for finite alpha > 0.  A term past
    Gamma's range adds 0; a sum past the double range raises DomainError.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if len(f_derivs) < terms:
        raise ValueError(f"need {terms} derivative values, got {len(f_derivs)}")
    values = [float(v) for v in f_derivs[:terms]]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("supplied derivative values must be finite")

    def total():
        out = 0.0
        for k in range(terms):
            with contextlib.suppress(DomainError):  # Gamma(alpha k + 1) past the double range
                out += math.pow(h, alpha * k) * values[k] / gamma(alpha * k + 1.0)
        return out

    return _finite(total, h, "jumarie_taylor_eval passes the double range")


# --- The operator table -----------------------------------------------------


@dataclass(frozen=True)
class Form:
    """One form of an operator, ``evaluate(kind, f, x, settings)``.  The
    operator it calls checks its own domain, before it evaluates f.
    ``unread`` names the fields of the kind this form does not read; the CLI
    rejects their flags."""

    evaluate: Callable
    unread: tuple[str, ...] = ()


@dataclass(frozen=True)
class Operator:
    """An entry of :data:`OPERATORS`.  The fields of ``kind`` are the
    operator's parameters; a field's ``flag`` metadata names its CLI flag
    where that differs from the field name.  A local operator D f = p(x) f'(x)
    is d/dm of its measure m: ``prefactor(kind, x)`` is p = 1/m', with no
    domain check, and ``eigenfunction(kind, x)`` is exp(m) up to a constant
    factor, the solution of D y = y; both take a float or an array."""

    kind: type
    closed: Form
    quotient: Optional[Form] = None
    prefactor: Optional[Callable] = None
    eigenfunction: Optional[Callable] = None


# Keyed by the CLI's --op name.  Each form and eigenfunction calls a public
# function by its module attribute, so a wrapper installed there sees it.
OPERATORS: dict[str, Operator] = {
    "classical": Operator(Classical, Form(lambda k, f, x, s: classical_derivative(f, x, s))),
    "q": Operator(
        QParam,
        Form(lambda k, f, x, s: q_derivative(f, x, k, s)),
        Form(lambda k, f, x, s: q_derivative_quotient(f, x, k, s)),
        prefactor=lambda k, x: 1.0 + (1.0 - k.q) * x,
        eigenfunction=lambda k, x: deformed_algebra.q_exp(x, k),
    ),
    # a float x's p is a Python float, as errors._finite takes it to be
    "kappa": Operator(KappaParam, Form(lambda k, f, x, s: kaniadakis_derivative(f, x, k, s)),
                      prefactor=lambda k, x: (np.sqrt if isinstance(x, np.ndarray) else math.sqrt)(
                          1.0 + k.kappa * k.kappa * x * x),
                      eigenfunction=lambda k, x: deformed_algebra.kappa_exp(x, k)),
    "hausdorff": Operator(
        HausdorffParams,
        Form(lambda k, f, x, s: hausdorff_derivative(f, x, k, s)),
        Form(lambda k, f, x, s: hausdorff_quotient(f, x, k.zeta, s), unread=("l0",)),
        prefactor=lambda k, x: (x / k.l0 + 1.0) ** (1.0 - k.zeta),
        eigenfunction=lambda k, x: special_functions.balankin_exp(x, k),
    ),
    "conformable": Operator(Conformable, Form(
        lambda k, f, x, s: conformable_derivative(f, x, k.alpha, s)),
        prefactor=lambda k, t: t ** (1.0 - k.alpha)),
    "gl": Operator(GrunwaldJumarie, Form(
        lambda k, f, x, s: gl_jumarie_derivative(f, x, k.alpha, k.h, k.n_terms))),
    "yang": Operator(YangLFD, Form(
        lambda k, f, x, s: yang_lfd(f, x, k.alpha, HausdorffParams(k.alpha, k.l0), s)),
        prefactor=lambda k, x: gamma(k.alpha + 1.0)
        * OPERATORS["hausdorff"].prefactor(HausdorffParams(k.alpha, k.l0), x)),
}

_BY_KIND = {op.kind: op for op in OPERATORS.values()}


def evaluate_kind(kind: DerivativeKind, f, x, settings: DiffSettings | None = None):
    """Evaluate any tagged operator at a point or over an array of x, in its
    closed form."""
    op = _BY_KIND.get(type(kind))
    if op is None:
        raise TypeError(f"unknown derivative kind: {kind!r}")
    return op.closed.evaluate(kind, f, x, settings)

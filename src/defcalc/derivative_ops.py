"""Derivative operators in closed form and limit-quotient numerical form.

Closed forms multiply f'(x) by the operator's prefactor:

    q-deformed     [1 + (1-q) x] f'(x)
    Kaniadakis     sqrt(1 + k^2 x^2) f'(x)
    Hausdorff      (x/l0 + 1)^(1-zeta) f'(x)
    Yang LFD       Gamma(alpha+1) (x/l0 + 1)^(1-alpha) f'(x)
    conformable    t^(1-alpha) f'(t)            (realized as a limit below)

Limit-quotient forms evaluate the defining difference quotient on a geometric
probe sequence (step halving) and Richardson-extrapolate.  The
Grunwald-Letnikov / Jumarie sum realizes the non-local fractional derivative
as an alternating binomial chain anchored at the origin.

Every operator takes x as a float or as a 1-d array; over an array, each
closed form is one elementwise product prefactor(xs) * f'(xs), and each
limit form evaluates every probe step as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .deformed_algebra import KappaParam, QParam, q_difference
from .errors import DefcalcError, DomainError
from .function_catalog import RealFunction, as_real_function
from .special_functions import HausdorffParams, gamma

__all__ = [
    "DiffSettings",
    "Classical",
    "QDeformed",
    "Kaniadakis",
    "Hausdorff",
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
]


@dataclass(frozen=True)
class DiffSettings:
    """Numerical limit policy: initial step, Richardson depth, agreement tolerance."""

    base_step: float = 1e-2
    richardson_levels: int = 4
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.base_step) and self.base_step > 0.0):
            raise ValueError(f"base_step must be positive and finite, got {self.base_step}")
        if not 1 <= self.richardson_levels <= 6:
            raise ValueError(f"richardson_levels must be in 1..6, got {self.richardson_levels}")
        if not (math.isfinite(self.rel_tolerance) and self.rel_tolerance > 0.0):
            raise ValueError(f"rel_tolerance must be positive and finite, got {self.rel_tolerance}")


_DEFAULT_SETTINGS = DiffSettings()


# --- Operator kinds (tagged choice) ---------------------------------------


@dataclass(frozen=True)
class Classical:
    pass


@dataclass(frozen=True)
class QDeformed:
    q: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValueError(f"QDeformed requires a finite q, got {self.q}")


@dataclass(frozen=True)
class Kaniadakis:
    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"Kaniadakis requires a finite kappa, got {self.kappa}")


@dataclass(frozen=True)
class Hausdorff:
    zeta: float
    l0: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.zeta):
            raise ValueError(f"Hausdorff requires a finite zeta, got {self.zeta}")
        if not (math.isfinite(self.l0) and self.l0 > 0.0):
            raise ValueError(f"Hausdorff requires finite l0 > 0, got {self.l0}")


@dataclass(frozen=True)
class Conformable:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"Conformable requires 0 < alpha <= 1, got {self.alpha}")


@dataclass(frozen=True)
class GrunwaldJumarie:
    alpha: float
    h: float
    n_terms: Optional[int] = None  # optional cap on the chain length

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"GrunwaldJumarie requires 0 < alpha <= 1, got {self.alpha}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"GrunwaldJumarie requires finite h > 0, got {self.h}")
        if self.n_terms is not None and self.n_terms < 1:
            raise ValueError(f"GrunwaldJumarie requires N >= 1, got {self.n_terms}")


@dataclass(frozen=True)
class YangLFD:
    alpha: float
    l0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"YangLFD requires 0 < alpha <= 1, got {self.alpha}")
        if not (math.isfinite(self.l0) and self.l0 > 0.0):
            raise ValueError(f"YangLFD requires finite l0 > 0, got {self.l0}")


DerivativeKind = Union[
    Classical, QDeformed, Kaniadakis, Hausdorff, Conformable, GrunwaldJumarie, YangLFD
]


# --- Richardson extrapolation ---------------------------------------------


def _richardson(values: Sequence, p: int, r: float = 2.0):
    # values[i] computed at step base * r^-i (floats, or arrays over a grid,
    # extrapolated elementwise); error powers p, 2p, 3p, ...
    vals = list(values)
    n = len(vals)
    for j in range(1, n):
        factor = r ** (p * j)
        for k in range(n - 1, j - 1, -1):
            vals[k] = (factor * vals[k] - vals[k - 1]) / (factor - 1.0)
    return vals[-1]


def _steps(settings: DiffSettings) -> list[float]:
    return [settings.base_step * 0.5**j for j in range(settings.richardson_levels + 1)]


def _reject(bad, x, message: str) -> None:
    """Raise DomainError where ``bad`` holds, naming the first such x."""
    if not isinstance(bad, np.ndarray):
        if bad:
            raise DomainError(f"{message}, got {x}")
        return
    if bad.any():
        index = int(bad.argmax())
        exc = DomainError(f"{message}, got {x[index]}")
        exc.index = index
        raise exc


def classical_derivative(f, x, settings: DiffSettings | None = None):
    """f'(x) by central differences with Richardson extrapolation.

    Serves as the numerical fallback wherever a symbolic derivative is not
    available.  Requires f evaluable on [x - base_step, x + base_step].
    """
    s = settings or _DEFAULT_SETTINGS
    f = as_real_function(f)
    quotients = [(f(x + h) - f(x - h)) / (2.0 * h) for h in _steps(s)]
    return _richardson(quotients, p=2)


def _fprime(f: RealFunction, x, settings: DiffSettings):
    if f.derivative is not None:
        return f.derivative_at(x)
    return classical_derivative(f, x, settings)


# --- Closed-form operators -------------------------------------------------


def q_derivative(f, x, q: QParam | float, settings: DiffSettings | None = None):
    """q-deformed derivative [1 + (1-q) x] f'(x); classical derivative at q = 1."""
    f = as_real_function(f)
    qv = q.q if isinstance(q, QParam) else float(q)
    s = settings or _DEFAULT_SETTINGS
    return (1.0 + (1.0 - qv) * x) * _fprime(f, x, s)


def q_derivative_quotient(f, x, q: QParam | float, settings: DiffSettings | None = None):
    """q-deformed derivative as the limit of (f(x) - f(y)) over the deformed
    difference of x and y, probed at y_n = x - base_step 2^-n and
    Richardson-extrapolated.  Raises :class:`DomainError` if a probe hits the
    deformed-difference singularity y = 1/(q-1)."""
    f = as_real_function(f)
    s = settings or _DEFAULT_SETTINGS
    fx = f(x)
    quotients = []
    for h in _steps(s):
        y = x - h
        quotients.append((fx - f(y)) / q_difference(x, y, q))
    return _richardson(quotients, p=1)


def hausdorff_derivative(f, x, hp: HausdorffParams, settings: DiffSettings | None = None):
    """Hausdorff (fractal-metric) derivative (x/l0 + 1)^(1-zeta) f'(x) for x > -l0."""
    f = as_real_function(f)
    _reject(x <= -hp.l0, x, f"hausdorff_derivative requires x > -l0 = {-hp.l0}")
    s = settings or _DEFAULT_SETTINGS
    return (x / hp.l0 + 1.0) ** (1.0 - hp.zeta) * _fprime(f, x, s)


def hausdorff_quotient(f, x, zeta: float, settings: DiffSettings | None = None):
    """Derivative with respect to the fractal measure coordinate x^zeta:
    limit of (f(x') - f(x)) / (x'^zeta - x^zeta) with x' -> x from above.

    By the chain rule this equals x^(1-zeta) f'(x) / zeta; it needs x > 0.
    """
    f = as_real_function(f)
    _reject(x <= 0.0, x, "hausdorff_quotient requires x > 0")
    s = settings or _DEFAULT_SETTINGS
    fx = f(x)
    xz = x**zeta
    quotients = []
    for h in _steps(s):
        xp = x + h
        quotients.append((f(xp) - fx) / (xp**zeta - xz))
    return _richardson(quotients, p=1)


def kaniadakis_derivative(f, x, kappa: KappaParam | float, settings: DiffSettings | None = None):
    """Kaniadakis derivative sqrt(1 + kappa^2 x^2) f'(x); classical at kappa = 0."""
    f = as_real_function(f)
    k = kappa.kappa if isinstance(kappa, KappaParam) else float(kappa)
    s = settings or _DEFAULT_SETTINGS
    return np.sqrt(1.0 + k * k * x * x) * _fprime(f, x, s)


def conformable_derivative(f, t, alpha: float, settings: DiffSettings | None = None):
    """Conformable derivative lim (f(t + eps t^(1-alpha)) - f(t)) / eps for t > 0.

    Evaluated on a halving eps sequence with Richardson extrapolation; equals
    t^(1-alpha) f'(t) for classically differentiable f.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"conformable_derivative requires 0 < alpha <= 1, got {alpha}")
    _reject(t <= 0.0, t, "conformable_derivative requires t > 0")
    f = as_real_function(f)
    s = settings or _DEFAULT_SETTINGS
    ft = f(t)
    scale = t ** (1.0 - alpha)
    quotients = [(f(t + eps * scale) - ft) / eps for eps in _steps(s)]
    return _richardson(quotients, p=1)


# --- Grunwald-Letnikov / Jumarie chain ------------------------------------


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Weights (-1)^k C(alpha, k) for k = 0..n, by the stable ratio recurrence."""
    k = np.arange(1, n + 1, dtype=float)
    return np.cumprod(np.concatenate(([1.0], (k - 1.0 - alpha) / k)))


# x on the h-lattice up to this relative round-off counts as a lattice point:
# x = m h computed along any float path is off by a few m ulp at most.
_LATTICE_RTOL = 1e-9


def _chain_length(x: float, h: float) -> int:
    r = x / h
    n = round(r)
    return n if abs(r - n) <= _LATTICE_RTOL * max(1.0, r) else math.floor(r)


def gl_jumarie_derivative(f, x, alpha: float, h: float, n_terms: Optional[int] = None):
    """Grunwald-Letnikov sum h^-alpha sum_k (-1)^k C(alpha,k) f(x - kh).

    The chain is anchored at the origin: N = floor(x/h), or round(x/h) when
    x is a multiple of h up to round-off, and the last node is clamped to 0,
    so the lower terminal of the underlying fractional derivative is 0.
    ``n_terms`` optionally caps the chain length.  Requires 0 < alpha <= 1,
    h > 0, x >= 0.  Over an array of x the weights are built once, for the
    longest chain, and each chain evaluates f on its nodes as one array.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"gl_jumarie_derivative requires 0 < alpha <= 1, got {alpha}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"gl_jumarie_derivative requires finite h > 0, got {h}")
    _reject(x < 0.0, x, "gl_jumarie_derivative requires x >= 0")
    f = as_real_function(f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lengths = [_chain_length(t, h) for t in xs.tolist()]
    if n_terms is not None:
        lengths = [min(n, int(n_terms)) for n in lengths]
    weights = gl_weights(alpha, max(lengths))
    offsets = h * np.arange(weights.size, dtype=float)
    scale = h ** (-alpha)
    sums = np.empty(xs.size)
    for i, n in enumerate(lengths):
        nodes = np.maximum(xs[i] - offsets[: n + 1], 0.0)
        try:
            values = f(nodes)
        except DefcalcError as exc:
            exc.index = i
            raise
        sums[i] = scale * np.dot(weights[: n + 1], values)
    return sums if np.ndim(x) else float(sums[0])


def rl_power_rule(gamma_exp: float, alpha: float, x: float) -> float:
    """Fractional power rule Gamma(gamma+1) x^(gamma-alpha) / Gamma(gamma-alpha+1).

    The analytic value the Grunwald-Letnikov sum converges to on f = x^gamma
    (lower terminal 0).  Requires gamma > -1 and x > 0; a pole of the
    denominator gamma propagates as :class:`PoleError`.
    """
    if gamma_exp <= -1.0:
        raise DomainError(f"rl_power_rule requires gamma > -1, got {gamma_exp}")
    if x <= 0.0:
        raise DomainError(f"rl_power_rule requires x > 0, got {x}")
    return gamma(gamma_exp + 1.0) * x ** (gamma_exp - alpha) / gamma(gamma_exp - alpha + 1.0)


def yang_lfd(f, x, alpha: float, hp: HausdorffParams, settings: DiffSettings | None = None):
    """Local fractional derivative Gamma(alpha+1) (x/l0 + 1)^(1-alpha) f'(x).

    The increment approximation Delta^alpha ~ Gamma(alpha+1) Delta turns the
    pointwise fractional limit into a Hausdorff derivative with scaling
    exponent alpha, dilated by the constant Gamma(alpha+1).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"yang_lfd requires 0 < alpha <= 1, got {alpha}")
    f = as_real_function(f)
    _reject(x <= -hp.l0, x, f"yang_lfd requires x > -l0 = {-hp.l0}")
    s = settings or _DEFAULT_SETTINGS
    return gamma(alpha + 1.0) * (x / hp.l0 + 1.0) ** (1.0 - alpha) * _fprime(f, x, s)


def jumarie_taylor_eval(
    f_derivs: Sequence[float], h: float, alpha: float, terms: int
) -> float:
    """Truncated fractional Taylor sum sum_k h^(alpha k) f^(alpha k)(x) / Gamma(alpha k + 1).

    ``f_derivs[k]`` supplies the alpha-fractional derivative of order alpha*k
    at the expansion point, k = 0..terms-1.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if len(f_derivs) < terms:
        raise ValueError(f"need {terms} derivative values, got {len(f_derivs)}")
    values = [float(v) for v in f_derivs[:terms]]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("supplied derivative values must be finite")
    total = 0.0
    for k in range(terms):
        total += math.pow(h, alpha * k) * values[k] / gamma(alpha * k + 1.0)
    return total


# --- Dispatch by operator kind ---------------------------------------------


def evaluate_kind(kind: DerivativeKind, f, x, settings: DiffSettings | None = None):
    """Evaluate any tagged operator at a point or over an array of x (closed
    form where one exists)."""
    if isinstance(kind, Classical):
        return classical_derivative(f, x, settings)
    if isinstance(kind, QDeformed):
        return q_derivative(f, x, kind.q, settings)
    if isinstance(kind, Kaniadakis):
        return kaniadakis_derivative(f, x, kind.kappa, settings)
    if isinstance(kind, Hausdorff):
        return hausdorff_derivative(f, x, HausdorffParams(kind.zeta, kind.l0), settings)
    if isinstance(kind, Conformable):
        return conformable_derivative(f, x, kind.alpha, settings)
    if isinstance(kind, GrunwaldJumarie):
        return gl_jumarie_derivative(f, x, kind.alpha, kind.h, kind.n_terms)
    if isinstance(kind, YangLFD):
        return yang_lfd(f, x, kind.alpha, HausdorffParams(kind.alpha, kind.l0), settings)
    raise TypeError(f"unknown derivative kind: {kind!r}")

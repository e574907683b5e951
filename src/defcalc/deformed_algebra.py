"""q- and kappa-deformed arithmetic and exponential/logarithm pairs.

The deformed difference x (-)_q y = (x - y) / (1 + (1 - q) y) generates the
q-derivative; the q-exponential e_q(x) = [1 + (1 - q) x]^(1/(1-q)) is its
eigenfunction and solves dy/dx = y^q.  The kappa-exponential
(kx + sqrt(1 + k^2 x^2))^(1/k) plays the same role for the kappa-derivative.

All deformation parameters switch to their classical branch (q -> 1,
kappa -> 0) when the deformation is within ``CLASSICAL_EPS`` of the classical
value, to avoid catastrophic cancellation in exponents like 1/(1 - q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _reject

# Deformations closer to classical than this take the exact classical branch.
CLASSICAL_EPS = 1e-12

__all__ = [
    "CLASSICAL_EPS",
    "QParam",
    "KappaParam",
    "q_difference",
    "q_sum",
    "q_exp",
    "q_log",
    "kappa_exp",
    "kappa_log",
]


@dataclass(frozen=True)
class QParam:
    """Entropic index q (dimensionless, finite)."""

    q: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")

    @property
    def is_classical(self) -> bool:
        return abs(1.0 - self.q) < CLASSICAL_EPS


@dataclass(frozen=True)
class KappaParam:
    """Kaniadakis deformation parameter kappa (dimensionless, finite)."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")

    @property
    def is_classical(self) -> bool:
        return abs(self.kappa) < CLASSICAL_EPS


def _as_q(q: QParam | float) -> QParam:
    return q if isinstance(q, QParam) else QParam(float(q))


def _as_kappa(kappa: KappaParam | float) -> KappaParam:
    return kappa if isinstance(kappa, KappaParam) else KappaParam(float(kappa))


def q_difference(x, y, q: QParam | float):
    """Deformed difference (x - y) / (1 + (1 - q) y), for floats or arrays.

    Reduces to x - y at q = 1.  Raises :class:`DomainError` on the singular
    line y = 1/(q - 1) (within 1e-12 absolute); for an array of y, its
    ``index`` is the first position on that line.
    """
    qp = _as_q(q)
    if qp.is_classical:
        return x - y
    singular = 1.0 / (qp.q - 1.0)
    near = abs(y - singular) < 1e-12
    if near.any() if isinstance(near, np.ndarray) else near:
        raise DomainError(f"q_difference singular at y = 1/(q-1) = {singular}",
                          index=int(near.argmax()) if isinstance(near, np.ndarray) else None)
    return (x - y) / (1.0 + (1.0 - qp.q) * y)


def q_sum(x: float | np.ndarray, y: float | np.ndarray, q: QParam | float) -> float | np.ndarray:
    """Deformed sum x + y + (1 - q) x y, for floats or arrays; the inverse of
    :func:`q_difference`."""
    qp = _as_q(q)
    if qp.is_classical:
        return x + y
    return x + y + (1.0 - qp.q) * x * y


def q_exp(x: float | np.ndarray, q: QParam | float) -> float | np.ndarray:
    """q-exponential [1 + (1 - q) x]^(1/(1-q)), for a float or an array.

    Outside the natural support (1 + (1 - q) x <= 0) the standard
    nonextensive cutoff convention applies and 0 is returned.  At q = 1 this
    is the ordinary exponential.  Over an array, the base is formed by numpy
    and each power or exponential is taken from Python floats, so every
    element has the bits of the call on that element alone (numpy's vector
    ``power`` and ``exp`` can differ from the C library's in the last bit).
    """
    qp = _as_q(q)
    array = isinstance(x, np.ndarray)
    base = x if qp.is_classical else 1.0 + (1.0 - qp.q) * x
    bases = base.ravel().tolist() if array else [base]
    if qp.is_classical:
        values = [math.exp(b) for b in bases]
    else:
        power = 1.0 / (1.0 - qp.q)
        values = [0.0 if b <= 0.0 else b**power for b in bases]
    return np.array(values).reshape(x.shape) if array else values[0]


def q_log(x: float | np.ndarray, q: QParam | float) -> float | np.ndarray:
    """q-logarithm (x^(1-q) - 1) / (1 - q), inverse of :func:`q_exp` for x > 0,
    for a float or an array.

    Raises :class:`DomainError` at x <= 0; over an array, its ``index`` is
    the first such position.  As in :func:`q_exp`, each power or logarithm
    is taken from Python floats, so every element has the bits of the call
    on that element alone.
    """
    qp = _as_q(q)
    array = isinstance(x, np.ndarray)
    _reject(x <= 0.0, x, "q_log requires x > 0")
    xs = x.ravel().tolist() if array else [x]
    if qp.is_classical:
        values = [math.log(v) for v in xs]
    else:
        one_minus_q = 1.0 - qp.q
        values = [(v**one_minus_q - 1.0) / one_minus_q for v in xs]
    return np.array(values).reshape(x.shape) if array else values[0]


def kappa_exp(x: float | np.ndarray, kappa: KappaParam | float) -> float | np.ndarray:
    """kappa-exponential (kx + sqrt(1 + k^2 x^2))^(1/k); exp(x) at kappa = 0,
    for a float or an array.

    The closed form is even in kappa.  Over an array, each element is
    computed from Python floats, so it has the bits of the call on that
    element alone.
    """
    kp = _as_kappa(kappa)
    array = isinstance(x, np.ndarray)
    xs = x.ravel().tolist() if array else [x]
    if kp.is_classical:
        values = [math.exp(v) for v in xs]
    else:
        k = kp.kappa
        values = [(k * v + math.sqrt(1.0 + k * k * v * v)) ** (1.0 / k) for v in xs]
    return np.array(values).reshape(x.shape) if array else values[0]


def kappa_log(x: float, kappa: KappaParam | float) -> float:
    """kappa-logarithm (x^k - x^(-k)) / (2k), inverse of :func:`kappa_exp` for x > 0."""
    kp = _as_kappa(kappa)
    _reject(x <= 0.0, x, "kappa_log requires x > 0")
    if kp.is_classical:
        return math.log(x)
    k = kp.kappa
    return (x**k - x ** (-k)) / (2.0 * k)

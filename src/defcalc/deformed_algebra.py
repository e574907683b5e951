"""q- and kappa-deformed arithmetic and exponential/logarithm pairs.

The deformed difference x (-)_q y = (x - y) / (1 + (1 - q) y) generates the
q-derivative; the q-exponential e_q(x) = [1 + (1 - q) x]^(1/(1-q)) is its
eigenfunction and solves dy/dx = y^q.  The kappa-exponential
(kx + sqrt(1 + k^2 x^2))^(1/k) plays the same role for the kappa-derivative.

Each exponential is exp(m(x)) of its measure, log1p((1 - q) x)/(1 - q) or
asinh(kappa x)/kappa, and each logarithm the inverse measure of ln y: forms
that do not cancel as q -> 1 or kappa -> 0.  Over an array, every element has
the bits of its own float call (see :func:`errors._elementwise`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import asinh, exp, expm1, log, log1p, sinh

import numpy as np

from .errors import DomainError, _elementwise, _finite, _reject

__all__ = [
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


@dataclass(frozen=True)
class KappaParam:
    """Kaniadakis deformation parameter kappa (dimensionless, finite)."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")


def _as_q(q: QParam | float) -> QParam:
    return q if isinstance(q, QParam) else QParam(float(q))


def _as_kappa(kappa: KappaParam | float) -> KappaParam:
    return kappa if isinstance(kappa, KappaParam) else KappaParam(float(kappa))


def q_difference(x, y, q: QParam | float):
    """Deformed difference (x - y) / (1 + (1 - q) y), for floats or arrays.

    Reduces to x - y at q = 1.  Raises :class:`DomainError` on the singular
    line y = 1/(q - 1) (within 1e-12 absolute), and where the value is not
    finite (naming it); over arrays, its ``index`` is the first such position.
    """
    qp = _as_q(q)
    if qp.q != 1.0:
        singular = 1.0 / (qp.q - 1.0)
        near = abs(y - singular) < 1e-12
        if near.any() if isinstance(near, np.ndarray) else near:
            raise DomainError(f"q_difference singular at y = 1/(q-1) = {singular}",
                              index=int(near.argmax()) if isinstance(near, np.ndarray) else None)
    return _finite(lambda: (x - y) / (1.0 + (1.0 - qp.q) * y), None,
                   "q_difference passes the double range")


def q_sum(x: float | np.ndarray, y: float | np.ndarray, q: QParam | float) -> float | np.ndarray:
    """Deformed sum x + y + (1 - q) x y, for floats or arrays; the inverse of
    :func:`q_difference`, and like it finite or a :class:`DomainError`."""
    return _finite(lambda: x + y + (1.0 - _as_q(q).q) * x * y, None,
                   "q_sum passes the double range")


@_elementwise
def q_exp(x: float | np.ndarray, q: QParam | float):
    """q-exponential [1 + (1 - q) x]^(1/(1-q)) = exp(log1p((1 - q) x)/(1 - q)),
    for a float or an array; exp(x) at q = 1, and 0 outside the natural
    support 1 + (1 - q) x > 0 (the nonextensive cutoff convention)."""
    one_minus_q = 1.0 - _as_q(q).q
    if one_minus_q == 0.0:
        return [exp(v) for v in np.ravel(x).tolist()]
    return [0.0 if t <= -1.0 else exp(log1p(t) / one_minus_q)
            for t in np.ravel(one_minus_q * x).tolist()]


@_elementwise
def q_log(x: float | np.ndarray, q: QParam | float):
    """q-logarithm (x^(1-q) - 1) / (1 - q) = expm1((1 - q) ln x)/(1 - q),
    inverse of :func:`q_exp`, for a float or an array of x > 0 (else
    :class:`DomainError`, with the ``index`` of the first x <= 0)."""
    one_minus_q = 1.0 - _as_q(q).q
    _reject(x <= 0.0, x, "q_log requires x > 0")
    if one_minus_q == 0.0:
        return [log(v) for v in np.ravel(x).tolist()]
    return [expm1(one_minus_q * log(v)) / one_minus_q for v in np.ravel(x).tolist()]


@_elementwise
def kappa_exp(x: float | np.ndarray, kappa: KappaParam | float):
    """kappa-exponential (kx + sqrt(1 + k^2 x^2))^(1/k) = exp(asinh(kx)/k),
    for a float or an array; exp(x) at kappa = 0.  Even in kappa."""
    k = _as_kappa(kappa).kappa
    # below |k| = 1.6e-162, k^2 x^2 is under every ulp and kx may be subnormal
    if k * k == 0.0:
        return [exp(v) for v in np.ravel(x).tolist()]
    return [exp(asinh(k * v) / k) for v in np.ravel(x).tolist()]


@_elementwise
def kappa_log(x: float | np.ndarray, kappa: KappaParam | float):
    """kappa-logarithm (x^k - x^(-k)) / (2k) = sinh(k ln x)/k, inverse of
    :func:`kappa_exp`, for a float or an array of x > 0 (else
    :class:`DomainError`, with the ``index`` of the first x <= 0)."""
    k = _as_kappa(kappa).kappa
    _reject(x <= 0.0, x, "kappa_log requires x > 0")
    if k * k == 0.0:  # as in kappa_exp
        return [log(v) for v in np.ravel(x).tolist()]
    return [sinh(k * log(v)) / k for v in np.ravel(x).tolist()]

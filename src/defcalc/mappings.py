"""Parameter bridge between the q-deformed and fractal-metric pictures.

The Hausdorff prefactor (1 + x/l0)^(1-zeta) expands binomially as
1 + (1-zeta)/l0 x + (1-zeta)(-zeta)/(2 l0^2) x^2 + ...; matching the linear
term against the q-prefactor 1 + (1-q) x identifies

    1 - q = (1 - zeta) / l0,

so the q-derivative is the first-order truncation of the Hausdorff
derivative.  This module computes the expansion, the mapping and its limits,
the even-powers expansion of the Kaniadakis prefactor, and the
conformable/Yang identifications with the Hausdorff form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .deformed_algebra import QParam, _as_kappa, _as_q
from .derivative_ops import (
    OPERATORS,
    DiffSettings,
    _closed_form,
    conformable_derivative,
    hausdorff_derivative,
    yang_lfd,
)
from .errors import DegenerateInput, DomainError, _reject
from .function_catalog import RealFunction, as_real_function
from .special_functions import _MAX_ORDER, HausdorffParams, _binomials

__all__ = [
    "SeriesExpansion",
    "MappingResult",
    "FirstOrderAgreement",
    "ConformableHausdorff",
    "expand_hausdorff_prefactor",
    "q_from_zeta",
    "zeta_from_q",
    "first_order_agreement",
    "kappa_expansion",
    "conformable_hausdorff_check",
    "yang_hausdorff_check",
]


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated power series about 0: coefficients c_0..c_N."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")

    def evaluate(self, x: float) -> float:
        """Horner evaluation of the partial sum at x."""
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total


@dataclass(frozen=True)
class MappingResult:
    """A finite (q, zeta, l0) triple on the bridge 1 - q = (1 - zeta)/l0.

    ``first_order_residual_bound`` is |c_2| = |(1 - zeta) zeta| / (2 l0^2),
    the magnitude of the second-order expansion coefficient: a coefficient of
    the bound :func:`first_order_agreement` states, not a bound itself."""

    q: float
    zeta: float
    l0: float
    first_order_residual_bound: float

    def __post_init__(self):
        for name in ("q", "zeta", "l0", "first_order_residual_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.l0 > 0.0:
            raise ValueError(f"l0 must be positive, got {self.l0}")
        if abs((1.0 - self.q) - (1.0 - self.zeta) / self.l0) > 1e-14 * max(
            1.0, abs(1.0 - self.q)
        ):
            raise ValueError("(q, zeta, l0) do not satisfy 1 - q = (1 - zeta)/l0")


def _second_order_bound(zeta: float, l0: float) -> float:
    c, den = abs((1.0 - zeta) * zeta), 2.0 * l0 * l0
    # a subnormal 2 l0^2 loses digits or is 0: divide by l0 twice (inf past the range)
    return c / den if den >= sys.float_info.min else c / (2.0 * l0) / l0


def _scaled(c: float, base: float, power: int) -> float:
    """c * base**power, with 0.0 for an exact zero of either sign; a signed
    inf (0.0 if c is 0) where Python's ** overflows."""
    try:
        return c * base**power + 0.0
    except OverflowError:
        return c * math.inf if c else 0.0


def _check_order(order: int, least: int) -> None:
    if order < least:
        raise ValueError(f"order must be >= {least}, got {order}")
    if order > _MAX_ORDER:
        raise ValueError(f"order must be <= {_MAX_ORDER}, got {order}")


def expand_hausdorff_prefactor(hp: HausdorffParams, order: int) -> SeriesExpansion:
    """Binomial expansion of (1 + x/l0)^(1-zeta): c_k = C(1-zeta, k) l0^-k.

    Partial sums converge to the closed-form prefactor for |x/l0| < 1.
    """
    _check_order(order, 1)
    coeffs = tuple(_scaled(c, hp.l0, -k)
                   for k, c in zip(range(order + 1), _binomials(1.0 - hp.zeta)))
    return SeriesExpansion(coeffs)


def q_from_zeta(hp: HausdorffParams) -> MappingResult:
    """Entropic index induced by the fractal metric: q = 1 - (1 - zeta)/l0."""
    q = 1.0 - (1.0 - hp.zeta) / hp.l0
    return MappingResult(q, hp.zeta, hp.l0, _second_order_bound(hp.zeta, hp.l0))


def zeta_from_q(q: QParam | float, l0: float) -> MappingResult:
    """Scaling exponent induced by the entropic index: zeta = 1 - l0 (1 - q)."""
    qv = _as_q(q).q
    hp = HausdorffParams(1.0 - l0 * (1.0 - qv), l0)
    return MappingResult(qv, hp.zeta, l0, _second_order_bound(hp.zeta, l0))


class FirstOrderAgreement(NamedTuple):
    hausdorff_prefactor: float
    q_prefactor: float
    residual: float
    bound: float


def first_order_agreement(hp: HausdorffParams, x: float) -> FirstOrderAgreement:
    """Compare the Hausdorff prefactor with its first-order q-form at x.

    With q from the bridge and u = x/l0, the residual
    |(1 + u)^(1-zeta) - (1 + (1-zeta) u)| is second order: by Lagrange's form
    of the Taylor remainder it is at most

        |C(1-zeta, 2)| u^2 max(1, (1 + u)^(-1-zeta))

    inside the series regime |u| < 1.  For zeta > -1 the last factor is 1 at
    x >= 0 and grows without bound as u -> -1, where |c_2| x^2 is no bound.
    That bound is the ``bound`` field (inf where the last factor passes the
    double range); a prefactor past the double range raises DomainError.
    """
    u = x / hp.l0
    if not abs(u) < 1.0:
        raise DomainError(f"series regime requires |x/l0| < 1, got x/l0 = {u}")
    try:
        p_h = OPERATORS["hausdorff"].prefactor(hp, x)
    except OverflowError:
        raise DomainError(f"Hausdorff prefactor (1 + x/l0)^(1 - zeta) passes the double "
                          f"range at x/l0 = {u}, zeta = {hp.zeta}") from None
    # (1 - q) x = (1 - zeta) u on the bridge; 1 - q formed from a rounded q
    # would carry its rounding error times x, up to 50 ulp of 1 at l0 = 100
    p_q = 1.0 + (1.0 - hp.zeta) * u
    try:
        growth = max(1.0, (1.0 + u) ** (-1.0 - hp.zeta))
    except OverflowError:
        growth = math.inf
    # |C(1 - zeta, 2)| u^2 from the finite (1 - zeta) u and zeta u, never inf * 0
    bound = abs((1.0 - hp.zeta) * u) * abs(hp.zeta * u) / 2.0 * growth
    return FirstOrderAgreement(p_h, p_q, abs(p_h - p_q), bound)


def kappa_expansion(kappa, order: int) -> SeriesExpansion:
    """Even-powers expansion of the Kaniadakis prefactor sqrt(1 + k^2 x^2):
    c_{2m} = C(1/2, m) k^(2m), every odd coefficient exactly zero."""
    _check_order(order, 2)
    k = _as_kappa(kappa).kappa
    coeffs = [0.0] * (order + 1)
    for m, c in zip(range(order // 2 + 1), _binomials(0.5)):
        coeffs[2 * m] = _scaled(c, k, 2 * m)
    return SeriesExpansion(tuple(coeffs))


class ConformableHausdorff(NamedTuple):
    lhs: float
    rhs: float
    rel_diff: float


def conformable_hausdorff_check(
    alpha: float,
    l0: float,
    f,
    x: float,
    settings: DiffSettings | None = None,
) -> ConformableHausdorff:
    """Conformable derivative under t = 1 + x/l0 versus the Hausdorff form.

    lhs applies the conformable derivative to g(t) = f(l0 (t - 1)) at
    t = 1 + x/l0; rhs is the chain-rule closed form l0 (1 + x/l0)^(1-alpha)
    f'(x), i.e. l0 times the Hausdorff derivative with zeta = alpha.  Both are
    closed forms over the same f', so rel_diff is rounding unless one operator
    is wrong; ``settings`` sets f' where f has no symbolic derivative.  No
    tolerance is checked here.
    """
    hp = HausdorffParams(zeta=alpha, l0=l0)
    t = 1.0 + x / l0
    _reject(t <= 0.0, t, "requires 1 + x/l0 > 0")
    f = as_real_function(f)
    g = RealFunction(
        value=lambda u: f.value(l0 * (u - 1.0)),
        derivative=(
            (lambda u: l0 * f.derivative(l0 * (u - 1.0))) if f.derivative is not None else None
        ),
        label=f"{f.label} in t = 1 + x/l0",
    )
    lhs = conformable_derivative(g, t, alpha, settings)
    rhs = l0 * hausdorff_derivative(f, x, hp, settings)
    rel_diff = abs(lhs - rhs) / abs(rhs) if rhs != 0.0 else abs(lhs)
    return ConformableHausdorff(lhs, rhs, rel_diff)


def yang_hausdorff_check(
    alpha: float,
    hp: HausdorffParams,
    f,
    x: float,
    settings: DiffSettings | None = None,
) -> float:
    """Ratio of the Yang local fractional derivative to the Hausdorff
    derivative with zeta = alpha; equals Gamma(alpha + 1) identically."""
    f = as_real_function(f)
    # the Hausdorff closed form at zeta = 1 is f'(x), probed inside x > -l0
    fp = _closed_form(f, x, settings, "hausdorff", HausdorffParams(1.0, hp.l0), x + hp.l0)
    if abs(fp) < 1e-14:
        raise DegenerateInput(f"f'(x) = {fp} at x = {x}; ratio undefined")
    matched = HausdorffParams(zeta=alpha, l0=hp.l0)
    return yang_lfd(f, x, alpha, matched, settings) / hausdorff_derivative(f, x, matched, settings)

"""Numerical verification that each deformed eigen-equation has its claimed solution.

A local operator of :data:`derivative_ops.OPERATORS`, D f = p(x) f'(x), is
d/dm of its measure m, with eigenfunction exp(m).  One solve serves the q and
Hausdorff problems: it integrates p(x) y' = y with an embedded adaptive
Runge-Kutta pair, evaluates exp(m) on the same grid, and reports residual
statistics.  The fractional case has no ODE form; there the
Grunwald-Letnikov chain applied to the sampled Mittag-Leffler eigenfunction
(with the value at 0 subtracted, realizing the Caputo convention) plays the
role of the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .deformed_algebra import QParam, _as_q
from .derivative_ops import OPERATORS, GrunwaldJumarie, gl_jumarie_derivative
from .errors import DomainError, StepFailure, _reject
from .function_catalog import RealFunction
from .special_functions import _ML_DOMAIN, HausdorffParams, mittag_leffler

__all__ = [
    "EigenReport",
    "OdeSolution",
    "integrate_ode",
    "solve_q_eigen",
    "solve_hausdorff_eigen",
    "verify_fractional_eigen",
]

_ODE_TOL = 1e-10  # the default local error tolerance of an RKF45 solve


@dataclass(frozen=True)
class EigenReport:
    """Residual statistics of operator-vs-eigenfunction agreement over a grid.

    ``table`` holds one row (x, y_numeric, y_closed_form, relative residual)
    per grid point, as an (n, 4) float array."""

    max_rel_residual: float
    rms_rel_residual: float
    table: np.ndarray = field(repr=False, compare=False)


def _make_report(xs: np.ndarray, numeric: np.ndarray, closed: np.ndarray) -> EigenReport:
    res = np.abs(numeric - closed) / np.abs(closed)
    return EigenReport(
        max_rel_residual=float(np.max(res)),
        rms_rel_residual=float(math.sqrt(np.mean(res**2))),
        table=np.column_stack((xs, numeric, closed, res)),
    )


# --- Adaptive embedded Runge-Kutta (Fehlberg 4(5), 5th order propagated) ----

_MIN_STEP_FRACTION = 1e-14
_MAX_STEPS = 10_000  # accepted plus rejected, per controller run


@dataclass(frozen=True)
class OdeSolution:
    """Integration nodes in ascending order: the accepted steps, and when a
    grid was requested, the grid nodes landed on from them, whose values are
    also in ``at_grid`` (one per grid node).  ``n_accepted`` and
    ``n_rejected`` count the tolerance-driven steps, which the grid does not
    change, plus those of any re-landing; a landing step is not counted."""

    xs: np.ndarray
    ys: np.ndarray
    at_grid: np.ndarray | None
    n_accepted: int
    n_rejected: int


def _rkf45_step(rhs, x: float, y: float, h: float) -> tuple[float, float]:
    """One Fehlberg step: returns (5th-order solution increment, error estimate)."""
    k1 = h * rhs(x, y)
    k2 = h * rhs(x + h / 4.0, y + k1 / 4.0)
    k3 = h * rhs(x + 3.0 * h / 8.0, y + 3.0 / 32.0 * k1 + 9.0 / 32.0 * k2)
    k4 = h * rhs(
        x + 12.0 * h / 13.0,
        y + 1932.0 / 2197.0 * k1 - 7200.0 / 2197.0 * k2 + 7296.0 / 2197.0 * k3,
    )
    k5 = h * rhs(
        x + h,
        y + 439.0 / 216.0 * k1 - 8.0 * k2 + 3680.0 / 513.0 * k3 - 845.0 / 4104.0 * k4,
    )
    k6 = h * rhs(
        x + h / 2.0,
        y
        - 8.0 / 27.0 * k1
        + 2.0 * k2
        - 3544.0 / 2565.0 * k3
        + 1859.0 / 4104.0 * k4
        - 11.0 / 40.0 * k5,
    )
    step4 = 25.0 / 216.0 * k1 + 1408.0 / 2565.0 * k3 + 2197.0 / 4104.0 * k4 - k5 / 5.0
    step5 = (
        16.0 / 135.0 * k1
        + 6656.0 / 12825.0 * k3
        + 28561.0 / 56430.0 * k4
        - 9.0 / 50.0 * k5
        + 2.0 / 55.0 * k6
    )
    return step5, abs(step5 - step4)


def _steps(rhs, x: float, y: float, x_end: float, h: float, tol: float):
    """The adaptive controller from (x, y) to x_end, with only the last step
    clipped (to land on x_end exactly): accepted (xs, ys) and the step counts."""
    xs, ys = [x], [y]
    n_accepted = n_rejected = 0
    while x < x_end:
        if n_accepted + n_rejected == _MAX_STEPS:
            raise StepFailure(f"step budget of {_MAX_STEPS} steps spent at x = {x} "
                              f"short of x_end = {x_end}")
        h_step = min(h, x_end - x)
        if h_step < _MIN_STEP_FRACTION * max(abs(x), 1.0):
            raise StepFailure(f"step size underflow at x = {x}")
        try:
            dy, err = _rkf45_step(rhs, x, y, h_step)
        except OverflowError:  # a stage past the double range: the step is rejected
            dy, err = 0.0, math.inf
        factor = min(5.0, max(0.2, 5.0 if err == 0.0 else 0.9 * (tol / err) ** 0.2))
        if err <= tol:
            y += dy
            # min() returned one of its arguments, so landing is exact
            x = x_end if h_step == x_end - x else x + h_step
            xs.append(x)
            ys.append(y)
            n_accepted += 1
            if h_step == h:  # a clipped step says nothing about the next one
                h = h_step * factor
        else:
            n_rejected += 1
            h = h_step * factor
    return xs, ys, n_accepted, n_rejected


def _landing_steps(rhs, x: np.ndarray, y: np.ndarray, h: np.ndarray):
    """One RKF45 step from each x[i] by h[i]: one call over the arrays, or one
    float step per node, in order, for an rhs that takes only floats."""
    try:
        return _rkf45_step(rhs, x, y, h)
    except (TypeError, ValueError):  # float(array), or the truth value of one
        steps = [_rkf45_step(rhs, *node) for node in zip(x.tolist(), y.tolist(), h.tolist())]
        return np.array(steps).T


def integrate_ode(
    rhs: Callable[[float, float], float],
    domain: tuple[float, float],
    y0: float,
    tol: float = _ODE_TOL,
    grid: Sequence[float] | None = None,
) -> OdeSolution:
    """Integrate y' = rhs(x, y) with local error estimate per step <= tol.

    The steps follow the tolerance alone; only the last is clipped, to end on
    x_end.  Each grid node g is then landed on exactly by one RKF45 step from
    the last accepted node at or before it (a node on an accepted node takes
    its value), all in one call of rhs over arrays.  A landing step is shorter
    than the accepted step from the same node, so its error estimate is
    normally within tol; a node where it is not is re-landed by the
    controller, clipped at g.  Raises :class:`StepFailure` if the controller
    underflows the step size, or takes more than ``_MAX_STEPS`` steps
    (accepted plus rejected) in one run.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError(f"tol must be in [1e-12, 1e-4], got {tol}")
    x_start, x_end = domain
    if not 0.0 < x_end - x_start < math.inf:
        raise ValueError(f"domain must be finite with x_start < x_end, got {domain}")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if not np.all(grid[1:] >= grid[:-1]):  # a NaN is out of order too
            raise ValueError("grid must be non-decreasing")
        if grid.size and not (x_start <= grid[0] and grid[-1] <= x_end):
            raise ValueError("grid must lie within the integration domain")

    xs, ys, n_accepted, n_rejected = _steps(
        rhs, x_start, float(y0), x_end, (x_end - x_start) / 100.0, tol
    )
    xs, ys = np.asarray(xs), np.asarray(ys)
    _reject(~np.isfinite(ys), xs, "integrate_ode's solution is not finite")
    if grid is None:
        return OdeSolution(xs=xs, ys=ys, at_grid=None, n_accepted=n_accepted, n_rejected=n_rejected)

    base = np.searchsorted(xs, grid, side="right") - 1  # last accepted node at or before g
    at_grid = ys[base]
    off = np.flatnonzero(grid != xs[base])
    if off.size:
        x0, y0s, g = xs[base[off]], at_grid[off], grid[off]
        h = g - x0
        with np.errstate(all="ignore"):  # a stage past the double range is re-landed below
            dy, err = _landing_steps(rhs, x0, y0s, h)
        landed = y0s + dy
        for j in np.flatnonzero(~(err <= tol)).tolist():  # a NaN estimate too
            _, y_j, n_acc, n_rej = _steps(rhs, x0[j].item(), y0s[j].item(), g[j].item(),
                                          h[j].item(), tol)
            landed[j] = y_j[-1]
            n_accepted += n_acc
            n_rejected += n_rej
        at_grid[off] = landed
        once = np.append(g[1:] != g[:-1], True)  # a repeated grid node is merged once
        xs = np.insert(xs, base[off[once]] + 1, g[once])
        ys = np.insert(ys, base[off[once]] + 1, landed[once])
    return OdeSolution(xs=xs, ys=ys, at_grid=at_grid, n_accepted=n_accepted, n_rejected=n_rejected)


def _grid(domain: tuple[float, float], grid_points: int) -> np.ndarray:
    if not 0.0 < domain[1] - domain[0] < math.inf:
        raise ValueError(f"domain must be finite with x_start < x_end, got {tuple(domain)}")
    if grid_points < 11:
        raise ValueError(f"grid_points must be >= 11, got {grid_points}")
    return np.linspace(domain[0], domain[1], grid_points)


# --- Eigen-equation verifications ------------------------------------------


def _solve(name: str, kind, domain, grid_points: int, tol: float) -> EigenReport:
    """Integrate D y = p(x) y' = y for OPERATORS[name] from y = exp(m) at the
    domain start, and compare with exp(m), which must be finite and > 0 on
    the grid (else DomainError, before the solve)."""
    op = OPERATORS[name]
    grid = _grid(domain, grid_points)
    closed = op.eigenfunction(kind, grid)
    _reject(~(closed > 0.0), grid, f"the {name} eigenfunction underflows or x leaves its support")
    p = op.prefactor
    sol = integrate_ode(lambda x, y: y / p(kind, x), tuple(domain), closed[0], tol, grid)
    return _make_report(grid, sol.at_grid, closed)


def solve_q_eigen(q: QParam | float, domain: tuple[float, float], grid_points: int,
                  tol: float = _ODE_TOL) -> EigenReport:
    """Integrate D_q y = [1 + (1-q) x] y' = y and compare against q_exp."""
    return _solve("q", _as_q(q), domain, grid_points, tol)


def solve_hausdorff_eigen(hp: HausdorffParams, domain: tuple[float, float], grid_points: int,
                          tol: float = _ODE_TOL) -> EigenReport:
    """Integrate (x/l0 + 1)^(1-zeta) y' = y and compare against balankin_exp."""
    return _solve("hausdorff", hp, domain, grid_points, tol)


def verify_fractional_eigen(
    alpha: float, domain: tuple[float, float], grid_points: int, h: float
) -> EigenReport:
    """Check that the Grunwald-Letnikov chain reproduces the Mittag-Leffler
    eigenfunction y(x) = E_alpha(x^alpha).

    The value y(0) = 1 is subtracted before the chain is applied (Caputo
    convention), so the constant mode has zero fractional derivative.  The
    residual is first order in h.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"verify_fractional_eigen requires 0 < alpha < 1, got {alpha}")
    GrunwaldJumarie(alpha, h)  # checks h, before the domain
    _reject(domain[0] <= 0.0, domain, "domain must lie inside (0, inf)")
    grid = _grid(domain, grid_points)
    if domain[1] ** alpha > _ML_DOMAIN:
        raise DomainError("domain end exceeds the Mittag-Leffler series domain "
                          f"x^alpha <= {_ML_DOMAIN:g}")

    def eigenfunction(t):
        # array-aware, so that the GL chain evaluates each of its lattices in one call
        return mittag_leffler(np.asarray(t, dtype=float) ** alpha, alpha)

    shifted = RealFunction(value=lambda t: eigenfunction(t) - 1.0, label="E_alpha(x^alpha) - 1")
    numeric = gl_jumarie_derivative(shifted, grid, alpha, h)
    closed = eigenfunction(grid)
    return _make_report(grid, numeric, closed)

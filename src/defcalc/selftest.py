"""Built-in invariant suite behind the ``selftest`` CLI command.

Each check returns (ok, detail).  Checks go through module attributes so a
fault injected into any single operation is visible here.
"""

from __future__ import annotations

import math

import numpy as np

from . import (
    deformed_algebra,
    derivative_ops,
    eigen_solvers,
    mappings,
    special_functions,
)
from .function_catalog import RealFunction
from .special_functions import HausdorffParams

CORPUS = (
    RealFunction.from_expression("x"),
    RealFunction.from_expression("x^2"),
    RealFunction.from_expression("sin(x)"),
    RealFunction.from_expression("exp(x)"),
)


def _check_q_round_trip():
    # q = 1 -+ 1e-9, kappa = 1e-9: where a formula that cancels loses eps/|1 - q|
    errors = []
    x = np.linspace(-0.5, 2.0, 26)
    for q in (0.3, 0.5, 0.7, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.3):
        xs = x[~(1.0 + (1.0 - q) * x <= 0.01)]
        back = deformed_algebra.q_log(deformed_algebra.q_exp(xs, q), q)
        errors.append(abs(back - xs))
    back = deformed_algebra.kappa_log(deformed_algebra.kappa_exp(x, 1e-9), 1e-9)
    worst = _worst(*errors, abs(back - x))
    return worst <= 1e-10, f"max |q_log(q_exp(x)) - x|, |kappa_log(kappa_exp(x)) - x| = {worst:.3e}"


def _check_q_sum_difference():
    errors = []
    x, y = np.meshgrid(np.linspace(-2.0, 2.0, 20), np.linspace(-2.0, 2.0, 20), indexing="ij")
    for q in (0.3, 0.7, 1.3):
        keep = ~(abs(1.0 + (1.0 - q) * y) < 0.05)
        xs, ys = x[keep], y[keep]
        s = deformed_algebra.q_sum(xs, ys, q)
        back = deformed_algebra.q_difference(s, ys, q)
        errors.append(abs(back - xs) / np.maximum(abs(xs), 1e-30))
    worst = _worst(*errors)
    return worst <= 1e-12, f"max relative round-trip error = {worst:.3e}"


def _check_eigen_ode(solve, kind):
    report = solve(kind, (0.0, 2.0), 51, tol=1e-10)
    return report.max_rel_residual <= 1e-7, f"max residual = {report.max_rel_residual:.3e}"


def _check_fractional_eigen():
    report = eigen_solvers.verify_fractional_eigen(0.5, (0.2, 2.0), 21, h=1e-3)
    return report.max_rel_residual <= 5e-2, f"max residual = {report.max_rel_residual:.3e}"


def _worst(*errors) -> float:
    """The largest value in ``errors`` (arrays or floats), inf if one is NaN
    (Python's max would drop a NaN)."""
    worst = float(np.max(np.concatenate([np.ravel(e) for e in errors]), initial=0.0))
    return math.inf if math.isnan(worst) else worst


def _relative(values, expected):
    return abs(values - expected) / abs(expected)


def _check_eigenfunctions():
    # D exp(m) = exp(m) for each local operator, with f' = exp(m) / p = exp(m) m'
    x = np.linspace(0.0, 2.0, 41)
    errors = []
    for name, kind in (("q", deformed_algebra.QParam(0.7)),
                       ("kappa", deformed_algebra.KappaParam(0.5)),
                       ("hausdorff", HausdorffParams(0.4, 1.0))):
        op = derivative_ops.OPERATORS[name]
        f = RealFunction(value=lambda x, op=op, kind=kind: op.eigenfunction(kind, x),
                         derivative=lambda x, op=op, kind=kind:
                         op.eigenfunction(kind, x) / op.prefactor(kind, x))
        errors.append(_relative(derivative_ops.evaluate_kind(kind, f, x), f.value(x)))
    alpha = 0.5
    fc = RealFunction(value=lambda t: math.exp(t**alpha / alpha))
    t = np.linspace(0.2, 2.0, 41)
    expected = np.array([fc.value(v) for v in t.tolist()])
    errors.append(_relative(derivative_ops.conformable_derivative(fc, t, alpha), expected))
    worst = _worst(*errors)
    return worst <= 1e-6, f"max eigen residual = {worst:.3e}"


def _check_classical_reductions():
    errors = []
    grid = np.linspace(0.1, 2.1, 11)
    for f in CORPUS:
        reference = derivative_ops.classical_derivative(f, grid)
        for kind in (deformed_algebra.QParam(1.0), deformed_algebra.KappaParam(0.0),
                     HausdorffParams(1.0, 1.0), derivative_ops.Conformable(1.0)):
            errors.append(_relative(derivative_ops.evaluate_kind(kind, f, grid), reference))
    worst = _worst(*errors)
    return worst <= 1e-8, f"max reduction mismatch = {worst:.3e}"


def _check_mittag_leffler():
    # E_1/2(-x) = e^(x^2) erfc(x) on the contour (z < -1), E_2(x^2) = cosh x on the series
    xs = np.linspace(1.5, 10.0, 18)
    exact = np.array([math.exp(x * x) * math.erfc(x) for x in xs.tolist()])
    worst = _worst(_relative(special_functions.mittag_leffler(-xs, 0.5), exact))
    xs = np.linspace(0.0, 2.0, 21).tolist()
    exact = np.array([math.cosh(x) for x in xs])
    values = special_functions.mittag_leffler(np.array([x**2 for x in xs]), 2.0)
    worst2 = _worst(_relative(values, exact))
    return worst <= 1e-11 and worst2 <= 1e-8, f"E1/2 error {worst:.3e}, E2 error {worst2:.3e}"


def _check_mapping():
    rng = np.random.default_rng(20240827)
    errors = []
    for zeta, l0 in rng.uniform((-1.0, 0.1), (1.5, 10.0), (100, 2)).tolist():
        q = mappings.q_from_zeta(HausdorffParams(zeta, l0)).q
        errors.append(abs(mappings.zeta_from_q(q, l0).zeta - zeta))
    worst = _worst(errors)
    limits_ok = (
        mappings.q_from_zeta(HausdorffParams(1.0, 1.0)).q == 1.0
        and mappings.zeta_from_q(0.0, 1.0).zeta == 0.0
        and abs(mappings.q_from_zeta(HausdorffParams(0.5, 1e12)).q - 1.0) <= 1e-12
    )
    return worst <= 1e-15 and limits_ok, f"round-trip error {worst:.3e}, limits {limits_ok}"


def _check_first_order():
    # the Lagrange bound |C(1 - zeta, 2)| u^2 max(1, (1 + u)^(-1 - zeta)),
    # u = x/l0, on both sides of 0 and for zeta on both sides of 1
    ratios = []
    for zeta, l0 in ((0.3, 0.5), (0.8, 2.0), (2.5, 1.5)):
        hp = HausdorffParams(zeta, l0)
        c2 = abs((1.0 - zeta) * zeta) / 2.0
        for u in (-0.9, -0.3, -0.01, -1e-4, 1e-4, 0.003, 0.1, 0.5, 0.9):
            agreement = mappings.first_order_agreement(hp, u * l0)
            bound = c2 * u * u * max(1.0, (1.0 + u) ** (-1.0 - zeta))
            ulps = 4.0 * math.ulp(agreement.hausdorff_prefactor)
            ratios.append(agreement.residual / (bound + ulps))
    worst_ratio = _worst(ratios)
    return worst_ratio <= 1.0, f"worst residual/(bound + 4 ulp) = {worst_ratio:.6f}"


def _check_gl_power_rule():
    errors = []
    for g in (1.0, 2.0):
        f = RealFunction(value=lambda t, g=g: t**g)
        value = derivative_ops.gl_jumarie_derivative(f, 1.0, 0.5, 1e-4)
        errors.append(_relative(value, derivative_ops.rl_power_rule(g, 0.5, 1.0)))
    worst = _worst(errors)
    return worst <= 1e-2, f"max relative error = {worst:.3e}"


def _check_yang_ratio():
    alpha = 0.5
    expected = special_functions.gamma(alpha + 1.0)
    ratios = [mappings.yang_hausdorff_check(alpha, HausdorffParams(alpha, 1.0), f, x)
              for f in CORPUS for x in (0.3, 0.9, 1.4)]
    worst = _worst(_relative(np.array(ratios), expected))
    return worst <= 1e-10, f"max |ratio - Gamma(1.5)|/Gamma(1.5) = {worst:.3e}"


def _check_conformable_hausdorff():
    worst = _worst([mappings.conformable_hausdorff_check(alpha, l0, f, x).rel_diff
                    for alpha in (0.5, 0.8) for l0 in (1.0, 2.0) for f in CORPUS
                    for x in (0.3, 1.0, 1.7)])
    return worst <= 1e-8, f"max rel_diff = {worst:.3e}"


def _check_kappa_parity():
    expansion = mappings.kappa_expansion(0.7, 10)
    odd_ok = all(expansion.coefficients[k] == 0.0 for k in range(1, 11, 2))
    x = np.linspace(-1.0, 2.0, 13)
    plus, minus = deformed_algebra.kappa_exp(x, 0.7), deformed_algebra.kappa_exp(x, -0.7)
    sym = bool(np.all((plus == minus) | (abs(plus - minus) <= 1e-12 * plus)))
    return odd_ok and sym, f"odd coefficients zero: {odd_ok}, kappa symmetry: {sym}"


CHECKS = (
    ("q-exponential/logarithm round-trip", _check_q_round_trip),
    ("deformed sum/difference inverse", _check_q_sum_difference),
    ("q eigen-equation ODE residual", lambda: _check_eigen_ode(eigen_solvers.solve_q_eigen, 0.5)),
    ("hausdorff eigen-equation ODE residual",
     lambda: _check_eigen_ode(eigen_solvers.solve_hausdorff_eigen, HausdorffParams(0.4, 1.0))),
    ("fractional eigen-equation GL residual", _check_fractional_eigen),
    ("closed-form eigenfunction identities", _check_eigenfunctions),
    ("classical reductions", _check_classical_reductions),
    ("mittag-leffler identities", _check_mittag_leffler),
    ("mapping round-trip and limits", _check_mapping),
    ("first-order agreement bound", _check_first_order),
    ("GL sum vs power rule", _check_gl_power_rule),
    ("yang/hausdorff dilatation ratio", _check_yang_ratio),
    ("conformable/hausdorff chain-rule constant", _check_conformable_hausdorff),
    ("kappa expansion parity", _check_kappa_parity),
)


def run_selftest() -> int:
    """Run every check; report one line each plus a summary.  Returns the
    number of failures (0 means all green)."""
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a thrown check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})")
    print(f"{len(CHECKS) - failures} passed, {failures} failed")
    return failures

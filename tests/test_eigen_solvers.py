import math

import numpy as np
import pytest

from defcalc import (
    DomainError,
    HausdorffParams,
    StepFailure,
    balankin_exp,
    integrate_ode,
    q_exp,
    solve_hausdorff_eigen,
    solve_q_eigen,
    verify_fractional_eigen,
)
from defcalc.derivative_ops import gl_weights


class TestIntegrateOde:
    def test_exponential(self):
        sol = integrate_ode(lambda x, y: y, (0.0, 1.0), 1.0, tol=1e-10)
        assert sol.ys[-1] == pytest.approx(math.e, abs=1e-8)

    def test_constant_solution(self):
        grid = np.linspace(0.0, 5.0, 11)
        sol = integrate_ode(lambda x, y: 0.0, (0.0, 5.0), 3.25, tol=1e-10, grid=grid)
        assert np.all(sol.at_grid == 3.25)

    def test_sublinear_growth_matches_q_exponential(self):
        sol = integrate_ode(lambda x, y: y**0.5, (0.0, 1.0), 1.0, tol=1e-10)
        assert sol.ys[-1] == pytest.approx(q_exp(1.0, 0.5), abs=1e-8)

    def test_grid_nodes_are_integration_nodes(self):
        grid = np.linspace(0.0, 1.0, 7)
        sol = integrate_ode(lambda x, y: y, (0.0, 1.0), 1.0, tol=1e-8, grid=grid)
        for g in grid:
            assert g in sol.xs
        assert len(sol.at_grid) == len(grid)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda x, y: y, (0.0, 1.0), 1.0, tol=1e-13)
        with pytest.raises(ValueError):
            integrate_ode(lambda x, y: y, (1.0, 0.0), 1.0)

    def test_step_failure_near_blowup(self):
        # y' = y^2 from y(0) = 1 blows up at x = 1
        with pytest.raises((StepFailure, OverflowError)):
            integrate_ode(lambda x, y: y * y, (0.0, 1.5), 1.0, tol=1e-10)


class TestSolveQEigen:
    def test_classical(self):
        report = solve_q_eigen(1.0, (0.0, 2.0), 101)
        assert report.max_rel_residual <= 1e-8

    def test_half(self):
        report = solve_q_eigen(0.5, (0.0, 2.0), 101)
        assert report.max_rel_residual <= 1e-7
        x, y_num, y_closed = report.grid[-1]
        assert y_closed == pytest.approx((1.0 + 0.5 * x) ** 2, rel=1e-14)

    def test_q_two_against_pole_form(self):
        report = solve_q_eigen(2.0, (0.0, 0.9), 101)
        assert report.max_rel_residual <= 1e-7
        x, _, y_closed = report.grid[-1]
        assert y_closed == pytest.approx(1.0 / (1.0 - x), rel=1e-12)

    def test_report_shape(self):
        report = solve_q_eigen(0.7, (0.0, 1.0), 11)
        assert len(report.grid) == 11
        assert report.rms_rel_residual <= report.max_rel_residual

    def test_domain_outside_support(self):
        with pytest.raises(DomainError):
            solve_q_eigen(2.0, (0.0, 1.5), 11)  # pole of q_exp at x = 1

    def test_tolerance_halving_never_doubles_residual(self):
        for tol in (1e-8, 1e-9, 1e-10):
            r1 = solve_q_eigen(0.7, (0.0, 2.0), 51, tol).max_rel_residual
            r2 = solve_q_eigen(0.7, (0.0, 2.0), 51, tol / 2.0).max_rel_residual
            assert r2 <= 2.0 * r1


class TestSolveHausdorffEigen:
    def test_classical(self):
        report = solve_hausdorff_eigen(HausdorffParams(1.0, 1.0), (0.0, 2.0), 101)
        assert report.max_rel_residual <= 1e-8
        x, _, y_closed = report.grid[-1]
        assert y_closed == pytest.approx(math.exp(x + 1.0), rel=1e-13)

    @pytest.mark.parametrize("zeta,l0,domain", [(0.5, 1.0, (0.0, 3.0)), (0.4, 2.0, (0.0, 2.0))])
    def test_deformed(self, zeta, l0, domain):
        hp = HausdorffParams(zeta, l0)
        report = solve_hausdorff_eigen(hp, domain, 101)
        assert report.max_rel_residual <= 1e-7
        x, _, y_closed = report.grid[0]
        assert y_closed == pytest.approx(balankin_exp(domain[0], hp), rel=1e-14)

    def test_initial_value_from_closed_form(self):
        hp = HausdorffParams(0.5, 1.0)
        report = solve_hausdorff_eigen(hp, (0.0, 1.0), 11)
        assert report.grid[0][1] == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            solve_hausdorff_eigen(HausdorffParams(0.5, 1.0), (-1.5, 1.0), 11)

    def test_tolerance_halving_never_doubles_residual(self):
        hp = HausdorffParams(0.4, 1.0)
        for tol in (1e-8, 1e-9, 1e-10):
            r1 = solve_hausdorff_eigen(hp, (0.0, 2.0), 51, tol).max_rel_residual
            r2 = solve_hausdorff_eigen(hp, (0.0, 2.0), 51, tol / 2.0).max_rel_residual
            assert r2 <= 2.0 * r1


class TestVerifyFractionalEigen:
    def test_near_classical_limit(self):
        report = verify_fractional_eigen(0.999, (0.2, 2.0), 51, h=1e-3)
        assert report.max_rel_residual <= 1e-2

    def test_half_order(self):
        report = verify_fractional_eigen(0.5, (0.2, 2.0), 51, h=1e-3)
        assert report.max_rel_residual <= 5e-2

    def test_first_order_in_h(self):
        coarse = verify_fractional_eigen(0.5, (0.2, 2.0), 21, h=1e-3).max_rel_residual
        fine = verify_fractional_eigen(0.5, (0.2, 2.0), 21, h=5e-4).max_rel_residual
        assert 1.5 <= coarse / fine <= 2.5

    def test_caputo_style_subtraction_kills_constants(self):
        # the chain applied to y - y(0) with constant y is identically zero
        n = 500
        chain = np.zeros(n + 1)
        assert float(np.dot(gl_weights(0.5, n), chain)) == 0.0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            verify_fractional_eigen(0.5, (0.0, 1.0), 11, h=1e-3)
        with pytest.raises(DomainError):
            verify_fractional_eigen(0.5, (0.2, 200.0), 11, h=1e-3)
        with pytest.raises(ValueError):
            verify_fractional_eigen(1.5, (0.2, 1.0), 11, h=1e-3)


def test_eigen_problem_validation():
    for solve, param in ((solve_q_eigen, 0.5), (solve_hausdorff_eigen, HausdorffParams(0.5))):
        with pytest.raises(ValueError, match="x_start < x_end"):
            solve(param, (1.0, 0.0), 11)
        with pytest.raises(ValueError, match="grid_points must be >= 11"):
            solve(param, (0.0, 1.0), 5)
        report = solve(param, (0.0, 1.0), 11)
        assert [row[0] for row in report.grid] == np.linspace(0.0, 1.0, 11).tolist()

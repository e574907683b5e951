import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import defcalc.eigen_solvers
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
from defcalc.deformed_algebra import QParam
from defcalc.derivative_ops import OPERATORS, gl_weights


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

    @pytest.mark.parametrize("grid", [None, [0.5, 1e17]])
    def test_step_budget(self, grid):
        # the step stays near the stability limit 3 of y' = -y: 1e17 would take
        # about 3e16 steps
        with pytest.raises(StepFailure, match=r"^step budget of 10000 steps spent at x = "
                                              r"\S+ short of x_end = 1e\+17$"):
            integrate_ode(lambda x, y: -y, (0.5, 1e17), 171.7, 5e-9, grid)

    def test_rejected_steps_count_toward_the_budget(self, monkeypatch):
        monkeypatch.setattr(defcalc.eigen_solvers, "_MAX_STEPS", 7)
        calls = []

        def rhs(x, y):  # every stage past the double range: every step is rejected
            calls.append(x)
            raise OverflowError
        with pytest.raises(StepFailure, match=r"^step budget of 7 steps spent at x = 0\.0 "):
            integrate_ode(rhs, (0.0, 1.0), 1.0)
        assert len(calls) == 7


class TestGridLanding:
    """Steps follow tol alone; each grid node is landed on by one RKF45 step."""

    GRID = np.linspace(0.0, 2.0, 1001)

    def test_grid_does_not_change_the_steps(self):
        free = integrate_ode(lambda x, y: y**0.5, (0.0, 2.0), 1.0, tol=1e-10)
        sol = integrate_ode(lambda x, y: y**0.5, (0.0, 2.0), 1.0, tol=1e-10, grid=self.GRID)
        assert (sol.n_accepted, sol.n_rejected) == (free.n_accepted, free.n_rejected)
        assert np.all(np.isin(free.xs, sol.xs)) and np.all(np.isin(self.GRID, sol.xs))
        assert np.all(np.diff(sol.xs) > 0.0)
        assert sol.xs.size == np.union1d(free.xs, self.GRID).size == sol.ys.size
        assert np.array_equal(sol.ys[np.searchsorted(sol.xs, self.GRID)], sol.at_grid)

    @pytest.mark.parametrize("grid,message", [
        ([0.0, 0.5, 0.4], "grid must be non-decreasing"),
        ([0.0, math.nan, 1.0], "grid must be non-decreasing"),
        ([-0.1, 0.5], "grid must lie within the integration domain"),
        ([0.5, 1.0 + 1e-15], "grid must lie within the integration domain"),
    ])
    def test_grid_validation(self, grid, message):
        with pytest.raises(ValueError, match=message):
            integrate_ode(lambda x, y: y, (0.0, 1.0), 1.0, grid=np.array(grid))

    def test_scalar_only_rhs_lands_node_by_node(self):
        seen = []

        def scalar_only(x, y):
            seen.append(isinstance(y, np.ndarray))
            return math.sqrt(y)  # TypeError on an array

        sol = integrate_ode(scalar_only, (0.0, 2.0), 1.0, tol=1e-10, grid=self.GRID)
        ref = integrate_ode(lambda x, y: np.sqrt(y), (0.0, 2.0), 1.0, tol=1e-10, grid=self.GRID)
        assert seen.count(True) == 1  # the array call that raised
        assert sol.n_accepted == ref.n_accepted
        np.testing.assert_allclose(sol.at_grid, ref.at_grid, rtol=4 * np.finfo(float).eps, atol=0)

    def test_landing_over_tol_is_relanded(self, monkeypatch):
        # the free steps skip a narrow pulse in y' that the landing on 0.4 samples
        steps = []
        step = defcalc.eigen_solvers._rkf45_step

        def spy(rhs, x, y, h):
            dy, err = step(rhs, x, y, h)
            steps.append((np.ndim(x), np.copy(x), np.copy(h), np.copy(err)))
            return dy, err

        def pulse(x, y):
            return (abs(x - 0.4) < 1e-3) * 1.0

        tol = 1e-10
        free = integrate_ode(pulse, (0.0, 1.0), 1.0, tol=tol)
        assert np.all(free.ys == 1.0)
        monkeypatch.setattr(defcalc.eigen_solvers, "_rkf45_step", spy)
        sol = integrate_ode(pulse, (0.0, 1.0), 1.0, tol=tol, grid=np.linspace(0.0, 1.0, 11))
        (landing,) = [i for i, s in enumerate(steps) if s[0] == 1]
        _, x0, h, err = steps[landing]
        over = np.flatnonzero(err > tol)
        assert over.size == 1 and x0[over[0]] + h[over[0]] == 0.4
        # the re-landing steps after the batch: those within tol span [x0, 0.4]
        relanding = steps[landing + 1:]
        kept = [s for s in relanding if s[3] <= tol]
        assert len(kept) == sol.n_accepted - free.n_accepted
        assert len(relanding) - len(kept) == sol.n_rejected - free.n_rejected > 0
        assert float(kept[0][1]) == x0[over[0]]
        assert sum(float(s[2]) for s in kept) == pytest.approx(0.4 - x0[over[0]], abs=1e-15)
        assert sol.at_grid[4] == pytest.approx(1.0 + (0.4 - 0.399), abs=1e-9)
        assert np.all(np.delete(sol.at_grid, 4) == 1.0)


def _closed_and_rhs(problem):
    """The eigenfunction exp(m) and the rhs of p(x) y' = y, from OPERATORS as
    the solve takes them."""
    kind, a, b, prm = problem
    op = OPERATORS[kind]
    k = QParam(prm) if kind == "q" else HausdorffParams(*prm)
    p = op.prefactor
    return (lambda x: op.eigenfunction(k, x)), (lambda x, y: y / p(k, x))


_PROBLEMS = st.one_of(
    st.tuples(st.just("q"), st.just(0.0), st.floats(1.5, 2.5), st.floats(0.2, 0.95)),
    st.floats(1.05, 1.3).flatmap(
        lambda q: st.tuples(st.just("q"), st.just(0.0), st.floats(1.5, 2.5).map(
            lambda end: min(end, 0.7 / (q - 1.0))), st.just(q))),
    st.floats(0.0, 0.5).flatmap(
        lambda a: st.tuples(st.just("hausdorff"), st.just(a), st.floats(a + 1.5, a + 2.5),
                            st.tuples(st.floats(0.3, 0.95), st.floats(0.5, 2.0)))),
)


@given(problem=_PROBLEMS, tol=st.floats(1e-12, 1e-8), points=st.integers(11, 2001))
def test_solve_residual_is_within_steps_times_tol(problem, tol, points):
    """Each accepted step and each landing has error estimate <= tol, so the
    error at a grid node is at most (accepted steps + 1) tol times the growth
    of a perturbation of the linear problem p(x) y' = y, max y / min y
    (perfbench's ode_rows bound)."""
    kind, a, b, prm = problem
    closed, rhs = _closed_and_rhs(problem)
    if kind == "q":
        report = solve_q_eigen(prm, (a, b), points, tol)
    else:
        report = solve_hausdorff_eigen(HausdorffParams(*prm), (a, b), points, tol)
    # the grid does not change the steps, so the solve took as many as this
    free = integrate_ode(rhs, (a, b), closed(a), tol)
    x, numeric, y, residual = report.table.T
    assert np.array_equal(x, np.linspace(a, b, points))
    assert np.array_equal(y, [closed(v) for v in x.tolist()])
    growth = y.max() / y.min()
    # the condition number of the closed form, as perfbench takes it
    cond = 1.0 + np.abs(np.log(y)) + (abs(1.0 / (1.0 - prm)) if kind == "q" else np.abs(np.log(y)))
    bound = ((free.n_accepted + 1) * tol * growth * np.maximum(y, 1.0) / y
             + 16 * np.finfo(float).eps * cond)
    assert np.all(residual <= bound)
    assert report.max_rel_residual == residual.max()


class TestSolveQEigen:
    def test_classical(self):
        report = solve_q_eigen(1.0, (0.0, 2.0), 101)
        assert report.max_rel_residual <= 1e-8

    def test_half(self):
        report = solve_q_eigen(0.5, (0.0, 2.0), 101)
        assert report.max_rel_residual <= 1e-7
        x, y_num, y_closed = report.table[-1, :3].tolist()
        assert y_closed == pytest.approx((1.0 + 0.5 * x) ** 2, rel=1e-14)

    def test_q_two_against_pole_form(self):
        report = solve_q_eigen(2.0, (0.0, 0.9), 101)
        assert report.max_rel_residual <= 1e-7
        x, _, y_closed = report.table[-1, :3].tolist()
        assert y_closed == pytest.approx(1.0 / (1.0 - x), rel=1e-12)

    def test_report_shape(self):
        report = solve_q_eigen(0.7, (0.0, 1.0), 11)
        assert report.table.shape == (11, 4)
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
        x, _, y_closed = report.table[-1, :3].tolist()
        assert y_closed == pytest.approx(math.exp(x + 1.0), rel=1e-13)

    @pytest.mark.parametrize("zeta,l0,domain", [(0.5, 1.0, (0.0, 3.0)), (0.4, 2.0, (0.0, 2.0))])
    def test_deformed(self, zeta, l0, domain):
        hp = HausdorffParams(zeta, l0)
        report = solve_hausdorff_eigen(hp, domain, 101)
        assert report.max_rel_residual <= 1e-7
        x, _, y_closed = report.table[0, :3].tolist()
        assert y_closed == pytest.approx(balankin_exp(domain[0], hp), rel=1e-14)

    def test_initial_value_from_closed_form(self):
        hp = HausdorffParams(0.5, 1.0)
        report = solve_hausdorff_eigen(hp, (0.0, 1.0), 11)
        assert report.table[0, 1] == pytest.approx(math.exp(2.0), rel=1e-14)

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
        with pytest.raises(DomainError) as info:
            verify_fractional_eigen(0.5, (0.2, 200.0), 11, h=1e-3)
        assert str(info.value) == ("domain end exceeds the Mittag-Leffler series domain "
                                   "x^alpha <= 10")
        with pytest.raises(ValueError):
            verify_fractional_eigen(1.5, (0.2, 1.0), 11, h=1e-3)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.inf, math.nan])
    def test_h_is_checked_by_the_chain_before_the_domain(self, h):
        with pytest.raises(ValueError, match=r"^GrunwaldJumarie requires finite h > 0, got "):
            verify_fractional_eigen(0.5, (0.0, 1.0), 11, h=h)


def test_eigen_problem_validation():
    for solve, param in ((solve_q_eigen, 0.5), (solve_hausdorff_eigen, HausdorffParams(0.5))):
        with pytest.raises(ValueError, match="x_start < x_end"):
            solve(param, (1.0, 0.0), 11)
        with pytest.raises(ValueError, match="grid_points must be >= 11"):
            solve(param, (0.0, 1.0), 5)
        report = solve(param, (0.0, 1.0), 11)
        assert report.table[:, 0].tolist() == np.linspace(0.0, 1.0, 11).tolist()

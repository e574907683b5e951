import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defcalc import (
    ConvergenceError,
    DomainError,
    HausdorffParams,
    PoleError,
    balankin_exp,
    gamma,
    gen_binomial,
    mittag_leffler,
    stretched_exp,
)
from defcalc.special_functions import mittag_leffler_array


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        # recurrence oracle from Gamma(0.5): 3.5 * 2.5 * 1.5 * 0.5 * sqrt(pi)
        assert gamma(4.5) == pytest.approx(6.5625 * math.sqrt(math.pi), rel=1e-12)

    def test_accuracy_on_contract_interval(self):
        for x in np.linspace(0.05, 30.0, 200):
            x = float(x)
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-10)

    def test_recurrence_property(self):
        for x in np.linspace(0.1, 20.0, 64):
            x = float(x)
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-10)

    def test_reflection_for_negative_arguments(self):
        for x in (-0.5, -1.5, -2.3, -7.7):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    @pytest.mark.parametrize("x", [142.3, 150.5, 171.0, 171.6, -0.5, -2.3, -7.7, -20.25, -170.5])
    def test_matches_math_gamma_and_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        assert gamma(x) == math.gamma(x)
        with mpmath.workdps(40):
            exact = mpmath.gamma(mpmath.mpf(x))
        assert math.isfinite(gamma(x))
        assert abs(gamma(x) - float(exact)) <= 1e-13 * abs(float(exact))

    def test_minus_inf_is_a_domain_error(self):
        with pytest.raises(DomainError, match="-inf"):
            gamma(-math.inf)

    @pytest.mark.parametrize("x", [171.7, 200.0, 1e300, 1e-310, math.inf])
    def test_inf_only_past_the_double_range(self, x):
        assert gamma(x) == math.inf


class TestGenBinomial:
    def test_base_cases(self):
        assert gen_binomial(0.37, 0) == 1.0
        assert gen_binomial(0.5, 1) == 0.5
        assert gen_binomial(0.5, 2) == -0.125

    def test_matches_gamma_ratio(self):
        for alpha in (0.3, 0.5, 1.7):
            for k in range(9):
                ratio = gamma(alpha + 1.0) / (gamma(k + 1.0) * gamma(alpha - k + 1.0))
                assert gen_binomial(alpha, k) == pytest.approx(ratio, rel=1e-10)

    def test_defined_where_gamma_ratio_is_not(self):
        # alpha - k + 1 hits a pole for integer alpha < k; product form is fine
        assert gen_binomial(2.0, 5) == 0.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gen_binomial(0.5, -1)


class TestMittagLeffler:
    def test_at_zero(self):
        for alpha in (0.3, 1.0, 2.5):
            assert mittag_leffler(0.0, alpha) == 1.0

    def test_e1_is_exp(self):
        for x in np.linspace(-2.0, 2.0, 41):
            x = float(x)
            assert mittag_leffler(x, 1.0) == pytest.approx(math.exp(x), rel=1e-10)

    def test_e2_is_cosh(self):
        for x in np.linspace(0.0, 2.0, 21):
            x = float(x)
            assert mittag_leffler(x * x, 2.0) == pytest.approx(math.cosh(x), rel=1e-8)

    def test_array_matches_scalar(self):
        # every element stops on its own criterion, so agreement is bitwise
        z = np.linspace(-2.0, 2.0, 17)
        vec = mittag_leffler_array(z, 0.7)
        for zi, vi in zip(z, vec):
            assert vi == mittag_leffler(float(zi), 0.7)

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(1.0, 0.0)
        with pytest.raises(DomainError):
            mittag_leffler(10.5, 0.5)

    def test_nan_z_is_outside_the_domain(self):
        # not a ConvergenceError after the budget
        with pytest.raises(DomainError, match=r"\|z\| <= 10, got nan$") as info:
            mittag_leffler(math.nan, 0.5)
        assert info.value.index is None
        with pytest.raises(DomainError, match=r"got nan$") as info:
            mittag_leffler(np.array([[0.5, 1.0], [math.nan, 2.0]]), 0.5)
        assert info.value.index == 2

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_is_rejected_up_front(self, alpha):
        # not a ConvergenceError after max_terms terms
        with pytest.raises(DomainError, match="^mittag_leffler requires"):
            mittag_leffler(1.0, alpha)
        with pytest.raises(DomainError, match="^mittag_leffler requires") as info:
            mittag_leffler(np.array([1.0, 2.0]), alpha)
        assert info.value.index == 0

    def test_exhausted_budget(self):
        # the alternating terms of E_0.3(-10) pass the double range long before they shrink
        with pytest.raises(ConvergenceError, match="did not converge within 10000 terms"):
            mittag_leffler(-10.0, 0.3)

    def test_config_validation(self):
        # the budget is 10,000 terms: E_0.05(1.3) takes 5,719 and E_0.05(1.37)
        # 13,964, and its value (about 8e236) is finite, so that is no overflow
        assert mittag_leffler(1.3, 0.05) == _scalar_series(1.3, 0.05)[0]
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([1.3, 1.37]), 0.05)
        assert info.value.index == 1
        assert str(info.value) == _scalar_series(1.37, 0.05)[1]


def _scalar_series(z, alpha, tol=1e-12, max_terms=10_000, stop_on_overflow=True):
    """The scalar recurrence written out: (value, None), or (None, message) for
    an exhausted budget.  With stop_on_overflow the loop ends at the first
    non-finite term, which can never qualify."""
    total = term = 1.0
    streak = 0
    for k in range(max_terms):
        ratio = math.exp(math.lgamma(alpha * k + 1.0) - math.lgamma(alpha * k + alpha + 1.0))
        term *= z * ratio
        total += term
        if abs(term) < tol * abs(total):
            streak += 1
            if streak >= 2:
                return total, None
        else:
            streak = 0
            if stop_on_overflow and not math.isfinite(term):
                break
    return None, f"mittag_leffler did not converge within {max_terms} terms (z={z}, alpha={alpha})"


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestMittagLefflerArray:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0, 1.5, 2.0])
    def test_bit_equal_to_the_scalar_recurrence(self, alpha):
        z = np.linspace(-10.0, 10.0, 401)
        reference = [_scalar_series(zi, alpha) for zi in z.tolist()]
        converged = [i for i, (value, _) in enumerate(reference)
                     if value is not None and math.isfinite(value)]
        expected = [reference[i][0] for i in converged]
        np.testing.assert_array_equal(_bits(mittag_leffler(z[converged], alpha)), _bits(expected))
        # each element alone, through the float path
        for i in converged[::10]:
            assert _bits(mittag_leffler(float(z[i]), alpha)) == _bits(reference[i][0])

    def test_first_failure_over_the_whole_grid(self):
        # alpha = 0.3 fails on [-10, -a] and overflows on [b, 10]; the error names the first z
        z = np.linspace(-10.0, 0.0, 201)
        failing = [i for i, zi in enumerate(z.tolist()) if _scalar_series(zi, 0.3)[0] is None]
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(z[::-1], 0.3)
        assert info.value.index == 200 - failing[-1]
        assert str(info.value) == _scalar_series(float(z[failing[-1]]), 0.3)[1]
        z = -z[::-1]
        first = next(i for i, zi in enumerate(z.tolist())
                     if not math.isfinite(_scalar_series(zi, 0.3)[0] or math.inf))
        with pytest.raises(DomainError) as info:
            mittag_leffler(z, 0.3)
        assert info.value.index == first
        assert str(info.value) == (f"mittag_leffler overflows the double range at z={z[first]} "
                                   "(alpha=0.3)")

    def test_large_array_bit_equal(self):
        # more active elements than _ML_BLOCK_CELLS: the 4-term minimum block
        z = np.linspace(0.0, 3.0, 20_001) ** 0.6
        expected = [_scalar_series(zi, 0.6)[0] for zi in z[::97].tolist()]
        np.testing.assert_array_equal(_bits(mittag_leffler(z, 0.6)[::97]), _bits(expected))

    def test_float_in_float_out(self):
        assert type(mittag_leffler(0.5, 0.7)) is float
        assert type(mittag_leffler(np.float64(0.5), 0.7)) is float
        assert type(mittag_leffler(2, 1.0)) is float

    def test_zero_d_and_empty_arrays(self):
        zero_d = mittag_leffler(np.array(0.5), 0.7)
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert _bits(zero_d) == _bits(mittag_leffler(0.5, 0.7))
        empty = mittag_leffler(np.array([]), 0.7)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        np.testing.assert_array_equal(mittag_leffler(grid, 0.7).ravel(),
                                      mittag_leffler(grid.ravel(), 0.7))

    def test_alias(self):
        assert mittag_leffler_array is mittag_leffler

    def test_domain_error_index(self):
        with pytest.raises(DomainError, match=r"got -10\.5$") as info:
            mittag_leffler(np.array([0.0, 1.0, -10.5, 12.0]), 0.5)
        assert info.value.index == 2
        with pytest.raises(DomainError) as info:
            mittag_leffler(np.array([1.0, 2.0]), 0.0)
        assert info.value.index == 0
        with pytest.raises(DomainError) as info:
            mittag_leffler(10.5, 0.5)
        assert info.value.index is None
        assert str(info.value) == "mittag_leffler series domain is |z| <= 10, got 10.5"

    def test_convergence_error_index(self):
        # z = -10 fails in the series before z = 11 leaves the domain
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([1.0, 2.0, -10.0, 11.0]), 0.3)
        assert info.value.index == 2
        assert "(z=-10.0, alpha=0.3)" in str(info.value)
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([0.5, 1.0, -10.0, 9.0]), 0.3)
        assert info.value.index == 2
        assert str(info.value) == _scalar_series(-10.0, 0.3)[1]
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(-10.0, 0.3)
        assert info.value.index is None

    @pytest.mark.parametrize("z", [-10.0, -9.5])
    def test_overflow_exit_has_the_full_budget_message(self, z):
        value, message = _scalar_series(z, 0.3, stop_on_overflow=False)
        assert value is None
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(z, 0.3)
        assert str(info.value) == message
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([0.0, z]), 0.3)
        assert str(info.value) == message and info.value.index == 1

    def test_total_overflow_is_returned(self):
        # at 8 the terms stay finite while the sum passes the double range; at 9.5
        # and 10 a term does.  Either way E_0.3(z), about exp(z^(1/0.3)), overflows.
        for z in (8.0, 9.5, 10.0):
            message = f"mittag_leffler overflows the double range at z={z} (alpha=0.3)"
            with pytest.raises(DomainError) as info:
                mittag_leffler(z, 0.3)
            assert str(info.value) == message and info.value.index is None
            with pytest.raises(DomainError) as info:
                mittag_leffler(np.array([1.0, 2.0, z, -10.0]), 0.3)
            assert str(info.value) == message and info.value.index == 2


class TestStretchedExp:
    def test_values(self):
        assert stretched_exp(0.0, 0.7) == 1.0
        assert stretched_exp(1.0, 0.5) == pytest.approx(math.e, rel=1e-15)
        assert stretched_exp(4.0, 0.5) == pytest.approx(math.exp(2.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            stretched_exp(-0.1, 0.5)


class TestBalankinExp:
    def test_values(self):
        assert balankin_exp(0.0, HausdorffParams(1.0, 1.0)) == pytest.approx(math.e, rel=1e-15)
        assert balankin_exp(3.0, HausdorffParams(0.5, 1.0)) == pytest.approx(
            math.exp(4.0), rel=1e-15
        )

    def test_zeta_one_reduces_to_shifted_exponential(self):
        hp = HausdorffParams(1.0, 1.0)
        for x in np.linspace(-0.5, 3.0, 15):
            x = float(x)
            assert abs(balankin_exp(x, hp) - math.exp(x + 1.0)) <= 1e-12 * math.exp(x + 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            balankin_exp(-1.0, HausdorffParams(0.5, 1.0))
        with pytest.raises(DomainError):
            balankin_exp(1.0, HausdorffParams(0.0, 1.0))

    @given(
        t=st.lists(st.floats(-1.0, 5.0, exclude_min=True), min_size=1, max_size=40),
        zeta=st.one_of(st.just(1.0), st.floats(0.05, 2.0), st.floats(-2.0, -0.05)),
        l0=st.floats(0.1, 10.0),
    )
    def test_array_has_the_bits_of_each_point(self, t, zeta, l0):
        hp = HausdorffParams(zeta, l0)
        x = [v * l0 for v in t]
        x = [v for v in x if v > -l0]
        want = np.array([balankin_exp(v, hp) for v in x])
        assert _bits(balankin_exp(np.array(x), hp)).tolist() == _bits(want).tolist()

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_array_domain_error_names_the_first_x_outside(self, at):
        hp = HausdorffParams(0.5, 2.0)
        x = np.linspace(0.0, 3.0, 6)
        x[at] = -2.0
        x[5] = -2.5
        with pytest.raises(DomainError, match=r"got -2\.0$") as err:
            balankin_exp(x, hp)
        assert err.value.index == at
        with pytest.raises(DomainError) as err:
            balankin_exp(-2.0, hp)
        assert err.value.index is None

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HausdorffParams(0.5, 0.0)
        with pytest.raises(ValueError):
            HausdorffParams(math.nan, 1.0)

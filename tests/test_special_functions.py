import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
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
from defcalc import special_functions
from defcalc.special_functions import _ml_series, mittag_leffler_array


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

    @pytest.mark.parametrize("x", [171.7, 200.0, 1e300, 1e-310, math.inf, math.nan])
    def test_domain_error_past_the_double_range(self, x):
        with pytest.raises(DomainError, match="gamma passes the double range"):
            gamma(x)


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

    @pytest.mark.parametrize("alpha", [0.5, -1.3, 2.0, 0.0])
    def test_has_the_bits_of_the_product(self, alpha):
        for k in (0, 1, 2, 3, 17, 1000, 16_000):
            want = 1.0
            for i in range(k):
                want *= (alpha - i) / (i + 1.0)
            assert gen_binomial(alpha, k).hex() == want.hex()

    @given(a=st.floats(-3.0, 3.0) | st.builds(lambda sign, e: sign * 10.0**e,
                                               st.sampled_from((-1.0, 1.0)),
                                               st.floats(-320.0, 300.0)),
           k=st.integers(0, 20_000))
    @example(a=0.3, k=1_000_000)
    @example(a=-3.0, k=1_000_000)
    @example(a=3.0 - 2.0**-51, k=1_000_000)
    @example(a=2.0, k=5)
    @example(a=5e-324, k=3)
    @example(a=1e150, k=2)
    @example(a=-1e300, k=2)
    def test_against_mpmath(self, a, k):
        """Within (4k + 8) eps of C(a, k), and exact 0 where C(a, k) = 0, for
        a in [-3, 3] or |a| log-uniform up to 1e300.  DomainError where the
        running product's largest term passes the double range (by up to
        that bound): C(a, k), or for a > 0 the C(a, j) at the peak j = (a + 1)/2
        where k lies past it.  A product below the normal range rounds to the
        nearest subnormal at each of at most k steps, so a value there may
        differ by k subnormals.  The oracle runs at 40 digits plus the bits
        that hold a beside the integers up to k, so that a - k + 1 is exact."""
        mpmath = pytest.importorskip("mpmath")
        bound = (4 * k + 8) * 2.0**-52
        with mpmath.workprec(133 + abs(math.frexp(a)[1]) + k.bit_length()):
            want = mpmath.binomial(mpmath.mpf(a), k)
            peak = mpmath.binomial(mpmath.mpf(a), min(k, max(0, math.floor((a + 1.0) / 2.0))))
        try:
            got = gen_binomial(a, k)
        except DomainError:
            assert max(abs(want), abs(peak)) * (1.0 + bound) > sys.float_info.max
            return
        if want == 0:
            assert got == 0.0
        else:
            assert abs(got - want) <= bound * abs(want) + k * 2.0**-1074


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
        # the series keeps -1 <= z <= 10^alpha, where 10,000 terms run out only
        # for alpha < 0.004: E_0.001(-0.999) needs about 27,000
        with pytest.raises(ConvergenceError, match="did not converge within 10000 terms"):
            mittag_leffler(-0.999, 0.001)
        assert math.isfinite(mittag_leffler(-0.999, 0.004))
        assert math.isfinite(mittag_leffler(10.0**0.004, 0.004))

    @pytest.mark.parametrize("alpha", [2e305, 1e306, 1e307, 1.7e308])
    def test_huge_alpha_is_one(self, alpha):
        # lgamma(alpha k + 1) passes the double range there: Gamma(alpha k + 1) /
        # Gamma(alpha k + alpha + 1) is below the smallest double, and E_alpha(z) = 1
        assert mittag_leffler(0.5, alpha) == 1.0
        assert mittag_leffler(np.linspace(-10.0, 10.0, 41), alpha).tolist() == [1.0] * 41

    def test_a_non_finite_term_runs_to_the_budget(self):
        # no term of the series region is non-finite; one that were would never
        # qualify, so its element is the first left when the budget runs out
        values, unconverged = _ml_series(np.array([0.5, math.inf, -0.5, math.nan]), 0.5)
        assert unconverged == 1
        assert values[[0, 2]].tolist() == [mittag_leffler(0.5, 0.5), mittag_leffler(-0.5, 0.5)]
        assert _ml_series(np.array([0.5, -0.5]), 0.5)[1] == -1

    def test_config_validation(self):
        # E_0.05(1.3) took 5,719 terms and E_0.05(1.37) ran out of its 10,000;
        # both lie past 10^0.05 and take the contour, whose value (about 8e236
        # at 1.37) is finite.  Below 10^0.05 the series keeps its bits.
        values = mittag_leffler(np.array([1.12, 1.3, 1.37]), 0.05)
        assert _bits(values).tolist() == _bits([mittag_leffler(1.12, 0.05), mittag_leffler(1.3, 0.05),
                                                mittag_leffler(1.37, 0.05)]).tolist()
        assert values[0] == _scalar_series(1.12, 0.05)[0]
        assert values[2] == pytest.approx(8.167325078039122e236, rel=1e-11)


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


def _raises(z, alpha):
    try:
        mittag_leffler(z, alpha)
    except DomainError:
        return True
    return False


def _series_region(z, alpha):
    """Where mittag_leffler sums the power series: -1 <= z <= 10^alpha below
    alpha = 2 (z^(1/alpha) <= 10 for z >= 0, |z|^(1/alpha) <= 1 for z < 0)."""
    return (z >= -1.0) & (z <= 10.0**alpha) if alpha < 2.0 else np.ones(z.shape, dtype=bool)


class TestMittagLefflerArray:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0, 1.5, 2.0])
    def test_bit_equal_to_the_scalar_recurrence(self, alpha):
        # on the series region; E_1 is exp by construction
        z = np.linspace(-10.0, 10.0, 401)
        z = z[_series_region(z, alpha)]
        if alpha == 1.0:
            expected = [math.exp(zi) for zi in z.tolist()]
        else:
            expected = [_scalar_series(zi, alpha)[0] for zi in z.tolist()]
        np.testing.assert_array_equal(_bits(mittag_leffler(z, alpha)), _bits(expected))
        # each element alone, through the float path
        for zi, value in list(zip(z.tolist(), expected))[::10]:
            assert _bits(mittag_leffler(zi, alpha)) == _bits(value)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.5])
    def test_finite_or_domain_error(self, alpha):
        # ml --grid's only check of the values: no non-finite one comes back
        z = np.linspace(-10.0, 10.0, 2001)
        for arg in [z] + z.tolist():
            try:
                values = mittag_leffler(arg, alpha)
            except DomainError:
                continue
            assert np.isfinite(values).all()

    def test_first_failure_over_the_whole_grid(self):
        # alpha = 0.3 is finite on [-10, 0] and overflows from z = 708.6^0.3 = 7.16
        # on; the error names the first overflowing z, in either order
        z = np.linspace(-10.0, 10.0, 401)
        first = next(i for i, zi in enumerate(z.tolist()) if _raises(zi, 0.3))
        assert 7.1 < z[first] < 7.2 and not _raises(float(z[first - 1]), 0.3)
        with pytest.raises(DomainError) as info:
            mittag_leffler(z, 0.3)
        assert info.value.index == first
        assert str(info.value) == (f"mittag_leffler overflows the double range at z={z[first]} "
                                   "(alpha=0.3)")
        with pytest.raises(DomainError) as info:
            mittag_leffler(z[::-1], 0.3)
        assert info.value.index == 0
        # a budget failure on the series and an overflow on the contour: the first wins
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([0.5, -0.999, 1.5]), 0.001)
        assert info.value.index == 1
        with pytest.raises(DomainError, match="overflows") as info:
            mittag_leffler(np.array([0.5, 1.5, -0.999]), 0.001)
        assert info.value.index == 1

    @given(
        alpha=st.one_of(st.floats(0.05, 2.5), st.sampled_from([0.001, 1.0, 2.0])),
        z=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30),
    )
    def test_array_has_the_bits_of_each_float_call(self, alpha, z):
        # series and contour elements alike; an error names the first failing element
        outcomes = []
        for zi in z:
            try:
                outcomes.append(mittag_leffler(zi, alpha))
            except (ConvergenceError, DomainError) as exc:
                outcomes.append(exc)
        first = next((i for i, v in enumerate(outcomes) if isinstance(v, Exception)), None)
        if first is None:
            assert _bits(mittag_leffler(np.array(z), alpha)).tolist() == _bits(outcomes).tolist()
        else:
            with pytest.raises(type(outcomes[first])) as info:
                mittag_leffler(np.array(z), alpha)
            assert info.value.index == first

    def test_contour_blocks_keep_the_bits_of_each_float_call(self):
        # more contour elements than one (element, node) block holds
        z = np.concatenate([np.linspace(-10.0, -1.01, 1500), np.linspace(3.2, 10.0, 1500)])
        values = mittag_leffler(z, 0.5)
        assert _bits(values).tolist() == _bits([mittag_leffler(zi, 0.5) for zi in z.tolist()]).tolist()

    @given(alpha=st.floats(0.01, 1.0), x=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=40))
    def test_completely_monotone_on_the_negative_axis(self, alpha, x):
        # Pollard (1948): for 0 < alpha <= 1, E_alpha(-x) lies in (0, 1] and does
        # not increase in x; up to the methods' relative error, 2e-12
        values = mittag_leffler(-np.sort(x), alpha)
        assert np.all((values > 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) <= 2e-12 * values[:-1])

    def test_large_array_bit_equal(self):
        # more active elements than _ML_BLOCK_CELLS: the 4-term minimum block
        z = np.linspace(0.0, 3.0, 20_001) ** 0.6
        expected = [_scalar_series(zi, 0.6)[0] for zi in z[::97].tolist()]
        np.testing.assert_array_equal(_bits(mittag_leffler(z, 0.6)[::97]), _bits(expected))

    # a float call, an ml sweep up to the domain edge, and the z = x^alpha
    # lattices of a 51-point fractional solve and of selftest
    @pytest.mark.parametrize("m,alpha,top", [(1, 0.6, 0.5), (36, 1.25, 10.0),
                                             (951, 0.6, 0.95**0.6), (2001, 0.5, 2.0**0.5)])
    @pytest.mark.parametrize("signed", [False, True])
    def test_series_has_the_bits_of_float_calls_either_side_of_one_block(self, m, alpha, top, signed):
        # where m times the lead's term count fits in _ML_ONE_BLOCK_CELLS (all
        # but m = 2,001 here) the first block holds every term a z >= 0
        # needs, and a z < 0 may run on in later blocks
        z = np.linspace(-1.0 if signed else 0.0, top, m)
        z_max, lead, small, terms = float(np.max(np.abs(z))), 1.0, 0, 0
        while small < 2:
            lead *= z_max * math.exp(math.lgamma(alpha * terms + 1.0) - math.lgamma(alpha * terms + alpha + 1.0))
            small, terms = small + 1 if lead < 1e-12 else 0, terms + 1
        assert (m * terms <= special_functions._ML_ONE_BLOCK_CELLS) == (m < 2001)
        values, unconverged = _ml_series(z, alpha)
        assert unconverged == -1
        assert _bits(values).tolist() == _bits([mittag_leffler(v, alpha) for v in z.tolist()]).tolist()
        assert _bits(values).tolist() == _bits([_scalar_series(v, alpha)[0] for v in z.tolist()]).tolist()

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
        # z = -0.999 runs out of terms in the series before z = 11 leaves the domain
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([0.5, 0.9, -0.999, 11.0]), 0.001)
        assert info.value.index == 2
        assert "(z=-0.999, alpha=0.001)" in str(info.value)
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([0.5, -5.0, -0.999, -9.0]), 0.001)
        assert info.value.index == 2
        assert str(info.value) == _scalar_series(-0.999, 0.001)[1]
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(-0.999, 0.001)
        assert info.value.index is None

    @pytest.mark.parametrize("z", [-10.0, -9.5])
    def test_overflow_exit_has_the_full_budget_message(self, z):
        # the terms of E_0.3(z) pass the double range before they shrink, so
        # the series ran its full budget; z < -1 now takes the contour
        assert _scalar_series(z, 0.3, stop_on_overflow=False)[0] is None
        value = mittag_leffler(z, 0.3)
        assert 0.0 < value < 1.0
        assert _bits(mittag_leffler(np.array([0.0, z]), 0.3)).tolist() == _bits([1.0, value]).tolist()
        # the message of an exhausted budget is that of the scalar recurrence
        message = _scalar_series(-0.9995, 0.001)[1]
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(np.array([0.0, z, -0.9995]), 0.001)
        assert str(info.value) == message and info.value.index == 2

    def test_total_overflow_is_returned(self):
        # E_0.3(z), about exp(z^(1/0.3)) / 0.3, passes the double range: the
        # contour's residue is inf
        for z in (8.0, 9.5, 10.0):
            message = f"mittag_leffler overflows the double range at z={z} (alpha=0.3)"
            with pytest.raises(DomainError) as info:
                mittag_leffler(z, 0.3)
            assert str(info.value) == message and info.value.index is None
            with pytest.raises(DomainError) as info:
                mittag_leffler(np.array([1.0, 2.0, z, -10.0]), 0.3)
            assert str(info.value) == message and info.value.index == 2


def _ml_mpmath(alpha, z, mp):
    """E_alpha(z) from mpmath, for r = |z|^(1/alpha): the series summed in mpf
    at r/2.3 + 40 digits for r <= 150 (a double alpha k + 1 moves E_0.8(-10)
    by 8e-7, so alpha k + 1 is formed in mpf); past that the asymptotic
    expansion, -sum_k z^-k / Gamma(1 - alpha k) plus e^r / alpha for z > 0,
    whose smallest term, about e^-r, lies far below 1e-40."""
    r = abs(z) ** (1.0 / alpha)
    if r <= 150.0:
        with mp.workdps(int(r / 2.3) + 40):
            a, zm = mp.mpf(alpha), mp.mpf(z)
            total, power, k = mp.mpf(0), mp.mpf(1), 0
            while True:
                term = power * mp.rgamma(a * k + 1)
                total += term
                if a * k > r + 5 and abs(term) < mp.mpf(10) ** -35 * abs(total):
                    return total
                power *= zm
                k += 1
    with mp.workdps(40):
        a, zm = mp.mpf(alpha), mp.mpf(z)
        total = mp.exp(zm ** (1 / a)) / a if z > 0 else mp.mpf(0)
        small, k = 0, 1
        while small < 2:  # 1/Gamma(1 - alpha k) is 0 at integer alpha k, never twice running
            term = zm ** -k * mp.rgamma(1 - a * k)
            total -= term
            small = small + 1 if abs(term) < mp.mpf(10) ** -35 * abs(total) else 0
            k += 1
        return total


def _oracle_error(alpha, z, mp):
    """|E - oracle| over 1e-11 |oracle|, or over 1e-15 next to a zero of E."""
    want = _ml_mpmath(alpha, z, mp)
    error = abs(mittag_leffler(z, alpha) - want)
    return float(min(error / (1e-11 * abs(want)), error / 1e-15))


class TestMittagLefflerOracle:
    @pytest.mark.parametrize("alpha, z, value", [
        (0.5, -8.0, 0.06998516620088092),  # e^64 erfc(8)
        (0.8, -10.0, 0.024902819761976534),
        (0.05, 1.37, 8.167325078039122e236),
        (1.01, -6.0, -9.39809605393338e-05),  # next to a zero of E
    ])
    def test_named_points(self, alpha, z, value):
        mp = pytest.importorskip("mpmath")
        assert float(_ml_mpmath(alpha, z, mp)) == pytest.approx(value, rel=1e-15)
        assert _oracle_error(alpha, z, mp) <= 1.0
        if alpha == 0.5:
            with mp.workdps(40):
                assert _ml_mpmath(alpha, z, mp) == pytest.approx(mp.exp(z * z) * mp.erfc(-z),
                                                                 rel=1e-35)

    def test_seeded_sweep(self):
        # random (alpha, z) over both regions for alpha in [0.05, 2), and the
        # edges between them (z = -1 and z = 10^alpha, each side)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        worst = []
        while len(worst) < 60:
            alpha, z = float(rng.uniform(0.05, 2.0)), float(rng.uniform(-10.0, 10.0))
            if z > 0 and z ** (1.0 / alpha) > 700.0:
                continue  # past the double range
            worst.append((_oracle_error(alpha, z, mp), alpha, z))
        for alpha in (0.3, 0.7, 1.4):
            for z in (-1.0, np.nextafter(-1.0, -2.0), 10.0**alpha, np.nextafter(10.0**alpha, 20.0)):
                if z <= 10.0:
                    worst.append((_oracle_error(alpha, float(z), mp), alpha, float(z)))
        worst.sort()
        assert worst[-1][0] <= 1.0, worst[-1]


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

    def test_overflow_is_a_domain_error(self):
        # exp(1000 (x + 1)^0.001) passes the double range at every x > -1, and
        # exp(100 (x + 1)^0.01) from x = 1.3e85
        with pytest.raises(DomainError, match=r"balankin_exp passes the double range, got 1\.0$") as err:
            balankin_exp(1.0, HausdorffParams(0.001))
        assert err.value.index is None
        with pytest.raises(DomainError, match=r"got 1e\+90$") as err:
            balankin_exp(np.array([0.0, 1e80, 1e90, 1e100]), HausdorffParams(0.01))
        assert err.value.index == 2

    def test_array_overflow_of_the_affine_part_warns_nothing(self):
        # x/l0 = 1e608 is inf: the float call's DomainError, with no numpy
        # RuntimeWarning on the way, even with warnings as errors
        hp = HausdorffParams(0.5, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"balankin_exp passes the double range, got 1e\+308$") as err:
                balankin_exp(np.array([1.0, 1e308]), hp)
            assert err.value.index == 1
            with pytest.raises(DomainError, match=r"balankin_exp passes the double range") as err:
                balankin_exp(1e308, hp)
            assert err.value.index is None

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HausdorffParams(0.5, 0.0)
        with pytest.raises(ValueError):
            HausdorffParams(math.nan, 1.0)

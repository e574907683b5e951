import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from defcalc import (
    DomainError,
    KappaParam,
    QParam,
    integrate_ode,
    kappa_exp,
    kappa_log,
    q_difference,
    q_exp,
    q_log,
    q_sum,
)

Q_VALUES = (0.3, 0.5, 0.7, 1.0, 1.3)


class TestQDifference:
    @pytest.mark.parametrize("q", Q_VALUES)
    def test_zero_right_operand(self, q):
        assert q_difference(1.7, 0.0, q) == 1.7

    def test_classical(self):
        assert q_difference(3.0, 1.0, 1.0) == 2.0

    def test_deformed_value(self):
        # (2 - 1) / (1 + 0.5 * 1)
        assert q_difference(2.0, 1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_singular_line(self):
        # q = 0.5 -> singular at y = 1/(q-1) = -2
        with pytest.raises(DomainError):
            q_difference(1.0, -2.0, 0.5)
        with pytest.raises(DomainError):
            q_difference(1.0, -2.0 + 1e-13, 0.5)
        assert math.isfinite(q_difference(1.0, -1.9, 0.5))

    def test_singular_index_is_set_for_arrays_only(self):
        with pytest.raises(DomainError, match=r"= -2\.0$") as err:
            q_difference(1.0, -2.0, 0.5)
        assert err.value.index is None
        with pytest.raises(DomainError, match=r"= -2\.0$") as err:
            q_difference(1.0, np.array([0.0, 1.0, -2.0, 3.0, -2.0]), 0.5)
        assert err.value.index == 2

    def test_accepts_qparam(self):
        assert q_difference(2.0, 1.0, QParam(0.5)) == q_difference(2.0, 1.0, 0.5)


class TestQSum:
    def test_identity(self):
        assert q_sum(1.7, 0.0, 0.4) == 1.7

    def test_classical(self):
        assert q_sum(1.0, 1.0, 1.0) == 2.0

    def test_deformed_value(self):
        assert q_sum(1.0, 2.0, 0.5) == pytest.approx(4.0, rel=1e-15)

    @given(
        x=st.floats(-2, 2),
        y=st.floats(-2, 2),
        q=st.sampled_from(Q_VALUES),
    )
    def test_inverse_of_difference(self, x, y, q):
        assume(abs(1.0 + (1.0 - q) * y) > 0.05)
        back = q_difference(q_sum(x, y, q), y, q)
        assert back == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_inverse_grid(self):
        # 20x20 grid per deformation, singular line masked out
        for q in (0.3, 0.7, 1.3):
            for x in np.linspace(-2, 2, 20):
                for y in np.linspace(-2, 2, 20):
                    if abs(1.0 + (1.0 - q) * y) < 0.05:
                        continue
                    back = q_difference(q_sum(float(x), float(y), q), float(y), q)
                    assert abs(back - x) <= 1e-12 * max(1.0, abs(x))


class TestQExp:
    def test_at_zero(self):
        for q in Q_VALUES:
            assert q_exp(0.0, q) == 1.0

    def test_classical(self):
        assert q_exp(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_deformed_value(self):
        assert q_exp(1.0, 0.5) == pytest.approx(2.25, rel=1e-15)

    def test_ode_oracle(self):
        # dy/dx = y^q from y(0) = 1 must reproduce the closed form
        sol = integrate_ode(lambda x, y: y**0.5, (0.0, 1.0), 1.0, tol=1e-10)
        assert sol.ys[-1] == pytest.approx(q_exp(1.0, 0.5), rel=1e-8)

    def test_cutoff_convention(self):
        assert q_exp(-3.0, 0.5) == 0.0  # 1 + 0.5*(-3) < 0
        assert q_exp(2.0, 2.0) == 0.0  # 1 - 2 < 0

    def test_continuity_at_classical_limit(self):
        for x in np.linspace(-1.0, 2.0, 13):
            x = float(x)
            for q in (1.0 - 1e-9, 1.0 + 1e-9):
                assert abs(q_exp(x, q) - math.exp(x)) <= 1e-6 * math.exp(x)

    @given(
        x=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
        q=st.one_of(
            st.floats(0.05, 3.0),
            st.floats(-1e-11, 1e-11).map(lambda d: 1.0 + d),  # next to the classical limit
            st.floats(1.0, 2.0, exclude_min=True),  # the cutoff from x = 1/(q - 1)
        ),
    )
    def test_array_has_the_bits_of_each_point(self, x, q):
        want = np.array([q_exp(v, q) for v in x])
        got = q_exp(np.array(x), q)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert q_exp(np.array(x).reshape(-1, 1), q).shape == (len(x), 1)


class TestQLog:
    def test_at_one(self):
        for q in Q_VALUES:
            assert q_log(1.0, q) == 0.0

    def test_classical(self):
        assert q_log(math.e, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_of_q_exp_example(self):
        assert q_log(2.25, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_log(0.0, 0.5)
        with pytest.raises(DomainError):
            q_log(-1.0, 1.0)

    @given(
        x=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
        q=st.one_of(
            st.floats(-2.0, 3.0),
            st.floats(-1e-11, 1e-11).map(lambda d: 1.0 + d),  # next to the classical limit
            st.just(1.0),
        ),
    )
    def test_array_has_the_bits_of_each_point(self, x, q):
        want = np.array([q_log(v, q) for v in x])
        got = q_log(np.array(x), q)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert q_log(np.array(x).reshape(-1, 1), q).shape == (len(x), 1)

    def test_classical_branch_over_an_array(self):
        xs = [1.0, math.e, 0.25]
        assert q_log(np.array(xs), 1.0).tolist() == [math.log(v) for v in xs]

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_array_domain_error_names_the_first_x_at_or_below_zero(self, q):
        with pytest.raises(DomainError, match=r"q_log requires x > 0, got 0\.0$") as err:
            q_log(np.array([1.0, 2.0, 0.0, -1.0]), q)
        assert err.value.index == 2
        with pytest.raises(DomainError, match=r"got -1\.0$") as err:
            q_log(-1.0, q)
        assert err.value.index is None

    def test_round_trip_grid(self):
        for q in Q_VALUES:
            for x in np.linspace(-0.5, 2.0, 26):
                x = float(x)
                if 1.0 + (1.0 - q) * x <= 0.01:
                    continue
                assert abs(q_log(q_exp(x, q), q) - x) <= 1e-10


class TestKappaExp:
    def test_at_zero(self):
        for kappa in (0.0, 0.2, 1.0):
            assert kappa_exp(0.0, kappa) == 1.0

    def test_classical(self):
        assert kappa_exp(1.0, 0.0) == pytest.approx(math.e, rel=1e-15)

    def test_deformed_value(self):
        assert kappa_exp(1.0, 1.0) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)

    def test_ode_oracle(self):
        # d/dx kappa_exp = kappa_exp / sqrt(1 + k^2 x^2)
        sol = integrate_ode(
            lambda x, y: y / math.sqrt(1.0 + x * x), (0.0, 1.0), 1.0, tol=1e-10
        )
        assert sol.ys[-1] == pytest.approx(kappa_exp(1.0, 1.0), rel=1e-8)

    @pytest.mark.parametrize("kappa", [0.2, 0.7])
    def test_even_in_kappa(self, kappa):
        for x in np.linspace(-1.5, 2.0, 15):
            x = float(x)
            plus, minus = kappa_exp(x, kappa), kappa_exp(x, -kappa)
            assert abs(plus - minus) <= 1e-12 * abs(plus)

    def test_accepts_kappaparam(self):
        assert kappa_exp(1.0, KappaParam(0.5)) == kappa_exp(1.0, 0.5)

    @given(
        x=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40),
        kappa=st.one_of(
            st.floats(-1.5, 1.5),
            st.floats(-1e-11, 1e-11),  # next to the classical limit
            st.just(0.0),
        ),
    )
    def test_array_has_the_bits_of_each_point(self, x, kappa):
        want = np.array([kappa_exp(v, kappa) for v in x])
        got = kappa_exp(np.array(x), kappa)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert kappa_exp(np.array(x).reshape(-1, 1), kappa).shape == (len(x), 1)

    # at a subnormal kappa, kappa x is subnormal too and asinh(kappa x)/kappa is not x
    @pytest.mark.parametrize("kappa", [0.0, 5e-324, -1e-200])
    def test_classical_branch_over_an_array(self, kappa):
        xs = [0.0, 1.0, -2.5]
        assert kappa_exp(np.array(xs), kappa).tolist() == [math.exp(v) for v in xs]


class TestKappaLog:
    def test_at_one(self):
        for kappa in (0.0, 0.5):
            assert kappa_log(1.0, kappa) == 0.0

    def test_classical(self):
        assert kappa_log(math.e, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_of_kappa_exp_example(self):
        assert kappa_log(1.0 + math.sqrt(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("kappa", [0.0, 5e-324, -1e-200])
    def test_classical_branch_over_an_array(self, kappa):
        xs = [1.0, math.e, 0.25]
        assert kappa_log(np.array(xs), kappa).tolist() == [math.log(v) for v in xs]

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_log(0.0, 0.5)

    @given(x=st.floats(-0.5, 2.0), kappa=st.sampled_from([0.2, 0.7, 1.0]))
    def test_round_trip(self, x, kappa):
        assert kappa_log(kappa_exp(x, kappa), kappa) == pytest.approx(x, abs=1e-11)

    @given(
        x=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
        kappa=st.one_of(
            st.floats(-1.5, 1.5),
            st.floats(-1e-11, 1e-11),  # next to the classical limit
            st.just(0.0),
        ),
    )
    def test_array_has_the_bits_of_each_point(self, x, kappa):
        want = np.array([kappa_log(v, kappa) for v in x])
        got = kappa_log(np.array(x), kappa)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert kappa_log(np.array(x).reshape(-1, 1), kappa).shape == (len(x), 1)

    @pytest.mark.parametrize("kappa", [0.5, 0.0])
    def test_array_domain_error_names_the_first_x_at_or_below_zero(self, kappa):
        with pytest.raises(DomainError, match=r"kappa_log requires x > 0, got 0\.0$") as err:
            kappa_log(np.array([1.0, 2.0, 0.0, -1.0]), kappa)
        assert err.value.index == 2
        with pytest.raises(DomainError, match=r"got -1\.0$") as err:
            kappa_log(-1.0, kappa)
        assert err.value.index is None


# one call past the double range per function: math raises OverflowError,
# except in kappa_exp(1e308, 10), where kappa x is inf and so is the value
@pytest.mark.parametrize("f,x,parameter", [
    (q_exp, 800.0, 1.0),
    (q_exp, 1e6, 0.99),
    (q_log, 1e300, -2.0),
    (kappa_exp, 800.0, 1e-9),
    (kappa_exp, 1e308, 10.0),
    (kappa_log, 1e300, 5.0),
])
def test_overflow_is_a_domain_error(f, x, parameter):
    message = rf"{f.__name__} passes the double range, got {re.escape(repr(x))}$"
    with pytest.raises(DomainError, match=message) as err:
        f(x, parameter)
    assert err.value.index is None
    with pytest.raises(DomainError, match=message) as err:
        f(np.array([1.0, 2.0, x, x]), parameter)
    assert err.value.index == 2


def test_parameters_must_be_finite():
    with pytest.raises(ValueError):
        QParam(math.nan)
    with pytest.raises(ValueError):
        KappaParam(math.inf)


# --- accuracy against mpmath --------------------------------------------------

EPS = 2.0**-52

# |1 - q| or |kappa| from 1e-16 to 2, log-uniform, on either side of the classical
# value; 1 - q and kappa are then taken as the doubles given
DEFORMATION = st.builds(lambda sign, e: sign * 10.0**e,
                        st.sampled_from((-1.0, 1.0)), st.floats(-16.0, math.log10(2.0)))
SIGNED_X = st.builds(lambda sign, e: sign * 10.0**e,
                     st.sampled_from((-1.0, 1.0)), st.floats(-20.0, 6.0))
POSITIVE_X = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


def _agrees(call, want, cond):
    """call() is within 4 eps cond of the mpf value ``want`` (and of the
    smallest subnormal, where it underflows), or raises DomainError where
    ``want`` is past the double range by more than that."""
    try:
        got = call()
    except DomainError:
        assert abs(want) * (1.0 + 4.0 * EPS * cond) > sys.float_info.max
        return
    assert abs(got - want) <= 4.0 * EPS * cond * abs(want) + 2.0**-1074


class TestAgainstMpmath:
    """Each exponential is exp(m) of its measure m and each logarithm the
    inverse measure of ln x, at 50 digits.  The condition number counts the
    rounding of (1 - q) x, kappa x or ln x and of m itself: 1 + |m| + |x/(1 +
    (1 - q) x)| for q_exp, 1 + |m| for kappa_exp, and 1 + |s| for the
    logarithms, s = (1 - q) ln x or kappa ln x."""

    @given(x=SIGNED_X, d=DEFORMATION)
    def test_q_exp(self, x, d):
        q = 1.0 - d
        with mpmath.workdps(50):
            om = 1 - mpmath.mpf(q)
            t = om * x
            if 1 + t <= 0:
                assert q_exp(x, q) == 0.0  # the cutoff
                return
            m = mpmath.log1p(t) / om if om else mpmath.mpf(x)
            cond = 1.0 + abs(float(m)) + abs(float(x / (1 + t)))
            _agrees(lambda: q_exp(x, q), mpmath.exp(m), cond)

    @given(x=POSITIVE_X, d=DEFORMATION)
    def test_q_log(self, x, d):
        q = 1.0 - d
        with mpmath.workdps(50):
            om = 1 - mpmath.mpf(q)
            s = om * mpmath.log(x)
            want = mpmath.expm1(s) / om if om else mpmath.log(x)
            _agrees(lambda: q_log(x, q), want, 1.0 + abs(float(s)))

    @given(x=SIGNED_X, kappa=DEFORMATION)
    def test_kappa_exp(self, x, kappa):
        with mpmath.workdps(50):
            m = mpmath.asinh(kappa * mpmath.mpf(x)) / kappa
            _agrees(lambda: kappa_exp(x, kappa), mpmath.exp(m), 1.0 + abs(float(m)))

    @given(x=POSITIVE_X, kappa=DEFORMATION)
    def test_kappa_log(self, x, kappa):
        with mpmath.workdps(50):
            s = kappa * mpmath.log(x)
            _agrees(lambda: kappa_log(x, kappa), mpmath.sinh(s) / kappa, 1.0 + abs(float(s)))

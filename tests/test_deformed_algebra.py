import math

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
            st.floats(-1e-11, 1e-11).map(lambda d: 1.0 + d),  # either side of CLASSICAL_EPS
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
            st.floats(-1e-11, 1e-11).map(lambda d: 1.0 + d),  # either side of CLASSICAL_EPS
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
            st.floats(-1e-11, 1e-11),  # either side of CLASSICAL_EPS
            st.just(0.0),
        ),
    )
    def test_array_has_the_bits_of_each_point(self, x, kappa):
        want = np.array([kappa_exp(v, kappa) for v in x])
        got = kappa_exp(np.array(x), kappa)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert kappa_exp(np.array(x).reshape(-1, 1), kappa).shape == (len(x), 1)

    def test_classical_branch_over_an_array(self):
        xs = [0.0, 1.0, -2.5]
        assert kappa_exp(np.array(xs), 0.0).tolist() == [math.exp(v) for v in xs]


class TestKappaLog:
    def test_at_one(self):
        for kappa in (0.0, 0.5):
            assert kappa_log(1.0, kappa) == 0.0

    def test_classical(self):
        assert kappa_log(math.e, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_of_kappa_exp_example(self):
        assert kappa_log(1.0 + math.sqrt(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_log(0.0, 0.5)

    @given(x=st.floats(-0.5, 2.0), kappa=st.sampled_from([0.2, 0.7, 1.0]))
    def test_round_trip(self, x, kappa):
        assert kappa_log(kappa_exp(x, kappa), kappa) == pytest.approx(x, abs=1e-11)


def test_parameters_must_be_finite():
    with pytest.raises(ValueError):
        QParam(math.nan)
    with pytest.raises(ValueError):
        KappaParam(math.inf)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defcalc import (
    DegenerateInput,
    DomainError,
    HausdorffParams,
    MappingResult,
    QParam,
    RealFunction,
    SeriesExpansion,
    conformable_hausdorff_check,
    expand_hausdorff_prefactor,
    first_order_agreement,
    gamma,
    hausdorff_derivative,
    kappa_expansion,
    q_derivative,
    q_from_zeta,
    zeta_from_q,
    yang_hausdorff_check,
)

CORPUS = [RealFunction.from_expression(src) for src in ("x", "x^2", "sin(x)", "exp(x)")]


class TestExpandHausdorffPrefactor:
    def test_zeta_one_truncates_to_unity(self):
        expansion = expand_hausdorff_prefactor(HausdorffParams(1.0, 1.0), 6)
        assert expansion.coefficients[0] == 1.0
        assert all(c == 0.0 for c in expansion.coefficients[1:])

    def test_leading_coefficients(self):
        expansion = expand_hausdorff_prefactor(HausdorffParams(0.5, 1.0), 4)
        assert expansion.coefficients[0] == 1.0
        assert expansion.coefficients[1] == pytest.approx(0.5, rel=1e-15)
        assert expansion.coefficients[2] == pytest.approx(-0.125, rel=1e-15)

    def test_partial_sums_converge_to_closed_form(self):
        hp = HausdorffParams(0.5, 1.0)
        value = expand_hausdorff_prefactor(hp, 20).evaluate(0.5)
        assert value == pytest.approx(1.5**0.5, abs=1e-6)

    def test_thirty_terms_at_half_radius(self):
        for zeta in (0.3, 0.5, 0.8):
            hp = HausdorffParams(zeta, 1.0)
            closed = 1.5 ** (1.0 - zeta)
            value = expand_hausdorff_prefactor(hp, 30).evaluate(0.5)
            assert abs(value - closed) <= 1e-8

    def test_coefficients_past_the_double_range_are_rejected(self):
        # l0^-2 = 1e600: Python's ** raises, the coefficient is inf
        with pytest.raises(ValueError, match="coefficients must be finite"):
            expand_hausdorff_prefactor(HausdorffParams(0.5, 1e-300), 5)
        # zeta = 1: C(0, k) = 0 for k >= 1 stays 0
        expansion = expand_hausdorff_prefactor(HausdorffParams(1.0, 1e-300), 3)
        assert expansion.coefficients == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("hp", [
        HausdorffParams(1.0, 1.0),  # C(0, k) for k >= 2 is 0.0 times a negative ratio
        HausdorffParams(1.0, 1e-300),
        HausdorffParams(0.5, 1e300),  # l0^-k underflows to 0.0
    ])
    def test_exact_zeros_are_positive(self, hp):
        coefficients = expand_hausdorff_prefactor(hp, 6).coefficients
        assert 0.0 in coefficients
        assert all(math.copysign(1.0, c) == 1.0 for c in coefficients if c == 0.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            expand_hausdorff_prefactor(HausdorffParams(0.5, 1.0), 0)


class TestMapping:
    def test_limit_zeta_one(self):
        for l0 in (0.5, 1.0, 3.0):
            assert q_from_zeta(HausdorffParams(1.0, l0)).q == 1.0

    def test_limit_q_zero(self):
        for l0 in (0.3, 1.0, 2.0):
            assert zeta_from_q(0.0, l0).zeta == 1.0 - l0

    def test_limit_large_cutoff(self):
        assert abs(q_from_zeta(HausdorffParams(0.5, 1e12)).q - 1.0) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            zeta = float(rng.uniform(-1.0, 1.5))
            l0 = float(rng.uniform(0.1, 10.0))
            q = q_from_zeta(HausdorffParams(zeta, l0)).q
            assert abs(zeta_from_q(q, l0).zeta - zeta) <= 1e-15
            assert abs(q_from_zeta(HausdorffParams(zeta_from_q(q, l0).zeta, l0)).q - q) <= 1e-15

    def test_algebraic_inverse_example(self):
        result = zeta_from_q(0.63, 1.7)
        assert q_from_zeta(HausdorffParams(result.zeta, 1.7)).q == pytest.approx(
            0.63, abs=1e-15
        )

    def test_residual_bound_field(self):
        result = q_from_zeta(HausdorffParams(0.5, 1.0))
        assert result.first_order_residual_bound == pytest.approx(0.125, rel=1e-15)

    def test_result_invariant_enforced(self):
        # 1 - q = 0.5 but (1 - zeta)/l0 = 0.1
        with pytest.raises(ValueError):
            MappingResult(q=0.5, zeta=0.9, l0=1.0, first_order_residual_bound=0.0)

    def test_l0_validation(self):
        with pytest.raises(ValueError):
            zeta_from_q(0.5, 0.0)

    @pytest.mark.parametrize("l0", [math.nan, math.inf, -math.inf])
    def test_non_finite_l0_rejected(self, l0):
        with pytest.raises(ValueError, match="l0"):
            zeta_from_q(QParam(0.5), l0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected(self, q):
        with pytest.raises(ValueError, match="q must be finite"):
            zeta_from_q(q, 1.0)

    @pytest.mark.parametrize("field", ["q", "zeta", "l0", "first_order_residual_bound"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_result_fields_must_be_finite(self, field, value):
        fields = {"q": 0.5, "zeta": 0.5, "l0": 1.0, "first_order_residual_bound": 0.125}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MappingResult(**{**fields, field: value})

    def test_bound_past_the_double_range_is_rejected(self):
        # (1 - zeta) zeta and 2 l0^2 both overflow: inf / inf
        with pytest.raises(ValueError, match="^first_order_residual_bound must be finite, got nan"):
            zeta_from_q(0.5, 1e300)
        # 2 l0^2 underflows to 0: the bound is inf, not a ZeroDivisionError
        with pytest.raises(ValueError, match="^first_order_residual_bound must be finite, got inf"):
            q_from_zeta(HausdorffParams(0.5, 1e-300))
        with pytest.raises(ValueError, match="^q must be finite, got inf"):
            q_from_zeta(HausdorffParams(1e300, 1e-10))

    def test_bound_below_the_normal_range(self):
        # 2 l0^2 = 2e-320 is subnormal; dividing by l0 twice keeps the digits
        result = q_from_zeta(HausdorffParams(1e-20, 1e-160))
        assert result.first_order_residual_bound == pytest.approx(5e299, rel=1e-15)
        assert q_from_zeta(HausdorffParams(1.0, 1e-300)).first_order_residual_bound == 0.0


class TestFirstOrderAgreement:
    def test_zero_point(self):
        agreement = first_order_agreement(HausdorffParams(0.5, 1.0), 0.0)
        assert agreement.residual == 0.0

    def test_second_order_coefficient_dominates(self):
        agreement = first_order_agreement(HausdorffParams(0.5, 1.0), 1e-3)
        c2x2 = 0.125e-6
        assert abs(agreement.residual - c2x2) <= 0.1 * c2x2

    def test_zeta_one_is_exact(self):
        for x in (0.0, 0.3, 0.9):
            assert first_order_agreement(HausdorffParams(1.0, 1.0), x).residual == 0.0

    def test_series_regime_required(self):
        with pytest.raises(DomainError):
            first_order_agreement(HausdorffParams(0.5, 1.0), 1.0)

    @given(zeta=st.floats(0.01, 4.0, exclude_min=True, exclude_max=True),
           l0=st.floats(1e-2, 1e2),
           u=st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True))
    @example(zeta=0.9, l0=1.0, u=-0.9)  # 0.1157 against the old "bound" 0.0693
    @example(zeta=3.5, l0=1.0, u=-0.998)
    @example(zeta=1.9, l0=1.0, u=-0.1)
    @settings(max_examples=200)
    def test_residual_within_the_lagrange_bound(self, zeta, l0, u):
        mpmath = pytest.importorskip("mpmath")
        x = u * l0
        got = first_order_agreement(HausdorffParams(zeta, l0), x)
        # expm1 and log1p keep their relative precision at small u; the bits
        # of 1/|u| are lost once to the cancellation against (1 - z) u, and
        # once more to the gap of order u^3 between the residual and the bound
        with mpmath.workprec(120 + 2 * max(0, -math.frexp(u)[1])):
            v, z = mpmath.mpf(x) / mpmath.mpf(l0), mpmath.mpf(zeta)
            bound = abs((1 - z) * z) / 2 * v**2 * max(1, mpmath.exp((-1 - z) * mpmath.log1p(v)))
            assert abs(mpmath.expm1((1 - z) * mpmath.log1p(v)) - (1 - z) * v) <= bound
            # the float residual also carries the rounding of 1 + x/l0 raised
            # to the power 1 - zeta, and of both prefactors
            assert got.residual <= bound + 8 * math.ulp(got.hausdorff_prefactor)

    @given(zeta=st.floats(0.01, 4.0, exclude_min=True, exclude_max=True),
           l0=st.floats(1e-2, 1e2),
           u=st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True))
    @example(zeta=0.9, l0=1.0, u=-0.9)
    @example(zeta=3.999, l0=100.0, u=-0.998)
    @example(zeta=1.0 + 2.0**-40, l0=100.0, u=0.99)
    @settings(max_examples=200)
    def test_bound_field_is_the_lagrange_bound(self, zeta, l0, u):
        """``bound`` is the docstring's bound to a few roundings, and holds
        for the float residual with 4 ulp of the prefactor to spare."""
        mpmath = pytest.importorskip("mpmath")
        x = u * l0
        got = first_order_agreement(HausdorffParams(zeta, l0), x)
        with mpmath.workdps(40):
            v, z = mpmath.mpf(x) / mpmath.mpf(l0), mpmath.mpf(zeta)
            want = abs((1 - z) * z) / 2 * v**2 * max(1, (1 + v) ** (-1 - z))
            # 1 + x/l0 is rounded once, and the power multiplies its relative
            # error by (1 + zeta) / (1 + u); u^2 below the normal doubles
            # loses digits to underflow
            tol = 8 * 2.0**-53 * (1 + (1 + zeta) / (1 + u))
            assert abs(got.bound - want) <= tol * want + 2.0**-1022
        assert got.residual <= got.bound + 4 * math.ulp(got.hausdorff_prefactor)

    def test_bound_past_the_double_range_is_inf(self):
        # where one factor passes the double range the bound is inf, never nan
        assert first_order_agreement(HausdorffParams(1e300, 1.0), 0.0).bound == 0.0
        assert first_order_agreement(HausdorffParams(1e300, 1.0), 0.5).bound == math.inf
        # 2^1023.5 and 2^1025.5: the prefactor is finite, the last factor is not
        assert first_order_agreement(HausdorffParams(1024.5, 1.0), -0.5).bound == math.inf

    @pytest.mark.parametrize("zeta,x", [(1e20, -0.5), (-1e20, 0.5), (1026.0, -0.5)])
    def test_prefactor_past_the_double_range_raises(self, zeta, x):
        # 0.5^(1 - 1e20) and 1.5^(1 + 1e20) pass the double range, and so
        # does 0.5^-1025; the error names the prefactor and the point
        with pytest.raises(DomainError, match=r"prefactor .* passes the double range at x/l0 = "):
            first_order_agreement(HausdorffParams(zeta, 1.0), x)

    def test_dominance_inside_hundredth_radius(self):
        for zeta in (0.3, 0.5, 0.8):
            for l0 in (0.5, 1.0, 2.0):
                hp = HausdorffParams(zeta, l0)
                c2 = abs((1.0 - zeta) * zeta) / (2.0 * l0 * l0)
                for x in np.linspace(1e-5 * l0, 0.01 * l0, 7):
                    x = float(x)
                    residual = first_order_agreement(hp, x).residual
                    assert residual <= 1.1 * c2 * x * x


class TestOperatorLevelFirstOrder:
    def test_q_derivative_is_first_order_hausdorff(self):
        for zeta, l0 in ((0.4, 1.0), (0.9, 2.0)):
            hp = HausdorffParams(zeta, l0)
            q = q_from_zeta(hp).q
            c2 = abs((1.0 - zeta) * zeta) / (2.0 * l0 * l0)
            for f in CORPUS:
                for x in np.linspace(0.0, 0.01 * l0, 11):
                    x = float(x)
                    lhs = q_derivative(f, x, q)
                    rhs = hausdorff_derivative(f, x, hp)
                    bound = 1.1 * c2 * x * x * abs(f.derivative(x))
                    assert abs(lhs - rhs) <= bound + 1e-15


class TestKappaExpansion:
    def test_unit_leading_coefficient(self):
        for kappa in (0.2, 1.0):
            assert kappa_expansion(kappa, 4).coefficients[0] == 1.0

    def test_known_coefficients(self):
        expansion = kappa_expansion(1.0, 4)
        assert expansion.coefficients[2] == pytest.approx(0.5, rel=1e-15)
        assert expansion.coefficients[4] == pytest.approx(-0.125, rel=1e-15)

    def test_odd_coefficients_exactly_zero(self):
        expansion = kappa_expansion(0.7, 11)
        assert all(expansion.coefficients[k] == 0.0 for k in range(1, 12, 2))

    def test_partial_sums_match_prefactor(self):
        kappa = 0.5
        value = kappa_expansion(kappa, 40).evaluate(0.8)
        assert value == pytest.approx(math.sqrt(1.0 + kappa**2 * 0.8**2), abs=1e-9)

    def test_coefficients_past_the_double_range_are_rejected(self):
        # kappa^4 = 1e400: Python's ** raises, the coefficient is inf
        with pytest.raises(ValueError, match="coefficients must be finite"):
            kappa_expansion(1e200, 4)
        assert kappa_expansion(1e100, 2).coefficients == (1.0, 0.0, 0.5e200)

    def test_exact_zeros_are_positive(self):
        # kappa^4 underflows to 0.0 under C(1/2, 2) = -0.125
        assert [c.hex() for c in kappa_expansion(1e-200, 6).coefficients] == (
            [(1.0).hex()] + [(0.0).hex()] * 6)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            kappa_expansion(0.5, 1)


@pytest.mark.parametrize("expand", [
    lambda order: expand_hausdorff_prefactor(HausdorffParams(0.5, 1.0), order),
    lambda order: kappa_expansion(0.5, order),
], ids=["hausdorff", "kappa"])
def test_order_cap(expand):
    assert len(expand(1_000_000).coefficients) == 1_000_001
    with pytest.raises(ValueError, match="^order must be <= 1000000, got 1000001$"):
        expand(1_000_001)


def _product_binomial(alpha, k):
    """C(alpha, k) as the falling-factorial product, written out."""
    c = 1.0
    for i in range(k):
        c *= (alpha - i) / (i + 1.0)
    return c


@pytest.mark.parametrize("order", [2, 3, 41, 20_000])
def test_expansions_have_the_bits_of_the_product(order):
    """Every coefficient of both expansions, at sampled k up to ``order``,
    has the bits of the falling-factorial product times the power."""
    hp, kappa = HausdorffParams(0.37, 1.0001), 0.9999  # powers of 1e-4 stay in range
    hausdorff = expand_hausdorff_prefactor(hp, order).coefficients
    kappas = kappa_expansion(kappa, order).coefficients
    assert len(hausdorff) == len(kappas) == order + 1
    for k in sorted({0, 1, order - 1, order, *range(0, order, max(1, order // 40))}):
        assert hausdorff[k].hex() == (_product_binomial(1.0 - hp.zeta, k) * hp.l0**-k).hex()
        want = _product_binomial(0.5, k // 2) * kappa**k if k % 2 == 0 else 0.0
        assert kappas[k].hex() == want.hex()


class TestConformableHausdorffCheck:
    def test_classical_alpha(self):
        result = conformable_hausdorff_check(1.0, 1.0, "exp(x)", 0.7)
        assert result.rel_diff <= 1e-10

    def test_linear_function_hand_value(self):
        result = conformable_hausdorff_check(0.5, 1.0, "x", 3.0)
        assert result.lhs == pytest.approx(2.0, rel=1e-9)
        assert result.rhs == pytest.approx(2.0, rel=1e-14)

    def test_exponential(self):
        result = conformable_hausdorff_check(0.7, 2.0, "exp(x)", 1.0)
        assert result.rel_diff <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            conformable_hausdorff_check(0.5, 1.0, "x", -1.5)


class TestYangHausdorffCheck:
    def test_alpha_one(self):
        assert yang_hausdorff_check(1.0, HausdorffParams(1.0, 1.0), "exp(x)", 0.5) == (
            pytest.approx(1.0, rel=1e-12)
        )

    def test_half(self):
        ratio = yang_hausdorff_check(0.5, HausdorffParams(0.5, 1.0), "x", 1.0)
        assert ratio == pytest.approx(gamma(1.5), rel=1e-12)

    def test_ratio_independent_of_function_and_point(self):
        ratios = [
            yang_hausdorff_check(0.5, HausdorffParams(0.5, 1.0), f, x)
            for f in (CORPUS[0], CORPUS[2], CORPUS[3])
            for x in np.linspace(0.1, 1.4, 11)
        ]
        assert max(ratios) - min(ratios) <= 1e-10

    def test_central_difference_where_f_has_no_derivative(self):
        f = RealFunction(value=math.sin)
        ratio = yang_hausdorff_check(0.5, HausdorffParams(0.5, 1.0), f, 1.0)
        assert ratio == pytest.approx(gamma(1.5), rel=1e-12)

    def test_degenerate_slope(self):
        with pytest.raises(DegenerateInput):
            yang_hausdorff_check(0.5, HausdorffParams(0.5, 1.0), "x^2", 0.0)


def test_series_expansion_validation():
    with pytest.raises(ValueError):
        SeriesExpansion((1.0, math.inf))
    series = SeriesExpansion((1.0, 2.0, 3.0))
    assert series.evaluate(1.0) == 6.0
    assert series.evaluate(2.0) == 17.0

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from defcalc import (
    Classical,
    Conformable,
    DiffSettings,
    DomainError,
    EvaluationError,
    GrunwaldJumarie,
    HausdorffParams,
    KappaParam,
    PoleError,
    QParam,
    RealFunction,
    YangLFD,
    classical_derivative,
    conformable_derivative,
    evaluate_kind,
    gamma,
    gl_jumarie_derivative,
    hausdorff_derivative,
    hausdorff_quotient,
    jumarie_taylor_eval,
    kaniadakis_derivative,
    q_derivative,
    q_derivative_quotient,
    q_exp,
    rl_power_rule,
    yang_lfd,
)
from defcalc import DefcalcError, derivative_ops, q_difference
from defcalc.derivative_ops import gl_weights
from defcalc.function_catalog import to_source
from exprgen import SAMPLE_POINTS, generate
from gl_reference import gl_chain_by_chain, gl_lattice_by_point, lattice_point

EPS = float(np.finfo(float).eps)

CORPUS = [
    RealFunction.from_expression(src) for src in ("x", "x^2", "sin(x)", "exp(x)")
]
# avoids the zeros of every corpus derivative, so relative comparisons are safe
GRID = [float(x) for x in np.linspace(0.1, 2.1, 21)]


def _chain_length(x, h):
    return lattice_point(x, h)[0]


def q_exp_function(q):
    return RealFunction(
        value=lambda x: q_exp(x, q), derivative=lambda x: q_exp(x, q) ** q
    )


class TestClassicalDerivative:
    def test_square(self):
        assert classical_derivative("x^2", 3.0) == pytest.approx(6.0, abs=1e-10)

    def test_sin_at_zero(self):
        assert classical_derivative("sin(x)", 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_exp(self):
        assert classical_derivative("exp(x)", 1.0) == pytest.approx(math.e, rel=1e-8)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            DiffSettings(base_step=-1.0)
        with pytest.raises(ValueError):
            DiffSettings(richardson_levels=0)
        with pytest.raises(ValueError):
            DiffSettings(richardson_levels=7)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_settings_reject_non_finite(self, value):
        with pytest.raises(ValueError, match="base_step"):
            DiffSettings(base_step=value)


class TestQDerivative:
    def test_classical_reduction(self):
        for f in CORPUS:
            for x in GRID[::5]:
                assert q_derivative(f, x, 1.0) == pytest.approx(f.derivative(x), rel=1e-14)

    def test_eigenfunction(self):
        f = q_exp_function(0.5)
        assert q_derivative(f, 1.0, 0.5) == pytest.approx(q_exp(1.0, 0.5), rel=1e-12)

    def test_linear_prefactor(self):
        assert q_derivative("x", 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)


class TestQDerivativeQuotient:
    def test_classical_square(self):
        assert q_derivative_quotient("x^2", 1.0, 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_matches_closed_form(self):
        assert q_derivative_quotient("x", 2.0, 0.5) == pytest.approx(2.0, rel=1e-8)

    def test_eigenfunction_check(self):
        f = q_exp_function(0.7)
        assert q_derivative_quotient(f, 0.5, 0.7) == pytest.approx(
            q_exp(0.5, 0.7), rel=1e-8
        )

    def test_probe_hits_singularity(self):
        # q = 2 puts the singular line at y = 1; the first probe x - base_step lands on it
        with pytest.raises(DomainError):
            q_derivative_quotient("x", 1.5, 2.0, DiffSettings(base_step=0.5))


class TestHausdorffDerivative:
    def test_classical_reduction(self):
        hp = HausdorffParams(1.0, 1.0)
        for f in CORPUS:
            for x in GRID[::5]:
                assert hausdorff_derivative(f, x, hp) == pytest.approx(
                    f.derivative(x), rel=1e-14
                )

    def test_prefactor_value(self):
        assert hausdorff_derivative("x", 1.0, HausdorffParams(0.5, 1.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_quotient_route_chain_rule(self):
        # closed form (x/l0+1)^(1-z) f' vs measure-coordinate quotient x^(1-z) f'/z
        value = hausdorff_quotient("x", 1.0, 0.5)
        assert value == pytest.approx(1.0 * 1.0 / 0.5, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            hausdorff_derivative("x", -1.0, HausdorffParams(0.5, 1.0))


class TestHausdorffQuotient:
    def test_identity_in_measure_coordinate(self):
        for x in (0.3, 1.0, 2.0):
            assert hausdorff_quotient("x^0.5", x, 0.5) == pytest.approx(1.0, rel=1e-8)

    def test_classical_reduction(self):
        assert hausdorff_quotient("x^2", 1.5, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            hausdorff_quotient("x", 0.0, 0.5)

    def test_probe_steps_lost_to_round_off(self):
        # at x = 5e-324 the probe base x/4 rounds to 0: the same typed error at
        # a float x and over an array, where its index names the x
        with pytest.raises(DomainError, match="probe step is lost to round-off") as at_x:
            hausdorff_quotient("x^2", 5e-324, 0.5)
        with pytest.raises(DomainError) as over_grid:
            hausdorff_quotient("x^2", np.array([5e-324, 1.0]), 0.5)
        assert (str(over_grid.value), over_grid.value.index) == (str(at_x.value), 0)
        # x - h == x for every probe step at x = 1e20
        with pytest.raises(DomainError, match="probe step is lost to round-off"):
            q_derivative_quotient("x", 1e20, 0.5)

    def test_chain_rule_below_the_base_step(self):
        # x^(1-zeta) f'(x) / zeta, at x where a probe x + base_step would be far from x
        xs = np.array([1e-6, 1e-3, 1e-2])
        expected = xs**0.5 * 2.0 * xs / 0.5
        assert hausdorff_quotient("x^2", xs, 0.5) == pytest.approx(expected, rel=1e-8)
        for x, value in zip(xs, expected):
            assert hausdorff_quotient("x^2", float(x), 0.5) == pytest.approx(value, rel=1e-8)


class TestKaniadakisDerivative:
    def test_classical_reduction(self):
        for f in CORPUS:
            for x in GRID[::5]:
                assert kaniadakis_derivative(f, x, 0.0) == pytest.approx(
                    f.derivative(x), rel=1e-14
                )

    def test_prefactor_value(self):
        assert kaniadakis_derivative("x", 1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_eigenfunction_grid(self):
        kappa = 0.5
        f = RealFunction(
            value=lambda x: (kappa * x + math.sqrt(1 + kappa**2 * x**2)) ** (1 / kappa),
            derivative=lambda x: (kappa * x + math.sqrt(1 + kappa**2 * x**2)) ** (1 / kappa)
            / math.sqrt(1 + kappa**2 * x**2),
        )
        for x in np.linspace(0.0, 2.0, 21):
            x = float(x)
            assert kaniadakis_derivative(f, x, kappa) == pytest.approx(f(x), rel=1e-6)


class TestConformableDerivative:
    def test_classical_reduction(self):
        for f in CORPUS:
            assert conformable_derivative(f, 1.3, 1.0) == pytest.approx(
                f.derivative(1.3), rel=1e-8
            )

    def test_power_prefactor(self):
        assert conformable_derivative("x", 4.0, 0.5) == pytest.approx(2.0, rel=1e-9)

    def test_eigenfunction(self):
        alpha = 0.5
        f = RealFunction(value=lambda t: math.exp(t**alpha / alpha))
        assert conformable_derivative(f, 1.0, alpha) == pytest.approx(
            math.exp(2.0), rel=1e-8
        )

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_probe_steps_stay_near_small_t(self, alpha):
        # each probe t + eps t^(1-alpha) stays within t/4: with eps up to
        # base_step alone it reached 1.6e-3 at t = 1e-8, and the worst error
        # here was 0.97
        t = np.geomspace(1e-8, 1e-2, 400)
        exact = t ** (1.0 - alpha) * 0.5 / np.sqrt(t)
        assert np.max(np.abs(conformable_derivative("x^0.5", t, alpha) / exact - 1.0)) <= 1e-7

    def test_domain_and_validation(self):
        with pytest.raises(DomainError):
            conformable_derivative("x", 0.0, 0.5)
        with pytest.raises(ValueError):
            conformable_derivative("x", 1.0, 1.5)


class TestClosedVersusQuotient:
    """Both routes agree on the smooth corpus inside each operator's domain."""

    def test_q_operator(self):
        for f in CORPUS:
            for x in GRID:
                closed = q_derivative(f, x, 0.5)
                quotient = q_derivative_quotient(f, x, 0.5)
                assert abs(closed - quotient) <= 1e-6 * abs(closed)

    def test_hausdorff_measure_quotient(self):
        zeta = 0.5
        for f in CORPUS:
            for x in GRID:
                chain_rule = x ** (1.0 - zeta) * f.derivative(x) / zeta
                quotient = hausdorff_quotient(f, x, zeta)
                assert abs(chain_rule - quotient) <= 1e-6 * abs(chain_rule)

    def test_conformable(self):
        alpha = 0.5
        for f in CORPUS:
            for x in GRID:
                closed = x ** (1.0 - alpha) * f.derivative(x)
                quotient = conformable_derivative(f, x, alpha)
                assert abs(closed - quotient) <= 1e-6 * abs(closed)


@st.composite
def _gl_grids(draw):
    """(xs, h): a grid whose steps are whole multiples of h and whose start
    lies on the h-lattice (x = 0 included) or off it, or sorted x anywhere in
    [0, 1.5]."""
    h = draw(st.sampled_from([0.1, 0.01, 1e-3]) | st.floats(1e-3, 0.2))
    if draw(st.booleans()):
        start = draw(st.integers(0, 200)) + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))
        stride = draw(st.integers(0, 40))
        return (start + stride * np.arange(draw(st.integers(1, 12)))) * h, h
    xs = draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=12))
    return np.array(sorted(xs)), h


@st.composite
def _residue_grids(draw):
    """(xs, h): points (t + r) h, t in 0..400, in any order, with residues r
    from up to four classes; classes apart by a few 1e-14 lie within the
    residue tolerance of each other, or chain past it."""
    h = draw(st.sampled_from([0.1, 1e-3]) | st.floats(1e-3, 0.2))
    base = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.9))
    step = draw(st.sampled_from([0.0, 2e-14, 6e-14, 2e-13, 0.03]))
    classes = [base + step * k for k in range(draw(st.integers(1, 4)))]
    ts = draw(st.lists(st.integers(0, 400), min_size=1, max_size=30))
    picks = draw(st.lists(st.sampled_from(classes), min_size=len(ts), max_size=len(ts)))
    return (np.array(ts) + np.array(picks)) * h, h


def _recorded(calls):
    def f(t):
        calls.append(np.array(t, dtype=float))
        return np.cos(3.0 * t) + np.sqrt(t)

    return RealFunction.from_callable(f)


class TestGrunwaldJumarie:
    def test_alpha_one_is_backward_difference(self):
        assert gl_jumarie_derivative("x^2", 1.0, 1.0, 1e-4) == pytest.approx(2.0, abs=1e-3)

    def test_power_rule_half(self):
        expected = gamma(2.0) / gamma(1.5)  # 2/sqrt(pi)
        value = gl_jumarie_derivative("x", 1.0, 0.5, 1e-4)
        assert value == pytest.approx(expected, rel=1e-3)

    def test_constant_decays_as_power(self):
        c = 3.0
        value = gl_jumarie_derivative(lambda t: c, 1.0, 0.5, 1e-4)
        assert value == pytest.approx(c / gamma(0.5), rel=1e-3)

    def test_weights_recurrence(self):
        # (-1)^k C(1/2, k) = C(2k, k) / (4^k (1 - 2k)) in closed form
        w = gl_weights(0.5, 6)
        expected = [math.comb(2 * k, k) / (4.0**k * (1.0 - 2.0 * k)) for k in range(7)]
        assert np.allclose(w, expected, rtol=1e-13)

    def test_chain_cap(self):
        full = gl_jumarie_derivative("x", 2.0, 0.5, 0.25)
        capped = gl_jumarie_derivative("x", 2.0, 0.5, 0.25, n_terms=3)
        assert full != capped

    def test_validation(self):
        with pytest.raises(DomainError):
            gl_jumarie_derivative("x", -0.5, 0.5, 1e-3)
        with pytest.raises(ValueError):
            gl_jumarie_derivative("x", 1.0, 1.5, 1e-3)
        with pytest.raises(ValueError):
            gl_jumarie_derivative("x", 1.0, 0.5, 0.0)


    def test_origin_node_on_the_lattice(self):
        # 0.6 / 0.1 = 5.999999999999999: the chain still has its 7 nodes, down to 0
        expected = 0.1**-0.5 * float(np.sum(gl_weights(0.5, 6)))
        assert gl_jumarie_derivative("1", 0.6, 0.5, 0.1) == pytest.approx(expected, rel=1e-15)
        # 0.3 - 3 * 0.1 = -5.6e-17 is clamped to 0 instead of failing in the square root
        assert gl_jumarie_derivative("x^0.5", 0.3, 0.5, 0.1) > 0.0

    @given(m=st.integers(1, 3000), h=st.floats(1e-3, 1.0), alpha=st.floats(0.05, 1.0))
    def test_chain_length_on_the_lattice(self, m, h, alpha):
        accumulated = 0.0
        for _ in range(m):
            accumulated += h
        variants = (
            m * h,
            accumulated,
            math.fsum([h] * m),
            float(np.linspace(0.0, 2 * m * h, 2 * m + 1)[m]),
            (10.0 * m * h) / 10.0,
        )
        # with f = 1 the sum is h^-alpha times the sum of the first n + 1
        # weights, so equal values mean equal chain lengths n = m
        expected = h**-alpha * np.dot(gl_weights(alpha, m), np.ones(m + 1))
        for x in variants:
            assert gl_jumarie_derivative("1", x, alpha, h) == expected
            gl_jumarie_derivative("x^0.5", x, alpha, h)  # no node below 0

    def test_scalar_only_callable(self):
        f = RealFunction.from_callable(math.sqrt)  # math.sqrt rejects arrays
        alpha, h = 0.5, 0.1
        for x in (0.3, 0.55):
            expected, bound = gl_chain_by_chain(f, x, alpha, h, slope=lambda t: 0.5 / np.sqrt(t))
            assert abs(gl_jumarie_derivative(f, x, alpha, h) - expected[0]) <= bound[0]
        xs = np.array([0.25, 0.3, 0.55])
        expected, bound = gl_chain_by_chain(f, xs, alpha, h, slope=lambda t: 0.5 / np.sqrt(t))
        assert np.all(np.abs(gl_jumarie_derivative(f, xs, alpha, h) - expected) <= bound)

    def test_long_chain_within_the_bound(self):
        # x = 2, h = 1e-4: 20,001 nodes, summed in three slices
        f = RealFunction.from_expression("sin(x) + x^2")
        expected, bound = gl_chain_by_chain(f, 2.0, 0.5, 1e-4, slope=f.derivative)
        assert abs(gl_jumarie_derivative(f, 2.0, 0.5, 1e-4) - expected[0]) <= bound[0]

    def test_chains_up_to_one_slice_keep_the_plain_dot(self):
        w, v = gl_weights(0.5, 9_999), np.cos(np.arange(10_000.0))
        assert derivative_ops._chain_sum(w, v[::-1]) == np.dot(w, v[::-1])

    def test_grid_equals_point_by_point(self):
        # x = 1/22 j: the points j and j + 11 share a residue, 4/11 of them the lattice
        f = RealFunction.from_expression("x^2 + exp(-x)")
        xs = np.linspace(0.0, 1.0, 23)
        pointwise = [gl_jumarie_derivative(f, float(x), 0.7, 1e-2) for x in xs]
        _, bound = gl_chain_by_chain(f, xs, 0.7, 1e-2, slope=f.derivative)
        assert np.all(np.abs(gl_jumarie_derivative(f, xs, 0.7, 1e-2) - pointwise) <= bound)

    def test_failing_chain_carries_its_grid_index(self):
        # the chain at xs[3] = 0.8 is the first with a node where 0.75 - x < 0;
        # the expression's own index (the node's place in the chain) is replaced
        with pytest.raises(EvaluationError, match="sqrt undefined") as err:
            gl_jumarie_derivative("sqrt(0.75-x)", np.linspace(0.5, 1.0, 6), 0.5, 0.1)
        assert err.value.index == 3

    def test_failure_names_the_first_failing_chain(self):
        # sqrt fails inside (0.25, 0.35).  The first chain to enter that gap is
        # the one at xs[2] = 0.4, and it meets 34 h = 0.34 first; the smallest
        # failing node over all chains is 26 h = 0.26, the one a call on the
        # sorted distinct nodes names first.  Every chain is on the lattice.
        fn, xs, h = "sqrt((x-0.25)*(x-0.35))", np.linspace(0.0, 0.6, 4), 0.01
        with pytest.raises(EvaluationError) as err:
            gl_jumarie_derivative(fn, xs, 0.5, h)
        assert str(err.value) == "sqrt undefined for argument (-0.0008999999999999961,)"
        assert err.value.index == 2
        nodes = [h * (t - np.arange(t + 1.0)) for t in (_chain_length(x, h) for x in xs)]
        with pytest.raises(EvaluationError, match=r"\(-0.0009000000000000005,\)"):
            RealFunction.from_expression(fn)(np.unique(np.concatenate(nodes)))

    @given(grid=_gl_grids(), alpha=st.floats(0.0, 1.0, exclude_min=True),
           n_terms=st.none() | st.integers(1, 60), scalar_only=st.booleans())
    # one lattice from x = 5e-4 to 10: its nodes must be those of the chain
    # nearest the origin, whose residue has the least round-off
    @example(grid=((0.5 + 1000 * np.arange(11)) * 1e-3, 1e-3), alpha=0.5, n_terms=None,
             scalar_only=False)
    # x/h = 2 + 1e-9 counts as on the lattice: f sees 0, h and 2h, not x - kh
    @example(grid=(np.array([(2 + 1e-9) * 0.1]), 0.1), alpha=0.5, n_terms=None,
             scalar_only=False)
    def test_grid_equals_the_direct_sum(self, grid, alpha, n_terms, scalar_only):
        xs, h = grid
        calls = []

        def counted(t):
            calls.append(np.array(t, dtype=float))
            return np.cos(3.0 * t) + np.sqrt(t)

        f = RealFunction.from_callable(
            (lambda t: math.cos(3.0 * t) + math.sqrt(t)) if scalar_only else counted)
        direct, bound = gl_chain_by_chain(
            f, xs, alpha, h, n_terms, size=lambda t: np.abs(np.cos(3.0 * t)) + np.sqrt(t),
            slope=lambda t: -3.0 * np.sin(3.0 * t) + 0.5 / np.sqrt(t))
        calls.clear()
        assert np.all(np.abs(gl_jumarie_derivative(f, xs, alpha, h, n_terms) - direct) <= bound)
        if scalar_only:
            return
        chains = []
        for x in xs.tolist():
            t, r = lattice_point(x, h)
            n = t if n_terms is None else min(t, n_terms)
            chains.append((t, r, n, np.maximum(x - h * np.arange(n + 1), 0.0)))
        # at most one call per chain, and no node that no chain uses
        assert len(calls) <= len(chains)
        nodes = np.concatenate(([-np.inf], np.sort(np.concatenate([c[3] for c in chains])), [np.inf]))
        seen = np.concatenate(calls)
        above = np.searchsorted(nodes, seen)
        # a chain on the lattice calls f at (t - k) h, |x - t h| from its x - kh
        snap = 1e-9 * h + max((abs(x - t * h) for x, (t, r, _, _) in zip(xs.tolist(), chains)
                               if r == 0.0), default=0.0)
        assert np.all(np.minimum(seen - nodes[above - 1], nodes[above] - seen) <= snap)
        # a whole chain on the lattice ends on the origin itself
        if any(r == 0.0 and n == t for t, r, n, _ in chains):
            assert 0.0 in seen
        assert seen.min() >= 0.0

    def test_distinct_residues_call_f_once_per_chain(self):
        # x_i = 2i/999: the residues 2i mod 999 / 999 are all distinct, but for
        # x = 0 and x = 2 on the lattice, where the origin, x = 0's one node,
        # is the last of x = 2's chain
        calls = []
        f = RealFunction.from_callable(lambda t: calls.append(np.array(t)) or t)
        xs, h = np.linspace(0.0, 2.0, 1000), 1e-3
        gl_jumarie_derivative(f, xs, 0.5, h)
        chains = [np.maximum(x - h * np.arange(_chain_length(x, h) + 1), 0.0)[::-1]
                  for x in xs[1:-1]] + [h * np.arange(2001)]
        assert len(calls) == 999
        calls.sort(key=len)
        assert all(np.array_equal(got, want) for got, want in zip(calls, chains))

    def test_integer_stride_grid_calls_f_once(self):
        calls = []
        f = RealFunction.from_callable(lambda t: calls.append(np.array(t)) or t)
        gl_jumarie_derivative(f, np.linspace(0.2, 2.0, 41), 0.5, 1e-3)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 1e-3 * np.arange(2001))

    def test_capped_chains_share_only_overlapping_ranges(self):
        # n_terms = 5: index ranges 5..10, 8..13, 45..50 and 47..52
        calls = []
        f = RealFunction.from_callable(lambda t: calls.append(np.array(t)) or t)
        gl_jumarie_derivative(f, np.array([0.10, 0.13, 0.5, 0.52]), 0.5, 0.01, n_terms=5)
        assert [call.tolist() for call in calls] == [
            (0.01 * np.arange(5, 14)).tolist(), (0.01 * np.arange(45, 53)).tolist()]

    def test_failing_lattice_falls_back_to_the_chains(self):
        # 0.10 and 0.13 share one 9-node lattice (index ranges 5..10 and
        # 8..13); f fails on it, with an index that counts lattice positions,
        # but not on either 6-node chain
        xs, alpha, h = np.array([0.10, 0.13]), 0.5, 0.01

        def short_only(t):
            if np.size(t) > 6:
                raise DomainError("too many nodes", index=7)
            return np.cos(t)

        got = gl_jumarie_derivative(RealFunction.from_callable(short_only), xs, alpha, h, 5)
        # both chains are on the lattice: their nodes are (t - k) h
        expected = [h**-alpha * np.dot(gl_weights(alpha, 5),
                                       np.cos(h * (_chain_length(x, h) - np.arange(6.0))))
                    for x in xs]
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("x", [0.6, 0.9])
    def test_fallback_evaluates_the_lattice_nodes(self, x):
        # 0.9 - 3 * 0.3 = 1.1e-16, but the chain at x = 0.9 is on the lattice
        # and ends on the origin, where ln fails, as at x = 0.6
        with pytest.raises(EvaluationError, match=r"ln undefined for argument \(0.0,\)"):
            gl_jumarie_derivative("ln(x)", x, 0.5, 0.3)
        with pytest.raises(EvaluationError) as err:
            gl_jumarie_derivative("ln(x)", np.array([0.45, x]), 0.5, 0.3)
        assert err.value.index == 1

    @given(grid=_residue_grids(), alpha=st.floats(0.0, 1.0, exclude_min=True),
           n_terms=st.none() | st.integers(1, 60))
    # 3,000 points: four residue classes, two of them 1e-14 apart, and a cap
    # that splits each class into lattices
    @example(grid=((np.arange(3000) % 701 + np.array([0.0, 0.5, 0.25, 0.25 + 1e-14])[np.arange(3000) % 4])
                   * 1e-3, 1e-3), alpha=0.5, n_terms=40)
    @example(grid=(np.array([0.35]), 0.1), alpha=0.5, n_terms=None)
    def test_lattices_match_the_point_by_point_setup(self, grid, alpha, n_terms):
        # the array set-up makes the lattices, calls of f and dot products of
        # the set-up done one grid point at a time: the same bits
        xs, h = grid
        calls, want_calls = [], []
        got = gl_jumarie_derivative(_recorded(calls), xs, alpha, h, n_terms)
        want = gl_lattice_by_point(_recorded(want_calls), xs, alpha, h, n_terms)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert len(calls) == len(want_calls)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(calls, want_calls))
        single = gl_jumarie_derivative(_recorded([]), float(xs[0]), alpha, h, n_terms)
        assert single == gl_lattice_by_point(_recorded([]), xs[:1], alpha, h, n_terms)[0]

    def test_chain_length_past_2_53_is_a_domain_error(self):
        # x/h must round to an exact chain length
        with pytest.raises(DomainError, match=r"requires x < 2\^53 h, got 1e\+300$") as err:
            gl_jumarie_derivative("x", 1e300, 0.5, 1e-300)
        assert err.value.index is None
        with pytest.raises(DomainError) as err:
            gl_jumarie_derivative("x", np.array([0.1, 2.0**53, 2.0**54]), 0.5, 1.0)
        assert err.value.index == 1

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_a_domain_error(self, x):
        with pytest.raises(DomainError, match="requires finite x >= 0") as err:
            gl_jumarie_derivative("x", x, 0.5, 0.1)
        assert err.value.index is None
        with pytest.raises(DomainError, match=f"got {x}") as err:
            gl_jumarie_derivative("x", np.array([0.1, 0.2, x, math.nan]), 0.5, 0.1)
        assert err.value.index == 2


class TestRLPowerRule:
    def test_gamma_eq_alpha(self):
        for alpha in (0.3, 0.5, 0.8):
            assert rl_power_rule(alpha, alpha, 2.0) == pytest.approx(
                gamma(alpha + 1.0), rel=1e-12
            )

    def test_classical_case(self):
        assert rl_power_rule(2.0, 1.0, 3.0) == pytest.approx(6.0, rel=1e-12)

    def test_half_derivative_of_square(self):
        assert rl_power_rule(2.0, 0.5, 1.0) == pytest.approx(
            2.0 / gamma(2.5), rel=1e-12
        )

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            rl_power_rule(0.5, 1.5, 1.0)  # gamma - alpha + 1 = 0

    def test_domain(self):
        with pytest.raises(DomainError):
            rl_power_rule(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            rl_power_rule(1.0, 0.5, 0.0)


class TestYangLFD:
    def test_alpha_one_reduction(self):
        hp = HausdorffParams(1.0, 1.0)
        for f in CORPUS:
            assert yang_lfd(f, 1.3, 1.0, hp) == pytest.approx(f.derivative(1.3), rel=1e-12)

    def test_value(self):
        expected = gamma(1.5) * math.sqrt(2.0)
        assert yang_lfd("x", 1.0, 0.5, HausdorffParams(0.5, 1.0)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_ratio_to_hausdorff_is_dilatation_constant(self):
        for alpha in (0.3, 0.5, 0.9):
            hp = HausdorffParams(alpha, 1.0)
            for f in CORPUS:
                for x in (0.4, 1.1):
                    ratio = yang_lfd(f, x, alpha, hp) / hausdorff_derivative(f, x, hp)
                    assert ratio == pytest.approx(gamma(alpha + 1.0), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            yang_lfd("x", -2.0, 0.5, HausdorffParams(0.5, 1.0))


class TestJumarieTaylor:
    def test_zeroth_term_only(self):
        assert jumarie_taylor_eval([4.2], 0.5, 0.7, 1) == pytest.approx(4.2, rel=1e-13)

    def test_two_term_power_identity(self):
        # f = x^alpha at x = 0: (0 + h)^alpha ~ 0 + h^alpha for h = 1
        alpha = 0.5
        assert jumarie_taylor_eval([0.0, gamma(alpha + 1.0)], 1.0, alpha, 2) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_classical_series_for_exp(self):
        assert jumarie_taylor_eval([1.0] * 20, 1.0, 1.0, 20) == pytest.approx(
            math.e, rel=1e-10
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            jumarie_taylor_eval([1.0], 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            jumarie_taylor_eval([1.0], 1.0, 0.5, 2)
        with pytest.raises(ValueError):
            jumarie_taylor_eval([math.nan], 1.0, 0.5, 1)


class TestEvaluateKind:
    def test_dispatch(self):
        f = CORPUS[1]  # x^2
        x = 1.5
        assert evaluate_kind(Classical(), f, x) == pytest.approx(3.0, rel=1e-9)
        assert evaluate_kind(QParam(0.5), f, x) == q_derivative(f, x, 0.5)
        assert evaluate_kind(KappaParam(0.5), f, x) == kaniadakis_derivative(f, x, 0.5)
        assert evaluate_kind(HausdorffParams(0.5, 1.0), f, x) == hausdorff_derivative(
            f, x, HausdorffParams(0.5, 1.0)
        )
        assert evaluate_kind(Conformable(0.5), f, x) == conformable_derivative(f, x, 0.5)
        assert evaluate_kind(GrunwaldJumarie(0.5, 1e-3), f, x) == gl_jumarie_derivative(
            f, x, 0.5, 1e-3
        )
        assert evaluate_kind(YangLFD(0.5, 1.0), f, x) == yang_lfd(
            f, x, 0.5, HausdorffParams(0.5, 1.0)
        )

    def test_parameter_classes_are_shared(self):
        # the operator table names the deformation parameter classes themselves
        assert derivative_ops.OPERATORS["q"].kind is QParam
        assert derivative_ops.OPERATORS["kappa"].kind is KappaParam
        assert derivative_ops.OPERATORS["hausdorff"].kind is HausdorffParams

    def test_unknown_kind(self):
        with pytest.raises(TypeError, match="unknown derivative kind"):
            evaluate_kind(object(), "x", 1.0)

    def test_kind_validation(self):
        for make in (
            lambda: QParam(math.nan),
            lambda: KappaParam(math.inf),
            lambda: HausdorffParams(math.nan),
            lambda: HausdorffParams(0.5, math.inf),
            lambda: GrunwaldJumarie(0.5, math.nan),
            lambda: YangLFD(0.5, math.nan),
        ):
            with pytest.raises(ValueError):
                make()
        with pytest.raises(ValueError):
            HausdorffParams(0.5, 0.0)
        with pytest.raises(ValueError):
            Conformable(0.0)
        with pytest.raises(ValueError):
            GrunwaldJumarie(0.5, -1e-3)
        with pytest.raises(ValueError):
            GrunwaldJumarie(0.5, 1e-3, n_terms=0)
        with pytest.raises(ValueError):
            YangLFD(2.0)


_LOCAL_KINDS = st.one_of(
    st.floats(0.5, 1.5).map(lambda q: ("q", QParam(q))),
    st.floats(-2.0, 2.0).map(lambda k: ("kappa", KappaParam(k))),
    st.tuples(st.floats(0.2, 2.0), st.floats(0.5, 5.0)).map(
        lambda p: ("hausdorff", HausdorffParams(*p))),
)


@given(local=_LOCAL_KINDS, x=st.floats(0.0, 1.0))
def test_each_local_operator_is_d_dm(local, x):
    """A local operator is p(x) d/dx = d/dm with p = 1/m': its closed form of
    f = x is the table's p, bit for bit, and it maps the table's eigenfunction
    exp(m), differentiated by central differences, to itself."""
    name, kind = local
    op = derivative_ops.OPERATORS[name]
    xs = np.array([0.0, x, 0.5, 1.0])
    assert evaluate_kind(kind, "x", xs).tobytes() == op.prefactor(kind, xs).tobytes()
    assert evaluate_kind(kind, "x", x) == op.prefactor(kind, x)
    eigenfunction = RealFunction(value=lambda t: op.eigenfunction(kind, t))
    y = op.eigenfunction(kind, xs)
    assert np.all(abs(evaluate_kind(kind, eigenfunction, xs) - y) <= 1e-10 * y)


class TestOperatorsOverArrays:
    # no exp/ln/pow node in f or f', so numpy and libm agree bit for bit on them
    F = RealFunction.from_expression("sin(x)*x + cos(x)*sqrt(x)")
    XS = np.linspace(0.2, 2.0, 37)

    def point_by_point(self, op, *args):
        return np.array([op(self.F, float(x), *args) for x in self.XS])

    def test_bit_identical_where_no_power_is_taken(self):
        for op, args in (
            (q_derivative, (0.6,)),
            (kaniadakis_derivative, (0.8,)),
            (classical_derivative, ()),
            (q_derivative_quotient, (0.6,)),
        ):
            assert np.array_equal(op(self.F, self.XS, *args), self.point_by_point(op, *args))

    def test_power_prefactors_within_rounding(self):
        hp = HausdorffParams(0.6, 1.3)
        for op, args in ((hausdorff_derivative, (hp,)), (yang_lfd, (0.6, hp))):
            want = self.point_by_point(op, *args)
            # one ulp in the prefactor, at most one more in the product
            assert np.all(np.abs(op(self.F, self.XS, *args) - want) <= 4 * EPS * np.abs(want))

    def test_power_probes_within_quotient_rounding(self):
        # a one-ulp change of a probe is divided by steps down to base_step / 16
        # and weighted by the Richardson tableau: about 1e-12 relative
        for op, args in ((hausdorff_quotient, (0.6,)), (conformable_derivative, (0.6,))):
            want = self.point_by_point(op, *args)
            assert np.all(np.abs(op(self.F, self.XS, *args) - want) <= 1e-10 * np.abs(want))

    def test_evaluate_kind_takes_a_grid(self):
        got = evaluate_kind(QParam(0.6), self.F, self.XS)
        assert np.array_equal(got, q_derivative(self.F, self.XS, 0.6))

    def test_domain_error_names_the_first_bad_x(self):
        xs = np.array([0.5, -3.0, -4.0])
        with pytest.raises(DomainError, match="got -3.0") as err:
            hausdorff_derivative(self.F, xs, HausdorffParams(0.5, 1.0))
        assert err.value.index == 1
        with pytest.raises(DomainError) as err:
            q_derivative_quotient("x", np.array([0.5, 1.5, 1.5]), 2.0, DiffSettings(base_step=0.5))
        assert err.value.index == 1

    @pytest.mark.parametrize("op,args", [
        pytest.param(hausdorff_derivative, (HausdorffParams(0.5, 1.0),), id="hausdorff"),
        pytest.param(hausdorff_quotient, (0.5,), id="hausdorff_quotient"),
        pytest.param(conformable_derivative, (0.5,), id="conformable"),
        pytest.param(gl_jumarie_derivative, (0.5, 0.1), id="gl"),
        pytest.param(yang_lfd, (0.5, HausdorffParams(0.5, 1.0)), id="yang"),
    ])
    def test_domain_error_index_is_set_for_arrays_only(self, op, args):
        with pytest.raises(DomainError, match=r"got -1\.0$") as err:
            op("x", -1.0, *args)
        assert err.value.index is None
        with pytest.raises(DomainError, match=r"got -1\.0$") as err:
            op("x", np.array([0.5, 1.0, -1.0, 2.0, -3.0]), *args)
        assert err.value.index == 2


def _sampled_square(t):
    """x^2 sampled at 11 points of [0, 1] and interpolated linearly: an f that
    takes floats only and raises EvaluationError outside [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise EvaluationError(f"x = {t} outside [0, 1]", None, t)
    return float(np.interp(t, np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11) ** 2))


NOT_FINITE = ("the difference quotient is not finite: a probe step is lost to round-off "
              "or a value passes the double range")


def _per_step_limit(quotient, x, p, settings, cap=None):
    """The Richardson limit over the array x with one quotient call per probe
    step h = base 2^-j, and the tableau run one level and one entry at a time;
    a limit that is not finite raises DomainError at the first such x."""
    base = settings.base_step if cap is None else np.minimum(settings.base_step, cap)
    with np.errstate(all="ignore"):
        values = [quotient(base * 0.5**j) for j in range(settings.richardson_levels + 1)]
        for j in range(1, len(values)):
            factor = 2.0 ** (p * j)
            for k in range(len(values) - 1, j - 1, -1):
                values[k] = (factor * values[k] - values[k - 1]) / (factor - 1.0)
    bad = ~np.isfinite(values[-1])
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"{NOT_FINITE}, got {x.ravel()[i]}", index=i)
    return values[-1]


def _per_step_form(form, f, x, param, settings):
    """The four limit forms, each probe step its own call of f."""
    f = RealFunction.from_expression(f) if isinstance(f, str) else f
    if form == "classical":
        return _per_step_limit(lambda h: (f(x + h) - f(x - h)) / (2.0 * h), x, 2, settings)
    fx = f(x)
    if form == "q":
        return _per_step_limit(lambda h: (fx - f(x - h)) / q_difference(x, x - h, param), x, 1,
                               settings)
    if form == "hausdorff":
        xz = x**param

        def quotient(h):  # nan where (x + h)^zeta passes the double range, as a float's ** raises
            d = (x + h) ** param - xz
            return np.where(np.isfinite(d), (f(x + h) - fx) / d, np.nan)
        return _per_step_limit(quotient, x, 1, settings, x / 4.0)
    scale = x ** (1.0 - param)
    return _per_step_limit(lambda eps: (f(x + eps * scale) - fx) / eps, x, 1, settings)


LIMIT_FORMS = {
    "classical": lambda f, x, param, s: classical_derivative(f, x, s),
    "q": q_derivative_quotient,
    "hausdorff": hausdorff_quotient,
    "conformable": conformable_derivative,
}


def _outcome(call):
    """(values, None) or (None, (type, message, index)) of the error raised."""
    try:
        return call(), None
    except DefcalcError as exc:
        return None, (type(exc), str(exc), exc.index)


def _assert_same_outcome(form, f, x, param, settings=DiffSettings()):
    got, got_err = _outcome(lambda: LIMIT_FORMS[form](f, x, param, settings))
    want, want_err = _outcome(lambda: _per_step_form(form, f, x, param, settings))
    assert got_err == want_err
    if want_err is None:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return want_err


class TestStackedLimit:
    """Over an array of x, a limit form takes all its probe steps in one call
    of its quotient; the values and errors are those of one call per step."""

    PARAMS = {"classical": None, "q": 0.6, "hausdorff": 0.6, "conformable": 0.6}
    # the generated trees are safe within 0.013 of each sample point
    NEAR_SAMPLES = (np.array(SAMPLE_POINTS)[:, None] + np.linspace(-3e-3, 3e-3, 5)).ravel()

    @pytest.fixture(params=[derivative_ops._STACK_VALUES, 60, 4],
                    ids=["one_stack", "some_steps_per_stack", "one_step_per_stack"])
    def stack_values(self, request, monkeypatch):
        """All steps in one stack, a few per stack, or one per stack."""
        monkeypatch.setattr(derivative_ops, "_STACK_VALUES", request.param)

    @pytest.mark.parametrize("form", LIMIT_FORMS)
    def test_bit_equal_on_generated_trees(self, form, stack_values):
        for ast, _ in generate(25, seed=5):
            f = RealFunction.from_expression(to_source(ast))
            _assert_same_outcome(form, f, self.NEAR_SAMPLES, self.PARAMS[form])

    @pytest.mark.parametrize("levels", [1, 6])
    @pytest.mark.parametrize("form", LIMIT_FORMS)
    def test_bit_equal_for_a_scalar_only_callable(self, form, levels, stack_values):
        f = RealFunction(value=lambda t: math.exp(math.sin(t)) + math.sqrt(t))
        xs = np.linspace(0.2, 2.0, 19)
        settings = DiffSettings(richardson_levels=levels)
        assert _assert_same_outcome(form, f, xs, self.PARAMS[form], settings) is None

    @pytest.mark.parametrize("f", [
        "sin(x)*exp(x)", "x^2.5 + sqrt(x)", RealFunction(value=lambda t: math.cos(t) * t**1.5),
    ], ids=["sin_exp", "powers", "scalar_only"])
    def test_hausdorff_steps_below_and_above_the_cap(self, f, stack_values):
        # x/4 caps the steps below x = 4 base_step: per-element steps in the stack
        xs = np.geomspace(1e-4, 2.0, 40)
        assert (xs < 4 * 1e-2).any() and (xs > 4 * 1e-2).any()
        for zeta in (0.3, 0.6, 1.0):
            assert _assert_same_outcome("hausdorff", f, xs, zeta) is None

    def test_two_dimensional_grid(self):
        xs = np.linspace(0.2, 2.0, 12).reshape(3, 4)
        for form in LIMIT_FORMS:
            got = LIMIT_FORMS[form]("sin(x)*exp(x)", xs, self.PARAMS[form], None)
            rows = [LIMIT_FORMS[form]("sin(x)*exp(x)", row, self.PARAMS[form], None) for row in xs]
            assert got.shape == xs.shape and np.array_equal(got, np.array(rows))

    @pytest.mark.parametrize("form,f,xs,param,settings,error", [
        # ln's argument x - h reaches 0 and below in the first probe step
        pytest.param("classical", "ln(x)", [0.5, 0.02, 0.005, 0.004, 1.0], None,
                     DiffSettings(), EvaluationError, id="ln_near_0"),
        # q = 2 puts the singular line at y = 1: x = 1.125 meets it at the third step,
        # x = 1.5 at the first, so the per-step path names x = 1.5
        pytest.param("q", "x^2", [0.5, 1.125, 1.5], 2.0, DiffSettings(base_step=0.5),
                     DomainError, id="q_singular_line"),
        pytest.param("q", "x^2", [0.5, 1.125, 1.3], 2.0, DiffSettings(base_step=0.5),
                     DomainError, id="q_singular_line_late_step"),
        # a sampled f is scalar-only; the probes of t near 1 leave [0, 1]
        pytest.param("conformable", RealFunction(value=_sampled_square),
                     [0.5, 0.98, 0.999], 0.5, DiffSettings(), EvaluationError,
                     id="samples_out_of_range"),
        # x - h == x at every probe step: 0 / 0
        pytest.param("q", "sin(x)", [0.5, 1e17], 0.5, DiffSettings(), DomainError,
                     id="q_probe_lost_at_1e17"),
        # the probe base x/4 rounds to 0
        pytest.param("hausdorff", "x^2", [1.0, 5e-324], 0.5, DiffSettings(), DomainError,
                     id="hausdorff_probe_lost_at_5e-324"),
        # (x + h)^zeta passes the double range at every probe step, x^zeta = 1 does not
        pytest.param("hausdorff", "sin(x)", [1.0, 1.0], 1e17, DiffSettings(), DomainError,
                     id="hausdorff_probe_power_past_the_double_range"),
    ])
    def test_failing_probe_raises_what_the_first_failing_step_raises(
            self, form, f, xs, param, settings, error, stack_values):
        err = _assert_same_outcome(form, f, np.array(xs), param, settings)
        assert err is not None and err[0] is error and err[2] is not None
        # the float call at the x it names raises the same error
        with pytest.raises(error) as at_x:
            LIMIT_FORMS[form](f, xs[err[2]], param, settings)
        assert str(at_x.value) == err[1]

    def test_late_step_failure_names_its_grid_position(self):
        with pytest.raises(DomainError) as err:
            q_derivative_quotient("x^2", np.array([0.5, 1.125, 1.3]), 2.0,
                                  DiffSettings(base_step=0.5))
        assert err.value.index == 1

    @pytest.mark.parametrize("levels", [1, 4, 6])
    @pytest.mark.parametrize("form", LIMIT_FORMS)
    def test_one_call_of_f_per_probe_stack(self, form, levels):
        shapes = []

        def f(t):
            shapes.append(np.shape(t))
            return np.sin(t)

        xs = np.linspace(0.2, 2.0, 7)
        LIMIT_FORMS[form](RealFunction(value=f), xs, self.PARAMS[form],
                          DiffSettings(richardson_levels=levels))
        stack = (levels + 1, xs.size)
        # the classical form calls f once for each side; the others once at x
        # and once on the stack
        want = [stack, stack] if form == "classical" else [xs.shape, stack]
        assert shapes == want

    def test_a_large_stack_is_split_by_steps(self, monkeypatch):
        # 7 steps of 7 points in stacks of at most 21 values: 3 + 3 + 1 steps
        monkeypatch.setattr(derivative_ops, "_STACK_VALUES", 21)
        shapes = []

        def f(t):
            shapes.append(np.shape(t))
            return np.sin(t)

        xs = np.linspace(0.2, 2.0, 7)
        settings = DiffSettings(richardson_levels=6)
        got = conformable_derivative(RealFunction(value=f), xs, 0.5, settings)
        assert shapes == [(7,), (3, 7), (3, 7), (1, 7)]
        want = _per_step_form("conformable", RealFunction(value=np.sin), xs, 0.5, settings)
        assert got.tobytes() == want.tobytes()

    def test_float_x_keeps_one_call_per_step(self):
        shapes = []

        def f(t):
            shapes.append(np.shape(t))
            return math.sin(t)

        conformable_derivative(RealFunction(value=f), 1.3, 0.5)
        assert shapes == [()] * 6

"""The library is total: each public callable of each module's ``__all__``
returns finite floats, or raises a DefcalcError or ValueError, whatever
floats it is given."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defcalc import (
    deformed_algebra,
    derivative_ops,
    eigen_solvers,
    function_catalog,
    mappings,
    special_functions,
)
from defcalc.deformed_algebra import (
    KappaParam,
    QParam,
    kappa_exp,
    kappa_log,
    q_difference,
    q_exp,
    q_log,
    q_sum,
)
from defcalc.derivative_ops import (
    Classical,
    Conformable,
    DiffSettings,
    GrunwaldJumarie,
    YangLFD,
    classical_derivative,
    conformable_derivative,
    evaluate_kind,
    gl_jumarie_derivative,
    gl_weights,
    hausdorff_derivative,
    hausdorff_quotient,
    jumarie_taylor_eval,
    kaniadakis_derivative,
    q_derivative,
    q_derivative_quotient,
    rl_power_rule,
    yang_lfd,
)
from defcalc.eigen_solvers import (
    integrate_ode,
    solve_hausdorff_eigen,
    solve_q_eigen,
    verify_fractional_eigen,
)
from defcalc.errors import DefcalcError, DomainError
from defcalc.function_catalog import RealFunction, as_real_function, evaluate, parse
from defcalc.mappings import (
    FirstOrderAgreement,
    MappingResult,
    SeriesExpansion,
    conformable_hausdorff_check,
    expand_hausdorff_prefactor,
    first_order_agreement,
    kappa_expansion,
    q_from_zeta,
    yang_hausdorff_check,
    zeta_from_q,
)
from defcalc.special_functions import (
    HausdorffParams,
    balankin_exp,
    gamma,
    gen_binomial,
    mittag_leffler,
    mittag_leffler_array,
    stretched_exp,
)

ADVERSARIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
               math.inf, -math.inf, math.nan, 171.7, 1e17)
# ordinary values first: hypothesis shrinks toward the front of the list
ORDINARY = (0.5, 1.0, -0.5, 2.0)
F = st.sampled_from(ORDINARY + ADVERSARIAL)
FUNCTIONS = st.sampled_from(("x", "x^2", "sin(x)"))

# Each case: (call, a strategy for each float it takes, positions of the
# floats that may also be given as an array).  A call takes f, then its floats.
CASES = {
    "QParam": (lambda f, q: QParam(q), (F,), ()),
    "KappaParam": (lambda f, k: KappaParam(k), (F,), ()),
    "q_difference": (lambda f, x, y, q: q_difference(x, y, q), (F, F, F), (0, 1)),
    "q_sum": (lambda f, x, y, q: q_sum(x, y, q), (F, F, F), (0, 1)),
    "q_exp": (lambda f, x, q: q_exp(x, q), (F, F), (0,)),
    "q_log": (lambda f, x, q: q_log(x, q), (F, F), (0,)),
    "kappa_exp": (lambda f, x, k: kappa_exp(x, k), (F, F), (0,)),
    "kappa_log": (lambda f, x, k: kappa_log(x, k), (F, F), (0,)),
    "DiffSettings": (lambda f, b: DiffSettings(b), (F,), ()),
    "Classical": (lambda f: Classical(), (), ()),
    "Conformable": (lambda f, a: Conformable(a), (F,), ()),
    "GrunwaldJumarie": (lambda f, a, h: GrunwaldJumarie(a, h), (F, F), ()),
    "YangLFD": (lambda f, a, l0: YangLFD(a, l0), (F, F), ()),
    "classical_derivative": (
        lambda f, x, b: classical_derivative(f, x, DiffSettings(b)), (F, F), (0,)),
    "q_derivative": (lambda f, x, q: q_derivative(f, x, q), (F, F), (0,)),
    "q_derivative_quotient": (
        lambda f, x, q, b: q_derivative_quotient(f, x, q, DiffSettings(b)), (F, F, F), (0,)),
    "hausdorff_derivative": (
        lambda f, x, z, l0: hausdorff_derivative(f, x, HausdorffParams(z, l0)), (F, F, F), (0,)),
    "hausdorff_quotient": (
        lambda f, x, z, b: hausdorff_quotient(f, x, z, DiffSettings(b)), (F, F, F), (0,)),
    "kaniadakis_derivative": (lambda f, x, k: kaniadakis_derivative(f, x, k), (F, F), (0,)),
    "conformable_derivative": (
        lambda f, t, a, b: conformable_derivative(f, t, a, DiffSettings(b)), (F, F, F), (0,)),
    # at most 8 terms: x/h may be near 2^53, and the memory of such a chain
    # is not what this test checks
    "gl_jumarie_derivative": (
        lambda f, x, a, h: gl_jumarie_derivative(f, x, a, h, 8), (F, F, F), (0,)),
    "gl_weights": (lambda f, a: gl_weights(a, 8), (F,), ()),
    "rl_power_rule": (lambda f, g, a, x: rl_power_rule(g, a, x), (F, F, F), ()),
    "yang_lfd": (
        lambda f, x, a, l0: yang_lfd(f, x, a, HausdorffParams(0.5, l0)), (F, F, F), (0,)),
    # 200 terms: those past k = 171 / alpha have a Gamma past the double range
    "jumarie_taylor_eval": (
        lambda f, d, h, a: jumarie_taylor_eval([d] + [1.0] * 199, h, a, 200), (F, F, F), ()),
    "evaluate_kind": (lambda f, x, k: evaluate_kind(KappaParam(k), f, x), (F, F), (0,)),
    # y' = x: the steps do not shrink with y0, so a large y0 takes few of them
    "integrate_ode": (
        lambda f, a, b, y0, tol: integrate_ode(lambda x, y: x, (a, b), y0, 1e-8 * tol),
        (F, F, F, F), ()),
    "solve_q_eigen": (lambda f, q, a, b: solve_q_eigen(q, (a, b), 11, 1e-8), (F, F, F), ()),
    "solve_hausdorff_eigen": (
        lambda f, z, l0, a, b: solve_hausdorff_eigen(HausdorffParams(z, l0), (a, b), 11, 1e-8),
        (F, F, F, F), ()),
    "verify_fractional_eigen": (
        lambda f, a, x0, x1, h: verify_fractional_eigen(a, (x0, x1), 11, h), (F, F, F, F), ()),
    "evaluate": (lambda f, x: evaluate(parse(f), x), (F,), ()),
    "RealFunction": (
        lambda f, x: RealFunction.from_expression(f).derivative_at(x), (F,), (0,)),
    "as_real_function": (lambda f, x: as_real_function(f)(x), (F,), (0,)),
    "SeriesExpansion": (lambda f, c: SeriesExpansion((1.0, c)), (F,), ()),
    "MappingResult": (lambda f, q, z, l0, b: MappingResult(q, z, l0, b), (F, F, F, F), ()),
    "expand_hausdorff_prefactor": (
        lambda f, z, l0: expand_hausdorff_prefactor(HausdorffParams(z, l0), 8), (F, F), ()),
    "q_from_zeta": (lambda f, z, l0: q_from_zeta(HausdorffParams(z, l0)), (F, F), ()),
    "zeta_from_q": (lambda f, q, l0: zeta_from_q(q, l0), (F, F), ()),
    "first_order_agreement": (
        lambda f, z, l0, x: first_order_agreement(HausdorffParams(z, l0), x), (F, F, F), ()),
    "kappa_expansion": (lambda f, k: kappa_expansion(k, 8), (F,), ()),
    "conformable_hausdorff_check": (
        lambda f, a, l0, x, b: conformable_hausdorff_check(a, l0, f, x, DiffSettings(b)),
        (F, F, F, F), ()),
    "yang_hausdorff_check": (
        lambda f, a, z, l0, x: yang_hausdorff_check(a, HausdorffParams(z, l0), f, x),
        (F, F, F, F), ()),
    "HausdorffParams": (lambda f, z, l0: HausdorffParams(z, l0), (F, F), ()),
    "gamma": (lambda f, x: gamma(x), (F,), ()),
    "gen_binomial": (lambda f, a, k: gen_binomial(a, k), (F, F), ()),
    "mittag_leffler": (lambda f, z, a: mittag_leffler(z, a), (F, F), (0,)),
    "mittag_leffler_array": (lambda f, z, a: mittag_leffler_array(z, a), (F, F), (0,)),
    "stretched_exp": (lambda f, x, a: stretched_exp(x, a), (F, F), (0,)),
    "balankin_exp": (
        lambda f, x, z, l0: balankin_exp(x, HausdorffParams(z, l0)), (F, F, F), (0,)),
}

# Public names that are not called here, each with its reason.
NOT_CALLED = {
    "DerivativeKind": "a type alias",
    "Expr": "a type alias",
    "Form": "holds an operator's callable; the operators have cases",
    "Operator": "holds an operator's forms; the operators have cases",
    "EigenReport": "a record the eigen solves return; checked where returned",
    "OdeSolution": "a record integrate_ode returns; checked where returned",
    "FirstOrderAgreement": "a record first_order_agreement returns; checked where returned",
    "ConformableHausdorff": "a record conformable_hausdorff_check returns; checked there",
    "Number": "an expression node: parse takes only finite literals",
    "Var": "an expression node, with no float",
    "Neg": "an expression node, with no float",
    "BinOp": "an expression node, with no float",
    "Call": "an expression node, with no float",
    "parse": "takes source text; evaluate has a case on parsed trees",
    "differentiate": "maps a tree to a tree; RealFunction has a case on derivatives",
    "to_source": "maps a tree to text",
}

# Returned floats that may be non-finite, each with its reason.
EXEMPT = {
    (FirstOrderAgreement, "bound"): "an upper bound: inf is a true one where the growth "
                                    "factor (1 + u)^(-1 - zeta) passes the double range",
}

MODULES = (deformed_algebra, derivative_ops, eigen_solvers, function_catalog, mappings,
           special_functions)
PUBLIC = sorted({name for module in MODULES for name in module.__all__
                 if callable(getattr(module, name))})


def _floats(value):
    """Every float in a returned value: of a tuple, record, array or expansion."""
    if isinstance(value, (float, np.floating)):
        yield float(value)
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, tuple):
        names = getattr(value, "_fields", (None,) * len(value))
        for name, item in zip(names, value):
            if (type(value), name) not in EXEMPT:
                yield from _floats(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _floats(getattr(value, field.name))


def test_every_public_callable_has_a_case_or_a_reason():
    assert set(PUBLIC) == set(CASES) | set(NOT_CALLED)
    assert not set(CASES) & set(NOT_CALLED)


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
def test_every_value_is_finite_or_a_typed_error(name, data):
    call, floats, arrays = CASES[name]
    f = data.draw(FUNCTIONS, label="f")
    args = [data.draw(strategy, label=f"float {i}") for i, strategy in enumerate(floats)]
    if arrays and data.draw(st.booleans(), label="as array"):
        # the adversarial value second, so that an error names index 1
        args = [np.array([0.5, v]) if i in arrays else v for i, v in enumerate(args)]
    try:
        # numpy's floating-point warnings are not the rule under test
        with np.errstate(all="ignore"):
            value = call(f, *args)
    except (DefcalcError, ValueError):
        return
    bad = [v for v in _floats(value) if not math.isfinite(v)]
    assert not bad, f"{name}{tuple(args)} with f = {f!r} returned {value!r}"


# Each value the library makes and checks: a call of one float x, the x at
# which its value passes the double range, the DomainError message, and an
# array of x that holds that x (None where the call takes no array).
GUARDED = {
    "gamma": (gamma, 171.7, "gamma passes the double range, got 171.7", None),
    "gen_binomial": (lambda a: gen_binomial(a, 3), 1e200,
                     "gen_binomial passes the double range, got 1e+200", None),
    "rl_power_rule": (lambda x: rl_power_rule(150.0, 0.5, x), 1e10,
                      "rl_power_rule passes the double range, got 10000000000.0", None),
    "jumarie_taylor_eval": (lambda h: jumarie_taylor_eval([1e308] * 3, h, 1.0, 3), 10.0,
                            "jumarie_taylor_eval passes the double range, got 10.0", None),
    "q_difference": (lambda x: q_difference(x, -1e308, 1.0), 1e308,
                     "q_difference passes the double range, got inf", [1.0, 1e308]),
    "q_sum": (lambda x: q_sum(x, 1e308, 1.0), 1e308,
              "q_sum passes the double range, got inf", [1.0, 1e308]),
    "q_exp": (lambda x: q_exp(x, -2.0), 1e308,
              "q_exp passes the double range, got 1e+308", [1.0, 1e308]),
    "balankin_exp": (lambda x: balankin_exp(x, HausdorffParams(0.5, 0.5)), 1e308,
                     "balankin_exp passes the double range, got 1e+308", [1.0, 1e308]),
    "q_derivative_quotient": (
        lambda x: q_derivative_quotient("sin(x)", x, 0.5), 1e17,
        "the difference quotient is not finite: a probe step is lost to round-off or a "
        "value passes the double range, got 1e+17", [1.0, 1e17]),
    "hausdorff_quotient": (lambda x: hausdorff_quotient("x", x, 2.0), 1e160,
                           "hausdorff_quotient's x^zeta passes the double range, got 1e+160",
                           [1.0, 1e160]),
    # h^-alpha passes the range for every x: the error names the first
    "gl_jumarie_derivative": (lambda x: gl_jumarie_derivative("x", x, 1.0, 1e-309), 1e-308,
                              "gl_jumarie_derivative passes the double range, got 1e-308",
                              [1e-308, 2e-308]),
    "kaniadakis_derivative": (lambda x: kaniadakis_derivative("x", x, 1.0), 5e299,
                              "prefactor * f'(x) passes the double range, got 5e+299",
                              [1.0, 5e299]),
    # a finite prefactor times f'(x): a float call's product is Python's, too
    "kaniadakis_product": (lambda x: kaniadakis_derivative("x^2", x, 1.0), 1.3e154,
                           "prefactor * f'(x) passes the double range, got 1.3e+154",
                           [1.0, 1.3e154]),
    "hausdorff_derivative": (lambda x: hausdorff_derivative("x", x, HausdorffParams(-2.0)),
                             1e300, "prefactor * f'(x) passes the double range, got 1e+300",
                             [1.0, 1e300]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_float_and_array_calls_fail_alike(name):
    """A value past the double range raises the same DomainError from a
    float call and from an array call, which names the position of the x,
    and numpy warns of nothing first."""
    call, x, message, xs = GUARDED[name]
    with pytest.raises(DomainError) as err:
        call(x)
    assert (str(err.value), err.value.index) == (message, None)
    if xs is not None:
        with pytest.raises(DomainError) as err:
            call(np.array(xs))
        assert (str(err.value), err.value.index) == (message, xs.index(x))

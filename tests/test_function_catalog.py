import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defcalc import (
    EvaluationError,
    ParseError,
    RealFunction,
    UnsupportedDerivative,
    as_real_function,
    classical_derivative,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from defcalc.function_catalog import BUILTINS, BinOp, Call, MAX_DEPTH, Neg, Number, Var, _tokenize

from exprgen import ORACLE_SETTINGS, SAMPLE_POINTS, generate

EPS = float(np.finfo(float).eps)


class TestParse:
    def test_power(self):
        assert evaluate(parse("x^2"), 3.0) == 9.0

    def test_error_position_and_tokens(self):
        with pytest.raises(ParseError) as err:
            parse("2*")
        assert err.value.position == 2
        assert "operand" in err.value.expected

    def test_gaussian_at_zero(self):
        assert evaluate(parse("exp(-x^2/2)"), 0.0) == 1.0

    def test_precedence(self):
        assert evaluate(parse("-x^2"), 3.0) == -9.0  # ^ binds tighter than unary minus
        assert evaluate(parse("2^3^2"), 0.0) == 512.0  # right-associative
        assert evaluate(parse("2^-1"), 0.0) == 0.5
        assert evaluate(parse("1-2-3"), 0.0) == -4.0
        assert evaluate(parse("6/3/2"), 0.0) == 1.0
        assert evaluate(parse("2*3+4*5"), 0.0) == 26.0

    def test_scientific_notation(self):
        assert evaluate(parse("1.5e2"), 0.0) == 150.0
        assert evaluate(parse("2.5e-3"), 0.0) == 0.0025

    def test_pow_call(self):
        assert evaluate(parse("pow(x, 3)"), 2.0) == 8.0

    def test_unknown_name(self):
        with pytest.raises(ParseError) as err:
            parse("sinh(x)")
        assert err.value.found == "sinh"

    def test_arity_errors(self):
        with pytest.raises(ParseError):
            parse("pow(x)")
        with pytest.raises(ParseError):
            parse("sin(x, 2)")

    def test_depth_limit(self):
        assert evaluate(parse("(" * 30 + "x" + ")" * 30), 1.0) == 1.0
        with pytest.raises(ParseError) as err:
            parse("(" * 200 + "x" + ")" * 200)
        assert f"{MAX_DEPTH}" in err.value.expected

    @pytest.mark.parametrize(
        "bad", ["", "   ", "2*", "x@y", "((x)", "x)", "1..2", "foo(x)", "+", "x+"]
    )
    def test_malformed_inputs_raise_positioned_errors(self, bad):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert 0 <= err.value.position <= len(bad) + 1

    @pytest.mark.parametrize("source,tokens", [
        ("2e", [("number", "2", 0), ("ident", "e", 1)]),  # no exponent without digits
        ("2e-x", [("number", "2", 0), ("ident", "e", 1), ("op", "-", 2), ("ident", "x", 3)]),
        ("1.e5", [("number", "1.e5", 0)]),
        (".5E-3", [("number", ".5E-3", 0)]),
        ("\tx\n*\r2 ", [("ident", "x", 1), ("op", "*", 3), ("number", "2", 5)]),
        ("x  ", [("ident", "x", 0)]),
        ("1..2", [("number", "1.", 0), ("number", ".2", 2)]),
        ("x٣_1", [("ident", "x٣_1", 0)]),
    ])
    def test_tokens(self, source, tokens):
        assert _tokenize(source) == tokens + [
            ("end", "end of input", len(source))
        ]

    @pytest.mark.parametrize("source,position,expected,found", [
        ("2e", 1, "end of input", "e"),
        ("1..2", 2, "end of input", ".2"),
        ("x @", 2, "a number, name, or operator", "'@'"),
        ("2²*x", 1, "end of input", "²"),  # ² is a digit to str.isdigit, not to float()
        ("٣*x", 0, "a number, name, or operator", "'٣'"),  # digits are ASCII only
        ("½", 0, "x or a builtin function name", "½"),
        ("x*1e999", 2, "a finite number", "1e999"),  # would print as "inf", which no parse takes
        ("1e999+x@", 7, "a number, name, or operator", "'@'"),  # the lexer reports first
        ("(1e-400+1.8e308)", 8, "a finite number", "1.8e308"),
    ])
    def test_error_positions(self, source, position, expected, found):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.position, err.value.expected, err.value.found) == (
            position, expected, found
        )


class TestEvaluate:
    def test_sin_at_half_pi(self):
        assert evaluate(parse("sin(x)"), math.pi / 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("ln(x)"), 0.0)

    def test_gamma_builtin(self):
        assert evaluate(parse("gamma(x)"), 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x"), 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(x)"), -1.0)

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(x)"), 1e4)
        with pytest.raises(EvaluationError):
            evaluate(parse("(10^300)*(10^300)"), 0.0)

    def test_error_carries_node_and_argument(self):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("ln(x-1)"), 0.5)
        assert err.value.node is not None
        assert err.value.argument is not None


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x^2"))
        assert evaluate(d, 3.0) == pytest.approx(6.0, rel=1e-15)

    def test_sin(self):
        assert evaluate(differentiate(parse("sin(x)")), 0.0) == 1.0

    def test_chain_rule(self):
        d = differentiate(parse("exp(x^0.5)"))
        assert evaluate(d, 4.0) == pytest.approx(math.exp(2.0) * 0.25, rel=1e-12)

    def test_quotient_rule(self):
        d = differentiate(parse("sin(x)/x"))
        x = 1.3
        expected = (math.cos(x) * x - math.sin(x)) / x**2
        assert evaluate(d, x) == pytest.approx(expected, rel=1e-12)

    def test_variable_exponent_rewrite(self):
        d = differentiate(parse("2^x"))
        assert evaluate(d, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        d = differentiate(parse("x^x"))
        assert evaluate(d, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("source", ["gamma(x)", "abs(x)", "sin(gamma(x))"])
    def test_unsupported(self, source):
        with pytest.raises(UnsupportedDerivative):
            differentiate(parse(source))

    def test_agreement_with_central_difference(self):
        for ast, dast in generate(40):
            f = RealFunction(value=lambda t, ast=ast: evaluate(ast, t))
            for x in SAMPLE_POINTS:
                symbolic = evaluate(dast, x)
                numeric = classical_derivative(f, x, ORACLE_SETTINGS)
                assert abs(symbolic - numeric) <= 1e-6 * max(1.0, abs(symbolic))


# Strategy for printable trees: non-negative literals only (the parser never
# produces a negative Number node, it wraps with unary minus).
_leaves = st.one_of(
    st.builds(Number, st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)),
    st.just(Var()),
)


def _extend(children):
    unary = st.builds(Neg, children)
    call1 = st.builds(
        Call,
        st.sampled_from(["exp", "ln", "sin", "cos", "sqrt", "gamma", "abs"]),
        st.tuples(children),
    )
    call2 = st.builds(Call, st.just("pow"), st.tuples(children, children))
    binop = st.builds(BinOp, st.sampled_from("+-*/^"), children, children)
    return st.one_of(unary, call1, call2, binop)


_trees = st.recursive(_leaves, _extend, max_leaves=20)


class TestPrintRoundTrip:
    @given(tree=_trees)
    def test_round_trip_structural_identity(self, tree):
        assert parse(to_source(tree)) == tree

    def test_round_trip_of_parsed_source(self):
        for source in ("x^2 + sin(x)*3", "exp(-x^2/2)", "-x/(1+x)", "pow(x, 2.5)"):
            tree = parse(source)
            assert parse(to_source(tree)) == tree


class TestParserTotality:
    @given(source=st.text(max_size=200))
    def test_arbitrary_text_never_crashes(self, source):
        try:
            parse(source)
        except ParseError as err:
            assert 0 <= err.position <= len(source) + 1

    def test_adversarial_inputs(self):
        rng = random.Random(7)
        cases = [
            "(" * 5000 + "x" + ")" * 5000,
            "-" * 5000 + "x",
            "x" + "+x" * 5000,
            "sin(" * 2000 + "x" + ")" * 2000,
            "x^" * 2000 + "x",
        ]
        charset = "0123456789.+-*/^(),xeE spiouwcqrtagbml_"
        for _ in range(10):
            n = rng.randint(1, 10_000)
            cases.append("".join(rng.choice(charset) for _ in range(n)))
        for source in cases:
            try:
                parse(source)
            except ParseError as err:
                assert 0 <= err.position <= len(source) + 1


class TestRealFunction:
    def test_from_expression_uses_symbolic_derivative(self):
        f = RealFunction.from_expression("x^3")
        assert f.derivative is not None
        assert f.derivative(2.0) == pytest.approx(12.0, rel=1e-15)

    def test_from_expression_falls_back_when_not_differentiable(self):
        f = RealFunction.from_expression("gamma(x)")
        assert f.derivative is None
        assert f(3.0) == pytest.approx(2.0, rel=1e-10)

    def test_derivative_at_without_a_derivative_is_a_typed_error(self):
        for f in (RealFunction.from_expression("gamma(x)"), RealFunction.from_callable(math.sin)):
            for x in (0.5, np.linspace(0.5, 1.0, 3)):
                with pytest.raises(UnsupportedDerivative) as err:
                    f.derivative_at(x)
                assert str(err.value) == f"no derivative is attached to {f.label}"

    def test_from_callable(self):
        f = RealFunction.from_callable(math.sin, df=math.cos)
        assert f(0.0) == 0.0
        assert f.derivative(0.0) == 1.0

    def test_as_real_function_coercions(self):
        assert as_real_function("x^2")(3.0) == 9.0
        assert as_real_function(lambda t: 2.0 * t)(3.0) == 6.0
        f = RealFunction.from_expression("x")
        assert as_real_function(f) is f
        with pytest.raises(TypeError):
            as_real_function(42)


# --- the compiled array path against the scalar evaluator --------------------


def _subtrees(node):
    yield node
    if isinstance(node, Neg):
        yield from _subtrees(node.operand)
    elif isinstance(node, BinOp):
        yield from _subtrees(node.left)
        yield from _subtrees(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from _subtrees(arg)


def _inexact(node) -> bool:
    """numpy's exp, log and power may differ from libm by one ulp."""
    return any(
        (isinstance(n, BinOp) and n.op == "^") or (isinstance(n, Call) and n.name in ("exp", "ln", "pow"))
        for n in _subtrees(node)
    )


def _point_by_point(fn, xs):
    """Reference: fn at each float x in turn; (values, None) or (None, (index, message))."""
    values = []
    for i, x in enumerate(xs):
        try:
            values.append(fn(float(x)))
        except EvaluationError as exc:
            return None, (i, str(exc))
    return np.array(values), None


def _whole_array(fn, xs):
    try:
        return fn(xs), None
    except EvaluationError as exc:
        return None, (exc.index, str(exc))


def _assert_agree(scalar_fn, array_fn, tree, xs):
    """Same failing x and message, or values equal bit for bit when ``tree``
    has no exp/ln/pow node, else within 8 n eps V(x): n nodes, each of which
    may add one ulp of V(x), the largest node magnitude at x."""
    want, want_err = _point_by_point(scalar_fn, xs)
    got, got_err = _whole_array(array_fn, xs)
    assert got_err == want_err
    if want is None:
        return
    if not _inexact(tree):
        assert np.array_equal(got, want)
        return
    nodes = list(_subtrees(tree))
    magnitude = np.array([max(abs(evaluate(n, float(x))) for n in nodes) for x in xs])
    assert np.all(np.abs(got - want) <= 8.0 * len(nodes) * EPS * magnitude)


SINGULAR_SOURCES = (
    "ln(x)", "1/(x-1)", "sqrt(x-0.5)", "x^0.5", "gamma(x)", "exp(1/(x-1))", "pow(x, 1.5)",
    "(x-1)^(-1)", "ln(abs(x))", "sin(x)/x", "1e300*exp(300*x)", "abs(x)^(x-1)",
    "gamma(x*1e308*10)",  # gamma(-inf) in the array pass
)
WIDE_GRID = np.linspace(-3.0, 3.0, 241)

# At the edges of the array pass's floating-point trap: a NaN or inf that sets
# no flag (gamma), a non-finite intermediate that a later node hides, an
# overflow between two literals, and underflow, which is not trapped.
TRAP_SOURCES = (
    "pow(gamma(x), 0)", "1/exp(exp(x))", "0*exp(1000*x)", "1e308*10*x", "5e-324*x", "exp(710)",
)
TRAP_GRIDS = (
    np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5]),  # 0 and negative integers
    np.array([1.0, -1e300, 2.0, 1e300]),
    np.array([5e-324, 1e-310, 1.0, 3.0]),  # subnormal
    np.linspace(0.0, 7.0, 50),  # exp(exp(x)) overflows from x = 6.566
    np.array([0.0, 1.0, np.inf]),  # inf x sets no flag
)

# Source text for the trap: literals as written, from the smallest subnormal
# to the largest double, and those that overflow exp and gamma.
_literal_text = st.one_of(
    st.sampled_from(["0", "5e-324", "1e-300", "171.7", "710", "1000", "1e308", "1.7976931348623157e308"]),
    st.floats(0.0, allow_nan=False, allow_infinity=False).map(repr),
)
_sources = st.recursive(
    st.one_of(_literal_text, st.just("x")),
    lambda children: st.one_of(
        st.builds("(-{})".format, children),
        st.builds("{}({})".format, st.sampled_from([name for name in BUILTINS if name != "pow"]), children),
        st.builds("pow({}, {})".format, children, children),
        st.builds("({}{}{})".format, children, st.sampled_from("+-*/^"), children),
    ),
    max_leaves=20,
)


class TestCompiledAgreement:
    def test_generated_trees_and_derivatives(self):
        xs = np.linspace(0.3, 2.3, 101)
        for ast, dast in generate(60):
            f = RealFunction.from_expression(to_source(ast))
            _assert_agree(f, f, parse(to_source(ast)), xs)
            _assert_agree(f.derivative, f.derivative_at, differentiate(parse(to_source(ast))), xs)

    @pytest.mark.parametrize("source", SINGULAR_SOURCES)
    def test_same_error_at_the_same_first_x(self, source):
        f = RealFunction.from_expression(source)
        want = _point_by_point(f, WIDE_GRID)[1]
        assert want is not None, "the grid should cross a singularity"
        assert _whole_array(f, WIDE_GRID)[1] == want

    def test_array_failure_never_comes_before_the_float_loops(self):
        # x^x passes 1e39 by x = 27.7: where numpy's power and libm's pow round
        # an ulp apart, sin of the two differs in sign, and the float loop can
        # fail at an x that the array walk passed.  Which x does depends on libm.
        f = RealFunction.from_expression("pow(sin(x^x), ln(x))")
        xs = np.linspace(0.1, 800, 30)
        first, _ = _point_by_point(f, xs)[1]
        with pytest.raises(EvaluationError) as got:
            f(xs)
        with pytest.raises(EvaluationError) as want:
            f(float(xs[got.value.index]))
        assert str(got.value) == str(want.value)
        assert got.value.index >= first

    def test_generated_trees_across_singularities(self):
        failing = 0
        for ast, _ in generate(60, seed=11):
            f = RealFunction.from_expression(to_source(ast))
            _assert_agree(f, f, parse(to_source(ast)), WIDE_GRID)
            failing += _point_by_point(f, WIDE_GRID)[1] is not None
        assert failing >= 10  # the comparison covers the error path, not only values

    @given(tree=_trees)
    def test_arbitrary_trees(self, tree):
        f = RealFunction.from_expression(to_source(tree))
        want, want_err = _point_by_point(f, np.linspace(-2.0, 2.0, 41))
        got, got_err = _whole_array(f, np.linspace(-2.0, 2.0, 41))
        assert got_err == want_err
        if want is not None and not _inexact(tree):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("source", TRAP_SOURCES)
    def test_trap_edges(self, source):
        f = RealFunction.from_expression(source)
        tree = parse(source)
        for xs in TRAP_GRIDS:
            _assert_agree(f, f, tree, xs)
            if f.derivative is not None:
                _assert_agree(f.derivative, f.derivative_at, differentiate(tree), xs)

    @given(source=_sources)
    def test_literals_written_as_text(self, source):
        f = RealFunction.from_expression(source)
        for xs in (np.linspace(-2.0, 2.0, 41), np.concatenate((TRAP_GRIDS[0], TRAP_GRIDS[1], [5e-324]))):
            want, want_err = _point_by_point(f, xs)
            got, got_err = _whole_array(f, xs)
            assert got_err == want_err
            if want is not None and not _inexact(parse(source)):
                assert np.array_equal(got, want)

    def test_scalar_inputs_use_the_scalar_evaluator(self):
        f = RealFunction.from_expression("exp(x)*x^1.5")
        ast = parse("exp(x)*x^1.5")
        for x in (0.7, np.float64(0.7), np.array(0.7)):
            assert f(x) == evaluate(ast, 0.7)

    def test_constant_expression_fills_the_grid(self):
        f = RealFunction.from_expression("2")
        xs = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(f(xs), np.full(5, 2.0))
        assert np.array_equal(f.derivative_at(xs), np.zeros(5))

    def test_identity_returns_a_new_array(self):
        f = RealFunction.from_expression("x")
        xs = np.linspace(0.0, 1.0, 5)
        values = f(xs)
        assert np.array_equal(values, xs) and not np.shares_memory(values, xs)
        values[0] = 9.0
        assert xs[0] == 0.0

    def test_two_dimensional_grid_is_elementwise(self):
        # the limit forms pass a stack of probe rows
        f = RealFunction.from_expression("sin(x)*exp(x) + ln(x)")
        xs = np.linspace(0.2, 2.0, 12).reshape(3, 4)
        assert np.array_equal(f(xs), np.array([f(row) for row in xs]))
        with pytest.raises(EvaluationError) as err:
            f(np.array([[0.5, 1.0], [-1.0, 2.0]]))
        assert err.value.index == 2

    def test_scalar_only_callable_is_applied_point_by_point(self):
        f = RealFunction.from_callable(math.sin, df=math.cos)
        xs = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(f(xs), [math.sin(float(x)) for x in xs])
        assert np.array_equal(f.derivative_at(xs), [math.cos(float(x)) for x in xs])

        def double(t):  # scalar-only: the comparison fails on an array
            if not 0.0 <= t <= 1.0:
                raise EvaluationError(f"x = {t} outside [0, 1]", None, t)
            return 2.0 * t

        with pytest.raises(EvaluationError) as err:
            RealFunction(value=double)(np.array([0.5, 1.0, 1.5, 2.0]))
        assert err.value.index == 2

"""Expression language for user-supplied test functions.

The grammar is :data:`GRAMMAR`, in EBNF; README quotes it and ``defcalc
--help`` prints it.  "^" binds tighter than unary minus, so -x^2 parses as
-(x^2).  Each builtin's arity, like its float and numpy functions and its
derivative rule, comes from the operation table ``_OPERATIONS``.  The single
free variable is x.  A number must be finite as a double.  Parsed trees are
limited to depth 64.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import special_functions
from .errors import (
    DefcalcError,
    EvaluationError,
    ParseError,
    UnsupportedDerivative,
)

__all__ = [
    "Number",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "BUILTINS",
    "GRAMMAR",
    "MAX_DEPTH",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    "RealFunction",
    "as_real_function",
]

MAX_DEPTH = 64


# --- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Number, Var, Neg, BinOp, Call]


# --- Operations ----------------------------------------------------------


@dataclass(frozen=True)
class _Operation:
    """A binary operator or builtin: its float function, its numpy elementwise
    function, its arity and, for a builtin, its derivative rule (u, du) ->
    d/dx name(u), or None where the engine has none."""

    scalar: Callable
    ufunc: Callable
    arity: int = 1
    derivative: Optional[Callable[[Expr, Expr], Expr]] = None


def _gamma_or_nan(u: float) -> float:
    try:
        return special_functions.gamma(u)
    except DefcalcError:  # a pole, -inf, or past the double range
        return math.nan


def _gamma_array(u):
    """gamma elementwise, NaN where it raises.  Neither that NaN nor its inf
    sets a floating-point flag, so under a raising ``invalid`` error mode a
    non-finite value raises FloatingPointError here, as a ufunc's would."""
    values = np.vectorize(_gamma_or_nan, otypes=[float])(u)
    if np.geterr()["invalid"] == "raise" and not np.isfinite(values).all():
        raise FloatingPointError("non-finite value encountered in gamma")
    return values


# Keyed by operator symbol or builtin name.  gamma is called through its
# module-global name, so a wrapper installed on special_functions sees it.
_OPERATIONS: dict[str, _Operation] = {
    "+": _Operation(operator.add, np.add, 2),
    "-": _Operation(operator.sub, np.subtract, 2),
    "*": _Operation(operator.mul, np.multiply, 2),
    "/": _Operation(operator.truediv, np.divide, 2),
    "^": _Operation(math.pow, np.power, 2),
    "exp": _Operation(math.exp, np.exp, 1, lambda u, du: _mul(Call("exp", (u,)), du)),
    "ln": _Operation(math.log, np.log, 1, lambda u, du: _div(du, u)),
    "sin": _Operation(math.sin, np.sin, 1, lambda u, du: _mul(Call("cos", (u,)), du)),
    "cos": _Operation(math.cos, np.cos, 1, lambda u, du: _mul(Neg(Call("sin", (u,))), du)),
    "sqrt": _Operation(math.sqrt, np.sqrt, 1,
                       lambda u, du: _div(du, _mul(_num(2.0), Call("sqrt", (u,))))),
    "gamma": _Operation(lambda u: special_functions.gamma(u), _gamma_array),
    "abs": _Operation(abs, np.abs),
    "pow": _Operation(math.pow, np.power, 2),
}
BUILTINS = tuple(name for name in _OPERATIONS if name.isalpha())

# The language :func:`parse` accepts; README quotes it and the CLI prints it.
GRAMMAR = """\
expression = term , { ("+" | "-") , term } ;
term       = unary , { ("*" | "/") , unary } ;
unary      = "-" , unary | power ;
power      = atom , [ "^" , unary ] ;          (* right-associative *)
atom       = number | "x" | call | "(" , expression , ")" ;
call       = builtin , "(" , expression , { "," , expression } , ")" ;
builtin    = %s ;
number     = digits , [ "." , [ digits ] ] , [ exponent ]
           | "." , digits , [ exponent ] ;
exponent   = ( "e" | "E" ) , [ "+" | "-" ] , digits ;
digits     = ( "0" | "1" | ... | "9" ) , { "0" | "1" | ... | "9" } ;""" % " | ".join(
    f'"{name}"' for name in BUILTINS)


# --- Lexer ---------------------------------------------------------------

# Digits are ASCII only; an exponent needs its digits ("2e" is 2, then the
# name e).  finditer skips what no group matches: exactly the characters
# str.isspace accepts, since "bad" takes every other one.
_TOKEN = re.compile(
    r"(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[^\W\d]\w*)"
    rf"|(?P<op>[{re.escape(''.join(n for n in _OPERATIONS if n not in BUILTINS))}(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) tuples, kind a group name of _TOKEN or, last, "end"."""
    tokens = [(match.lastgroup, match.group(), match.start()) for match in _TOKEN.finditer(source)]
    for kind, text, pos in tokens:
        if kind == "bad":
            raise ParseError(pos, "a number, name, or operator", repr(text))
    tokens.append(("end", "end of input", len(source)))
    return tokens


# --- Parser --------------------------------------------------------------


# Recursion ceiling while parsing: any tree of depth <= MAX_DEPTH needs at
# most ~2 nested productions per level, so this bound only trips on inputs
# that could not yield a legal tree anyway (and keeps the stack shallow).
_NESTING_LIMIT = 2 * MAX_DEPTH + 8


class _Parser:
    """Recursive descent over the token list.  Tests of a token's text need
    no kind check: no number, name or end token has an operator's text.
    ``nesting`` counts the expression and unary productions open, the one
    called included; ``call`` gets the count of its unary."""

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def enter(self, nesting: int):
        if nesting > _NESTING_LIMIT:
            raise ParseError(
                self.tokens[self.i][2], f"an expression of depth <= {MAX_DEPTH}", "deeper nesting"
            )

    def fail(self, expected: str):
        _, found, pos = self.tokens[self.i]
        raise ParseError(pos, expected, found)

    def guard(self, node: Expr, depth: int, pos: int) -> tuple[Expr, int]:
        if depth > MAX_DEPTH:
            raise ParseError(pos, f"an expression of depth <= {MAX_DEPTH}", "deeper nesting")
        return node, depth

    def expression(self, nesting: int) -> tuple[Expr, int]:
        """A sum of products of unary operands, each grouped to the left."""
        self.enter(nesting)
        tokens = self.tokens
        pending = None  # (op, left operand, its depth, op position) of a sum
        while True:
            node, depth = self.unary(nesting + 1)
            while tokens[self.i][1] in ("*", "/"):
                _, op, pos = tokens[self.i]
                self.i += 1
                rhs, rdepth = self.unary(nesting + 1)
                node, depth = self.guard(BinOp(op, node, rhs), max(depth, rdepth) + 1, pos)
            if pending is not None:
                op, lhs, ldepth, pos = pending
                node, depth = self.guard(BinOp(op, lhs, node), max(ldepth, depth) + 1, pos)
            _, op, pos = tokens[self.i]
            if op not in ("+", "-"):
                return node, depth
            self.i += 1
            pending = (op, node, depth, pos)

    def unary(self, nesting: int) -> tuple[Expr, int]:
        """A negation, or an operand with an optional right-associative ^."""
        self.enter(nesting)
        kind, text, pos = self.tokens[self.i]
        if text == "-":
            self.i += 1
            node, depth = self.unary(nesting + 1)
            return self.guard(Neg(node), depth + 1, pos)
        if kind == "number":
            self.i += 1
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(pos, "a finite number", text)
            node, depth = Number(value), 1
        elif kind == "ident":
            self.i += 1
            if text == "x":
                node, depth = Var(), 1
            elif text in BUILTINS:
                node, depth = self.call(text, pos, nesting)
            else:
                raise ParseError(pos, "x or a builtin function name", text)
        elif text == "(":
            self.i += 1
            node, depth = self.expression(nesting + 1)
            if self.tokens[self.i][1] != ")":
                self.fail("')'")
            self.i += 1
        else:
            self.fail("an operand")
        _, text, pos = self.tokens[self.i]
        if text == "^":
            self.i += 1
            rhs, rdepth = self.unary(nesting + 1)
            return self.guard(BinOp("^", node, rhs), max(depth, rdepth) + 1, pos)
        return node, depth

    def call(self, name: str, name_pos: int, nesting: int) -> tuple[Expr, int]:
        if self.tokens[self.i][1] != "(":
            self.fail(f"'(' after {name}")
        self.i += 1
        parsed = [self.expression(nesting + 1)]
        while self.tokens[self.i][1] == ",":
            self.i += 1
            parsed.append(self.expression(nesting + 1))
        if self.tokens[self.i][1] != ")":
            self.fail("')' or ','")
        closing = self.tokens[self.i][2]
        self.i += 1
        arity = _OPERATIONS[name].arity
        if len(parsed) != arity:
            raise ParseError(
                name_pos,
                f"{name} with {arity} argument{'s' if arity > 1 else ''}",
                f"{len(parsed)} arguments",
            )
        args, depths = zip(*parsed)
        return self.guard(Call(name, args), max(depths) + 1, closing)


def parse(source: str) -> Expr:
    """Parse an expression in the single free variable x.

    Raises :class:`ParseError` carrying the character position plus
    expected/found token descriptions; a number literal must be finite.
    """
    parser = _Parser(_tokenize(source))
    node, _ = parser.expression(1)
    if parser.tokens[parser.i][0] != "end":
        parser.fail("end of input")
    return node


# --- Evaluation ----------------------------------------------------------


def evaluate(ast: Expr, x: float) -> float:
    """Evaluate the expression at x.

    Out-of-domain builtin applications and non-finite intermediates raise
    :class:`EvaluationError` rather than propagating inf/nan.
    """
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Var):
        if math.isfinite(x):
            return x
        raise EvaluationError(f"x = {x} is not finite", ast, x)
    if isinstance(ast, Neg):
        return -evaluate(ast.operand, x)
    if isinstance(ast, BinOp):
        name, args = ast.op, (evaluate(ast.left, x), evaluate(ast.right, x))
    else:
        name, args = ast.name, tuple([evaluate(a, x) for a in ast.args])
    try:
        value = _OPERATIONS[name].scalar(*args)
    except (ValueError, OverflowError, ZeroDivisionError, DefcalcError) as exc:
        if isinstance(ast, BinOp):
            message = f"{to_source(ast)} undefined for arguments ({args[0]}, {args[1]})"
        else:
            message = f"{name} undefined for argument {args}"
        raise EvaluationError(message, ast, args) from exc
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite result from {to_source(ast)} at x = {x}", ast, x)
    return value


# --- Symbolic differentiation --------------------------------------------


def _num(v: float) -> Number:
    return Number(float(v))


def _is_const(node: Expr, value: float | None = None) -> bool:
    return isinstance(node, Number) and (value is None or node.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _num(0.0)
    return BinOp("/", a, b)


def _contains_var(node: Expr) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Number):
        return False
    if isinstance(node, Neg):
        return _contains_var(node.operand)
    if isinstance(node, BinOp):
        return _contains_var(node.left) or _contains_var(node.right)
    return any(_contains_var(a) for a in node.args)


def differentiate(ast: Expr) -> Expr:
    """Symbolic derivative d/dx as a new expression tree.

    Power with a non-constant exponent is rewritten through exp(b ln a),
    which restricts the domain to a > 0.  A builtin whose table entry has no
    derivative rule raises :class:`UnsupportedDerivative`.
    """
    if isinstance(ast, Number):
        return _num(0.0)
    if isinstance(ast, Var):
        return _num(1.0)
    if isinstance(ast, Neg):
        d = differentiate(ast.operand)
        return _num(0.0) if _is_const(d, 0.0) else Neg(d)
    if isinstance(ast, BinOp):
        a, b = ast.left, ast.right
        if ast.op == "+":
            return _add(differentiate(a), differentiate(b))
        if ast.op == "-":
            return _sub(differentiate(a), differentiate(b))
        if ast.op == "*":
            return _add(_mul(differentiate(a), b), _mul(a, differentiate(b)))
        if ast.op == "/":
            num = _sub(_mul(differentiate(a), b), _mul(a, differentiate(b)))
            return _div(num, BinOp("^", b, _num(2.0)))
        return _diff_power(a, b)
    if ast.name == "pow":
        return _diff_power(ast.args[0], ast.args[1])
    u = ast.args[0]
    du = differentiate(u)
    rule = _OPERATIONS[ast.name].derivative
    if rule is None:
        raise UnsupportedDerivative(f"{ast.name} is not differentiable in this engine")
    return rule(u, du)


def _diff_power(base: Expr, exponent: Expr) -> Expr:
    if not _contains_var(exponent):
        # d(a^c) = c a^(c-1) a'
        if isinstance(exponent, Number):
            cm1: Expr = _num(exponent.value - 1.0)
        else:
            cm1 = _sub(exponent, _num(1.0))
        return _mul(_mul(exponent, BinOp("^", base, cm1)), differentiate(base))
    # a^b = exp(b ln a): d = a^b (b' ln a + b a'/a); requires a > 0
    inner = _add(
        _mul(differentiate(exponent), Call("ln", (base,))),
        _div(_mul(exponent, differentiate(base)), base),
    )
    return _mul(BinOp("^", base, exponent), inner)


# --- Printing ------------------------------------------------------------


def to_source(ast: Expr) -> str:
    """Render a tree as parseable source; parse(to_source(t)) == t structurally
    whenever every number literal in t is finite and non-negative (the parser
    only builds such trees)."""
    if isinstance(ast, Number):
        return repr(ast.value)
    if isinstance(ast, Var):
        return "x"
    if isinstance(ast, Neg):
        return f"(-{to_source(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({to_source(ast.left)}{ast.op}{to_source(ast.right)})"
    return f"{ast.name}({', '.join(to_source(a) for a in ast.args)})"


# --- Evaluation over arrays ---------------------------------------------


def _evaluate_array(ast: Expr, xs: np.ndarray, ok: Optional[np.ndarray]):
    """``ast`` elementwise over the array xs by numpy ufuncs.  Given ``ok``,
    every BinOp and Call node clears it where its value is not finite: these
    are the nodes at which :func:`evaluate` raises, so ``ok`` ends up false
    exactly where the scalar evaluation would fail."""
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Var):
        return xs
    if isinstance(ast, Neg):
        return np.negative(_evaluate_array(ast.operand, xs, ok))
    if isinstance(ast, BinOp):
        name, args = ast.op, (_evaluate_array(ast.left, xs, ok), _evaluate_array(ast.right, xs, ok))
    else:
        name, args = ast.name, [_evaluate_array(a, xs, ok) for a in ast.args]
    value = _OPERATIONS[name].ufunc(*args)
    if ok is not None:
        ok &= np.isfinite(value)
    return value


def _compile(ast: Expr) -> Callable:
    """``ast`` as a function of a float, by :func:`evaluate`, or of an array
    of x, by one :func:`_evaluate_array` walk that traps numpy's overflow,
    divide and invalid flags: with finite x and literals, a walk that raises
    none met only finite values.  Otherwise a second walk masks the
    non-finite ones, and :func:`evaluate` runs at each masked x in array
    order: the call raises evaluate's :class:`EvaluationError` at the first x
    where both fail, with ``index`` set to its position.  Where numpy and
    libm round differently, evaluate may fail at an earlier x that the array
    walk passed, so ``index`` is never below, but may lie above, the first
    failure of a point-by-point evaluation.
    """

    def fn(x):
        if not isinstance(x, np.ndarray) or x.ndim == 0:
            return evaluate(ast, x)
        xs = x.astype(float, copy=False)
        values = ok = None
        if np.isfinite(xs).all():
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                    values = _evaluate_array(ast, xs, None)
            except FloatingPointError:
                pass
        if values is None:
            ok = np.isfinite(xs)  # a non-finite x fails at its Var node
            with np.errstate(all="ignore"):
                values = _evaluate_array(ast, xs, ok)
        if values is xs or np.shape(values) != xs.shape:  # x itself, or a constant
            values = np.full(xs.shape, values)
        if ok is None or ok.all():
            return values
        for i in np.flatnonzero(~ok):
            try:
                values.flat[i] = evaluate(ast, float(xs.flat[i]))
            except EvaluationError as exc:
                exc.index = int(i)
                raise
        return values

    return fn


def _apply(fn: Callable, x):
    """fn at a float, or elementwise over an array of x: in one call when fn
    takes arrays, else point by point (a DefcalcError then carries the
    position of the failing x as ``index``)."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return fn(x)
    try:
        values = np.asarray(fn(x), dtype=float)
    except (TypeError, ValueError):  # fn takes scalars only
        values = None
    if values is not None and values.shape == x.shape:
        return values
    values = np.empty(x.shape)
    for i, t in enumerate(x.flat):
        try:
            values.flat[i] = fn(float(t))
        except DefcalcError as exc:
            exc.index = i
            raise
    return values


# --- RealFunction --------------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """An evaluable scalar function of one real variable.

    ``derivative`` is the exact derivative when available (symbolic for
    parsed expressions, caller-supplied for closures); operators fall back to
    a central-difference limit when it is None.  Calling the function, or
    :meth:`derivative_at`, takes a float or an array of x; a callable that
    only takes scalars is then applied point by point.
    """

    value: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None
    label: str = "f"

    def __call__(self, x):
        return _apply(self.value, x)

    def derivative_at(self, x):
        """The attached derivative at a float, or elementwise over an array of x."""
        if self.derivative is None:
            raise UnsupportedDerivative(f"no derivative is attached to {self.label}")
        return _apply(self.derivative, x)

    @classmethod
    def from_callable(cls, f: Callable[[float], float], df=None, label: str = "f") -> "RealFunction":
        return cls(value=f, derivative=df, label=label)

    @classmethod
    def from_expression(cls, source: str) -> "RealFunction":
        """Parse ``source`` and attach its symbolic derivative when the tree
        is differentiable (a builtin without a derivative rule leaves
        derivative = None).  Either takes an array of x in one walk of its
        tree by numpy ufuncs, and a second, masked walk only where the first
        meets a non-finite value (:func:`_compile`); a float x, :func:`evaluate`."""
        ast = parse(source)
        try:
            dast = differentiate(ast)
        except UnsupportedDerivative:
            dast = None
        return cls(
            value=_compile(ast),
            derivative=_compile(dast) if dast is not None else None,
            label=source,
        )


def as_real_function(f) -> RealFunction:
    """Coerce a RealFunction, expression string, or plain callable."""
    if isinstance(f, RealFunction):
        return f
    if isinstance(f, str):
        return RealFunction.from_expression(f)
    if callable(f):
        return RealFunction.from_callable(f)
    raise TypeError(f"cannot interpret {f!r} as a real function")

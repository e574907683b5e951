"""Expression language for user-supplied test functions.

Grammar (EBNF, also published in the README):

    expression = term , { ("+" | "-") , term } ;
    term       = unary , { ("*" | "/") , unary } ;
    unary      = "-" , unary | power ;
    power      = atom , [ "^" , unary ] ;          (* right-associative *)
    atom       = number | "x" | call | "(" , expression , ")" ;
    call       = builtin , "(" , expression , { "," , expression } , ")" ;
    builtin    = (* a name in BUILTINS *) ;
    number     = digits , [ "." , [ digits ] ] , [ exponent ]
               | "." , digits , [ exponent ] ;
    exponent   = ( "e" | "E" ) , [ "+" | "-" ] , digits ;
    digits     = ( "0" | "1" | ... | "9" ) , { "0" | "1" | ... | "9" } ;

"^" binds tighter than unary minus, so -x^2 parses as -(x^2).  Each
builtin's arity, like its float and numpy functions and its derivative rule,
comes from the operation table ``_OPERATIONS``.  The single free variable is
x.  Parsed trees are limited to depth 64.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

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
    except DefcalcError:  # a pole, or -inf
        return math.nan


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
    "gamma": _Operation(lambda u: special_functions.gamma(u),
                        np.vectorize(_gamma_or_nan, otypes=[float])),
    "abs": _Operation(abs, np.abs),
    "pow": _Operation(math.pow, np.power, 2),
}
BUILTINS = tuple(name for name in _OPERATIONS if name.isalpha())


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


class _Token(NamedTuple):
    kind: str  # "number" | "ident" | "op" | "end"
    text: str  # a single operator character only for an "op" token
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(source):
        if match.lastgroup == "bad":
            raise ParseError(match.start(), "a number, name, or operator", repr(match.group()))
        tokens.append(_Token(match.lastgroup, match.group(), match.start()))
    tokens.append(_Token("end", "end of input", len(source)))
    return tokens


# --- Parser --------------------------------------------------------------


# Recursion ceiling while parsing: any tree of depth <= MAX_DEPTH needs at
# most ~2 nested productions per level, so this bound only trips on inputs
# that could not yield a legal tree anyway (and keeps the stack shallow).
_NESTING_LIMIT = 2 * MAX_DEPTH + 8

# Binding power of the left-associative operators ("^" is right-associative,
# in power()).  Like every test of a token's text below, this needs no kind
# check: no number, name or end token has an operator's text.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    def enter(self):
        self.nesting += 1
        if self.nesting > _NESTING_LIMIT:
            raise ParseError(
                self.peek().pos, f"an expression of depth <= {MAX_DEPTH}", "deeper nesting"
            )

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(tok.pos, expected, found)

    def guard(self, node: Expr, depth: int, pos: int) -> tuple[Expr, int]:
        if depth > MAX_DEPTH:
            raise ParseError(pos, f"an expression of depth <= {MAX_DEPTH}", "deeper nesting")
        return node, depth

    def expression(self) -> tuple[Expr, int]:
        self.enter()
        try:
            return self.binary(1)
        finally:
            self.nesting -= 1

    def binary(self, floor: int) -> tuple[Expr, int]:
        """Unary operands joined by the operators binding at least ``floor``,
        grouped to the left: a sum of products from floor 1, a product from 2."""
        node, depth = self.unary()
        while _BINDING.get(self.peek().text, 0) >= floor:
            op = self.advance()
            rhs, rdepth = self.binary(_BINDING[op.text] + 1)
            node, depth = self.guard(BinOp(op.text, node, rhs), max(depth, rdepth) + 1, op.pos)
        return node, depth

    def unary(self) -> tuple[Expr, int]:
        self.enter()
        try:
            tok = self.peek()
            if tok.text == "-":
                self.advance()
                node, depth = self.unary()
                return self.guard(Neg(node), depth + 1, tok.pos)
            return self.power()
        finally:
            self.nesting -= 1

    def power(self) -> tuple[Expr, int]:
        node, depth = self.atom()
        tok = self.peek()
        if tok.text == "^":
            self.advance()
            rhs, rdepth = self.unary()  # right-associative exponent
            return self.guard(BinOp("^", node, rhs), max(depth, rdepth) + 1, tok.pos)
        return node, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Number(float(tok.text)), 1
        if tok.kind == "ident":
            self.advance()
            if tok.text == "x":
                return Var(), 1
            if tok.text in BUILTINS:
                return self.call(tok)
            raise ParseError(tok.pos, "x or a builtin function name", tok.text)
        if self.peek().text == "(":
            self.advance()
            node, depth = self.expression()
            if self.peek().text != ")":
                self.fail("')'")
            self.advance()
            return node, depth
        self.fail("an operand")

    def call(self, name_tok: _Token) -> tuple[Expr, int]:
        if self.peek().text != "(":
            self.fail(f"'(' after {name_tok.text}")
        self.advance()
        parsed = [self.expression()]
        while self.peek().text == ",":
            self.advance()
            parsed.append(self.expression())
        if self.peek().text != ")":
            self.fail("')' or ','")
        closing = self.advance()
        arity = _OPERATIONS[name_tok.text].arity
        if len(parsed) != arity:
            raise ParseError(
                name_tok.pos,
                f"{name_tok.text} with {arity} argument{'s' if arity > 1 else ''}",
                f"{len(parsed)} arguments",
            )
        args, depths = zip(*parsed)
        return self.guard(Call(name_tok.text, args), max(depths) + 1, closing.pos)


def parse(source: str) -> Expr:
    """Parse an expression in the single free variable x.

    Raises :class:`ParseError` carrying the character position plus
    expected/found token descriptions.
    """
    parser = _Parser(_tokenize(source))
    node, _ = parser.expression()
    if parser.peek().kind != "end":
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
        return x
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
    if _is_const(b, 1.0):
        return a
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
    whenever every number literal in t is non-negative (the parser only builds
    such trees)."""
    if isinstance(ast, Number):
        return repr(ast.value)
    if isinstance(ast, Var):
        return "x"
    if isinstance(ast, Neg):
        return f"(-{to_source(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({to_source(ast.left)}{ast.op}{to_source(ast.right)})"
    return f"{ast.name}({', '.join(to_source(a) for a in ast.args)})"


# --- Compilation to numpy ------------------------------------------------


def _lower(ast: Expr) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Lower ``ast`` to node(xs, ok), its value elementwise over the array xs.

    Every BinOp and Call node clears ``ok`` where its result is not finite:
    these are the nodes at which :func:`evaluate` raises, so ``ok`` ends up
    false exactly where the scalar evaluation would fail.
    """
    if isinstance(ast, Number):
        value = ast.value
        return lambda xs, ok: value
    if isinstance(ast, Var):
        return lambda xs, ok: xs
    if isinstance(ast, Neg):
        operand = _lower(ast.operand)
        return lambda xs, ok: np.negative(operand(xs, ok))
    if isinstance(ast, BinOp):
        name, args = ast.op, (_lower(ast.left), _lower(ast.right))
    else:
        name, args = ast.name, tuple(map(_lower, ast.args))
    ufunc = _OPERATIONS[name].ufunc

    def node(xs, ok):
        value = ufunc(*[arg(xs, ok) for arg in args])
        ok &= np.isfinite(value)
        return value

    return node


def _compile(ast: Expr) -> Callable:
    """``ast`` as a function of a float, by :func:`evaluate`, or of an array
    of x, by numpy ufuncs over the whole array at once.

    Where the array pass meets a non-finite intermediate, :func:`evaluate`
    runs at that x, in array order: it raises the same
    :class:`EvaluationError` as a point-by-point evaluation would, with
    ``index`` set to the position of that x.
    """
    node = _lower(ast)

    def fn(x):
        if not isinstance(x, np.ndarray) or x.ndim == 0:
            return evaluate(ast, x)
        xs = x.astype(float, copy=False)
        ok = np.ones(xs.shape, dtype=bool)
        with np.errstate(all="ignore"):
            values = node(xs, ok)
        if values is xs or np.shape(values) != xs.shape:  # x itself, or a constant
            values = np.full(xs.shape, values)
        if ok.all():
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
        return _apply(self.derivative, x)

    @classmethod
    def from_callable(cls, f: Callable[[float], float], df=None, label: str = "f") -> "RealFunction":
        return cls(value=f, derivative=df, label=label)

    @classmethod
    def from_expression(cls, source: str) -> "RealFunction":
        """Parse ``source`` and attach its symbolic derivative when the tree
        is differentiable (a builtin without a derivative rule leaves
        derivative = None).  Both are
        compiled once to numpy, so either evaluates a whole array of x in one
        pass; a float x still goes through :func:`evaluate`."""
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

    @classmethod
    def from_samples(cls, xs, ys, label: str = "samples") -> "RealFunction":
        """Piecewise-linear interpolant of a sampled grid; no derivative."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("from_samples needs matching 1-d arrays with >= 2 points")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("sample abscissae must be strictly increasing")

        def value(x: float) -> float:
            if x < xs[0] or x > xs[-1]:
                raise EvaluationError(
                    f"x = {x} outside sampled range [{xs[0]}, {xs[-1]}]", None, x
                )
            return float(np.interp(x, xs, ys))

        return cls(value=value, derivative=None, label=label)


def as_real_function(f) -> RealFunction:
    """Coerce a RealFunction, expression string, or plain callable."""
    if isinstance(f, RealFunction):
        return f
    if isinstance(f, str):
        return RealFunction.from_expression(f)
    if callable(f):
        return RealFunction.from_callable(f)
    raise TypeError(f"cannot interpret {f!r} as a real function")

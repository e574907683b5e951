"""Seeded expressions for the benchmark, held as small trees of its own.

A tree renders to defcalc's ``--fn`` syntax and evaluates with numpy on real,
longdouble or complex arrays, so the checkers never call defcalc's parser,
evaluator or differentiator.  Derivatives come from the complex step
f'(x) = Im f(x + i s) / s, which has no subtractive cancellation.

Tree nodes are tuples: ("x",), ("c", v), ("neg", a), (op, a, b) for op in
+ - * /, ("^", a, c) and ("pow", a, c) with a constant exponent c, and
(name, a) for the calls exp, ln, sin, cos, sqrt.
"""

from __future__ import annotations

import math
import random

import numpy as np

CALLS = ("exp", "ln", "sin", "cos", "sqrt")
EXPONENTS = (0.5, 1.5, 2.0, 3.0)
STEP = 1e-20  # complex-step size; any value far below sqrt(eps) is exact

# Safety filter, in the spirit of the library's own test generator: every
# singular source (division, sqrt/ln argument, fractional-power base) stays
# MARGIN away on the probe window, node values and slopes stay bounded, and
# the arguments of exp/sin/cos vary slowly.
MARGIN = 0.25
VALUE_CAP = 1e3
SLOPE_CAP = 1e3
ARG_RATE_CAP = 20.0


class Unsafe(Exception):
    """The tree comes too close to a singularity on the probe window."""


def render(t) -> str:
    """defcalc source text, fully parenthesised."""
    kind = t[0]
    if kind == "x":
        return "x"
    if kind == "c":
        return repr(t[1])
    if kind == "neg":
        return f"(-{render(t[1])})"
    if kind in ("+", "-", "*", "/"):
        return f"({render(t[1])}{kind}{render(t[2])})"
    if kind == "^":
        return f"({render(t[1])}^{t[2]!r})"
    if kind == "pow":
        return f"pow({render(t[1])}, {t[2]!r})"
    return f"{kind}({render(t[1])})"


_FUNCS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}


def _power(a, c: float):
    if c == int(c):  # integer power by multiplication: valid for any sign of a
        n = int(c)
        out = np.ones_like(a)
        for _ in range(abs(n)):
            out = out * a
        return out if n >= 0 else 1.0 / out
    return a**c


def evaluate(t, z, visit=None):
    """Evaluate on a numpy array ``z`` of any float or complex dtype.

    ``visit(kind, node_value, operand_values)`` is called at every node when
    given; the safety filter uses it.
    """
    kind = t[0]
    if kind == "x":
        v = z
    elif kind == "c":
        v = np.full_like(z, t[1])
    elif kind == "neg":
        v = -evaluate(t[1], z, visit)
    elif kind in ("+", "-", "*", "/"):
        a = evaluate(t[1], z, visit)
        b = evaluate(t[2], z, visit)
        if visit:
            visit(kind, None, (a, b))
        v = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[kind](a, b)
    elif kind in ("^", "pow"):
        a = evaluate(t[1], z, visit)
        if visit:
            visit("^", None, (a, t[2]))
        v = _power(a, t[2])
    else:
        a = evaluate(t[1], z, visit)
        if visit:
            visit(kind, None, (a,))
        v = _FUNCS[kind](a)
    if visit:
        visit("node", v, ())
    return v


def derivative(t, x: np.ndarray) -> np.ndarray:
    """f'(x) by the complex step, exact to rounding of the evaluation."""
    return evaluate(t, np.asarray(x, dtype=float) + 1j * STEP).imag / STEP


def magnitude(t, x: np.ndarray) -> np.ndarray:
    """Largest |node value| or |node slope| of the tree at each x.

    Rounding in any evaluation of f or f' is a few units of eps times this,
    per node; the checkers' rounding bounds use it.
    """
    z = np.asarray(x, dtype=float) + 1j * STEP
    top = np.zeros(z.shape)

    def visit(kind, value, _operands):
        nonlocal top
        if kind == "node":
            top = np.maximum(top, np.maximum(np.abs(value.real), np.abs(value.imag) / STEP))

    evaluate(t, z, visit)
    return np.maximum(top, 1.0)


def nodes(t) -> int:
    kind = t[0]
    if kind in ("x", "c"):
        return 1
    if kind in ("+", "-", "*", "/"):
        return 1 + nodes(t[1]) + nodes(t[2])
    return 1 + nodes(t[1])


def has_x(t) -> bool:
    if t[0] == "x":
        return True
    if t[0] == "c":
        return False
    if t[0] in ("+", "-", "*", "/"):
        return has_x(t[1]) or has_x(t[2])
    return has_x(t[1])


def check_safe(t, window: np.ndarray) -> None:
    """Raise :class:`Unsafe` unless ``t`` keeps the margins on ``window``."""
    z = window + 1j * STEP

    def visit(kind, value, operands):
        if kind == "node":
            if not np.all(np.isfinite(value)):
                raise Unsafe
            if np.max(np.abs(value.real)) > VALUE_CAP or np.max(np.abs(value.imag)) / STEP > SLOPE_CAP:
                raise Unsafe
        elif kind == "/":
            if np.min(np.abs(operands[1].real)) < MARGIN:
                raise Unsafe
        elif kind == "^":
            base, c = operands
            if c != int(c) and np.min(base.real) < MARGIN:
                raise Unsafe
        elif kind in ("sqrt", "ln"):
            if np.min(operands[0].real) < MARGIN:
                raise Unsafe
        elif kind in ("exp", "sin", "cos"):
            u = operands[0]
            if np.max(np.abs(u.imag)) / STEP > ARG_RATE_CAP:
                raise Unsafe
            if kind == "exp" and np.max(u.real) > math.log(VALUE_CAP):
                raise Unsafe

    with np.errstate(all="ignore"):
        evaluate(t, z, visit)


def _constant(rng: random.Random) -> tuple:
    return ("c", round(rng.uniform(0.2, 3.0), 3))


def random_tree(rng: random.Random, size: int):
    """A tree of exactly ``size`` nodes."""
    if size <= 1:
        return ("x",) if rng.random() < 0.6 else _constant(rng)
    roll = rng.random()
    if size == 2 or roll < 0.5:
        sub = random_tree(rng, size - 1)
        pick = rng.random()
        if pick < 0.15:
            return ("neg", sub)
        if pick < 0.65:
            return (rng.choice(CALLS), sub)
        return (rng.choice(("^", "^", "pow")), sub, rng.choice(EXPONENTS))
    left = rng.randint(1, size - 2)
    return (rng.choice("+-*/"), random_tree(rng, left), random_tree(rng, size - 1 - left))


def safe_tree(rng: random.Random, size: int, window: np.ndarray):
    """Draw trees of ``size`` nodes until one depends on x and is safe on ``window``."""
    while True:
        t = random_tree(rng, size)
        if not has_x(t):
            continue
        try:
            check_safe(t, window)
        except Unsafe:
            continue
        return t

"""Exception types shared across the toolkit."""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np


class DefcalcError(Exception):
    """Base class for all toolkit errors.

    ``index`` is the position of the failing x when the error comes from an
    evaluation over an array of x, else None.  It is set when the error is
    built, ``DomainError(message, index=i)``, or by a point-by-point caller.
    """

    def __init__(self, *args, index: Optional[int] = None):
        super().__init__(*args)
        self.index = index


class DomainError(DefcalcError):
    """An argument falls outside the mathematical domain of an operation."""


def _reject(bad, x, message: str) -> None:
    """Raise DomainError where ``bad`` holds, naming the first such x: over
    an array of x, ``bad`` is an array and the error carries its ``index``."""
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        index = int(bad.argmax()) if isinstance(bad, np.ndarray) else None
        raise DomainError(f"{message}, got {x if index is None else x.ravel()[index]}",
                          index=index)


def _elementwise(f):
    """Decorator for ``f(x, ...)``, which returns one float per element of x
    (a float or an array), each from Python floats.  The wrapped function
    returns a float or an array of x's shape, and raises DomainError as
    :func:`_reject` does at the first x whose value is not finite: an inf, a
    nan, or an OverflowError or ZeroDivisionError (0.0 to a negative power)
    from Python floats, found over an array by float calls."""
    message = f"{f.__name__} passes the double range"

    @functools.wraps(f)
    def wrapped(x, *args, **kwargs):
        array = isinstance(x, np.ndarray)
        try:
            values = f(x, *args, **kwargs)
        except ArithmeticError:
            for i, v in enumerate(x.ravel().tolist() if array else []):
                try:
                    wrapped(v, *args, **kwargs)
                except DomainError as exc:
                    raise DomainError(*exc.args, index=i) from None
            values = [math.inf]  # x is a float: an array raised above
        values = np.array(values).reshape(x.shape) if array else values[0]
        _reject(~np.isfinite(values) if array else not math.isfinite(values), x, message)
        return values

    return wrapped


class PoleError(DefcalcError):
    """Evaluation requested at (or within tolerance of) a pole."""


class ConvergenceError(DefcalcError):
    """A series or iteration exhausted its budget before converging."""


class EvaluationError(DefcalcError):
    """A function evaluation failed (out-of-domain builtin, non-finite result).

    Carries the offending expression node and argument when raised by the
    expression evaluator.
    """

    def __init__(self, message: str, node=None, argument=None):
        super().__init__(message)
        self.node = node
        self.argument = argument


class StepFailure(DefcalcError):
    """The adaptive step controller underflowed the step size or spent its step budget."""


class DegenerateInput(DefcalcError):
    """An input makes the requested quantity undefined (e.g. f'(x) = 0 in a ratio)."""


class UnsupportedDerivative(DefcalcError):
    """Symbolic differentiation was requested for a non-differentiable builtin."""


class ParseError(DefcalcError):
    """Expression syntax error with source position and token context."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(f"at position {position}: expected {expected}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found

"""Exception types shared across the toolkit."""

from __future__ import annotations

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
    """The adaptive step controller underflowed the step size."""


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

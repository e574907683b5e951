"""Batch command-line front end.

Subcommands: deriv (operator over a grid), solve (eigen verification),
map (q <-> zeta bridge), expand (prefactor expansions), ml (Mittag-Leffler),
selftest (built-in invariant suite).

Exit codes: 0 success, 2 configuration error, 3 numerical failure, and
from the console script 141 (128 + SIGPIPE) when the reader of stdout closed it.
Grid tables print as CSV (header ``x,value[,closed_form,residual]``) or JSON
(object with ``command``, ``params``, ``rows``; ``map``'s default); values
carry 17 significant digits so repeated runs are byte-identical.  The table,
on stdout or in the ``--output`` file, is written only when the command
succeeds.  A parameter flag that the command does not read exits 2: one that
is not a field of the class the command builds, a field its form does not
read (``--l0`` with ``deriv --op hausdorff --form quotient``), or ``--tol``
where the solve takes no tolerance (``solve --problem fractional``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Optional, get_type_hints

import numpy as np

from . import selftest as selftest_module
from ._csv17 import write_table
from .deformed_algebra import KappaParam, QParam
from .derivative_ops import OPERATORS, DiffSettings
from .eigen_solvers import _ODE_TOL, solve_hausdorff_eigen, solve_q_eigen, verify_fractional_eigen
from .errors import DefcalcError, DomainError, ParseError
from .function_catalog import GRAMMAR, RealFunction
from .mappings import expand_hausdorff_prefactor, kappa_expansion, q_from_zeta, zeta_from_q
from .special_functions import HausdorffParams, mittag_leffler

_EXPRESSION_HELP = (
    "expression syntax for --fn (single free variable x):\n"
    + "".join(f"  {line}\n" for line in GRAMMAR.splitlines())
    + 'examples: "x^2", "exp(-x^2/2)", "sin(x)*sqrt(1+x^2)"\n'
)


class ConfigError(Exception):
    """Invalid flag combination or out-of-domain grid; maps to exit code 2."""


# The flags that set a field of a parameter class, and --tol, which sets the
# tolerance of an ODE solve.
_PARAM_FLAGS = ("q", "kappa", "zeta", "l0", "alpha", "h", "terms", "tol")
# The flags a table's JSON "params" lists when given, in this order.
_PARAMS = ("op", "form", "fn", "problem", *_PARAM_FLAGS, "order", "z")


def _params(opt: dict) -> dict:
    return {name: opt[name] for name in _PARAMS if opt.get(name) is not None}


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid must be start:stop:points, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid must be start:stop:points, got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--grid ends must be finite, got {text!r}")
    if points < 2:
        raise ConfigError(f"--grid needs at least 2 points, got {points}")
    if not start < stop:
        raise ConfigError(f"--grid needs start < stop, got {text!r}")
    return start, stop, points


def _build_function(source: Optional[str]) -> RealFunction:
    if not source:
        raise ConfigError("--fn is required for this command")
    try:
        return RealFunction.from_expression(source)
    except ParseError as exc:
        caret = " " * exc.position + "^"
        raise ConfigError(
            f"--fn expression error at position {exc.position}: expected {exc.expected}, "
            f"found {exc.found}\n  {source}\n  {caret}"
        ) from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# The argparse type of a flag, by the annotation of the field it sets.
_FLAG_TYPES = {float: _finite_float, Optional[int]: int}


def _param_flags(classes) -> dict:
    """``--flag`` -> argparse type for each field of ``classes``, in order of
    first use; a field's ``flag`` metadata names a flag other than its name."""
    flags = {}
    for cls in classes:
        hints = get_type_hints(cls)
        for param in fields(cls):
            flag = "--" + param.metadata.get("flag", param.name)
            flags.setdefault(flag, _FLAG_TYPES[hints[param.name]])
    return flags


@dataclass(frozen=True)
class _Fractional:
    """The parameters of ``solve --problem fractional``, which
    :func:`verify_fractional_eigen` checks."""

    alpha: float
    h: float = 1e-3


# Keyed by --problem: the class whose fields are the problem's parameters, the
# flags the solve reads besides them, and solve(params, domain, points, tol),
# which calls the solver by its module-global name so that a wrapper installed
# on the module sees the call.
_PROBLEMS: dict[str, tuple[type, tuple[str, ...], Callable]] = {
    "q": (QParam, ("tol",), lambda p, domain, n, tol: solve_q_eigen(p, domain, n, tol)),
    "hausdorff": (HausdorffParams, ("tol",),
                  lambda p, domain, n, tol: solve_hausdorff_eigen(p, domain, n, tol)),
    "fractional": (_Fractional, (),
                   lambda p, domain, n, tol: verify_fractional_eigen(p.alpha, domain, n, p.h)),
}


def _from_options(cls, opt: dict, who: str, extra=(), unread=(), unread_by: str = ""):
    """``cls`` built from the flags its dataclass fields name, less the fields
    named in ``unread``; a field with no default needs its flag, else ``who``
    requires it.  ``who`` takes no other parameter flag but ``extra``, and
    ``unread_by`` does not take the flags of ``unread``."""
    values, taken, skipped = {}, set(extra), set()
    for param in fields(cls):
        flag = param.metadata.get("flag", param.name)
        if param.name in unread:
            skipped.add(flag)
            continue
        taken.add(flag)
        if opt.get(flag) is not None:
            values[param.name] = opt[flag]
        elif param.default is MISSING:
            raise ConfigError(f"{who} requires --{flag}")
    for flag in _PARAM_FLAGS:
        if flag not in taken and opt.get(flag) is not None:
            raise ConfigError(f"{unread_by if flag in skipped else who} does not take --{flag}")
    return cls(**values)


def _run_grid(compute: Callable, xs: np.ndarray, where: str):
    """``compute(xs)``; a :class:`DefcalcError` names the first x that fails
    (``where`` names it).  The library raises where a value is not finite, so
    every value returned is finite.

    An error need not name the first failing x: the probe arrays of a limit
    form run one after another.  So the part of the grid before a failure runs
    again until it passes.
    """
    failure, end = None, xs.size
    while end > 0:
        try:
            with np.errstate(all="ignore"):
                values = compute(xs[:end])
            if failure is None:
                return values
            break
        except DefcalcError as exc:
            # an index outside the part just run counts positions in another array
            inside = exc.index is not None and 0 <= exc.index < end
            failure, end = exc, exc.index if inside else 0
    raise DefcalcError(f"{where} = {xs[end]}: {failure}") from failure


def _run_deriv(opt: dict, grid):
    name = opt["op"]
    op = OPERATORS[name]
    settings = DiffSettings(opt["base_step"], opt["levels"])
    way = getattr(op, opt["form"])
    if way is None:
        names = " and ".join(f"--op {key}" for key, entry in OPERATORS.items() if entry.quotient)
        raise ConfigError(f"--form quotient applies only to {names}")
    kind = _from_options(op.kind, opt, f"--op {name}", unread=way.unread,
                         unread_by=f"--op {name} --form {opt['form']}")
    f = _build_function(opt["fn"])
    xs = np.linspace(*grid)
    try:
        values = _run_grid(lambda part: way.evaluate(kind, f, part, settings), xs,
                           f"{name} operator at x")
    except DefcalcError as exc:
        if isinstance(exc.__cause__, DomainError):  # the operator's own domain check
            raise ConfigError(f"--grid outside the operator domain: {exc}") from exc
        raise
    return ("x", "value"), np.column_stack((xs, values))


def _run_solve(opt: dict, grid):
    problem = opt["problem"]
    cls, extra, solve = _PROBLEMS[problem]
    start, stop, points = grid
    tol = _ODE_TOL if opt["tol"] is None else opt["tol"]
    try:
        report = solve(_from_options(cls, opt, f"--problem {problem}", extra=extra),
                       (start, stop), points, tol)
    except DomainError as exc:
        # the solvers reject out-of-domain grids up front; that is a config error
        raise ConfigError(f"--grid outside the problem domain: {exc}") from exc
    except DefcalcError as exc:
        raise DefcalcError(f"solve --problem {problem}: {exc}") from exc
    print(
        f"max_rel_residual = {report.max_rel_residual:.3e}, "
        f"rms_rel_residual = {report.rms_rel_residual:.3e}",
        file=sys.stderr,
    )
    return ("x", "value", "closed_form", "residual"), report.table


def _run_map(opt: dict, grid):
    has_zeta, has_q = opt.get("zeta") is not None, opt.get("q") is not None
    if has_zeta == has_q:
        raise ConfigError("map needs exactly one of --zeta or --q")
    if has_zeta:
        result = q_from_zeta(_from_options(HausdorffParams, opt, "map"))
    else:
        l0 = HausdorffParams.l0 if opt["l0"] is None else opt["l0"]
        result = zeta_from_q(opt["q"], l0)
    row = [result.q, result.zeta, result.l0, result.first_order_residual_bound]
    return ("q", "zeta", "l0", "first_order_residual_bound"), np.array([row])


def _run_expand(opt: dict, grid):
    has_zeta, has_kappa = opt.get("zeta") is not None, opt.get("kappa") is not None
    if has_zeta == has_kappa:
        raise ConfigError("expand needs exactly one of --zeta or --kappa")
    if has_zeta:
        expansion = expand_hausdorff_prefactor(_from_options(HausdorffParams, opt, "expand"),
                                               opt["order"])
    else:
        expansion = kappa_expansion(_from_options(KappaParam, opt, "expand"), opt["order"])
    c = expansion.coefficients
    return ("x", "value"), np.column_stack((np.arange(len(c), dtype=float), c))


def _run_ml(opt: dict, grid):
    if (opt.get("z") is None) == (grid is None):
        raise ConfigError("ml needs exactly one of --z or --grid")
    zs = np.array([opt["z"]]) if opt.get("z") is not None else np.linspace(*grid)
    values = _run_grid(lambda z: mittag_leffler(z, opt["alpha"]), zs, "ml at z")
    return ("x", "value"), np.column_stack((zs, values))


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command line; deterministic output for fixed input.

    Each handler reads the flags from ``vars(args)`` and the parsed grid,
    and returns its table ``(header, rows)`` or raises; the table is
    written, and ``--output`` opened, only after it is complete.  An
    ``--output`` that cannot be opened is a configuration error."""
    if args.command == "selftest":
        failures = selftest_module.run_selftest()
        return 0 if failures == 0 else 1
    handler = {
        "deriv": _run_deriv,
        "solve": _run_solve,
        "map": _run_map,
        "expand": _run_expand,
        "ml": _run_ml,
    }[args.command]
    opt = vars(args)
    grid = _parse_grid(opt["grid"]) if opt.get("grid") else None
    if args.command in ("deriv", "solve") and grid is None:  # --grid ""
        raise ConfigError("--grid is required")
    try:
        header, rows = handler(opt, grid)
    except ValueError as exc:  # a parameter set's own check
        raise ConfigError(str(exc)) from exc
    try:
        out = (open(args.output, "w", newline="") if args.output
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        raise ConfigError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    with out as stream:
        write_table(stream, args.format, args.command, _params(opt), header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defcalc",
        description="Deformed and local-fractional derivative operators over grids.",
        epilog=_EXPRESSION_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt="csv"):
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
        p.add_argument("--output", default=None, help="write the table to this file")

    p = sub.add_parser("deriv", help="evaluate a derivative operator over a grid")
    p.add_argument("--op", required=True, choices=tuple(OPERATORS))
    p.add_argument("--fn", required=True, help="expression in x")
    p.add_argument("--form", choices=("closed", "quotient"), default="closed")
    for flag, kind in _param_flags(op.kind for op in OPERATORS.values()).items():
        p.add_argument(flag, type=kind, default=None)
    p.add_argument("--grid", required=True, help="start:stop:points")
    add_common(p)
    p.add_argument("--base-step", type=_finite_float, default=DiffSettings.base_step)
    p.add_argument("--levels", type=int, default=DiffSettings.richardson_levels)

    p = sub.add_parser("solve", help="verify an eigen-equation and emit residuals")
    p.add_argument("--problem", required=True, choices=tuple(_PROBLEMS))
    for flag, kind in _param_flags(cls for cls, _, _ in _PROBLEMS.values()).items():
        p.add_argument(flag, type=kind, default=None)
    p.add_argument("--tol", type=_finite_float, default=None)
    p.add_argument("--grid", required=True, help="start:stop:points")
    add_common(p)

    p = sub.add_parser("map", help="bridge the entropic index q and scaling exponent zeta")
    for flag in ("--q", "--zeta", "--l0"):
        p.add_argument(flag, type=_finite_float, default=None)
    add_common(p, "json")

    p = sub.add_parser("expand", help="series coefficients of an operator prefactor")
    for flag in ("--zeta", "--l0", "--kappa"):
        p.add_argument(flag, type=_finite_float, default=None)
    p.add_argument("--order", type=int, default=8)
    add_common(p)

    p = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--z", type=_finite_float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:points")
    add_common(p)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser shared by every ``main`` call in the process, built on the
    first.  ``parse_args`` leaves it unchanged and each call gets a fresh
    Namespace, so no flag value carries over from one call to the next."""
    return build_parser()


@functools.lru_cache(maxsize=1)
def _flag_tables(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand of ``parser``: the Namespace ``parse_args`` starts
    from, in its attribute order; the store actions that take one value, by
    option string; and the dests of the required flags.  A subcommand with a
    positional argument or a ``set_defaults`` value gets no table."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def defaults(p):
        return {a.dest: a.default for a in p._actions
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}

    return {name: ({**defaults(parser), sub.dest: name, **defaults(p)},
                   {s: a for a in p._actions if type(a) is argparse._StoreAction
                    and a.nargs is None for s in a.option_strings},
                   {a.dest for a in p._actions if a.required})
            for name, p in sub.choices.items()
            if all(a.option_strings for a in p._actions) and not p._defaults}


def _fast_parse(tables: dict, argv: list) -> Optional[argparse.Namespace]:
    """The Namespace ``parse_args(argv)`` builds, for a subcommand followed
    only by exact ``--flag value`` or ``--flag=value`` pairs of its table's
    actions whose values pass their ``type`` and ``choices`` checks, with
    every required flag given; None for any other argv.  A two-token value
    that starts with "-" and an "=" value of "--" are left to ``parse_args``,
    which has rules of its own for them."""
    if not argv or not isinstance(argv[0], str) or argv[0] not in tables:
        return None
    values, flags, required = tables[argv[0]]
    values, i = dict(values), 1
    while i < len(argv):
        token = argv[i]
        if not isinstance(token, str):
            return None
        if token in flags:
            action, text = flags[token], argv[i + 1] if i + 1 < len(argv) else None
            i += 2
            if not isinstance(text, str) or text.startswith("-"):
                return None
        else:
            flag, _, text = token.partition("=")
            action, i = flags.get(flag), i + 1
            if action is None or text == "--":
                return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        required = required - {action.dest}
    return None if required else argparse.Namespace(**values)


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(_flag_tables(parser), argv)
    try:
        if args is None:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DefcalcError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stdout's reader is gone: not a failure of the command
        raise
    except Exception as exc:  # no traceback ever reaches the user
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
    except BrokenPipeError:
        # what is still buffered goes to os.devnull, so exit writes nothing;
        # the exit status is a shell's for a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    console_main()

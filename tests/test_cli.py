import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defcalc
import defcalc._csv17 as csv17
import defcalc.cli as cli
import defcalc.eigen_solvers
import defcalc.selftest
from defcalc.cli import build_parser, main
from defcalc.derivative_ops import OPERATORS
from defcalc.function_catalog import BUILTINS, GRAMMAR
from gl_reference import EPS, gl_chain_by_chain


# A q eigen-solve that spends the RKF45 step budget: e_q grows to 2.5e23 over
# the span, and the tolerance is absolute.
SOLVE_UNDERFLOW = ("solve", "--problem", "q", "--q", "0.5", "--grid", "0:1e12:11",
                   "--tol", "1e-10")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerivCommand:
    def test_hausdorff_closed_form_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--op", "hausdorff", "--zeta", "0.5", "--l0", "1",
            "--fn", "x", "--grid", "0:2:5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        xs = [0.0, 0.5, 1.0, 1.5, 2.0]
        for x, v in zip(xs, values):
            assert v == pytest.approx((x + 1.0) ** 0.5, rel=1e-12)

    def test_quotient_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--op", "q", "--q", "0.5", "--form", "quotient",
            "--fn", "x", "--grid", "1:2:3",
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.5, rel=1e-8)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "x^2", "--grid", "0:1:3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["command", "params", "rows"]
        assert payload["command"] == "deriv"
        assert payload["rows"][2]["value"] == pytest.approx(2.0, abs=1e-9)

    def test_missing_operator_parameter(self, capsys):
        code, _, err = run_cli(capsys, "deriv", "--op", "q", "--fn", "x", "--grid", "0:1:3")
        assert code == 2
        assert "--q" in err

    def test_expression_error_rendered_with_caret(self, capsys):
        code, _, err = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "2*", "--grid", "0:1:3"
        )
        assert code == 2
        assert "position 2" in err
        assert "^" in err

    @pytest.mark.parametrize("fn,err", [
        # "²" passes str.isdigit but not float()
        ("2²*x", "at position 1: expected end of input, found ²\n  2²*x\n   ^\n"),
        # float() reads an Arabic-Indic three as 3, but digits are ASCII only
        ("٣*x", "at position 0: expected a number, name, or operator, found '٣'\n  ٣*x\n  ^\n"),
    ])
    def test_non_ascii_digits_are_expression_errors(self, capsys, fn, err):
        argv = ("deriv", "--op", "q", "--q", "0.5", "--fn", fn, "--grid", "0:1:3")
        assert run_cli(capsys, *argv) == (2, "", f"error: --fn expression error {err}")

    def test_overflowing_literal_is_an_expression_error(self, capsys):
        # 1e999 is past the double range: f would be inf at every x
        argv = ("deriv", "--op", "q", "--q", "0.5", "--fn", "x+1e999", "--grid", "0:1:3")
        err = "at position 2: expected a finite number, found 1e999\n  x+1e999\n    ^\n"
        assert run_cli(capsys, *argv) == (2, "", f"error: --fn expression error {err}")

    def test_builtin_lists_are_the_table(self, capsys):
        builtins = " | ".join(BUILTINS)
        assert builtins == "exp | ln | sin | cos | sqrt | gamma | abs | pow"
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "".join(f"  {line}\n" for line in GRAMMAR.splitlines()) in out
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert readme.split("```ebnf\n")[1].split("\n```")[0] == GRAMMAR

    def test_grid_outside_domain(self, capsys):
        code, _, err = run_cli(
            capsys, "deriv", "--op", "conformable", "--alpha", "0.5",
            "--fn", "x", "--grid=-1:1:5",
        )
        assert code == 2
        assert "--grid" in err

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "ln(x)", "--grid=-1:1:5"
        )
        assert code == 3
        assert "x = -1" in err

    def test_failure_names_the_first_failing_x(self, capsys):
        code, _, err = run_cli(
            capsys, "deriv", "--op", "q", "--q", "0.5", "--fn", "1/(x-0.5)", "--grid", "0:1:5"
        )
        assert code == 3
        assert "q operator at x = 0.5:" in err

    def test_failure_in_a_later_probe_at_a_smaller_x(self, capsys):
        # x = 1.99 fails in the first probe (x + 0.01 = 2), x = 1.01 only in
        # the second (x - 0.01 = 1); the first grid x that fails is 1.01
        code, _, err = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "1/((x-1)*(x-2))",
            "--grid", "1.01:1.99:99",
        )
        assert code == 3
        assert "classical operator at x = 1.01:" in err

    def test_gl_chain_failure_names_its_grid_x(self, capsys):
        # the chain at x = 0.8 is the first with a node where 0.75 - x < 0
        code, out, err = run_cli(
            capsys, "deriv", "--op", "gl", "--alpha", "0.5", "--h", "0.1",
            "--fn", "sqrt(0.75-x)", "--grid", "0.5:1:6",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: gl operator at x = 0.8: "
                              "sqrt undefined for argument (-0.05")

    def test_gl_chain_failure_names_the_chains_own_first_node(self, capsys):
        # the first chain to enter the gap (0.25, 0.35) starts at x = 0.4 and
        # meets its lattice node 34 h = 0.34 first, not the smallest failing
        # node 26 h = 0.26, where the argument reads -0.0009000000000000005
        code, out, err = run_cli(
            capsys, "deriv", "--op", "gl", "--alpha", "0.5", "--h", "0.01",
            "--fn", "sqrt((x-0.25)*(x-0.35))", "--grid", "0:0.6:4",
        )
        assert (code, out, err) == (
            3, "", "numerical failure: gl operator at x = 0.39999999999999997: "
                   "sqrt undefined for argument (-0.0008999999999999961,)\n")

    @pytest.mark.parametrize("index", [3, 5, -1])
    def test_error_index_outside_the_grid_names_the_first_x(self, index):
        # an index that counts positions in some other array must not make the
        # grid's prefix rerun forever
        calls = []

        def compute(grid):
            calls.append(grid.size)
            if len(calls) > 1:
                raise AssertionError(f"reran the grid: {calls}")
            raise defcalc.DefcalcError("no value", index=index)

        with pytest.raises(defcalc.DefcalcError) as err:
            cli._run_grid(compute, np.linspace(0.0, 1.0, 3), "f at x")
        assert str(err.value) == "f at x = 0.0: no value"
        assert calls == [3]

    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:1:3", "0:nan:3"])
    def test_non_finite_grid_end_is_config_error(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "deriv", "--op", "q", "--q", "0.5", "--fn", "x", "--grid", grid
        )
        assert code == 2
        assert out == ""
        assert "--grid" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("deriv", "--op", "q", "--q", "nan", "--fn", "x^2", "--grid", "0:1:3"),
            ("deriv", "--op", "hausdorff", "--zeta", "0.5", "--l0", "inf", "--fn", "x",
             "--grid", "0:1:3"),
            ("deriv", "--op", "classical", "--fn", "x", "--grid", "0:1:3", "--base-step", "nan"),
            ("map", "--q", "0.5", "--l0", "inf"),
        ],
    )
    def test_non_finite_parameter_is_config_error(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_non_finite_value_is_a_domain_error(self, capsys):
        # sqrt(1 + x^2) overflows at x = 5e299: the operator's DomainError
        code, out, err = run_cli(
            capsys, "deriv", "--op", "kappa", "--kappa", "1", "--fn", "x", "--grid", "0:1e300:3"
        )
        assert code == 2
        assert out == ""
        assert err == ("error: --grid outside the operator domain: kappa operator at "
                       "x = 5e+299: prefactor * f'(x) passes the double range, got 5e+299\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("deriv", "--op", "hausdorff", "--zeta", "0.5", "--l0", "0", "--fn", "x",
             "--grid", "0:1:3"),
            ("deriv", "--op", "yang", "--alpha", "0.5", "--l0", "0", "--fn", "x",
             "--grid", "0:1:3"),
            ("deriv", "--op", "gl", "--alpha", "0.5", "--h", "0.1", "--terms", "0",
             "--fn", "x", "--grid", "0:1:3"),
            ("solve", "--problem", "q", "--q", "0.5", "--tol", "0", "--grid", "0:1:11"),
            ("solve", "--problem", "fractional", "--alpha", "0.5", "--h", "0",
             "--grid", "0.2:1:11"),
            ("map", "--zeta", "0.5", "--l0", "0"),
            ("expand", "--zeta", "0.5", "--order", "0"),
        ],
    )
    def test_zero_is_not_replaced_by_a_default(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_gl_chain_keeps_its_origin_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--op", "gl", "--fn", "1", "--alpha", "0.5", "--h", "0.1",
            "--grid", "0.1:1:10",
        )
        assert code == 0
        row = out.splitlines()[6].split(",")
        assert float(row[0]) == pytest.approx(0.6)
        assert float(row[1]) == pytest.approx(0.7133653706043902, rel=1e-14)

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "x", "--grid", "0:1"
        )
        assert code == 2
        assert "--grid" in err


# A value for every operator flag; l0 = 2 moves the Hausdorff and Yang bound off -1.
TABLE_FLAGS = {"q": "0.5", "kappa": "0.5", "zeta": "0.5", "l0": "2", "alpha": "0.5", "h": "0.1",
               "terms": "3"}


def _flags(op, form="closed"):
    """The flags of the operator's parameters that ``form`` reads."""
    unread = getattr(OPERATORS[op], form).unread
    return [f.metadata.get("flag", f.name) for f in dataclasses.fields(OPERATORS[op].kind)
            if f.name not in unread]


def _deriv(op, flags, start, form="closed"):
    argv = ["deriv", "--op", op, "--form", form, "--fn", "x^2", f"--grid={start!r}:1:3"]
    for flag in flags:
        argv += [f"--{flag}", TABLE_FLAGS[flag]]
    return argv


class TestOperatorTable:
    REQUIRED = [
        (op, f.metadata.get("flag", f.name))
        for op, entry in OPERATORS.items()
        for f in dataclasses.fields(entry.kind)
        if f.default is dataclasses.MISSING
    ]
    # Each form's grid domain, stated here apart from the operators that check
    # it, at l0 = 2: the lowest x bound and whether the bound itself is outside.
    DOMAIN_RULES = {
        ("hausdorff", "closed"): (-2.0, True),
        ("hausdorff", "quotient"): (0.0, True),
        ("conformable", "closed"): (0.0, True),
        ("gl", "closed"): (0.0, False),
        ("yang", "closed"): (-2.0, True),
    }
    FORMS = [
        (op, form)
        for op, entry in OPERATORS.items()
        for form in ("closed", "quotient")
        if getattr(entry, form) is not None
    ]

    def test_op_choices_are_the_table_keys_in_order(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        op = next(a for a in sub.choices["deriv"]._actions if a.dest == "op")
        assert list(op.choices) == list(OPERATORS)
        assert list(OPERATORS) == ["classical", "q", "kappa", "hausdorff", "conformable", "gl",
                                   "yang"]

    def test_required_flags(self):
        assert self.REQUIRED == [("q", "q"), ("kappa", "kappa"), ("hausdorff", "zeta"),
                                 ("conformable", "alpha"), ("gl", "alpha"), ("gl", "h"),
                                 ("yang", "alpha")]

    @pytest.mark.parametrize("op,flag", REQUIRED)
    def test_missing_parameter_message(self, capsys, op, flag):
        flags = [f for f in _flags(op) if f != flag]
        code, out, err = run_cli(capsys, *_deriv(op, flags, 0.5))
        assert (code, out, err) == (2, "", f"error: --op {op} requires --{flag}\n")

    @pytest.mark.parametrize("op", list(OPERATORS))
    def test_every_flag_given_runs(self, capsys, op):
        code, out, _ = run_cli(capsys, *_deriv(op, _flags(op), 0.5))
        assert code == 0
        assert out.startswith("x,value\n")

    def test_domain_rules(self, capsys):
        # every form of the table has a rule here, or takes a grid far below 0
        assert set(self.DOMAIN_RULES) <= set(self.FORMS)
        for op, form in self.FORMS:
            if (op, form) not in self.DOMAIN_RULES:
                code, _, err = run_cli(capsys, *_deriv(op, _flags(op, form), -1000.0, form))
                assert code == 0, (op, form, err)

    @pytest.mark.parametrize("op,form", list(DOMAIN_RULES))
    def test_domain_rule_at_its_bound(self, capsys, op, form):
        bound, strict = self.DOMAIN_RULES[op, form]
        outside = bound if strict else float(np.nextafter(bound, -np.inf))
        inside = float(np.nextafter(bound, np.inf)) if strict else bound
        code, out, err = run_cli(capsys, *_deriv(op, _flags(op, form), outside, form))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --grid outside the operator domain: {op} operator at "
                              f"x = {outside!r}: "), err
        code, out, err = run_cli(capsys, *_deriv(op, _flags(op, form), inside, form))
        if (op, form) == ("hausdorff", "quotient"):
            # Inside the domain, but the probe steps, capped at x/4, round to 0
            # at x = 5e-324.
            assert (code, out, err) == (
                2, "", "error: --grid outside the operator domain: hausdorff operator at "
                "x = 5e-324: the difference quotient is not finite: a probe step is lost to "
                "round-off or a value passes the double range, got 5e-324\n"
            )
            return
        assert code == 0, err
        assert float(out.splitlines()[1].split(",")[0]) == inside

    def test_domain_message_is_the_operators_own(self, capsys):
        code, out, err = run_cli(capsys, "deriv", "--op", "hausdorff", "--zeta", "0.5", "--l0",
                                 "2", "--fn", "x", "--grid=-2:1:3")
        assert (code, out, err) == (2, "", "error: --grid outside the operator domain: hausdorff "
                                    "operator at x = -2.0: hausdorff_derivative requires "
                                    "x > -l0 = -2.0, got -2.0\n")

    def test_q_quotient_probe_on_the_singular_line(self, capsys):
        # the probe x - 0.01 at x = -1.99 lands on y = 1/(q - 1) = -2
        code, out, err = run_cli(capsys, "deriv", "--op", "q", "--q", "0.5", "--form", "quotient",
                                 "--fn", "sin(x)", "--grid=-2.5:-1.99:3")
        assert (code, out) == (2, "")
        assert err.startswith("error: --grid outside the operator domain: q operator at "
                              "x = -1.99: "), err

    @pytest.mark.parametrize("op", [op for op, entry in OPERATORS.items() if entry.quotient is None])
    def test_quotient_form_only_where_the_table_has_one(self, capsys, op):
        code, out, err = run_cli(capsys, *_deriv(op, _flags(op), 0.5, "quotient"))
        assert (code, out, err) == (
            2, "", "error: --form quotient applies only to --op q and --op hausdorff\n"
        )


class TestSolveCommand:
    def test_q_problem_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--problem", "q", "--q", "0.5", "--grid", "0:2:21"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,closed_form,residual"
        assert len(lines) == 22
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(4.0, rel=1e-12)  # (1 + 0.5*2)^2
        assert float(last[3]) <= 1e-7
        assert "max_rel_residual" in err

    def test_fractional_problem(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "fractional", "--alpha", "0.5",
            "--h", "0.001", "--grid", "0.2:1:11",
        )
        assert code == 0
        residuals = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
        assert max(residuals) <= 5e-2

    def test_fractional_problem_on_the_h_lattice(self, capsys):
        # x = 1.662 is a multiple of h up to round-off: the chain's last node is 0
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "fractional", "--alpha", "0.866", "--h", "0.001",
            "--grid=0.2:1.662:41",
        )
        assert code == 0

    def test_domain_error_is_config_error(self, capsys):
        # "--grid=" keeps argparse from reading the negative start as a flag
        code, out, err = run_cli(
            capsys, "solve", "--problem", "hausdorff", "--zeta", "0.5", "--l0", "1",
            "--grid=-2:1:11",
        )
        assert (code, out, err) == (
            2, "", "error: --grid outside the problem domain: "
                   "balankin_exp requires x > -l0 = -1.0, got -2.0\n"
        )

    def test_q_domain_error_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--problem", "q", "--q", "0.5", "--grid=-3:1:11"
        )
        assert (code, out, err) == (
            2, "", "error: --grid outside the problem domain: "
                   "the q eigenfunction underflows or x leaves its support, got -3.0\n"
        )

    def test_overflowing_eigenfunction_is_config_error(self, capsys):
        # x^alpha stays within the series domain, but E_0.1(x^0.1) passes the double range
        code, out, err = run_cli(
            capsys, "solve", "--problem", "fractional", "--alpha", "0.1", "--h", "1e8",
            "--grid", "1e8:1e9:11",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --grid outside the problem domain: "
                              "mittag_leffler overflows the double range at z=")
        assert err.endswith(" (alpha=0.1)\n")

    @pytest.mark.parametrize("grid", ["0.2:1:11", "0:1:11"])
    def test_fractional_h_is_checked_by_the_gl_chain(self, capsys, grid):
        # h's rule is GrunwaldJumarie's, checked before the domain (0:1:11 is outside it)
        code, out, err = run_cli(capsys, "solve", "--problem", "fractional", "--alpha", "0.5",
                                 "--h", "0", "--grid", grid)
        assert (code, out, err) == (2, "", "error: GrunwaldJumarie requires finite h > 0, got 0.0\n")

    def test_step_underflow_is_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, *SOLVE_UNDERFLOW)
        assert (code, out) == (3, "")
        # the x at which the budget is spent depends on libm
        assert err.startswith("numerical failure: solve --problem q: "
                              "step budget of 10000 steps spent at x = ")
        assert err.endswith(" short of x_end = 1000000000000.0\n")

    def test_prefactor_past_the_double_range_prints_the_residual_line_alone(self):
        # a process of its own: a numpy warning reaches its stderr, not pytest's record
        proc = subprocess.run(
            [sys.executable, "-m", "defcalc.cli", "solve", "--problem", "hausdorff",
             "--zeta", "-0.5", "--l0", "5e-324", "--grid", "0.5:1:11"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (
            0, "max_rel_residual = 0.000e+00, rms_rel_residual = 0.000e+00\n")
        assert proc.stdout.count("\n") == 12

    @pytest.mark.parametrize("flag", ["--base-step", "--levels"])
    def test_deriv_only_flags_are_rejected(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "solve", "--problem", "q", "--q", "0.5", "--grid", "0:1:11", flag, "0.1"
        )
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err


class TestParserOptions:
    """Each subcommand's option strings, in --help order, and argparse types."""

    F = "_finite_float"
    OPTIONS = {
        "deriv": [("-h --help", None), ("--op", None), ("--fn", None), ("--form", None),
                  ("--q", F), ("--kappa", F), ("--zeta", F), ("--l0", F), ("--alpha", F),
                  ("--h", F), ("--terms", "int"), ("--grid", None), ("--format", None),
                  ("--output", None), ("--base-step", F), ("--levels", "int")],
        "solve": [("-h --help", None), ("--problem", None), ("--q", F), ("--zeta", F),
                  ("--l0", F), ("--alpha", F), ("--h", F), ("--tol", F), ("--grid", None),
                  ("--format", None), ("--output", None)],
        "map": [("-h --help", None), ("--q", F), ("--zeta", F), ("--l0", F),
                ("--format", None), ("--output", None)],
        "expand": [("-h --help", None), ("--zeta", F), ("--l0", F), ("--kappa", F),
                   ("--order", "int"), ("--format", None), ("--output", None)],
        "ml": [("-h --help", None), ("--alpha", F), ("--z", F), ("--grid", None),
               ("--format", None), ("--output", None)],
        "selftest": [("-h --help", None)],
    }

    @staticmethod
    def subparsers():
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_option_strings_order_and_types(self):
        got = {
            name: [(" ".join(a.option_strings), getattr(a.type, "__name__", None))
                   for a in p._actions]
            for name, p in self.subparsers().items()
        }
        assert got == self.OPTIONS

    def test_problem_choices(self):
        problem = next(a for a in self.subparsers()["solve"]._actions if a.dest == "problem")
        assert list(problem.choices) == ["q", "hausdorff", "fractional"]

    @pytest.mark.parametrize("problem,flag", [("q", "q"), ("hausdorff", "zeta"),
                                              ("fractional", "alpha")])
    def test_solve_missing_parameter_message(self, capsys, problem, flag):
        code, out, err = run_cli(capsys, "solve", "--problem", problem, "--grid", "0.2:1:11")
        assert (code, out, err) == (2, "", f"error: --problem {problem} requires --{flag}\n")

    def test_json_params_key_order(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--l0", "2", "--zeta", "0.5", "--format", "json")
        assert code == 0
        assert list(json.loads(out)["params"]) == ["zeta", "l0", "order"]
        code, out, _ = run_cli(
            capsys, "deriv", "--terms", "3", "--h", "0.1", "--alpha", "0.5", "--op", "gl",
            "--fn", "x", "--grid", "0.5:1:2", "--form", "closed", "--format", "json",
        )
        assert code == 0
        assert list(json.loads(out)["params"]) == ["op", "form", "fn", "alpha", "h", "terms"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("solve", "--problem", "fractional", "--alpha", "0.5", "--zeta", "3", "--tol",
              "1e-3", "--grid", "0.2:1:11", "--format", "json"),
             "--problem fractional does not take --zeta"),
            (("solve", "--problem", "q", "--q", "0.5", "--alpha", "0.2", "--grid", "0:1:11"),
             "--problem q does not take --alpha"),
            (("solve", "--problem", "hausdorff", "--zeta", "0.5", "--h", "0.1",
              "--grid", "0:1:11"), "--problem hausdorff does not take --h"),
            (("expand", "--kappa", "1", "--l0", "2"), "expand does not take --l0"),
            (("deriv", "--op", "classical", "--q", "0.5", "--fn", "x", "--grid", "0:1:3"),
             "--op classical does not take --q"),
            (("deriv", "--op", "gl", "--alpha", "0.5", "--h", "0.1", "--l0", "2", "--fn", "x",
              "--grid", "0:1:3"), "--op gl does not take --l0"),
            (("deriv", "--op", "hausdorff", "--zeta", "0.5", "--terms", "3", "--fn", "x",
              "--grid", "0:1:3"), "--op hausdorff does not take --terms"),
            # a field of the operator's class that the quotient form does not read
            (("deriv", "--op", "hausdorff", "--form", "quotient", "--zeta", "0.5", "--l0", "2",
              "--fn", "x^2", "--grid", "0.5:1:3"),
             "--op hausdorff --form quotient does not take --l0"),
            # the GL chain has no ODE tolerance
            (("solve", "--problem", "fractional", "--alpha", "0.5", "--tol", "1e-3",
              "--grid", "0.2:1:11"), "--problem fractional does not take --tol"),
        ],
    )
    def test_unread_parameter_flag_is_config_error(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_quotient_form_missing_flag_names_the_operator(self, capsys):
        # only the flag the form does not read names the form
        argv = ("deriv", "--op", "hausdorff", "--form", "quotient", "--fn", "x^2",
                "--grid", "0.5:1:3")
        assert run_cli(capsys, *argv) == (2, "", "error: --op hausdorff requires --zeta\n")

    def test_fractional_h_default(self, capsys):
        argv = ("solve", "--problem", "fractional", "--alpha", "0.5", "--grid", "0.2:1:11")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--h", "0.001")

    @pytest.mark.parametrize("command", [("map", "--q", "0.5"), ("expand", "--kappa", "1")])
    def test_grid_only_on_the_commands_that_read_it(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--grid", "0:1:3")
        assert (code, out) == (2, "")
        assert err.endswith("defcalc: error: unrecognized arguments: --grid 0:1:3\n")


class TestConfigErrors:
    """Exit-2 branches of the handlers that no other test reaches, and what each prints."""

    DERIV = ("deriv", "--op", "classical", "--fn")

    @pytest.mark.parametrize("argv, err", [
        ((*DERIV, "x", "--grid", "0:1:x"), "--grid must be start:stop:points, got '0:1:x'"),
        ((*DERIV, "x", "--grid", "0:1:1"), "--grid needs at least 2 points, got 1"),
        ((*DERIV, "x", "--grid", "1:0:3"), "--grid needs start < stop, got '1:0:3'"),
        ((*DERIV, "", "--grid", "0:1:3"), "--fn is required for this command"),
        ((*DERIV, "x", "--grid", ""), "--grid is required"),
        (("solve", "--problem", "q", "--q", "0.5", "--grid", ""), "--grid is required"),
        (("expand", "--zeta", "0.5", "--kappa", "1"),
         "expand needs exactly one of --zeta or --kappa"),
        (("expand",), "expand needs exactly one of --zeta or --kappa"),
        (("ml", "--alpha", "0.5", "--z", "1", "--grid", "0:1:3"),
         "ml needs exactly one of --z or --grid"),
        (("ml", "--alpha", "0.5"), "ml needs exactly one of --z or --grid"),
        (("expand", "--zeta", "0.5", "--order", "1000001"), "order must be <= 1000000, got 1000001"),
        (("expand", "--kappa", "0.5", "--order", "1000001"), "order must be <= 1000000, got 1000001"),
        ((*DERIV, "sin x", "--grid", "0:1:3"),
         "--fn expression error at position 4: expected '(' after sin, found x\n"
         "  sin x\n      ^"),
        ((*DERIV, "pow(x 2)", "--grid", "0:1:3"),
         "--fn expression error at position 6: expected ')' or ',', found 2\n"
         "  pow(x 2)\n        ^"),
    ])
    def test_exit_two(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")


class TestGoldenBytes:
    """Two GL commands print what they print with the GL chain replaced by the
    chain-by-chain sum: the same rc, stderr and columns, but ``value`` (and
    the ``residual`` made from it) within the rounding bound of
    ``gl_reference``, as a grid's chains share lattices."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--problem", "fractional", "--alpha", "0.649", "--h", "0.001",
         "--grid=0.1505:0.9505:41"),
        ("deriv", "--op", "gl", "--fn", "x*exp(-0.7*x) + 0.3*x^2", "--alpha", "0.45",
         "--h", "0.001", "--grid=0.1505:0.9505:33"),
    ])
    def test_gl_output_bytes(self, capsys, monkeypatch, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        bounds = []

        def chain_by_chain(f, x, alpha, h, n_terms=None):
            sums, bound = gl_chain_by_chain(f, x, alpha, h, n_terms)
            bounds.append(bound)
            return sums if np.ndim(x) else float(sums[0])

        for module in (defcalc.derivative_ops, defcalc.eigen_solvers):
            monkeypatch.setattr(module, "gl_jumarie_derivative", chain_by_chain)
        ref_code, ref_out, ref_err = run_cli(capsys, *argv)
        assert (code, err) == (ref_code, ref_err)
        (bound,) = bounds
        header, *rows = [line.split(",") for line in out.splitlines()]
        ref_header, *ref_rows = [line.split(",") for line in ref_out.splitlines()]
        assert header == ref_header and len(rows) == len(ref_rows) == len(bound)
        for row, ref_row, b in zip(rows, ref_rows, bound):
            got, want = dict(zip(header, row)), dict(zip(header, ref_row))
            assert abs(float(got.pop("value")) - float(want.pop("value"))) <= b
            if "residual" in got:  # |value - closed_form| / |closed_form|
                residual = float(want.pop("residual"))
                bound_residual = b / abs(float(want["closed_form"])) + 2 * EPS * residual
                assert abs(float(got.pop("residual")) - residual) <= bound_residual
            assert got == want


class TestMapCommand:
    def test_defaults_to_json_with_q_field(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--zeta", "1", "--l0", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["q"] == 1.0

    def test_inverse_direction(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--q", "0", "--l0", "2")
        assert code == 0
        assert json.loads(out)["rows"][0]["zeta"] == -1.0

    def test_requires_exactly_one_parameter(self, capsys):
        code, _, err = run_cli(capsys, "map", "--q", "0.5", "--zeta", "0.5")
        assert code == 2
        code, _, err = run_cli(capsys, "map")
        assert code == 2

    @pytest.mark.parametrize("argv, err", [
        # 2 l0^2 overflows, and (1 - zeta) zeta too: inf / inf
        (("--q", "0.5", "--l0", "1e300"), "first_order_residual_bound must be finite, got nan"),
        (("--zeta", "1e300", "--l0", "1e-10"), "q must be finite, got inf"),
        # 2 l0^2 underflows to 0
        (("--zeta", "0.5", "--l0", "1e-300"), "first_order_residual_bound must be finite, got inf"),
    ])
    def test_non_finite_values_are_config_errors(self, capsys, argv, err):
        for fmt in ("json", "csv"):
            assert run_cli(capsys, "map", *argv, "--format", fmt) == (2, "", f"error: {err}\n")


class TestExpandCommand:
    def test_hausdorff_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--zeta", "0.5", "--l0", "1", "--order", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert [float(line.split(",")[1]) for line in lines[1:]] == [1.0, 0.5, -0.125]

    def test_kappa_expansion_even_powers(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kappa", "1", "--order", "4")
        assert code == 0
        coeffs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert coeffs == [1.0, 0.0, 0.5, 0.0, -0.125]

    @pytest.mark.parametrize("argv", [
        # l0^-2 and kappa^4 pass the double range, where Python's ** raises
        ("--zeta", "0.5", "--l0", "1e-300", "--order", "5"),
        ("--kappa", "1e200", "--order", "4"),
        ("--zeta", "1e300", "--order", "3"),
    ])
    def test_coefficients_past_the_double_range_are_config_errors(self, capsys, argv):
        for fmt in ("csv", "json"):
            assert run_cli(capsys, "expand", *argv, "--format", fmt) == (
                2, "", "error: coefficients must be finite\n")

    def test_zero_coefficients_stay_zero_at_a_tiny_cutoff(self, capsys):
        # zeta = 1: C(0, k) = 0 for k >= 1, although l0^-k passes the double range
        code, out, _ = run_cli(capsys, "expand", "--zeta", "1", "--l0", "1e-300", "--order", "3")
        assert code == 0
        assert out == "x,value\n0,1\n1,0\n2,0\n3,0\n"

    @pytest.mark.parametrize("argv", [
        # C(0, k) for k >= 2 is 0.0 times a negative ratio
        ("--zeta", "1", "--order", "4"),
        # kappa^4 underflows to 0.0 under C(1/2, 2) = -0.125
        ("--kappa", "1e-200", "--order", "4"),
    ])
    def test_exact_zero_coefficients_print_as_zero(self, capsys, argv):
        assert run_cli(capsys, "expand", *argv) == (0, "x,value\n0,1\n1,0\n2,0\n3,0\n4,0\n", "")
        code, out, _ = run_cli(capsys, "expand", *argv, "--format", "json")
        assert code == 0
        assert [row["value"] for row in json.loads(out)["rows"]] == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert "-0" not in out


class TestMlCommand:
    def test_classical_value(self, capsys):
        code, out, _ = run_cli(capsys, "ml", "--alpha", "1", "--z", "1")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(math.e, rel=1e-10)

    def test_grid_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "ml", "--alpha", "2", "--grid", "0:2:5")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_overflow_is_numerical_failure(self, capsys):
        # the residue e^(z^(1/0.3)) / 0.3 passes the double range from z = 7.16 on
        for z in ("8", "10"):
            code, out, err = run_cli(capsys, "ml", "--alpha", "0.3", "--z", z)
            assert code == 3
            assert out == ""
            assert "overflow" in err

    def test_no_cancellation_on_the_negative_axis(self, capsys):
        # the power series printed 16447451400779.406 here
        code, out, _ = run_cli(capsys, "ml", "--alpha", "0.5", "--z", "-8")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.06998516620088092, rel=1e-12)  # e^64 erfc(8)

    def test_huge_alpha_is_one(self, capsys):
        # lgamma(alpha k + 1) passes the double range; every term after the first is 0
        assert run_cli(capsys, "ml", "--alpha", "1e306", "--z", "0.5") == (0, "x,value\n0.5,1\n", "")

    def test_out_of_series_domain_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "ml", "--alpha", "0.5", "--z", "11")
        assert code == 3

    def test_alpha_is_required(self, capsys):
        code, out, err = run_cli(capsys, "ml", "--z", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage: defcalc ml ")
        assert err.endswith("defcalc ml: error: the following arguments are required: --alpha\n")

    @staticmethod
    def per_z_stderr(alpha: float, zs) -> str:
        """What a loop of one float call per z prints for the first failing z."""
        for z in zs:
            z = float(z)
            try:
                value = defcalc.mittag_leffler(z, alpha)
            except defcalc.DefcalcError as exc:
                return f"numerical failure: ml at z = {z}: {exc}\n"
            if not math.isfinite(value):
                return f"numerical failure: ml at z = {z}: the series overflowed to {value}\n"
        return ""

    @pytest.mark.parametrize("alpha, grid, expected", [
        # 8, 9 and 10 overflow
        ("0.3", "6:10:5", "numerical failure: ml at z = 8.0: mittag_leffler overflows the double "
                          "range at z=8.0 (alpha=0.3)\n"),
        ("0.5", "-11:0:3", "numerical failure: ml at z = -11.0: "
                           "mittag_leffler series domain is |z| <= 10, got -11.0\n"),
        ("0.3", "9.5:10:3", "numerical failure: ml at z = 9.5: mittag_leffler overflows the "
                            "double range at z=9.5 (alpha=0.3)\n"),
        # -10 takes the contour: 8 is the first to fail
        ("0.3", "-10:11:8", "numerical failure: ml at z = 8.0: mittag_leffler overflows the double "
                            "range at z=8.0 (alpha=0.3)\n"),
        ("0.3", "4:11:8", "numerical failure: ml at z = 8.0: mittag_leffler overflows the double "
                          "range at z=8.0 (alpha=0.3)\n"),
    ])
    def test_grid_failure_names_the_first_failing_z(self, capsys, alpha, grid, expected):
        code, out, err = run_cli(capsys, "ml", "--alpha", alpha, f"--grid={grid}")
        assert (code, out, err) == (3, "", expected)
        start, stop, points = grid.split(":")
        zs = np.linspace(float(start), float(stop), int(points))
        assert err == self.per_z_stderr(float(alpha), zs)

    @pytest.mark.parametrize("alpha, z, code", [
        ("1", "1", 0), ("0.5", "-8", 0), ("2", "-10", 0), ("0.3", "8", 3), ("0.3", "10", 3),
        ("0.5", "11", 3), ("0.5", "-10.5", 3), ("-1", "1", 3), ("0", "1", 3),
    ])
    def test_single_z_exit_codes(self, capsys, alpha, z, code):
        got, out, err = run_cli(capsys, "ml", "--alpha", alpha, "--z", z)
        assert got == code
        assert err == self.per_z_stderr(float(alpha), [float(z)])
        assert (out == "") == (code != 0)


class TestOutputPolicy:
    def test_byte_identical_reruns(self, capsys):
        argv = (
            "deriv", "--op", "hausdorff", "--zeta", "0.37", "--l0", "1.3",
            "--fn", "sin(x)*exp(x/3)", "--grid", "0.1:2.7:17",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first.encode() == second.encode()

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "exp(x)", "--grid", "1:2:2"
        )
        value_text = out.strip().splitlines()[1].split(",")[1]
        assert len(value_text.replace(".", "").replace("-", "").lstrip("0")) >= 16

    @pytest.mark.parametrize("value", ["json", "xml"])
    def test_the_environment_does_not_choose_the_format(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DEFCALC_OUTPUT_FORMAT", value)
        code, out, _ = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "x", "--grid", "0:1:2"
        )
        assert code == 0
        assert out.splitlines()[0] == "x,value"
        code, out, _ = run_cli(capsys, "map", "--q", "0.5")
        assert code == 0
        assert json.loads(out)["command"] == "map"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = main(
            ["deriv", "--op", "classical", "--fn", "x", "--grid", "0:1:3",
             "--output", str(path)]
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "x,value"

    @pytest.mark.parametrize(
        "code,argv",
        [
            (2, ("deriv", "--op", "q", "--q", "0.5", "--fn", "x +", "--grid", "0:1:3")),
            (3, ("ml", "--alpha", "0.3", "--z", "8")),
            (3, SOLVE_UNDERFLOW),
        ],
    )
    def test_failed_run_leaves_the_output_file_untouched(self, capsys, tmp_path, code, argv):
        path = tmp_path / "table.csv"
        path.write_bytes(b"1,2\n")
        assert main([*argv, "--output", str(path)]) == code
        assert path.read_bytes() == b"1,2\n"
        assert main(["deriv", "--op", "classical", "--fn", "x", "--grid", "0:1:3",
                     "--output", str(path)]) == 0
        assert path.read_text().startswith("x,value\n")

    def test_unopenable_output_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "no-such-dir" / "table.csv"
        code, out, err = run_cli(capsys, "deriv", "--op", "classical", "--fn", "x",
                                 "--grid", "0:1:3", "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --output {path}: No such file or directory\n"
        assert not path.parent.exists()


def _skew_last(rel):
    """A fault maker: the operation's value times 1 + rel, only in the last
    element of an array."""
    def make(original):
        def skewed(*args, **kwargs):
            value = original(*args, **kwargs)
            if not isinstance(value, np.ndarray):
                return value * (1.0 + rel)
            value = value.copy()
            value.flat[-1] *= 1.0 + rel
            return value
        return skewed
    return make


# One fault per selftest check, in the order of CHECKS: the check's name, and
# the module attribute through which it calls the operation the fault skews
SELFTEST_FAULTS = [
    pytest.param("q-exponential/logarithm round-trip", "deformed_algebra", "q_log",
                 _skew_last(1e-6), id="q_round_trip"),
    pytest.param("deformed sum/difference inverse", "deformed_algebra", "q_difference",
                 _skew_last(1e-9), id="q_sum_difference"),
    pytest.param("q eigen-equation ODE residual", "deformed_algebra", "q_exp",
                 _skew_last(1e-4), id="q_eigen_ode"),
    pytest.param("hausdorff eigen-equation ODE residual", "special_functions", "balankin_exp",
                 _skew_last(1e-4), id="hausdorff_eigen_ode"),
    pytest.param("fractional eigen-equation GL residual", "eigen_solvers",
                 "gl_jumarie_derivative", _skew_last(0.2), id="fractional_eigen"),
    pytest.param("closed-form eigenfunction identities", "derivative_ops",
                 "conformable_derivative", _skew_last(1e-5), id="eigenfunctions"),
    pytest.param("classical reductions", "derivative_ops", "kaniadakis_derivative",
                 _skew_last(1e-7), id="classical_reductions"),
    pytest.param("mittag-leffler identities", "special_functions", "mittag_leffler",
                 _skew_last(1e-9), id="mittag_leffler"),
    pytest.param("mapping round-trip and limits", "mappings", "zeta_from_q",
                 lambda original: lambda q, l0: original(q + 1e-9, l0), id="mapping"),
    pytest.param("first-order agreement bound", "mappings", "first_order_agreement",
                 lambda original: lambda hp, x: original(hp, x)._replace(
                     residual=2.0 * original(hp, x).residual), id="first_order"),
    pytest.param("GL sum vs power rule", "derivative_ops", "gl_jumarie_derivative",
                 _skew_last(0.1), id="gl_power_rule"),
    pytest.param("yang/hausdorff dilatation ratio", "mappings", "yang_lfd",
                 _skew_last(1e-9), id="yang_ratio"),
    pytest.param("conformable/hausdorff chain-rule constant", "mappings",
                 "conformable_derivative", _skew_last(1e-6), id="conformable_hausdorff"),
    pytest.param("kappa expansion parity", "deformed_algebra", "kappa_exp",
                 lambda original: lambda x, kappa: original(x, kappa) * (
                     1.0 + 1e-9 * (kappa > 0.0)), id="kappa_parity"),
]


# A NaN from the operation each selftest check covers, in the order of CHECKS;
# Python's max(0.0, nan) is 0.0, so a running max would pass every one of them.
# MappingResult holds no NaN, so the round trips of the mapping check get a
# stand-in result (the limit check at q = 0 keeps the real one).
SELFTEST_NANS = [
    pytest.param(check, module, attr, fault, id=f"nan_{p.id}")
    for p, (check, module, attr, fault) in zip(SELFTEST_FAULTS, [
        ("q-exponential/logarithm round-trip", "deformed_algebra", "q_log",
         _skew_last(math.nan)),
        ("deformed sum/difference inverse", "deformed_algebra", "q_difference",
         _skew_last(math.nan)),
        ("q eigen-equation ODE residual", "deformed_algebra", "q_exp", _skew_last(math.nan)),
        ("hausdorff eigen-equation ODE residual", "special_functions", "balankin_exp",
         _skew_last(math.nan)),
        ("fractional eigen-equation GL residual", "eigen_solvers", "gl_jumarie_derivative",
         _skew_last(math.nan)),
        ("closed-form eigenfunction identities", "derivative_ops", "conformable_derivative",
         _skew_last(math.nan)),
        ("classical reductions", "derivative_ops", "kaniadakis_derivative",
         _skew_last(math.nan)),
        ("mittag-leffler identities", "special_functions", "mittag_leffler",
         _skew_last(math.nan)),
        ("mapping round-trip and limits", "mappings", "zeta_from_q",
         lambda original: lambda q, l0: (original(q, l0) if q == 0.0
                                         else types.SimpleNamespace(zeta=math.nan))),
        ("first-order agreement bound", "mappings", "first_order_agreement",
         lambda original: lambda hp, x: original(hp, x)._replace(residual=math.nan)),
        ("GL sum vs power rule", "derivative_ops", "gl_jumarie_derivative",
         _skew_last(math.nan)),
        ("yang/hausdorff dilatation ratio", "mappings", "yang_lfd", _skew_last(math.nan)),
        ("conformable/hausdorff chain-rule constant", "mappings", "conformable_derivative",
         _skew_last(math.nan)),
        ("kappa expansion parity", "deformed_algebra", "kappa_exp", _skew_last(math.nan)),
    ])
]


class TestSelftest:
    def test_fresh_build_passes_within_budget(self, capsys):
        started = time.time()
        code, out, _ = run_cli(capsys, "selftest")
        elapsed = time.time() - started
        assert code == 0
        assert "0 failed" in out
        assert elapsed < 10.0

    @pytest.mark.parametrize("check,module,attr,fault", SELFTEST_FAULTS + SELFTEST_NANS)
    def test_injected_fault_is_detected(self, capsys, monkeypatch, check, module, attr, fault):
        # each check sees a skew (or a NaN) of the operation it covers, made through
        # the module attribute it calls; a fault in an array touches its last element only
        holder = getattr(defcalc, module)
        monkeypatch.setattr(holder, attr, fault(getattr(holder, attr)))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert f"FAIL {check} (" in out

    def test_the_fault_table_covers_every_check(self):
        names = [name for name, _ in defcalc.selftest.CHECKS]
        assert [p.values[0] for p in SELFTEST_FAULTS] == names
        assert [p.values[0] for p in SELFTEST_NANS] == names


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "defcalc.cli", "map", "--zeta", "0.5", "--l0", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["q"] == 0.75


def test_an_unexpected_exception_is_one_line_and_exit_three(capsys, monkeypatch):
    def boom(opt, grid):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_map", boom)
    assert run_cli(capsys, "map", "--q", "0.5") == (3, "", "error: RuntimeError: boom\n")


class TestClosedStdout:
    def test_main_lets_a_broken_pipe_through(self, monkeypatch):
        # not "error: BrokenPipeError ..." and exit 3: console_main handles it
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(BrokenPipeError):
            main(["ml", "--alpha", "0.5", "--z", "1"])

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_console_script_exits_141_and_writes_no_stderr(self, unbuffered):
        # 30,001 rows (about 1.2 MB) outlast the pipe's buffer, so the reader
        # closes the pipe while the table is still being written
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "defcalc.cli", "ml", "--alpha", "0.5", "--grid=-10:10:30001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"x,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""


@pytest.fixture
def fresh_parser():
    """Start and end with no shared parser built."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def run_each(capsys, calls, fresh: bool):
    results = []
    for argv in calls:
        if fresh:
            cli._parser.cache_clear()
        results.append(run_cli(capsys, *argv))
    return results


class TestParserReuse:
    CALLS = [
        ("map", "--q", "0.5"),
        ("map", "--zeta", "0.5"),
        ("deriv", "--op", "hausdorff", "--zeta", "0.5", "--fn", "sin(x)", "--grid", "0.1:2:7"),
        ("deriv", "--op", "q", "--q", "0.5", "--fn", "x", "--grid", "0:1:3", "--no-such-flag"),
        ("--help",),
        ("deriv", "--help"),
        ("map", "--l0", "2", "--zeta", "0.25", "--format", "csv"),
    ]

    def test_interleaved_calls_match_fresh_parsers(self, capsys, fresh_parser):
        shared = run_each(capsys, self.CALLS, fresh=False)
        fresh = run_each(capsys, self.CALLS, fresh=True)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0]
        assert "--no-such-flag" in shared[3][2]
        assert shared[4][1].startswith("usage: defcalc")

    def test_flag_values_do_not_carry_over(self, capsys, fresh_parser):
        run_cli(capsys, "map", "--q", "0.5")
        code, out, _ = run_cli(capsys, "map", "--zeta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"zeta": 0.5}
        assert payload["rows"][0]["zeta"] == 0.5
        assert cli._parser().parse_args(["map", "--zeta", "0.5"]).q is None

    def test_threads_write_the_same_files_as_serial_runs(self, tmp_path, fresh_parser):
        ops = [
            ("--op", "q", "--q", "0.5", "--fn", "x^2", "--grid", "0:2:301"),
            ("--op", "hausdorff", "--zeta", "0.7", "--l0", "1.5", "--fn", "exp(x)",
             "--grid", "0:3:401"),
            ("--op", "kappa", "--kappa", "0.3", "--fn", "sin(x)", "--grid=-1:1:257"),
            ("--op", "gl", "--alpha", "0.5", "--h", "0.01", "--fn", "x", "--grid", "0.05:1:33"),
        ]

        def argv(i, tag):
            return ["deriv", *ops[i], "--output", str(tmp_path / f"{tag}{i}.csv")]

        assert [main(argv(i, "serial")) for i in range(len(ops))] == [0] * len(ops)
        # the parser is built under contention too
        cli._parser.cache_clear()
        start, codes = threading.Barrier(len(ops)), [None] * len(ops)

        def work(i):
            start.wait(timeout=30)
            codes[i] = main(argv(i, "thread"))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ops))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0] * len(ops)
        for i in range(len(ops)):
            serial = (tmp_path / f"serial{i}.csv").read_bytes()
            assert (tmp_path / f"thread{i}.csv").read_bytes() == serial


class TestParserCost:
    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import defcalc.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_main_builds_the_parser_at_most_once(self, capsys, monkeypatch, fresh_parser):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(5):
            assert main(["map", "--q", "0.5"]) == 0
            assert main(["expand", "--kappa", "1", "--order", "4"]) == 0
            assert main(["map", "--bogus"]) == 2
        capsys.readouterr()
        assert len(built) <= 1


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# Each subcommand's option strings, with the choices of the flag's action.
VOCABULARY = {name: {s: tuple(a.choices or ()) for a in p._actions for s in a.option_strings}
              for name, p in _subparsers(build_parser()).items()}
# Values that the flags some subcommand requires accept.
REQUIRED_VALUES = {"--op": "q", "--fn": "sin(x)", "--grid": "0.1:1:4", "--problem": "q",
                   "--alpha": "0.5"}
VALUES = ["0.5", "3", "0.1:1:4", "x", "-8", "-.5", "-1e-3", "inf", "nan", "", "sin(x) + x^2",
          "--", "1e999"]
# 7 is a token that is not a str
STRAY = ["-h", "--help", "--", "--no-such-flag", "x", 7]


@st.composite
def _argvs(draw):
    """A subcommand, then flags of its vocabulary, repeated or not, in any
    order.  Half the draws are well formed but for their values: the required
    flags given, then flags other than help in the exact and "=" forms with
    their choices or a few plain values.  The other half adds the abbreviated
    and value-less forms, the values of ``VALUES``, at most one stray token,
    and the required flags only half the time."""
    name = draw(st.sampled_from(sorted(VOCABULARY)))
    flags = VOCABULARY[name]
    clean = draw(st.booleans())
    items = []
    if clean or draw(st.booleans()):
        items += [[flag, REQUIRED_VALUES[flag]] for flag in flags if flag in REQUIRED_VALUES]
    forms = ["exact", "equals"] + ([] if clean else ["abbreviated", "missing"])
    names = sorted(flag for flag in flags if not (clean and flag in ("-h", "--help")))
    for flag in draw(st.lists(st.sampled_from(names), max_size=6)) if names else []:
        plain = list(flags[flag]) or ["3", "-8"]
        text = draw(st.sampled_from(plain if clean else VALUES + plain))
        items.append({"exact": [flag, text], "equals": [f"{flag}={text}"],
                      "abbreviated": [flag[:-1], text], "missing": [flag]}[draw(st.sampled_from(forms))])
    if not clean:
        items += [[token] for token in draw(st.lists(st.sampled_from(STRAY), max_size=1))]
    return [name] + [token for item in draw(st.permutations(items)) for token in item]


class TestFastParse:
    """``main`` builds the Namespace of a well-formed argv from the parser's
    own tables and leaves every other argv to ``parse_args``."""

    @given(_argvs())
    @example(["ml", "--alpha", "0.5", "--z", "-8"])
    @example(["ml", "--alpha", "0.5", "--z=-8"])
    @example(["deriv", "--op", "gl", "--alpha", "0.5", "--h", "0.01", "--fn", "x",
              "--grid", "0.1:1:4"])
    @example(["deriv", "--op", "q", "--fn=", "--grid", "0.1:1:4", "--fn", "x"])
    @example(["map", "--output=--"])  # argparse drops a "--" value
    @settings(max_examples=400)
    def test_namespace_matches_parse_args(self, argv):
        parser = cli._parser()
        fast = cli._fast_parse(cli._flag_tables(parser), argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                want = parser.parse_args(argv)
        except (SystemExit, TypeError):  # TypeError: argparse indexes a token that is not a str
            assert fast is None
            return
        if fast is not None:
            assert list(vars(fast).items()) == list(vars(want).items())

    @pytest.mark.parametrize("argv", [
        ["selftest"],
        ["map", "--q", "0.5"],
        ["ml", "--alpha", "0.5", "--z=-8"],
        ["deriv", "--op", "q", "--q", "0.5", "--fn", "sin(x)", "--grid", "0:1:5"],
        ["deriv", "--op", "gl", "--alpha", "0.5", "--h", "0.01", "--fn", "x", "--grid=0.1:1:4",
         "--alpha", "0.25"],
        ["solve", "--problem", "fractional", "--alpha", "0.5", "--grid", "0.1:1:5",
         "--format", "json", "--output", "table with spaces.json"],
    ])
    def test_takes_well_formed_argv(self, argv):
        assert cli._fast_parse(cli._flag_tables(cli._parser()), argv) is not None

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["deriv", "-h"], ["map", "--"], ["map", "--q"], ["map", "--qq", "1"],
        ["ml", "--alpha", "0.5", "--z", "-8"],
        ["deriv", "--op", "q", "--q", "0.5", "--fn", "sin(x)", "--gri", "0:1:5"],
        ["deriv", "--op", "q", "--fn", "x"],
        ["deriv", "--op", "nope", "--fn", "x", "--grid", "0:1:3"],
        ["ml", "--alpha", "inf"], ["expand", "--order", "1.5"], ["map", "--output=--"],
        ["map", 0.5], ["map", "--q", 0.5], ["map", "0.5"],
    ])
    def test_leaves_the_rest_to_parse_args(self, argv):
        assert cli._fast_parse(cli._flag_tables(cli._parser()), argv) is None

    def test_tables_follow_the_parser(self, capsys, monkeypatch, fresh_parser):
        assert main(["map", "--q", "0.5"]) == 0
        first = cli._parser()
        cli._parser.cache_clear()

        def tagged():
            parser = build_parser()
            _subparsers(parser)["map"].add_argument("--tag", default=None)
            return parser

        monkeypatch.setattr(cli, "build_parser", tagged)
        fast, taken = cli._fast_parse, []
        monkeypatch.setattr(cli, "_fast_parse", lambda tables, argv: taken.append(fast(tables, argv))
                            or taken[-1])
        assert main(["map", "--q", "0.5", "--tag", "new"]) == 0
        capsys.readouterr()
        assert cli._parser() is not first
        assert taken[-1].tag == "new"


# the per-value formatter the CSV writer replaced
def _old_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def _assert_same_text(got, want):
    """``got == want``, reporting the first line that differs: pytest's diff
    of two tables of 100 KB takes seconds to render, and minutes when
    hypothesis shrinks through many failing examples."""
    if got != want:
        got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i} of {len(got_lines)} (want {len(want_lines)}) differs: "
                    f"{got_lines[i:i + 1]!r} != {want_lines[i:i + 1]!r}", pytrace=False)


EDGE_VALUES = [-0.0, 5e-324, 1e-300, 0.1, 2.0, 1e22, np.float64(1.0) / 3.0, -7.25e-5]

HEADERS = {
    "deriv": ("x", "value"),
    "solve": ("x", "value", "closed_form", "residual"),
    "map": ("q", "zeta", "l0", "first_order_residual_bound"),
    "expand": ("x", "value"),
    "ml": ("x", "value"),
}


class TestCsvBytes:
    @pytest.mark.parametrize("command", sorted(HEADERS))
    def test_matches_the_per_value_format(self, command):
        header = HEADERS[command]
        n = len(EDGE_VALUES)
        rows = [tuple(EDGE_VALUES[(i + j) % n] for j in range(len(header))) for i in range(n)]
        out = io.StringIO()
        csv17.write_table(out, "csv", command, {}, header, np.array(rows))
        assert out.getvalue() == _old_csv(header, rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ("deriv", "--op", "q", "--q", "0.5", "--fn", "x^2", "--grid", "0:1:4"),
            ("solve", "--problem", "q", "--q", "0.5", "--grid", "0:1:11"),
            ("solve", "--problem", "hausdorff", "--zeta", "0.5", "--grid", "0:1:11"),
            ("solve", "--problem", "fractional", "--alpha", "0.5", "--grid", "0.2:1:11"),
            ("map", "--q", "0.5"),
            ("map", "--zeta", "0.5", "--l0", "2"),
            ("expand", "--zeta", "0.5", "--order", "3"),
            ("expand", "--kappa", "1", "--order", "4"),
            ("ml", "--alpha", "0.5", "--z", "1"),
            ("ml", "--alpha", "0.5", "--grid", "0:1:3"),
        ],
    )
    def test_every_emitted_cell_is_a_float(self, capsys, monkeypatch, argv):
        seen = []
        write_table = cli.write_table

        def capture(out, fmt, command, params, header, rows):
            seen.append((len(header), rows))
            write_table(out, fmt, command, params, header, rows)

        monkeypatch.setattr(cli, "write_table", capture)
        assert main(list(argv)) == 0
        capsys.readouterr()
        [(width, rows)] = seen
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.ndim == 2 and rows.shape[0] >= 1 and rows.shape[1] == width


def _old_json(command, params, header, rows):
    payload = {"command": command, "params": params,
               "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _emitted(fmt, command, params, header, rows):
    """The table ``rows`` (rows of floats, or an array) as ``write_table`` writes it."""
    table = np.array(rows, dtype=float).reshape(-1, len(header))
    out = io.StringIO()
    csv17.write_table(out, fmt, command, params, header, table)
    return out.getvalue()


JSON_CELLS = [*EDGE_VALUES, math.nan, math.inf, -math.inf]


class TestJsonBytes:
    # json escapes the quote and the backslashes, and writes the e-acute as \u00e9
    PARAMS = {"op": "q", "form": "closed", "fn": 'ln(x) "0\\\\ é', "q": 0.5, "order": 3}

    @pytest.mark.parametrize("n_rows", [1, 2, len(JSON_CELLS), 500])
    @pytest.mark.parametrize("command", sorted(HEADERS))
    def test_matches_the_indented_dump(self, command, n_rows):
        header = HEADERS[command]
        n = len(JSON_CELLS)
        rows = [tuple(JSON_CELLS[(i + j) % n] for j in range(len(header))) for i in range(n_rows)]
        for params in ({}, self.PARAMS):
            got = _emitted("json", command, params, header, rows)
            _assert_same_text(got, _old_json(command, params, header, rows))


@given(rows=st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[st.floats()] * width), max_size=12)))
@example(rows=[])
def test_every_format_matches_the_per_value_bytes(rows):
    header = ("x", "value", "closed_form", "residual")[: len(rows[0]) if rows else 2]
    assert _emitted("csv", "deriv", {}, header, rows) == _old_csv(header, rows)
    assert _emitted("json", "deriv", {}, header, rows) == _old_json("deriv", {}, header, rows)


def _old(fmt, header, rows):
    """The table as the per-value formatter of ``fmt`` writes it."""
    return _old_csv(header, rows) if fmt == "csv" else _old_json("deriv", {}, header, rows)


def _tiled(values, cols):
    """``values`` repeated into an array of rows of ``cols`` cells, at least
    ``csv17._KERNEL_CELLS`` of them, so that both formats take the array kernel."""
    values = np.asarray(values, dtype=float)
    rows = -(-max(csv17._KERNEL_CELLS, values.size) // cols)
    return np.resize(values, (rows, cols))


def _ties():
    # m / 2^(p + 1) with m odd: 17 digits of the value then end in exactly
    # half a unit, at every exponent X = 16 - p that has such doubles (from
    # X = -5 on, 9 * 2^-23 and 3 * 2^-24 among them, in exponent notation)
    ties = []
    for p in range(1, 25):
        low = math.ceil(10.0 ** (16 - p) * 2.0 ** (p + 1)) | 1
        ties += [(m / 2.0 ** (p + 1)) for m in range(low, low + 40, 2)
                 if m < 2**53 and m / 2.0 ** (p + 1) < 10.0 ** (17 - p)]
    return ties + [k / 2048 for k in range(2_048_000_001, 2_048_000_081, 2)]


def _around(values):
    """``values`` and their two nearest doubles on either side."""
    below, above = np.nextafter(values, 0), np.nextafter(values, np.inf)
    return np.concatenate([np.nextafter(below, 0), below, values, above,
                           np.nextafter(above, np.inf)])


_RNG = np.random.default_rng(20240611)
_HARD = [1e-100, 1e-300, 2.2250738585072014e-308, 5e-324, 9 * 2.0**-23, 3 * 2.0**-24,
         0.0, -0.0, math.inf, -math.inf, math.nan]
KERNEL_INPUTS = {
    "edge values": EDGE_VALUES,
    "powers of ten and neighbours": _around(10.0 ** np.arange(-6, 19)),
    "range edges and neighbours": _around(np.array([1e-4, 1e17])),
    "exponent notation edges": np.concatenate(
        [_around(np.array([1e-4, 1e-5, 1e17, 1e100])), _HARD, [-v for v in _HARD],
         # the doubles just below these round up to them
         _around(np.array([1e-305, 1e-243, 1e-14, 1e98, 1e220]))]),
    "exponent notation only": (_RNG.choice([-1.0, 1.0], 3000) * 10.0 ** np.concatenate(
        [_RNG.uniform(-307.6, -4.01, 1500), _RNG.uniform(17.01, 308.2, 1500)])),
    "exact ties": _ties(),
    "uniform exponent, fixed range": (_RNG.choice([-1.0, 1.0], 3000)
                                      * 10.0 ** _RNG.uniform(-4, 17, 3000)),
    "uniform exponent, all doubles": (_RNG.choice([-1.0, 1.0], 3000)
                                      * 10.0 ** _RNG.uniform(-323, 308, 3000)),
    "random bit patterns": [v for v in _RNG.integers(0, 2**64, 3000, dtype=np.uint64)
                            .view(np.float64).tolist() if math.isfinite(v)],
    "grid with round steps": np.linspace(0.0, 100.0, 10001),
    # repr's own edges: its switch to exponent notation at X = 16, the '.0'
    # of an integral value, the narrower gap below a power of two, doubles
    # from 2^53 on, whose range ends are exact integers, and values exactly
    # halfway between two 16-digit candidates (6e14 + 0.25, 129 * 2^-21)
    "shortest digits edges": np.concatenate([
        _around(np.array([9999999999999998.0, 1e16, 2.0**53, 1e15, 1.0, 0.1, 0.122])),
        [1e15 + 1, 123456789012345.0, 100.0, -7.0, 5e-324, 2.2250738585072014e-308],
        _around(2.0 ** np.arange(-1022, 1024, 7)),
        2.0**53 + np.arange(0, 400, 2.0), 2.0**54 + np.arange(0, 800, 4.0),
        np.arange(1, 64, dtype=float) * 1e16, 2.0 ** np.arange(53, 60) * 3,
        6e14 + np.arange(0.25, 40, 0.5), np.arange(129, 210, 2) / 2.0**21]),
}


@pytest.fixture
def kernel_chunks(monkeypatch):
    """(rule.shortest, chunk size) of each table the kernel writes: the JSON
    rule writes the shortest digits, the CSV rule all 17."""
    calls, chunk = [], csv17._Chunk

    def counting(size, cols, rule):
        calls.append((rule.shortest, size))
        return chunk(size, cols, rule)

    monkeypatch.setattr(csv17, "_Chunk", counting)
    return calls


class TestCsvKernel:
    def test_ties_are_ties(self):
        for v in _ties():
            digits = Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))
            assert digits.denominator == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cols", [2, 4])
    @pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
    def test_matches_the_per_value_format(self, name, cols, fmt):
        table = _tiled(KERNEL_INPUTS[name], cols)
        header = ("x", "value", "closed_form", "residual")[:cols]
        _assert_same_text(_emitted(fmt, "deriv", {}, header, table), _old(fmt, header, table.tolist()))

    def test_only_exponent_notation_builds_the_full_power_table(self):
        """A table whose normal cells all lie in [1e-4, 1e17) reads the exact
        powers built at import; one cell outside builds the table of every X."""
        header = ("x", "value")
        csv17._all_powers.cache_clear()
        fixed = _tiled([0.0, -1e-4, 2.5, 1e17 - 16, math.nan, 5e-324], 2)
        _assert_same_text(_emitted("csv", "deriv", {}, header, fixed),
                          _old_csv(header, fixed.tolist()))
        assert csv17._all_powers.cache_info().currsize == 0
        mixed = _tiled([2.5, 1e-5], 2)
        _assert_same_text(_emitted("csv", "deriv", {}, header, mixed),
                          _old_csv(header, mixed.tolist()))
        assert csv17._all_powers.cache_info().currsize == 1

    def test_arrays_from_the_cell_threshold_take_the_kernel(self, kernel_chunks):
        for cells in (csv17._KERNEL_CELLS - 2, csv17._KERNEL_CELLS):
            table = np.linspace(0.1, 2.0, cells).reshape(-1, 2)
            _emitted("csv", "deriv", {}, ("x", "value"), table)
            _emitted("json", "deriv", {}, ("x", "value"), table)
        assert kernel_chunks == [(False, csv17._KERNEL_CELLS), (True, csv17._KERNEL_CELLS)]

    @pytest.mark.parametrize("argv", [
        ("deriv", "--op", "q", "--q", "0.5", "--fn", "sin(x)*exp(x)", "--grid", "0:2:3001"),
        ("ml", "--alpha", "0.5", "--grid=-3:10:3001"),
    ])
    def test_cli_tables_match_the_per_value_format(self, capsys, argv):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        header, *lines = out.splitlines()
        values = [tuple(float(v) for v in line.split(",")) for line in lines]
        assert len(values) == 3001
        _assert_same_text(out, _old_csv(tuple(header.split(",")), values))


# the cells the kernel leaves to "%" or json.dumps: zeros, a subnormal, the
# non-finite values, and an exact tie whose inexact product cannot round it
FALLBACK_CELLS = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 9 * 2.0**-23]


@given(cols=st.integers(1, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_tables_of_any_width_match_the_per_value_bytes(cols, data):
    """Tables of 1 to 5 columns whose cell counts straddle the kernel's
    threshold and one or two chunks, with fallback cells at the first and
    last cell of every chunk: each column ends its cells with its own
    separator, and both formats give the bytes of the per-value formats."""
    near = data.draw(st.sampled_from([csv17._KERNEL_CELLS, csv17._CHUNK, 2 * csv17._CHUNK]))
    rows = near // cols + data.draw(st.integers(-2, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    low, high = data.draw(st.sampled_from([(-4, 17), (-2, 3), (-323, 308.25)]))
    table = rng.choice([-1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(low, high, (rows, cols))
    # the chunks as the kernel cuts them: whole rows, of nearly equal size
    step = -(-rows // -(-table.size // csv17._CHUNK)) * cols
    edges = sorted({*range(0, table.size, step), *range(step - 1, table.size, step), table.size - 1})
    table.flat[edges] = data.draw(st.lists(st.sampled_from(FALLBACK_CELLS), min_size=len(edges),
                                           max_size=len(edges)))
    header = ("x", "value", "closed_form", "residual", "order")[:cols]
    for fmt in ("csv", "json"):
        _assert_same_text(_emitted(fmt, "deriv", {}, header, table), _old(fmt, header, table.tolist()))


@pytest.mark.parametrize("problem,solve", [
    (("q", "--q", "0.5"), lambda: defcalc.solve_q_eigen(0.5, (0.0, 2.0), 1001, 1e-10)),
    (("hausdorff", "--zeta", "0.4", "--l0", "1.5"),
     lambda: defcalc.solve_hausdorff_eigen(defcalc.HausdorffParams(0.4, 1.5), (0.0, 2.0), 1001,
                                           1e-10)),
])
def test_solve_table_matches_the_report_grid(capsys, kernel_chunks, problem, solve):
    """A 4,004-cell solve table goes through the CSV kernel, in two chunks,
    with the bytes of one "%.17g" or json.dumps pass over the first three
    columns of ``report.table`` and residuals computed in Python."""
    header = ("x", "value", "closed_form", "residual")
    rows = [(x, a, b, abs(a - b) / abs(b)) for x, a, b in solve().table[:, :3].tolist()]
    argv = ["solve", "--problem", *problem, "--grid", "0:2:1001", "--tol", "1e-10"]
    assert main(argv) == 0
    _assert_same_text(capsys.readouterr().out, _old_csv(header, rows))
    assert kernel_chunks == [(False, 2004)]
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    _assert_same_text(out, _old_json("solve", json.loads(out)["params"], header, rows))


@pytest.mark.parametrize("problem,closed_form", [
    (("q", "--q", "0.5"), lambda x: defcalc.q_exp(x, 0.5)),
    (("hausdorff", "--zeta", "0.4", "--l0", "1.5"),
     lambda x: defcalc.balankin_exp(x, defcalc.HausdorffParams(0.4, 1.5))),
])
def test_solve_closed_form_column_has_the_bits_of_scalar_calls(capsys, problem, closed_form):
    """The closed form is evaluated over the whole grid in one call; each
    cell must read back as the call on that grid point alone."""
    assert main(["solve", "--problem", *problem, "--grid", "0:2:1001"]) == 0
    _, *lines = capsys.readouterr().out.splitlines()
    column = [float(line.split(",")[2]) for line in lines]
    assert column == [closed_form(x) for x in np.linspace(0.0, 2.0, 1001).tolist()]


def _from_bits(bits):
    return np.array([bits], np.uint64).view(np.float64).item()


@given(values=st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_from_bits)),
                       min_size=1, max_size=64),
       cols=st.sampled_from([2, 4]))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_kernel_matches_the_per_value_bytes(fmt, values, cols):
    table = _tiled(values, cols)
    header = ("x", "value", "closed_form", "residual")[:cols]
    _assert_same_text(_emitted(fmt, "deriv", {}, header, table), _old(fmt, header, table.tolist()))

import json
import math
import time

import pytest

import defcalc.eigen_solvers
from defcalc.cli import ENV_FORMAT, main


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

    def test_non_finite_value_is_numerical_failure(self, capsys):
        # sqrt(1 + x^2) overflows at x = 5e299
        code, out, err = run_cli(
            capsys, "deriv", "--op", "kappa", "--kappa", "1", "--fn", "x", "--grid", "0:1e300:3"
        )
        assert code == 3
        assert out == ""
        assert "x = 5e+299" in err

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
        code, _, err = run_cli(
            capsys, "solve", "--problem", "hausdorff", "--zeta", "0.5", "--l0", "1",
            "--grid", "-2:1:11",
        )
        assert code == 2


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
        code, out, err = run_cli(capsys, "ml", "--alpha", "0.3", "--z", "8")
        assert code == 3
        assert out == ""
        assert "overflow" in err

    def test_out_of_series_domain_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "ml", "--alpha", "0.5", "--z", "11")
        assert code == 3


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

    def test_environment_variable_default(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_FORMAT, "json")
        code, out, _ = run_cli(
            capsys, "deriv", "--op", "classical", "--fn", "x", "--grid", "0:1:2"
        )
        assert code == 0
        assert json.loads(out)["command"] == "deriv"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = main(
            ["deriv", "--op", "classical", "--fn", "x", "--grid", "0:1:3",
             "--output", str(path)]
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "x,value"


class TestSelftest:
    def test_fresh_build_passes_within_budget(self, capsys):
        started = time.time()
        code, out, _ = run_cli(capsys, "selftest")
        elapsed = time.time() - started
        assert code == 0
        assert "0 failed" in out
        assert elapsed < 10.0

    def test_injected_fault_is_detected(self, capsys, monkeypatch):
        # skew the closed form the q eigen check compares against
        original = defcalc.eigen_solvers.q_exp
        monkeypatch.setattr(
            defcalc.eigen_solvers, "q_exp", lambda x, q: original(x, q) * (1.0 + 1e-4)
        )
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert "FAIL" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "defcalc.cli", "map", "--zeta", "0.5", "--l0", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["q"] == 0.75

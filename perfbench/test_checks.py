"""The checkers reject corrupted output.

    python3 -m pytest perfbench/test_checks.py

Each case runs one real operation, confirms that its output passes, then
changes one value by 1e-6 relative, or drops a row, and expects a Mismatch.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from checks import Mismatch, Result  # noqa: E402
from defcalc import cli  # noqa: E402

RNG = random.Random("corruption")
TREE = workloads.t_sin(RNG)
X = ("x",)
# cos(ln(pow(exp(cos(sin(exp(sin(sin(x^3)))))), 0.5)))^2
WILD = ("^", ("cos", ("ln", ("pow", ("exp", ("cos", ("sin", ("exp", ("sin", ("sin", ("^", X, 3.0))))))),
                                    0.5))), 2.0)


def run(op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op.argv)
    return Result(rc, out.getvalue(), err.getvalue())


def verdict(op, res: Result) -> None:
    op.check(res)
    if op.deferred is not None:
        op.deferred(res, mpmath)


def nudge(res: Result, row: int, column: int) -> Result:
    """The CSV output with one value multiplied by 1 + 1e-6."""
    lines = res.out.split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = f"{float(cells[column]) * (1.0 + 1e-6):.17g}"
    lines[row + 1] = ",".join(cells)
    return Result(res.rc, "\n".join(lines), res.err)


def drop(res: Result, row: int) -> Result:
    lines = res.out.split("\n")
    del lines[row + 1]
    return Result(res.rc, "\n".join(lines), res.err)


CASES = {
    "closed form": (workloads.deriv_op("q", {"q": 0.7}, TREE, (0.2, 2.0, 50)), 1),
    "limit form": (workloads.deriv_op("hausdorff_quotient", {"zeta": 0.6}, TREE, (0.2, 2.0, 50)), 1),
    "classical": (workloads.deriv_op("classical", {}, TREE, (0.2, 2.0, 50)), 1),
    "GL chain": (workloads.gl_op(("sin", ("x",)), 0.5, 1e-3, workloads._offlattice_grid(1e-3, 11)), 1),
    "ODE closed form": (workloads.ode_op("q", {"q": 0.6}, (0.0, 2.0, 101), 1e-10), 2),
    "Mittag-Leffler": (workloads.ml_sweep(0.8, -2.0, 9.0, 41), 1),
    "expansion": (workloads.expand_op({"zeta": 0.4, "l0": 1.5}, 8), 1),
    # scipy's binom, the former reference, is off by 1.6e-14 here from k = 8
    "expansion near zeta = 1": (workloads.expand_op({"zeta": 0.944, "l0": 1.505}, 12), 1),
    # the Cauchy circle of radius 0.1 overflows near x = 2.1 (expr_corpus seed 823175696)
    "limit form, overflowing circle": (workloads.deriv_op("conformable", {"alpha": 0.834}, WILD,
                                                          (0.778, 2.203, 32)), 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_corruption_is_rejected(name):
    op, column = CASES[name]
    res = run(op)
    verdict(op, res)  # the real output passes
    rows = res.out.count("\n") - 1
    for row in (1, rows // 2, rows - 1):
        with pytest.raises(Mismatch):
            verdict(op, nudge(res, row, column))
    with pytest.raises(Mismatch):
        verdict(op, drop(res, rows // 2))


def test_csv_json_twins_must_agree():
    csv_op = workloads.deriv_op("kappa", {"kappa": 0.5}, TREE, (0.2, 2.0, 30))
    json_op = workloads.deriv_op("kappa", {"kappa": 0.5}, TREE, (0.2, 2.0, 30), fmt="json")
    a, b = csv_op.check(run(csv_op)), json_op.check(run(json_op))
    assert np.array_equal(a, b)


def test_kept_faults_fail():
    for op in workloads.kept_faults():
        with pytest.raises(Mismatch):
            verdict(op, run(op))

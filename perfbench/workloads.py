"""The four workloads: seeded lists of CLI operations, each with its checks.

A workload's round is the list built here from ``--seed``.  The harness
repeats whole rounds, so every run attempts the same operations in the same
proportions.  Seeds change constants, parameters and grids; the structure of
each round (templates, grid sizes, tolerance levels, operation mix) is fixed
so that the cost of a round barely depends on the seed.  The kept faults use
fixed inputs and fail on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks
import exprs
from checks import EPS, Mismatch, Result


@dataclass
class Op:
    argv: list
    fmt: str  # "csv", "json" or "selftest": how to count rows
    check: Callable[[Result], Optional[np.ndarray]]  # numpy-only; may return the table
    deferred: Optional[Callable] = None  # called as deferred(result, mpmath)
    kept_fault: str = ""  # non-empty for an operation that fails until a named fault is fixed
    twin: Optional[int] = None  # index of the same operation in the other output format


def _u(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _grid_arg(a: float, b: float, n: int) -> str:
    return f"--grid={a!r}:{b!r}:{n}"


# --- expression templates (fixed structure, seeded constants) -----------------

X = ("x",)


def _c(v: float):
    return ("c", v)


def t_sin(rng):  # a sin(b x) + c x^2
    return ("+", ("*", _c(_u(rng, 0.5, 2.0)), ("sin", ("*", _c(_u(rng, 0.5, 3.0)), X))),
            ("*", _c(_u(rng, 0.2, 1.5)), ("^", X, 2.0)))


def t_gauss(rng):  # exp(-(a x^2)) cos(b x)
    return ("*", ("exp", ("neg", ("*", _c(_u(rng, 0.2, 1.0)), ("^", X, 2.0)))),
            ("cos", ("*", _c(_u(rng, 0.5, 3.0)), X)))


def t_log(rng):  # sqrt(a + x^2) ln(b + x)
    return ("*", ("sqrt", ("+", _c(_u(rng, 0.5, 2.0)), ("^", X, 2.0))),
            ("ln", ("+", _c(_u(rng, 0.5, 2.0)), X)))


def t_pow(rng):  # x^g exp(-(a x))
    return ("*", ("^", X, rng.choice((1.5, 2.5))), ("exp", ("neg", ("*", _c(_u(rng, 0.2, 1.5)), X))))


TEMPLATES = {"sin": t_sin, "gauss": t_gauss, "log": t_log, "pow": t_pow}


# --- operation builders -------------------------------------------------------


def _params(op: str, rng) -> dict:
    if op in ("q", "q_quotient"):
        lo_hi = (0.2, 0.95) if op == "q_quotient" or rng.random() < 0.5 else (1.05, 1.4)
        return {"q": _u(rng, *lo_hi)}
    if op == "kappa":
        return {"kappa": _u(rng, 0.2, 1.5)}
    if op == "hausdorff":
        return {"zeta": _u(rng, 0.3, 0.95), "l0": _u(rng, 0.5, 2.0)}
    if op == "hausdorff_quotient":
        return {"zeta": _u(rng, 0.3, 0.95)}
    if op == "yang":
        return {"alpha": _u(rng, 0.3, 0.95), "l0": _u(rng, 0.5, 2.0)}
    if op == "conformable":
        return {"alpha": _u(rng, 0.3, 0.95)}
    return {}


def deriv_op(key: str, prm: dict, tree, grid: tuple, fmt: str = "csv") -> Op:
    """``deriv`` with a closed form (q, kappa, hausdorff, yang) or a limit form
    (q_quotient, hausdorff_quotient, conformable, classical)."""
    op = {"q_quotient": "q", "hausdorff_quotient": "hausdorff"}.get(key, key)
    argv = ["deriv", "--op", op, "--fn", exprs.render(tree), _grid_arg(*grid)]
    for name, value in prm.items():
        argv += [f"--{name}", repr(value)]
    if key.endswith("_quotient"):
        argv += ["--form", "quotient"]
    if fmt == "json":
        argv += ["--format", "json"]

    def check(res: Result):
        data = checks.table(res, fmt, ("x", "value"))
        checks.exact_grid(data[:, 0], grid)
        ref, tol = checks.operator_reference(key, prm, tree, data[:, 0])
        checks.within(data[:, 1], ref, tol, f"{key} value")
        return data

    return Op(argv, fmt, check)


def gl_op(tree, alpha: float, h: float, grid: tuple, power=None, kept_fault: str = "") -> Op:
    """``deriv --op gl``: exact chain sum, and the fractional power rule for c x^g."""
    argv = ["deriv", "--op", "gl", "--fn", exprs.render(tree), "--alpha", repr(alpha),
            "--h", repr(h), _grid_arg(*grid)]
    size = exprs.nodes(tree)
    span = np.linspace(0.0, grid[1], 257)
    f_abs = 8.0 * size * EPS * float(np.max(exprs.magnitude(tree, span)))

    def check(res: Result):
        data = checks.table(res, "csv", ("x", "value"))
        xs = data[:, 0]
        checks.exact_grid(xs, grid)
        ref, tol = checks.gl_reference(
            lambda u: exprs.evaluate(tree, u), alpha, h, xs, lambda fv: f_abs
        )
        checks.within(data[:, 1], ref, tol, "GL chain")
        if power is not None:
            pref, ptol = checks.power_rule(*power, alpha, h, xs)
            checks.within(data[:, 1], pref, ptol + tol, "power rule")
        return data

    return Op(argv, "csv", check, kept_fault=kept_fault)


def fractional_op(alpha: float, h: float, grid: tuple) -> Op:
    """``solve --problem fractional``: the GL chain on E_a(t^a) - 1 and the
    eigenfunction column E_a(x^a)."""
    argv = ["solve", "--problem", "fractional", "--alpha", repr(alpha), "--h", repr(h),
            _grid_arg(*grid)]
    header = ("x", "value", "closed_form", "residual")

    def shifted(u):
        return checks.ml_series_longdouble(alpha, u**alpha) - 1

    def check(res: Result):
        data = checks.table(res, "csv", header)
        xs = data[:, 0]
        checks.exact_grid(xs, grid)
        # the library's series stops at 1e-12 relative; allow 10x that per node
        ref, tol = checks.gl_reference(shifted, alpha, h, xs, lambda fv: 1e-11 * (np.abs(fv) + 1))
        checks.within(data[:, 1], ref, tol, "GL chain on E_a(t^a) - 1")
        checks.residual_column(data)
        checks.stderr_residual(res, data[:, 3])
        return data

    def deferred(res: Result, mp):
        data = checks.table(res, "csv", header)
        refs = checks.ml_reference(alpha, [float(x) ** alpha for x in data[:, 0]], mp)
        checks.within(data[:, 2], refs, 1e-11 * np.abs(refs), "E_a(x^a)")

    return Op(argv, "csv", check, deferred)


def ml_op(alpha: float, zs: np.ndarray, argv_z: list, kept_fault: str = "") -> Op:
    argv = ["ml", "--alpha", repr(alpha)] + argv_z

    def check(res: Result):
        return None  # all of it needs mpmath: see deferred

    def deferred(res: Result, mp):
        checks.check_ml(res, alpha, zs, mp)

    return Op(argv, "csv", check, deferred, kept_fault)


def ml_sweep(alpha: float, z0: float, z1: float, n: int) -> Op:
    return ml_op(alpha, np.linspace(z0, z1, n), [_grid_arg(z0, z1, n)])


def ode_op(problem: str, prm: dict, grid: tuple, tol: float) -> Op:
    argv = ["solve", "--problem", problem, _grid_arg(*grid), "--tol", repr(tol)]
    for name, value in prm.items():
        argv += [f"--{name}", repr(value)]

    def check(res: Result):
        xs = np.linspace(*grid)
        if problem == "q":
            q = prm["q"]
            y = checks.q_exp_exact(q, xs)
            cond = 1.0 + np.abs(np.log(y)) + abs(1.0 / (1.0 - q))
            return checks.ode_rows(res, "csv", grid, y, cond, tol, max(1.0, abs(q)))
        zeta, l0 = prm["zeta"], prm["l0"]
        y = checks.balankin_exact(zeta, l0, xs)
        return checks.ode_rows(res, "csv", grid, y, 1.0 + 2.0 * np.abs(np.log(y)), tol, 1.0)

    return Op(argv, "csv", check)


def map_op(prm: dict) -> Op:
    argv = ["map"]
    for name, value in prm.items():
        argv += [f"--{name}", repr(value)]
    header = ("q", "zeta", "l0", "first_order_residual_bound")

    def check(res: Result):
        data = checks.table(res, "json", header)
        if data.shape[0] != 1:
            raise Mismatch(f"{data.shape[0]} rows, want 1")
        q, zeta, l0, _ = data[0]
        given = {k: v for k, v in zip(header, data[0]) if k in prm}
        if given != prm:
            raise Mismatch(f"inputs not reproduced: {given} vs {prm}")
        gap = abs((1.0 - q) - (1.0 - zeta) / l0)
        if gap > 4.0 * EPS * max(1.0, abs(1.0 - q), abs(1.0 - zeta) / l0):
            raise Mismatch(f"1 - q = (1 - zeta)/l0 fails by {gap:.2e}")
        return data

    def deferred(res: Result, mp):
        _, zeta, l0, bound = checks.table(res, "json", header)[0]
        want = abs(checks.binom_scaled(1.0 - zeta, 2, l0, -2, mp))
        checks.within(bound, want, 64.0 * EPS * want, "second-order bound")

    return Op(argv, "json", check, deferred)


def expand_op(prm: dict, order: int) -> Op:
    argv = ["expand"]
    for name, value in prm.items():
        argv += [f"--{name}", repr(value)]
    argv += ["--order", str(order)]

    def check(res: Result):
        data = checks.table(res, "csv", ("x", "value"))
        if not np.array_equal(data[:, 0], np.arange(order + 1, dtype=float)):
            raise Mismatch("index column is not 0..order")
        return data

    def deferred(res: Result, mp):
        data = checks.table(res, "csv", ("x", "value"))
        k = np.arange(order + 1)
        if "kappa" in prm:
            kap = prm["kappa"]
            want = np.array([checks.binom_scaled(0.5, int(i) // 2, kap, int(i), mp)
                             if i % 2 == 0 else 0.0 for i in k])
        else:
            z, l0 = prm["zeta"], prm.get("l0", 1.0)
            want = np.array([checks.binom_scaled(1.0 - z, int(i), l0, -int(i), mp) for i in k])
        # the product form and the power each add about one rounding per factor
        checks.within(data[:, 1], want, (4.0 * k + 8.0) * EPS * np.abs(want), "coefficient")

    return Op(argv, "csv", check, deferred)


def selftest_op() -> Op:
    def check(res: Result):
        if res.rc != 0:
            raise Mismatch(f"selftest exit {res.rc}")
        lines = res.out.split("\n")
        body, summary = lines[:-2], lines[-2]
        if lines[-1] != "" or not body or any(not ln.startswith("ok   ") for ln in body):
            raise Mismatch("selftest reports a failed check")
        if summary != f"{len(body)} passed, 0 failed":
            raise Mismatch(f"selftest summary {summary!r}")

    return Op(["selftest"], "selftest", check)


# --- the workloads ------------------------------------------------------------


# Size factors 0.5 .. 2 in equal ratios.  Each round uses every entry of a
# plan twice, at two different factors, so that the sorted operation times
# form an even ladder: a quantile then never sits on a gap between two
# clusters of operations, where noise would make it jump.
LADDER = tuple(0.5 * 4.0 ** (j / 10) for j in range(11))


def deriv_grid(rng: random.Random) -> list[Op]:
    """A few expressions over long grids: every local operator, both forms, CSV and JSON."""
    plan = [  # (operator, template, points at factor 1, also in JSON)
        ("q", "sin", 3400, True), ("kappa", "gauss", 1800, False),
        ("hausdorff", "log", 2250, True), ("yang", "pow", 2400, False),
        ("q", "pow", 6000, False), ("kappa", "sin", 3200, False),
        ("classical", "sin", 560, False), ("conformable", "gauss", 820, False),
        ("q_quotient", "log", 980, True), ("hausdorff_quotient", "sin", 1050, False),
        ("hausdorff_quotient", "pow", 1050, False),
    ]
    ops: list[Op] = []

    def add(key, template, points, also_json=False):
        grid = (_u(rng, 0.1, 0.3), _u(rng, 1.8, 2.2), points)
        spec = (key, _params(key, rng), TEMPLATES[template](rng), grid)
        ops.append(deriv_op(*spec))
        if also_json:
            ops.append(deriv_op(*spec, fmt="json"))
            ops[-1].twin, ops[-2].twin = len(ops) - 2, len(ops) - 1

    for rung in (0, 5):
        for e, (key, template, points, also_json) in enumerate(plan):
            add(key, template, round(points * LADDER[(3 * e + rung) % len(LADDER)]), also_json)
    # The longest grids, sized to take about the same time, form the top 15%
    # of the round: its 90th percentile then falls inside this block rather
    # than on the gap between two lone operations.
    for key, template, points in (("q", "sin", 18900), ("kappa", "gauss", 9450),
                                  ("hausdorff", "log", 9700), ("yang", "pow", 10600),
                                  ("q", "pow", 13800)):
        add(key, template, points)
    return ops


CORPUS_SIZE = 120  # distinct expressions per round, two operations each


def expr_corpus(rng: random.Random) -> list[Op]:
    """Hundreds of distinct expressions on short grids, closed and limit forms."""
    closed = ("q", "kappa", "hausdorff", "yang")
    limit = ("q_quotient", "hausdorff_quotient", "conformable", "classical")
    ops = []
    for i in range(CORPUS_SIZE):
        a = _u(rng, 0.3, 0.8)
        grid = (a, round(a + rng.uniform(0.8, 1.6), 3), 8 + 3 * (i % 9))
        window = np.linspace(grid[0] - 0.1, grid[1] + 0.1, 241)
        tree = exprs.safe_tree(rng, 4 + i % 9, window)
        for key in (closed[i % 4], limit[(i // 4) % 4]):
            ops.append(deriv_op(key, _params(key, rng), tree, grid))
    return ops


def _offlattice_grid(h: float, points: int) -> tuple:
    # x/h = m + 1/2 at every grid point: far from the lattice, so the chain
    # length floor(x/h) is the same under any rounding of x.  The grid does
    # not depend on the seed: the chain's cost grows with x/h.
    m0, stride = 150, round(800 / (points - 1))
    return (round((m0 + 0.5) * h, 12), round((m0 + 0.5 + (points - 1) * stride) * h, 12), points)


def fractional_chain(rng: random.Random) -> list[Op]:
    """GL chains on parsed expressions, fractional eigen checks, ML sweeps, kept faults.

    Grid sizes are fixed per operation, and so are the Mittag-Leffler orders
    (the seed moves the z range), because the series' cost depends strongly
    on alpha: a seeded alpha would make the round's cost depend on the seed.
    """
    ops = []
    h = 1e-3
    gl_trees = []
    for g in (0.5, 1.5, 2.0):
        c = _u(rng, 0.5, 2.0)
        gl_trees.append((("*", _c(c), ("^", X, g)), (c, g)))
    gl_trees += [
        (("sin", ("*", _c(_u(rng, 0.5, 2.0)), X)), None),
        (("*", X, ("exp", ("neg", ("*", _c(_u(rng, 0.2, 1.5)), X)))), None),
        (("+", ("*", _c(_u(rng, 0.2, 2.0)), X), ("*", _c(_u(rng, 0.2, 2.0)), ("^", X, 2.0))), None),
    ]
    # sizes chosen so that five of the six take about the same time: the 90th
    # percentile of the round then lies inside that block
    for (tree, power), points in zip(gl_trees, (13, 27, 29, 25, 29, 33)):
        ops.append(gl_op(tree, _u(rng, 0.2, 0.9), h, _offlattice_grid(h, points), power))
    for (lo, hi), points in zip(((0.35, 0.45), (0.55, 0.65), (0.75, 0.85)), (31, 41, 51)):
        ops.append(fractional_op(_u(rng, lo, hi), h, _offlattice_grid(h, points)))
    # from the most negative z at which the series still holds 1e-9 (see
    # README) up to the domain edge z = 10; 0.5, 1 and 2 have closed forms
    sweeps = [(0.5, -2.5), (0.6, -2.5), (0.75, -3.0), (0.9, -3.0), (1.0, -5.0),
              (1.25, -5.0), (1.5, -10.0), (1.75, -10.0), (2.0, -10.0)]
    for j, (alpha, z_lo) in enumerate(sweeps):
        points = 101 + 25 * ((4 * j) % 9)
        ops.append(ml_sweep(alpha, round(z_lo + rng.uniform(0.0, 0.5), 3),
                            round(10.0 - rng.uniform(0.0, 0.5), 3), points))
    ops += kept_faults()
    return ops


def kept_faults() -> list[Op]:
    """Fixed inputs that hit faults in the program; each fails on every seed."""
    ml = "mittag_leffler power series: "
    gl = "GL chain drops the origin node when x/h rounds below an integer"
    return [
        ml_op(0.5, np.array([-8.0]), ["--z", "-8"], ml + "cancellation, 1.6e13 for 0.070"),
        ml_op(0.3, np.array([8.0]), ["--z", "8"], ml + "prints inf with exit 0"),
        ml_op(0.3, np.array([10.0]), ["--z", "10"], ml + "reports non-convergence for an overflow"),
        gl_op(_c(1.0), 0.5, 0.1, (0.1, 1.0, 10), kept_fault=gl),
        gl_op(("cos", X), 0.5, 0.01, (0.01, 1.0, 100), kept_fault=gl),
    ]


def eigen_ode(rng: random.Random) -> list[Op]:
    """RKF45 eigen solves across seeded parameters and --tol 1e-8..1e-12, plus
    map, expand and selftest."""
    ops = []
    tols = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
    for j in range(12):  # grid sizes on a ladder, as in deriv_grid
        points = round(1000 * LADDER[(5 * j) % len(LADDER)]) + 1
        tol = tols[j % len(tols)]
        if j % 2:
            a = _u(rng, 0.0, 0.5)
            prm = {"zeta": _u(rng, 0.3, 0.95), "l0": _u(rng, 0.5, 2.0)}
            ops.append(ode_op("hausdorff", prm, (a, round(a + rng.uniform(1.5, 2.5), 3), points), tol))
        elif rng.random() < 0.5:
            q = _u(rng, 0.2, 0.95)
            ops.append(ode_op("q", {"q": q}, (0.0, _u(rng, 1.5, 2.5), points), tol))
        else:
            q = _u(rng, 1.05, 1.3)
            end = round(min(_u(rng, 1.5, 2.5), 0.7 / (q - 1.0)), 3)
            ops.append(ode_op("q", {"q": q}, (0.0, end, points), tol))
    ops.append(map_op({"zeta": _u(rng, 0.1, 0.95), "l0": _u(rng, 0.5, 3.0)}))
    ops.append(map_op({"q": _u(rng, 0.2, 1.5), "l0": _u(rng, 0.5, 3.0)}))
    ops.append(expand_op({"zeta": _u(rng, 0.1, 0.95), "l0": _u(rng, 0.5, 3.0)}, 12))
    ops.append(expand_op({"kappa": _u(rng, 0.2, 1.5)}, 10))
    # three of nineteen, so that the 90th percentile falls inside the block
    # of selftest times rather than on its edge
    ops += [selftest_op() for _ in range(3)]
    return ops


WORKLOADS = {
    "deriv_grid": deriv_grid,
    "expr_corpus": expr_corpus,
    "fractional_chain": fractional_chain,
    "eigen_ode": eigen_ode,
}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

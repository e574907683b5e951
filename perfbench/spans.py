"""Spans and counts around defcalc's public entry points, from outside ``src/``.

:class:`Tracer` replaces each traced function wherever a defcalc module holds
it by name (``cli`` and ``eigen_solvers`` import functions by name, and
recursive functions look themselves up as module globals), and puts the
originals back on :meth:`Tracer.uninstall`.  Spans (name, start, end, parent,
operation) are kept in memory as arrays and written out by :meth:`save`.  A
call of a function from inside its own span (recursion) adds to a count
instead of opening a span; ``evaluate``'s recursion is its node visits.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

LIMIT_FORMS = ("q_derivative_quotient", "hausdorff_quotient", "conformable_derivative",
               "classical_derivative")
CLOSED_FORMS = ("q_derivative", "kaniadakis_derivative", "hausdorff_derivative", "yang_lfd")

TARGETS = {
    "function_catalog": ("parse", "differentiate", "evaluate"),
    "derivative_ops": CLOSED_FORMS + LIMIT_FORMS + (
        "gl_jumarie_derivative", "gl_weights", "evaluate_kind", "rl_power_rule",
        "jumarie_taylor_eval"),
    "special_functions": ("mittag_leffler", "mittag_leffler_array", "gamma", "gen_binomial",
                          "stretched_exp", "balankin_exp"),
    "eigen_solvers": ("integrate_ode", "solve_q_eigen", "solve_hausdorff_eigen",
                      "verify_fractional_eigen"),
    "deformed_algebra": ("q_difference", "q_sum", "q_exp", "q_log", "kappa_exp", "kappa_log"),
    "mappings": ("expand_hausdorff_prefactor", "q_from_zeta", "zeta_from_q",
                 "first_order_agreement", "kappa_expansion", "conformable_hausdorff_check",
                 "yang_hausdorff_check"),
    "selftest": ("run_selftest",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []  # open span indices
        self.stack_name: list[int] = []
        self.child: list[float] = []  # time covered by finished children of each open span
        self.op = -1
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.nested: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # --- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> None:
        self.stack.append(len(self.span_start))
        self.stack_name.append(nid)
        self.child.append(0.0)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-2] if len(self.stack) > 1 else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx = self.stack.pop()
        nid = self.stack_name.pop()
        covered = self.child.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_time[self.names[nid]] += duration - covered
        self.calls[self.names[nid]] += 1
        if self.child:
            self.child[-1] += duration

    def parent_name(self) -> str:
        return self.names[self.stack_name[-2]] if len(self.stack_name) > 1 else ""

    def wrap(self, fn, name: str, before=None, after=None):
        nid = self.intern(name)

        def traced(*args, **kwargs):
            if self.stack_name and self.stack_name[-1] == nid:
                self.nested[name] += 1
                return fn(*args, **kwargs)
            self._open(nid)
            try:
                if before is not None:
                    args = before(self, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result)
                return result
            finally:
                self._close()

        traced.__wrapped__ = fn
        return traced

    # --- installing ----------------------------------------------------------

    def install(self, cli_module) -> None:
        """Patch every defcalc module attribute that holds a traced function."""
        if not self._patches:
            self._plan(cli_module)
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def _plan(self, cli_module) -> None:
        modules = [m for n, m in sys.modules.items() if n == "defcalc" or n.startswith("defcalc.")]
        hooks = {"evaluate": (_evaluate_before, None), "gl_weights": (None, _gl_weights_after),
                 "integrate_ode": (_ode_before, _ode_after)}
        for short, names in TARGETS.items():
            home = sys.modules[f"defcalc.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(original, f"{short}.{fname}", *hooks.get(fname, (None, None)))
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapped))
        self.cli_main = self.wrap(cli_module.main, "cli.main")

    # --- output --------------------------------------------------------------

    def save(self, path) -> None:
        n = len(self.span_start)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.span_op, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, dtype=float, count=n),
            end=np.frombuffer(self.span_end, dtype=float, count=n),
        )

    def snapshot(self) -> dict:
        """Copies of the accumulators, to difference across a round."""
        return {"self": Counter(self.self_time), "calls": Counter(self.calls),
                "nested": Counter(self.nested), "counts": Counter(self.counts)}


def _evaluate_before(tracer: Tracer, args):
    parent = tracer.parent_name().rpartition(".")[2]
    if parent in LIMIT_FORMS:
        tracer.counts["quotient_fevals"] += 1
    elif parent == "gl_jumarie_derivative" and not isinstance(args[1], np.ndarray):
        tracer.counts["gl_scalar_nodes"] += 1
    return args


def _gl_weights_after(tracer: Tracer, weights) -> None:
    tracer.counts["gl_chain_nodes"] += len(weights)


def _ode_before(tracer: Tracer, args):
    rhs = args[0]

    def counted(x, y):
        tracer.counts["rhs_evals"] += 1
        return rhs(x, y)

    return (counted,) + tuple(args[1:])


def _ode_after(tracer: Tracer, solution) -> None:
    tracer.counts["steps_accepted"] += solution.n_accepted
    tracer.counts["steps_rejected"] += solution.n_rejected


def layer_metrics(delta: dict) -> dict:
    """Per-layer values from the difference of two snapshots (one round)."""
    s, c, nested, k = delta["self"], delta["calls"], delta["nested"], delta["counts"]

    def total(counter, module, names=None):
        return sum(v for key, v in counter.items()
                   if key.startswith(module + ".") and (names is None or key.split(".")[1] in names))

    nodes = k["gl_chain_nodes"]
    steps = k["steps_accepted"] + k["steps_rejected"]
    ml = ("mittag_leffler", "mittag_leffler_array")
    other_special = ("gen_binomial", "stretched_exp", "balankin_exp")
    solves = ("solve_q_eigen", "solve_hausdorff_eigen")
    return {
        "cli.self_s": s["cli.main"],
        "function_catalog.parse_s": s["function_catalog.parse"],
        "function_catalog.parse_calls": c["function_catalog.parse"],
        "function_catalog.differentiate_s": s["function_catalog.differentiate"],
        "function_catalog.evaluate_s": s["function_catalog.evaluate"],
        "function_catalog.evaluate_calls": c["function_catalog.evaluate"],
        "function_catalog.node_visits": c["function_catalog.evaluate"] + nested["function_catalog.evaluate"],
        "derivative_ops.closed_form_s": total(s, "derivative_ops", CLOSED_FORMS),
        "derivative_ops.closed_form_calls": total(c, "derivative_ops", CLOSED_FORMS),
        "derivative_ops.quotient_s": total(s, "derivative_ops", LIMIT_FORMS),
        "derivative_ops.quotient_fevals": k["quotient_fevals"],
        "derivative_ops.dispatch_s": s["derivative_ops.evaluate_kind"],
        "derivative_ops.gl_chain_s": s["derivative_ops.gl_jumarie_derivative"],
        "derivative_ops.gl_chain_nodes": nodes,
        "derivative_ops.gl_weights_s": s["derivative_ops.gl_weights"],
        "derivative_ops.gl_vector_frac": (nodes - k["gl_scalar_nodes"]) / nodes if nodes else 0.0,
        "special_functions.ml_s": total(s, "special_functions", ml),
        "special_functions.ml_calls": total(c, "special_functions", ml),
        "special_functions.gamma_s": s["special_functions.gamma"],
        "special_functions.gamma_calls": c["special_functions.gamma"],
        "special_functions.other_s": total(s, "special_functions", other_special),
        "eigen_solvers.integrate_ode_s": s["eigen_solvers.integrate_ode"],
        "eigen_solvers.steps_accepted": k["steps_accepted"],
        "eigen_solvers.steps_rejected": k["steps_rejected"],
        "eigen_solvers.accept_frac": k["steps_accepted"] / steps if steps else 0.0,
        "eigen_solvers.rhs_evals": k["rhs_evals"],
        "eigen_solvers.verify_fractional_s": s["eigen_solvers.verify_fractional_eigen"],
        "eigen_solvers.solve_s": total(s, "eigen_solvers", solves),
        "deformed_algebra.s": total(s, "deformed_algebra"),
        "deformed_algebra.calls": total(c, "deformed_algebra"),
        "mappings.s": total(s, "mappings"),
        "selftest.s": total(s, "selftest"),
    }

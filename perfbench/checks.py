"""Independent checks of defcalc's CLI output.

Nothing here calls defcalc.  References come from the benchmark's own
expression trees (complex-step derivatives), longdouble chain sums, exact
closed forms, and, in the deferred checks, mpmath at 80 digits.
The harness imports mpmath only for the deferred checks, after it
has read the peak memory of the process.

Every check raises :class:`Mismatch` with a one-line reason; README.md states
each tolerance and the error bound it comes from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import exprs

EPS = np.finfo(float).eps
H0, LEVELS = 1e-2, 4  # the CLI's default --base-step and --levels
STEPS = [H0 * 0.5**j for j in range(LEVELS + 1)]
ML_RTOL = 1e-9
ODE_MAX_STEPS = 10_000
DOUBLE_MAX = float(np.finfo(float).max)


class Mismatch(Exception):
    """An output that disagrees with the independent computation."""


@dataclass(frozen=True)
class Result:
    rc: int
    out: str
    err: str


# --- output parsing -----------------------------------------------------------


def table(res: Result, fmt: str, header: tuple[str, ...]) -> np.ndarray:
    """Rows of a CSV or JSON table as a float array; checks exit code and header."""
    if res.rc != 0:
        raise Mismatch(f"exit {res.rc}: {res.err.strip()[:120]}")
    if fmt == "json":
        try:
            rows = json.loads(res.out)["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise Mismatch(f"unreadable JSON: {exc}") from None
        if any(tuple(r) != header for r in rows):
            raise Mismatch("JSON row keys differ from the header")
        data = np.array([[float(r[k]) for k in header] for r in rows], dtype=float)
    else:
        lines = res.out.split("\n")
        if lines[0] != ",".join(header) or lines[-1] != "":
            raise Mismatch(f"bad CSV header or ending: {lines[0]!r}")
        try:
            data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]], dtype=float)
        except ValueError as exc:
            raise Mismatch(f"unreadable CSV value: {exc}") from None
    data = data.reshape(-1, len(header))
    if not np.all(np.isfinite(data)):
        raise Mismatch("non-finite value with exit 0")
    return data


def row_count(res: Result, fmt: str) -> int:
    """Table rows in stdout; for selftest, check lines."""
    if res.rc != 0 or not res.out:
        return 0
    if fmt == "selftest":
        return res.out.count("\n") - 1
    if fmt == "json":
        return res.out.count("\n    {")
    return res.out.count("\n") - 1


def exact_grid(xs: np.ndarray, grid: tuple[float, float, int]) -> None:
    want = np.linspace(*grid)
    if xs.shape != want.shape:
        raise Mismatch(f"{xs.size} rows, want {want.size}")
    if not np.array_equal(xs, want):
        i = int(np.argmax(xs != want))
        raise Mismatch(f"x[{i}] = {xs[i]!r} is not linspace value {want[i]!r}")


def within(got, ref, tol, what: str) -> None:
    got, ref, tol = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (got, ref, tol)))
    bad = ~(np.abs(got - ref) <= tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise Mismatch(
            f"{what}: row {i} got {got.flat[i]!r}, want {ref.flat[i]!r} within {tol.flat[i]:.2e}"
        )


# --- closed and limit forms of the local operators ----------------------------

_RICH_P = {"q_quotient": 1, "hausdorff_quotient": 1, "conformable": 1, "classical": 2}


def _richardson(vals: list[float], p: int) -> float:
    # Extrapolation on steps H0 * 2^-j assuming error powers p, 2p, ...
    vals = list(vals)
    n = len(vals)
    for j in range(1, n):
        factor = 2.0 ** (p * j)
        for k in range(n - 1, j - 1, -1):
            vals[k] = (factor * vals[k] - vals[k - 1]) / (factor - 1.0)
    return vals[-1]


def _richardson_weights(p: int) -> np.ndarray:
    return np.array([_richardson(list(e), p) for e in np.eye(LEVELS + 1)])


def _residual_constants(p: int, m_max: int = 60) -> np.ndarray:
    # c_m: what the tableau leaves of an error term a h^m (h = H0 at m = 1).
    c = np.array([_richardson([(s / H0) ** m for s in STEPS], p) for m in range(1, m_max + 1)])
    if p == 2:
        c[0::2] = 0.0  # central differences carry even powers of h only
    return c


_WEIGHTS = {p: _richardson_weights(p) for p in (1, 2)}
_RESIDUAL = {p: _residual_constants(p) for p in (1, 2)}


def prefactor(op: str, prm: dict, x: np.ndarray) -> np.ndarray:
    if op == "q":
        return 1.0 + (1.0 - prm["q"]) * x
    if op == "kappa":
        return np.sqrt(1.0 + prm["kappa"] ** 2 * x * x)
    if op == "hausdorff":
        return (x / prm.get("l0", 1.0) + 1.0) ** (1.0 - prm["zeta"])
    if op == "yang":
        return math.gamma(prm["alpha"] + 1.0) * (x / prm.get("l0", 1.0) + 1.0) ** (1.0 - prm["alpha"])
    if op == "hausdorff_quotient":
        return x ** (1.0 - prm["zeta"]) / prm["zeta"]
    if op == "conformable":
        return x ** (1.0 - prm["alpha"])
    return np.ones_like(x)  # classical, q_quotient handled by its own prefactor


def _quotient(op: str, prm: dict, tree, x, h):
    """The limit form's difference quotient Q(h) and its denominator, for
    real or complex h; Q(h) -> the operator value as h -> 0."""
    f = lambda u: exprs.evaluate(tree, u)  # noqa: E731
    if op == "q_quotient":
        den = h / (1.0 + (1.0 - prm["q"]) * (x - h))
        return (f(x + 0 * h) - f(x - h)) / den, den
    if op == "hausdorff_quotient":
        z = prm["zeta"]
        den = (x + h) ** z - x**z
        return (f(x + h) - f(x + 0 * h)) / den, den
    if op == "conformable":
        scale = x ** (1.0 - prm["alpha"])
        return (f(x + h * scale) - f(x + 0 * h)) / h, h
    den = 2.0 * h  # classical central difference
    return (f(x + h) - f(x - h)) / den, den


def operator_reference(op: str, prm: dict, tree, xs: np.ndarray):
    """Reference values and tolerances for ``deriv --op ...`` on a grid.

    Closed forms: prefactor times the complex-step f', with a rounding bound
    of a few eps per node of f' times the largest node magnitude.  Limit
    forms: the same reference plus the Richardson truncation bound from
    Cauchy's estimate of the quotient's Taylor coefficients on a circle of
    radius rho in the step, plus the rounding of f divided by each probe's
    denominator and weighted by the tableau.
    """
    pre = op if op != "q_quotient" else "q"
    ref_pre = prefactor(pre, prm, xs)
    ref = ref_pre * exprs.derivative(tree, xs)
    size = exprs.nodes(tree)
    mag = exprs.magnitude(tree, xs)
    f_round = 8.0 * size * EPS * mag  # |error| of one evaluation of f or f'
    tol = 8.0 * EPS * np.abs(ref) + 2.0 * np.abs(ref_pre) * f_round
    if op not in _RICH_P:
        return ref, tol
    p = _RICH_P[op]
    rho_x = np.minimum(0.1, 0.5 * xs) if op == "hausdorff_quotient" else np.full_like(xs, 0.1)
    rho = rho_x / xs ** (1.0 - prm["alpha"]) if op == "conformable" else rho_x
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    todo = np.ones(xs.shape, dtype=bool)
    spread = np.empty_like(xs)
    # Cauchy's estimate holds on any circle where Q is analytic.  Where nested
    # exp/sin/cos overflow on the circle, halve its radius, at most three times.
    for halvings in range(4):
        rho[todo] *= 0.5 ** min(halvings, 1)
        with np.errstate(all="ignore"):
            qc, _ = _quotient(op, prm, tree, xs[todo, None] + 0j, rho[todo, None] * ring[None, :])
        spread[todo] = np.max(np.abs(qc - ref[todo, None]), axis=1)
        todo = ~np.isfinite(spread)
        if not todo.any():
            break
    powers = (H0 / rho)[:, None] ** np.arange(1, _RESIDUAL[p].size + 1)[None, :]
    trunc = 2.0 * spread * (powers @ np.abs(_RESIDUAL[p]))
    rounding = np.zeros_like(xs)
    for w, h in zip(_WEIGHTS[p], STEPS):
        _, den = _quotient(op, prm, tree, xs, np.full_like(xs, h))
        rounding += abs(w) * (2.0 * f_round / np.abs(den) + 8.0 * EPS * (np.abs(ref) + spread))
    return ref, tol + trunc + rounding


# --- Grunwald-Letnikov chain --------------------------------------------------


def chain_length(x: float, h: float) -> int:
    """floor(x/h), except that x on the h-lattice up to round-off counts the
    origin node: the chain is anchored at 0."""
    r = x / h
    n = round(r)
    return int(n) if abs(r - n) <= 1e-9 * max(1.0, r) else int(math.floor(r))


def gl_reference(f, alpha: float, h: float, xs: np.ndarray, f_err):
    """Exact-chain reference h^-a sum_k (-1)^k C(a,k) f(x - kh) in longdouble.

    ``f`` maps a longdouble array of nodes to values.  The tolerance is the
    worst-case rounding of a float64 dot product of length n + 1 with weights
    built by the ratio recurrence (k eps each), plus ``f_err(values)``, the
    error of the library's own evaluation of f at each node, weighted by |w_k|.
    """
    refs, tols = [], []
    for x in xs:
        n = chain_length(float(x), h)
        k = np.arange(n + 1, dtype=np.longdouble)
        ratios = np.concatenate(([np.longdouble(1)], (k[1:] - 1 - np.longdouble(alpha)) / k[1:]))
        w = np.cumprod(ratios)
        fv = f(np.maximum(np.longdouble(x) - np.longdouble(h) * k, 0))
        scale = np.longdouble(h) ** -np.longdouble(alpha)
        refs.append(float(scale * np.sum(w * fv)))
        absum = float(scale * np.sum(np.abs(w * fv)))
        f_part = float(scale * np.sum(np.abs(w) * f_err(fv)))
        tols.append(2.0 * (n + 8) * EPS * absum + f_part)
    return np.array(refs), np.array(tols)


def power_rule(c: float, g: float, alpha: float, h: float, xs: np.ndarray):
    """c x^g under the GL chain: Gamma(g+1) x^(g-a) / Gamma(g-a+1), and the
    first-order bound (a h / 2) |D^(a+1) f| doubled, plus an h^2 term."""
    def rgamma(v: float) -> float:
        return 0.0 if v <= 0.0 and v == round(v) else 1.0 / math.gamma(v)

    top = c * math.gamma(g + 1.0)
    ref = top * rgamma(g - alpha + 1.0) * xs ** (g - alpha)
    d1 = abs(top * rgamma(g - alpha)) * xs ** (g - alpha - 1.0)
    d2 = abs(top * rgamma(g - alpha - 1.0)) * xs ** (g - alpha - 2.0)
    return ref, alpha * h * d1 + h * h * d2


def ml_series_longdouble(alpha: float, z: np.ndarray) -> np.ndarray:
    """E_alpha(z) for z >= 0 (no cancellation) by the power series in longdouble."""
    z = np.asarray(z, dtype=np.longdouble)
    total = np.ones_like(z)
    term = np.ones_like(z)
    k = 1
    while True:
        coef = np.longdouble(math.exp(math.lgamma(alpha * (k - 1) + 1.0) - math.lgamma(alpha * k + 1.0)))
        term = term * z * coef
        total = total + term
        if k > 5 and np.all(term <= 1e-21 * total):
            return total
        k += 1


# --- eigen-equation ODEs ------------------------------------------------------


def q_exp_exact(q: float, x: np.ndarray) -> np.ndarray:
    return np.exp(np.log1p((1.0 - q) * x) / (1.0 - q))


def balankin_exact(zeta: float, l0: float, x: np.ndarray) -> np.ndarray:
    return np.exp((l0 / zeta) * (x / l0 + 1.0) ** zeta)


def ode_rows(res: Result, fmt: str, grid, exact, cond, tol: float, growth_power: float):
    """Checks a ``solve --problem q|hausdorff`` table against the exact eigenfunction.

    Closed-form column: 16 eps times the condition number ``cond`` of the
    closed form (1 + |log y| + amplification of the rounded base).  Integrated column:
    every accepted step has error estimate <= tol; the global error is at
    most the number of accepted steps (below ODE_MAX_STEPS) times tol times
    the growth of a perturbation, (max y / min y)^growth_power.
    """
    data = table(res, fmt, ("x", "value", "closed_form", "residual"))
    exact_grid(data[:, 0], grid)
    within(data[:, 2], exact, 16.0 * EPS * cond * exact, "closed_form")
    growth = (np.max(exact) / np.min(exact)) ** growth_power
    within(data[:, 1], exact, ODE_MAX_STEPS * tol * growth * np.maximum(exact, 1.0), "value")
    residual_column(data)
    stderr_residual(res, data[:, 3])
    return data


def residual_column(data: np.ndarray) -> None:
    want = np.abs(data[:, 1] - data[:, 2]) / np.abs(data[:, 2])
    within(data[:, 3], want, 2.0 * EPS * want, "residual")


def stderr_residual(res: Result, residual: np.ndarray) -> None:
    want = f"max_rel_residual = {float(np.max(residual)):.3e}"
    if want not in res.err:
        raise Mismatch(f"stderr does not report {want}")


# --- deferred checks (mpmath) -------------------------------------------------


def series_peak(alpha: float, r: float) -> tuple[float, int]:
    """log10 and index of the largest term r^k / Gamma(alpha k + 1)."""
    best, best_k, k = 0.0, 0, 1
    while r > 0.0:
        v = (k * math.log(r) - math.lgamma(alpha * k + 1.0)) / math.log(10.0)
        if v > best:
            best, best_k = v, k
        if v < best - 30.0:
            break
        k += 1
    return best, best_k


def ml_reference(alpha: float, zs, mp) -> np.ndarray:
    """E_alpha(z) at 80 digits by the power series, with the working precision
    raised past the largest term so that the alternating sum loses nothing.
    Where a closed form exists the series must agree with it to 60 digits."""
    peaks = [series_peak(alpha, abs(float(z))) for z in zs]
    coefs: list = []
    out = []
    with mp.workdps(90 + int(max(p for p, _ in peaks))):
        a, tiny = mp.mpf(alpha), mp.mpf(10) ** -90
        for z, (_, peak_k) in zip(zs, peaks):
            zm = mp.mpf(float(z))
            total, power, k = mp.mpf(0), mp.mpf(1), 0
            while True:
                if k == len(coefs):
                    coefs.append(mp.rgamma(a * k + 1))
                term = power * coefs[k]
                total += term
                if k > max(peak_k, 10) and abs(term) < tiny * max(abs(total), 1):
                    break
                power *= zm
                k += 1
            closed = ml_closed_form(alpha, float(z), mp)
            if closed is not None and abs(closed - total) > mp.mpf(10) ** -60 * max(1, abs(total)):
                raise Mismatch(f"reference series and closed form disagree at z = {z}")
            out.append(float(total))
    return np.array(out)


def ml_closed_form(alpha: float, z: float, mp):
    """E_1 = exp, E_2(x^2) = cosh x, E_2(-x^2) = cos x, E_1/2(z) = exp(z^2) erfc(-z)."""
    z = mp.mpf(z)
    if alpha == 1.0:
        return mp.exp(z)
    if alpha == 2.0:
        return mp.cosh(mp.sqrt(z)) if z >= 0 else mp.cos(mp.sqrt(-z))
    if alpha == 0.5:
        return mp.exp(z * z) * mp.erfc(-z)
    return None


def check_ml(res: Result, alpha: float, zs: np.ndarray, mp) -> None:
    """Values within ML_RTOL * max(|E|, 1) of the 80-digit series, which must
    itself match the closed form where one exists.  Where E_alpha(z) lies
    beyond the double range (z > 0, so every term is positive and the largest
    term already exceeds it) the CLI must exit 3 with a message naming the
    overflow."""
    if any(z > 0 and series_peak(alpha, z)[0] > math.log10(DOUBLE_MAX) for z in zs):
        if res.rc != 3 or "overflow" not in res.err.lower():
            raise Mismatch(
                f"E_{alpha} overflows double at some z; want exit 3 naming the overflow, "
                f"got exit {res.rc}: {(res.out + res.err).strip()[-80:]!r}"
            )
        return
    ref = ml_reference(alpha, zs, mp)
    data = table(res, "csv", ("x", "value"))
    if not np.array_equal(data[:, 0], zs):
        raise Mismatch("z column differs from the requested points")
    within(data[:, 1], ref, ML_RTOL * np.maximum(np.abs(ref), 1.0), "E_alpha")


def binom_scaled(a: float, k: int, base: float, power: int, mp) -> float:
    """C(a, k) base^power at 80 digits, rounded once to double.  (scipy's
    binom is no reference here: for k >= 8 it is off by about 1.6e-14
    relative at a = 0.056.)"""
    with mp.workdps(80):
        return float(mp.binomial(mp.mpf(a), k) * mp.mpf(base) ** power)

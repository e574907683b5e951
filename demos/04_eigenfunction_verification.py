"""Eigenfunction claims, verified numerically two independent ways.

Each deformed eigen-equation D y = y is recast as an ordinary ODE and
integrated with an adaptive embedded Runge-Kutta pair; the trajectory is
compared against the closed-form eigenfunction on a grid.  The fractional
eigen-equation has no ODE form, so there the Grunwald-Letnikov chain is
applied to the sampled Mittag-Leffler function instead.
"""

from defcalc import (
    HausdorffParams,
    solve_hausdorff_eigen,
    solve_q_eigen,
    verify_fractional_eigen,
)

print("[1 + (1-q) x] y' = y from y(0) = 1 against the q-exponential")
for q in (0.5, 1.0, 1.2):  # support of q=1.2 ends at x = 5, safely past the grid
    report = solve_q_eigen(q, (0.0, 2.0), 101, tol=1e-10)
    print(f"  q={q}: max rel residual {report.max_rel_residual:.2e}, rms {report.rms_rel_residual:.2e}")
print()

print("(x/l0+1)^(1-zeta) y' = y against the fractal-metric exponential")
for zeta, l0 in ((0.5, 1.0), (0.4, 2.0), (0.9, 2.0)):
    report = solve_hausdorff_eigen(HausdorffParams(zeta, l0), (0.0, 2.0), 101, tol=1e-10)
    print(f"  zeta={zeta}, l0={l0}: max rel residual {report.max_rel_residual:.2e}")
print()

print("fractional eigen-equation: GL chain applied to E_alpha(x^alpha)")
print("(first-order in the chain step h; the Caputo convention subtracts y(0))")
for h in (4e-3, 2e-3, 1e-3):
    report = verify_fractional_eigen(0.5, (0.2, 2.0), 46, h=h)
    print(f"  h={h:.0e}: max rel residual {report.max_rel_residual:.3e}")
print()

report = solve_q_eigen(2.0, (0.0, 0.9), 21, tol=1e-10)
print("sample rows (q=2, solution 1/(1-x), domain stops before the pole):")
print(f"{'x':>6} {'integrated':>14} {'closed form':>14}")
for x, y_num, y_closed in report.table[::5, :3].tolist():
    print(f"{x:6.3f} {y_num:14.9f} {y_closed:14.9f}")

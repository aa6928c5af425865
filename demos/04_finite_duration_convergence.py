"""
Finite interaction windows and their asymptotics
================================================

The closed-form state assembly assumes a long Gaussian interaction
window.  How long is long?  This script evaluates the finite-duration
scalar product by direct quadrature — an oracle sharing no code with
the closed forms — and watches it converge to the asymptotic value at
first order in the inverse sharpness.
"""

from superthermal import Trajectory, convergence_report, overlap_diagnostics

# ---------------------------------------------------------------------------
# 1. Convergence of the norm
#
# For a single level omega on one worldline, the finite-window norm
# approaches (T/2pi) * omega/(e^{2 pi omega z} - 1).  The sharpness
# parameter M = 2 omega^2 T^2 controls the error: first-order decay
# means slope -1 in log-log.

report = convergence_report(omega=1.0, z=1.0, T_list=(10.0, 20.0, 40.0, 80.0))
print("finite-window norm against its asymptotic value:")
print(f"  {'T':>5} {'M':>9} {'oracle':>14} {'asymptotic':>14} {'rel_error':>11}")
for row in report.rows:
    print(
        f"  {row.T:>5.0f} {row.M:>9.0f} {row.oracle:>14.8e}"
        f" {row.asymptotic:>14.8e} {row.rel_error:>11.4e}"
    )
print(f"fitted log-log slope: {report.slope:.3f}  (first-order decay: -1)")

# ---------------------------------------------------------------------------
# 2. What the Gaussian bookkeeping looks like for an off-diagonal pair
#
# A cross-branch, cross-level product carries a suppression factor
# exp(-C) with C growing as T^2 unless the boost energies align.  The
# diagnostics expose C, the sharpness, and the effective width.

diag = overlap_diagnostics(2.0, Trajectory(z=0.5), 1.0, Trajectory(z=1.0), T=40.0)
print("\naligned pair (omega=2 at z=0.5 | omega=1 at z=1):")
print(f"  suppression C = {diag.suppression:.3e}   sharpness M = {diag.sharpness:.1f}")

diag = overlap_diagnostics(2.02, Trajectory(z=0.5), 1.0, Trajectory(z=1.0), T=40.0)
print("misaligned by 1% (omega=2.02):")
print(f"  suppression C = {diag.suppression:.3f}  ->  e^-C = {2.718281828459045 ** -diag.suppression:.2e}")

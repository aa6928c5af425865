"""
The branch-overlap factor
=========================

Two single-excitation field states built on different accelerated
worldlines are not orthogonal: at equal boost energy q their scalar
product carries a geometric factor Lambda(q, d_xi, d_xbar) in [-1, 1]
depending only on the boost-angle and transverse separations.  This
script maps that factor out: its closed form, its on-axis shapes, its
decay, and the independent quadrature it is checked against.
"""

import numpy as np

from superthermal import (
    lambda_axis_xbar,
    lambda_axis_xi,
    lambda_overlap,
    oracle_lambda_quadrature,
)

# ---------------------------------------------------------------------------
# 1. A small map of the factor
#
# At the origin both branches coincide and Lambda = 1; separations in
# either direction suppress the overlap, with sign oscillations at
# larger boost-energy q.

print("Lambda(q, d_xi, d_xbar):")
xi_values = (0.0, 0.5, 1.0, 2.0)
xbar_values = (0.0, 1.0, 2.0, 4.0)
for q in (0.5, 2.0):
    print(f"\n  q = {q}")
    header = "   d_xi \\ d_xbar" + "".join(f"{b:>10}" for b in xbar_values)
    print(header)
    for dxi in xi_values:
        row = "".join(
            f"{float(lambda_overlap(q, dxi, dxb)):>10.5f}" for dxb in xbar_values
        )
        print(f"  {dxi:>13}  {row}")

# ---------------------------------------------------------------------------
# 2. The two on-axis closed forms
#
# Along each axis the general expression collapses to a simpler shape:
# sech/sinc along the boost direction, sin(q g)/(q sinh g) with
# g = 2 arcsinh(d_xbar/2) along the transverse direction.  Both must agree
# with the general formula.

q = 1.5
xi = np.linspace(-2.0, 2.0, 5)
xbar = np.linspace(0.0, 4.0, 5)
print("\non-axis versus general formula (should be identical):")
print("  d_xi axis:   max |diff| =", float(np.max(np.abs(lambda_axis_xi(q, xi) - lambda_overlap(q, xi, 0.0)))))
print("  d_xbar axis: max |diff| =", float(np.max(np.abs(lambda_axis_xbar(q, xbar) - lambda_overlap(q, 0.0, xbar)))))

# ---------------------------------------------------------------------------
# 3. Basic structure: normalization, bound, parity
#
# |Lambda| <= 1 with equality only at coincidence, and the factor is
# even in the boost-angle separation (swapping the two branches).

grid = lambda_overlap(2.0, xi[:, None], xbar[None, :])
print("\nstructure checks:")
print(f"  Lambda(q, 0, 0) = {float(lambda_overlap(2.0, 0.0, 0.0)):.12f}")
print(f"  max |Lambda| over the grid = {float(np.max(np.abs(grid))):.6f}")
print(f"  even in d_xi: Lambda(2, +1, 1) - Lambda(2, -1, 1) = {float(lambda_overlap(2.0, 1.0, 1.0) - lambda_overlap(2.0, -1.0, 1.0)):.3e}")

# ---------------------------------------------------------------------------
# 4. The independent cross-check
#
# The closed form is validated against a direct oscillatory quadrature
# (a Hankel-transform representation evaluated adaptively).  The two
# share no code, so agreement pins both.

dxi, dxbars = 0.7, np.array([0.0, 1.5, 3.0])
closed = lambda_overlap(2.0, dxi, dxbars)
quad = oracle_lambda_quadrature(2.0, dxi, dxbars)
print("\nclosed form vs quadrature at q = 2, d_xi = 0.7:")
for b, c, g in zip(dxbars, closed, quad):
    print(f"  d_xbar = {b:3.1f}:  {c:+.12f}  vs  {g:+.12f}   diff = {abs(c - g):.2e}")

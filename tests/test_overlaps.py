"""Field-state scalar products and their independent quadrature oracles.

Frozen literals come from mpmath (``tests/oracles.py``): closed formulas
at 40 digits, the k-bar integral at 25 digits.
"""

import math
import time

import numpy as np
import pytest

from superthermal.geometry import Trajectory
from superthermal.overlaps import (
    OverlapResult,
    QuadratureError,
    _converged,
    _lambda_quadrature,
    _overlap_finite_t,
    convergence_report,
    diag_overlap,
    offdiag_overlap,
    oracle_lambda_quadrature,
    oracle_overlap_finite_t,
    overlap_diagnostics,
)
from superthermal.specfun import lambda_overlap

# (omega, z, T, value) — mpmath (T / 2 pi) omega / (e^{2 pi omega z} - 1)
DIAG_REFERENCE = [
    (1.0, 1.0, 2.0 * math.pi, 0.001870936598660644100776),
    (1.0, 0.5, 100.0, 0.7188345266862457254853),
    (2.5, 0.8, 40.0, 0.00005550297098230145033579),
]

# mpmath assembly for omega_i=2 at z=0.5 vs omega_j=1 at z=1 with
# transverse offset (0.3, 0.4) on the higher branch, T=60
ALIGNED_DXBAR = 0.7905694150420948329997
ALIGNED_VALUE = 0.01658654484725024083133

# mpmath tanh-sinh evaluation of the k-bar integral at (1, 0.4, 1.2),
# 25 digits; equals the closed form to all printed digits
KBAR_QUAD_REFERENCE = 0.61463485497864431

# q^2 F''(q)/(4 F(q)) at q=1 for F(v) = pi v / (e^{2 pi v} - 1): the
# leading 1/M coefficient of the finite-duration diagonal deviation
DIAG_DEVIATION_C1 = 6.777599334291417287204


def test_diag_overlap_reference_values():
    for omega, z, T, want in DIAG_REFERENCE:
        assert diag_overlap(omega, z, T) == pytest.approx(want, rel=1e-14)


def test_diag_overlap_linear_in_T_and_validation():
    assert diag_overlap(1.0, 1.0, 80.0) == pytest.approx(
        8.0 * diag_overlap(1.0, 1.0, 10.0), rel=1e-15
    )
    for bad in [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            diag_overlap(*bad)


def _aligned_pair():
    traj_n = Trajectory(z=0.5)
    traj_m = Trajectory(z=1.0, x_perp=(0.3, 0.4))
    return 2.0, traj_n, 1.0, traj_m


def test_offdiag_overlap_aligned_value():
    omega_i, traj_n, omega_j, traj_m = _aligned_pair()
    res = offdiag_overlap(omega_i, traj_n, omega_j, traj_m, T=60.0, tol=1e-12)
    assert res.condition_met
    assert res.q == pytest.approx(1.0, abs=1e-15)
    assert res.value.imag == 0.0
    assert res.value.real == pytest.approx(ALIGNED_VALUE, rel=1e-13)


def test_offdiag_overlap_is_geometric_mean_times_lambda():
    omega_i, traj_n, omega_j, traj_m = _aligned_pair()
    T = 37.5
    res = offdiag_overlap(omega_i, traj_n, omega_j, traj_m, T=T, tol=1e-12)
    lam = lambda_overlap(1.0, math.log(2.0), ALIGNED_DXBAR)
    expected = math.sqrt(
        diag_overlap(omega_i, traj_n.z, T) * diag_overlap(omega_j, traj_m.z, T)
    ) * lam
    assert res.value.real == pytest.approx(expected, rel=1e-13)


def test_offdiag_overlap_swap_symmetry():
    omega_i, traj_n, omega_j, traj_m = _aligned_pair()
    a = offdiag_overlap(omega_i, traj_n, omega_j, traj_m, T=60.0, tol=1e-12)
    b = offdiag_overlap(omega_j, traj_m, omega_i, traj_n, T=60.0, tol=1e-12)
    assert a.value == np.conj(b.value)
    assert a.q == b.q


def test_offdiag_overlap_condition_gate():
    traj_n = Trajectory(z=0.5)
    traj_m = Trajectory(z=1.0)
    missed = offdiag_overlap(2.1, traj_n, 1.0, traj_m, T=60.0, tol=1e-6)
    assert not missed.condition_met
    assert missed.value == 0j
    assert missed.q is None
    # loose tolerance admits the same pair
    admitted = offdiag_overlap(2.1, traj_n, 1.0, traj_m, T=60.0, tol=0.1)
    assert admitted.condition_met
    with pytest.raises(ValueError):
        offdiag_overlap(2.0, traj_n, 1.0, traj_m, T=60.0, tol=0.0)
    with pytest.raises(ValueError):
        offdiag_overlap(2.0, traj_n, 1.0, traj_m, T=-1.0, tol=1e-9)


def test_overlap_result_invariant():
    with pytest.raises(ValueError):
        OverlapResult(value=1.0 + 0j, condition_met=False)
    ok = OverlapResult(value=0j, condition_met=False)
    assert ok.value == 0j


def test_overlap_diagnostics_fields():
    omega_i, traj_n, omega_j, traj_m = _aligned_pair()
    T = 40.0
    diag = overlap_diagnostics(omega_i, traj_n, omega_j, traj_m, T)
    zz = traj_m.z**2 + traj_n.z**2
    assert diag.q_row == pytest.approx(omega_j * traj_m.z, rel=1e-15)
    assert diag.q_col == pytest.approx(omega_i * traj_n.z, rel=1e-15)
    assert diag.suppression == pytest.approx(
        (diag.q_row - diag.q_col) ** 2 * T * T / zz, abs=1e-18
    )
    assert diag.sharpness == pytest.approx(
        (omega_i * traj_m.z + omega_j * traj_n.z) ** 2 * T * T / zz, rel=1e-15
    )
    assert diag.width == pytest.approx(diag.omega_bar / math.sqrt(2 * diag.sharpness), rel=1e-15)
    # the auxiliary frequency scale is linear in a; the exponents are not
    scaled = overlap_diagnostics(omega_i, traj_n, omega_j, traj_m, T, a=2.0)
    assert scaled.omega_bar == pytest.approx(2.0 * diag.omega_bar, rel=1e-15)
    assert scaled.suppression == diag.suppression
    assert scaled.sharpness == diag.sharpness


def test_lambda_quadrature_matches_mpmath_and_closed_form():
    got = oracle_lambda_quadrature(1.0, 0.4, 1.2)
    assert got == pytest.approx(KBAR_QUAD_REFERENCE, abs=2e-9)
    closed = float(lambda_overlap(1.0, 0.4, 1.2))
    assert got == pytest.approx(closed, abs=2e-8)


def test_lambda_quadrature_vector_and_q_zero():
    dxbar = np.array([0.0, 1.0, 2.5])
    got = oracle_lambda_quadrature(0.0, 0.7, dxbar)
    want = lambda_overlap(0.0, 0.7, dxbar)
    assert np.max(np.abs(got - want)) < 2e-8
    with pytest.raises(ValueError):
        oracle_lambda_quadrature(250.0, 0.0, 0.0)  # sinh(pi q) overflows


def test_lambda_quadrature_caps_its_grid():
    # J_0 oscillates at the rate dxbar, so the k grid grows linearly in it;
    # past the cap both oracles share, the call fails fast, naming dxbar.
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="dxbar = 10000 needs more than"):
        oracle_lambda_quadrature(1.0, 0.0, 1e4)
    assert time.perf_counter() - start < 2.0


def test_oracles_return_their_targets_from_one_convergence_check():
    values, change, target = _lambda_quadrature(1.0, 0.4, [0.0, 1.2])
    assert np.array_equal(values, oracle_lambda_quadrature(1.0, 0.4, [0.0, 1.2]))
    assert target == 1e-8 and 0.0 <= change <= target
    traj = Trajectory(z=1.0)
    value, change, target = _overlap_finite_t(1.0, traj, 1.0, traj, 20.0, 1.0)
    assert value == oracle_overlap_finite_t(1.0, traj, 1.0, traj, 20.0)
    assert target == 1e-10 * 20.0 and 0.0 < change <= target
    # a suppressed pair keeps its target
    assert _overlap_finite_t(3.0, traj, 1.0, traj, 200.0, 1.0) == (0.0, 0.0, 1e-10 * 200.0)
    assert convergence_report(1.0, 1.0, 1.0, [10.0]).rows[0].target == 1e-10 * 10.0

    # The refined pass runs first with the K series bound, the base pass
    # without; their difference plus the bound is held to the target.
    calls = []

    def one_pass(refine, bound):
        calls.append((refine, bound))
        return np.array([1.0, 1.0 + refine * 1e-8]), (np.full(2, 1e-9) if bound else None)

    fine, change, target = _converged(one_pass, 1e-8, "test")
    assert np.array_equal(fine, [1.0, 1.0 + 1.5e-8])
    assert change == pytest.approx(6e-9) and target == 1e-8
    assert calls == [(1.5, True), (1.0, False)]
    with pytest.raises(QuadratureError, match="test did not converge: .* by 6.000e-09 "):
        _converged(one_pass, 5e-9, "test")


@pytest.mark.parametrize("dxi", [-1.5, 0.0, 1.5])
def test_lambda_quadrature_change_bounds_its_error_at_q_zero(dxi):
    # At q = 0, K_0^2 grows like log^2 k, so the piece of the integral
    # below the base pass's k-bar floor is the largest error; the refined
    # pass starts lower, and its reported change must cover that error.
    # (At q >= 1 the residual is rounding, which the change need not cover.)
    dxbar = np.array([0.0, 1.0, 2.5])
    values, change, _ = _lambda_quadrature(0.0, dxi, dxbar)
    error = float(np.max(np.abs(values - lambda_overlap(0.0, dxi, dxbar))))
    assert error <= change <= 1e-8


def test_lambda_quadrature_even_in_dxi():
    # dxi -> -dxi swaps the two Bessel arguments s_+ and s_-
    dxbar = np.array([0.0, 1.0, 2.5])
    for q in (0.0, 2.0, 10.0):
        plus = oracle_lambda_quadrature(q, 1.5, dxbar)
        minus = oracle_lambda_quadrature(q, -1.5, dxbar)
        assert np.max(np.abs(plus - minus)) <= 1e-12, q


def test_finite_t_oracle_approaches_diag_with_1_over_M():
    T = 50.0
    traj = Trajectory(z=1.0)
    got = oracle_overlap_finite_t(1.0, traj, 1.0, traj, T)
    assert got.imag == 0.0
    asymptotic = diag_overlap(1.0, 1.0, T)
    deviation = got.real / asymptotic - 1.0
    M = 2.0 * T * T
    # leading term c/M with the analytic curvature coefficient; the
    # next-order term is ~7e-7 at this T
    assert deviation * M == pytest.approx(DIAG_DEVIATION_C1, abs=0.02)


def test_finite_t_oracle_auxiliary_parameter_independence():
    traj = Trajectory(z=1.0)
    base = oracle_overlap_finite_t(1.0, traj, 1.0, traj, 40.0, a=1.0)
    for a in (0.5, 2.0):
        other = oracle_overlap_finite_t(1.0, traj, 1.0, traj, 40.0, a=a)
        assert other.real == pytest.approx(base.real, rel=1e-12)


def test_finite_t_oracle_scale_freedom():
    # omega -> g omega, z -> z/g, T -> T/g leaves the value unchanged
    g = 3.7
    traj = Trajectory(z=0.8)
    traj_scaled = Trajectory(z=0.8 / g)
    base = oracle_overlap_finite_t(1.25, traj, 1.25, traj, 48.0)
    scaled = oracle_overlap_finite_t(1.25 * g, traj_scaled, 1.25 * g, traj_scaled, 48.0 / g)
    assert scaled.real == pytest.approx(base.real, rel=1e-12)


def test_finite_t_oracle_matches_aligned_closed_form():
    omega_i, traj_n, omega_j, traj_m = _aligned_pair()
    T = 60.0
    got = oracle_overlap_finite_t(omega_i, traj_n, omega_j, traj_m, T)
    M = overlap_diagnostics(omega_i, traj_n, omega_j, traj_m, T).sharpness
    assert got.real == pytest.approx(ALIGNED_VALUE, rel=10.0 / M)


def test_finite_t_oracle_suppresses_misaligned_pairs():
    # C > 800 underflows every double: the overlap is exactly zero
    traj_n = Trajectory(z=0.5)
    traj_m = Trajectory(z=1.0)
    value = oracle_overlap_finite_t(3.0, traj_n, 1.0, traj_m, 200.0)
    assert value == 0j
    # moderate misalignment carries the Gaussian factor e^{-C}
    diag = overlap_diagnostics(2.02, traj_n, 1.0, traj_m, 30.0)
    value = oracle_overlap_finite_t(2.02, traj_n, 1.0, traj_m, 30.0)
    aligned = oracle_overlap_finite_t(2.0, traj_n, 1.0, traj_m, 30.0)
    ratio = value.real / aligned.real
    assert ratio == pytest.approx(math.exp(-diag.suppression), rel=0.05)


def test_convergence_report_structure():
    report = convergence_report(omega=1.0, z=1.0, a=1.0, T_list=(10.0, 20.0))
    assert [row.T for row in report.rows] == [10.0, 20.0]
    assert [row.M for row in report.rows] == [200.0, 800.0]
    for row in report.rows:
        assert row.rel_error == pytest.approx(
            abs(row.oracle - row.asymptotic) / row.asymptotic, rel=1e-12
        )
        assert 0.0 <= row.change <= 1e-10 * row.T
    assert report.rows[1].rel_error < report.rows[0].rel_error
    assert report.slope == pytest.approx(-1.0, abs=0.3)
    assert not report.warnings

    with pytest.raises(ValueError):
        convergence_report(omega=1.0, z=1.0, a=1.0, T_list=(20.0, 10.0))
    with pytest.raises(ValueError):
        convergence_report(omega=1.0, z=1.0, a=1.0, T_list=())


def test_convergence_report_warns_below_window_floor():
    report = convergence_report(omega=1.0, z=1.0, a=1.0, T_list=(0.5, 10.0))
    assert any("regime violation" in w for w in report.warnings)

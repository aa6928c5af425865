"""Field-state scalar products and their independent quadrature oracles.

Frozen literals come from mpmath (``tests/oracles.py``): closed formulas
and the 1-D boost-frequency integral at 40 digits, the k-bar integral at
25 digits.  ``FINITE_T_K_ROUTE`` alone holds values of the package's
former finite-duration route.  One test takes the closed form of Lambda
from ``oracles.lam`` directly, and one the finite-duration overlap from
``oracles.finite_t_wightman``.  One rebuilds the paper example's measured
table from the finite-duration oracle and compares its limit with the
closed form.
"""

import math
import time

import numpy as np
import pytest
from oracles import finite_t_wightman, lam

from superthermal import overlaps
from superthermal.detector import paper_example
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
# its next two coefficients, of 1/M^2 and 1/M^3 (laplace_coefficients)
DIAG_DEVIATION_C2 = 18.66627994170205278335
DIAG_DEVIATION_C3 = 17.47665637305891245848

# Values of the former finite-duration route, which integrated
# K_inu(k z_m) K_inu(k z_n) over k_perp and omega'' (commit e9e8c5f), frozen
# before the k_perp integral was taken in closed form: diagonal, offset
# and detuned pairs, T = 2-80.  That route took a boost rate a, which set
# nu = omega''/a; each value was computed at the a it lists (0.5-2), so
# they check that the overlap does not depend on it.  Every window
# 1 +- 8/sqrt(2M) stays clear of s = 0, where that route clipped.  Each
# agrees with mpmath's finite_t_spectral within 2.7e-14 relative.
# (omega_i, (z, x, y) of n, omega_j, (z, x, y) of m, T, a, value)
FINITE_T_K_ROUTE = [
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 5.0, 1.0, 0.0017019759992648572),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 20.0, 0.5, 0.006006003997279375),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 80.0, 2.0, 0.02383412083071432),
    (0.6, (1.0, 0.0, 0.0), 0.6, (1.0, 0.0, 0.0), 10.0, 0.7, 0.02312647861553175),
    (3.0, (1 / 3, 0.0, 0.0), 3.0, (1 / 3, 0.0, 0.0), 2.0, 1.0, 0.0019613071250129213),
    (1.4, (0.5, 0.0, 0.0), 0.7, (1.0, 0.4, 0.0), 10.0, 1.0, 0.014707402237211111),
    (1.4, (0.5, 0.0, 0.0), 0.7, (1.0, 0.9, 0.0), 40.0, 2.0, 0.045184722923230135),
    (2.0, (1.0, 0.0, 0.0), 1.0, (2.0, 0.4, 0.0), 80.0, 1.0, 3.4384840598882576e-05),
    (3.0, (1 / 3, 0.0, 0.0), 1.0, (1.0, 0.4, 0.3), 20.0, 0.5, 0.004379711992049854),
    (2.02, (0.5, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 30.0, 1.0, 0.008588413116366895),
    (2.1, (0.5, 0.0, 0.0), 1.0, (1.0, 0.3, 0.4), 30.0, 1.5, 0.0010954366705001445),
    (1.0, (1.0, 0.0, 0.0), 1.1, (1.0, 0.5, 0.0), 10.0, 1.0, 0.0013163704306887259),
]

# mpmath finite_t_spectral at 40 digits, on the whole boost-frequency
# line.  The first is CI's T_list [1, 20] row, the next two lie far
# below T = 1/omega.
# (omega_i, (z, x, y) of n, omega_j, (z, x, y) of m, T, value)
FINITE_T_SPECTRAL_REFERENCE = [
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 1.0, 0.0027505279878097496226),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 0.03, 0.029426126169141886387),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 1e-3, 0.031667314571438681669),
    (1.4, (0.5, 0.0, 0.0), 0.7, (1.0, 0.4, 0.0), 0.3, 0.0083931943288652322991),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 3.0, 0.0), 3.0, 0.0002451666387856447511),
]


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
    # the boost frequency the Wightman route's Gaussian turns at
    zm, zn = traj_m.z, traj_n.z
    assert diag.omega_bar == pytest.approx((omega_j * zm * zn**2 + omega_i * zn * zm**2) / zz, rel=1e-15)


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


def test_lambda_quadrature_sweep_stays_far_under_its_target():
    # the README's 65-case sweep agrees with the closed form 100 times under
    # the 1e-8 target, so a coarser grid cannot drift toward it unseen
    dxbar = np.linspace(0.0, 5.0, 25)
    worst = max(
        np.max(np.abs(oracle_lambda_quadrature(q, dxi, dxbar) - lambda_overlap(q, dxi, dxbar)))
        for q in np.arange(0.0, 13.0)
        for dxi in (0.0, 0.3, 1.5, 2.25, 3.0)
    )
    assert worst < 1e-10


@pytest.mark.parametrize("dxi", [0.0, 1.5])
def test_lambda_quadrature_at_q_zero_and_no_separation_stays_far_under_its_target(dxi):
    # With q = 0 and dxbar = 0 only the log singularity of K_0 at k = 0
    # sizes the linear panels next to the log region; held as far under the
    # 1e-8 target as the sweep.
    values, change, _ = _lambda_quadrature(0.0, dxi, [0.0])
    assert change < 1e-10
    assert abs(values[0] - float(lambda_overlap(0.0, dxi, 0.0))) < 1e-10


def test_lambda_quadrature_caps_its_grid():
    # J_0 oscillates at the rate dxbar, so the k grid grows linearly in it:
    # at q = 1, dxi = 0 the refined pass takes 1.5 (37 + pi)/2 (dxbar + 1)
    # / _GL_PHASE linear panels of 16 nodes.  Three times the dxbar at which
    # that meets the cap both oracles share, the call fails fast, naming it.
    kbar_max = (overlaps._ENVELOPE_DECAY + math.pi) / 2.0
    at_cap = overlaps._MAX_GRID_VALUES / 16 * overlaps._GL_PHASE / (1.5 * kbar_max)
    dxbar = round(3.0 * at_cap, -4)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match=f"dxbar = {dxbar:g} needs more than"):
        oracle_lambda_quadrature(1.0, 0.0, dxbar)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("nu_max, osc_max, decay_rate, kbar_max", [
    (0.0, 0.0, 2.0, 18.5),  # Lambda at q = 0, dxi = 0: the envelope binds
    (12.0, 2.5, 3.04, 24.6),  # Lambda at q = 12, dxi = 1.5: the branch limit grows the panels
    (0.0, 50.0, 2.0, 18.5),  # the separation binds from the first linear panel on
    (40.0, 5.0, 2.0, 81.3),  # the branch limit binds up to k = 20, then the separation
    (1.4, 0.7, 1.5, 50.0),  # the branch limit binds up to k = 10, then J_0 just ahead of the envelope
])
@pytest.mark.parametrize("refine", [1.0, 1.5])
def test_kbar_grid_linear_panels_take_their_narrowest_limit(nu_max, osc_max, decay_rate, kbar_max, refine):
    # The linear panels are counted in closed form; each but the last is as
    # wide as the narrowest of its three limits at its left edge, and the
    # last ends at kbar_max.  A panel's 16 Gauss-Legendre weights sum to its
    # width.
    nodes, weights = overlaps._kbar_grid(
        nu_max=nu_max, osc_max=osc_max, decay_rate=decay_rate, kbar_max=kbar_max, refine=refine,
        separations=1,
    )
    k_log_end = min(0.1, 0.5 * kbar_max)
    linear = nodes > k_log_end
    widths = weights[linear].reshape(-1, 16).sum(axis=1)
    left = k_log_end + np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    limits = np.minimum.reduce([
        overlaps._LINEAR_PHASE * left / (nu_max + 1.0),
        np.full(left.size, overlaps._GL_PHASE / (osc_max + 1.0)),
        np.full(left.size, overlaps._GL_PHASE / decay_rate),
    ]) / refine
    assert widths.size > 1
    assert np.allclose(widths[:-1], limits[:-1], rtol=1e-12, atol=0.0)
    assert 0.0 < widths[-1] <= limits[-1] * (1.0 + 1e-12)
    assert left[-1] + widths[-1] == pytest.approx(kbar_max, rel=1e-12)
    assert np.all(nodes[linear] < kbar_max)


def test_gl_phase_keeps_the_16_point_error_bound_under_1e_20():
    # The Gauss-Legendre error bound for e^{i phi t/2} on [-1, 1] with n = 16
    # nodes, 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) (phi/2)^(2n), reaches 1e-20
    # at phi = 11.71; the budget sits within 2 % below it.
    f = math.factorial
    constant = 2**33 * f(16) ** 4 / (33 * f(32) ** 3)
    at_1e_20 = 2.0 * (1e-20 / constant) ** (1.0 / 32.0)
    assert at_1e_20 == pytest.approx(11.71, abs=5e-3)
    assert 0.98 * at_1e_20 <= overlaps._GL_PHASE <= at_1e_20
    assert constant * (overlaps._GL_PHASE / 2.0) ** 32 <= 1e-20


@pytest.mark.parametrize("nu_max, osc_max, kbar_max", [
    (0.0, 0.0, 18.5),  # Lambda at q = 0: the growth of k^2 alone
    (12.0, 5.0, 24.6),  # the Bessel product's turning sets the width
    (1.0, 1e4, 20.0),  # J_0 over the log region's end sets it
    (2.0, 0.5, 0.1),  # a log region cut at kbar_max / 2
])
@pytest.mark.parametrize("refine", [1.0, 1.5])
def test_kbar_grid_log_panels_take_the_phase_budget(nu_max, osc_max, kbar_max, refine):
    # Below k = min(0.1, kbar_max / 2) the panels are equal in log k, as
    # many as _GL_PHASE / (2 nu + k dxbar + 2) / refine takes to cover
    # [log(1e-7 / refine), log k_end], and no wider.  A panel's 16 weights,
    # divided by their nodes, sum to its width in log k.
    nodes, weights = overlaps._kbar_grid(
        nu_max=nu_max, osc_max=osc_max, decay_rate=2.0, kbar_max=kbar_max, refine=refine,
        separations=1,
    )
    k_end = min(0.1, 0.5 * kbar_max)
    log = nodes < k_end
    widths = (weights[log] / nodes[log]).reshape(-1, 16).sum(axis=1)
    budget = overlaps._GL_PHASE / (2.0 * nu_max + k_end * osc_max + 2.0) / refine
    span = math.log(k_end) - math.log(1e-7 / refine)
    assert widths.size == math.ceil(span / budget)
    assert np.allclose(widths, span / widths.size, rtol=1e-12, atol=0.0)
    assert widths.max() <= budget * (1.0 + 1e-12)


@pytest.mark.parametrize("q", [1.2, 3.6, 6.0, 8.4, 10.8])
@pytest.mark.parametrize("dxi", [0.3, 1.5, 2.7])
def test_lambda_quadrature_matches_mpmath_closed_form(q, dxi):
    # Against the closed form at 40 digits (tests/oracles.py), not against
    # the package's lambda_overlap; held to 1e-12 absolute, about twice the
    # largest error here (4.5e-13 at q = 10.8).
    dxbar = np.array([0.0, 2.5, 5.0])
    got = oracle_lambda_quadrature(q, dxi, dxbar)
    want = np.array([float(lam(q, dxi, x)) for x in dxbar])
    assert np.max(np.abs(got - want)) < 1e-12


def test_oracles_return_their_targets_from_one_convergence_check():
    values, change, target = _lambda_quadrature(1.0, 0.4, [0.0, 1.2])
    assert np.array_equal(values, oracle_lambda_quadrature(1.0, 0.4, [0.0, 1.2]))
    assert target == 1e-8 and 0.0 <= change <= target
    traj = Trajectory(z=1.0)
    value, change, target = _overlap_finite_t(1.0, traj, 1.0, traj, 20.0)
    assert value == oracle_overlap_finite_t(1.0, traj, 1.0, traj, 20.0)
    assert target == 1e-10 * 20.0 and 0.0 < change <= target
    # a suppressed pair keeps its target
    assert _overlap_finite_t(3.0, traj, 1.0, traj, 200.0) == (0.0, 0.0, 1e-10 * 200.0)
    assert convergence_report(1.0, 1.0, [10.0]).rows[0].target == 1e-10 * 10.0

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
    # a refined pass with no series bound: the change is the refinement's alone
    _, change, _ = _converged(lambda refine, bound: one_pass(refine, False), 1e-8, "test")
    assert change == pytest.approx(5e-9)


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
    # dxi -> -dxi swaps the two Bessel arguments s_+ and s_-, and nothing
    # else, so value and change agree bit for bit; oracle-validate computes
    # each mirrored pair of rows from one call.
    dxbar = np.linspace(0.0, 5.0, 25)
    for q in (0.0, 1.0, 2.0, 6.0, 10.0, 12.0):
        for dxi in (0.3, 1.5, 3.0):
            plus, plus_change, _ = _lambda_quadrature(q, dxi, dxbar)
            minus, minus_change, _ = _lambda_quadrature(q, -dxi, dxbar)
            assert np.array_equal(plus, minus), (q, dxi)
            assert plus_change == minus_change, (q, dxi)


@pytest.mark.parametrize("q", [0.0, 1.2, 6.0, 12.0])
@pytest.mark.parametrize("refine", [1.0, 1.5])
def test_k_products_takes_one_order_at_both_argument_sets_in_one_call(q, refine, monkeypatch):
    # One order takes the series, so both argument sets x_+- = k s_+- go
    # through one K call.  The series sums each value on its own, so below
    # x = 4 the values and their bound are those of two separate calls, bit
    # for bit; above, the trapezoidal bands regroup, which moves K by at
    # most 6e-16 e^-x, twice the rule's accuracy against mpmath.
    kbar = np.geomspace(1e-7, 40.0, 700)
    s_plus, s_minus = math.sqrt(0.5 * (math.exp(3.0) + 1.0)), math.sqrt(0.5 * (math.exp(-3.0) + 1.0))
    x_a, x_b = kbar * s_plus, kbar * s_minus
    calls = []
    k_imag_outer = overlaps._k_imag_outer

    def spy(*args, **kwargs):
        calls.append(args[1].size)
        return k_imag_outer(*args, **kwargs)

    monkeypatch.setattr(overlaps, "_k_imag_outer", spy)
    product, product_err = overlaps._k_products(q, x_a, x_b, refine, True)
    assert calls == [x_a.size + x_b.size]

    err_a, err_b = np.empty(x_a.size), np.empty(x_b.size)
    k_a = k_imag_outer(q, x_a, refine, err=err_a)
    k_b = k_imag_outer(q, x_b, refine, err=err_b)
    # bounds on how far the merged K values may move: 0 up to x = 4, so
    # there products and bounds must agree bit for bit
    move_a = np.where(x_a > 4.0, 6e-16 * np.exp(-x_a), 0.0)
    move_b = np.where(x_b > 4.0, 6e-16 * np.exp(-x_b), 0.0)
    assert np.all(np.abs(product - k_a * k_b) <= move_a * np.abs(k_b) + np.abs(k_a) * move_b + move_a * move_b)
    want_err = np.abs(k_a) * err_b + err_a * np.abs(k_b) + err_a * err_b
    assert np.all(np.abs(product_err - want_err) <= move_a * err_b + err_a * move_b)


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


def test_finite_t_oracle_below_one_over_omega_widens_its_panels():
    # at T = 0.2 the boost-frequency window spans 40 orders (-19 to 21); six
    # fixed panels over it miss the target by 41 times, one per two orders
    # do not
    traj = Trajectory(z=1.0)
    _, change, target = _overlap_finite_t(1.0, traj, 1.0, traj, 0.2)
    assert change < 1e-3 * target


def _branch_pair(omega_i, n, omega_j, m):
    return omega_i, Trajectory(z=n[0], x_perp=n[1:]), omega_j, Trajectory(z=m[0], x_perp=m[1:])


@pytest.mark.parametrize("case", FINITE_T_K_ROUTE, ids=lambda c: f"{c[0]:g}-{c[2]:g}-T{c[4]:g}-a{c[5]:g}")
def test_finite_t_oracle_matches_the_frozen_k_route(case):
    # The 1-D route takes the k_perp integral in closed form and has no
    # boost rate; on the frozen set it moved no value by more than 6.3e-15
    # relative.
    *pair, T, _, want = case
    args = _branch_pair(*pair)
    assert 8.0 / math.sqrt(2.0 * overlap_diagnostics(*args, T).sharpness) < 1.0
    assert oracle_overlap_finite_t(*args, T) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "case", FINITE_T_SPECTRAL_REFERENCE, ids=lambda c: f"{c[0]:g}-{c[2]:g}-b{c[3][1]:g}-T{c[4]:g}"
)
def test_finite_t_oracle_matches_mpmath_on_the_whole_line(case):
    # No clip at s = 0: on every case the window 1 +- 8/sqrt(2M) reaches
    # past s = 0, into the counter-rotating Gaussian folded onto
    # omega'' < 0.  What the window leaves out is below 2e-13 relative here.
    *pair, T, want = case
    assert oracle_overlap_finite_t(*_branch_pair(*pair), T) == pytest.approx(want, rel=1e-12, abs=0.0)


# Pairs for the Wightman route: diagonal q = 1 from T = 0.03 (where the
# contour passes 0.0036 from the double pole at w = 0) to 20, q = 0.6, 0.5
# and 3, an offset pair, an aligned pair across z = 1 and 2 at T = 80, a
# detuned pair and a wide separation at equal heights.
# (omega_i, (z, x, y) of n, omega_j, (z, x, y) of m, T)
FINITE_T_WIGHTMAN_CASES = [
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 1.0),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 20.0),
    (0.6, (1.0, 0.0, 0.0), 0.6, (1.0, 0.0, 0.0), 10.0),
    (0.5, (1.0, 0.0, 0.0), 0.5, (1.0, 0.0, 0.0), 0.5),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0), 0.03),
    (1.4, (0.5, 0.4, 0.0), 0.7, (1.0, 0.9, 0.0), 10.0),
    (2.0, (1.0, 0.0, 0.0), 1.0, (2.0, 0.4, 0.0), 80.0),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.2, 0.3, 0.0), 3.0),
    (1.0, (1.0, 0.0, 0.0), 1.0, (1.0, 3.0, 0.0), 3.0),
    (3.0, (1.0, 0.0, 0.0), 3.0, (1.0, 0.0, 0.0), 20.0),
]


@pytest.mark.parametrize(
    "case", FINITE_T_WIGHTMAN_CASES, ids=lambda c: f"{c[0]:g}-{c[2]:g}-z{c[3][0]:g}-b{c[3][1]:g}-T{c[4]:g}"
)
def test_finite_t_oracle_matches_the_wightman_route(case):
    # The vacuum two-point function along the branches, integrated in
    # mpmath, shares neither F(nu) nor the boost-frequency window with the
    # oracle: it checks the prefactor, C, M and the centre omega_bar.
    *pair, T = case
    want = float(finite_t_wightman(*pair, T))
    got = oracle_overlap_finite_t(*_branch_pair(*pair), T)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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


def _paper_table_from_the_oracle(T):
    """The paper example's measured excited matrix at duration T, entry by
    entry from the finite-duration overlaps of the raw trajectories:
    rho_ji = sum_{n,m} B_m^* A_n^* B_n A_m zeta_i^* zeta_j <omega_i,n|omega_j,m>_T / T,
    here with A = B = 1/sqrt(3) on z = 0.5, 1, 1.5 and unit couplings."""
    amp = 1.0 / math.sqrt(3.0)
    trajectories = [Trajectory(z=z) for z in (0.5, 1.0, 1.5)]
    levels = [float(i) for i in range(1, 13)]
    return np.array([
        [sum(amp**4 * oracle_overlap_finite_t(omega_i, n, omega_j, m, T) for m in trajectories for n in trajectories) / T
         for omega_i in levels]
        for omega_j in levels
    ])


def test_paper_table_is_the_finite_duration_limit():
    # The relative deviation of the finite-duration table falls as 1/M with
    # M ~ T^2, so Richardson's rule R(T) = (4 rho(2T) - rho(T))/3 leaves an
    # O(1/M^2) error that falls by 16 per doubling of T: the step
    # R(160) - R(320) is then 15 times the error of R(320), which it bounds.
    # A misaligned pair has C = dq^2 T^2/(z_m^2 + z_n^2) > 800 from T ~ 120,
    # where the oracle returns exactly 0, so the absent cells are exact.
    closed = paper_example().measured[1:, 1:]
    present = closed != 0.0
    tables = [_paper_table_from_the_oracle(T) for T in (160.0, 320.0, 640.0)]
    for table in tables:
        assert np.array_equal(table != 0.0, present)
    coarse, fine = ((4.0 * tables[k + 1] - tables[k]) / 3.0 for k in (0, 1))
    assert np.all(np.abs(fine - closed)[present] <= np.abs(fine - coarse)[present])


def test_convergence_report_structure():
    report = convergence_report(omega=1.0, z=1.0, T_list=(10.0, 20.0))
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
        convergence_report(omega=1.0, z=1.0, T_list=(20.0, 10.0))
    with pytest.raises(ValueError):
        convergence_report(omega=1.0, z=1.0, T_list=())


def test_convergence_report_approaches_the_first_order_law():
    # Laplace's method on the diagonal's 1-D integral gives rel_error =
    # c1/M + c2/M^2 + c3/M^3 + c4/M^4 + ..., c_k = h^(2k)(1)/(k! 4^k h(1)),
    # h(s) = s/(e^{2 pi q s} - 1), here at q = 1 (c4 = -34).  So the gap
    # rel_error M - c1 = c2/M + O(1/M^2) lies above c2/M and, for M >= 200,
    # below (c2 + c3/200)/M = 18.754/M.
    report = convergence_report(omega=1.0, z=1.0, T_list=(10.0, 20.0, 40.0, 80.0))
    bound = DIAG_DEVIATION_C2 + DIAG_DEVIATION_C3 / 200.0
    for row in report.rows:
        gap = row.rel_error * row.M - DIAG_DEVIATION_C1
        assert DIAG_DEVIATION_C2 < gap * row.M <= bound, row.T


def test_convergence_report_warns_below_window_floor():
    report = convergence_report(omega=1.0, z=1.0, T_list=(0.5, 10.0))
    assert any("regime violation" in w for w in report.warnings)

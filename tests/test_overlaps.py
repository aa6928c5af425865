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
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import finite_t_wightman, lam

from superthermal import overlaps
from superthermal.detector import DetectorSpec, MeasurementBasisVector, joint_state, measured_internal, paper_example
from superthermal.geometry import Trajectory, TrajectorySet, delta_xbar, delta_xi
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
from superthermal.specfun import lambda_overlap, planck_weight

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


@st.composite
def aligned_pairs(draw):
    """An aligned pair (omega_i, n, omega_j, m) with random heights and
    offsets, its products omega_j z_m and omega_i z_n at most tol / 2
    apart, a duration T and the tolerance tol."""
    tol = draw(st.sampled_from((1e-9, 1e-6, 1e-3, 0.1)))
    q = draw(st.floats(0.01, 30.0))
    z_n = draw(st.floats(0.1, 10.0))
    z_m = z_n * draw(st.sampled_from((1.0, 0.5, 2.0))) * draw(st.floats(0.25, 4.0))
    offset = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    traj_n = Trajectory(z=z_n, x_perp=(draw(offset), draw(offset)))
    traj_m = Trajectory(z=z_m, x_perp=(draw(offset), draw(offset)))
    # detuned by at most tol / 2 and never past q / 2, so omega_j > 0
    omega_j = (q + draw(st.floats(-0.5, 0.5)) * min(tol, q)) / z_m
    T = draw(st.floats(0.03, 1e4))
    return q / z_n, traj_n, omega_j, traj_m, T, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(aligned_pairs())
def test_offdiag_overlap_is_the_scalar_closed_forms_bit_for_bit(pair):
    # the geometric mean of the two norms times Lambda, with q from the
    # lexicographically smaller (omega, z, x, y) side, to the last bit
    omega_i, traj_n, omega_j, traj_m, T, tol = pair
    res = offdiag_overlap(omega_i, traj_n, omega_j, traj_m, T, tol)
    assert res.condition_met
    omega_lo, traj_lo = min((omega_i, traj_n), (omega_j, traj_m),
                            key=lambda p: (p[0], p[1].z, *p[1].x_perp))
    q = omega_lo * traj_lo.z
    norms = math.sqrt(diag_overlap(omega_i, traj_n.z, T)) * math.sqrt(diag_overlap(omega_j, traj_m.z, T))
    assert res.q == q
    assert res.value == complex(norms * lambda_overlap(q, delta_xi(traj_m, traj_n), delta_xbar(traj_m, traj_n)))
    for omega, z in ((omega_i, traj_n.z), (omega_j, traj_m.z)):
        assert diag_overlap(omega, z, T) == T / (2.0 * math.pi) * planck_weight(omega, z)


def test_offdiag_overlap_stays_finite_where_the_product_of_its_norms_overflows():
    # at T = 1e300 each norm is about 1e297, so their product overflows;
    # sqrt(n_i) sqrt(n_j) does not
    res = offdiag_overlap(2.0, Trajectory(z=0.5), 1.0, Trajectory(z=1.0), 1e300, 1e-9)
    norms = [diag_overlap(omega, z, 1e300) for omega, z in ((2.0, 0.5), (1.0, 1.0))]
    assert math.isinf(norms[0] * norms[1])
    assert res.condition_met and math.isfinite(res.value.real)
    assert res.value == complex(math.sqrt(norms[0]) * math.sqrt(norms[1]) * lambda_overlap(1.0, math.log(2.0), 0.0))


_traj = Trajectory(z=0.5)
_other = Trajectory(z=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: diag_overlap(1.0, 1.0, math.inf), "T"),
        (lambda: offdiag_overlap(2.0, _traj, 1.0, _other, math.inf, 1e-9), "T"),
        (lambda: offdiag_overlap(math.inf, _traj, 1.0, _other, 10.0, 1e-9), "omega_i"),
        (lambda: offdiag_overlap(2.0, _traj, math.inf, _other, 10.0, 1e-9), "omega_j"),
        (lambda: oracle_overlap_finite_t(math.inf, _traj, 1.0, _other, 10.0), "omega_i"),
        (lambda: oracle_overlap_finite_t(2.0, _traj, math.inf, _other, 10.0), "omega_j"),
        (lambda: oracle_overlap_finite_t(2.0, _traj, 1.0, _other, math.inf), "T"),
    ],
    ids=["diag-T", "offdiag-T", "offdiag-omega_i", "offdiag-omega_j",
         "oracle-omega_i", "oracle-omega_j", "oracle-T"],
)
def test_finite_duration_path_refuses_a_non_finite_frequency_or_duration(call, name):
    # each used to return inf, a silent zero, or warn before failing
    with pytest.raises(ValueError, match=f"requires a finite {name}, got inf"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: oracle_lambda_quadrature(-1.0, 0.0, 1.0),
                     "oracle_lambda_quadrature requires q >= 0, got -1.0", id="lambda-oracle-q"),
        pytest.param(lambda: oracle_lambda_quadrature(1.0, 0.0, [1.0, -0.5]),
                     "oracle_lambda_quadrature requires dxbar >= 0", id="lambda-oracle-dxbar"),
        pytest.param(lambda: convergence_report(omega=0.0, z=1.0, T_list=(10.0,)),
                     "convergence_report requires omega, z > 0", id="report-omega"),
        pytest.param(lambda: convergence_report(omega=1.0, z=-1.0, T_list=(10.0,)),
                     "convergence_report requires omega, z > 0", id="report-z"),
        pytest.param(lambda: overlap_diagnostics(0.0, _traj, 1.0, _other, 10.0),
                     "the finite-duration overlap requires omega_i, omega_j, T > 0", id="diagnostics-omega_i"),
        pytest.param(lambda: overlap_diagnostics(2.0, _traj, 1.0, _other, -1.0),
                     "the finite-duration overlap requires omega_i, omega_j, T > 0", id="diagnostics-T"),
    ],
)
def test_oracles_refuse_inputs_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
    # at q = 1, dxi = 0 it takes (37 + pi)/2 (dxbar + 1) / _GL_PHASE linear
    # panels of 33 nodes.  Three times the dxbar at which that meets the
    # cap both oracles share, the call fails fast, naming it.
    kbar_max = (overlaps._ENVELOPE_DECAY + math.pi) / 2.0
    at_cap = overlaps._MAX_GRID_VALUES / 33 * overlaps._GL_PHASE / kbar_max
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
@pytest.mark.parametrize("rate_scale", [1.0, 1.5])
def test_kbar_grid_linear_panels_take_their_narrowest_limit(nu_max, osc_max, decay_rate, kbar_max, rate_scale):
    # The linear panels are counted in closed form; each but the last is as
    # wide as the narrowest of its three limits at its left edge, and the
    # last ends at kbar_max.  A panel's 33 Kronrod weights sum to its width,
    # and so do its 16 embedded Gauss weights.  Each case runs again with
    # its three rates 1.5 times faster, on a finer grid.
    nu_max, osc_max, decay_rate = (rate_scale * rate for rate in (nu_max, osc_max, decay_rate))
    nodes, weights, gauss = overlaps._kbar_grid(
        nu_max=nu_max, osc_max=osc_max, decay_rate=decay_rate, kbar_max=kbar_max, separations=1,
    )
    k_log_end = min(0.1, 0.5 * kbar_max)
    linear = nodes > k_log_end
    widths = weights[linear].reshape(-1, 33).sum(axis=1)
    assert np.allclose(gauss[linear].reshape(-1, 33).sum(axis=1), widths, rtol=1e-14, atol=0.0)
    left = k_log_end + np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    limits = np.minimum.reduce([
        overlaps._LINEAR_PHASE * left / (nu_max + 1.0),
        np.full(left.size, overlaps._GL_PHASE / (osc_max + 1.0)),
        np.full(left.size, overlaps._GL_PHASE / decay_rate),
    ])
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
@pytest.mark.parametrize("rate_scale", [1.0, 1.5])
def test_kbar_grid_log_panels_take_the_phase_budget(nu_max, osc_max, kbar_max, rate_scale):
    # The floor panel [1e-7 / 1.5, 1e-7] comes first.  Above it and below
    # k = min(0.1, kbar_max / 2) the panels are equal in log k, as many as
    # _GL_PHASE / (2 nu + k dxbar + 2) takes to cover [log 1e-7, log k_end],
    # and no wider.  A panel's 33 Kronrod weights, and its 16 embedded Gauss
    # weights, divided by their nodes, sum to its width in log k.  Each case
    # runs again with nu and dxbar 1.5 times larger, on a finer grid.
    nu_max, osc_max = rate_scale * nu_max, rate_scale * osc_max
    nodes, weights, gauss = overlaps._kbar_grid(
        nu_max=nu_max, osc_max=osc_max, decay_rate=2.0, kbar_max=kbar_max, separations=1,
    )
    k_end = min(0.1, 0.5 * kbar_max)
    log = nodes < k_end
    widths = (weights[log] / nodes[log]).reshape(-1, 33).sum(axis=1)
    assert np.allclose((gauss[log] / nodes[log]).reshape(-1, 33).sum(axis=1), widths, rtol=1e-14, atol=0.0)
    assert np.all((nodes[:33] > 1e-7 / 1.5) & (nodes[:33] < 1e-7))
    assert widths[0] == pytest.approx(math.log(1.5), rel=1e-12)
    widths = widths[1:]
    budget = overlaps._GL_PHASE / (2.0 * nu_max + k_end * osc_max + 2.0)
    span = math.log(k_end) - math.log(1e-7)
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

    # One pass gives the value and its change; the one check holds the
    # change to the target, and a NaN change fails it too.
    values = np.array([1.0, 2.0])
    assert _converged(values, 6e-9, 1e-8, "test") == (values, 6e-9, 1e-8)
    assert _converged(values, 1e-8, 1e-8, "test")[1] == 1e-8
    for change in (6e-9, math.nan):
        with pytest.raises(QuadratureError, match=f"test did not converge: its change is {change:.3e} "):
            _converged(values, change, 5e-9, "test")


@pytest.mark.parametrize("dxi", [-1.5, 0.0, 1.5])
def test_lambda_quadrature_change_bounds_its_error_at_q_zero(dxi):
    # At q = 0, K_0^2 grows like log^2 k, so the piece of the integral
    # below the grid's k-bar floor is the largest error; the part of the
    # floor panel [1e-7 / 1.5, 1e-7], which the change carries, must cover
    # it.  (At q >= 1 the residual is rounding, which the change need not
    # cover.)
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
@pytest.mark.parametrize("stretch", [1.0, 1.5])
def test_k_products_takes_one_order_at_both_argument_sets_in_one_call(q, stretch, monkeypatch):
    # One order takes the series, so both argument sets x_+- = k s_+- go
    # through one K call, at the trapezoidal step over 1.5.  The series sums
    # each value on its own, so below x = 4 the values and their bound are
    # those of two separate calls, bit for bit; above, the trapezoidal bands
    # regroup, which moves K by at most 6e-16 e^-x, twice the rule's
    # accuracy against mpmath.  The rounding estimate is eps sqrt(pi/2x) e^-x
    # per trapezoidal value, carried through the other factor.  A stretch of
    # 1.5 moves more of both sets past x = 4.
    kbar = stretch * np.geomspace(1e-7, 40.0, 700)
    s_plus, s_minus = math.sqrt(0.5 * (math.exp(3.0) + 1.0)), math.sqrt(0.5 * (math.exp(-3.0) + 1.0))
    x_a, x_b = kbar * s_plus, kbar * s_minus
    calls = []
    k_imag_outer = overlaps._k_imag_outer

    def spy(*args, **kwargs):
        calls.append((args[1].size, args[2]))
        return k_imag_outer(*args, **kwargs)

    monkeypatch.setattr(overlaps, "_k_imag_outer", spy)
    product, product_err, rounding = overlaps._k_products(q, x_a, x_b)
    assert calls == [(x_a.size + x_b.size, 1.5)]

    err_a, err_b = np.empty(x_a.size), np.empty(x_b.size)
    k_a = k_imag_outer(q, x_a, 1.5, err=err_a)
    k_b = k_imag_outer(q, x_b, 1.5, err=err_b)
    # bounds on how far the merged K values may move: 0 up to x = 4, so
    # there products and bounds must agree bit for bit
    move_a = np.where(x_a > 4.0, 6e-16 * np.exp(-x_a), 0.0)
    move_b = np.where(x_b > 4.0, 6e-16 * np.exp(-x_b), 0.0)
    assert np.all(np.abs(product - k_a * k_b) <= move_a * np.abs(k_b) + np.abs(k_a) * move_b + move_a * move_b)
    want_err = np.abs(k_a) * err_b + err_a * np.abs(k_b) + err_a * err_b
    assert np.all(np.abs(product_err - want_err) <= move_a * err_b + err_a * move_b)
    eps = np.finfo(float).eps
    rnd_a, rnd_b = (np.where(x > 4.0, eps * np.sqrt(math.pi / (2.0 * x)) * np.exp(-x), 0.0) for x in (x_a, x_b))
    want_rounding = np.abs(k_a) * rnd_b + rnd_a * np.abs(k_b)
    assert np.allclose(rounding, want_rounding, rtol=1e-12, atol=0.0)
    assert np.all(rounding[(x_a <= 4.0) & (x_b <= 4.0)] == 0.0)


def test_finite_t_oracle_refuses_a_window_narrower_than_the_doubles_at_s_one(monkeypatch):
    # At omega = z = 1 the window is s = 1 +- 4/T.  At T = 1e10 the nodes
    # still resolve it; from T = 1e12 their rounding shows in the change,
    # and from T = 1e17, where 8/T is below the spacing of doubles at 1,
    # every node would be s = 1 (the oracle once returned 0 with change 0
    # there), so it raises before it builds any node.
    traj = Trajectory(z=1.0)
    value, change, target = _overlap_finite_t(1.0, traj, 1.0, traj, 1e10)
    assert change <= target and abs(value - diag_overlap(1.0, 1.0, 1e10)) <= target
    for exponent in range(12, 21):
        T = 10.0**exponent
        if exponent >= 17:
            monkeypatch.setattr(overlaps, "_panel_nodes", None)
        with pytest.raises(QuadratureError, match=re.escape(f"at T = {T:g}")):
            _overlap_finite_t(1.0, traj, 1.0, traj, T)


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


# CI's lattice.json with complex couplings added: complex A, B and zeta,
# transverse offsets, and shells of three members (q = 2: omega = 1, 2, 4
# on z = 2, 1, 0.5; q = 3: omega = 2, 3, 6 on z = 1.5, 1, 0.5).
LATTICE_LEVELS = (1.0, 2.0, 3.0, 4.0, 6.0)
LATTICE_COUPLINGS = (0.6 + 0.8j, 1.0, -0.5j, 0.8 - 0.6j, -0.3 + 0.4j)
LATTICE_BRANCHES = (  # z, (x, y), A
    (0.5, (0.1, 0.0), 0.5 + 0.1j),
    (1.0, (0.0, 0.3), 0.4 - 0.2j),
    (1.5, (0.0, 0.0), 0.3 + 0.0j),
    (2.0, (-0.7, 0.0), 0.6 + 0.3j),
)
LATTICE_BASIS = (0.5, 0.5, 0.5j, 0.4 + 0.3j)


def _lattice_table_from_the_oracle(T):
    """The lattice's measured excited matrix at duration T, entry by entry
    from the finite-duration overlaps of the raw trajectories, as
    :func:`_paper_table_from_the_oracle` builds the paper's."""
    branches = [(Trajectory(z=z, x_perp=xy), a, b) for (z, xy, a), b in zip(LATTICE_BRANCHES, LATTICE_BASIS)]
    return np.array([
        [sum(b_m.conjugate() * a_n.conjugate() * b_n * a_m * zeta_i.conjugate() * zeta_j
             * oracle_overlap_finite_t(omega_i, n, omega_j, m, T)
             for m, a_m, b_m in branches for n, a_n, b_n in branches) / T
         for omega_i, zeta_i in zip(LATTICE_LEVELS, LATTICE_COUPLINGS)]
        for omega_j, zeta_j in zip(LATTICE_LEVELS, LATTICE_COUPLINGS)
    ])


def test_lattice_table_is_the_finite_duration_limit():
    # As for the paper's table: Richardson's rule leaves an O(1/M^2) error
    # that falls by 16 per doubling of T, so the step R(200) - R(400) is 15
    # times the error of R(400) and bounds it.  Every misaligned pair has
    # dq >= 0.5 (all products are multiples of 0.5) and z <= 2, so
    # C >= T^2/32 > 800 from T = 160: the absent cells are exactly 0.
    det = DetectorSpec(LATTICE_LEVELS, LATTICE_COUPLINGS)
    trajectories = TrajectorySet(Trajectory(z=z, x_perp=xy, amplitude=a) for z, xy, a in LATTICE_BRANCHES)
    rho = joint_state(det, trajectories, tol=0.01)  # lattice.json's epsilon
    assert max(members.shape[1] for members, _ in rho._groups) == 3
    closed = measured_internal(rho, MeasurementBasisVector(LATTICE_BASIS))[1:, 1:]
    present = closed != 0.0
    tables = [_lattice_table_from_the_oracle(T) for T in (200.0, 400.0, 800.0)]
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

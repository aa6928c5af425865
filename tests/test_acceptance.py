"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``criterion N: PASS/FAIL`` line directly to the terminal (bypassing
capture), so a full run reads as a nine-line scorecard.  Failures still
fail the pytest run in the usual way.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from superthermal.continuum import (
    CouplingFunction,
    SmearedAmplitude,
    continuum_joint_kernel,
)
from superthermal.detector import (
    DetectorSpec,
    MeasurementBasisVector,
    compare_with_reference,
    joint_state,
    measured_internal,
    paper_example,
    reduced_internal,
)
from superthermal.geometry import Trajectory, TrajectorySet
from superthermal.overlaps import (
    convergence_report,
    oracle_lambda_quadrature,
    oracle_overlap_finite_t,
)
from superthermal.specfun import lambda_axis_xbar, lambda_axis_xi, lambda_overlap

from test_overlaps import FINITE_T_K_ROUTE

NEGLOG_11 = 3.079241539661914724446
NEGLOG_77 = 10.45795881443162827351
NEGLOG_8_12 = 34.22778635527267164831


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL — {label}")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS — {label}")


def test_criterion_1_reference_table(capsys):
    with criterion(capsys, 1, "three-trajectory table matches the reference"):
        start = time.monotonic()
        result = paper_example()
        ok, problems = compare_with_reference(result.neglog)
        elapsed = time.monotonic() - start
        assert ok, problems
        assert problems == []
        printed = ~np.isnan(result.neglog)
        assert int(np.sum(printed)) == 40
        assert int(np.sum(~printed)) == 104
        # blank pattern is symmetric, like the matrix it displays
        assert np.array_equal(printed, printed.T)
        assert result.neglog[0, 0] == pytest.approx(NEGLOG_11, rel=1e-12)
        assert result.neglog[6, 6] == pytest.approx(NEGLOG_77, rel=1e-12)
        assert result.neglog[7, 11] == pytest.approx(NEGLOG_8_12, rel=1e-12)
        assert elapsed < 60.0


def test_criterion_2_overlap_factor_against_quadrature(capsys):
    with criterion(capsys, 2, "closed-form overlap factor matches quadrature"):
        start = time.monotonic()
        xi_grid = np.linspace(-3.0, 3.0, 25)
        xbar_grid = np.linspace(0.0, 5.0, 25)
        worst = 0.0
        for q in (0.0, 1.0, 2.0, 10.0):
            for dxi in xi_grid:
                quad = oracle_lambda_quadrature(q, float(dxi), xbar_grid)
                closed = lambda_overlap(q, float(dxi), xbar_grid)
                worst = max(worst, float(np.max(np.abs(quad - closed))))
        elapsed = time.monotonic() - start
        assert worst < 1e-6
        assert elapsed < 300.0


def test_criterion_3_axis_forms(capsys):
    with criterion(capsys, 3, "on-axis forms agree with the general formula"):
        rng = np.random.default_rng(20260822)
        for _ in range(100):
            q = float(rng.uniform(0.0, 12.0))
            dxi = float(rng.uniform(-3.0, 3.0))
            axis = float(lambda_axis_xi(q, dxi))
            general = float(lambda_overlap(q, dxi, 0.0))
            assert axis == pytest.approx(general, rel=1e-10, abs=1e-10)
        for _ in range(100):
            q = float(rng.uniform(0.0, 12.0))
            dxbar = float(rng.uniform(0.0, 5.0))
            axis = float(lambda_axis_xbar(q, dxbar))
            general = float(lambda_overlap(q, 0.0, dxbar))
            assert axis == pytest.approx(general, rel=1e-10, abs=1e-10)


def test_criterion_4_finite_duration_convergence(capsys):
    with criterion(capsys, 4, "finite-duration error decays at first order"):
        report = convergence_report(omega=1.0, z=1.0, T_list=(10.0, 20.0, 40.0, 80.0))
        errors = [row.rel_error for row in report.rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert report.slope == pytest.approx(-1.0, abs=0.3)


def test_criterion_5_boost_rate_independence(capsys):
    with criterion(capsys, 5, "physical overlaps independent of the boost rate"):
        # values the former route froze at boost rates a = 0.5 to 2; the
        # oracle takes no boost rate and must meet every one
        for omega_i, n, omega_j, m, T, _, want in FINITE_T_K_ROUTE:
            got = oracle_overlap_finite_t(
                omega_i, Trajectory(z=n[0], x_perp=n[1:]), omega_j, Trajectory(z=m[0], x_perp=m[1:]), T
            )
            assert abs(got - want) <= 1e-12 * abs(want)


def test_criterion_6_scale_freedom(capsys):
    with criterion(capsys, 6, "rescaled system carries the same physical state"):
        gamma = 3.7
        epsilon, T = 0.01, 50.0
        frequencies = tuple(float(k) for k in range(1, 13))
        heights = (0.5, 1.0, 1.5)
        amp = 1.0 / math.sqrt(3.0)

        det1 = DetectorSpec(frequencies=frequencies)
        ts1 = TrajectorySet(tuple(Trajectory(z=z, amplitude=amp) for z in heights))
        rho1 = joint_state(det1, ts1, tol=1e-6)

        det2 = DetectorSpec(frequencies=tuple(gamma * w for w in frequencies))
        ts2 = TrajectorySet(
            tuple(Trajectory(z=z / gamma, amplitude=amp) for z in heights)
        )
        rho2 = joint_state(det2, ts2, tol=1e-6)

        # per unit eps^2 T the entries differ by exactly the frequency
        # rescaling; the duration bookkeeping T -> T/gamma removes it
        assert np.allclose(
            rho2.excited_block, gamma * rho1.excited_block, rtol=1e-12, atol=0
        )
        abs1 = rho1.to_absolute(epsilon, T)
        abs2 = rho2.to_absolute(epsilon, T / gamma)
        assert np.array_equal(abs1.ground_block, abs2.ground_block)
        assert np.allclose(
            abs1.excited_block, abs2.excited_block, rtol=1e-12, atol=0
        )


def test_criterion_7_random_states_are_physical(capsys):
    with criterion(capsys, 7, "random configurations yield physical states"):
        rng = np.random.default_rng(77)
        for _ in range(50):
            level_count = int(rng.integers(1, 5))
            branch_count = int(rng.integers(1, 5))
            frequencies = np.sort(rng.uniform(0.5, 6.0, size=level_count))
            couplings = None
            if rng.uniform() < 0.5:
                phases = np.exp(2j * math.pi * rng.uniform(size=level_count))
                couplings = tuple(rng.uniform(0.2, 1.0, size=level_count) * phases)
            det = DetectorSpec(
                frequencies=tuple(float(w) for w in frequencies),
                couplings=couplings,
            )
            raw = rng.normal(size=branch_count) + 1j * rng.normal(size=branch_count)
            raw /= np.linalg.norm(raw)
            trajectories = tuple(
                Trajectory(
                    z=float(rng.uniform(0.3, 2.5)),
                    x_perp=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                    amplitude=complex(a),
                )
                for a in raw
            )
            ts = TrajectorySet(trajectories)
            rho = joint_state(det, ts, tol=1e-6)

            excited = rho.excited_block
            assert np.array_equal(excited, excited.conj().T)
            trace = float(np.trace(excited).real)
            assert float(np.min(np.linalg.eigvalsh(excited))) >= -1e-10 * trace

            reduced = reduced_internal(rho)
            assert np.all(reduced >= -1e-14)

            if branch_count >= 2:
                prepared = np.array(ts.amplitudes)
                probe = rng.normal(size=branch_count) + 1j * rng.normal(
                    size=branch_count
                )
                probe -= prepared * np.vdot(prepared, probe)
                probe /= np.linalg.norm(probe)
                basis = MeasurementBasisVector(amplitudes=tuple(probe))
                measured = measured_internal(rho, basis)
                # numerically orthogonalized branch: zero up to the
                # rounding floor of the quadratic form
                assert abs(measured[0, 0]) <= 1e-14

        # exactly orthogonal branch: the ground coefficient cancels bitwise
        uniform = 1.0 / math.sqrt(2.0)
        ts = TrajectorySet(
            (Trajectory(z=0.5, amplitude=uniform), Trajectory(z=1.0, amplitude=uniform))
        )
        det = DetectorSpec(frequencies=(1.0, 2.0))
        rho = joint_state(det, ts, tol=1e-6)
        basis = MeasurementBasisVector(amplitudes=(uniform, -uniform))
        assert measured_internal(rho, basis)[0, 0] == 0.0


def test_criterion_8_single_branch_is_thermal(capsys):
    with criterion(capsys, 8, "single branch reduces to the thermal spectrum"):
        frequencies = (0.7, 1.3, 2.2)
        couplings = (1.0 + 0.0j, 0.6 + 0.0j, 0.25 + 0.5j)
        det = DetectorSpec(frequencies=frequencies, couplings=couplings)
        z = 0.8
        ts = TrajectorySet((Trajectory(z=z, x_perp=(0.4, -0.2), amplitude=1.0),))
        reduced = reduced_internal(joint_state(det, ts, tol=1e-6))
        for got, omega, zeta in zip(reduced, frequencies, couplings):
            want = (
                (1.0 / (2.0 * math.pi))
                * abs(zeta) ** 2
                * omega
                / math.expm1(2.0 * math.pi * omega * z)
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_criterion_9_continuum_reaches_discrete_limit(capsys):
    with criterion(capsys, 9, "continuum kernel converges to the discrete ratio"):
        h = 1e-3
        amp = SmearedAmplitude(
            x=np.array([0.0]),
            y=np.array([0.0]),
            z=np.array([0.5, 1.0]),
            values=np.full(
                (1, 1, 2), 1.0 / math.sqrt(2.0 * h * h * 0.5), dtype=complex
            ),
            spacings=(h, h, None),
        )
        zeta = CouplingFunction(
            omega=np.linspace(0.01, 60.0, 1200), values=np.ones(1200, dtype=complex)
        )
        weight = 1.0 / math.sqrt(2.0)
        ts = TrajectorySet(
            (Trajectory(z=0.5, amplitude=weight), Trajectory(z=1.0, amplitude=weight))
        )
        state = joint_state(DetectorSpec(frequencies=(1.0, 2.0)), ts, tol=1e-9)
        discrete_ratio = (state.excited_block[1, 2] / state.excited_block[1, 1]).real

        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)

        def panel_quad(f, lo, hi, n_panels):
            edges = np.linspace(lo, hi, n_panels + 1)
            half = 0.5 * np.diff(edges)
            mid = 0.5 * (edges[1:] + edges[:-1])
            t = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
            w = (half[:, None] * gl_weights[None, :]).ravel()
            return float(np.dot(w, f(t)))

        def phi(v):
            return math.pi**-0.25 * np.exp(-v * v / 2.0)

        pm = (0.0, 0.0, 1.0)
        pn = (0.0, 0.0, 0.5)

        def continuum_ratio(delta):
            def f_off(qs):
                return np.array(
                    [
                        (
                            continuum_joint_kernel(q, pm, pn, amp, zeta)
                            * phi((q - 1.0) / delta)
                            / math.sqrt(delta)
                            * phi((2.0 * q - 2.0) / delta)
                            / math.sqrt(delta)
                        ).real
                        for q in qs
                    ]
                )

            def f_diag(qs):
                return np.array(
                    [
                        (
                            continuum_joint_kernel(q, pm, pm, amp, zeta)
                            * (phi((q - 1.0) / delta) / math.sqrt(delta)) ** 2
                        ).real
                        for q in qs
                    ]
                )

            lo, hi = 1.0 - 12.0 * delta, 1.0 + 12.0 * delta
            return panel_quad(f_off, lo, hi, 8) / panel_quad(f_diag, lo, hi, 8)

        errors = [
            abs(continuum_ratio(delta) / discrete_ratio - 1.0)
            for delta in (0.05, 0.025, 0.0125)
        ]
        assert all(err < 0.01 for err in errors)
        assert errors[1] < errors[0] and errors[2] < errors[1]

"""Joint, reduced, and post-measurement internal matrices.

The measured-entry literals were assembled independently with mpmath
(mpmath Planck weights and the closed-form overlap factor, summed over
branch pairs at 40 digits).
"""

import math
import tracemalloc

import numpy as np
import pytest

from superthermal.detector import (
    BlockDensity,
    DetectorSpec,
    MeasurementBasisVector,
    compare_with_reference,
    joint_state,
    load_reference_matrix,
    measured_internal,
    neglog_matrix,
    paper_example,
    reduced_internal,
)
from superthermal.geometry import MU, Trajectory, TrajectorySet, validate_regime
from superthermal.specfun import lambda_overlap, planck_weight

RNG = np.random.default_rng(515253)

# Three equal-weight branches at z = (0.5, 1.0, 1.5), twelve unit-coupling
# levels omega_i = i, measured along the preparation amplitudes.
MEASURED_11 = 0.000833217648715946092218
MEASURED_12 = 0.00003565413952406601496424
NEGLOG_11 = 3.079241539661914724446
NEGLOG_77 = 10.45795881443162827351
NEGLOG_8_12 = 34.22778635527267164831
REDUCED_0 = 0.002499652946147838276654


def _three_branch_system():
    amp = 1.0 / math.sqrt(3.0)
    ts = TrajectorySet(
        tuple(Trajectory(z=z, amplitude=amp) for z in (0.5, 1.0, 1.5))
    )
    det = DetectorSpec(frequencies=tuple(float(i) for i in range(1, 13)))
    return det, ts


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(frequencies=())
    with pytest.raises(ValueError):
        DetectorSpec(frequencies=(1.0, 1.0))  # degenerate
    with pytest.raises(ValueError):
        DetectorSpec(frequencies=(2.0, 1.0))  # not increasing
    with pytest.raises(ValueError):
        DetectorSpec(frequencies=(0.0, 1.0))
    with pytest.raises(ValueError):
        DetectorSpec(frequencies=(1.0, 2.0), couplings=(1.0, 1.5))  # |zeta| > 1
    with pytest.raises(ValueError):
        DetectorSpec(frequencies=(1.0, 2.0), couplings=(1.0,))  # length mismatch
    det = DetectorSpec(frequencies=(1.0, 2.0))
    assert det.couplings == (1.0 + 0j, 1.0 + 0j)
    assert det.level_count == 2


def test_measurement_basis_validation():
    with pytest.raises(ValueError):
        MeasurementBasisVector(amplitudes=(1.0, 1.0))
    b = MeasurementBasisVector(amplitudes=(0.6, 0.8j))
    assert b.vector.shape == (2,)


def test_joint_state_ground_block_and_diag():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    amps = np.array(ts.amplitudes)
    assert np.allclose(rho.ground_block, np.outer(amps, amps.conj()), atol=1e-16)
    blocks = rho.excited_block.reshape(12, 3, 12, 3)
    for j, omega in enumerate(det.frequencies):
        for m, traj in enumerate(ts):
            want = abs(amps[m]) ** 2 * planck_weight(omega, traj.z) / (2.0 * math.pi)
            assert blocks[j, m, j, m].real == pytest.approx(want, rel=1e-15)


def test_joint_state_fills_only_admissible_pairs():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    blocks = rho.excited_block.reshape(12, 3, 12, 3)
    freqs = det.frequencies
    heights = ts.heights
    for j in range(12):
        for m in range(3):
            for i in range(12):
                for n in range(3):
                    entry = blocks[j, m, i, n]
                    aligned = abs(freqs[j] * heights[m] - freqs[i] * heights[n]) <= 1e-12
                    if m == n:
                        expected_nonzero = i == j
                    else:
                        expected_nonzero = aligned
                    assert (entry != 0) == expected_nonzero, (j, m, i, n)


def test_joint_state_is_hermitian_and_psd():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    excited = rho.excited_block
    assert np.array_equal(excited, excited.conj().T)  # exact, by construction
    eigvals = np.linalg.eigvalsh(excited)
    assert eigvals.min() >= -1e-10 * np.trace(excited).real


def test_equal_height_branches_keep_same_level_coherences():
    # Two branches at the same height separated only transversally are
    # trivially aligned level by level; the coherence must survive with
    # the on-axis transverse overlap factor.
    amp = 1.0 / math.sqrt(3.0)
    ts = TrajectorySet((
        Trajectory(z=0.5, amplitude=amp),
        Trajectory(z=1.0, amplitude=amp),
        Trajectory(z=1.0, x_perp=(0.3, 0.4), amplitude=amp),
    ))
    det = DetectorSpec(frequencies=(1.0, 2.0, 3.0))
    rho = joint_state(det, ts, tol=1e-9)
    blocks = rho.excited_block.reshape(3, 3, 3, 3)
    for lvl, omega in enumerate(det.frequencies):
        got = blocks[lvl, 1, lvl, 2]
        expected = (
            abs(amp) ** 2
            * lambda_overlap(omega, 0.0, 0.5)  # |dx_perp| = 0.5, z = 1
            * planck_weight(omega, 1.0)
            / (2.0 * math.pi)
        )
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-12)
    # Dropping these entries would leave an indefinite matrix; with them
    # the Gram structure is intact.
    excited = rho.excited_block
    assert np.array_equal(excited, excited.conj().T)
    eigvals = np.linalg.eigvalsh(excited)
    assert eigvals.min() >= -1e-10 * np.trace(excited).real


def test_measured_internal_reference_entries():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    basis = MeasurementBasisVector(amplitudes=ts.amplitudes)
    measured = measured_internal(rho, basis)
    assert measured.shape == (13, 13)
    assert measured[1, 1].real == pytest.approx(MEASURED_11, rel=1e-13)
    assert measured[1, 2].real == pytest.approx(MEASURED_12, rel=1e-13)
    assert measured[2, 1] == np.conj(measured[1, 2])
    # ground coefficient: |<B, A>|^2 = 1 for B = A
    assert measured[0, 0].real == pytest.approx(1.0, rel=1e-12)


def test_reduced_internal_and_partial_trace_consistency():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    reduced = reduced_internal(rho)
    assert reduced.shape == (12,)
    assert reduced[0] == pytest.approx(REDUCED_0, rel=1e-13)
    # summing the measured diagonal over any complete orthonormal branch
    # basis recovers the reduced diagonal
    rng = np.random.default_rng(77)
    random = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    unitary, _ = np.linalg.qr(random)
    total = np.zeros(12)
    for col in range(3):
        basis = MeasurementBasisVector(amplitudes=tuple(unitary[:, col]))
        measured = measured_internal(rho, basis)
        total += np.diag(measured)[1:].real
    assert np.allclose(total, reduced, rtol=0, atol=1e-12)


def test_measured_orthogonal_basis_kills_ground_term():
    amp = 1.0 / math.sqrt(2.0)
    ts = TrajectorySet(
        (Trajectory(z=0.5, amplitude=amp), Trajectory(z=1.0, amplitude=amp))
    )
    det = DetectorSpec(frequencies=(1.0, 2.0))
    rho = joint_state(det, ts, tol=1e-12)
    perp = MeasurementBasisVector(amplitudes=(amp, -amp))
    measured = measured_internal(rho, perp)
    assert measured[0, 0] == 0j


def test_single_trajectory_measured_is_diagonal():
    ts = TrajectorySet((Trajectory(z=0.7, amplitude=1.0),))
    det = DetectorSpec(frequencies=(1.0, 2.0, 3.5))
    rho = joint_state(det, ts, tol=1e-9)
    basis = MeasurementBasisVector(amplitudes=(1.0,))
    measured = measured_internal(rho, basis)
    excited = measured[1:, 1:]
    assert np.array_equal(excited, np.diag(np.diag(excited)))


def test_neglog_matrix_blanks_and_shapes():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    basis = MeasurementBasisVector(amplitudes=ts.amplitudes)
    measured = measured_internal(rho, basis)
    table = neglog_matrix(measured, det.level_count)
    assert table.shape == (12, 12)
    assert table[0, 0] == pytest.approx(NEGLOG_11, rel=1e-12)
    assert math.isnan(table[0, 6])  # no alignment between omega_1 and omega_7
    # the excited block alone gives the same table
    assert np.allclose(
        neglog_matrix(measured[1:, 1:], det.level_count),
        table,
        rtol=0,
        atol=0,
        equal_nan=True,
    )
    with pytest.raises(ValueError):
        neglog_matrix(measured[:5, :5], det.level_count)


def test_to_absolute_scaling_and_bound_warning():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    absolute = rho.to_absolute(epsilon=0.01, T=100.0)
    factor = 0.01**2 * 100.0
    assert np.allclose(absolute.excited_block, factor * rho.excited_block, rtol=1e-15)
    assert np.allclose(absolute.ground_block, rho.ground_block, rtol=0, atol=0)
    assert absolute.scale == "absolute"
    assert absolute.max_entry == pytest.approx(factor * rho.max_entry, rel=1e-15)
    assert rho.max_entry == np.max(np.abs(rho.excited_block))
    with pytest.raises(ValueError):
        absolute.to_absolute(epsilon=0.01, T=100.0)
    # the first-order bound epsilon^2 T x entry <= epsilon is a regime rule
    quiet = validate_regime(det, ts, 0.01, T=100.0, peak=rho.max_entry)
    assert not any(v.startswith("perturbative-bound") for v in quiet.violations)
    # a huge T pushes entries past it
    loud = validate_regime(det, ts, 0.2, T=1e6, peak=rho.max_entry)
    bound = [v for v in loud.violations if v.startswith("perturbative-bound:")]
    assert len(bound) == 1 and f"{0.04 * 1e6 * rho.max_entry:.3e}" in bound[0]
    # to_absolute only rescales; an entry it would overflow is an error
    hot = joint_state(det, TrajectorySet((Trajectory(z=1e-300, amplitude=1.0),)), tol=1e-9)
    with pytest.raises(OverflowError, match="epsilon\\^2 T x entry overflows"):
        hot.to_absolute(epsilon=0.9, T=1e308)
    with pytest.raises(ValueError, match="T must be positive and finite"):
        rho.to_absolute(epsilon=0.01, T=math.inf)


def test_thermal_floor_warning():
    ts = TrajectorySet((Trajectory(z=0.01, amplitude=1.0),))
    det = DetectorSpec(frequencies=(1.0, 2.0))
    rho = joint_state(det, ts, tol=1e-9)
    report = validate_regime(det, ts, 0.01, T=100.0, peak=rho.max_entry)
    floor = [v for v in report.violations if v.startswith("acceleration-too-high:")]
    assert len(floor) == 1 and f"omega_1*z_1 = 0.01 < mu = {MU:.6g}" in floor[0]
    # at the floor the rule is silent
    ts = TrajectorySet((Trajectory(z=MU, amplitude=1.0),))
    assert not validate_regime(det, ts, 0.01).violations


def test_block_density_rejects_non_hermitian_and_non_psd():
    good = joint_state(*_two_branch(), tol=1e-9)
    skew = good.excited_block.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValueError, match="excited_block is not Hermitian"):
        BlockDensity(ground_block=good.ground_block, excited_block=skew)
    negative = -good.excited_block
    with pytest.raises(ValueError, match="positive semidefinite"):
        BlockDensity(ground_block=good.ground_block, excited_block=negative)
    # the ground block goes through the same finiteness and Hermiticity check
    ground = good.ground_block.copy()
    ground[0, 1] += 1e-6
    with pytest.raises(ValueError, match="ground_block is not Hermitian"):
        BlockDensity(ground_block=ground, excited_block=good.excited_block)
    ground[0, 1] = np.nan
    with pytest.raises(ValueError, match="ground_block has non-finite entries"):
        BlockDensity(ground_block=ground, excited_block=good.excited_block)
    infinite = good.excited_block.copy()
    infinite[0, 0] = np.inf
    with pytest.raises(ValueError, match="excited_block has non-finite entries"):
        BlockDensity(ground_block=good.ground_block, excited_block=infinite)


def test_block_density_dense_input_gives_the_same_shells():
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    assert len(rho.shells) > 1 and max(s.members.size for s in rho.shells) > 1
    dense = BlockDensity(ground_block=rho.ground_block, excited_block=rho.excited_block)
    assert len(dense.shells) == len(rho.shells)
    for got, want in zip(dense.shells, rho.shells):
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.block, want.block)
    # the shells partition the composites, ordered by smallest member
    firsts = [int(s.members[0]) for s in rho.shells]
    assert firsts == sorted(firsts)
    members = np.sort(np.concatenate([s.members for s in rho.shells]))
    assert np.array_equal(members, np.arange(36))


def test_block_density_shells_input_is_validated():
    good = joint_state(*_two_branch(), tol=1e-9)
    shells = [(s.members, s.block) for s in good.shells]
    rebuilt = BlockDensity(ground_block=good.ground_block, shells=shells)
    assert np.array_equal(rebuilt.excited_block, good.excited_block)
    with pytest.raises(ValueError, match="partition"):
        BlockDensity(ground_block=good.ground_block, shells=shells + shells[:1])
    with pytest.raises(ValueError, match="positive semidefinite"):
        BlockDensity(
            ground_block=good.ground_block,
            shells=[(m, -b) for m, b in shells],
        )
    with pytest.raises(ValueError):
        BlockDensity(ground_block=good.ground_block)


def test_same_branch_levels_in_one_shell_stay_uncoupled():
    # omega = 1 and 1.001 on one branch: both products fall in one shell
    # at tol = 0.01, but a branch never pairs with itself.
    ts = TrajectorySet((Trajectory(z=1.0, amplitude=1.0),))
    det = DetectorSpec(frequencies=(1.0, 1.001))
    rho = joint_state(det, ts, tol=0.01)
    assert [list(s.members) for s in rho.shells] == [[0, 1]]
    excited = rho.excited_block
    assert excited[0, 1] == excited[1, 0] == 0.0
    assert excited[0, 0] > 0.0 and excited[1, 1] > 0.0


def test_lattice_state_at_dimension_1e4_stays_small():
    # 149 equally spaced levels on 67 branches at four lattice heights:
    # products omega_i z_m coincide in many-member shells.  The dense
    # excited block alone would take 1.6 GB.
    levels, branches = 149, 67
    w0, z0 = 100.0 / (levels * 4 * 0.6), 0.6
    rng = np.random.default_rng(9983)
    amps = rng.normal(size=branches) + 1j * rng.normal(size=branches)
    amps /= np.linalg.norm(amps)
    ts = TrajectorySet(
        Trajectory(z=z0 * (n % 4 + 1), x_perp=(0.01 * n, 0.0), amplitude=a)
        for n, a in enumerate(amps)
    )
    det = DetectorSpec(frequencies=tuple(w0 * (i + 1) for i in range(levels)))
    basis = MeasurementBasisVector(amplitudes=ts.amplitudes)
    tracemalloc.start()
    try:
        rho = joint_state(det, ts, tol=1e-9)
        reduced = reduced_internal(rho)
        measured = measured_internal(rho, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.level_count * rho.traj_count == 9983
    assert max(s.members.size for s in rho.shells) > 10
    assert peak < 100e6
    assert np.all(np.isfinite(reduced)) and np.all(np.isfinite(measured))
    assert np.allclose(np.diag(measured).real[1:].sum() + measured[0, 0].real,
                       np.trace(measured).real, rtol=1e-12)


def _two_branch():
    amp = 1.0 / math.sqrt(2.0)
    ts = TrajectorySet(
        (Trajectory(z=0.5, amplitude=amp), Trajectory(z=1.0, amplitude=amp))
    )
    det = DetectorSpec(frequencies=(1.0, 2.0))
    return det, ts


def test_paper_example_end_to_end():
    result = paper_example()
    assert result.detector.level_count == 12
    assert result.trajectories.heights == (0.5, 1.0, 1.5)
    assert result.tolerance == 1e-12
    assert result.neglog.shape == (12, 12)
    assert result.neglog[0, 0] == pytest.approx(NEGLOG_11, rel=1e-12)
    assert result.neglog[6, 6] == pytest.approx(NEGLOG_77, rel=1e-12)
    assert result.neglog[7, 11] == pytest.approx(NEGLOG_8_12, rel=1e-12)
    ok, problems = compare_with_reference(result.neglog)
    assert ok, problems


def test_paper_example_structure():
    result = paper_example()
    table = result.neglog
    present = ~np.isnan(table)
    assert present.sum() == 40
    assert np.array_equal(present, present.T)
    # the diagonal dominates its row and column (smallest neglog)
    for k in range(12):
        row = table[k][present[k]]
        assert table[k, k] <= row.min() + 1e-12
    # exactly seven frequency ratios are realized among printed entries
    ratios = set()
    for j in range(12):
        for i in range(12):
            if present[j, i]:
                ratios.add(round((j + 1) / (i + 1), 12))
    expected = {3.0, 2.0, 1.5, 1.0, round(2.0 / 3.0, 12), 0.5, round(1.0 / 3.0, 12)}
    assert ratios == expected


def test_reference_matrix_presence_pattern():
    reference = load_reference_matrix()
    assert reference.shape == (12, 12)
    present = ~np.isnan(reference)
    assert present.sum() == 40
    assert np.array_equal(present, present.T)
    assert np.all(present.diagonal())


def test_compare_with_reference_detects_perturbations():
    result = paper_example()
    ok, _ = compare_with_reference(result.neglog)
    assert ok
    bad = result.neglog.copy()
    bad[0, 0] += 1.0
    ok, problems = compare_with_reference(bad)
    assert not ok and problems
    # a blank where the reference prints a value is a structural mismatch
    bad = result.neglog.copy()
    bad[0, 1] = np.nan
    ok, problems = compare_with_reference(bad)
    assert not ok and problems

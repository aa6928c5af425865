"""Joint, reduced, and post-measurement internal matrices.

The measured-entry literals were assembled independently with mpmath
(mpmath Planck weights and the closed-form overlap factor, summed over
branch pairs at 40 digits).
"""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superthermal.detector import (
    BlockDensity,
    DetectorSpec,
    MeasurementBasisVector,
    NonPSDShellError,
    StateFactors,
    _hermitian_peak,
    _load_reference_matrix,
    _shell_groups,
    _validate_groups,
    assemble_state,
    compare_with_reference,
    joint_state,
    measured_internal,
    neglog_matrix,
    paper_example,
    reduced_internal,
)
from superthermal.geometry import MU, Trajectory, TrajectorySet, delta_xbar, delta_xi, validate_regime
from superthermal.io import block_density_from_dict, block_density_to_dict, format_json
from superthermal.specfun import lambda_overlap, planck_weight

from oracles import joint_state_dense

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


@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["str", "bool", "None"])
def test_detector_spec_refuses_text_bools_and_none_naming_the_field(bad):
    kind = type(bad).__name__
    with pytest.raises(ValueError, match=f"^frequencies\\[0\\]: could not convert {kind} to a number$"):
        DetectorSpec([bad, 2.0])
    with pytest.raises(ValueError, match=f"^couplings\\[1\\]: could not convert {kind} to a number$"):
        DetectorSpec([0.5, 2.0], [1.0, bad])
    with pytest.raises(ValueError, match="could not convert str"):
        DetectorSpec(["0.5", "2"])
    # numbers of any numeric type still convert
    det = DetectorSpec(np.arange(1, 3), [np.float32(0.5), np.complex64(0.5j)])
    assert det == DetectorSpec((1.0, 2.0), (0.5, 0.5j))


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


# Preparation A and measurement B of two nearly orthogonal four-branch
# systems, with |B.A|^2 from mpmath at 40 digits.  The quadratic form
# B^dagger (A A^dagger) B is 2e-12 relative off both.
NEAR_ORTHOGONAL = [
    (
        [(0.250791889492671, -0.11068560778858229), (0.2678625625863704, 0.24049108071036637),
         (0.2783584950489469, 0.21135894040480185), (0.6955997419337846, -0.4350296054560975)],
        [(0.22746076225502931, -0.45523818438402236), (-0.6197733154133227, 0.24323541432734933),
         (-0.2901793917050007, 0.3207750639163917), (-0.16237508027358216, -0.2902946436587815)],
        1.074348358931215428623688e-05,
    ),
    (
        [(-0.11207213447094898, -0.07618991601340364), (-0.13469178257849723, 0.5894992685566549),
         (0.08770781500299726, -0.39942873171671495), (-0.4831118832116293, 0.4640588380973703)],
        [(-0.29637255329772216, 0.3654678418140174), (0.37478954330974923, -0.4898834860100411),
         (0.17719218845785448, 0.13722652798696383), (-0.5415299465493267, 0.2337961932289648)],
        1.64472650600114540034811e-05,
    ),
]


@pytest.mark.parametrize("prepared, measured, want", NEAR_ORTHOGONAL, ids=["first", "second"])
def test_measured_ground_entry_is_the_branch_overlap_squared(prepared, measured, want):
    amps = [complex(*a) for a in prepared]
    ts = TrajectorySet(Trajectory(z=z, amplitude=a) for z, a in zip((1.0, 2.0, 3.0, 4.0), amps))
    rho = joint_state(DetectorSpec(frequencies=(1.0,)), ts, tol=1e-9)
    basis = MeasurementBasisVector(amplitudes=tuple(complex(*b) for b in measured))
    got = measured_internal(rho, basis)[0, 0]
    assert got.imag == 0.0
    # the rounding bound of a length-n dot product, relative to |B.A|^2
    n = len(amps)
    bound = 2 * n * np.finfo(float).eps * np.linalg.norm(basis.vector) * np.linalg.norm(amps) / math.sqrt(want)
    assert abs(got.real - want) <= bound * want


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
    # only the full matrix, ground row included, is accepted
    for part in (measured[1:, 1:], measured[:5, :5]):
        with pytest.raises(ValueError, match="13-square"):
            neglog_matrix(part, det.level_count)


def _refuse_validation(groups):
    raise AssertionError("the state is validated again")


def test_to_absolute_scaling_and_bound_warning(monkeypatch):
    det, ts = _three_branch_system()
    rho = joint_state(det, ts, tol=1e-12)
    # the state was checked where its entries were made; rescaling by
    # epsilon^2 T > 0 does not check it again
    with monkeypatch.context() as patch:
        patch.setattr("superthermal.detector._validate_groups", _refuse_validation)
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
    # square blocks, and an excited sector over whole (level, branch) composites
    with pytest.raises(ValueError, match="ground_block must be square"):
        BlockDensity(ground_block=good.ground_block[:1], excited_block=good.excited_block)
    with pytest.raises(ValueError, match="excited_block must be square"):
        BlockDensity(ground_block=good.ground_block, excited_block=good.excited_block[:-1])
    with pytest.raises(ValueError, match="excited sector must span"):
        BlockDensity(ground_block=good.ground_block, excited_block=good.excited_block[:-1, :-1])


@st.composite
def _shifted_gram_groups(draw):
    """Shell stacks that are Gram matrices, PSD by construction: of rank
    below their size (smallest eigenvalue 0) or lifted by 1/2 I.  Chosen
    stacks are then shifted by -c I, with c at most half or at least twice
    the tolerance 1e-10 x trace of the shifted sector, and every entry is
    scaled down by a factor that can make that tolerance subnormal or 0."""
    stacks, start = [], 0
    for _ in range(draw(st.integers(1, 3))):
        count, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        rank = draw(st.integers(0, k - 1))
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * count * k * rank, max_size=2 * count * k * rank))
        vectors = np.array(parts).view(complex).reshape(count, k, rank)
        gram = vectors @ vectors.conj().transpose(0, 2, 1)
        gram = (gram + gram.conj().transpose(0, 2, 1)) / 2.0 + draw(st.sampled_from((0.0, 0.5))) * np.eye(k)
        members = np.arange(start, start + count * k).reshape(count, k)
        stacks.append((members, gram, draw(st.booleans())))
        start += count * k
    ratio = draw(st.one_of(st.sampled_from((0.5, 2.0)), st.floats(0.0, 0.5), st.floats(2.0, 1e4)))
    scale = draw(st.sampled_from((1.0, 1e-290, 1e-300, 1e-312, 1e-318)))
    trace = sum(float(np.trace(g, axis1=1, axis2=2).real.sum()) for _, g, _ in stacks)
    shifted = sum(g.shape[0] * g.shape[1] for _, g, shift in stacks if shift)
    # c = ratio x 1e-10 x (trace - c x shifted size), solved for c
    c = ratio * 1e-10 * trace / (1.0 + ratio * 1e-10 * shifted)
    return [(members, scale * (g - shift * c * np.eye(g.shape[1]))) for members, g, shift in stacks]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(groups=_shifted_gram_groups())
def test_shell_check_agrees_with_eigvalsh(groups):
    trace = sum(float(np.trace(b, axis1=1, axis2=2).real.sum()) for _, b in groups)
    tolerance = 1e-10 * max(trace, 0.0)
    lowest = [np.linalg.eigvalsh(b)[:, 0] for _, b in groups]
    failing = [g for g, low in enumerate(lowest) if low.min() < -tolerance]
    checked = failing[0] + 1 if failing else len(groups)
    calls = {"cholesky": 0, "eigvalsh": 0}

    def counted(name, real):
        def call(a):
            calls[name] += 1
            return real(a)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        if failing:
            with pytest.raises(NonPSDShellError) as info:
                _validate_groups(groups)
        else:
            assert _validate_groups(groups) is None
    # the dense entrance's peak, taken before the shell check
    assert _hermitian_peak([b for _, b in groups], "excited_block") == max(float(np.max(np.abs(b))) for _, b in groups)
    if failing:
        # the message and the shell it names are eigvalsh's
        low = lowest[failing[0]]
        assert f"min eigenvalue {low.min():.3e} against trace {trace:.3e}" in str(info.value)
        assert np.array_equal(info.value.members, groups[failing[0]][0][np.argmin(low)])
    if sys.float_info.min <= tolerance:
        # a stack that passes by a margin passes its Cholesky test, and only
        # the failing one goes on to eigvalsh
        assert calls == {"cholesky": checked, "eigvalsh": int(bool(failing))}
    else:
        # a subnormal or zero shift cannot move a subnormal entry: every
        # stack goes to eigvalsh
        assert calls == {"cholesky": 0, "eigvalsh": checked}


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


@pytest.mark.parametrize(
    "frequencies, branches, tol, shells",
    [
        # one branch: both products lie within tol, no coherence joins them
        ((1.0, 1.001), ((1.0, 1.0),), 0.01, [[0], [1]]),
        # q = 1.0 and 1.005 align across the branches; 1.012 lies within
        # tol of 1.005 but on its branch, and 0.012 from 1.0
        ((1.0, 2.01, 2.024), ((0.5, 0.6), (1.0, 0.8)), 0.01, [[0], [1, 2], [3], [4], [5]]),
    ],
)
def test_every_entrance_gives_the_same_shells(frequencies, branches, tol, shells):
    ts = TrajectorySet(
        Trajectory(z=z, x_perp=(0.3 * k, 0.0), amplitude=a) for k, (z, a) in enumerate(branches)
    )
    det = DetectorSpec(frequencies=frequencies)
    rho = joint_state(det, ts, tol)
    assert [s.members.tolist() for s in rho.shells] == shells
    text = format_json(block_density_to_dict(rho, det.frequencies, ts))
    back = block_density_from_dict(json.loads(text))[0]
    dense = BlockDensity(ground_block=rho.ground_block, excited_block=rho.excited_block)
    for other in (back, dense):
        assert len(other.shells) == len(rho.shells)
        for got, want in zip(other.shells, rho.shells):
            assert np.array_equal(got.members, want.members)
            assert np.array_equal(got.block, want.block)


def _components_by_size(dim, rows, cols):
    """The documented shell stacking, one composite at a time: the
    connected components of the pairs, members ascending, shells by
    smallest member, grouped by size in order of each size's first shell."""
    root = list(range(dim))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in zip(rows, cols):
        root[find(a)] = find(b)
    shells = {}
    for a in range(dim):
        shells.setdefault(find(a), []).append(a)
    by_size = {}
    for shell in sorted(shells.values()):
        by_size.setdefault(len(shell), []).append(shell)
    return list(by_size.values())


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 40), data=st.data())
def test_shell_groups_are_the_components_stacked_by_size(dim, data):
    # random pair graphs, self-pairs and repeats included; with at most
    # dim pairs some composites stay isolated
    pairs = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=dim))
    rows = np.array([a for a, _ in pairs], dtype=np.int64)
    cols = np.array([b for _, b in pairs], dtype=np.int64)
    groups = _shell_groups(dim, rows, cols)
    assert [g.tolist() for g in groups] == _components_by_size(dim, rows.tolist(), cols.tolist())
    assert all(g.dtype == np.int64 and not g.flags.writeable for g in groups)


def _lattice_36x17():
    """A lattice like the benchmark's: 36 levels on 17 branches at four
    heights, several branches per height, so shells of many sizes."""
    levels, branches = 36, 17
    amps = np.array([1.0 + 0.5j * (n % 2) for n in range(branches)])
    amps /= np.linalg.norm(amps)
    ts = TrajectorySet(
        Trajectory(z=0.5 * (n % 4 + 1), x_perp=(0.25 * (n // 4), 0.1 * (n % 3)), amplitude=a)
        for n, a in enumerate(amps)
    )
    det = DetectorSpec(frequencies=tuple(0.125 * (i + 1) for i in range(levels)),
                       couplings=tuple(0.5 + 0.4j * (i % 3 - 1) for i in range(levels)))
    return det, ts, joint_state(det, ts, tol=1e-9)


def test_lattice_shells_are_the_components_and_read_back():
    det, ts, rho = _lattice_36x17()
    levels, branches = rho.level_count, rho.traj_count
    pairs = rho.factors.pairs
    groups = [members.tolist() for members, _ in rho._groups]
    assert groups == _components_by_size(levels * branches, pairs[:, 0].tolist(), pairs[:, 1].tolist())
    assert len(groups) >= 5
    brute = np.array(
        joint_state_dense(det.frequencies, det.couplings, [(t.z, *t.x_perp, t.amplitude) for t in ts], 1e-9),
        dtype=complex,
    )
    excited = rho.excited_block
    assert np.array_equal(excited != 0.0, brute != 0.0)
    assert np.max(np.abs(excited - brute)) <= 1e-15 * np.max(np.abs(brute))
    back = block_density_from_dict(json.loads(format_json(block_density_to_dict(rho, det.frequencies, ts))))[0]
    assert len(back._groups) == len(rho._groups)
    for (got_members, got), (want_members, want) in zip(back._groups, rho._groups):
        assert np.array_equal(got_members, want_members) and np.array_equal(got, want)


def _ratio_edge():
    """Two branches whose height ratio, 1e309, is past the float range, so
    cosh of their separation overflows; one aligned pair, q = 1e-3."""
    amp = 1.0 / math.sqrt(2.0)
    ts = TrajectorySet((Trajectory(z=1e-160, amplitude=amp), Trajectory(z=1e149, amplitude=amp)))
    det = DetectorSpec(frequencies=(1e-152, 1e157))
    return det, ts, joint_state(det, ts, tol=0.01)


@pytest.mark.parametrize("system", [_lattice_36x17, _ratio_edge], ids=["lattice_36x17", "ratio"])
def test_overlaps_are_lambda_of_each_pairs_scalar_geometry(system):
    # Lambda's geometry is taken once per branch pair; each overlap must be
    # lambda_overlap of its own pair's q and scalar separations, bit for bit.
    det, ts, rho = system()
    n_traj = rho.traj_count
    want = []
    for lower, upper in rho.factors.pairs.tolist():
        m, n = ts[lower % n_traj], ts[upper % n_traj]
        want.append(lambda_overlap(det.frequencies[lower // n_traj] * m.z, delta_xi(m, n), delta_xbar(m, n)))
    assert want
    assert np.array_equal(np.array(want).view(np.uint64), rho.factors.overlaps.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    levels=st.integers(1, 6),
    heights=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    scale=st.floats(0.05, 40.0),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=22, max_size=22),
)
def test_factor_built_blocks_are_hermitian_and_peak_is_max_entry(levels, heights, scale, parts):
    # a lattice, so products align across branches and shells have many
    # members; amplitudes and couplings complex.  The factor entrance takes
    # Hermiticity from its construction and its peak from the factors.
    amps = np.array(parts[:10]).view(complex)[: len(heights)]
    assume(np.linalg.norm(amps) > 0.1)
    amps /= np.linalg.norm(amps)
    ts = TrajectorySet(
        Trajectory(z=0.5 * k, x_perp=(0.3 * n, 0.0), amplitude=a) for n, (k, a) in enumerate(zip(heights, amps))
    )
    couplings = np.array(parts[10:]).view(complex)[:levels] / math.sqrt(2.0)
    det = DetectorSpec(frequencies=tuple(scale * (i + 1) for i in range(levels)), couplings=tuple(couplings))
    rho = joint_state(det, ts, tol=1e-9)
    back = block_density_from_dict(json.loads(format_json(block_density_to_dict(rho, det.frequencies, ts))))[0]
    for state in (rho, back):
        blocks = [b for _, b in state._groups]
        assert all(np.array_equal(b, b.conj().transpose(0, 2, 1)) for b in blocks)
        assert state.max_entry == max(float(np.max(np.abs(b))) for b in blocks)


def test_assemble_state_refuses_non_finite_products():
    det, ts, rho = _lattice_36x17()
    factors = rho.factors
    infinite = factors.overlaps.copy()
    infinite[3] = np.inf
    # inf times a complex phase with a zero part is NaN
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="excited_block has non-finite entries"):
        assemble_state(factors._replace(overlaps=infinite))
    # a Planck weight near the float range times a coupling above 1
    huge = StateFactors(
        amplitudes=np.array([1.0 + 0j]), couplings=np.array([2.0 + 0j]),
        planck_weights=np.array([1e308]), pairs=np.zeros((0, 2), dtype=np.int64), overlaps=np.zeros(0),
    )
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="excited_block has non-finite entries"):
        assemble_state(huge)


def test_measured_internal_sums_like_add_at_bit_for_bit():
    # branches n and n + 4 share a height, so a shell holds one level on
    # two branches and its measured cell recurs; a basis with zero and
    # imaginary entries gives terms of both signs in both parts
    det, ts, rho = _lattice_36x17()
    level_rows = [row for members, _ in rho._groups for row in (members // rho.traj_count).tolist()]
    assert any(len(set(row)) < len(row) for row in level_rows)
    b = np.array([(0.3, 0.0, -0.2j, 0.1 - 0.4j)[n % 4] for n in range(rho.traj_count)])
    basis = MeasurementBasisVector(amplitudes=tuple(b / np.linalg.norm(b)))
    got = measured_internal(rho, basis)
    want = np.zeros_like(got)
    want[0, 0] = got[0, 0]
    b = basis.vector
    for members, blocks in rho._groups:
        level, branch = np.divmod(members, rho.traj_count)
        terms = b[branch].conj()[:, :, None] * blocks * b[branch][:, None, :]
        np.add.at(want, (1 + level[:, :, None], 1 + level[:, None, :]), terms)
    assert np.signbit(want.real).any() and np.signbit(want.imag).any()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_same_branch_levels_in_one_shell_stay_uncoupled():
    # omega = 1 and 1.001 on one branch: both products lie within
    # tol = 0.01, but a branch never pairs with itself, so no coherence
    # joins them and each is a shell of its own.
    ts = TrajectorySet((Trajectory(z=1.0, amplitude=1.0),))
    det = DetectorSpec(frequencies=(1.0, 1.001))
    rho = joint_state(det, ts, tol=0.01)
    assert [list(s.members) for s in rho.shells] == [[0], [1]]
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
    reference = _load_reference_matrix()
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

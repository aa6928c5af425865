"""Property tests of the joint state over random detectors and branch sets.

Systems draw 1-6 levels and 1-4 branches on a lattice of boost energies
q = omega z up to 200, so that branches share heights and many pairs
align; each height is then jittered by a relative amount that keeps
every aligned pair within a quarter of the tolerance on each side.  The
expected reduced populations are assembled in mpmath from the Planck
mixture, and the expected excited block entry by entry in plain floats
(``oracles.joint_state_dense``), independently of the package.  Each
state also round-trips through its ``joint_state/3`` text.  The aligned
pairs are also enumerated one by one on systems whose products straddle
the tolerance.  Rescaling lengths by 4^k and frequencies by 4^-k must
leave the overlaps bit for bit and scale every excited entry by exactly
4^-k.  Conjugating the amplitudes, couplings and measured superposition
must conjugate the measured matrix bit for bit (up to the sign of a zero
part) and leave the Planck weights and populations as they are.
"""

import itertools
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import joint_state_dense

from superthermal import detector
from superthermal.detector import (
    DetectorSpec,
    MeasurementBasisVector,
    joint_state,
    measured_internal,
    reduced_internal,
)
from superthermal.geometry import Trajectory, TrajectorySet, coherence_condition
from superthermal.io import block_density_from_dict, block_density_to_dict, format_json

_HEIGHT_STEPS = (0.5, 1.0, 1.5, 2.0)
_MAX_LEVEL_STEP = 12


def _unit(draw, n):
    parts = draw(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=n,
            max_size=n,
        )
    )
    vec = [complex(re, im) for re, im in parts]
    norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
    if norm < 1e-3:
        return [complex(1.0 / math.sqrt(n))] * n
    return [v / norm for v in vec]


@st.composite
def systems(draw):
    q_max = draw(st.floats(0.5, 200.0))
    tol = draw(st.sampled_from((1e-9, 1e-6, 1e-3)))
    n_lvl = draw(st.integers(1, 6))
    n_br = draw(st.integers(1, 4))
    # omega = k f0 and z = h z0 with f0 z0 = q_max / (12 * 2): every
    # product is a multiple of f0 z0 / 2 and at most q_max.
    f0 = draw(st.floats(0.1, 10.0))
    z0 = q_max / (_MAX_LEVEL_STEP * _HEIGHT_STEPS[-1] * f0)
    steps = draw(
        st.lists(st.integers(1, _MAX_LEVEL_STEP), min_size=n_lvl, max_size=n_lvl, unique=True)
    )
    frequencies = tuple(sorted(k * f0 for k in steps))
    couplings = tuple(c * draw(st.floats(0.1, 1.0)) for c in _unit(draw, n_lvl))
    jitter = tol / (4.0 * q_max)
    positions = set()
    for _ in range(n_br):
        h = draw(st.sampled_from(_HEIGHT_STEPS))
        z = h * z0 * (1.0 + draw(st.floats(-jitter, jitter)))
        x = draw(st.sampled_from((0.0, 0.0, 0.3, -1.2)))
        y = draw(st.sampled_from((0.0, 0.4)))
        positions.add((z, x, y))
    amps = _unit(draw, len(positions))
    trajectories = TrajectorySet(
        Trajectory(z=z, x_perp=(x, y), amplitude=a)
        for (z, x, y), a in zip(sorted(positions), amps)
    )
    return DetectorSpec(frequencies=frequencies, couplings=couplings), trajectories, tol


def _planck_mixture(det, trajectories):
    with mp.workdps(40):
        out = []
        for omega, zeta in zip(det.frequencies, det.couplings):
            total = mp.mpf(0)
            for traj in trajectories:
                w = mp.mpf(omega)
                total += abs(traj.amplitude) ** 2 * abs(zeta) ** 2 * w / mp.expm1(
                    2 * mp.pi * w * mp.mpf(traj.z)
                )
            out.append(float(total / (2 * mp.pi)))
        return out


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(systems())
def test_joint_state_is_physical_and_reduces_to_planck_mixture(system):
    det, trajectories, tol = system
    # BlockDensity construction inside joint_state checks Hermiticity and
    # positive semidefiniteness.
    rho = joint_state(det, trajectories, tol)
    assert np.all(np.isfinite(rho.excited_block))
    assert np.all(np.isfinite(rho.ground_block))
    reduced = reduced_internal(rho)
    for got, want in zip(reduced, _planck_mixture(det, trajectories)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)

    # The shells are the connected components of the brute-force block's
    # pattern, ordered by smallest member: its diagonal and every
    # cross-branch pair that passes the alignment test, decided here entry
    # by entry.  (Its nonzero pattern can miss an aligned pair whose entry
    # is 0: a zero amplitude, or Planck weights that underflow above
    # q ~ 118.)
    brute = np.array(
        joint_state_dense(
            det.frequencies,
            det.couplings,
            [(t.z, *t.x_perp, t.amplitude) for t in trajectories],
            tol,
        ),
        dtype=complex,
    )
    root = list(range(brute.shape[0]))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    n_br = len(trajectories)
    products = [w * t.z for w in det.frequencies for t in trajectories]
    for a, b in itertools.combinations(range(len(products)), 2):
        if a % n_br != b % n_br and abs(products[b] - products[a]) <= tol:
            root[find(a)] = find(b)
    components = {}
    for a in range(brute.shape[0]):
        components.setdefault(find(a), []).append(a)
    assert sorted(components.values()) == [s.members.tolist() for s in rho.shells]
    # No shell crosses a run of the sorted products omega_j z_m between
    # gaps wider than tol, and the brute-force block is zero across shells.
    q = np.multiply.outer(det.frequencies, trajectories.heights).ravel()
    order = np.argsort(q, kind="stable")
    run = np.empty(q.size, dtype=int)
    for k, members in enumerate(np.split(order, np.flatnonzero(np.diff(q[order]) > tol) + 1)):
        run[members] = k
    assert all(np.all(run[s.members] == run[s.members[0]]) for s in rho.shells)
    label = np.empty(q.size, dtype=int)
    for k, shell in enumerate(rho.shells):
        label[shell.members] = k
    across = label[:, None] != label[None, :]
    excited = rho.excited_block
    assert np.all(brute[across] == 0.0) and np.all(excited[across] == 0.0)
    # its joint_state/3 text reads back to the same state, bit for bit
    text = format_json(block_density_to_dict(rho, det.frequencies, trajectories))
    back, _, _ = block_density_from_dict(json.loads(text))
    assert np.array_equal(back.excited_block, excited)
    assert np.array_equal(back.ground_block, rho.ground_block)
    scale = np.max(np.abs(brute))
    assert np.max(np.abs(excited - brute)) <= 1e-15 * scale

    # Both reductions agree with the dense contractions of the brute block.
    n_lvl, n_br = det.level_count, len(trajectories)
    blocks = brute.reshape(n_lvl, n_br, n_lvl, n_br)
    assert np.allclose(reduced, np.einsum("inin->i", blocks).real, rtol=0, atol=1e-15 * scale)
    basis = MeasurementBasisVector(amplitudes=trajectories.amplitudes[::-1])
    b = basis.vector
    measured = measured_internal(rho, basis)[1:, 1:]
    want = np.einsum("m,jmin,n->ji", b.conj(), blocks, b)
    assert np.max(np.abs(measured - want)) <= 1e-15 * scale


@st.composite
def near_aligned_systems(draw):
    """Lattice systems whose heights are jittered by up to 2.5 tol / q_max
    relative, or not at all, so that aligned products tie exactly or
    differ by up to about 5 tol: across the alignment test's edge and the
    pair search's window of 2 tol.  At tol = 0.05 two levels of one branch
    can align too."""
    q_max = draw(st.floats(0.5, 200.0))
    tol = draw(st.sampled_from((1e-9, 1e-6, 1e-3, 0.05)))
    f0 = draw(st.floats(0.1, 10.0))
    z0 = q_max / (_MAX_LEVEL_STEP * _HEIGHT_STEPS[-1] * f0)
    steps = draw(st.lists(st.integers(1, _MAX_LEVEL_STEP), min_size=1, max_size=8, unique=True))
    jitter = st.one_of(st.just(0.0), st.floats(-2.5, 2.5).map(lambda d: d * tol / q_max))
    positions = {
        (draw(st.sampled_from(_HEIGHT_STEPS)) * z0 * (1.0 + draw(jitter)), draw(st.sampled_from((0.0, 0.3))))
        for _ in range(draw(st.integers(1, 5)))
    }
    return DetectorSpec(frequencies=tuple(sorted(k * f0 for k in steps))), _branches(positions), tol


def _branches(positions):
    amp = 1.0 / math.sqrt(len(positions))
    return TrajectorySet(Trajectory(z=z, x_perp=(x, 0.0), amplitude=amp) for z, x in sorted(positions))


# heights 1, 1 (a tie), 1.15 (1.5 tol off) and 1.25 and 1.35 (tol apart,
# to rounding), and two levels that align on each branch
@example(system=(
    DetectorSpec(frequencies=(1.0, 1.05)),
    _branches({(1.0, 0.0), (1.0, 0.3), (1.15, 0.0), (1.25, 0.0), (1.35, 0.0)}),
    0.1,
))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(system=near_aligned_systems())
def test_pair_search_matches_brute_force_enumeration(system):
    det, trajectories, tol = system
    n_br = len(trajectories)
    composites = [(omega, t.z) for omega in det.frequencies for t in trajectories]
    brute = [
        [a, b]
        for a, (omega_j, z_m) in enumerate(composites)
        for b, (omega_i, z_n) in enumerate(composites)
        if a < b and a % n_br != b % n_br and coherence_condition(omega_i, z_n, omega_j, z_m, tol)
    ]
    # The factors of the pair search, before the shells are assembled and
    # checked: a non-transitive alignment chain has pairs too.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, "assemble_state", lambda factors: factors)
        factors = joint_state(det, trajectories, tol)
    assert factors.pairs.tolist() == brute


def _lattice_unit(draw, n):
    """A unit vector of ``n`` complex entries with small integer parts, so
    that no entry is subnormal."""
    parts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=n, max_size=n))
    vec = [complex(re, im) for re, im in parts]
    norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
    if norm == 0.0:
        return [complex(1.0 / math.sqrt(n))] * n
    return [v / norm for v in vec]


@st.composite
def covariance_systems(draw):
    """Lattice systems of 1-6 levels on 1-5 branches with complex
    amplitudes and couplings and transverse offsets.  Products q = omega z
    stay below 48 and offsets below a few heights, so no Planck weight,
    overlap or entry comes near the subnormal range."""
    tol = draw(st.sampled_from((1e-9, 1e-6, 1e-3)))
    f0 = draw(st.floats(0.1, 10.0))
    z0 = draw(st.floats(0.05, 1.0)) / f0
    steps = draw(st.lists(st.integers(1, _MAX_LEVEL_STEP), min_size=1, max_size=6, unique=True))
    couplings = tuple(c * draw(st.sampled_from((0.25, 0.5, 1.0))) for c in _lattice_unit(draw, len(steps)))
    det = DetectorSpec(frequencies=tuple(sorted(k * f0 for k in steps)), couplings=couplings)
    keys = draw(st.lists(
        st.tuples(st.sampled_from(_HEIGHT_STEPS), st.sampled_from((0.0, 0.3, -1.2)), st.sampled_from((0.0, 0.4))),
        min_size=1, max_size=5, unique=True,
    ))
    amps = _lattice_unit(draw, len(keys))
    trajectories = TrajectorySet(
        Trajectory(z=h * z0, x_perp=(x * z0, y * z0), amplitude=a) for (h, x, y), a in zip(keys, amps)
    )
    return det, trajectories, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(system=covariance_systems(), k=st.sampled_from((-4, -2, 2, 6)))
def test_state_is_scale_covariant_bit_for_bit(system, k):
    # z -> s z, x_perp -> s x_perp and omega -> omega / s leave q, dxi and
    # dxbar unchanged and scale every Planck weight P = omega/expm1(2 pi q)
    # by 1/s.  With s a power of 4, each of these is exact in floating
    # point, and so is sqrt(P / s) = sqrt(P) / 2^k: every excited entry
    # scales by 1/s exactly (an odd power of 2 would not give that root).
    det, trajectories, tol = system
    s = 4.0**k
    scaled_det = DetectorSpec(tuple(w / s for w in det.frequencies), det.couplings)
    scaled_trajectories = TrajectorySet(
        Trajectory(z=s * t.z, x_perp=(s * t.x_perp[0], s * t.x_perp[1]), amplitude=t.amplitude)
        for t in trajectories
    )
    rho, scaled = joint_state(det, trajectories, tol), joint_state(scaled_det, scaled_trajectories, tol)
    assert scaled.factors.pairs.tobytes() == rho.factors.pairs.tobytes()
    assert scaled.factors.overlaps.tobytes() == rho.factors.overlaps.tobytes()
    assert scaled.factors.planck_weights.tobytes() == (rho.factors.planck_weights / s).tobytes()
    assert reduced_internal(scaled).tobytes() == (reduced_internal(rho) / s).tobytes()
    # complex entries as their float parts: a complex quotient can flip the
    # sign of a zero part
    assert scaled.excited_block.tobytes() == (rho.excited_block.view(float) / s).tobytes()
    basis = MeasurementBasisVector(amplitudes=trajectories.amplitudes[::-1])
    measured, scaled_measured = measured_internal(rho, basis), measured_internal(scaled, basis)
    assert scaled_measured[0, 0] == measured[0, 0]
    assert scaled_measured[1:, 1:].tobytes() == (measured[1:, 1:].copy().view(float) / s).tobytes()


@st.composite
def conjugation_cases(draw):
    """A covariance system and a measured superposition B of its branches."""
    det, trajectories, tol = draw(covariance_systems())
    return det, trajectories, tol, _lattice_unit(draw, len(trajectories))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=conjugation_cases())
def test_conjugating_amplitudes_couplings_and_basis_conjugates_the_measured_matrix(case):
    # Every entry is a product of the amplitudes, couplings and basis
    # entries, or of their conjugates, with real P and Lambda; a complex
    # product and a sum round the same way for (a, b) and (a, -b), so the
    # conjugated system gives the conjugated matrix to the last bit.  Only
    # the sign of a zero part may differ (x - x is +0.0 either way), so both
    # sides are compared after adding +0.0, which maps -0.0 to +0.0.
    det, trajectories, tol, basis = case
    conj_det = DetectorSpec(det.frequencies, tuple(c.conjugate() for c in det.couplings))
    conj_trajectories = TrajectorySet(
        Trajectory(z=t.z, x_perp=t.x_perp, amplitude=t.amplitude.conjugate()) for t in trajectories
    )
    rho, conj = joint_state(det, trajectories, tol), joint_state(conj_det, conj_trajectories, tol)
    assert conj.factors.pairs.tobytes() == rho.factors.pairs.tobytes()
    assert conj.factors.overlaps.tobytes() == rho.factors.overlaps.tobytes()
    assert conj.factors.planck_weights.tobytes() == rho.factors.planck_weights.tobytes()
    assert reduced_internal(conj).tobytes() == reduced_internal(rho).tobytes()
    measured = measured_internal(rho, MeasurementBasisVector(amplitudes=tuple(basis)))
    conj_measured = measured_internal(conj, MeasurementBasisVector(amplitudes=tuple(b.conjugate() for b in basis)))
    assert (conj_measured.view(float) + 0.0).tobytes() == (measured.conj().view(float) + 0.0).tobytes()

r"""Perturbative density matrices of a multilevel system on superposed branches.

A detector with internal levels :math:`\omega_1 < \omega_2 < \dots` and
coupling amplitudes :math:`\zeta_i` rides a superposition of uniformly
accelerated branches with amplitudes :math:`A_n`.  To second order in the
coupling :math:`\varepsilon`, and per unit :math:`\varepsilon^2 T`, the
excited sector of the joint (internal :math:`\otimes` branch) state is

.. math::
    \rho_{(j,m),(i,n)} = \frac{1}{2\pi}\,A_n^* A_m\,\zeta_i^*\zeta_j\,
    \Lambda^{ij}_{nm}\,\sqrt{P_{in} P_{jm}},
    \qquad P_{jm} = \frac{\omega_j}{e^{2\pi q_{jm}} - 1},
    \quad q_{jm} = \omega_j z_m,

populated on the diagonal (:math:`n=m,\ i=j`, where
:math:`\Lambda = 1`) and on cross-branch, cross-level pairs whose boost
energies align, :math:`|\omega_j z_m - \omega_i z_n| \le \mathrm{tol}`.
For exactly aligned pairs the Planck factor is
:math:`\sqrt{\omega_i\omega_j}/(e^{2\pi q_{jm}} - 1)`.
The diagonal is a Planck distribution at the branch's local Unruh
temperature; the aligned off-diagonal entries are the coherences that
distinguish a superposition of thermal states from their mixture.

Since only aligned composites couple, the excited sector is exactly
block-diagonal over boost-energy *shells*: the runs of the sorted products
:math:`q_{jm}` between gaps wider than ``tol``.  :class:`BlockDensity`
stores one small Hermitian block per shell and checks each on its own,
:func:`joint_state` assembles all shells in one vectorised pass, and the
reductions below work shell by shell.  The dense matrix is built only
on request (``BlockDensity.excited_block``).

Tracing out the branch index leaves a weighted mixture of Planck spectra
(:func:`reduced_internal`); conditioning on a branch measurement outcome
``B`` instead leaves an internal state whose coherences survive
(:func:`measured_internal`).  :func:`paper_example` assembles the
published three-branch, twelve-level case and its
:math:`-\log_{10}` magnitude table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .geometry import Trajectory, TrajectorySet, coherence_condition, delta_xbar, delta_xi
from .specfun import lambda_overlap, planck_weight

__all__ = [
    "DetectorSpec",
    "MeasurementBasisVector",
    "BlockDensity",
    "Shell",
    "NonPSDShellError",
    "PaperExampleResult",
    "joint_state",
    "reduced_internal",
    "measured_internal",
    "neglog_matrix",
    "paper_example",
    "load_reference_matrix",
    "compare_with_reference",
]

_HERMITICITY_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class DetectorSpec:
    """Internal spectrum and couplings of the detector.

    ``frequencies`` must be strictly increasing and positive (a
    degenerate spectrum would merge the diagonal and coherence roles of
    level pairs, which this model keeps distinct); couplings satisfy
    :math:`|\\zeta_i| \\le 1` so the interaction stays at its nominal
    perturbative order.
    """

    frequencies: tuple[float, ...]
    couplings: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        freqs = tuple(float(w) for w in self.frequencies)
        if not freqs:
            raise ValueError("DetectorSpec requires at least one level")
        if freqs[0] <= 0.0 or any(not math.isfinite(w) for w in freqs):
            raise ValueError("frequencies must be positive and finite")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if self.couplings is None:
            coup = tuple(1.0 + 0.0j for _ in freqs)
        else:
            coup = tuple(complex(c) for c in self.couplings)
            if len(coup) != len(freqs):
                raise ValueError(
                    f"{len(freqs)} frequencies but {len(coup)} couplings"
                )
            if any(abs(c) > 1.0 + 1e-12 for c in coup):
                raise ValueError("couplings must satisfy |zeta| <= 1")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "couplings", coup)

    @property
    def level_count(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class MeasurementBasisVector:
    """Normalized amplitudes of one outcome of a branch-basis measurement."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = tuple(complex(b) for b in self.amplitudes)
        if not amps:
            raise ValueError("measurement vector must be non-empty")
        norm = sum(abs(b) ** 2 for b in amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(
                f"measurement amplitudes must satisfy sum |B|^2 = 1, got {norm!r}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


class Shell(NamedTuple):
    """One boost-energy shell of the excited block: its composite flat
    indices in ascending order and its Hermitian block over them."""

    members: np.ndarray
    block: np.ndarray


class NonPSDShellError(ValueError):
    """A shell of the excited block is not positive semidefinite.

    ``members`` holds the shell's composite flat indices.
    """

    def __init__(self, message: str, members: np.ndarray) -> None:
        super().__init__(message)
        self.members = members


def _dense_shells(excited: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a dense excited block into the connected components of its
    nonzero pattern, each with its sub-block."""
    rows, cols = np.nonzero(excited)
    labels = np.arange(excited.shape[0])
    # Spread the smallest index along nonzero entries until every entry
    # joins equal labels: each component ends up labelled by its minimum.
    while True:
        low = np.minimum(labels[rows], labels[cols])
        spread = labels.copy()
        np.minimum.at(spread, rows, low)
        np.minimum.at(spread, cols, low)
        if np.array_equal(spread, labels):
            break
        labels = spread
    order = np.argsort(labels, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return [(members, excited[np.ix_(members, members)]) for members in runs]


class BlockDensity:
    """Block-diagonal joint state: ground and excited sectors.

    ``ground_block`` is the branch-space coefficient matrix of the
    unexcited internal state (for a pure branch superposition it is the
    rank-1 outer product :math:`A A^\\dagger`).  The excited sector lives
    on composite (level, branch) indices, flattened as
    ``level_index * branch_count + branch_index``, and is block-diagonal
    over boost-energy shells: ``shells`` holds one :class:`Shell` per
    block, ordered by smallest member, and together the shells partition
    the composite indices.  ``excited_block`` builds the dense matrix on
    request.

    The excited sector is given either as ``shells`` (pairs of member
    indices and blocks) or as a dense ``excited_block``, which is split
    into the connected components of its nonzero pattern.  Either way
    each shell is checked for Hermiticity against the largest entry of
    the whole sector, ``max_entry``, and for positive semidefiniteness
    against its whole trace; the ground block gets the same finiteness
    and Hermiticity check.

    ``scale`` is either ``"per_eps2T"`` (the default symbolic
    normalization: excited entries per unit :math:`\\varepsilon^2 T`) or
    ``"absolute"`` (entries multiplied out with the ``epsilon`` and ``T``
    stored alongside; the ground block is kept at leading order).
    Ground-excited cross coherences vanish identically at this order and
    are not stored.
    """

    def __init__(
        self,
        ground_block,
        excited_block=None,
        scale: str = "per_eps2T",
        epsilon: float | None = None,
        T: float | None = None,
        *,
        shells=None,
    ) -> None:
        ground = np.array(ground_block, dtype=complex)
        n = ground.shape[0]
        if ground.ndim != 2 or ground.shape != (n, n):
            raise ValueError("ground_block must be square")
        if (excited_block is None) == (shells is None):
            raise ValueError("give the excited sector as excited_block or as shells")
        if excited_block is not None:
            excited = np.asarray(excited_block, dtype=complex)
            if excited.ndim != 2 or excited.shape[0] != excited.shape[1]:
                raise ValueError("excited_block must be square")
            shells = _dense_shells(excited)
        groups, dim = _group_shells(shells)
        if n == 0 or dim % n != 0:
            raise ValueError("excited sector must span (level, branch) composites")
        if scale not in ("per_eps2T", "absolute"):
            raise ValueError(f"unknown scale {scale!r}")
        if scale == "absolute" and not (epsilon is not None and T is not None):
            raise ValueError("absolute scale requires epsilon and T")
        _hermitian_peak([ground[None]], "ground_block")
        self.max_entry = _validate_groups(groups)
        ground.setflags(write=False)
        self.ground_block = ground
        self.scale = scale
        self.epsilon = epsilon
        self.T = T
        self.level_count = dim // n
        self.traj_count = n
        self._groups = groups
        firsts = sorted(
            (int(first), g, r)
            for g, (members, _) in enumerate(groups)
            for r, first in enumerate(members[:, 0])
        )
        self.shells = tuple(Shell(groups[g][0][r], groups[g][1][r]) for _, g, r in firsts)

    @property
    def excited_block(self) -> np.ndarray:
        """The dense excited sector, built on each access."""
        dim = self.level_count * self.traj_count
        dense = np.zeros((dim, dim), dtype=complex)
        for members, blocks in self._groups:
            dense[members[:, :, None], members[:, None, :]] = blocks
        dense.setflags(write=False)
        return dense

    def to_absolute(self, epsilon: float, T: float) -> "BlockDensity":
        r"""Multiply the per-unit-:math:`\varepsilon^2 T` excited shells out
        to absolute units.  This only rescales; an entry that overflows
        raises ``OverflowError``."""
        if self.scale != "per_eps2T":
            raise ValueError("to_absolute requires a per_eps2T input")
        if not (0.0 < epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (T > 0.0 and math.isfinite(T)):
            raise ValueError("T must be positive and finite")
        factor = epsilon * epsilon * T
        if not math.isfinite(factor * self.max_entry):
            raise OverflowError(f"epsilon^2 T x entry overflows at T = {T:g}")
        return BlockDensity(
            ground_block=self.ground_block,
            scale="absolute",
            epsilon=epsilon,
            T=T,
            shells=[(shell.members, factor * shell.block) for shell in self.shells],
        )


def _group_shells(shells) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Stack ``(members, block)`` pairs by shell size into read-only
    ``(count, k)`` member and ``(count, k, k)`` block arrays, checking
    that the shells partition ``range(dim)``; returns the groups and dim."""
    by_size: dict[int, list[int]] = {}
    members_list = []
    blocks_list = []
    for members, block in shells:
        members = np.asarray(members)
        block = np.asarray(block, dtype=complex)
        k = members.size
        if members.shape != (k,) or k == 0 or members.dtype.kind not in "iu":
            raise ValueError("shell members must be a nonempty list of indices")
        if np.any(np.diff(members) <= 0):
            raise ValueError("shell members must be strictly increasing")
        if block.shape != (k, k):
            raise ValueError(f"shell block must be {k}x{k}, got shape {block.shape}")
        by_size.setdefault(k, []).append(len(members_list))
        members_list.append(members.astype(np.int64))
        blocks_list.append(block)
    dim = sum(m.size for m in members_list)
    if not np.array_equal(np.sort(np.concatenate(members_list)), np.arange(dim)):
        raise ValueError("excited shells must partition the composite indices")
    groups = []
    for picks in by_size.values():
        members = np.stack([members_list[i] for i in picks])
        blocks = np.stack([blocks_list[i] for i in picks])
        members.setflags(write=False)
        blocks.setflags(write=False)
        groups.append((members, blocks))
    return groups, dim


def _hermitian_peak(stacks, name: str) -> float:
    """Check that the ``(count, k, k)`` stacks are finite and Hermitian,
    against a tolerance scaled by their largest entry; returns that entry."""
    if not all(np.all(np.isfinite(b)) for b in stacks):
        raise ValueError(f"{name} has non-finite entries")
    peak = max(float(np.max(np.abs(b))) for b in stacks)
    dev = max(float(np.max(np.abs(b - b.conj().transpose(0, 2, 1)))) for b in stacks)
    if dev > _HERMITICITY_TOL * max(peak, 1.0):
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return peak


def _validate_groups(groups) -> float:
    """Hermiticity and positive semidefiniteness of every shell, with the
    tolerances scaled by the whole excited sector; returns its largest
    entry magnitude."""
    peak = _hermitian_peak([b for _, b in groups], "excited_block")
    trace = sum(float(np.trace(b, axis1=1, axis2=2).real.sum()) for _, b in groups)
    for members, blocks in groups:
        lowest = np.linalg.eigvalsh(blocks)[:, 0]
        worst = int(np.argmin(lowest))
        if float(lowest[worst]) < -_PSD_TOL * max(trace, 0.0):
            raise NonPSDShellError(
                f"excited_block is not positive semidefinite: min eigenvalue "
                f"{float(lowest[worst]):.3e} against trace {trace:.3e}",
                members[worst],
            )
    return peak


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` in the operation order of Python's complex product, which
    numpy's vectorised product can miss by an ulp (fused multiply-adds)."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _shell_runs(q: np.ndarray, tol: float) -> list[np.ndarray]:
    """Boost-energy shells: the runs of the stably sorted products ``q``
    between gaps wider than ``tol``, each as ascending flat indices.

    Neighbours within ``tol`` share a run, so every aligned pair does.
    """
    order = np.argsort(q, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(q[order]) > tol) + 1)
    return [np.sort(run) for run in runs]


def joint_state(det: DetectorSpec, traj_set: TrajectorySet, tol: float) -> BlockDensity:
    r"""Assemble the joint (internal, branch) state per unit
    :math:`\varepsilon^2 T`, shell by shell.

    The ground block is :math:`A A^\dagger`.  Excited entries are filled
    on the diagonal (:math:`n=m,\ i=j`) and on every cross-branch pair
    (:math:`n\neq m`) passing the boost-energy alignment test
    :math:`|\omega_j z_m - \omega_i z_n| \le \mathrm{tol}` — cross-level
    pairs when the height ratio matches the frequency ratio, same-level
    pairs when the two branches share a height (transverse separation
    only).  Same-branch pairs are never filled.  Each aligned pair is
    evaluated once, on the side whose flat index is lower, with the
    :math:`q_{jm}` of the overlap factor taken from that side, and
    mirrored by conjugation so each block is exactly Hermitian.  The
    Planck factor of a coherence is the geometric mean of the two
    diagonal weights, as in :func:`~superthermal.overlaps.offdiag_overlap`.
    Filling every aligned pair with it is what keeps the block a Gram
    matrix of field-state overlaps, hence positive semidefinite, for
    equal-height branches and for products that differ within ``tol`` in
    particular.

    Aligned pairs lie in one run of the sorted products
    :math:`q_{jm}` (:func:`_shell_runs`), so only pairs within a run are
    tested and the state is stored as one block per run.  A run whose
    pairwise alignments are not transitive (``A~B``, ``B~C``, ``A≁C``)
    can fail the positive-semidefiniteness check; the
    :class:`NonPSDShellError` raised then names the run's boost energy.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n_traj = len(traj_set)
    amps = np.array(traj_set.amplitudes, dtype=complex)
    ground = np.outer(amps, amps.conj())

    omegas = np.array(det.frequencies)
    heights = np.array(traj_set.heights)
    zetas = np.array(det.couplings, dtype=complex)
    with np.errstate(over="ignore"):
        q = np.multiply.outer(omegas, heights).ravel()
    if np.any(np.isinf(q)):
        raise OverflowError("boost energy omega*z exceeds the float range")
    level, branch = np.divmod(np.arange(q.size), n_traj)
    weights = planck_weight(omegas[:, None], heights[None, :]).ravel()
    # Python's abs(complex) is hypot, which numpy's complex abs can miss by
    # an ulp; the populations keep the former.
    amp2 = np.array([abs(a) ** 2 for a in traj_set.amplitudes])
    zeta2 = np.array([abs(c) ** 2 for c in det.couplings])
    diag = amp2[branch] * zeta2[level] * weights / (2.0 * math.pi)

    # Candidate pairs: the upper triangle of each run, stacked by run size.
    groups = {}
    for run in _shell_runs(q, tol):
        groups.setdefault(run.size, []).append(run)
    members = [np.stack(runs) for runs in groups.values()]
    kept = []
    for stacked in members:
        a, b = np.triu_indices(stacked.shape[1], 1)
        row, col = stacked[:, a], stacked[:, b]
        aligned = coherence_condition(
            omegas[level[col]], heights[branch[col]], omegas[level[row]], heights[branch[row]], tol
        )
        shell, pair = np.nonzero((branch[row] != branch[col]) & aligned)
        kept.append((shell, a[pair], b[pair]))
    row = np.concatenate([stacked[s, a] for stacked, (s, a, _) in zip(members, kept)])
    col = np.concatenate([stacked[s, b] for stacked, (s, _, b) in zip(members, kept)])
    m, n = branch[row], branch[col]
    # Separations depend on the branch pair alone: one scalar call each.
    codes, inverse = np.unique(m * n_traj + n, return_inverse=True)
    ends = [(traj_set[int(c) // n_traj], traj_set[int(c) % n_traj]) for c in codes]
    dxi = np.array([delta_xi(tm, tn) for tm, tn in ends], dtype=float)[inverse]
    dxbar = np.array([delta_xbar(tm, tn) for tm, tn in ends], dtype=float)[inverse]
    lam = lambda_overlap(q[row], dxi, dxbar)
    phase = _cmul(_cmul(_cmul(amps[n].conj(), amps[m]), zetas[level[col]].conj()), zetas[level[row]])
    values = phase * lam * np.sqrt(weights[col]) * np.sqrt(weights[row]) / (2.0 * math.pi)

    shells = []
    start = 0
    for stacked, (shell, a, b) in zip(members, kept):
        k = stacked.shape[1]
        blocks = np.zeros((len(stacked), k, k), dtype=complex)
        blocks[:, np.arange(k), np.arange(k)] = diag[stacked]
        part = values[start : start + shell.size]
        blocks[shell, a, b] = part
        blocks[shell, b, a] = part.conj()
        start += shell.size
        shells.extend(zip(stacked, blocks))

    try:
        return BlockDensity(ground_block=ground, scale="per_eps2T", shells=shells)
    except NonPSDShellError as exc:
        shell_q = q[exc.members]
        raise NonPSDShellError(
            f"boost-energy shell q = {shell_q.min():.6g} to {shell_q.max():.6g} "
            f"({shell_q.size} composites): {exc}; its pairwise alignments at "
            f"tolerance {tol:g} are not transitive, lower the tolerance",
            exc.members,
        ) from exc


def reduced_internal(rho: BlockDensity) -> np.ndarray:
    r"""Internal spectrum after tracing out the branch index: a weighted
    mixture of Planck distributions,

    .. math::
        W_i = \frac{1}{2\pi}\sum_n |A_n|^2\,|\zeta_i|^2\,
              \frac{\omega_i}{e^{2\pi\omega_i z_n} - 1}.

    Off-diagonal internal coherences vanish exactly under this trace
    (each surviving excited entry pairs two *different*, orthogonal
    branches), so the result is the diagonal alone, as a real vector
    over levels, summed from the shell diagonals.
    """
    diag = np.empty(rho.level_count * rho.traj_count)
    for members, blocks in rho._groups:
        diag[members] = np.diagonal(blocks, axis1=1, axis2=2).real
    # A running sum adds the branches in index order.
    return np.cumsum(diag.reshape(rho.level_count, rho.traj_count), axis=1)[:, -1]


def measured_internal(rho: BlockDensity, basis: MeasurementBasisVector) -> np.ndarray:
    r"""Unnormalized internal state conditioned on obtaining branch-basis
    outcome ``B``: entry :math:`(0,0)` is
    :math:`|\sum_n B_n^* A_n|^2` and excited entries are

    .. math::
        \rho^{\mathrm{meas}}_{ji} = \frac{1}{2\pi}\sum_{n,m}
        B_m^* A_n^* B_n A_m\,\zeta_i^*\zeta_j\,\Lambda^{ij}_{nm}\,
        \sqrt{P_{in} P_{jm}},

    arranged on the index set {ground} ∪ {levels} as an
    :math:`(L+1)\times(L+1)` Hermitian matrix, accumulated shell by
    shell.  The state is returned unnormalized.
    """
    b = basis.vector
    if b.size != rho.traj_count:
        raise ValueError("measurement vector does not match the branch count")
    levels = rho.level_count
    out = np.zeros((levels + 1, levels + 1), dtype=complex)
    out[0, 0] = b.conj() @ rho.ground_block @ b
    for members, blocks in rho._groups:
        level, branch = np.divmod(members, rho.traj_count)
        terms = b[branch].conj()[:, :, None] * blocks * b[branch][:, None, :]
        # A shell can hold two branches of one level, so the same output
        # cell may recur within a block: add.at accumulates every term.
        np.add.at(out, (1 + level[:, :, None], 1 + level[:, None, :]), terms)
    return out


def neglog_matrix(rho_internal: np.ndarray, level_count: int) -> np.ndarray:
    r"""Magnitude table :math:`-\log_{10}|\rho_{ji}|` over the excited
    levels, with structurally absent (exactly zero) entries marked NaN.

    Accepts either the full ``(level_count+1)``-square internal matrix
    (the ground row/column is dropped) or the bare level-square block.
    Intended for per-unit-:math:`\varepsilon^2 T` matrices, matching the
    published presentation.
    """
    matrix = np.asarray(rho_internal, dtype=complex)
    if matrix.shape == (level_count + 1, level_count + 1):
        matrix = matrix[1:, 1:]
    elif matrix.shape != (level_count, level_count):
        raise ValueError(
            f"expected a {level_count}- or {level_count + 1}-square matrix, "
            f"got shape {matrix.shape}"
        )
    mags = np.abs(matrix)
    out = np.full(mags.shape, np.nan)
    mask = mags > 0.0
    out[mask] = -np.log10(mags[mask])
    return out


@dataclass(frozen=True)
class PaperExampleResult:
    """Assembled three-branch, twelve-level reference case."""

    detector: DetectorSpec
    trajectories: TrajectorySet
    basis: MeasurementBasisVector
    tolerance: float
    state: BlockDensity
    measured: np.ndarray
    neglog: np.ndarray


def paper_example() -> PaperExampleResult:
    r"""Build the published example: branches at :math:`z = 0.5, 1, 1.5`
    in equal superposition, levels :math:`\omega_i = i` for
    :math:`i = 1..12` with unit couplings, measured in the same equal
    superposition (:math:`B = A`).

    Level pairs couple exactly when their frequency ratio matches a
    height ratio — realized ratios :math:`3, 2, 3/2, 1, 2/3, 1/2, 1/3` —
    so the alignment tolerance is tight; the heights make every aligned
    product exact in binary floating point.
    """
    third = 1.0 / math.sqrt(3.0)
    traj_set = TrajectorySet(
        trajectories=(
            Trajectory(z=0.5, amplitude=third),
            Trajectory(z=1.0, amplitude=third),
            Trajectory(z=1.5, amplitude=third),
        )
    )
    det = DetectorSpec(frequencies=tuple(float(i) for i in range(1, 13)))
    basis = MeasurementBasisVector(amplitudes=(third, third, third))
    tol = 1e-12
    state = joint_state(det, traj_set, tol)
    measured = measured_internal(state, basis)
    return PaperExampleResult(
        detector=det,
        trajectories=traj_set,
        basis=basis,
        tolerance=tol,
        state=state,
        measured=measured,
        neglog=neglog_matrix(measured, det.level_count),
    )


def load_reference_matrix() -> np.ndarray:
    """Published two-significant-figure magnitude table for the
    three-branch example, as a 12x12 array with NaN for omitted cells."""
    from .io import read_neglog_csv  # io imports this module

    table = resources.files("superthermal").joinpath("data/three_trajectory_reference.csv")
    with resources.as_file(table) as path:
        matrix = read_neglog_csv(path)
    if matrix.shape != (12, 12):
        raise ValueError(f"reference table must be 12x12, got {matrix.shape}")
    return matrix


def compare_with_reference(neglog: np.ndarray) -> tuple[bool, list[str]]:
    """Check a computed magnitude table against the published one.

    Printed values carry two significant figures, so a computed entry
    matches when it lies within 1.5 units of the reference's last
    printed digit (0.15 for one-decimal entries, 1.5 for integer
    entries) and rounds back to the same two-figure representation.
    Blank reference cells must be absent (NaN) in the computed table,
    and vice versa.  Returns (verdict, list of mismatch descriptions).
    """
    reference = load_reference_matrix()
    neglog = np.asarray(neglog, dtype=float)
    if neglog.shape != reference.shape:
        return False, [f"shape {neglog.shape} != reference {reference.shape}"]
    problems: list[str] = []
    for j in range(reference.shape[0]):
        for i in range(reference.shape[1]):
            ref = reference[j, i]
            got = neglog[j, i]
            if math.isnan(ref) != math.isnan(got):
                problems.append(
                    f"entry ({j + 1},{i + 1}): presence mismatch "
                    f"(reference {ref!r}, computed {got!r})"
                )
                continue
            if math.isnan(ref):
                continue
            step = 0.1 if ref < 10.0 else 1.0
            if abs(got - ref) > 1.5 * step:
                problems.append(
                    f"entry ({j + 1},{i + 1}): computed {got:.4f} vs "
                    f"reference {ref:g} (allowed ±{1.5 * step:g})"
                )
            elif float(f"{got:.2g}") != ref:
                problems.append(
                    f"entry ({j + 1},{i + 1}): computed {got:.4f} rounds to "
                    f"{float(f'{got:.2g}'):g}, reference prints {ref:g}"
                )
    return not problems, problems

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

Tracing out the branch index leaves a weighted mixture of Planck spectra
(:func:`reduced_internal`); conditioning on a branch measurement outcome
``B`` instead leaves an internal state whose coherences survive
(:func:`measured_internal`).  :func:`paper_example` assembles the
published three-branch, twelve-level case and its
:math:`-\log_{10}` magnitude table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .geometry import MU, Trajectory, TrajectorySet, coherence_condition, delta_xbar, delta_xi
from .specfun import lambda_overlap, planck_weight

__all__ = [
    "DetectorSpec",
    "MeasurementBasisVector",
    "BlockDensity",
    "PaperExampleResult",
    "joint_state",
    "reduced_internal",
    "measured_internal",
    "normalize_internal",
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


def _check_hermitian(matrix: np.ndarray, name: str) -> None:
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    dev = float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0
    if dev > _HERMITICITY_TOL * max(scale, 1.0):
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")


@dataclass(frozen=True)
class BlockDensity:
    """Block-diagonal joint state: ground and excited sectors.

    ``ground_block`` is the branch-space coefficient matrix of the
    unexcited internal state (for a pure branch superposition it is the
    rank-1 outer product :math:`A A^\\dagger`).  ``excited_block`` lives
    on composite (level, branch) indices, flattened as
    ``level_index * branch_count + branch_index``.

    ``scale`` is either ``"per_eps2T"`` (the default symbolic
    normalization: excited entries per unit :math:`\\varepsilon^2 T`) or
    ``"absolute"`` (entries multiplied out with the ``epsilon`` and ``T``
    stored alongside; the ground block is kept at leading order).
    Ground-excited cross coherences vanish identically at this order and
    are not stored.
    """

    ground_block: np.ndarray
    excited_block: np.ndarray
    scale: str = "per_eps2T"
    epsilon: float | None = None
    T: float | None = None
    level_count: int = 0
    traj_count: int = 0
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ground = np.array(self.ground_block, dtype=complex)
        excited = np.array(self.excited_block, dtype=complex)
        n = ground.shape[0]
        if ground.shape != (n, n):
            raise ValueError("ground_block must be square")
        if excited.shape[0] != excited.shape[1] or excited.shape[0] % n != 0:
            raise ValueError(
                "excited_block must be square over (level, branch) composites"
            )
        levels = excited.shape[0] // n
        if self.level_count and self.level_count != levels:
            raise ValueError("level_count inconsistent with block shapes")
        if self.traj_count and self.traj_count != n:
            raise ValueError("traj_count inconsistent with block shapes")
        if self.scale not in ("per_eps2T", "absolute"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.scale == "absolute" and not (
            self.epsilon is not None and self.T is not None
        ):
            raise ValueError("absolute scale requires epsilon and T")
        _check_hermitian(ground, "ground_block")
        _check_hermitian(excited, "excited_block")
        eigs = np.linalg.eigvalsh(excited)
        trace = float(np.trace(excited).real)
        if eigs.size and float(eigs[0]) < -_PSD_TOL * max(trace, 0.0):
            raise ValueError(
                f"excited_block is not positive semidefinite: min eigenvalue "
                f"{float(eigs[0]):.3e} against trace {trace:.3e}"
            )
        ground.setflags(write=False)
        excited.setflags(write=False)
        object.__setattr__(self, "ground_block", ground)
        object.__setattr__(self, "excited_block", excited)
        object.__setattr__(self, "level_count", levels)
        object.__setattr__(self, "traj_count", n)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def to_absolute(self, epsilon: float, T: float) -> "BlockDensity":
        r"""Multiply the per-unit-:math:`\varepsilon^2 T` excited block out
        to absolute units, re-checking the perturbative-order bound
        :math:`\varepsilon^2 T \cdot \mathrm{entry} \le \varepsilon`
        (violations are attached as warnings, not failures)."""
        if self.scale != "per_eps2T":
            raise ValueError("to_absolute requires a per_eps2T input")
        if not (0.0 < epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not T > 0.0:
            raise ValueError("T must be positive")
        factor = epsilon * epsilon * T
        excited = factor * self.excited_block
        warnings = list(self.warnings)
        peak = float(np.max(np.abs(excited))) if excited.size else 0.0
        if peak > epsilon:
            warnings.append(
                f"perturbative-order bound violated: epsilon^2 T x entry = "
                f"{peak:.3e} exceeds epsilon = {epsilon:.3e}; first-order "
                "treatment is unreliable for these parameters"
            )
        return BlockDensity(
            ground_block=self.ground_block,
            excited_block=excited,
            scale="absolute",
            epsilon=epsilon,
            T=T,
            warnings=tuple(warnings),
        )


def joint_state(det: DetectorSpec, traj_set: TrajectorySet, tol: float) -> BlockDensity:
    r"""Assemble the joint (internal, branch) state per unit
    :math:`\varepsilon^2 T`.

    The ground block is :math:`A A^\dagger`.  Excited entries are filled
    on the diagonal (:math:`n=m,\ i=j`) and on every cross-branch pair
    (:math:`n\neq m`) passing the boost-energy alignment test
    :math:`|\omega_j z_m - \omega_i z_n| \le \mathrm{tol}` — cross-level
    pairs when the height ratio matches the frequency ratio, same-level
    pairs when the two branches share a height (transverse separation
    only).  Same-branch cross-level pairs never align for a
    nondegenerate spectrum.  Each aligned pair is evaluated once, on the
    side whose flat index is lower, with the :math:`q_{jm}` of the
    overlap factor taken from that side, and mirrored by conjugation so
    the block is exactly Hermitian.  The Planck factor of a coherence is
    the geometric mean of the two diagonal weights, as in
    :func:`~superthermal.overlaps.offdiag_overlap`.  Filling every aligned
    pair with it is what keeps the block a Gram matrix of field-state
    overlaps, hence positive semidefinite, for equal-height branches and
    for products that differ within ``tol`` in particular.

    Branches whose boost-energy product falls below the thermal-regime
    floor :math:`\omega_1 z < \mu` are reported in ``warnings``.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n_traj = len(traj_set)
    n_lvl = det.level_count
    amps = np.array(traj_set.amplitudes, dtype=complex)
    ground = np.outer(amps, amps.conj())

    omegas = det.frequencies
    zetas = det.couplings
    weights = [[planck_weight(w, traj.z) for traj in traj_set] for w in omegas]
    excited = np.zeros((n_lvl * n_traj, n_lvl * n_traj), dtype=complex)
    for j in range(n_lvl):
        for m, traj_m in enumerate(traj_set):
            row = j * n_traj + m
            excited[row, row] = (
                abs(amps[m]) ** 2 * abs(zetas[j]) ** 2 * weights[j][m] / (2.0 * math.pi)
            )
            for i in range(j, n_lvl):
                for n, traj_n in enumerate(traj_set):
                    if n == m or (i == j and n <= m):
                        continue
                    if not coherence_condition(omegas[i], traj_n.z, omegas[j], traj_m.z, tol):
                        continue
                    col = i * n_traj + n
                    lam = lambda_overlap(
                        omegas[j] * traj_m.z, delta_xi(traj_m, traj_n), delta_xbar(traj_m, traj_n)
                    )
                    value = (
                        amps[n].conjugate()
                        * amps[m]
                        * zetas[i].conjugate()
                        * zetas[j]
                        * lam
                        * math.sqrt(weights[i][n])
                        * math.sqrt(weights[j][m])
                        / (2.0 * math.pi)
                    )
                    excited[row, col] = value
                    excited[col, row] = value.conjugate()

    warnings = []
    floor = min(omegas[0] * traj.z for traj in traj_set)
    if floor < MU:
        warnings.append(
            f"thermal-regime floor violated: min omega_1 z = {floor:.6g} is "
            f"below mu = {MU:.6g}; the Planckian form of the diagonal is "
            "unreliable for the lowest level on the fastest branch"
        )
    return BlockDensity(
        ground_block=ground,
        excited_block=excited,
        scale="per_eps2T",
        warnings=tuple(warnings),
    )


def reduced_internal(rho: BlockDensity) -> np.ndarray:
    r"""Internal spectrum after tracing out the branch index: a weighted
    mixture of Planck distributions,

    .. math::
        W_i = \frac{1}{2\pi}\sum_n |A_n|^2\,|\zeta_i|^2\,
              \frac{\omega_i}{e^{2\pi\omega_i z_n} - 1}.

    Off-diagonal internal coherences vanish exactly under this trace
    (each surviving excited entry pairs two *different*, orthogonal
    branches), so the result is the diagonal alone, as a real vector
    over levels.
    """
    n = rho.traj_count
    levels = rho.level_count
    blocks = rho.excited_block.reshape(levels, n, levels, n)
    return np.einsum("inin->i", blocks).real.copy()


def measured_internal(rho: BlockDensity, basis: MeasurementBasisVector) -> np.ndarray:
    r"""Unnormalized internal state conditioned on obtaining branch-basis
    outcome ``B``: entry :math:`(0,0)` is
    :math:`|\sum_n B_n^* A_n|^2` and excited entries are

    .. math::
        \rho^{\mathrm{meas}}_{ji} = \frac{1}{2\pi}\sum_{n,m}
        B_m^* A_n^* B_n A_m\,\zeta_i^*\zeta_j\,\Lambda^{ij}_{nm}\,
        \sqrt{P_{in} P_{jm}},

    arranged on the index set {ground} ∪ {levels} as an
    :math:`(L+1)\times(L+1)` Hermitian matrix.  The state is returned
    unnormalized; see :func:`normalize_internal`.
    """
    b = basis.vector
    if b.size != rho.traj_count:
        raise ValueError("measurement vector does not match the branch count")
    levels, n = rho.level_count, rho.traj_count
    out = np.zeros((levels + 1, levels + 1), dtype=complex)
    out[0, 0] = b.conj() @ rho.ground_block @ b
    blocks = rho.excited_block.reshape(levels, n, levels, n)
    out[1:, 1:] = np.einsum("m,jmin,n->ji", b.conj(), blocks, b)
    return out


def normalize_internal(rho_internal: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide an internal density matrix by its trace; returns the
    normalized matrix and the normalization constant."""
    matrix = np.asarray(rho_internal, dtype=complex)
    constant = float(np.trace(matrix).real)
    if constant <= 0.0:
        raise ValueError(f"trace must be positive to normalize, got {constant!r}")
    return matrix / constant, constant


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
    text = (
        resources.files("superthermal")
        .joinpath("data/three_trajectory_reference.csv")
        .read_text(encoding="utf-8")
    )
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append(
            [float(cell) if cell.strip() else math.nan for cell in line.split(",")]
        )
    matrix = np.array(rows, dtype=float)
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

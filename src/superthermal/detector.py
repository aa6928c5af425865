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
block-diagonal over boost-energy *shells*: the connected components of
its coherences, whichever entrance built the state (the aligned pairs of
its factors, or the nonzero pattern of a dense block).  :class:`BlockDensity`
stores one small Hermitian block per shell, the shells of one size
stacked together, and checks each on its own, once, where its entries
are made; rescaling a state to absolute units does not check it again.
The stacks come from one stable sort of the composites by (the rank of
their shell's size, their shell's smallest member), with no loop over
shells.  :func:`joint_state` finds the aligned pairs, takes the geometry
of :math:`\Lambda` once per branch pair and keeps the closed form's
inputs (:class:`StateFactors`: amplitudes, couplings, Planck weights and
one :math:`\Lambda` per aligned pair); :func:`assemble_state` writes
every shell from them into one buffer by one scatter per kind of entry,
and the reductions below work shell by shell.  The dense matrix is built
only on request (``BlockDensity.excited_block``).

Tracing out the branch index leaves a weighted mixture of Planck spectra
(:func:`reduced_internal`); conditioning on a branch measurement outcome
``B`` instead leaves an internal state whose coherences survive
(:func:`measured_internal`).  :func:`paper_example` assembles the
published three-branch, twelve-level case and its
:math:`-\log_{10}` magnitude table.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .geometry import Trajectory, TrajectorySet, _eps2T, _number, _unit_norm, branch_separations, coherence_condition
from .specfun import _overlap_geometry, _overlap_of_geometry, planck_weight

__all__ = [
    "DetectorSpec",
    "MeasurementBasisVector",
    "BlockDensity",
    "Shell",
    "StateFactors",
    "NonPSDShellError",
    "PaperExampleResult",
    "assemble_state",
    "joint_state",
    "reduced_internal",
    "measured_internal",
    "neglog_matrix",
    "paper_example",
    "compare_with_reference",
]

_HERMITICITY_TOL = 1e-12
_PSD_TOL = 1e-10


def _bounded_couplings(values) -> None:
    """Refuse couplings past :math:`|\\zeta| \\le 1` (to 1e-12), NaN included:
    the one coupling bound, of the discrete and the continuum spectrum."""
    if not np.all(np.abs(np.asarray(values, dtype=complex)) <= 1.0 + 1e-12):
        raise ValueError("couplings must satisfy |zeta| <= 1")


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
        freqs = tuple(_number(w, "frequencies", float, k) for k, w in enumerate(self.frequencies))
        if not freqs:
            raise ValueError("DetectorSpec requires at least one level")
        if freqs[0] <= 0.0 or any(not math.isfinite(w) for w in freqs):
            raise ValueError("frequencies must be positive and finite")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if self.couplings is None:
            coup = tuple(1.0 + 0.0j for _ in freqs)
        else:
            coup = tuple(_number(c, "couplings", complex, k) for k, c in enumerate(self.couplings))
            if len(coup) != len(freqs):
                raise ValueError(f"{len(freqs)} frequencies but {len(coup)} couplings")
            _bounded_couplings(coup)
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
        amps = tuple(_number(b, "amplitudes", complex, k) for k, b in enumerate(self.amplitudes))
        if not amps:
            raise ValueError("measurement vector must be non-empty")
        _unit_norm(amps, "measurement amplitudes must satisfy sum |B|^2")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


class Shell(NamedTuple):
    """One boost-energy shell of the excited block: its composite flat
    indices in ascending order and its Hermitian block over them."""

    members: np.ndarray
    block: np.ndarray


class StateFactors(NamedTuple):
    r"""The inputs of the closed form, per unit :math:`\varepsilon^2 T`.

    ``amplitudes`` holds the branch amplitudes :math:`A_n`, ``couplings``
    the :math:`\zeta_i`, and ``planck_weights`` one :math:`P_{in}` per
    composite in flat-index order (``level_index * branch_count +
    branch_index``).  ``pairs`` is a ``(count, 2)`` integer array of the
    aligned cross-branch pairs, lower flat index first, sorted, and
    ``overlaps`` holds each pair's :math:`\Lambda`.
    """

    amplitudes: np.ndarray
    couplings: np.ndarray
    planck_weights: np.ndarray
    pairs: np.ndarray
    overlaps: np.ndarray


class NonPSDShellError(ValueError):
    """A shell of the excited block is not positive semidefinite.

    ``members`` holds the shell's composite flat indices.
    """

    def __init__(self, message: str, members: np.ndarray) -> None:
        super().__init__(message)
        self.members = members


def _shell_groups(dim: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """The shells of a state on ``range(dim)`` whose coherences join
    ``(rows, cols)``: the connected components of that graph, each as
    ascending indices, stacked by size into read-only ``(count, k)``
    arrays in order of each size's first component by smallest member."""
    labels = np.arange(dim)
    # Spread the smallest index along the edges until every edge joins
    # equal labels: each component ends up labelled by its minimum.
    while True:
        low = np.minimum(labels[rows], labels[cols])
        spread = labels.copy()
        np.minimum.at(spread, rows, low)
        np.minimum.at(spread, cols, low)
        if np.array_equal(spread, labels):
            break
        labels = spread
    # A component's size, at its smallest member; each size is ranked by
    # its first component in that order.
    sizes = np.bincount(labels, minlength=dim)
    found, first, counts = np.unique(sizes[sizes > 0], return_index=True, return_counts=True)
    by_first = np.argsort(first)
    found, counts = found[by_first], counts[by_first]
    rank = np.zeros(dim + 1, dtype=np.int64)
    rank[found] = np.arange(found.size)
    # One stable sort by (size rank, label) lists each size's shells by
    # smallest member, each with its members ascending.
    order = np.argsort(rank[sizes[labels]] * dim + labels, kind="stable")
    order.setflags(write=False)
    groups, start = [], 0
    for k, count in zip(found.tolist(), counts.tolist()):
        groups.append(order[start:start + k * count].reshape(count, k))
        start += k * count
    return groups


class BlockDensity:
    """Block-diagonal joint state: ground and excited sectors.

    ``ground_block`` is the branch-space coefficient matrix of the
    unexcited internal state: :math:`A A^\\dagger` for a state built from
    its factors.  The excited sector lives on composite (level, branch)
    indices, flattened as ``level_index * branch_count + branch_index``,
    and is block-diagonal over boost-energy shells: ``shells`` holds one
    :class:`Shell` per connected component of the coherences, ordered by
    smallest member, and together the shells partition the composite
    indices.  ``excited_block`` builds the dense matrix on request.

    :func:`joint_state` and :func:`assemble_state` build the state from
    its :class:`StateFactors`, kept as ``factors``, and take the
    components of its aligned pairs.  The constructor takes it from
    outside instead: a ``ground_block`` matrix and a dense square
    ``excited_block``, whose nonzero pattern gives the components.  Such
    a state has no ``factors``.  Either entrance checks the state once,
    where its entries are made.  Outside input is checked for finiteness
    and Hermiticity, each shell against the largest entry of the whole
    sector, ``max_entry``, and so is a given ground block; a state built
    from factors is Hermitian by construction, and its finiteness and
    ``max_entry`` are read off the entries its factors make.  Both check
    every shell for positive semidefiniteness against the whole trace
    (:func:`_validate_groups`).  :meth:`to_absolute` only rescales.

    ``scale`` is either ``"per_eps2T"`` (the default symbolic
    normalization: excited entries per unit :math:`\\varepsilon^2 T`) or
    ``"absolute"`` (entries multiplied out with the ``epsilon`` and ``T``
    stored alongside; the ground block is kept at leading order, and
    ``factors`` stay per unit :math:`\\varepsilon^2 T`).
    Ground-excited cross coherences vanish identically at this order and
    are not stored.
    """

    def __init__(
        self,
        ground_block,
        excited_block,
        scale: str = "per_eps2T",
        epsilon: float | None = None,
        T: float | None = None,
    ) -> None:
        if scale not in ("per_eps2T", "absolute"):
            raise ValueError(f"unknown scale {scale!r}")
        if scale == "absolute" and not (epsilon is not None and T is not None):
            raise ValueError("absolute scale requires epsilon and T")
        ground = np.array(ground_block, dtype=complex)
        n = ground.shape[0]
        if ground.ndim != 2 or ground.shape != (n, n):
            raise ValueError("ground_block must be square")
        excited = np.asarray(excited_block, dtype=complex)
        if excited.ndim != 2 or excited.shape[0] != excited.shape[1]:
            raise ValueError("excited_block must be square")
        dim = excited.shape[0]
        if n == 0 or dim % n != 0:
            raise ValueError("excited sector must span (level, branch) composites")
        _hermitian_peak([ground[None]], "ground_block")
        ground.setflags(write=False)
        groups = []
        for members in _shell_groups(dim, *np.nonzero(excited)):
            blocks = excited[members[:, :, None], members[:, None, :]]
            blocks.setflags(write=False)
            groups.append((members, blocks))
        peak = _hermitian_peak([b for _, b in groups], "excited_block")
        _validate_groups(groups)
        self._setup(groups, peak, n, scale, epsilon, T, None, ground)

    @classmethod
    def _of_groups(cls, groups, max_entry, traj_count, scale, epsilon, T, factors, ground=None):
        """A state over already stacked and checked ``(members, blocks)``
        groups, whose largest entry magnitude is ``max_entry``."""
        self = cls.__new__(cls)
        self._setup(groups, max_entry, traj_count, scale, epsilon, T, factors, ground)
        return self

    def _setup(self, groups, max_entry, traj_count, scale, epsilon, T, factors, ground) -> None:
        self.max_entry = max_entry
        self.scale = scale
        self.epsilon = epsilon
        self.T = T
        self.level_count = sum(members.size for members, _ in groups) // traj_count
        self.traj_count = traj_count
        self.factors = factors
        self._ground = ground
        self._groups = groups

    @property
    def ground_block(self) -> np.ndarray:
        """The ground block, :math:`A A^\\dagger` unless given as a matrix."""
        if self._ground is not None:
            return self._ground
        amps = self.factors.amplitudes
        ground = np.outer(amps, amps.conj())
        ground.setflags(write=False)
        return ground

    @functools.cached_property
    def shells(self) -> tuple[Shell, ...]:
        """One :class:`Shell` per block, ordered by smallest member."""
        shells = (Shell(*s) for members, blocks in self._groups for s in zip(members, blocks))
        return tuple(sorted(shells, key=lambda shell: int(shell.members[0])))

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
        to absolute units.  This only rescales, and an entry that overflows
        raises ``OverflowError``.  The shells are not checked again: they
        were checked where they were made, and a factor
        :math:`\varepsilon^2 T > 0` keeps them Hermitian and positive
        semidefinite."""
        if self.scale != "per_eps2T":
            raise ValueError("to_absolute requires a per_eps2T input")
        factor = _eps2T(epsilon, T, self.max_entry)
        groups = []
        for members, blocks in self._groups:
            blocks = factor * blocks
            blocks.setflags(write=False)
            groups.append((members, blocks))
        return BlockDensity._of_groups(
            groups, factor * self.max_entry, self.traj_count, "absolute", epsilon, T, self.factors, self._ground
        )


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


def _validate_groups(groups) -> None:
    """Positive semidefiniteness of every shell, against 1e-10 x the trace of
    the whole excited sector, for both entrances: Hermiticity is checked
    before, on outside input, or made by construction, from factors.  A
    stack passes when ``blocks + s I``, s = 1e-10 x trace, has a Cholesky
    factorisation: no eigenvalue lies below -s.  ``eigvalsh`` decides a stack
    where that fails, or where s is not a normal double and so cannot shift
    a subnormal entry."""
    trace = sum(float(np.trace(b, axis1=1, axis2=2).real.sum()) for _, b in groups)
    bound = _PSD_TOL * max(trace, 0.0)
    for members, blocks in groups:
        if sys.float_info.min <= bound <= sys.float_info.max:
            try:
                np.linalg.cholesky(blocks + bound * np.eye(blocks.shape[1]))
                continue
            except np.linalg.LinAlgError:
                pass
        lowest = np.linalg.eigvalsh(blocks)[:, 0]
        worst = int(np.argmin(lowest))
        if float(lowest[worst]) < -bound:
            raise NonPSDShellError(
                f"excited_block is not positive semidefinite: min eigenvalue "
                f"{float(lowest[worst]):.3e} against trace {trace:.3e}",
                members[worst],
            )


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` in the operation order of Python's complex product, which
    numpy's vectorised product can miss by an ulp (fused multiply-adds)."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def assemble_state(factors: StateFactors) -> BlockDensity:
    r"""The per-unit-:math:`\varepsilon^2 T` state of the closed form's
    factors, one Hermitian block per shell.

    Diagonal entries are :math:`|A_n|^2 |\zeta_i|^2 P_{in}/2\pi`; the
    entry of each aligned pair :math:`(j,m) < (i,n)` is
    :math:`A_n^* A_m \zeta_i^* \zeta_j \Lambda \sqrt{P_{in}}\sqrt{P_{jm}}/2\pi`
    and its mirror the conjugate.  The shells are the connected
    components of the pairs.  A pair outside ``0 <= lower < upper < dim``,
    a repeated pair and a pair within one branch raise ``ValueError``
    naming ``pairs``.  The state keeps the factors, read-only.
    Every block is Hermitian by construction, so the entries are checked
    for finiteness and their peak taken where they are made.
    """
    for array in factors:
        array.setflags(write=False)
    amps, zetas, weights, pairs, lam = factors
    n_traj = amps.size
    dim = weights.size
    level, branch = np.divmod(np.arange(dim), n_traj)
    row, col = pairs[:, 0], pairs[:, 1]
    if not np.all((0 <= row) & (row < col) & (col < dim)):
        raise ValueError(f"pairs: need 0 <= lower < upper < {dim}")
    keys = row * dim + col
    # pairs in sorted order, as joint_state makes them, skip the sort
    if np.any(keys[1:] <= keys[:-1]) and np.any(np.diff(np.sort(keys)) == 0):
        raise ValueError("pairs: a pair occurs twice")
    branch_row, branch_col = branch[row], branch[col]
    if np.any(branch_row == branch_col):
        raise ValueError("pairs: a pair must join two branches")
    members = _shell_groups(dim, row, col)
    # Python's abs(complex) is hypot, which numpy's complex abs can miss by
    # an ulp; the populations keep the former.
    amp2 = np.array([abs(a) ** 2 for a in amps.tolist()])
    zeta2 = np.array([abs(c) ** 2 for c in zetas.tolist()])
    diag = amp2[branch] * zeta2[level] * weights / (2.0 * math.pi)
    branch_phase = _cmul(amps.conj()[None, :], amps[:, None])  # A_n^* A_m at [m, n]
    phase = _cmul(_cmul(branch_phase[branch_row, branch_col], zetas.conj()[level[col]]), zetas[level[row]])
    root = np.sqrt(weights)
    values = phase * lam * root[col] * root[row] / (2.0 * math.pi)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(values))):
        raise ValueError("excited_block has non-finite entries")

    # All blocks share one buffer, a group's shells one after another.
    # Each composite has its place in its shell and the start of its row
    # of the shell's block in the buffer.
    base, place = np.empty((2, dim), dtype=np.int64)
    offsets = np.cumsum([0] + [stacked.size * stacked.shape[1] for stacked in members]).tolist()
    for stacked, offset in zip(members, offsets):
        k = stacked.shape[1]
        base[stacked] = offset + k * np.arange(stacked.size).reshape(stacked.shape)
        place[stacked] = np.arange(k)
    buffer = np.zeros(offsets[-1], dtype=complex)
    buffer[base + place] = diag
    buffer[base[row] + place[col]] = values
    buffer[base[col] + place[row]] = values.conj()
    buffer.setflags(write=False)
    groups = [
        (stacked, buffer[offset:end].reshape(-1, stacked.shape[1], stacked.shape[1]))
        for stacked, offset, end in zip(members, offsets, offsets[1:])
    ]
    _validate_groups(groups)
    max_entry = max(float(np.max(np.abs(diag))), float(np.max(np.abs(values), initial=0.0)))
    return BlockDensity._of_groups(groups, max_entry, n_traj, "per_eps2T", None, None, factors)


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
    particular.  The state keeps these inputs as its
    :class:`StateFactors` and is built from them by
    :func:`assemble_state`, so its shells are the connected components
    of the aligned pairs.

    Only pairs within one window of the stably sorted products
    :math:`q_{jm}` are tested: each composite with the later ones up to
    :math:`q + 2\,\mathrm{tol}`, which holds every product that passes
    the test in floating point.  A shell whose pairwise alignments are
    not transitive (``A~B``, ``B~C``, ``A≁C``) can fail the
    positive-semidefiniteness check; the :class:`NonPSDShellError` raised
    then names the shell's boost energy.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n_traj = len(traj_set)
    omegas = np.array(det.frequencies)
    heights = np.array(traj_set.heights)
    with np.errstate(over="ignore"):
        q = np.multiply.outer(omegas, heights).ravel()
    if np.any(np.isinf(q)):
        raise OverflowError("boost energy omega*z exceeds the float range")
    level, branch = np.divmod(np.arange(q.size), n_traj)
    weights = planck_weight(omegas[:, None], heights[None, :]).ravel()

    # Candidate pairs: each place of the stably sorted q with the later
    # places up to q + 2 tol (all of them where that overflows).
    by_q = np.argsort(q, kind="stable")
    sorted_q = q[by_q]
    with np.errstate(over="ignore"):
        stops = np.searchsorted(sorted_q, sorted_q + 2.0 * tol, side="right")
    counts = stops - np.arange(q.size) - 1
    first = np.repeat(np.arange(q.size), counts)
    second = np.arange(first.size) + np.repeat(stops - np.cumsum(counts), counts)
    first, second = by_q[first], by_q[second]
    row, col = np.minimum(first, second), np.maximum(first, second)
    aligned = coherence_condition(
        omegas[level[col]], heights[branch[col]], omegas[level[row]], heights[branch[row]], tol
    )
    keep = (branch[row] != branch[col]) & aligned
    # Each pair has its own key row * dim + col, so one sort of the keys
    # orders the pairs by lower, then upper index.
    keys = np.sort(row[keep] * q.size + col[keep])
    pairs = np.stack(np.divmod(keys, q.size), axis=1)
    # Lambda's geometry depends on the branch pair alone: it is taken once
    # per distinct pair and gathered, and only its phase q alpha per pair.
    codes, inverse = np.unique(branch[pairs[:, 0]] * n_traj + branch[pairs[:, 1]], return_inverse=True)
    geometry = _overlap_geometry(*branch_separations(traj_set, *np.divmod(codes, n_traj)))
    factors = StateFactors(
        amplitudes=np.array(traj_set.amplitudes, dtype=complex),
        couplings=np.array(det.couplings, dtype=complex),
        planck_weights=weights,
        pairs=pairs,
        overlaps=_overlap_of_geometry(q[pairs[:, 0]], *(part[inverse] for part in geometry)),
    )
    try:
        return assemble_state(factors)
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
    if rho.factors is None:
        raise ValueError("measured_internal needs the factors of the state")
    levels = rho.level_count
    out = np.zeros((levels + 1, levels + 1), dtype=complex)
    # The branch overlap B^dagger A as a sum of products without fused
    # multiply-adds, so that orthogonal amplitudes cancel exactly.
    out[0, 0] = abs(_cmul(b.conj(), rho.factors.amplitudes).sum()) ** 2
    cells, terms = [], []
    for members, blocks in rho._groups:
        level, branch = np.divmod(members, rho.traj_count)
        terms.append((b[branch].conj()[:, :, None] * blocks * b[branch][:, None, :]).ravel())
        cells.append(((1 + level[:, :, None]) * (levels + 1) + 1 + level[:, None, :]).ravel())
    # A shell can hold two branches of one level, so the same output cell
    # may recur: bincount sums every term, in order, once per part, and
    # each part goes into its own view of out.
    cell, term = np.concatenate(cells), np.concatenate(terms)
    flat = out.reshape(-1)
    flat.real += np.bincount(cell, weights=term.real, minlength=flat.size)
    flat.imag += np.bincount(cell, weights=term.imag, minlength=flat.size)
    return out


def neglog_matrix(rho_internal: np.ndarray, level_count: int) -> np.ndarray:
    r"""Magnitude table :math:`-\log_{10}|\rho_{ji}|` over the excited
    levels, with structurally absent (exactly zero) entries marked NaN.

    Takes the ``(level_count+1)``-square measured internal matrix and
    drops its ground row and column.  Intended for per-unit-
    :math:`\varepsilon^2 T` matrices, matching the published presentation.
    """
    matrix = np.asarray(rho_internal, dtype=complex)
    if matrix.shape != (level_count + 1, level_count + 1):
        raise ValueError(f"expected a {level_count + 1}-square matrix, got shape {matrix.shape}")
    mags = np.abs(matrix[1:, 1:])
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


@functools.cache
def paper_example() -> PaperExampleResult:
    r"""Build the published example: branches at :math:`z = 0.5, 1, 1.5`
    in equal superposition, levels :math:`\omega_i = i` for
    :math:`i = 1..12` with unit couplings, measured in the same equal
    superposition (:math:`B = A`).

    Level pairs couple exactly when their frequency ratio matches a
    height ratio — realized ratios :math:`3, 2, 3/2, 1, 2/3, 1/2, 1/3` —
    so the alignment tolerance is tight; the heights make every aligned
    product exact in binary floating point.

    The example takes no input, so it is built once per process and every
    call returns that one result; its arrays (``measured``, ``neglog`` and
    the state's blocks) are read-only.
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
    neglog = neglog_matrix(measured, det.level_count)
    measured.setflags(write=False)
    neglog.setflags(write=False)
    return PaperExampleResult(
        detector=det,
        trajectories=traj_set,
        basis=basis,
        tolerance=tol,
        state=state,
        measured=measured,
        neglog=neglog,
    )


@functools.cache
def _load_reference_matrix() -> np.ndarray:
    """Published two-significant-figure magnitude table for the
    three-branch example, as a read-only 12x12 array with NaN for omitted
    cells, read once per process."""
    from .io import read_neglog_csv  # io imports this module

    table = resources.files("superthermal").joinpath("data/three_trajectory_reference.csv")
    with resources.as_file(table) as path:
        matrix = read_neglog_csv(path)
    if matrix.shape != (12, 12):
        raise ValueError(f"reference table must be 12x12, got {matrix.shape}")
    matrix.setflags(write=False)
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
    reference = _load_reference_matrix()
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

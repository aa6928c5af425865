r"""Trajectory bookkeeping and Rindler-wedge geometry.

A uniformly accelerated pointlike system that stays at Rindler height
:math:`z` (right wedge, :math:`Z > |T|`) has proper acceleration
:math:`a = 1/z`.  This module holds the trajectory containers, the
coordinate maps

.. math::
    T = z \sinh t, \qquad Z = z \cosh t,

whose Rindler time :math:`t` is the dimensionless boost parameter (the
boost rate cancels from every quantity this package computes, so the
maps take none), the relative quantities between two trajectories,

.. math::
    \Delta\xi_{mn} = \log(z_m/z_n), \qquad
    \Delta\bar{x}_{mn} = |\Delta x^\perp_{mn}|
        \sqrt{\tfrac{1}{2}\left(1/z_m^2 + 1/z_n^2\right)},

the dimensionless products :math:`q_{jm} = \omega_j z_m` whose (near)
degeneracy controls which coherences survive, and order-of-magnitude
checks on the interaction time and the largest acceleration.
:func:`branch_separations` takes the two relative quantities for many
branch pairs of one set at once, bit for bit as the scalar functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = [
    "MU",
    "Trajectory",
    "TrajectorySet",
    "RegimeReport",
    "WedgeError",
    "rindler_to_minkowski",
    "minkowski_to_rindler",
    "delta_xi",
    "delta_xbar",
    "branch_separations",
    "coherence_condition",
    "validate_regime",
]

#: Margin constant for the largest admissible acceleration: the thermal
#: excitation stays perturbatively small provided
#: :math:`\omega_1 z_1 \gtrsim \mu` with
#: :math:`\mu = \frac{1}{2\pi}\log\!\left(\frac{1}{2\pi}+1\right) \simeq 0.02`.
MU = math.log(1.0 / (2.0 * math.pi) + 1.0) / (2.0 * math.pi)


def _number(value, name=None, kind=float, index=None):
    """``value`` as ``kind``, the one rule for every number the package reads:
    a string, a bool, ``None``, an int past the float range and whatever
    else ``kind`` cannot take raise ``ValueError``, prefixed by ``name``
    (``name[index]`` with an index) where one is given."""
    if type(value) is kind:  # most numbers: skip the checks below
        return value
    why = f"could not convert {type(value).__name__} to a number"
    if not isinstance(value, (str, bool, np.bool_)):
        try:
            return kind(value)
        except TypeError:
            pass
        except OverflowError:
            why = "could not convert an integer past the float range"
    if name is not None:
        why = f"{name}: {why}" if index is None else f"{name}[{index}]: {why}"
    raise ValueError(why)


class WedgeError(ValueError):
    """Raised for Minkowski events outside the right Rindler wedge."""


@dataclass(frozen=True)
class Trajectory:
    """One uniformly accelerated worldline.

    Parameters
    ----------
    z : float
        Rindler height, ``z > 0``; the proper acceleration is ``1/z``.
    x_perp : tuple[float, float]
        Transverse coordinates ``(x, y)``.
    amplitude : complex
        Branch amplitude :math:`A_n` carried by this trajectory.
    """

    z: float
    x_perp: tuple[float, float] = (0.0, 0.0)
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _number(self.z, "z"))
        if not (self.z > 0.0 and math.isfinite(self.z)):
            raise ValueError(f"trajectory requires z > 0, got z={self.z}")
        if not isinstance(self.x_perp, (tuple, list, np.ndarray)) or len(self.x_perp) != 2:
            raise ValueError("x_perp must be a pair (x, y)")
        object.__setattr__(self, "x_perp", tuple(_number(c, "x_perp") for c in self.x_perp))
        if not all(math.isfinite(c) for c in self.x_perp):
            raise ValueError(f"x_perp must be finite, got {self.x_perp}")
        object.__setattr__(self, "amplitude", _number(self.amplitude, "amplitude", complex))
        if not (math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)):
            raise ValueError("amplitude must be finite")

    @property
    def acceleration(self) -> float:
        """Proper acceleration ``1/z``."""
        return 1.0 / self.z

    def position_key(self) -> tuple[float, float, float]:
        """The worldline as a ``(z, x, y)`` triple."""
        return (self.z, self.x_perp[0], self.x_perp[1])


@dataclass(frozen=True)
class TrajectorySet:
    """Ordered superposition branches, sorted by nondecreasing ``z``.

    Constructing the set sorts the branches by ``(z, x, y)`` (amplitudes
    travel with their trajectory), rejects coincident worldlines (the
    branch states are assumed orthonormal, which requires fully
    distinguishable trajectories) and checks the normalization
    :math:`\\sum_n |A_n|^2 = 1` to ``1e-12``.
    """

    trajectories: tuple[Trajectory, ...]

    def __init__(self, trajectories) -> None:
        trajs = tuple(sorted(trajectories, key=Trajectory.position_key))
        if not trajs:
            raise ValueError("TrajectorySet requires at least one trajectory")
        keys = [t.position_key() for t in trajs]
        for a, b in zip(keys, keys[1:]):
            if a == b:
                raise ValueError(f"trajectories must be pairwise distinct; duplicate {a}")
        norm = sum(abs(t.amplitude) ** 2 for t in trajs)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"branch amplitudes must satisfy sum |A_n|^2 = 1, got {norm!r}")
        object.__setattr__(self, "trajectories", trajs)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def __getitem__(self, idx: int) -> Trajectory:
        return self.trajectories[idx]

    @property
    def amplitudes(self) -> tuple[complex, ...]:
        return tuple(t.amplitude for t in self.trajectories)

    @property
    def heights(self) -> tuple[float, ...]:
        return tuple(t.z for t in self.trajectories)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of :func:`validate_regime`.

    ``t_recommended`` is the compromise interaction time
    :math:`T \\sim 1/(\\varepsilon\\,\\omega_1)` (long enough for the
    quasi-stationary overlap formulas, short enough for first-order
    perturbation theory; ``inf`` where it overflows).  ``violations``
    carries human-readable warnings, each starting with its code; the
    bounds are order-of-magnitude statements, so violations warn rather
    than fail.
    """

    t_recommended: float
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.t_recommended > 0.0:
            raise ValueError("t_recommended must be positive")

    @property
    def ok(self) -> bool:
        return not self.violations


def rindler_to_minkowski(t: float, x: float, y: float, z: float):
    r"""Map Rindler coordinates ``(t, x, y, z)`` to Minkowski ``(T, X, Y, Z)``.

    .. math::
        T = z \sinh t, \quad X = x, \quad Y = y, \quad Z = z \cosh t.

    The image always satisfies :math:`Z > |T|` (right wedge) and
    :math:`Z^2 - T^2 = z^2`.
    """
    if not z > 0.0:
        raise ValueError(f"rindler_to_minkowski requires z > 0, got z={z}")
    return (z * math.sinh(t), x, y, z * math.cosh(t))


def minkowski_to_rindler(T: float, X: float, Y: float, Z: float):
    r"""Inverse of :func:`rindler_to_minkowski` on the right wedge.

    .. math::
        z = \sqrt{Z^2 - T^2}, \qquad t = \operatorname{atanh}(T/Z).

    Raises
    ------
    WedgeError
        If the event does not satisfy :math:`Z > |T|`.
    """
    if not Z > abs(T):
        raise WedgeError(f"event (T={T}, Z={Z}) lies outside the right wedge Z > |T|")
    z = math.sqrt((Z - T) * (Z + T))
    return (math.atanh(T / Z), X, Y, z)


def delta_xi(m: Trajectory, n: Trajectory) -> float:
    r"""Longitudinal relative quantity :math:`\Delta\xi_{mn} = \log(z_m/z_n)`.

    Antisymmetric under swapping the two trajectories; zero iff the two
    heights coincide.  Finite for every pair of legal heights: where the
    ratio overflows or underflows to 0, it is ``log(z_m) - log(z_n)``.
    """
    ratio = m.z / n.z
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.log(m.z) - math.log(n.z)


def delta_xbar(m: Trajectory, n: Trajectory) -> float:
    r"""Transverse relative quantity
    :math:`\Delta\bar{x}_{mn} = |\Delta x^\perp|\sqrt{(1/z_m^2 + 1/z_n^2)/2}`.

    Symmetric under swapping the two trajectories and nonnegative; exactly
    0 without a transverse offset.  Where :math:`z^2` or :math:`1/z^2`
    overflows, the smaller height :math:`z_<` is factored out:
    :math:`|\Delta x^\perp|/z_<\cdot\sqrt{(1 + (z_</z_>)^2)/2}`, which
    overflows only where the separation itself is past the float range.
    """
    offset = math.hypot(m.x_perp[0] - n.x_perp[0], m.x_perp[1] - n.x_perp[1])
    if offset == 0.0:
        return 0.0
    try:
        xbar = offset * math.sqrt(0.5 * (1.0 / m.z**2 + 1.0 / n.z**2))
    except (OverflowError, ZeroDivisionError):  # z**2 past the float range
        xbar = math.inf
    if math.isfinite(xbar):
        return xbar
    low, high = sorted((m.z, n.z))
    return offset / low * math.sqrt(0.5 * (1.0 + (low / high) ** 2))


#: Below this many pairs, :func:`branch_separations` calls the scalar
#: functions: their cost per pair is below the array pass's fixed cost.
_ARRAY_PAIRS = 32


def _inverse_square(z: float) -> float:
    """``1 / z**2`` as :func:`delta_xbar` takes it, ``inf`` where that raises."""
    try:
        return 1.0 / z**2
    except (OverflowError, ZeroDivisionError):
        return math.inf


def branch_separations(
    traj_set: TrajectorySet, m: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    r""":math:`\Delta\xi` and :math:`\Delta\bar{x}` of the branch pairs
    ``(traj_set[m[k]], traj_set[n[k]])`` as two float arrays, equal bit for
    bit to :func:`delta_xi` and :func:`delta_xbar` of each pair.

    The arithmetic is numpy's, which rounds as Python's float operations
    do.  The three steps whose numpy forms can differ by an ulp are math's
    own: ``z**2`` and :math:`\log z` once per branch, and ``math.log`` of
    the height ratio and ``math.hypot`` of the offset once per pair, mapped
    over the pairs' arrays.  Fewer than 32 pairs take the scalar functions
    themselves."""
    if m.size < _ARRAY_PAIRS:
        ends = [(traj_set[a], traj_set[b]) for a, b in zip(m.tolist(), n.tolist())]
        return (np.array([delta_xi(*pair) for pair in ends], dtype=float),
                np.array([delta_xbar(*pair) for pair in ends], dtype=float))
    heights = traj_set.heights
    z = np.array(heights)
    x, y = np.array([t.x_perp for t in traj_set]).T
    log_z = np.array(list(map(math.log, heights)))
    inv2 = np.array(list(map(_inverse_square, heights)))
    z_m, z_n = z[m], z[n]
    # Python's float operations overflow to inf without raising; the NaN of
    # a zero offset times an infinite root is set to 0 below.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = z_m / z_n
        dxi = log_z[m] - log_z[n]
        inside = (ratio > 0.0) & (ratio < math.inf)
        dxi[inside] = list(map(math.log, ratio[inside].tolist()))
        offset = np.array(list(map(math.hypot, (x[m] - x[n]).tolist(), (y[m] - y[n]).tolist())))
        xbar = offset * np.sqrt(0.5 * (inv2[m] + inv2[n]))
        far = np.isinf(xbar)
        if far.any():
            low, high = np.minimum(z_m, z_n)[far], np.maximum(z_m, z_n)[far]
            squares = list(map(pow, (low / high).tolist(), repeat(2)))
            xbar[far] = offset[far] / low * np.sqrt(0.5 * (1.0 + np.array(squares)))
    xbar[offset == 0.0] = 0.0
    return dxi, xbar


def coherence_condition(
    omega_i: float, z_n: float, omega_j: float, z_m: float, tol: float
) -> bool:
    r"""Whether the two excitations are Rindler-energy degenerate.

    True iff :math:`|\omega_j z_m - \omega_i z_n| \le \mathrm{tol}`; only such
    pairs leave the field in overlapping states, so only they contribute
    off-diagonal (coherence) terms.  Symmetric under the simultaneous swap
    ``(i, n) <-> (j, m)``.
    """
    if not tol > 0.0:
        raise ValueError(f"coherence tolerance must be positive, got {tol}")
    return abs(omega_j * z_m - omega_i * z_n) <= tol


def validate_regime(det, traj_set: TrajectorySet, epsilon: float, T: float | None = None, peak: float | None = None) -> RegimeReport:
    r"""Order-of-magnitude validity checks for the perturbative, quasi-stationary
    treatment; the one home of every run-validity rule.

    Parameters
    ----------
    det : DetectorSpec
        Internal spectrum; only the lowest gap :math:`\omega_1` is used.
    traj_set : TrajectorySet
        Superposition branches; only the lowest height :math:`z_1` is used.
    epsilon : float
        Coupling strength, ``0 < epsilon < 1``.
    T : float, optional
        User-chosen interaction time; if given, it is compared against the
        recommended compromise value.
    peak : float, optional
        Largest excited entry per unit :math:`\varepsilon^2 T`
        (``BlockDensity.max_entry``); with ``T`` it checks the first-order bound.

    Returns
    -------
    RegimeReport
        ``t_recommended = 1/(epsilon * omega_1)`` plus warnings coded
        ``acceleration-too-high`` (:math:`\omega_1 z_1 < \mu` with
        :math:`\mu = \frac{1}{2\pi}\log(\frac{1}{2\pi}+1)`),
        ``time-too-short``/``time-too-long`` (``T`` more than a factor 10
        from the recommendation) and ``perturbative-bound``
        (:math:`\varepsilon^2 T \cdot \mathrm{peak} > \varepsilon`).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    frequencies = tuple(det.frequencies)
    if not frequencies:
        raise ValueError("detector spectrum is empty")
    omega_1 = frequencies[0]
    z_1 = traj_set[0].z
    t_recommended = 1.0 / (epsilon * omega_1) if epsilon * omega_1 > 0.0 else math.inf
    violations: list[str] = []
    q_min = omega_1 * z_1
    if q_min < MU:
        violations.append(
            "acceleration-too-high: omega_1*z_1 = "
            f"{q_min:.6g} < mu = {MU:.6g}; the lowest level is no longer a "
            "small perturbation of the thermal response"
        )
    if T is not None:
        if T < t_recommended / 10.0:
            violations.append(
                f"time-too-short: T = {T:.6g} is more than 10x below the "
                f"recommended 1/(epsilon*omega_1) = {t_recommended:.6g}; "
                "switching transients are not negligible"
            )
        elif T > t_recommended * 10.0:
            violations.append(
                f"time-too-long: T = {T:.6g} is more than 10x above the "
                f"recommended 1/(epsilon*omega_1) = {t_recommended:.6g}; "
                "first-order perturbation theory degrades"
            )
        if peak is not None and epsilon * epsilon * T * peak > epsilon:
            violations.append(
                f"perturbative-bound: epsilon^2 T x entry = "
                f"{epsilon * epsilon * T * peak:.3e} exceeds epsilon = {epsilon:.3e}; "
                "first-order treatment is unreliable for these parameters"
            )
    return RegimeReport(t_recommended=t_recommended, violations=tuple(violations))

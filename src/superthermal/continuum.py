r"""Continuous-spectrum kernels for spatially smeared superpositions.

When the branch superposition becomes a smooth amplitude
:math:`A(\vec{x})` over positions (heights :math:`z > 0` plus transverse
coordinates) and the internal spectrum becomes continuous with coupling
density :math:`\zeta(\omega)`, the long-duration joint state is no
longer a matrix but a kernel.  Its content splits into

* a *delta-constrained scalar product* between single-excitation states:
  :math:`\langle\omega',\vec{x}'|\omega,\vec{x}\rangle \propto
  \delta(\omega' - \omega z/z')` with a finite weight
  (:func:`continuum_offdiag_coefficient` returns the weight and the
  constrained partner frequency, keeping the delta symbolic), and
* the *joint-state integrand* per unit :math:`\varepsilon^2` at fixed
  dimensionless boost energy :math:`q`
  (:func:`continuum_joint_kernel`), whose diagonal restriction is a
  Planck-weighted spectral density (:func:`continuum_spectrum_slice`).

Both come from the delta weight :math:`w(q)`, the one place
:math:`\Lambda` and the Planck factor are written: the kernel is
:math:`A(\vec{x}')^* A(\vec{x})\,\zeta(q/z')^*\zeta(q/z)\,w(q)/z`, real on
the diagonal (:math:`\Lambda = 1`), and the spectrum is its transverse sum.

Deltas are always carried as (weight, location) pairs — never as tall
narrow numerical spikes — so weak-limit properties can be tested
exactly.  The kernel's absolute scale has no canonical bridge to the
discrete per-:math:`\varepsilon^2 T` normalization; comparisons against
the discrete assembly are therefore made through ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Trajectory, delta_xbar, delta_xi
from .specfun import _planck_factor, _scalar_or_array, lambda_overlap

__all__ = [
    "SmearedAmplitude",
    "CouplingFunction",
    "continuum_offdiag_coefficient",
    "continuum_joint_kernel",
    "continuum_spectrum_slice",
]

_NORMALIZATION_TOL = 1e-6


def _uniform_spacing(axis: np.ndarray, name: str, explicit: float | None) -> float:
    if axis.size >= 2:
        steps = np.diff(axis)
        h = float(steps[0])
        if h <= 0.0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
            raise ValueError(f"{name} axis must be uniformly increasing")
        if explicit is not None and not math.isclose(explicit, h, rel_tol=1e-9):
            raise ValueError(
                f"{name} axis spacing {h!r} contradicts explicit value {explicit!r}"
            )
        return h
    if explicit is None:
        raise ValueError(
            f"singleton {name} axis needs an explicit cell spacing to carry "
            "a finite cell volume"
        )
    if not explicit > 0.0:
        raise ValueError(f"{name} spacing must be positive")
    return float(explicit)


@dataclass(frozen=True)
class SmearedAmplitude:
    """Complex amplitude sampled on a rectangular (x, y, z) grid.

    Axes must be uniformly spaced; axes with a single sample require an
    explicit spacing (their cell extent cannot be inferred).  The
    sampled profile must be normalized:
    :math:`\\sum |A|^2 \\, \\Delta x\\Delta y\\Delta z = 1` within 1e-6.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    values: np.ndarray
    spacings: tuple[float | None, float | None, float | None] | None = None

    def __post_init__(self) -> None:
        axes = []
        for name, axis in (("x", self.x), ("y", self.y), ("z", self.z)):
            arr = np.asarray(axis, dtype=float).ravel()
            if arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} axis must be non-empty and finite")
            axes.append(arr)
        explicit = self.spacings or (None, None, None)
        spac = tuple(
            _uniform_spacing(arr, name, h)
            for (name, arr, h) in zip(("x", "y", "z"), axes, explicit)
        )
        if np.any(axes[2] <= 0.0):
            raise ValueError("all z samples must be positive (right wedge)")
        values = np.asarray(self.values, dtype=complex)
        shape = (axes[0].size, axes[1].size, axes[2].size)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != grid shape {shape}")
        volume = spac[0] * spac[1] * spac[2]
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails below
            norm = float(np.sum(np.abs(values) ** 2) * volume)
        if not abs(norm - 1.0) <= _NORMALIZATION_TOL:
            raise ValueError(
                f"amplitude is not normalized: sum |A|^2 dV = {norm!r}"
            )
        for arr in axes:
            arr.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "x", axes[0])
        object.__setattr__(self, "y", axes[1])
        object.__setattr__(self, "z", axes[2])
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacings", spac)

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacings
        return hx * hy * hz

    def _axis_index(self, axis: np.ndarray, value: float, name: str) -> int:
        idx = int(np.argmin(np.abs(axis - value)))
        if not math.isclose(float(axis[idx]), value, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"{name} = {value!r} is not a grid sample")
        return idx

    def index_of(self, point: tuple[float, float, float]) -> tuple[int, int, int]:
        px, py, pz = (float(c) for c in point)
        return (
            self._axis_index(self.x, px, "x"),
            self._axis_index(self.y, py, "y"),
            self._axis_index(self.z, pz, "z"),
        )

    def value_at(self, point: tuple[float, float, float]) -> complex:
        ix, iy, iz = self.index_of(point)
        return complex(self.values[ix, iy, iz])


@dataclass(frozen=True)
class CouplingFunction:
    """Tabulated coupling density ζ(ω), interpolated linearly.

    Samples must satisfy :math:`|\\zeta| \\le 1`; evaluation more than
    4 ulp outside the tabulated range is a domain error rather than an
    extrapolation, and arguments within 4 ulp of an end take its value.
    """

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float).ravel()
        values = np.asarray(self.values, dtype=complex).ravel()
        if omega.size < 2:
            raise ValueError("coupling table needs at least two samples")
        if not np.all(np.diff(omega) > 0.0):
            raise ValueError("coupling grid must be strictly increasing")
        if omega.shape != values.shape:
            raise ValueError("coupling grid and values differ in length")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError("couplings must satisfy |zeta| <= 1")
        omega.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        lo, hi = float(self.omega[0]), float(self.omega[-1])
        # Within 4 ulp of an end counts as the end: round trips such as
        # (omega z) / z can land one ulp outside the table.
        slack_lo = lo - 4.0 * abs(float(np.spacing(lo)))
        slack_hi = hi + 4.0 * abs(float(np.spacing(hi)))
        if np.any(w < slack_lo) or np.any(w > slack_hi):
            raise ValueError(
                f"coupling function tabulated on [{lo:g}, {hi:g}] does not "
                f"cover omega = {w[np.argmax((w < slack_lo) | (w > slack_hi))] if w.ndim else float(w):g}"
            )
        w = np.clip(w, lo, hi)
        re = np.interp(w, self.omega, self.values.real)
        im = np.interp(w, self.omega, self.values.imag)
        out = re + 1j * im
        return complex(out) if np.ndim(omega) == 0 else out


def _delta_weight(q, point, point_prime):
    r"""The weight of :func:`continuum_offdiag_coefficient` at boost
    energy ``q`` (array_like); 0 wherever :math:`\Lambda` is, also where
    :math:`\cosh\Delta\xi` overflows."""
    # Trajectory rejects heights outside the right wedge (z <= 0).
    here, there = (Trajectory(z=float(p[2]), x_perp=(float(p[0]), float(p[1])))
                   for p in (point, point_prime))
    dxi = delta_xi(here, there)
    overlap = lambda_overlap(q, dxi, delta_xbar(here, there))
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is not taken
        scale = np.sqrt(np.cosh(dxi)) / (there.z * math.sqrt(2.0 * math.pi))
        stretched = np.where(overlap == 0.0, 0.0, scale * overlap * q)
    return _planck_factor(stretched, 2.0 * math.pi * np.asarray(q, dtype=float))


def continuum_offdiag_coefficient(
    omega,
    point: tuple[float, float, float],
    point_prime: tuple[float, float, float],
):
    r"""Weight and location of the delta-constrained scalar product

    .. math::
        \langle\omega',\vec{x}'|\omega,\vec{x}\rangle
        = \frac{\sqrt{\cosh\Delta\xi}}{z'\sqrt{2\pi}}\,
          \Lambda(q, \Delta\xi, \Delta\bar{x})\,
          \frac{q}{e^{2\pi q} - 1}\;
          \delta\!\big(\omega' - \omega z/z'\big),
        \qquad q = \omega z.

    Returns ``(coefficient, omega_partner)`` with
    :math:`\omega' = \omega z / z'`; the delta itself stays symbolic.
    ``omega`` may be an array, which gives arrays of both.
    """
    omegas = np.asarray(omega, dtype=float)
    if not np.all(omegas > 0.0):
        raise ValueError("omega must be positive")
    z, zp = float(point[2]), float(point_prime[2])
    coefficient = _delta_weight(omegas * z, point, point_prime)
    return _scalar_or_array(coefficient, omega), _scalar_or_array(omegas * z / zp, omega)


def continuum_joint_kernel(
    q: float,
    point: tuple[float, float, float],
    point_prime: tuple[float, float, float],
    amplitude: SmearedAmplitude,
    coupling: CouplingFunction,
) -> complex:
    r"""Joint-state integrand per unit :math:`\varepsilon^2` at fixed
    boost energy :math:`q` and position pair:

    .. math::
        \frac{1}{\sqrt{2\pi}}\,A(\vec{x}')^* A(\vec{x})\,
        \sqrt{\tfrac{1}{2}\big(\tfrac{1}{z^2}+\tfrac{1}{z'^2}\big)}\;
        \zeta(q/z')^*\,\zeta(q/z)\,\Lambda(q,\Delta\xi,\Delta\bar{x})\,
        \frac{q/\sqrt{z z'}}{e^{2\pi q} - 1}
        = A(\vec{x}')^* A(\vec{x})\,\zeta(q/z')^*\zeta(q/z)\,w(q)/z,

    with :math:`w` the weight of :func:`continuum_offdiag_coefficient`
    at :math:`\omega = q/z`, as
    :math:`\sqrt{\tfrac{1}{2}(1/z^2 + 1/z'^2)}\,z'/\sqrt{z z'}
    = \sqrt{\cosh\Delta\xi}/z`.

    Both positions must be samples of the amplitude grid, and the
    coupling table must cover :math:`q/z` and :math:`q/z'`.  Hermitian
    under swapping the two positions with conjugation.
    """
    if not q > 0.0:
        raise ValueError("q must be positive")
    weight = _delta_weight(q, point, point_prime)
    z, zp = float(point[2]), float(point_prime[2])
    a = amplitude.value_at(point)
    ap = amplitude.value_at(point_prime)
    return complex(ap.conjugate() * a * coupling(q / zp).conjugate() * coupling(q / z) * weight / z)


def _diagonal_kernel(
    amplitude: SmearedAmplitude, coupling: CouplingFunction, z_fixed: float, omega_grid
) -> np.ndarray:
    r"""The kernel on the diagonal (:math:`\vec{x} = \vec{x}'`, so
    :math:`\Lambda = 1`) at height ``z_fixed`` and :math:`q = \omega z`,
    as a real (omega, x, y) array
    :math:`|A(x, y, z)|^2\,|\zeta(\omega)|^2\,w(\omega z)/z`."""
    z = float(z_fixed)
    iz = amplitude._axis_index(amplitude.z, z, "z")
    omegas = np.asarray(omega_grid, dtype=float)
    if np.any(omegas <= 0.0):
        raise ValueError("omega grid must be positive")
    point = (0.0, 0.0, z)
    spectral = np.abs(coupling(omegas)) ** 2 * _delta_weight(omegas * z, point, point) / z
    return np.abs(amplitude.values[:, :, iz]) ** 2 * spectral[..., None, None]


def continuum_spectrum_slice(
    amplitude: SmearedAmplitude, coupling: CouplingFunction, z_fixed: float, omega_grid
) -> np.ndarray:
    r"""Diagonal (:math:`\vec{x} = \vec{x}'`) kernel density at height
    ``z_fixed``, aggregated over the transverse plane and sampled at
    :math:`q = \omega z`:

    .. math::
        S(\omega) = \frac{1}{\sqrt{2\pi}}
        \Big[\textstyle\sum_{x,y} |A(x, y, z)|^2 \Delta x \Delta y\Big]
        \frac{1}{z}\,|\zeta(\omega)|^2\,
        \frac{\omega}{e^{2\pi\omega z} - 1}.

    A Planck-weighted spectrum: for :math:`\omega z \gtrsim 1` it decays
    monotonically along the thermal tail.
    """
    hx, hy, _ = amplitude.spacings
    return _diagonal_kernel(amplitude, coupling, z_fixed, omega_grid).sum(axis=(-2, -1)) * hx * hy

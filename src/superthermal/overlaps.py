r"""Field-state scalar products between excitations on accelerated branches.

When a pointlike multilevel system on branch ``m`` (height :math:`z_m`)
deposits a quantum of gap :math:`\omega_j` into the field, the field is
left in a one-particle state :math:`|\omega_j, m\rangle_F`.  In the
long-interaction regime these states obey

.. math::
    \langle\omega_j,m|\omega_j,m\rangle_F
        = \frac{T}{2\pi}\,\frac{\omega_j}{e^{2\pi\omega_j z_m} - 1},

and two excitations on *different* branches overlap only when their
boost energies (nearly) coincide, :math:`\omega_j z_m \simeq
\omega_i z_n`; the overlap is then the geometric mean of the diagonal
norms times the factor :math:`\Lambda(q, \Delta\xi, \Delta\bar{x})`.

This module provides those asymptotic closed forms plus two independent
quadrature routes used to validate them:

* :func:`oracle_overlap_finite_t` — the finite-duration overlap as one
  integral over the boost frequency :math:`\nu` on the whole line, with
  the Gaussian window factor and the transverse-momentum integral
  :math:`\int dk\,k\,J_0 K_{i\nu} K_{i\nu}` in closed form;
* :func:`oracle_lambda_quadrature` — the
  :math:`\bar{k}`-integral representation of :math:`\Lambda` in terms of
  a product of modified Bessel functions of imaginary order, which checks
  that closed form at :math:`\nu = q`.

Each takes one pass of the 33-point Gauss--Kronrod rule, and raises
:class:`QuadratureError` (:func:`_converged`) rather than return a value
whose change passes its target: the Kronrod sum less its embedded Gauss
sum, plus in the :math:`\Lambda` oracle the error terms of
:func:`_lambda_quadrature`.  The private entries return that change and
the target with the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Trajectory, coherence_condition, delta_xbar, delta_xi
from .specfun import (
    _PANEL_POINTS,
    _k_imag_outer,
    _overlap_geometry,
    _overlap_of_geometry,
    _panel_nodes,
    bessel_j0,
    planck_weight,
)

__all__ = [
    "QuadratureError",
    "OverlapResult",
    "OverlapDiagnostics",
    "ConvergenceRow",
    "ConvergenceReport",
    "diag_overlap",
    "offdiag_overlap",
    "overlap_diagnostics",
    "oracle_overlap_finite_t",
    "oracle_lambda_quadrature",
    "convergence_report",
]

#: Decay (in e-foldings) of the Bessel-product envelope at which the k̄
#: integral of the Λ oracle is truncated (e^-37 ~ 8.5e-17 of peak).
_ENVELOPE_DECAY = 37.0

#: Most values one oracle grid may need per array, about 32 MiB each: J_0
#: values (separations x k nodes) in the Lambda oracle, boost-frequency
#: nodes in the finite-duration oracle.  oracle-validate's Lambda calls need
#: at most 7227 and its durations 198 nodes; a large separation, or T far
#: below 1/omega (8/T orders at omega = z = 1, past the cap from
#: T = 3.2e-5), widens the grid without bound.
_MAX_GRID_VALUES = 2**22

#: Phase (or e-foldings) of a k̄ panel, per unit of each rate of the
#: integrand: in log k of 2ν + k Δx̄ + 2 (the K_iν product turns at 2ν, J_0
#: at k Δx̄, and k² grows at 2); in k of Δx̄ + 1 (the entire J_0) and of the
#: envelope's decay rate.  A panel's embedded 16-point Gauss rule errs by
#: 4.4e-21 on cos and 1.3e-22 on e^{-φ} over it (mpmath); its bound 2^33
#: (16!)^4 / (33 (32!)^3) (Φ/2)^32 (Trefethen, SIAM Review 50, 2008) is
#: 1e-20 at 11.71.  Half or a quarter of it moved Λ by at most 2.2e-12.
_GL_PHASE = 11.5
#: Phase of a linear panel per unit of (ν + 1)/k: the branch point of K_iν
#: at k = 0 (the log of K_0 at ν = 0), graded by the distance to it.  The
#: rule errs by 1e-41 over π/2; at 3π/4 the Λ error reached 9 times its
#: change (1.7e-13 at q = 11, Δξ = 1.5; 3.8 times at π/2).  With ν/k + 1
#: instead, nothing bounds the panels next to K_0's log singularity at
#: Δx̄ ≤ 2.5, and the q = 0 change of oracle-validate rose from 2.3e-12 to
#: 4.0e-10.
_LINEAR_PHASE = 0.5 * math.pi
#: Fewest panels on the boost-frequency window, ±8 standard deviations of
#: its Gaussian.  Three or twelve instead moved no value of 24 pairs at
#: T = 1e-3 to 80 (the tests' among them) by more than 5.3e-15 relative:
#: rounding.
_SPECTRAL_PANELS = 6
#: Orders ν per boost-frequency panel, divided by μ + 1: sin(νμ) turns by μ
#: per unit of ν, and 1/expm1(2πν) has poles at ν = ±i, one unit off the
#: axis.  At 2 the largest change over those pairs was 1.6e-4 of its
#: target (T = 0.5); at 3 it was 5e-2 (T = 0.2), and at 4 T = 0.03-0.2
#: missed the target.
_SPECTRAL_ORDER_SPAN = 2.0


class QuadratureError(RuntimeError):
    """A quadrature failed its self-consistency target; no value is returned."""


@dataclass(frozen=True)
class OverlapResult:
    """Outcome of :func:`offdiag_overlap`.

    ``value`` is the scalar product (real for these closed forms, stored
    as complex), ``condition_met`` records whether the boost-energy
    degeneracy condition held, and ``q`` is the shared dimensionless
    product :math:`\\omega z` of the pair (``None`` when the condition
    fails, in which case the value is exactly zero).
    """

    value: complex
    condition_met: bool
    q: float | None = None

    def __post_init__(self) -> None:
        if not self.condition_met and self.value != 0:
            raise ValueError("a failed degeneracy condition forces a zero overlap")


@dataclass(frozen=True)
class OverlapDiagnostics:
    """Gaussian bookkeeping of the finite-duration overlap.

    ``suppression`` is the exponent :math:`C` damping misaligned pairs
    (the overlap carries :math:`e^{-C}`), ``sharpness`` is the exponent
    scale :math:`M` controlling the :math:`O(1/M)` approach to the
    asymptotic forms, ``omega_bar`` is the center of the Gaussian over the
    boost frequency :math:`\nu` (the dimensionless order of
    :math:`K_{i\nu}`) and ``width`` its standard scale
    :math:`\\bar\\omega/\\sqrt{2M}`.  ``q_row`` and ``q_col`` are the two
    boost-energy products whose mismatch drives ``suppression``.
    """

    suppression: float
    sharpness: float
    omega_bar: float
    width: float
    q_row: float
    q_col: float


def _require_finite(what: str, **values: float) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{what} requires a finite {name}, got {value}")


def diag_overlap(omega: float, z: float, T: float) -> float:
    r"""Norm of a single-branch excitation:
    :math:`\frac{T}{2\pi}\,\frac{\omega}{e^{2\pi\omega z}-1}`.

    Strictly positive; exactly linear in ``T``.
    """
    if not (omega > 0.0 and z > 0.0 and T > 0.0):
        raise ValueError("diag_overlap requires omega, z, T > 0")
    _require_finite("diag_overlap", T=T)
    return T / (2.0 * math.pi) * planck_weight(omega, z)


def offdiag_overlap(
    omega_i: float,
    traj_n: Trajectory,
    omega_j: float,
    traj_m: Trajectory,
    T: float,
    tol: float,
) -> OverlapResult:
    r"""Scalar product between excitations :math:`(\omega_i, n)` and
    :math:`(\omega_j, m)` in the long-duration regime.

    Zero (with ``condition_met=False``) unless
    :math:`|\omega_j z_m - \omega_i z_n| \le \mathrm{tol}`; otherwise

    .. math::
        \sqrt{\langle\omega_i,n|\omega_i,n\rangle
              \langle\omega_j,m|\omega_j,m\rangle}\;
        \Lambda(q, \Delta\xi_{mn}, \Delta\bar{x}_{mn}),

    with :math:`q` the shared product :math:`\omega z`, taken as in
    :func:`~superthermal.detector.joint_state` from the lexicographically
    smaller ``(omega, z, x, y)`` side, so that swapping the two sides keeps it
    even when the products differ within the tolerance (the value can still
    move by an ulp, through :math:`\Delta\xi = \log(z_m/z_n)`).  Both norms
    come from one :func:`~superthermal.specfun.planck_weight` call.
    """
    if not (omega_i > 0.0 and omega_j > 0.0 and T > 0.0):
        raise ValueError("offdiag_overlap requires positive frequencies and T")
    _require_finite("offdiag_overlap", omega_i=omega_i, omega_j=omega_j, T=T)
    if not coherence_condition(omega_i, traj_n.z, omega_j, traj_m.z, tol):
        return OverlapResult(value=0j, condition_met=False, q=None)
    omega_lo, traj_lo = min((omega_i, traj_n), (omega_j, traj_m), key=lambda p: (p[0], p[1].z, *p[1].x_perp))
    q = omega_lo * traj_lo.z
    norm_i, norm_j = (T / (2.0 * math.pi) * planck_weight([omega_i, omega_j], [traj_n.z, traj_m.z])).tolist()
    geometry = _overlap_geometry(np.asarray(delta_xi(traj_m, traj_n)), np.asarray(delta_xbar(traj_m, traj_n)))
    value = math.sqrt(norm_i) * math.sqrt(norm_j) * float(_overlap_of_geometry(q, *geometry))
    return OverlapResult(value=complex(value), condition_met=True, q=q)


def overlap_diagnostics(
    omega_i: float,
    traj_n: Trajectory,
    omega_j: float,
    traj_m: Trajectory,
    T: float,
) -> OverlapDiagnostics:
    r"""Expose the finite-duration Gaussian parameters
    (:math:`C`, :math:`M`, :math:`\bar\omega`, width) for a pair of
    excitations, so borderline degeneracies can be judged quantitatively
    instead of through the binary condition alone; the finite-duration
    oracle integrates over the same Gaussian.
    """
    if not (omega_i > 0.0 and omega_j > 0.0 and T > 0.0):
        raise ValueError("the finite-duration overlap requires omega_i, omega_j, T > 0")
    _require_finite("the finite-duration overlap", omega_i=omega_i, omega_j=omega_j, T=T)
    zm, zn = traj_m.z, traj_n.z
    zz = zm * zm + zn * zn
    q_row = omega_j * zm
    q_col = omega_i * zn
    suppression = (q_row - q_col) ** 2 * T * T / zz
    sharpness = (omega_i * zm + omega_j * zn) ** 2 * T * T / zz
    omega_bar = (omega_j / zm + omega_i / zn) / (1.0 / zm**2 + 1.0 / zn**2)
    width = omega_bar / math.sqrt(2.0 * sharpness)
    return OverlapDiagnostics(
        suppression=suppression,
        sharpness=sharpness,
        omega_bar=omega_bar,
        width=width,
        q_row=q_row,
        q_col=q_col,
    )


def _kbar_grid(
    nu_max: float, osc_max: float, decay_rate: float, kbar_max: float, separations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r"""Quadrature grid for :math:`\int_0^{k_{max}} dk\,k\,J_0(k\,\cdot)\,
    K_{i\nu}(k s_+) K_{i\nu}(k s_-)`: the nodes, their Kronrod weights and
    their embedded Gauss weights (:func:`~superthermal.specfun._panel_nodes`).

    The first panel, [1e-7/1.5, 1e-7], is the floor panel.  Up to k = 0.1
    the panels are log-spaced, ``_GL_PHASE`` per unit of :math:`2\nu` + k
    ``osc_max`` + 2.  Above, each panel is the narrowest of three limits:
    ``_LINEAR_PHASE`` per unit of :math:`(\nu + 1)/k` (the branch point of
    :math:`K_{i\nu}` at k = 0, so only this limit grows finer toward it),
    and ``_GL_PHASE`` per unit of ``osc_max`` + 1 and of ``decay_rate``.
    The panels are counted in closed form (the linear edges grow
    geometrically while the branch limit binds, and evenly after), so a
    grid that needs more than ``_MAX_GRID_VALUES`` :math:`J_0` values
    (``separations`` x nodes) raises :class:`QuadratureError`, naming
    ``osc_max``, before anything is built."""
    k_floor = 1e-7
    k_log_end = min(0.1, 0.5 * kbar_max)
    u_lo, u_hi = math.log(k_floor), math.log(k_log_end)
    width_u = _GL_PHASE / (2.0 * nu_max + k_log_end * osc_max + 2.0)
    n_log = max(1, int(math.ceil((u_hi - u_lo) / width_u)))
    # The branch limit c k grows the edges by 1 + c per panel up to k_turn,
    # where it meets the constant width of the other two.
    growth = _LINEAR_PHASE / (nu_max + 1.0)
    width = _GL_PHASE / max(osc_max + 1.0, decay_rate)
    k_turn = min(width / growth, kbar_max)
    log_ratio = math.log1p(growth)
    n_geo = max(0, math.ceil(math.log(k_turn / k_log_end) / log_ratio))
    k_geo = k_log_end * math.exp(log_ratio * n_geo)
    n_flat = max(0, math.ceil((kbar_max - k_geo) / width))
    if (1 + n_log + n_geo + n_flat) * _PANEL_POINTS * separations > _MAX_GRID_VALUES:
        raise QuadratureError(
            f"lambda quadrature at dxbar = {osc_max:g} needs more than {_MAX_GRID_VALUES} "
            "J_0 values (separations x k nodes); its k grid grows linearly in dxbar"
        )
    log_nodes, *log_weights = _panel_nodes(np.append(math.log(k_floor / 1.5), np.linspace(u_lo, u_hi, n_log + 1)))
    k_log = np.exp(log_nodes)
    edges = np.concatenate([
        k_log_end * np.exp(log_ratio * np.arange(n_geo + 1)),
        k_geo + width * np.arange(1, n_flat + 1),
    ])
    lin_nodes, *lin_weights = _panel_nodes(np.append(edges[edges < kbar_max], kbar_max))
    # Kronrod and Gauss weights, du measure -> dk measure on the log panels
    weights = [np.concatenate([w * k_log, v]) for w, v in zip(log_weights, lin_weights)]
    return np.concatenate([k_log, lin_nodes]), *weights


def _k_products(nu: float, x_a: np.ndarray, x_b: np.ndarray):
    r"""``K_imag`` of order ``nu`` at both argument sets, at the trapezoidal
    step over 1.5: per node, the products ``K_a K_b``, and the K series'
    error bound and the trapezoidal values' rounding estimate carried into
    them (:func:`~superthermal.specfun._k_imag_outer` reports both per value).

    Two distinct sets (each sorted) go through one call on their merged
    arguments, so their trapezoidal bands are set up once.  The series
    sums each value on its own, so below its crossover the values and
    bound are those of two calls; above it the bands regroup at rounding
    level."""

    def k_at(x):
        err, rounding = np.empty(x.size), np.empty(x.size)
        return np.stack([_k_imag_outer(nu, x, 1.5, err=err, rounding=rounding), err, rounding])

    if x_b is x_a:
        (k_a, err_a, rnd_a) = (k_b, err_b, rnd_b) = k_at(x_a)
    else:
        # Both sets are sorted, so a value's place in the merged set is its
        # own index plus the count of the other set's values before it (an
        # argsort would page in numpy's sort code, about 0.3 MB more RSS).
        a = np.arange(x_a.size) + np.searchsorted(x_b, x_a, side="left")
        b = np.arange(x_b.size) + np.searchsorted(x_a, x_b, side="right")
        x = np.empty(x_a.size + x_b.size)
        x[a], x[b] = x_a, x_b
        merged = k_at(x)
        (k_a, err_a, rnd_a), (k_b, err_b, rnd_b) = merged[:, a], merged[:, b]
    abs_a, abs_b = np.abs(k_a), np.abs(k_b)
    return k_a * k_b, abs_a * err_b + err_a * abs_b + err_a * err_b, abs_a * rnd_b + rnd_a * abs_b


#: Absolute target of :func:`oracle_lambda_quadrature`'s change.
_LAMBDA_TARGET = 1e-8

#: Absolute target of :func:`oracle_overlap_finite_t`'s change, per unit T.
_FINITE_T_TARGET = 1e-10


def _converged(value, change: float, target: float, what: str):
    """The three, unless ``change`` is past ``target`` or NaN: then :class:`QuadratureError` naming ``what``."""
    if not change <= target:
        raise QuadratureError(f"{what} did not converge: its change is {change:.3e} (target {target:.1e})")
    return value, change, target


def _lambda_quadrature(q: float, dxi: float, dxbar) -> tuple[np.ndarray, float, float]:
    r""":func:`oracle_lambda_quadrature` on an array of ``dxbar``, with its
    change and target (see :func:`_converged`).

    The change, the largest over the separations, sums |Kronrod - Gauss|;
    the floor panel's part, which exceeds the piece below it that no panel
    takes (at q = 0, :math:`k K_0^2` grows like :math:`k \log^2 k`); the K
    series bound carried through :math:`|J_0|\,w\,\bar{k}`; and the root
    sum of squares of each trapezoidal K value's rounding, carried the same
    way, an estimate and not a bound, which grows like
    :math:`e^{\pi q}\epsilon` against :math:`\Lambda`."""
    if not (q >= 0.0 and math.isfinite(q)):
        raise ValueError(f"oracle_lambda_quadrature requires q >= 0, got {q}")
    if math.pi * q > 700.0:
        raise ValueError("q too large for the quadrature representation")
    dxbar_arr = np.atleast_1d(np.asarray(dxbar, dtype=float))
    if not np.all(dxbar_arr >= 0.0):
        raise ValueError("oracle_lambda_quadrature requires dxbar >= 0")
    s_plus = math.sqrt(0.5 * (math.exp(2.0 * dxi) + 1.0))
    s_minus = math.sqrt(0.5 * (math.exp(-2.0 * dxi) + 1.0))
    decay = s_plus + s_minus
    kbar, weights, gauss = _kbar_grid(
        nu_max=q, osc_max=float(dxbar_arr.max()), decay_rate=decay, kbar_max=(_ENVELOPE_DECAY + math.pi * q) / decay,
        separations=dxbar_arr.size,
    )
    x_plus = kbar * s_plus
    x_minus = x_plus if s_minus == s_plus else kbar * s_minus
    product, bound, rounding = _k_products(float(q), x_plus, x_minus)
    j0 = bessel_j0(np.outer(dxbar_arr, kbar))
    measure = weights * kbar
    integrand = measure * product
    prefactor = 2.0 if q == 0.0 else 2.0 * math.sinh(math.pi * q) / (math.pi * q)
    scale = prefactor * math.sqrt(math.cosh(dxi))
    change = (
        np.abs(j0 @ ((weights - gauss) * kbar * product))
        + np.abs(j0[:, :_PANEL_POINTS] @ integrand[:_PANEL_POINTS])
        + np.abs(j0) @ (measure * bound)
        + np.sqrt(j0**2 @ (measure * rounding) ** 2)
    )
    what = f"lambda quadrature at q={q}, dxi={dxi}"
    return _converged(scale * (j0 @ integrand), scale * float(np.max(change)), _LAMBDA_TARGET, what)


def oracle_lambda_quadrature(q: float, dxi: float, dxbar):
    r"""Overlap factor :math:`\Lambda` computed from its integral
    representation

    .. math::
        \Lambda = \frac{2\sinh(\pi q)}{\pi q}\sqrt{\cosh\Delta\xi}
        \int_0^\infty d\bar{k}\,\bar{k}\,J_0(\bar{k}\Delta\bar{x})\,
        K_{iq}\!\big(\bar{k}\,s_+\big) K_{iq}\!\big(\bar{k}\,s_-\big),
        \qquad s_\pm = \sqrt{\tfrac{1}{2}(e^{\pm 2\Delta\xi}+1)},

    with the :math:`q \to 0` prefactor limit equal to 2 — an evaluation
    route fully independent of :func:`~superthermal.specfun.lambda_overlap`.

    ``dxbar`` may be an array: the expensive Bessel products are computed
    once and shared across all transverse separations.

    Target 1e-8 for the change (:func:`_lambda_quadrature`); a larger one
    raises :class:`QuadratureError`.  The change is an estimate, not an
    error bound: near the rounding floor it can fall below the distance
    to the closed form.  The integral depends on ``dxi`` only through
    :math:`s_\pm`, which swap with its sign, so ``-dxi`` gives the same
    value to the last bit.
    """
    values = _lambda_quadrature(q, dxi, dxbar)[0]
    if np.ndim(dxbar) == 0:
        return float(values[0])
    return values


def _hyperbolic_distance(traj_m: Trajectory, traj_n: Trajectory) -> float:
    r""":math:`\mu` with :math:`\cosh\mu = (z_m^2 + z_n^2 + b^2)/(2 z_m z_n)`,
    b the transverse distance, straight from the heights and offsets:
    :math:`\sinh(\mu/2) = \sqrt{(z_m - z_n)^2 + b^2}/(2\sqrt{z_m z_n})`
    has no cancellation and overflows only with :math:`\mu`."""
    zm, zn = traj_m.z, traj_n.z
    gap = math.hypot(zm - zn, math.dist(traj_m.x_perp, traj_n.x_perp))
    return 2.0 * math.asinh(gap / (2.0 * math.sqrt(zm) * math.sqrt(zn)))


def _finite_t_quadrature(par: OverlapDiagnostics, mu: float, zm: float, zn: float, T: float) -> tuple[float, float]:
    r"""The boost-frequency quadrature of :func:`oracle_overlap_finite_t`,
    whose Gaussian parameters are ``par`` and hyperbolic distance ``mu``:
    its Kronrod value and the size of its Kronrod-Gauss difference.

    The window is covered by equal panels, at least ``_SPECTRAL_PANELS`` of
    them and one per ``_SPECTRAL_ORDER_SPAN`` of :math:`\nu(\mu + 1)`, counted
    before any node is made.  A window narrower than the spacing of doubles
    at s = 1 (an infinite M aside) and one past ``_MAX_GRID_VALUES`` nodes
    raise :class:`QuadratureError`."""
    half_support = 8.0 / math.sqrt(2.0 * par.sharpness)
    if math.isfinite(par.sharpness) and 2.0 * half_support < math.ulp(1.0):
        raise QuadratureError(f"finite-duration overlap at T = {T:g}: its window, s = 1 +- {half_support:.3g}, "
                              "is narrower than the spacing of doubles at s = 1")
    span = 2.0 * half_support * par.omega_bar
    n_panels = max(_SPECTRAL_PANELS, span * (mu + 1.0) / _SPECTRAL_ORDER_SPAN)
    if not n_panels * _PANEL_POINTS <= _MAX_GRID_VALUES:
        raise QuadratureError(
            f"finite-duration overlap at T = {T:g} needs more than {_MAX_GRID_VALUES} "
            f"boost-frequency nodes (a window of {span:.4g} orders at mu = {mu:.4g}); "
            "T far below 1/omega widens the window without bound"
        )
    s_nodes, s_weights, s_gauss = _panel_nodes(
        np.linspace(1.0 - half_support, 1.0 + half_support, math.ceil(n_panels) + 1)
    )
    nu = s_nodes * par.omega_bar
    # e^{-pi nu}/sinh(pi nu) = 2/expm1(x), x = 2 pi nu, is x/expm1(x) over
    # pi nu.  x/expm1(x) = |x| e^{-max(x, 0)}/(-expm1(-|x|)) cannot overflow
    # and is 1 at x = 0; the 1/nu goes into sin(nu mu)/(nu sinh mu) below.
    x = 2.0 * math.pi * nu
    with np.errstate(under="ignore"):
        planck = np.abs(x) * np.exp(-np.maximum(x, 0.0))
        denom = -np.expm1(-np.abs(x))
        planck = np.divide(planck, denom, out=np.ones_like(x), where=denom != 0.0)
        window = np.exp(-par.sharpness * (s_nodes - 1.0) ** 2)
    # sin(nu mu)/(nu sinh mu) = sinc(nu mu) mu/sinh(mu), 1 at mu = 0
    mu_over_sinh = 1.0 if mu == 0.0 else 2.0 * mu * math.exp(-mu) / -math.expm1(-2.0 * mu)
    terms = window * planck * np.sinc(nu * (mu / math.pi))
    scale = T * T * math.exp(-par.suppression) / math.sqrt(2.0 * math.pi**5) * par.omega_bar * mu_over_sinh
    value = scale / (2.0 * zm) / zn * float(s_weights @ terms)
    change = scale / (2.0 * zm) / zn * abs(float((s_weights - s_gauss) @ terms))
    if not (math.isfinite(value) and math.isfinite(change)):
        raise FloatingPointError(f"finite-duration overlap is not finite at T = {T:g}")
    return value, change


def _overlap_finite_t(
    omega_i: float, traj_n: Trajectory, omega_j: float, traj_m: Trajectory, T: float
) -> tuple[float, float, float]:
    """:func:`oracle_overlap_finite_t` with its change and target (see
    :func:`_converged`); the change is 0 for a suppressed pair."""
    par = overlap_diagnostics(omega_i, traj_n, omega_j, traj_m, T)
    target = _FINITE_T_TARGET * T
    if par.suppression > 800.0:
        return 0.0, 0.0, target
    value, change = _finite_t_quadrature(par, _hyperbolic_distance(traj_m, traj_n), traj_m.z, traj_n.z, T)
    return _converged(value, change, target, f"finite-duration overlap quadrature at T = {T:g}")


def oracle_overlap_finite_t(
    omega_i: float,
    traj_n: Trajectory,
    omega_j: float,
    traj_m: Trajectory,
    T: float,
) -> float:
    r"""Finite-duration scalar product
    :math:`\langle\omega_i,n|\omega_j,m\rangle_F` by direct quadrature.

    The overlap is the double integral

    .. math::
        \frac{T^2 e^{-C}}{\sqrt{2\pi^5}}
        \int_0^\infty\!dk_\perp\,k_\perp J_0(k_\perp\Delta x_\perp)
        \int_0^\infty\!d\nu\,
        K_{i\nu}(k_\perp z_m)\,K_{i\nu}(k_\perp z_n)\,
        \Big[e^{-\pi\nu} e^{-M(s - 1)^2} + e^{+\pi\nu} e^{-M(s + 1)^2}\Big],
        \qquad s = \nu/\bar\omega,

    over the boost frequency :math:`\nu`.  :math:`K_{i\nu}` is even in
    :math:`\nu`, so the counter-rotating Gaussian is the rotating one on
    :math:`\nu < 0`, and the
    :math:`k_\perp` integral has the closed form

    .. math::
        F(\nu) = \frac{\pi\sin(\nu\mu)}{2 z_m z_n \sinh(\pi\nu)\sinh\mu},
        \qquad \cosh\mu = \frac{z_m^2 + z_n^2 + \Delta x_\perp^2}{2 z_m z_n}

    (:math:`\Lambda`'s identity at real order, which
    :func:`oracle_lambda_quadrature` checks).  What is evaluated is the
    one integral

    .. math::
        \frac{T^2 e^{-C}}{\sqrt{2\pi^5}}
        \int_{-\infty}^{\infty}\!d\nu\,
        e^{-\pi\nu - M(s - 1)^2} F(\nu),

    over the Gaussian's support :math:`\bar\omega(1 \pm 8/\sqrt{2M})`, with
    no clip at :math:`\nu = 0`: :math:`e^{-\pi\nu}/\sinh(\pi\nu) =
    2/\operatorname{expm1}(2\pi\nu)` and :math:`\sin(\nu\mu)/\sinh\mu`
    (:math:`\nu` at :math:`\mu = 0`) are taken in forms that hold at every
    :math:`\nu`.  :math:`\mu` comes from the raw heights and offsets, not
    from :math:`(\Delta\xi, \Delta\bar{x})`, so agreement with the closed
    forms also checks that mapping.  Equal 33-point Gauss-Kronrod panels
    cover the window, six or more, and one per 2 orders over
    :math:`\mu + 1`.

    Target ``1e-10 * T`` for the change, the Kronrod less the embedded
    Gauss sum: an estimate, not an error bound (the window's edges leave
    out below 2e-13 relative on the tests' cases).  A larger change raises
    :class:`QuadratureError`, and so do a window that would need more than
    ``_MAX_GRID_VALUES`` nodes (T far below :math:`1/\omega`) and one
    narrower than the spacing of doubles at s = 1 (from T = 3.6e16 at
    :math:`\omega = z = 1`).
    Strongly suppressed pairs (:math:`C > 800`, value below the
    double-precision underflow scale) return exactly 0.
    """
    return _overlap_finite_t(omega_i, traj_n, omega_j, traj_m, T)[0]


@dataclass(frozen=True)
class ConvergenceRow:
    """One duration sample of the oracle-vs-asymptotic comparison;
    ``change`` is the oracle's Kronrod-Gauss difference and ``target``
    the bound it was held to."""

    T: float
    M: float
    oracle: float
    asymptotic: float
    rel_error: float
    change: float
    target: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Approach of the finite-duration overlap to its asymptotic form.

    ``slope`` is the fitted slope of :math:`\\log(\\mathrm{rel\\_error})`
    against :math:`\\log M`; the expected first-order behaviour is
    :math:`O(1/M)`, i.e. slope :math:`\\approx -1`.
    """

    rows: tuple[ConvergenceRow, ...]
    slope: float
    warnings: tuple[str, ...] = field(default_factory=tuple)


def convergence_report(omega: float, z: float, T_list) -> ConvergenceReport:
    r"""Compare :func:`oracle_overlap_finite_t` against the asymptotic
    norm :func:`diag_overlap` over increasing durations.

    Each row carries the duration ``T``, the sharpness
    :math:`M = 2\omega^2 T^2`, both values, and their relative
    difference.  Durations below :math:`1/\omega` are flagged: there the
    switching transients dominate and the asymptotic comparison is not
    meaningful.
    """
    if not (omega > 0.0 and z > 0.0):
        raise ValueError("convergence_report requires omega, z > 0")
    T_values = [float(T) for T in T_list]
    if not T_values:
        raise ValueError("T_list must be non-empty")
    if any(t2 <= t1 for t1, t2 in zip(T_values, T_values[1:])) or T_values[0] <= 0.0:
        raise ValueError("T_list must be strictly increasing and positive")
    if not all(math.isfinite(T) for T in T_values):
        raise ValueError(f"T_list must be finite, got {T_values}")
    traj = Trajectory(z=z)
    warnings: list[str] = []
    rows = []
    for T in T_values:
        if T < 1.0 / omega:
            warnings.append(
                f"regime violation: T = {T:.6g} is below 1/omega = {1.0 / omega:.6g}; "
                "switching transients dominate and the asymptotic comparison "
                "is unreliable"
            )
        oracle, change, target = _overlap_finite_t(omega, traj, omega, traj, T)
        asymptotic = diag_overlap(omega, z, T)
        rows.append(ConvergenceRow(
            T=T, M=2.0 * omega * omega * T * T, oracle=oracle, asymptotic=asymptotic,
            rel_error=abs(oracle - asymptotic) / asymptotic, change=change, target=target,
        ))
    slope = math.nan
    if len(rows) >= 2 and all(r.rel_error > 0.0 for r in rows):
        log_m = np.log([r.M for r in rows])
        log_e = np.log([r.rel_error for r in rows])
        slope = float(np.polyfit(log_m, log_e, 1)[0])
    return ConvergenceReport(rows=tuple(rows), slope=slope, warnings=tuple(warnings))

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

* :func:`oracle_overlap_finite_t` — the full finite-duration double
  integral over transverse momentum :math:`k_\perp` and boost frequency
  :math:`\omega''`, including the Gaussian window factors and the
  auxiliary Rindler parameter ``a`` (which must drop out of the result);
* :func:`oracle_lambda_quadrature` — the
  :math:`\bar{k}`-integral representation of :math:`\Lambda` in terms of
  a product of modified Bessel functions of imaginary order.

Both refuse to return silently inaccurate numbers.  One routine,
:func:`_converged`, runs each oracle on a refined grid and on its base
grid and raises :class:`QuadratureError` when their difference, plus a
bound on the error of the :math:`K_{i\nu}` series, passes the oracle's
target.  The private entries :func:`_lambda_quadrature` and
:func:`_overlap_finite_t` return that change and the target together
with the value, so callers report both without knowing the targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Trajectory, coherence_condition, delta_xbar, delta_xi
from .specfun import _GL_NODES, _k_imag_outer, _panel_nodes, bessel_j0, lambda_overlap, planck_weight

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

#: Decay (in e-foldings) of the Bessel-product envelope at which the
#: transverse-momentum integral is truncated (e^-37 ~ 8.5e-17 of peak).
_ENVELOPE_DECAY = 37.0

#: Most values one oracle grid may need per array, about 32 MiB each: K_inu
#: values (orders x k nodes) in the finite-duration oracle, J_0 values
#: (separations x k nodes) in the Lambda oracle.  The default durations
#: need at most 0.36 million and T = 1/omega 0.68 million; T far below
#: 1/omega widens the boost-frequency window, and with it the orders and
#: the k grid, without bound.  The k grid of the Lambda oracle grows
#: linearly in the largest separation.
_MAX_GRID_VALUES = 2**22


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
    asymptotic forms, ``omega_bar`` is the center of the boost-frequency
    Gaussian and ``width`` its standard scale
    :math:`\\bar\\omega/\\sqrt{2M}`.  ``q_row`` and ``q_col`` are the two
    boost-energy products whose mismatch drives ``suppression``.
    """

    suppression: float
    sharpness: float
    omega_bar: float
    width: float
    q_row: float
    q_col: float


def diag_overlap(omega: float, z: float, T: float) -> float:
    r"""Norm of a single-branch excitation:
    :math:`\frac{T}{2\pi}\,\frac{\omega}{e^{2\pi\omega z}-1}`.

    Strictly positive; exactly linear in ``T``.
    """
    if not (omega > 0.0 and z > 0.0 and T > 0.0):
        raise ValueError("diag_overlap requires omega, z, T > 0")
    return T / (2.0 * math.pi) * planck_weight(omega, z)


def _pair_key(omega: float, traj: Trajectory) -> tuple[float, float, float, float]:
    return (omega, traj.z, traj.x_perp[0], traj.x_perp[1])


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

    with :math:`q` the shared product :math:`\omega z`.  As in
    :func:`~superthermal.detector.joint_state`, the lexicographically smaller
    ``(omega, z, x, y)`` side of the pair supplies :math:`q`, so swapping
    ``(omega_i, traj_n)`` with ``(omega_j, traj_m)`` returns the exact
    conjugate (here: the identical real value) even when the two products
    differ within the tolerance.
    """
    if not (omega_i > 0.0 and omega_j > 0.0 and T > 0.0):
        raise ValueError("offdiag_overlap requires positive frequencies and T")
    if not coherence_condition(omega_i, traj_n.z, omega_j, traj_m.z, tol):
        return OverlapResult(value=0j, condition_met=False, q=None)
    omega_lo, traj_lo = min((omega_i, traj_n), (omega_j, traj_m), key=lambda p: _pair_key(*p))
    q = omega_lo * traj_lo.z
    value = math.sqrt(
        diag_overlap(omega_i, traj_n.z, T) * diag_overlap(omega_j, traj_m.z, T)
    ) * lambda_overlap(q, delta_xi(traj_m, traj_n), delta_xbar(traj_m, traj_n))
    return OverlapResult(value=complex(value), condition_met=True, q=q)


def overlap_diagnostics(
    omega_i: float,
    traj_n: Trajectory,
    omega_j: float,
    traj_m: Trajectory,
    T: float,
    a: float = 1.0,
) -> OverlapDiagnostics:
    r"""Expose the finite-duration Gaussian parameters
    (:math:`C`, :math:`M`, :math:`\bar\omega`, width) for a pair of
    excitations, so borderline degeneracies can be judged quantitatively
    instead of through the binary condition alone; the finite-duration
    oracle integrates over the same Gaussian.
    """
    if not (omega_i > 0.0 and omega_j > 0.0 and T > 0.0 and a > 0.0):
        raise ValueError("the finite-duration overlap requires omega_i, omega_j, T, a > 0")
    zm, zn = traj_m.z, traj_n.z
    zz = zm * zm + zn * zn
    q_row = omega_j * zm
    q_col = omega_i * zn
    suppression = (q_row - q_col) ** 2 * T * T / zz
    sharpness = (omega_i * zm + omega_j * zn) ** 2 * T * T / zz
    omega_bar = a * (omega_j / zm + omega_i / zn) / (1.0 / zm**2 + 1.0 / zn**2)
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
    nu_max: float,
    osc_max: float,
    decay_rate: float,
    kbar_max: float,
    refine: float,
    max_nodes: float,
    too_large: str,
) -> tuple[np.ndarray, np.ndarray]:
    r"""Quadrature grid for :math:`\int_0^{k_{max}} dk\,k\,J_0(k\,\cdot)\,
    K_{i\nu}(k s_+) K_{i\nu}(k s_-)`.

    Small arguments are handled on a log-spaced region (the imaginary-order
    Bessel functions oscillate in :math:`\log k` with frequency
    :math:`\nu`), followed by linear panels whose width adapts to the local
    oscillation rate :math:`\nu/k` of the Bessel phases, the rate
    ``osc_max`` of the :math:`J_0` factor, and the exponential decay
    ``decay_rate`` of the envelope.  The floor ``1e-7/refine`` lets the
    refinement change include the piece below the base pass's floor.
    A grid that would need more than ``max_nodes`` nodes is not built:
    :class:`QuadratureError` is raised with the caller's ``too_large`` text.
    """
    k_floor = 1e-7 / refine
    k_log_end = min(0.1, 0.5 * kbar_max)
    u_lo, u_hi = math.log(k_floor), math.log(k_log_end)
    width_u = math.pi / (4.0 * (nu_max + k_log_end * osc_max + 1.0)) / refine
    n_log = max(1, int(math.ceil((u_hi - u_lo) / width_u)))
    max_panels = max_nodes / _GL_NODES.size
    if n_log > max_panels:
        raise QuadratureError(too_large)
    log_nodes, log_weights = _panel_nodes(np.linspace(u_lo, u_hi, n_log + 1))
    k_log = np.exp(log_nodes)
    w_log = log_weights * k_log  # du measure -> dk measure

    edges = [k_log_end]
    while edges[-1] < kbar_max:
        if n_log + len(edges) > max_panels:
            raise QuadratureError(too_large)
        k = edges[-1]
        width = min(
            math.pi / (4.0 * (nu_max / k + osc_max + 1.0)),
            2.5 / decay_rate,
        ) / refine
        edges.append(min(k + width, kbar_max))
    lin_nodes, lin_weights = _panel_nodes(np.asarray(edges))

    return np.concatenate([k_log, lin_nodes]), np.concatenate([w_log, lin_weights])


def _k_products(nu: np.ndarray, x_a: np.ndarray, x_b: np.ndarray, refine: float, bound: bool):
    """``K_imag`` at both argument sets: the products ``K_a K_b`` per
    (nu, node) and, if ``bound``, a bound on the error the K series puts
    into them (else None)."""
    err_a = np.empty((nu.size, x_a.size)) if bound else None
    k_a = _k_imag_outer(nu, x_a, refine, err=err_a)
    if x_b is x_a:
        k_b, err_b = k_a, err_a
    else:
        err_b = None if err_a is None else np.empty_like(err_a)
        k_b = _k_imag_outer(nu, x_b, refine, err=err_b)
    if err_a is None:
        return k_a * k_b, None
    return k_a * k_b, np.abs(k_a) * err_b + err_a * np.abs(k_b) + err_a * err_b


def _lambda_quadrature_once(
    q: float, dxi: float, dxbar: np.ndarray, refine: float, bound: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The quadrature of :func:`oracle_lambda_quadrature` on one grid and,
    if ``bound``, a bound on the error the series part of ``K_iq`` puts
    into it (else None)."""
    s_plus = math.sqrt(0.5 * (math.exp(2.0 * dxi) + 1.0))
    s_minus = math.sqrt(0.5 * (math.exp(-2.0 * dxi) + 1.0))
    decay = s_plus + s_minus
    kbar_max = (_ENVELOPE_DECAY + math.pi * q) / decay
    osc_max = float(dxbar.max())
    kbar, weights = _kbar_grid(
        nu_max=q,
        osc_max=osc_max,
        decay_rate=decay,
        kbar_max=kbar_max,
        refine=refine,
        max_nodes=_MAX_GRID_VALUES / dxbar.size,
        too_large=f"lambda quadrature at dxbar = {osc_max:g} needs more than {_MAX_GRID_VALUES} "
        "J_0 values (separations x k nodes); its k grid grows linearly in dxbar",
    )
    x_plus = kbar * s_plus
    x_minus = x_plus if s_minus == s_plus else kbar * s_minus
    product, product_err = _k_products(np.array([q]), x_plus, x_minus, refine, bound)
    j0 = bessel_j0(np.outer(dxbar, kbar))
    measure = weights * kbar
    if q == 0.0:
        prefactor = 2.0
    else:
        prefactor = 2.0 * math.sinh(math.pi * q) / (math.pi * q)
    scale = prefactor * math.sqrt(math.cosh(dxi))
    value = scale * (j0 @ (measure * product[0]))
    if product_err is None:
        return value, None
    return value, scale * (np.abs(j0) @ (measure * product_err[0]))


#: Absolute refinement target of :func:`oracle_lambda_quadrature`.
_LAMBDA_TARGET = 1e-8

#: Absolute refinement target of :func:`oracle_overlap_finite_t`, per unit T.
_FINITE_T_TARGET = 1e-10


def _converged(one_pass, target: float, what: str):
    """Run ``one_pass(refine, bound)`` on the refined grid, with the bound on
    the K series error, and then on the base grid.  Returns the refined
    value, its change (what the refinement moved plus that bound, which a
    finer grid does not reduce; the largest entry for an array) and
    ``target``; a change past ``target`` raises :class:`QuadratureError`
    naming ``what``."""
    # The refined grid is the larger, so it meets the size cap first; only
    # its pass needs the K series bound.
    fine, series_err = one_pass(1.5, True)
    base, _ = one_pass(1.0, False)
    change = float(np.max(np.abs(fine - base) + series_err))
    if change > target:
        raise QuadratureError(
            f"{what} did not converge: grid refinement plus the K series bound "
            f"changed the result by {change:.3e} (target {target:.1e})"
        )
    return fine, change, target


def _lambda_quadrature(q: float, dxi: float, dxbar) -> tuple[np.ndarray, float, float]:
    """:func:`oracle_lambda_quadrature` on an array of ``dxbar``, with its
    change and target (see :func:`_converged`)."""
    if not (q >= 0.0 and math.isfinite(q)):
        raise ValueError(f"oracle_lambda_quadrature requires q >= 0, got {q}")
    if math.pi * q > 700.0:
        raise ValueError("q too large for the quadrature representation")
    dxbar_arr = np.atleast_1d(np.asarray(dxbar, dtype=float))
    if not np.all(dxbar_arr >= 0.0):
        raise ValueError("oracle_lambda_quadrature requires dxbar >= 0")
    return _converged(
        lambda refine, bound: _lambda_quadrature_once(q, dxi, dxbar_arr, refine, bound),
        _LAMBDA_TARGET,
        f"lambda quadrature at q={q}, dxi={dxi}",
    )


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

    Target absolute accuracy 1e-8, enforced by comparing against a
    refined grid (the change also counts the bound on the K series
    error); disagreement raises :class:`QuadratureError`.
    """
    values = _lambda_quadrature(q, dxi, dxbar)[0]
    if np.ndim(dxbar) == 0:
        return float(values[0])
    return values


def _finite_t_once(
    par: OverlapDiagnostics,
    traj_n: Trajectory,
    traj_m: Trajectory,
    T: float,
    a: float,
    refine: float,
    bound: bool,
) -> tuple[float, float | None]:
    """The quadrature of :func:`oracle_overlap_finite_t`, whose Gaussian
    parameters are ``par``, on one grid and, if ``bound``, a bound on the
    error the series part of ``K_iν`` puts into it (else None)."""
    zm, zn = traj_m.z, traj_n.z
    dx = traj_m.x_perp[0] - traj_n.x_perp[0]
    dy = traj_m.x_perp[1] - traj_n.x_perp[1]
    dxperp = math.hypot(dx, dy)

    # Boost-frequency nodes, placed covariantly in s = omega''/omega_bar so
    # the node pattern (and hence the result to near machine precision) is
    # independent of the auxiliary parameter a.
    half_support = 8.0 / math.sqrt(2.0 * par.sharpness)
    s_lo = max(1e-9, 1.0 - half_support)
    s_hi = 1.0 + half_support
    n_panels = int(math.ceil(6 * refine))
    s_nodes, s_weights = _panel_nodes(np.linspace(s_lo, s_hi, n_panels + 1))
    omega_pp = s_nodes * par.omega_bar
    nu = omega_pp / a

    # Size the k grid before anything of its size is allocated.
    nu_max = float(nu.max())
    k_max = max(
        (_ENVELOPE_DECAY + math.pi * nu_max) / (zm + zn),
        37.5 / min(zm, zn),
    )
    k_nodes, k_weights = _kbar_grid(
        nu_max=nu_max,
        osc_max=dxperp,
        decay_rate=zm + zn,
        kbar_max=k_max,
        refine=refine,
        max_nodes=_MAX_GRID_VALUES / nu.size,
        too_large=f"finite-duration overlap at T = {T:g} needs more than {_MAX_GRID_VALUES} "
        f"K_inu values ({nu.size} orders up to {nu_max:.4g}); T far below 1/omega "
        "widens the boost-frequency window without bound",
    )
    with np.errstate(under="ignore"):
        gauss = np.exp(-math.pi * nu - par.sharpness * (s_nodes - 1.0) ** 2) + np.exp(
            math.pi * nu - par.sharpness * (s_nodes + 1.0) ** 2
        )
    inner_weight = s_weights * par.omega_bar * gauss

    x_m = k_nodes * zm
    product, product_err = _k_products(nu, x_m, x_m if zn == zm else k_nodes * zn, refine, bound)
    outer = k_weights * k_nodes * bessel_j0(k_nodes * dxperp)
    integral = float(outer @ (inner_weight @ product))
    prefactor = T * T * math.exp(-par.suppression) / (math.sqrt(2.0 * math.pi**5) * a)
    value = prefactor * integral
    if not math.isfinite(value):
        raise FloatingPointError(f"finite-duration overlap is not finite at T = {T:g}, a = {a:g}")
    if product_err is None:
        return value, None
    return value, prefactor * float(np.abs(outer) @ (inner_weight @ product_err))


def _overlap_finite_t(
    omega_i: float,
    traj_n: Trajectory,
    omega_j: float,
    traj_m: Trajectory,
    T: float,
    a: float,
) -> tuple[float, float, float]:
    """:func:`oracle_overlap_finite_t` with its change and target (see
    :func:`_converged`); the change is 0 for a suppressed pair."""
    par = overlap_diagnostics(omega_i, traj_n, omega_j, traj_m, T, a)
    target = _FINITE_T_TARGET * T
    if par.suppression > 800.0:
        return 0.0, 0.0, target
    return _converged(
        lambda refine, bound: _finite_t_once(par, traj_n, traj_m, T, a, refine, bound),
        target,
        f"finite-duration overlap quadrature at T = {T:g}",
    )


def oracle_overlap_finite_t(
    omega_i: float,
    traj_n: Trajectory,
    omega_j: float,
    traj_m: Trajectory,
    T: float,
    a: float = 1.0,
) -> float:
    r"""Finite-duration scalar product
    :math:`\langle\omega_i,n|\omega_j,m\rangle_F` by direct quadrature.

    Evaluates

    .. math::
        \frac{T^2 e^{-C}}{\sqrt{2\pi^5}\,a}
        \int_0^{k_{\max}}\!dk_\perp\,k_\perp J_0(k_\perp\Delta x_\perp)
        \int\!d\omega''\,
        K_{i\omega''/a}(k_\perp z_m)\,K_{i\omega''/a}(k_\perp z_n)\,
        \Big[e^{-\pi\omega''/a} e^{-M(\omega''/\bar\omega - 1)^2}
           + e^{+\pi\omega''/a} e^{-M(\omega''/\bar\omega + 1)^2}\Big],

    with the boost-frequency window restricted to the Gaussian support
    :math:`\bar\omega(1 \pm 8/\sqrt{2M})` clipped to positive values, and
    :math:`k_{\max}` chosen so the Bessel envelope is below 1e-16 of its
    peak.  The second (counter-rotating) Gaussian is retained so its
    negligibility is verified numerically rather than assumed.  The
    auxiliary parameter ``a`` must not affect the value; nodes are placed
    covariantly so it cancels to rounding accuracy.

    Absolute accuracy target ``1e-10 * T``, enforced by grid refinement
    (the change also counts the bound on the K series error); failure
    raises :class:`QuadratureError` rather than returning a partial
    value, and so do grids that would need more than
    ``_MAX_GRID_VALUES`` K values (T far below :math:`1/\omega`).
    Strongly suppressed pairs (:math:`C > 800`, value below the
    double-precision underflow scale) return exactly 0.
    """
    return _overlap_finite_t(omega_i, traj_n, omega_j, traj_m, T, a)[0]


@dataclass(frozen=True)
class ConvergenceRow:
    """One duration sample of the oracle-vs-asymptotic comparison;
    ``change`` is the oracle's achieved refinement change and ``target``
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


def convergence_report(omega: float, z: float, a: float, T_list) -> ConvergenceReport:
    r"""Compare :func:`oracle_overlap_finite_t` against the asymptotic
    norm :func:`diag_overlap` over increasing durations.

    Each row carries the duration ``T``, the sharpness
    :math:`M = 2\omega^2 T^2`, both values, and their relative
    difference.  Durations below :math:`1/\omega` are flagged: there the
    switching transients dominate and the asymptotic comparison is not
    meaningful.
    """
    if not (omega > 0.0 and z > 0.0 and a > 0.0):
        raise ValueError("convergence_report requires omega, z, a > 0")
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
        oracle, change, target = _overlap_finite_t(omega, traj, omega, traj, T, a)
        asymptotic = diag_overlap(omega, z, T)
        rows.append(
            ConvergenceRow(
                T=T,
                M=2.0 * omega * omega * T * T,
                oracle=oracle,
                asymptotic=asymptotic,
                rel_error=abs(oracle - asymptotic) / asymptotic,
                change=change,
                target=target,
            )
        )
    slope = math.nan
    if len(rows) >= 2 and all(r.rel_error > 0.0 for r in rows):
        log_m = np.log([r.M for r in rows])
        log_e = np.log([r.rel_error for r in rows])
        slope = float(np.polyfit(log_m, log_e, 1)[0])
    return ConvergenceReport(rows=tuple(rows), slope=slope, warnings=tuple(warnings))

r"""Special functions for the acceleration-overlap kernel.

The field response of a uniformly accelerated pointlike system involves
the Bessel function :math:`J_0`, the modified Bessel function of purely
imaginary order :math:`K_{i\nu}(x)`, and the geometric overlap factor

.. math::
    \Lambda(q, \Delta\xi, \Delta\bar{x})
        = \sqrt{\operatorname{sech}\Delta\xi}\;
          \frac{\sin(q\alpha)}{q\,\sinh\alpha},
    \qquad
    \alpha = \operatorname{arccosh} u,
    \quad
    u = \cosh\Delta\xi + \tfrac{\Delta\bar{x}^2}{2}\operatorname{sech}\Delta\xi,

which multiplies each thermal coherence between two accelerated
branches.  :math:`\Lambda` is bounded by one, equals one at
:math:`\Delta\xi = \Delta\bar{x} = 0`, and reduces to simple closed
forms on the two axes.

``scipy`` provides :math:`J_0` but not :math:`K_{i\nu}`.  It is imported
inside :func:`bessel_j0` and the series for :math:`K_{i\nu}`, which only
the quadrature oracles call, so the pipeline never loads it.  Up to the
crossover :math:`x_c = 4` it is summed from the power series of
:math:`I_{i\nu}` (DLMF 10.25.2, 10.27.3),

.. math::
    K_{i\nu}(x) = -\frac{\pi}{\sinh\pi\nu}\,
        \operatorname{Im}\Big[(x/2)^{i\nu}\sum_{k\ge 0}
        \frac{(x^2/4)^k}{k!\,\Gamma(k+1+i\nu)}\Big],

with the amplitudes in log form and the phase :math:`\nu\log(x/2) -
\arg\Gamma(k+1+i\nu)` divided by :math:`\nu` before it is taken, so
that :math:`\nu = 0` is the :math:`K_0` series (DLMF 10.31.2) and no
:math:`1/\nu` cancellation is left.  Each value there comes with an
explicit bound on its error: the truncated tail plus rounding, which
grows like :math:`\epsilon e^{2x}` relative to :math:`K`.  Above
:math:`x_c` the integral representation

.. math::
    K_{i\nu}(x) = \int_0^\infty e^{-x\cosh t}\cos(\nu t)\,dt

is taken by the trapezoidal rule (Gil, Segura & Temme, ACM TOMS 30,
2004), which converges exponentially for this analytic integrand
(Trefethen & Weideman, SIAM Review 56, 2014).  The sorted arguments are
taken in bands that grow by at most a factor 4; each band's step comes
from the strip bound at its largest argument, and its nodes reach where
the envelope drops below :math:`e^{-x-43}` at its smallest.  The kernel
takes one order per call, and each value is summed on its own (Horner's
rule for the series, numpy's pairwise reduction for the trapezoidal
sum).  Against mpmath the series agrees to about 1e-12 relative, the
trapezoidal rule to 4e-16 of :math:`e^{-x}`, for orders up to 40.  Its
callers are the :math:`\Lambda` oracle and :func:`bessel_k_imag`; the
finite-duration oracle takes its :math:`k_\perp` integral in closed
form and needs no :math:`K_{i\nu}`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "bessel_j0",
    "bessel_k_imag",
    "lambda_overlap",
    "lambda_axis_xi",
    "lambda_axis_xbar",
    "planck_weight",
]

# 16-point Gauss--Legendre rule on [-1, 1]; panels are mapped affinely.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Exponential decay (in units of the t = 0 envelope) at which the
#: integral representation of ``K_imag`` is truncated, and the size of its
#: trapezoidal rule's error: each is below exp(-43) ~ 2e-19 of that scale.
_KTAIL_DECAY = 43.0

#: Strip half-widths d at which the trapezoidal step of ``K_imag`` is sized (the
#: integrand is analytic for |Im t| < pi/2); 1e-3 is the best d for x ~ 9e7.
_KSTRIP_D = np.geomspace(1e-3, 1.55, 64)

#: Most arguments in one band of ``_k_imag_outer`` above ``_KSERIES_X``.
_KCHUNK = 2048

#: Crossover from the power series to the quadrature.  The series sums
#: terms of size ~e^x to a result of size ~e^-x, so it loses about
#: eps e^(2x) relative: 6.6e-13 at x = 4.
_KSERIES_X = 4.0

#: Terms of the power series.  At x = 4 (y = x^2/4 = 4) the first term
#: left out, y^20/(20!)^2 ~ 2e-25, is far below eps e^(-2x) ~ 7e-20.
_KSERIES_TERMS = 20

#: Below this order arg Gamma(k+1+i nu)/nu is taken as its limit
#: psi(k+1); the next term, -nu^2 psi''(k+1)/6, is below 4e-17.
_KSERIES_NU_SMALL = 1e-8

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _as_floats(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _scalar_or_array(out: np.ndarray, *inputs) -> np.ndarray | float:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def bessel_j0(x):
    r"""Bessel function :math:`J_0(x)`, vectorized."""
    from scipy.special import j0

    x = np.asarray(x, dtype=float)
    return _scalar_or_array(j0(x), x)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the 16-point Gauss--Legendre rule onto consecutive panels."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


@functools.lru_cache(maxsize=1)
def _k_series_coeffs(nu: float) -> tuple[np.ndarray, float, float]:
    """The coefficient rows of :func:`_k_series` at order ``nu``, read-only, and its tail's m_N and |phi_N/nu|."""
    from scipy.special import digamma, gammaln, loggamma

    n = _KSERIES_TERMS
    k = np.arange(n + 1, dtype=float)
    log_gamma = loggamma(k + 1.0 + 1j * nu)
    phi = log_gamma.imag
    phi_over_nu = digamma(k + 1.0) if nu < _KSERIES_NU_SMALL else phi / nu
    # log(pi nu / sinh(pi nu)), 0 at nu = 0
    a = math.pi * nu
    log_ratio = np.log(2.0 * a) - a - np.log(-np.expm1(-2.0 * a)) if nu > 0.0 else 0.0
    log_mag = log_ratio - gammaln(k + 1.0) - log_gamma.real
    with np.errstate(under="ignore"):
        mag = np.exp(log_mag)
    weight = mag * (2.0 * n + np.abs(log_mag) + np.abs(phi))
    coeffs = np.stack([
        mag * np.cos(phi), mag * phi_over_nu * np.sinc(phi / math.pi), weight, weight * np.abs(phi_over_nu),
    ])
    coeffs.flags.writeable = False
    return coeffs, mag[n], abs(phi_over_nu[n])


def _k_series(nu: float, x: np.ndarray, err: np.ndarray | None) -> np.ndarray:
    r"""``K_imag`` of order ``nu`` at each ``0 < x <= _KSERIES_X`` from the
    power series; ``err``, if given, receives a bound on each value's error.

    With :math:`y = x^2/4`, :math:`L = \log(x/2)` and
    :math:`\phi_k = \arg\Gamma(k+1+i\nu)`,

    .. math::
        K_{i\nu}(x) = -\sum_k m_k y^k\,\frac{\sin(\nu L - \phi_k)}{\nu},
        \qquad
        m_k = \frac{\pi\nu/\sinh\pi\nu}{k!\,|\Gamma(k+1+i\nu)|},

    summed as :math:`\cos(\nu L)\,Q - L\operatorname{sinc}(\nu L)\,P`
    with :math:`P = \sum_k m_k\cos\phi_k\,y^k` and
    :math:`Q = \sum_k m_k (\sin\phi_k/\nu)\,y^k`, each by Horner's rule,
    so that every value is summed on its own.  Every factor stays
    finite as :math:`\nu \to 0`, where :math:`\phi_k/\nu \to
    \psi(k+1)` gives the :math:`K_0` series, and :math:`m_k` is formed in
    log form, so no order overflows.

    The bound is twice the first term left out (successive terms shrink by
    :math:`y/(k+1)^2 < 1/100`) plus the rounding of every kept term, at
    least :math:`\epsilon\,(2N + |\log m_k| + |\phi_k| + |\nu L|)`
    relative to its size; the size bounds
    :math:`|\sin(\nu L - \phi_k)/\nu|` by
    :math:`\min(|L| + |\phi_k/\nu|, 1/\nu)` (a term past the float range is inf).
    """
    n = _KSERIES_TERMS
    coeffs, tail_mag, tail_phi = _k_series_coeffs(nu)
    if err is None:
        coeffs = coeffs[:2]
    y = 0.25 * x**2
    sums = np.zeros((coeffs.shape[0], x.size))
    with np.errstate(under="ignore"):
        for j in range(n - 1, -1, -1):
            sums *= y
            sums += coeffs[:, j, None]
    log_half = np.log(0.5 * x)
    nu_l = nu * log_half
    out = np.cos(nu_l) * sums[1] - log_half * np.sinc(nu_l / math.pi) * sums[0]
    if err is not None:
        inv_nu = 1.0 / nu if nu > 0.0 else math.inf
        abs_l = np.abs(log_half)
        with np.errstate(under="ignore", over="ignore"):
            tail = tail_mag * y**n * np.minimum(abs_l + tail_phi, inv_nu)
            size = np.minimum(abs_l * sums[2] + sums[3], sums[2] * inv_nu)
        err[:] = 2.0 * tail + _EPS * (1.0 + np.abs(nu_l) / (2.0 * n)) * size
    return out


def _k_imag_outer(nu: float, x: np.ndarray, refine: float = 1.0, err: np.ndarray | None = None) -> np.ndarray:
    r"""``K_imag`` of order ``nu`` at each ``x``; ``x`` sorted ascending.

    The ``x <= _KSERIES_X`` are summed from the power series
    (:func:`_k_series`), which ``refine`` does not change, and ``err`` (of
    the result's shape), if given, receives the series' error bound there.
    Everywhere else ``err`` receives 0: the trapezoidal rule's error shows
    only in the change a refined step makes.

    The trapezoidal rule walks the rest in bands ``[x_min, 4 x_min]`` of at
    most ``_KCHUNK`` points.  Each band takes
    nodes :math:`t_j = jh` with weight :math:`h` (:math:`h/2` at 0), up to
    ``acosh(1 + _KTAIL_DECAY/x_min)``, past which the envelope is below
    ``exp(-x - _KTAIL_DECAY)`` for every x of the band.  The integrand is
    even, analytic for :math:`|\operatorname{Im} t| < \pi/2`, and bounded by
    :math:`e^{\nu d - x\cos d\cosh t}` on :math:`|\operatorname{Im} t| \le d`,
    so relative to :math:`e^{-x}` the rule is off by about
    :math:`e^{\nu d + x(1 - \cos d) - 2\pi d/h}` (times
    :math:`K_0(x\cos d) \approx \log(2/x)` where x is small).  The step is
    the largest that keeps this below :math:`e^{-43}` (``_KTAIL_DECAY``) at
    some ``d`` of ``_KSTRIP_D``, for the band's largest x, divided by
    ``refine``; so a refined step moves the result by rounding only.

    For large :math:`\nu` the oscillatory integrand cancels down to a result
    of order :math:`e^{-\pi\nu/2}`, so the reduction over t must not lose
    absolute accuracy: each row of the (x, t) envelope is summed along its
    contiguous t axis by numpy's pairwise reduction (error growth ~ log of
    the node count).
    """
    out = np.empty(x.size)
    split = int(np.searchsorted(x, _KSERIES_X, side="right"))
    if split:
        out[:split] = _k_series(nu, x[:split], None if err is None else err[:split])
    if err is not None:
        err[split:] = 0.0
    d, versine = _KSTRIP_D, 1.0 - np.cos(_KSTRIP_D)
    start = split
    while start < x.size:
        stop = min(start + _KCHUNK, int(np.searchsorted(x, 4.0 * x[start], side="right")))
        cols = slice(start, stop)
        x_min = float(x[start])
        # the largest h with nu d + x (1 - cos d) - 2 pi d/h <= -_KTAIL_DECAY at some d
        h = 2.0 * math.pi * float(np.max(d / (_KTAIL_DECAY + nu * d + x[stop - 1] * versine))) / refine
        t = h * np.arange(math.ceil(math.acosh(1.0 + _KTAIL_DECAY / x_min) / h) + 1)
        coeff = h * np.cos(nu * t)
        coeff[0] *= 0.5
        # e^{-x cosh t} = e^{-x} e^{-2x sinh^2(t/2)}: small exponents where the terms are large
        versine_t = 2.0 * np.sinh(0.5 * t) ** 2
        with np.errstate(under="ignore"):
            env = np.exp(-np.outer(x[cols], versine_t))
            out[cols] = np.sum(env * coeff, axis=1) * np.exp(-x[cols])
        start = stop
    return out


def bessel_k_imag(nu, x):
    r"""Modified Bessel function of imaginary order, :math:`K_{i\nu}(x)`.

    Real-valued and even in :math:`\nu`.  For :math:`x \le 4` it is
    summed from the power series of :math:`I_{i\nu}`, accurate to about
    1e-12 relative (the terms cancel by up to :math:`e^{2x}`); above, from
    :math:`\int_0^\infty e^{-x\cosh t}\cos(\nu t)\,dt` by the trapezoidal
    rule, to 4e-16 of :math:`e^{-x}` for orders up to 40.

    Parameters
    ----------
    nu : array_like
        Order parameter; may be any real value (only :math:`|\nu|` matters).
    x : array_like
        Argument, strictly positive.

    Raises
    ------
    ValueError
        If any entry of ``x`` is not strictly positive.
    """
    nu_arr = np.abs(_as_floats(nu, "nu"))
    x_arr = _as_floats(x, "x")
    if not np.all(x_arr > 0.0):
        raise ValueError("bessel_k_imag requires x > 0")
    nu_b, x_b = np.broadcast_arrays(nu_arr, x_arr)
    shape = nu_b.shape
    nu_flat = nu_b.ravel()
    x_flat = x_b.ravel()
    out = np.empty(x_flat.size)
    # One call per order, on its sorted arguments.
    uniq, inverse = np.unique(nu_flat, return_inverse=True)
    for k, nu_val in enumerate(uniq):
        sel = np.nonzero(inverse == k)[0]
        xs = x_flat[sel]
        order = np.argsort(xs)
        out[sel[order]] = _k_imag_outer(float(nu_val), xs[order])
    return _scalar_or_array(out.reshape(shape), nu, x)


#: Above this u - 1 the hyperbolic separation is taken in log form, where
#: d (d + 2) would overflow (from d ~ 1.3e154).
_ALPHA_LOG_FORM = 1e150


def _alpha_from_geometry(dxi: np.ndarray, dxbar: np.ndarray) -> np.ndarray:
    r"""Hyperbolic separation :math:`\alpha = \operatorname{arccosh}(1 + d)`
    without cancellation: :math:`d = u - 1 = 2\sinh^2(\Delta\xi/2) +
    \tfrac{\Delta\bar{x}^2}{2}\operatorname{sech}\Delta\xi` is a sum of
    nonnegative terms.

    Where ``d`` passes ``_ALPHA_LOG_FORM`` (or is NaN, as inf / inf is),
    :math:`\alpha` is :math:`\log 2d` to within :math:`1/d`, summed from
    the logs of the two terms of :math:`2d`,
    :math:`4\sinh^2(\Delta\xi/2)` and
    :math:`\Delta\bar{x}^2\operatorname{sech}\Delta\xi`, so that no
    intermediate overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = 2.0 * np.sinh(0.5 * dxi) ** 2 + 0.5 * dxbar**2 / np.cosh(dxi)
        far = ~(d <= _ALPHA_LOG_FORM)
        alpha = np.log1p(d + np.sqrt(d * (d + 2.0)))
    if not np.any(far):
        return alpha
    xi = np.abs(np.broadcast_to(dxi, far.shape)[far])
    xbar = np.broadcast_to(dxbar, far.shape)[far]
    with np.errstate(over="ignore", divide="ignore"):
        log_long = xi + 2.0 * np.log(-np.expm1(-xi))
        log_cosh = xi + np.log1p(np.exp(-2.0 * xi)) - math.log(2.0)
        log_trans = 2.0 * np.log(xbar) - log_cosh
        alpha = np.array(alpha, dtype=float)
        alpha[far] = np.logaddexp(log_long, log_trans)
    return alpha


#: Past this phase q alpha, |Lambda| <= 1/(q alpha) is below the smallest
#: normal double, and Lambda is its limit 0.
_PHASE_LIMIT = 1.0 / _TINY


def _sinc_of_phase(q: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    r""":math:`\sin(q\alpha)/(q\alpha)`, taken as 0 past ``_PHASE_LIMIT``,
    where :math:`q\alpha` may also overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = q * alpha
        return np.where(phase > _PHASE_LIMIT, 0.0, np.sinc(phase / np.pi))


def _alpha_factors(alpha, dxi, far):
    r"""The factors of :math:`\Lambda` that :math:`q` leaves alone: :math:`\alpha`,
    :math:`\alpha/\sinh\alpha`, :math:`\sqrt{\cosh\Delta\xi}` (inf where
    cosh overflows, so :math:`\Lambda` is 0, its limit) and ``far`` (0 too).
    Past :math:`\alpha = 746`, :math:`e^{-\alpha}` and :math:`\alpha/\sinh\alpha`
    are 0; :math:`\alpha` is clipped there, since from 9e307 on
    :math:`2\alpha` overflows and inf times 0 is NaN."""
    alpha = np.asarray(alpha, dtype=float)
    clipped = np.minimum(alpha, 746.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x_over_sinh = 2.0 * clipped * np.exp(-clipped) / (-np.expm1(-2.0 * clipped))
        x_over_sinh = np.where(alpha < 1e-6, 1.0 - alpha**2 / 6.0, x_over_sinh)
        return alpha, x_over_sinh, np.sqrt(np.cosh(dxi)), far


def _overlap_geometry(dxi, dxbar):
    r"""The part of :math:`\Lambda` that the two trajectories alone fix."""
    return _alpha_factors(_alpha_from_geometry(dxi, dxbar), dxi, dxbar == np.inf)


def _overlap_of_geometry(q, alpha, x_over_sinh, root_cosh, far):
    r""":math:`\Lambda = \operatorname{sinc}(q\alpha)\,(\alpha/\sinh\alpha)
    /\sqrt{\cosh\Delta\xi}` from :func:`_alpha_factors`."""
    return np.where(far, 0.0, _sinc_of_phase(q, alpha) * x_over_sinh / root_cosh)


def lambda_overlap(q, dxi, dxbar):
    r"""Geometric overlap factor :math:`\Lambda(q, \Delta\xi, \Delta\bar{x})`.

    .. math::
        \Lambda = \sqrt{\operatorname{sech}\Delta\xi}\,
                  \frac{\sin(q\alpha)}{q\,\sinh\alpha},
        \qquad
        \cosh\alpha = \cosh\Delta\xi
            + \frac{\Delta\bar{x}^2}{2}\operatorname{sech}\Delta\xi .

    Satisfies :math:`|\Lambda| \le 1` with equality only at the origin,
    and is even in :math:`\Delta\xi` and in :math:`\Delta\bar{x}`.
    Since also :math:`|\Lambda| \le 1/(q\alpha)`, a phase :math:`q\alpha`
    past 1/(smallest normal double) ~ 4.5e307, or one that overflows,
    gives exactly 0, the limit; so do the two axis forms.  Every finite
    :math:`\Delta\xi` gives a finite value, 0 once
    :math:`\cosh\Delta\xi` overflows.

    It is :func:`_overlap_of_geometry` (the phase :math:`q\alpha`) of
    :func:`_overlap_geometry`, which the joint state takes once per branch pair.

    Parameters
    ----------
    q : array_like
        Nonnegative frequency-acceleration product.
    dxi : array_like
        Longitudinal separation :math:`\log(z_m/z_n)`; any real value.
    dxbar : array_like
        Nonnegative scaled transverse separation; ``+inf`` (branches
        infinitely far apart) gives exactly 0, the limit.
    """
    q_arr = _as_floats(q, "q")
    dxi_arr = _as_floats(dxi, "dxi")
    dxbar_arr = np.asarray(dxbar, dtype=float)
    if not np.all(q_arr >= 0.0):
        raise ValueError("lambda_overlap requires q >= 0")
    if not np.all(dxbar_arr >= 0.0):  # NaN fails this too
        raise ValueError("lambda_overlap requires dxbar >= 0")
    out = _overlap_of_geometry(q_arr, *_overlap_geometry(dxi_arr, dxbar_arr))
    return _scalar_or_array(out, q, dxi, dxbar)


def lambda_axis_xi(q, dxi):
    r"""Closed form of :math:`\Lambda` on the axis :math:`\Delta\bar{x} = 0`:

    .. math::
        \Lambda = \frac{\sin(q\,\Delta\xi)}{q\,\sinh\Delta\xi}
                  \frac{1}{\sqrt{\cosh\Delta\xi}} .
    """
    q_arr = _as_floats(q, "q")
    dxi_arr = _as_floats(dxi, "dxi")
    if not np.all(q_arr >= 0.0):
        raise ValueError("lambda_axis_xi requires q >= 0")
    return _scalar_or_array(_overlap_of_geometry(q_arr, *_alpha_factors(np.abs(dxi_arr), dxi_arr, False)), q, dxi)


def lambda_axis_xbar(q, dxbar):
    r"""Closed form of :math:`\Lambda` on the axis :math:`\Delta\xi = 0`:

    .. math::
        \Lambda = \frac{\sin(q g)}{q\,\sinh g},
        \qquad g = 2\,\operatorname{arcsinh}(\Delta\bar{x}/2).
    """
    q_arr = _as_floats(q, "q")
    dxbar_arr = _as_floats(dxbar, "dxbar")
    if not np.all(q_arr >= 0.0):
        raise ValueError("lambda_axis_xbar requires q >= 0")
    if not np.all(dxbar_arr >= 0.0):
        raise ValueError("lambda_axis_xbar requires dxbar >= 0")
    g = 2.0 * np.arcsinh(0.5 * dxbar_arr)
    return _scalar_or_array(_overlap_of_geometry(q_arr, *_alpha_factors(g, 0.0, False)), q, dxbar)


def _planck_factor(x, y):
    r""":math:`x / (e^y - 1)` for exponents :math:`y > 0`, the Planck factor
    every population and coherence carries (:math:`y = 2\pi q`).

    Computed as ``x / expm1(y)``; where ``expm1(y)`` overflows (``y`` above
    about 709.78) the form :math:`x e^{-y}` is used instead, which agrees to
    a relative :math:`e^{-y}` and keeps subnormal results instead of 0.
    ``x`` may be complex; scalars give 0-d arrays.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        denom = np.expm1(y)
        return np.where(np.isinf(denom), x * np.exp(-y), x / denom)


def planck_weight(omega, z):
    r"""Planckian response weight
    :math:`\omega / (e^{2\pi\omega z} - 1)` for an accelerated system with
    gap :math:`\omega` at inverse acceleration :math:`z`; the limit
    :math:`1/(2\pi z)` is used where the exponent :math:`2\pi\omega z`
    is 0 or subnormal (at :math:`\omega = 0` in particular), since the
    relative correction :math:`\pi\omega z` is below one ulp there.  An
    exponent past the float range gives 0; a weight past it (:math:`z`
    below about 1e-309) raises ``OverflowError``.
    """
    omega_arr = np.asarray(omega, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    # one pass per input; the ordered checks below only pick the message
    if not (((omega_arr >= 0.0) & (omega_arr < np.inf)).all() and ((z_arr > 0.0) & (z_arr < np.inf)).all()):
        _as_floats(omega, "omega")
        _as_floats(z, "z")
        raise ValueError("planck_weight requires " + ("z > 0" if np.all(omega_arr >= 0.0) else "omega >= 0"))
    with np.errstate(over="ignore"):
        exponent = 2.0 * np.pi * omega_arr * z_arr
        generic = _planck_factor(omega_arr, exponent)
        out = np.where(exponent < _TINY, 1.0 / (2.0 * np.pi * z_arr), generic)
    if np.isinf(out).any():
        raise OverflowError("planck_weight overflows: omega/(e^(2 pi omega z) - 1) is past the float range")
    return _scalar_or_array(out, omega, z)

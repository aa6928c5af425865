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
forms on the two axes.  The same combination can be written through a
conical (Mehler-type) function of degree :math:`-\tfrac12 + iq`, exposed
here as :func:`conical_p`.

``scipy`` provides :math:`J_0` but not :math:`K_{i\nu}`; the latter is
evaluated from its integral representation

.. math::
    K_{i\nu}(x) = \int_0^\infty e^{-x\cosh t}\cos(\nu t)\,dt

by composite 16-point Gauss--Legendre quadrature on panels of one fixed
width, which resolves both the oscillation scale :math:`1/\nu` and the
decay of the exponential envelope.  A batch of arguments shares one
t-grid, sized for its smallest argument; the sorted arguments are taken
in bands that grow by at most a factor 4, and each band integrates only
the panels its smallest argument needs before the envelope drops below
:math:`e^{-x-43}`.  With few orders each argument's integrand is summed
over t by numpy's pairwise reduction; many orders share one matmul per
band.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0 as _scipy_j0

__all__ = [
    "bessel_j0",
    "bessel_k_imag",
    "conical_p",
    "lambda_overlap",
    "lambda_axis_xi",
    "lambda_axis_xbar",
    "gaussian_ft",
    "planck_weight",
]

# 16-point Gauss--Legendre rule on [-1, 1]; panels are mapped affinely.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Exponential decay (in units of the t = 0 envelope) at which the
#: integral representation of ``K_imag`` is truncated: the discarded
#: tail is below exp(-43) ~ 2e-19 of the leading scale.
_KTAIL_DECAY = 43.0

#: Widest quadrature panel (radians of hyperbolic angle) used for the
#: ``K_imag`` envelope; narrower panels are forced when the oscillation
#: scale pi/(4(nu+1)) is smaller.
_KPANEL_MAX = 0.12

#: Most arguments in one band of ``_k_imag_outer``.
_KCHUNK = 2048


def _as_float_array(x, name: str) -> np.ndarray:
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
    x = np.asarray(x, dtype=float)
    return _scalar_or_array(_scipy_j0(x), x)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the 16-point Gauss--Legendre rule onto consecutive panels."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _k_imag_outer(nu: np.ndarray, x: np.ndarray, refine: float = 1.0) -> np.ndarray:
    """``K_imag`` on the grid ``nu[:, None] x [None, :]``; ``x`` sorted ascending.

    One t-grid serves the whole call: panels of the fixed width
    ``min(_KPANEL_MAX, pi/(4(nu_max + 1)))/refine`` from t = 0, as many as
    ``x[0]`` needs, with ``cosh t`` and the weighted ``cos(nu t)`` formed
    once.  The sorted ``x`` are walked in bands ``[x_min, 4 x_min]`` of at
    most ``_KCHUNK`` points; a band integrates only the prefix of panels
    covering ``acosh(1 + _KTAIL_DECAY/x_min)``, beyond which the envelope
    is below ``exp(-x - _KTAIL_DECAY)`` for every x of the band.

    For large :math:`\\nu` the oscillatory integrand cancels down to a result
    of order :math:`e^{-\\pi\\nu/2}`, so the reduction over t must not lose
    absolute accuracy: with few orders each row of the (x, t) envelope is
    summed along its contiguous t axis by numpy's pairwise reduction (error
    growth ~ log of the node count); many orders go through one BLAS matmul
    per band.
    """
    out = np.empty((nu.size, x.size))
    nu_max = float(nu.max()) if nu.size else 0.0
    width = min(_KPANEL_MAX, math.pi / (4.0 * (nu_max + 1.0))) / refine

    def n_panels(x_min: float) -> int:
        return max(1, math.ceil(math.acosh(1.0 + _KTAIL_DECAY / x_min) / width))

    t, w = _panel_nodes(width * np.arange(n_panels(float(x[0])) + 1))
    cosh_t = np.cosh(t)
    coeff = w * np.cos(np.outer(nu, t))
    start = 0
    while start < x.size:
        x_min = float(x[start])
        stop = min(start + _KCHUNK, int(np.searchsorted(x, 4.0 * x_min, side="right")))
        n = _GL_NODES.size * n_panels(x_min)
        with np.errstate(under="ignore"):
            env = np.exp(-np.outer(x[start:stop], cosh_t[:n]))
        if nu.size <= 4:
            for i in range(nu.size):
                out[i, start:stop] = np.sum(env * coeff[i, :n], axis=1)
        else:
            out[:, start:stop] = (env @ coeff[:, :n].T).T
        start = stop
    return out


def bessel_k_imag(nu, x):
    r"""Modified Bessel function of imaginary order, :math:`K_{i\nu}(x)`.

    Real-valued and even in :math:`\nu`; computed from
    :math:`\int_0^\infty e^{-x\cosh t}\cos(\nu t)\,dt` by composite
    Gauss--Legendre quadrature (absolute accuracy near 1e-10 or better
    over the supported range).

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
    nu_arr = np.abs(_as_float_array(nu, "nu"))
    x_arr = _as_float_array(x, "x")
    if not np.all(x_arr > 0.0):
        raise ValueError("bessel_k_imag requires x > 0")
    nu_b, x_b = np.broadcast_arrays(nu_arr, x_arr)
    shape = nu_b.shape
    nu_flat = nu_b.ravel()
    x_flat = x_b.ravel()
    out = np.empty(x_flat.size)
    # Group by order so each group shares one t-grid.
    uniq, inverse = np.unique(nu_flat, return_inverse=True)
    for k, nu_val in enumerate(uniq):
        sel = np.nonzero(inverse == k)[0]
        xs = x_flat[sel]
        order = np.argsort(xs)
        vals = _k_imag_outer(np.array([nu_val]), xs[order])[0]
        out[sel[order]] = vals
    return _scalar_or_array(out.reshape(shape), nu, x)


#: Above this u - 1 the hyperbolic separation is taken in log form, where
#: d (d + 2) would overflow (from d ~ 1.3e154).
_ALPHA_LOG_FORM = 1e150


def _alpha_from_geometry(dxi: np.ndarray, dxbar: np.ndarray) -> np.ndarray:
    r"""Hyperbolic separation :math:`\alpha = \operatorname{arccosh} u` without
    cancellation: :math:`u - 1 = 2\sinh^2(\Delta\xi/2) +
    \tfrac{\Delta\bar{x}^2}{2}\operatorname{sech}\Delta\xi` is a sum of
    nonnegative terms.

    Where :math:`d = u - 1` exceeds ``_ALPHA_LOG_FORM`` (or overflows),
    :math:`\alpha = \log 2d` to within :math:`1/d`, and
    :math:`\log 2d` is summed from the logs of its two terms,
    :math:`4\sinh^2(\Delta\xi/2)` and
    :math:`\Delta\bar{x}^2\operatorname{sech}\Delta\xi`, so that no
    intermediate overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = 2.0 * np.sinh(0.5 * dxi) ** 2 + 0.5 * dxbar**2 / np.cosh(dxi)
        far = ~(d <= _ALPHA_LOG_FORM)  # NaN from inf / inf goes to the log form too
        alpha = np.log1p(d + np.sqrt(d * (d + 2.0)))
    if not np.any(far):
        return alpha
    xi = np.abs(np.broadcast_to(dxi, far.shape)[far])
    xbar = np.broadcast_to(dxbar, far.shape)[far]
    with np.errstate(divide="ignore"):
        log_long = xi + 2.0 * np.log(-np.expm1(-xi))
        log_cosh = xi + np.log1p(np.exp(-2.0 * xi)) - math.log(2.0)
        log_trans = 2.0 * np.log(xbar) - log_cosh
    alpha = np.array(alpha, dtype=float)
    alpha[far] = np.logaddexp(log_long, log_trans)
    return alpha


def _x_over_sinh(alpha: np.ndarray) -> np.ndarray:
    r""":math:`\alpha/\sinh\alpha`, stable at both ends."""
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        generic = 2.0 * alpha * np.exp(-alpha) / (-np.expm1(-2.0 * alpha))
    return np.where(alpha < 1e-6, 1.0 - alpha**2 / 6.0, generic)


def conical_p(q, u):
    r"""Conical-function combination
    :math:`\sqrt{2/(\pi\sinh\alpha)}\;\alpha\,\operatorname{sinc}(q\alpha/\pi)`
    with :math:`\alpha = \operatorname{arccosh} u`.

    Vanishes like :math:`\sqrt{2\alpha/\pi}` as :math:`u \to 1^+`; the
    ratio ``conical_p(q, u) / (u**2 - 1)**0.25`` tends to
    :math:`\sqrt{2/\pi}` there.

    Parameters
    ----------
    q : array_like
        Nonnegative degree parameter.
    u : array_like
        Argument, ``u >= 1``.
    """
    q_arr = _as_float_array(q, "q")
    u_arr = _as_float_array(u, "u")
    if not np.all(q_arr >= 0.0):
        raise ValueError("conical_p requires q >= 0")
    if not np.all(u_arr >= 1.0):
        raise ValueError("conical_p requires u >= 1")
    d = u_arr - 1.0
    alpha = np.log1p(d + np.sqrt(d * (d + 2.0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        amplitude = alpha * np.sqrt(2.0 / (np.pi * np.sinh(alpha)))
    out = np.where(alpha == 0.0, 0.0, amplitude * np.sinc(q_arr * alpha / np.pi))
    return _scalar_or_array(out, q, u)


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
    q_arr = _as_float_array(q, "q")
    dxi_arr = _as_float_array(dxi, "dxi")
    dxbar_arr = np.asarray(dxbar, dtype=float)
    if not np.all(q_arr >= 0.0):
        raise ValueError("lambda_overlap requires q >= 0")
    if not np.all(dxbar_arr >= 0.0):  # NaN fails this too
        raise ValueError("lambda_overlap requires dxbar >= 0")
    far = dxbar_arr == np.inf
    alpha = _alpha_from_geometry(dxi_arr, dxbar_arr)
    with np.errstate(invalid="ignore"):
        out = (
            np.sinc(q_arr * alpha / np.pi)
            * _x_over_sinh(alpha)
            / np.sqrt(np.cosh(dxi_arr))
        )
    return _scalar_or_array(np.where(far, 0.0, out), q, dxi, dxbar)


def lambda_axis_xi(q, dxi):
    r"""Closed form of :math:`\Lambda` on the axis :math:`\Delta\bar{x} = 0`:

    .. math::
        \Lambda = \frac{\sin(q\,\Delta\xi)}{q\,\sinh\Delta\xi}
                  \frac{1}{\sqrt{\cosh\Delta\xi}} .
    """
    q_arr = _as_float_array(q, "q")
    dxi_arr = _as_float_array(dxi, "dxi")
    if not np.all(q_arr >= 0.0):
        raise ValueError("lambda_axis_xi requires q >= 0")
    mag = np.abs(dxi_arr)
    out = (
        np.sinc(q_arr * mag / np.pi)
        * _x_over_sinh(mag)
        / np.sqrt(np.cosh(dxi_arr))
    )
    return _scalar_or_array(out, q, dxi)


def lambda_axis_xbar(q, dxbar):
    r"""Closed form of :math:`\Lambda` on the axis :math:`\Delta\xi = 0`:

    .. math::
        \Lambda = \frac{\sin(q g)}{q\,\sinh g},
        \qquad g = 2\,\operatorname{arcsinh}(\Delta\bar{x}/2).
    """
    q_arr = _as_float_array(q, "q")
    dxbar_arr = _as_float_array(dxbar, "dxbar")
    if not np.all(q_arr >= 0.0):
        raise ValueError("lambda_axis_xbar requires q >= 0")
    if not np.all(dxbar_arr >= 0.0):
        raise ValueError("lambda_axis_xbar requires dxbar >= 0")
    g = 2.0 * np.arcsinh(0.5 * dxbar_arr)
    out = np.sinc(q_arr * g / np.pi) * _x_over_sinh(g)
    return _scalar_or_array(out, q, dxbar)


def gaussian_ft(omega, T):
    r"""Fourier transform of the normalized Gaussian window: for the window
    :math:`\chi(\tau) = (2\pi)^{-1/4} e^{-\tau^2/(4T^2)}` (which satisfies
    :math:`\int \chi^2\,d\tau = T`),

    .. math::
        \bar\chi(\Omega) = \left(\frac{2}{\pi}\right)^{1/4} T\,
            e^{-\Omega^2 T^2}.

    Parameters
    ----------
    omega : array_like
        Frequency argument.
    T : float
        Window duration, strictly positive.
    """
    omega_arr = _as_float_array(omega, "omega")
    if not (np.ndim(T) == 0 and T > 0.0 and math.isfinite(float(T))):
        raise ValueError(f"gaussian_ft requires scalar T > 0, got {T!r}")
    with np.errstate(under="ignore"):
        out = (2.0 / np.pi) ** 0.25 * float(T) * np.exp(-(omega_arr**2) * float(T) ** 2)
    return _scalar_or_array(out, omega)


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
    gap :math:`\omega` at inverse acceleration :math:`z`; the continuous
    limit :math:`1/(2\pi z)` is used at :math:`\omega = 0`.  An exponent
    :math:`2\pi\omega z` past the float range gives 0; a weight past it
    (:math:`z` below about 1e-309) raises ``OverflowError``.
    """
    omega_arr = _as_float_array(omega, "omega")
    z_arr = _as_float_array(z, "z")
    if not np.all(omega_arr >= 0.0):
        raise ValueError("planck_weight requires omega >= 0")
    if not np.all(z_arr > 0.0):
        raise ValueError("planck_weight requires z > 0")
    with np.errstate(over="ignore"):
        generic = _planck_factor(omega_arr, 2.0 * np.pi * omega_arr * z_arr)
        out = np.where(omega_arr == 0.0, 1.0 / (2.0 * np.pi * z_arr), generic)
    if np.any(np.isinf(out)):
        raise OverflowError("planck_weight overflows: omega/(e^(2 pi omega z) - 1) is past the float range")
    return _scalar_or_array(out, omega, z)

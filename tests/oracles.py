"""Independent mpmath reference implementations.

Every frozen literal in the unit tests was produced by the functions in
this module at 40 decimal digits (quadrature literals at 25), except
``FINITE_T_K_ROUTE`` in ``test_overlaps``, which names its provenance.  The
functions deliberately share no code with the package: special functions
come from mpmath and each formula is assembled from scratch, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math

import mpmath as mp


def k_imag(nu, x, dps: int = 40):
    """Macdonald function of imaginary order, Re K_{i nu}(x)."""
    with mp.workdps(dps):
        return mp.re(mp.besselk(mp.mpc(0, nu), x))


def lam(q, dxi, dxbar, dps: int = 40):
    """Overlap factor via the geodesic-parameter closed form."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        dxi = mp.mpf(dxi)
        dxbar = mp.mpf(dxbar)
        d = 2 * mp.sinh(dxi / 2) ** 2 + (dxbar**2 / 2) / mp.cosh(dxi)
        alpha = mp.log1p(d + mp.sqrt(d * (d + 2)))
        pref = mp.sqrt(1 / mp.cosh(dxi))
        if alpha == 0:
            core = mp.mpf(1)
        elif q == 0:
            core = alpha / mp.sinh(alpha)
        else:
            core = mp.sin(q * alpha) / (q * mp.sinh(alpha))
        return pref * core


def lam_kbar_quadrature(q, dxi, dxbar, dps: int = 25):
    """Overlap factor via the independent k-bar integral representation."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        dxi = mp.mpf(dxi)
        dxbar = mp.mpf(dxbar)
        sp = mp.sqrt((mp.e ** (2 * dxi) + 1) / 2)
        sm = mp.sqrt((mp.e ** (-2 * dxi) + 1) / 2)

        def integrand(k):
            return (
                k
                * mp.besselj(0, k * dxbar)
                * mp.re(mp.besselk(mp.mpc(0, q), k * sp))
                * mp.re(mp.besselk(mp.mpc(0, q), k * sm))
            )

        integral = mp.quad(integrand, [0, 1, 3, 8, 20, 50])
        if q == 0:
            pref = 2 * mp.sqrt(mp.cosh(dxi))
        else:
            pref = 2 * mp.sinh(mp.pi * q) / (mp.pi * q) * mp.sqrt(mp.cosh(dxi))
        return pref * integral


def diag(omega, z, T, dps: int = 40):
    """Same-branch excited coefficient (T/2 pi) * omega / (e^{2 pi omega z} - 1)."""
    with mp.workdps(dps):
        return (mp.mpf(T) / (2 * mp.pi)) * mp.mpf(omega) / mp.expm1(
            2 * mp.pi * mp.mpf(omega) * mp.mpf(z)
        )


def joint_state_dense(frequencies, couplings, trajectories, tol):
    """Brute-force dense excited block in double precision, entry by entry.

    Follows the formula of the ``superthermal.detector`` docstring with
    the ``math`` module only: rho[(j,m),(i,n)] = A_n^* A_m zeta_i^* zeta_j
    Lambda(q, dxi, dxbar) sqrt(P_in P_jm) / (2 pi) on the diagonal and on
    every cross-branch pair with |omega_j z_m - omega_i z_n| <= tol, with
    q taken from the lower flat index and the upper entry conjugated.
    ``trajectories`` are (z, x, y, amplitude) tuples in branch order.
    """
    n_traj = len(trajectories)
    size = len(frequencies) * n_traj

    def planck(omega, z):
        y = 2.0 * math.pi * omega * z
        return omega * math.exp(-y) if y > 709.0 else omega / math.expm1(y)

    def overlap(q, dxi, dxbar):
        d = 2.0 * math.sinh(dxi / 2.0) ** 2 + dxbar**2 / (2.0 * math.cosh(dxi))
        alpha = math.log1p(d + math.sqrt(d * (d + 2.0)))
        core = 1.0 if alpha == 0.0 else (
            alpha / math.sinh(alpha) if q == 0.0 else math.sin(q * alpha) / (q * math.sinh(alpha))
        )
        return core / math.sqrt(math.cosh(dxi))

    out = [[0j] * size for _ in range(size)]
    for row in range(size):
        j, m = divmod(row, n_traj)
        z_m, x_m, y_m, a_m = trajectories[m]
        for col in range(row, size):
            i, n = divmod(col, n_traj)
            z_n, x_n, y_n, a_n = trajectories[n]
            if row == col:
                lam = 1.0
            elif m != n and abs(frequencies[j] * z_m - frequencies[i] * z_n) <= tol:
                dxbar = math.hypot(x_m - x_n, y_m - y_n) * math.sqrt(
                    (1.0 / z_m**2 + 1.0 / z_n**2) / 2.0
                )
                lam = overlap(frequencies[j] * z_m, math.log(z_m / z_n), dxbar)
            else:
                continue
            value = (
                a_n.conjugate() * a_m * couplings[i].conjugate() * couplings[j] * lam
                * math.sqrt(planck(frequencies[i], z_n))
                * math.sqrt(planck(frequencies[j], z_m))
                / (2.0 * math.pi)
            )
            out[row][col] = value
            out[col][row] = value.conjugate()
    return out


def finite_t_spectral(omega_i, n, omega_j, m, T, dps: int = 40):
    """Finite-duration overlap <omega_i, n | omega_j, m> from its 1-D
    boost-frequency integral, on the whole line,

        T^2 e^{-C} / sqrt(2 pi^5) * int dnu e^{-pi nu - M (s - 1)^2} F(nu),
        F(nu) = pi sin(nu mu) / (2 z_m z_n sinh(pi nu) sinh mu),

    over the boost frequency nu, with s = nu / wbar, cosh mu = (z_m^2 +
    z_n^2 + b^2)/(2 z_m z_n) (b the transverse distance) and C, M, wbar
    the Gaussian parameters of the pair.  ``n`` and ``m`` are (z, x, y) tuples.  The Gaussian tails
    past 30 of its standard deviations (e^-450) are left out.
    """
    with mp.workdps(dps):
        omega_i, omega_j, T = (mp.mpf(v) for v in (omega_i, omega_j, T))
        (z_n, x_n, y_n), (z_m, x_m, y_m) = ([mp.mpf(v) for v in p] for p in (n, m))
        zz = z_m**2 + z_n**2
        C = (omega_j * z_m - omega_i * z_n) ** 2 * T**2 / zz
        M = (omega_i * z_m + omega_j * z_n) ** 2 * T**2 / zz
        wbar = (omega_j / z_m + omega_i / z_n) / (1 / z_m**2 + 1 / z_n**2)
        b2 = (x_m - x_n) ** 2 + (y_m - y_n) ** 2
        mu = mp.acosh((zz + b2) / (2 * z_m * z_n))

        def integrand(nu):
            ratio = nu if mu == 0 else mp.sin(nu * mu) / mp.sinh(mu)
            # e^{-pi nu} / sinh(pi nu) = 2 / expm1(2 pi nu)
            f = mp.pi * ratio / (z_m * z_n * mp.expm1(2 * mp.pi * nu))
            return mp.exp(-M * (nu / wbar - 1) ** 2) * f

        sigma = wbar / mp.sqrt(2 * M)
        # the poles of 1/expm1(2 pi nu) at nu = +-i set a finer scale near 0
        near_zero = {s * mp.mpf(2) ** k for s in (-1, 1) for k in range(-2, 40)}
        points = {wbar + k * sigma for k in range(-30, 31)} | near_zero | {mp.mpf(0)}
        points = sorted(p for p in points if abs(p - wbar) <= 30 * sigma)
        integral = mp.quad(integrand, points)
        return T**2 * mp.exp(-C) / mp.sqrt(2 * mp.pi**5) * integral


def finite_t_wightman(omega_i, n, omega_j, m, T, dps: int = 20):
    """Finite-duration overlap <omega_i, n | omega_j, m> from the vacuum
    Wightman function along the two branches,

        W = 1 / (4 pi^2 (|dx|^2 - (dt - i eps)^2))
          = 1 / (8 pi^2 z_m z_n (cosh mu - cosh(d eta - i eps))),

    each branch switched along its proper time tau = z eta by
    chi(tau) = (2 pi)^(-1/4) e^(-tau^2 / (4 T^2)).  The centre-of-time
    integral is Gaussian, and what is left is one integral on the line
    w = u - i theta:

        T e^{-C} / (4 pi^2 sqrt(2 (z_m^2 + z_n^2)))
            * int du e^{-kappa w^2 - i qbar w} / (cosh mu - cosh w),
        kappa = z_m^2 z_n^2 / (4 T^2 (z_m^2 + z_n^2)),
        qbar = (omega_j z_m z_n^2 + omega_i z_n z_m^2) / (z_m^2 + z_n^2),

    with C = (omega_j z_m - omega_i z_n)^2 T^2 / (z_m^2 + z_n^2) and
    cosh mu = (z_m^2 + z_n^2 + b^2) / (2 z_m z_n), b the transverse
    distance.  ``n`` and ``m`` are (z, x, y) tuples.

    The poles sit at w = +-mu and 2 pi below them, so every 0 < theta <
    2 pi gives the same value; theta = min(qbar / (2 kappa), pi) is the
    Gaussian's saddle, or the line midway between the pole rows.  The
    integrand at -u is the conjugate of the one at u, so the integral is
    twice the real part of the one over u >= 0.  On theta = pi it turns at
    a rate near qbar and cancels down to about e^{-pi qbar} of its size:
    breakpoints every pi/qbar and ceil(pi qbar / ln 10) digits beyond
    ``dps``.  Near u = mu the line passes within theta of a pole (the
    double pole at w = 0 on the diagonal), so breakpoints also lie at mu +-
    theta 2^k.  Past U, where e^{-kappa U^2 - (U - mu)} falls below the
    working precision, one last interval runs to infinity.
    """
    qbar_estimate = (omega_j * m[0] * n[0] ** 2 + omega_i * n[0] * m[0] ** 2) / (m[0] ** 2 + n[0] ** 2)
    digits = dps + math.ceil(math.pi * qbar_estimate / math.log(10))
    with mp.workdps(digits):
        omega_i, omega_j, T = (mp.mpf(v) for v in (omega_i, omega_j, T))
        (z_n, x_n, y_n), (z_m, x_m, y_m) = ([mp.mpf(v) for v in p] for p in (n, m))
        zz = z_m**2 + z_n**2
        C = (omega_j * z_m - omega_i * z_n) ** 2 * T**2 / zz
        kappa = z_m**2 * z_n**2 / (4 * T**2 * zz)
        qbar = (omega_j * z_m * z_n**2 + omega_i * z_n * z_m**2) / zz
        cosh_mu = (zz + (x_m - x_n) ** 2 + (y_m - y_n) ** 2) / (2 * z_m * z_n)
        mu = mp.acosh(cosh_mu)
        theta = min(qbar / (2 * kappa), mp.pi)

        def integrand(u):
            w = mp.mpc(u, -theta)
            return mp.exp(-kappa * w**2 - 1j * qbar * w) / (cosh_mu - mp.cosh(w))

        decay = digits * mp.log(10)
        end = mu + (mp.sqrt(1 + 4 * kappa * decay) - 1) / (2 * kappa)
        step = mp.pi / qbar
        points = {k * step for k in range(int(end / step) + 1)} | {mu}
        points |= {mu + s * theta * 2**k for s in (-1, 1) for k in range(64) if theta * 2**k < step}
        points = sorted(p for p in points if 0 <= p <= end) + [mp.inf]
        integral = 2 * mp.re(mp.quad(integrand, points, method="gauss-legendre"))
        return T * mp.exp(-C) / (4 * mp.pi**2 * mp.sqrt(2 * zz)) * integral


def laplace_coefficients(q, orders: int = 4, dps: int = 40):
    """Coefficients c_k of the diagonal finite-duration overlap's approach
    to its long-time form, rel_error = sum_k c_k / M^k, by Laplace's method:
    c_k = h^(2k)(1) / (k! 4^k h(1)) with h(s) = s / (e^{2 pi q s} - 1)."""
    with mp.workdps(dps):
        q = mp.mpf(q)

        def h(s):
            return s / mp.expm1(2 * mp.pi * q * s)

        return [mp.diff(h, 1, 2 * k) / (mp.factorial(k) * 4**k * h(1)) for k in range(1, orders + 1)]


def stieltjes_roots(n: int, dps: int = 40):
    """Roots of the Stieltjes polynomial E_{n+1} of the Legendre weight,
    ascending: the n + 1 nodes the Kronrod rule adds to n-point
    Gauss-Legendre.

    E_{n+1} is, up to a factor, the polynomial part of 1/Q_n(z) at
    infinity, Q_n the Legendre function of the second kind (Monegato, SIAM
    Review 24, 1982).  Q_n(z) = c z^{-n-1} 2F1((n+1)/2, (n+2)/2; n+3/2;
    1/z^2) with c = sqrt(pi) n! / (2^{n+1} Gamma(n + 3/2)); the series in
    1/z^2 is inverted term by term."""
    with mp.workdps(dps):
        terms = n // 2 + 1
        a, b, c = mp.mpf(n + 1) / 2, mp.mpf(n + 2) / 2, mp.mpf(n) + mp.mpf(3) / 2
        series = [mp.rf(a, k) * mp.rf(b, k) / (mp.rf(c, k) * mp.factorial(k)) for k in range(terms)]
        inverse = [mp.mpf(1)]
        for k in range(1, terms):
            inverse.append(-mp.fsum(series[j] * inverse[k - j] for j in range(1, k + 1)))
        # z^{n+1} sum_k inverse_k z^{-2k}, highest degree first
        coeffs = [mp.mpf(0)] * (n + 2)
        for k, value in enumerate(inverse):
            coeffs[2 * k] = value
        return sorted(mp.re(r) for r in mp.polyroots(coeffs, maxsteps=200, extraprec=2 * dps))

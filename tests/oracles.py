"""Independent mpmath reference implementations.

Every frozen literal in the unit tests was produced by the functions in
this module at 40 decimal digits (quadrature literals at 25).  The
functions deliberately share no code with the package: special functions
come from mpmath and each formula is assembled from scratch, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

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
    import math

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

"""Special functions: Macdonald K of imaginary order, conical P, the
overlap factor and its closed on-axis forms, window transform, thermal
weight.

Frozen reference values come from mpmath at 40 decimal digits via
``tests/oracles.py``.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from oracles import lam

from superthermal.specfun import (
    _k_imag_outer,
    bessel_j0,
    bessel_k_imag,
    conical_p,
    gaussian_ft,
    lambda_axis_xbar,
    lambda_axis_xi,
    lambda_overlap,
    planck_weight,
)

RNG = np.random.default_rng(8451)

# (nu, x, Re K_{i nu}(x)) — mpmath besselk at 40 digits
K_IMAG_REFERENCE = [
    (0.0, 1.0, 0.4210244382407083333356),
    (0.5, 0.3, 1.100928182739346493877),
    (1.0, 1.0, 0.2894280370259921276346),
    (2.0, 0.7, 0.05969099416493129036164),
    (5.0, 2.0, -0.000346337880806571434731),
    (10.0, 3.0, -6.375993979873860671108e-8),
]

# (q, u, P^{-1/2}_{-1/2 + iq}(u)) — mpmath legenp order -1/2 (type 3)
CONICAL_REFERENCE = [
    (0.5, 1.0005, 0.1418654804753250465038),
    (0.5, 3.0, 0.7321453094557348635464),
    (1.0, 1.5, 0.6192029947019032451802),
    (2.0, 2.0, 0.1473664541365323057049),
    (10.0, 1.2, -0.005831452585765600883581),
]

# (q, dxi, dxbar, Lambda) — mpmath closed form at 40 digits
LAMBDA_REFERENCE = [
    (1.0, math.log(2.0), 0.0, 0.7620057860412339464695),
    (1.0, 0.0, 1.0, 0.7339483244539802109416),
    (2.0, 1.3, 2.2, -0.05818858891030465584235),
    (10.0, 0.3, 0.5, -0.09460227136623017361706),
    (0.5, -1.2, 3.0, 0.3118105530016467552033),
    (0.0, 1.5, 2.0, 0.392548159136736592644),
    (0.0, 0.0, 2.5, 0.5235409334836890108421),
]


def test_bessel_k_imag_reference_values():
    for nu, x, want in K_IMAG_REFERENCE:
        got = bessel_k_imag(nu, x)
        assert got == pytest.approx(want, rel=2e-10, abs=1e-16), (nu, x)


def test_bessel_k_imag_positive_order_zero_matches_scipy():
    from scipy.special import kv

    xs = RNG.uniform(0.05, 8.0, size=40)
    got = np.array([bessel_k_imag(0.0, x) for x in xs])
    assert np.allclose(got, kv(0, xs), rtol=1e-12, atol=0)


# K_imag arguments: log-spaced over the small-x band structure and the
# decaying range, 40 points per order
K_IMAG_XS = np.concatenate([np.geomspace(1e-7, 0.1, 20), np.geomspace(0.1, 60.0, 21)[1:]])


@pytest.mark.parametrize("nu", [0.0, 2.0, 10.0, 20.0, 40.0])
def test_k_imag_outer_matches_mpmath(nu):
    got = _k_imag_outer(np.array([nu]), K_IMAG_XS)[0]
    with mp.workdps(30):
        want = np.array([float(mp.re(mp.besselk(1j * nu, x))) for x in K_IMAG_XS])
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("nu", [0.0, 2.0, 10.0, 20.0, 40.0])
def test_k_imag_outer_band_invariance(nu):
    # A batched x shares its band's t-grid, which reaches further out than
    # x alone needs; the extra panels lie below the tail bound, so only
    # rounding may differ (one ulp of K_0 near x = 1e-7 is 3.6e-15).
    batched = _k_imag_outer(np.array([nu]), K_IMAG_XS)[0]
    alone = np.array([_k_imag_outer(np.array([nu]), np.array([x]))[0, 0] for x in K_IMAG_XS])
    assert np.all(np.abs(alone - batched) <= 1e-15 * np.maximum(1.0, np.abs(batched)))


def test_bessel_j0_matches_scipy():
    from scipy.special import j0

    xs = RNG.uniform(0.0, 50.0, size=100)
    assert np.allclose(bessel_j0(xs), j0(xs), rtol=1e-14, atol=1e-300)


def test_conical_reference_values():
    for q, x, want in CONICAL_REFERENCE:
        got = conical_p(q, x)
        assert got == pytest.approx(want, rel=5e-11, abs=1e-14), (q, x)


def test_conical_endpoint_behavior():
    # vanishes like sqrt(2 alpha / pi) as u -> 1+, uniformly in q
    for q in (0.0, 0.5, 1.0, 2.0, 10.0):
        assert conical_p(q, 1.0) == 0.0
        ratio = conical_p(q, 1.0 + 1e-10) / (1e-10 * 2.0) ** 0.25
        assert ratio == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-5)


def test_lambda_reference_values():
    for q, dxi, dxbar, want in LAMBDA_REFERENCE:
        got = lambda_overlap(q, dxi, dxbar)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (q, dxi, dxbar)


def _lambda_envelope(q, dxi, dxbar):
    """Amplitude of the oscillation in Lambda: |sinc(q alpha)| <= min(1, 1/(q alpha))."""
    with mp.workdps(40):
        dxi, dxbar = mp.mpf(dxi), mp.mpf(dxbar)
        alpha = mp.acosh(1 + 2 * mp.sinh(dxi / 2) ** 2 + dxbar**2 / (2 * mp.cosh(dxi)))
        sinc_bound = 1 if q * alpha <= 1 else 1 / (q * alpha)
        return sinc_bound * alpha / (mp.sinh(alpha) * mp.sqrt(mp.cosh(dxi)))


@pytest.mark.parametrize("dxbar", [1e77, 1e150, 1e300])
def test_lambda_finite_at_huge_transverse_separation(dxbar):
    # u - 1 ~ dxbar^2 / 2 makes d (d + 2) overflow from dxbar ~ 1.6e77;
    # the log form of alpha takes over above u - 1 = 1e150.  The phase
    # q alpha reaches ~7000 here, and its rounding alone (~1e-13) rules out
    # a relative bound near zeros of sin(q alpha), so errors are measured
    # against the oscillation's amplitude.
    for q in (0.0, 1.0, 10.0):
        for dxi in (-2.0, -0.7, 0.0, 0.3, 2.0):
            got = lambda_overlap(q, dxi, dxbar)
            want = lam(q, dxi, dxbar)
            assert math.isfinite(got)
            bound = 1e-12 * _lambda_envelope(q, dxi, dxbar) + mp.mpf(1e-300)
            assert abs(mp.mpf(got) - want) <= bound, (q, dxi)
    grid = lambda_overlap(np.array([0.0, 1.0, 10.0]), 0.5, np.array([1.0, dxbar, 1.0]))
    assert grid[0] == lambda_overlap(0.0, 0.5, 1.0)
    assert grid[2] == lambda_overlap(10.0, 0.5, 1.0)
    assert np.all(np.isfinite(grid))


def test_lambda_is_zero_at_infinite_transverse_separation():
    # the limit of the log form: alpha -> inf, so Lambda -> 0
    for q in (0.0, 1.0, 10.0):
        for dxi in (-2.0, 0.0, 0.3):
            assert lambda_overlap(q, dxi, math.inf) == 0.0
    finite = np.array([0.0, 1.0, 1e300])
    mixed = lambda_overlap(2.0, 0.5, np.array([0.0, 1.0, math.inf, 1e300]))
    assert mixed[2] == 0.0
    assert np.array_equal(mixed[[0, 1, 3]], lambda_overlap(2.0, 0.5, finite))
    for bad in (math.nan, -math.inf, -1.0):
        with pytest.raises(ValueError, match="dxbar"):
            lambda_overlap(1.0, 0.0, bad)


def test_lambda_normalization_and_bound():
    assert lambda_overlap(0.0, 0.0, 0.0) == 1.0
    assert lambda_overlap(7.3, 0.0, 0.0) == 1.0
    qs = RNG.uniform(0.0, 12.0, size=300)
    dxis = RNG.uniform(-3.0, 3.0, size=300)
    dxbars = RNG.uniform(0.0, 5.0, size=300)
    values = lambda_overlap(qs, dxis, dxbars)
    assert np.all(np.abs(values) <= 1.0 + 1e-12)


def test_lambda_symmetry_in_dxi():
    # Lambda depends on the branch pair only through the invariant
    # separation, which is even in dxi.
    for q in (0.0, 0.7, 2.0, 10.0):
        for dxi in (0.3, 1.1, 2.7):
            for dxbar in (0.0, 0.8, 2.0):
                a = lambda_overlap(q, dxi, dxbar)
                b = lambda_overlap(q, -dxi, dxbar)
                assert a == pytest.approx(b, rel=1e-13, abs=1e-16)


def test_lambda_vectorizes():
    q = 1.0
    dxi = np.linspace(-2, 2, 7)
    dxbar = np.linspace(0, 3, 5)
    grid = lambda_overlap(q, dxi[:, None], dxbar[None, :])
    assert grid.shape == (7, 5)
    assert grid[3, 0] == pytest.approx(1.0, abs=1e-12)
    scalar = lambda_overlap(q, dxi[1], dxbar[2])
    assert grid[1, 2] == pytest.approx(scalar, rel=1e-15)


def test_axis_forms_match_general_form():
    qs = RNG.uniform(0.0, 10.0, size=200)
    dxis = RNG.uniform(-3.0, 3.0, size=200)
    dxbars = RNG.uniform(0.0, 5.0, size=200)
    for q, dxi, dxbar in zip(qs, dxis, dxbars):
        assert lambda_axis_xi(q, dxi) == pytest.approx(
            lambda_overlap(q, dxi, 0.0), rel=1e-12, abs=1e-13
        )
        assert lambda_axis_xbar(q, dxbar) == pytest.approx(
            lambda_overlap(q, 0.0, dxbar), rel=1e-12, abs=1e-13
        )


def test_lambda_decays_along_both_axes():
    # wider support at small q, narrower at large q
    for q in (0.0, 1.0, 2.0, 10.0):
        along_xi = [abs(float(lambda_axis_xi(q, x))) for x in (0.0, 1.0, 2.0, 3.0)]
        assert along_xi[0] == pytest.approx(1.0, abs=1e-12)
        assert along_xi[-1] < 0.25
        along_xbar = [abs(float(lambda_axis_xbar(q, x))) for x in (0.0, 2.0, 5.0)]
        assert along_xbar[-1] < along_xbar[0]


def test_gaussian_ft():
    # (2/pi)^{1/4} T e^{-Omega^2 T^2}
    T = 3.0
    pref = (2.0 / math.pi) ** 0.25 * T
    assert gaussian_ft(0.0, T) == pytest.approx(pref, rel=1e-15)
    assert gaussian_ft(0.5, T) == pytest.approx(pref * math.exp(-0.25 * 9.0), rel=1e-14)
    assert gaussian_ft(100.0, 1.0) == 0.0  # underflows cleanly


def test_planck_weight():
    assert planck_weight(1.0, 1.0) == pytest.approx(1.0 / math.expm1(2.0 * math.pi), rel=1e-15)
    # omega -> 0 limit: 1/(2 pi z)
    assert planck_weight(0.0, 2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert planck_weight(1e-300, 2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    # past the overflow of e^{2 pi omega z} (omega z > 112.97) the weight
    # is a positive subnormal, not 0
    for omega, z in ((113.5, 1.0), (60.0, 1.9), (117.9, 1.0), (230.0, 0.5)):
        got = planck_weight(omega, z)
        with mp.workdps(40):
            want = float(mp.mpf(omega) / mp.expm1(2 * mp.pi * mp.mpf(omega) * mp.mpf(z)))
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=1e-312)

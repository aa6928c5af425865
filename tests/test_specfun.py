"""Special functions: Macdonald K of imaginary order (power series up to
the crossover, quadrature above), the overlap factor and its closed
on-axis forms, window transform, thermal weight.

Frozen reference values come from mpmath at 40 decimal digits via
``tests/oracles.py``.
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import k_imag, lam, stieltjes_roots

from superthermal.specfun import (
    _KSERIES_X,
    _k_imag_outer,
    _kronrod_rule,
    _overlap_geometry,
    _overlap_of_geometry,
    bessel_j0,
    bessel_k_imag,
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


def test_bessel_k_imag_on_an_array_of_orders_equals_its_scalar_order_calls():
    # Each distinct |nu| takes one kernel call on its sorted arguments, and
    # the values go back to their places in the broadcast shape: repeated
    # orders (and -2, which is 2) and unsorted x on both sides of x = 4
    # give, bit for bit, what one call per order gives.
    nu = np.array([[2.0], [0.0], [-2.0], [10.0], [2.0]])
    x = np.array([7.5, 0.3, 4.0, 12.0, 1e-3, 0.3, 60.0])
    got = bessel_k_imag(nu, x)
    assert got.shape == (5, 7)
    want = np.array([bessel_k_imag(float(v), x) for v in nu[:, 0]])
    assert np.array_equal(got, want)


def test_bessel_k_imag_positive_order_zero_matches_scipy():
    from scipy.special import kv

    xs = RNG.uniform(0.05, 8.0, size=40)
    got = np.array([bessel_k_imag(0.0, x) for x in xs])
    assert np.allclose(got, kv(0, xs), rtol=1e-12, atol=0)


# K_imag arguments: log-spaced over the small-x band structure and the
# decaying range, 40 points per order
K_IMAG_XS = np.concatenate([np.geomspace(1e-7, 0.1, 20), np.geomspace(0.1, 60.0, 21)[1:]])


@pytest.mark.parametrize("nu", [0.0, 1e-12, 1e-6, 1e-3, 0.05, 2.0, 10.0, 20.0, 40.0])
def test_k_imag_outer_matches_mpmath(nu):
    got = _k_imag_outer(nu, K_IMAG_XS)
    with mp.workdps(30):
        want = np.array([float(mp.re(mp.besselk(1j * nu, x))) for x in K_IMAG_XS])
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("nu", [0.0, 2.0, 10.0, 20.0, 40.0])
def test_k_imag_outer_band_invariance(nu):
    # A batched x shares its band's trapezoidal rule: a step sized for the
    # band's largest x and nodes reaching as far as its smallest x needs.
    # Alone, x gets a longer step and fewer nodes; both rules are off by
    # less than the e^{-43} strip and tail bounds relative to e^{-x}, so
    # only rounding may differ (one ulp of K_0 near x = 1e-7 is 3.6e-15).
    batched = _k_imag_outer(nu, K_IMAG_XS)
    alone = np.array([_k_imag_outer(nu, np.array([x]))[0] for x in K_IMAG_XS])
    assert np.all(np.abs(alone - batched) <= 1e-15 * np.maximum(1.0, np.abs(batched)))


def _k_mpmath(nu, xs):
    return np.array([float(k_imag(nu, x, dps=30)) for x in xs])


# Arguments the trapezoidal rule serves, up to where e^{-x} is 1e-87.
K_TRAPEZOID_XS = np.geomspace(4.0001, 200.0, 40)


@pytest.mark.parametrize("nu", [0.0, 2.0, 10.0, 20.0, 40.0], ids=["0", "2", "10", "20", "40"])
def test_k_imag_outer_error_relative_to_envelope(nu):
    # Above the crossover the error is measured against the envelope e^{-x}
    # of the integrand, the scale of its largest terms.  Each term
    # h e^{-x} e^{-x(cosh t - 1)} cos(nu t) carries a relative rounding of
    # about eps (4 + nu t + x(cosh t - 1)); against the envelope
    # (int e^{-x t^2/2} dt = sqrt(pi/2x), int t e^{-x t^2/2} dt = 1/x) that
    # is eps (4.5 sqrt(pi/2x) + nu/x) e^{-x} <= 13 eps e^{-x} for x >= 4 and
    # nu <= 40.  Adding the at most 41 terms, whose moduli sum to about
    # sqrt(pi/2x) e^{-x} <= 0.63 e^{-x}, costs at most 26 eps e^{-x} more,
    # even in plain order.  Together 39 eps = 8.7e-15, below 1e-14; the strip
    # and tail bounds add e^{-43}.  An absolute bound would not see an error
    # of 1e-6 e^{-x} at x = 40.
    got = _k_imag_outer(nu, K_TRAPEZOID_XS)
    want = _k_mpmath(nu, K_TRAPEZOID_XS)
    assert np.all(np.abs(got - want) <= 1e-14 * np.exp(-K_TRAPEZOID_XS))


# Arguments the power series serves, log-spaced up to the crossover.
K_SERIES_XS = np.geomspace(1e-7, _KSERIES_X, 45)


@pytest.mark.parametrize("nu", [10.0, 20.0])
def test_k_imag_outer_relative_error_below_crossover(nu):
    # K_{i nu} is of order e^{-pi nu/2} here, so an absolute bound says
    # little; the quadrature alone is off by 9e-7 (nu = 10) and 1.6
    # (nu = 20) relative.  None of these x lies near a zero of K.
    got = _k_imag_outer(nu, K_SERIES_XS)
    want = _k_mpmath(nu, K_SERIES_XS)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


@pytest.mark.parametrize("nu", [0.0, 1e-9, 0.05, 3.0, 20.0], ids=["0", "1e-9", "0.05", "3", "20"])
def test_k_imag_outer_error_bound_covers_mpmath(nu):
    # The bound the oracles add to their refinement change: every series
    # value carries a positive bound that covers its actual error, and the
    # bound is 0 above the crossover.
    xs = np.concatenate([K_SERIES_XS[::3], [4.5, 9.0]])
    err = np.empty(xs.size)
    got = _k_imag_outer(nu, xs, err=err)
    # The oracles' base passes ask for no bound and get the same values.
    assert np.array_equal(got, _k_imag_outer(nu, xs))
    want = _k_mpmath(nu, xs)
    series = xs <= _KSERIES_X
    assert np.all(np.abs(got - want)[series] <= err[series])
    assert np.all(err[series] > 0.0)
    assert np.all(err[~series] == 0.0)
    assert np.all(err[series] <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(min_value=0.0, max_value=40.0))
@example(nu=0.04672101770030857)  # the series errs by 1.23e-14 here (mpmath)
@example(nu=1.1125369292536007e-308)  # the bound's 1/nu overflows
def test_k_imag_outer_is_continuous_across_the_crossover(nu):
    # The series serves x_c and the trapezoidal rule the next double; K
    # itself moves by ~1e-17 there.  Each side may err by its own accuracy:
    # the series by the bound it reports at x_c, the rule by 4e-16 e^{-x}
    # (bessel_k_imag's documented accuracy).
    x = np.array([_KSERIES_X, np.nextafter(_KSERIES_X, math.inf)])
    err = np.empty(2)
    below, above = _k_imag_outer(nu, x, err=err)
    assert abs(below - above) <= err[0] + 4e-16 * math.exp(-x[1])


def test_bessel_j0_matches_scipy():
    from scipy.special import j0

    xs = RNG.uniform(0.0, 50.0, size=100)
    assert np.allclose(bessel_j0(xs), j0(xs), rtol=1e-14, atol=1e-300)


def test_lambda_reference_values():
    for q, dxi, dxbar, want in LAMBDA_REFERENCE:
        got = lambda_overlap(q, dxi, dxbar)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (q, dxi, dxbar)


def _lambda_scale(dxi, dxbar):
    """alpha and Lambda without its sinc, (alpha / sinh alpha) / sqrt(cosh dxi)."""
    with mp.workdps(40):
        dxi, dxbar = mp.mpf(dxi), mp.mpf(dxbar)
        d = 2 * mp.sinh(dxi / 2) ** 2 + dxbar**2 / (2 * mp.cosh(dxi))
        alpha = mp.log1p(d + mp.sqrt(d * (d + 2)))
        ratio = alpha / mp.sinh(alpha) if alpha else mp.mpf(1)
        return alpha, ratio / mp.sqrt(mp.cosh(dxi))


def _lambda_envelope(q, dxi, dxbar):
    """Amplitude of the oscillation in Lambda: |sinc(q alpha)| <= min(1, 1/(q alpha))."""
    alpha, scale = _lambda_scale(dxi, dxbar)
    with mp.workdps(40):
        return scale if q * alpha <= 1 else scale / (q * alpha)


_separation = st.one_of(st.just(0.0), st.floats(-8.0, 1.3).map(lambda e: 10.0**e))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    q=st.one_of(st.floats(0.0, 1e6), st.floats(-3.0, 6.0).map(lambda e: 10.0**e)),
    dxi=st.tuples(st.sampled_from((-1.0, 1.0)), _separation).map(lambda p: p[0] * p[1]),
    dxbar=_separation,
)
def test_lambda_matches_mpmath_within_its_rounding_bound(q, dxi, dxbar):
    # Rounding bound, to first order in u = eps/2, with every operation
    # correctly rounded and sinh, cosh, log1p, exp, expm1 and sin within
    # 1 ulp (2u; numpy's own accuracy tests hold float64 to that):
    #   d = 2 sinh^2(dxi/2) + dxbar^2/(2 cosh dxi), a sum of nonnegative
    #     terms: 5u and 4u, plus u for the sum: 6u;
    #   w = d + sqrt(d (d + 2)): 7u, 14u, 8u, then 9u;
    #   alpha = log1p(w): relative 9u + 2u = 11u, since log1p's condition
    #     number w / ((1 + w) log1p w) is at most 1; absolutely
    #     9u + 2u alpha, so the error Dalpha <= min(11 alpha, 9 + 2 alpha) u;
    #   the phase q alpha and np.sinc's x / pi and pi y add 3u, so sin's
    #     argument is off by 14u relative, and sinc(x) by at most
    #     sup|x sinc'(x)| 14u = 1.064 * 14u <= 15u absolutely;
    #   sin and the quotient: 3u of |sinc|; alpha / sinh alpha: Dalpha
    #     (|d log(alpha / sinh alpha) / d alpha| <= 1) plus 6u of rounding;
    #     sqrt(cosh dxi): 2u; the two products: 2u.
    # So |error| <= (15u + |sinc| (13u + Dalpha)) S with S = (alpha / sinh
    # alpha) / sqrt(cosh dxi), and |sinc| <= 1 gives (14 + min(5.5 alpha,
    # 4.5 + alpha)) eps S.  S is _lambda_envelope times max(1, q alpha):
    # past q alpha = 1 the phase's own rounding, q alpha u, sets the error,
    # not the envelope's 1/(q alpha).
    got = lambda_overlap(q, dxi, dxbar)
    want = lam(q, dxi, dxbar)
    alpha, scale = _lambda_scale(dxi, dxbar)
    with mp.workdps(40):
        bound = (14 + min(5.5 * alpha, 4.5 + alpha)) * np.finfo(float).eps * scale
        assert abs(mp.mpf(got) - want) <= bound, (q, dxi, dxbar, float(abs(mp.mpf(got) - want) / bound))


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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: planck_weight(math.inf, 1.0), "omega must be finite", id="planck-omega-inf"),
        pytest.param(lambda: planck_weight([1.0, math.nan], 1.0), "omega must be finite", id="planck-omega-nan"),
        pytest.param(lambda: planck_weight(-1.0, 1.0), "planck_weight requires omega >= 0", id="planck-omega-negative"),
        pytest.param(lambda: planck_weight(1.0, 0.0), "planck_weight requires z > 0", id="planck-z-zero"),
        pytest.param(lambda: bessel_k_imag(1.0, 0.0), "bessel_k_imag requires x > 0", id="k-imag-x-zero"),
        pytest.param(lambda: bessel_k_imag(1.0, [1.0, -2.0]), "bessel_k_imag requires x > 0", id="k-imag-x-negative"),
        pytest.param(lambda: lambda_axis_xi(-1.0, 0.5), "lambda_axis_xi requires q >= 0", id="axis-xi-q"),
        pytest.param(lambda: lambda_axis_xbar(-1.0, 0.5), "lambda_axis_xbar requires q >= 0", id="axis-xbar-q"),
        pytest.param(lambda: lambda_axis_xbar(1.0, -0.5), "lambda_axis_xbar requires dxbar >= 0", id="axis-xbar-dxbar"),
    ],
)
def test_special_functions_refuse_inputs_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lambda_is_zero_where_q_alpha_overflows():
    # |Lambda| <= 1/(q alpha) is below the smallest normal double once
    # q alpha passes 1/2.2e-308, and q alpha overflows at q = 1e308 here.
    assert lambda_overlap(1e308, 1.0, 2.0) == 0.0
    assert lambda_axis_xi(1e308, -3.0) == 0.0
    assert lambda_axis_xbar(1e308, 5.0) == 0.0
    assert lambda_overlap(1e308, 0.0, 0.0) == 1.0
    assert lambda_axis_xbar(1e308, 0.0) == 1.0
    grid = lambda_overlap(np.array([1e308, 1.0]), 1.0, 2.0)
    assert grid[0] == 0.0 and grid[1] == lambda_overlap(1.0, 1.0, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lambda_is_zero_where_cosh_dxi_overflows():
    # cosh(dxi) overflows above |dxi| ~ 710.5, where Lambda <= 2 alpha
    # e^(-alpha) sqrt(2) e^(-|dxi|/2) with alpha >= |dxi| is far below the
    # smallest subnormal double, as mpmath confirms.
    for q, dxi, dxbar in ((1.0, 800.0, 0.0), (0.0, -711.0, 0.0), (0.0, 711.0, 1e300), (2.0, -1e308, 1.0)):
        assert lambda_overlap(q, dxi, dxbar) == 0.0
        assert float(lam(q, dxi, dxbar)) == 0.0
    assert lambda_axis_xi(0.0, 1.7976931348623157e308) == 0.0
    assert lambda_axis_xi(1.0, -800.0) == 0.0
    grid = lambda_overlap(0.5, np.array([0.3, 800.0, -1e308]), 1.0)
    assert grid[0] == lambda_overlap(0.5, 0.3, 1.0) and grid[1] == grid[2] == 0.0


def test_lambda_normalization_and_bound():
    assert lambda_overlap(0.0, 0.0, 0.0) == 1.0
    assert lambda_overlap(7.3, 0.0, 0.0) == 1.0
    qs = RNG.uniform(0.0, 12.0, size=300)
    dxis = RNG.uniform(-3.0, 3.0, size=300)
    dxbars = RNG.uniform(0.0, 5.0, size=300)
    values = lambda_overlap(qs, dxis, dxbars)
    assert np.all(np.abs(values) <= 1.0 + 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    q=st.floats(min_value=0.0, max_value=1e308),
    dxi=st.floats(allow_nan=False, allow_infinity=False),
    dxbar=st.floats(min_value=0.0, allow_infinity=True),
)
def test_lambda_is_finite_and_bounded_everywhere(q, dxi, dxbar):
    # Every legal argument, up to q = 1e308, |dxi| = 1.8e308 and
    # dxbar = inf, gives a finite overlap factor of at most 1 in magnitude:
    # the state stays physical.
    value = lambda_overlap(q, dxi, dxbar)
    assert math.isfinite(value)
    assert abs(value) <= 1.0


# Separations at the edges of the overlap's branches: alpha below 1e-6
# (its series), alpha in log form (dxbar ~ 1e200), cosh(dxi) past the
# float range (|dxi| >= 711) and dxbar = 0 or inf.
_EDGE_GEOMETRY = [(dxi, dxbar) for dxi in (0.0, 1e-9, -0.4, 711.0, -1e3) for dxbar in (0.0, 1e-9, 1.3, 1e200, math.inf)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    geometry=st.lists(
        st.tuples(
            st.one_of(st.sampled_from((0.0, 1e-9, 711.0, -1e3)), st.floats(allow_nan=False, allow_infinity=False)),
            st.one_of(st.sampled_from((0.0, 1e-9, 1e200, math.inf)), st.floats(min_value=0.0, allow_infinity=True)),
        ),
        min_size=1, max_size=6, unique=True,
    ),
    data=st.data(),
)
@example(geometry=_EDGE_GEOMETRY, data=None)
def test_lambda_split_gathered_per_geometry_equals_lambda_bit_for_bit(geometry, data):
    # joint_state takes Lambda's geometry once per distinct branch pair and
    # gathers it into the per-pair phase: every value must be lambda_overlap's.
    qs = st.one_of(st.sampled_from((0.0, 1e308)), st.floats(min_value=0.0, max_value=1e308))
    if data is None:  # the edge grid: each geometry at q = 0, 1.5 and 1e308
        picks = [(k, q) for k in range(len(geometry)) for q in (0.0, 1.5, 1e308)]
    else:
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(geometry) - 1), qs), min_size=1, max_size=20))
    index = np.array([k for k, _ in picks])
    q = np.array([q for _, q in picks])
    dxi, dxbar = np.array(geometry).T
    parts = _overlap_geometry(dxi, dxbar)
    split = _overlap_of_geometry(q, *(part[index] for part in parts))
    whole = lambda_overlap(q, dxi[index], dxbar[index])
    assert np.array_equal(split.view(np.uint64), whole.view(np.uint64))


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


def test_planck_weight_where_the_exponent_is_subnormal_or_zero():
    # 2 pi omega z is subnormal at 1e-160 x 1e-160 and underflows to 0 at
    # 1e-200 x 1e-200; the weight is then its limit 1/(2 pi z).  Frozen
    # from omega/expm1(2 pi omega z) in mpmath at 40 digits.
    assert planck_weight(1e-160, 1e-160) == pytest.approx(1.591549430918953375774175e159, rel=1e-15)
    assert planck_weight(1e-200, 1e-200) == pytest.approx(1.591549430918953386177155e199, rel=1e-15)


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


def test_kronrod_rule_embeds_the_16_point_gauss_rule_with_positive_weights():
    # the Gauss nodes and weights are leggauss(16)'s, bit for bit, at every
    # other node; the 17 Kronrod nodes interlace them
    nodes, weights, gauss = _kronrod_rule()
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
    assert nodes.shape == weights.shape == gauss.shape == (33,)
    assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes[1::2], gl_nodes)
    assert np.array_equal(gauss[1::2], gl_weights) and np.all(gauss[0::2] == 0.0)
    assert np.all(weights > 0.0)


def test_kronrod_rule_integrates_every_legendre_polynomial_to_degree_49():
    # The 33-point rule is exact to degree 3 * 16 + 1 = 49: sum_j w_j P_k(x_j)
    # is 2 at k = 0 and 0 up to k = 49, within the rounding of P_k's
    # three-term recurrence (about k eps, |P_k| <= 1) and of the 33-term sum
    # (the weights sum to 2).  At degree 50 it is not exact.
    nodes, weights, _ = _kronrod_rule()
    sums = weights @ np.polynomial.legendre.legvander(nodes, 50)
    degree = np.arange(50)
    eps = np.finfo(float).eps
    assert np.all(np.abs(sums[:50] - np.where(degree == 0, 2.0, 0.0)) <= 2.0 * (degree + 33) * eps)
    assert abs(sums[50]) > 1e-6


def test_kronrod_nodes_are_the_roots_of_the_stieltjes_polynomial():
    # against mpmath at 40 digits, from 1/Q_16 (tests/oracles.py), not from
    # the orthogonality the package solves; each node within 2 eps
    nodes = _kronrod_rule()[0][0::2]
    want = np.array([float(root) for root in stieltjes_roots(16)])
    assert np.all(np.abs(nodes - want) <= 2.0 * np.finfo(float).eps)

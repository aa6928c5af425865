"""Continuous-spectrum kernels: the delta-weight coefficient, the joint
integrand, spectrum slices, and the distributional bookkeeping checks.

Frozen literals are mpmath assemblies at 40 digits (``tests/oracles.py``).
"""

import math
import re

import numpy as np
import pytest

from superthermal.continuum import (
    CouplingFunction,
    SmearedAmplitude,
    continuum_joint_kernel,
    continuum_offdiag_coefficient,
    continuum_spectrum_slice,
)
from superthermal.geometry import Trajectory
from superthermal.overlaps import oracle_overlap_finite_t
from superthermal.specfun import planck_weight

RNG = np.random.default_rng(31415)

# (omega=1, x=(0,0,1), x'=(0,0,0.5)): delta weight and partner frequency
COEFF_REFERENCE = 0.001271781220035458040846
# kernel at q=1, x=(0.3,0,1), x'=(0,0.5,0.5) with A(x)=0.2+0.1j,
# A(x')=0.3-0.05j, zeta(1)=0.9, zeta(2)=0.7+0.1j
KERNEL_REFERENCE = 0.00003980979382397590933919 + 0.00002107577320092842259134j
# transverse |A|^2 sum 0.75, dxdy=0.01, z=0.5, omega=2, zeta=0.8
SLICE_REFERENCE = 0.00001433079769259860594346


def _uniform_amplitude():
    # 2 x 1 x 2 grid of equal weights, normalized with explicit spacings
    value = 1.0 / math.sqrt(2.0)
    values = np.full((2, 1, 2), value, dtype=complex)
    return SmearedAmplitude(
        x=np.array([-0.5, 0.5]),
        y=np.array([0.0]),
        z=np.array([0.5, 1.0]),
        values=values,
        spacings=(1.0, 1.0, 0.5),
    )


def _flat_coupling(lo=0.05, hi=60.0, value=1.0):
    return CouplingFunction(
        omega=np.array([lo, hi]), values=np.array([value, value], dtype=complex)
    )


def test_smeared_amplitude_validation():
    good = _uniform_amplitude()
    assert good.cell_volume == pytest.approx(0.5)
    assert good.value_at((-0.5, 0.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0))
    with pytest.raises(ValueError):
        SmearedAmplitude(
            x=np.array([0.0]),
            y=np.array([0.0]),
            z=np.array([1.0]),
            values=np.ones((1, 1, 1), dtype=complex),
        )  # singleton axes need explicit spacings
    with pytest.raises(ValueError):
        SmearedAmplitude(
            x=np.array([0.0, 1.0]),
            y=np.array([0.0]),
            z=np.array([-1.0, 1.0]),
            values=np.ones((2, 1, 2), dtype=complex),
            spacings=(1.0, 1.0, 2.0),
        )  # z must stay positive
    with pytest.raises(ValueError):
        SmearedAmplitude(
            x=np.array([-0.5, 0.5]),
            y=np.array([0.0]),
            z=np.array([0.5, 1.0]),
            values=np.full((2, 1, 2), 5.0, dtype=complex),
            spacings=(1.0, 1.0, 0.5),
        )  # normalization violated


def test_coupling_function_interpolation_and_domain():
    zeta = CouplingFunction(
        omega=np.array([1.0, 2.0, 4.0]),
        values=np.array([0.9, 0.7 + 0.1j, 0.5j]),
    )
    assert zeta(1.0) == 0.9 + 0j
    assert zeta(2.0) == 0.7 + 0.1j
    assert zeta(1.5) == pytest.approx(0.8 + 0.05j)
    with pytest.raises(ValueError):
        zeta(0.5)
    with pytest.raises(ValueError):
        zeta(5.0)
    with pytest.raises(ValueError):
        CouplingFunction(omega=np.array([1.0]), values=np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        CouplingFunction(
            omega=np.array([1.0, 2.0]), values=np.array([1.0, 1.2 + 0j])
        )  # |zeta| > 1


def test_offdiag_coefficient_reference_and_partner():
    coeff, partner = continuum_offdiag_coefficient(1.0, (0.0, 0.0, 1.0), (0.0, 0.0, 0.5))
    assert partner == pytest.approx(2.0, rel=1e-15)
    assert coeff == pytest.approx(COEFF_REFERENCE, rel=1e-13)


def test_offdiag_coefficient_coincident_points():
    for omega, z in [(1.0, 1.0), (2.5, 0.6)]:
        coeff, partner = continuum_offdiag_coefficient(
            omega, (0.2, -0.1, z), (0.2, -0.1, z)
        )
        q = omega * z
        want = (1.0 / (z * math.sqrt(2.0 * math.pi))) * q / math.expm1(2.0 * math.pi * q)
        assert partner == omega
        assert coeff == pytest.approx(want, rel=1e-14)


def test_offdiag_coefficient_transverse_decay():
    base, _ = continuum_offdiag_coefficient(1.0, (0.0, 0.0, 1.0), (0.0, 0.0, 0.5))
    far, _ = continuum_offdiag_coefficient(1.0, (100.0, 0.0, 1.0), (0.0, 0.0, 0.5))
    assert abs(far) < 1e-3 * abs(base)


def test_joint_kernel_reference_value():
    # grid holding the two probe points with the stated values; the
    # remaining cells absorb normalization
    x = np.array([0.0, 0.3])
    y = np.array([0.0, 0.5])
    z = np.array([0.5, 1.0])
    spacings = (0.3, 0.5, 0.5)
    values = np.zeros((2, 2, 2), dtype=complex)
    values[1, 0, 1] = 0.2 + 0.1j  # A at (0.3, 0, 1)
    values[0, 1, 0] = 0.3 - 0.05j  # A at (0, 0.5, 0.5)
    cell = spacings[0] * spacings[1] * spacings[2]
    remaining = 1.0 / cell - (abs(values[1, 0, 1]) ** 2 + abs(values[0, 1, 0]) ** 2)
    fill = math.sqrt(remaining / 6.0)
    for idx in np.ndindex(2, 2, 2):
        if values[idx] == 0:
            values[idx] = fill
    amp = SmearedAmplitude(x=x, y=y, z=z, values=values, spacings=spacings)
    zeta = CouplingFunction(
        omega=np.array([1.0, 2.0]), values=np.array([0.9, 0.7 + 0.1j])
    )
    got = continuum_joint_kernel(1.0, (0.3, 0.0, 1.0), (0.0, 0.5, 0.5), amp, zeta)
    assert got == pytest.approx(KERNEL_REFERENCE, rel=1e-13)
    # Hermitian partner
    swapped = continuum_joint_kernel(1.0, (0.0, 0.5, 0.5), (0.3, 0.0, 1.0), amp, zeta)
    assert swapped == pytest.approx(np.conj(got), rel=1e-13)


def test_joint_kernel_hermitian_on_random_pairs():
    amp = _uniform_amplitude()
    zeta = CouplingFunction(
        omega=np.array([0.05, 1.0, 10.0, 60.0]),
        values=np.array([0.95, 0.8 + 0.1j, 0.6 - 0.2j, 0.3]),
    )
    points = [
        (float(x), float(y), float(z))
        for x in amp.x
        for y in amp.y
        for z in amp.z
    ]
    for _ in range(20):
        i, j = RNG.integers(0, len(points), size=2)
        q = float(RNG.uniform(0.3, 3.0))
        a = continuum_joint_kernel(q, points[i], points[j], amp, zeta)
        b = continuum_joint_kernel(q, points[j], points[i], amp, zeta)
        assert a == pytest.approx(np.conj(b), rel=1e-12, abs=1e-300)


def test_joint_kernel_diagonal_real_positive():
    amp = _uniform_amplitude()
    zeta = _flat_coupling()
    for point in [(-0.5, 0.0, 0.5), (0.5, 0.0, 1.0)]:
        value = continuum_joint_kernel(1.3, point, point, amp, zeta)
        assert value.imag == 0.0
        assert value.real > 0.0


def test_joint_kernel_is_zero_where_cosh_dxi_overflows():
    # z'/z = 1e310, so cosh(dxi) overflows and Lambda is 0, its limit
    amp = SmearedAmplitude(
        x=np.array([0.0]),
        y=np.array([0.0]),
        z=np.array([1e-10, 1e300]),
        values=np.full((1, 1, 2), math.sqrt(0.5e-300), dtype=complex),
        spacings=(1.0, 1.0, None),
    )
    zeta = CouplingFunction(omega=np.array([0.0, 1.0]), values=np.array([1.0, 1.0], dtype=complex))
    low, high = (0.0, 0.0, 1e-10), (0.0, 0.0, 1e300)
    assert continuum_joint_kernel(1e-20, low, high, amp, zeta) == 0.0
    assert continuum_offdiag_coefficient(1e-10, low, high)[0] == 0.0


def _amplitude(x=(-0.5, 0.5), values=None, spacings=(1.0, 1.0, 0.5)):
    """:func:`_uniform_amplitude` with one of its inputs replaced."""
    values = np.full((len(x), 1, 2), 1.0 / math.sqrt(len(x)), dtype=complex) if values is None else values
    return SmearedAmplitude(x=np.array(x), y=np.array([0.0]), z=np.array([0.5, 1.0]), values=values, spacings=spacings)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: CouplingFunction(omega=np.array([1.0, 1.0]), values=np.array([1.0, 1.0])),
                     "coupling grid must be strictly increasing", id="coupling-not-increasing"),
        pytest.param(lambda: CouplingFunction(omega=np.array([1.0, 2.0, 3.0]), values=np.array([1.0, 1.0])),
                     "coupling grid and values differ in length", id="coupling-length"),
        # the bound |zeta| <= 1 is DetectorSpec's, which refuses NaN too
        pytest.param(lambda: CouplingFunction(omega=np.array([0.5, 2.0]), values=np.array([math.nan, 1.0])),
                     "couplings must satisfy |zeta| <= 1", id="coupling-nan-sample"),
        pytest.param(lambda: CouplingFunction(omega=np.array([0.5, 2.0]), values=np.array([complex(1.0, math.nan), 1.0])),
                     "couplings must satisfy |zeta| <= 1", id="coupling-nan-imaginary-part"),
        pytest.param(lambda: CouplingFunction(omega=np.array([0.05, math.inf]), values=np.array([1.0, 0.5])),
                     "coupling grid must be finite", id="coupling-infinite-omega"),
        pytest.param(lambda: CouplingFunction(omega=np.array([math.nan, 1.0]), values=np.array([1.0, 0.5])),
                     "coupling grid must be finite", id="coupling-nan-omega"),
        pytest.param(lambda: _amplitude(x=(-0.5, 0.5, 2.0)), "x axis must be uniformly increasing",
                     id="amplitude-non-uniform-axis"),
        pytest.param(lambda: _amplitude(values=np.full((2, 2, 1), 0.5, dtype=complex)),
                     "values shape (2, 2, 1) != grid shape (2, 1, 2)", id="amplitude-value-shape"),
        pytest.param(lambda: _amplitude(spacings=(1.0, 0.0, 0.5)), "y spacing must be positive",
                     id="amplitude-singleton-spacing"),
        pytest.param(lambda: continuum_joint_kernel(0.0, (-0.5, 0.0, 1.0), (-0.5, 0.0, 1.0),
                                                    _uniform_amplitude(), _flat_coupling()),
                     "q must be positive", id="joint-kernel-q"),
    ],
)
def test_continuum_inputs_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_joint_kernel_coupling_domain_error():
    amp = _uniform_amplitude()
    zeta = CouplingFunction(
        omega=np.array([1.0, 2.0]), values=np.array([1.0 + 0j, 1.0 + 0j])
    )
    # q/z' = 4 falls outside [1, 2]
    with pytest.raises(ValueError):
        continuum_joint_kernel(2.0, (-0.5, 0.0, 1.0), (-0.5, 0.0, 0.5), amp, zeta)


def _two_slab_amplitude():
    # transverse |A|^2 sum 0.75 at z=0.5 (two x-cells), bulk weight at z=1
    x = np.array([0.0, 0.1])
    y = np.array([0.0])
    z = np.array([0.5, 1.0])
    spacings = (0.1, 0.1, 0.5)
    values = np.zeros((2, 1, 2), dtype=complex)
    values[0, 0, 0] = math.sqrt(0.5)
    values[1, 0, 0] = 0.5  # |A|^2 sum at z=0.5: 0.5 + 0.25 = 0.75
    cell = spacings[0] * spacings[1] * spacings[2]
    rest = 1.0 / cell - 0.75
    values[0, 0, 1] = math.sqrt(rest / 2.0)
    values[1, 0, 1] = math.sqrt(rest / 2.0)
    return SmearedAmplitude(x=x, y=y, z=z, values=values, spacings=spacings)


def test_spectrum_slice_reference_value():
    amp = _two_slab_amplitude()
    zeta = _flat_coupling(value=0.8)
    got = continuum_spectrum_slice(amp, zeta, 0.5, np.array([2.0]))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(SLICE_REFERENCE, rel=1e-13)


def test_spectrum_slice_planck_ratio():
    amp = _uniform_amplitude()
    zeta = _flat_coupling()
    omega = np.array([0.8, 1.6])
    slice_values = continuum_spectrum_slice(amp, zeta, 1.0, omega)
    want = planck_weight(0.8, 1.0) / planck_weight(1.6, 1.0)
    assert slice_values[0] / slice_values[1] == pytest.approx(want, rel=1e-13)
    # monotone thermal-tail decay beyond omega z ~ 1
    tail = continuum_spectrum_slice(amp, zeta, 1.0, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.all(np.diff(tail) < 0)


def test_spectrum_slice_scales_with_transverse_weight():
    amp = _two_slab_amplitude()
    zeta = _flat_coupling()
    at_lower = continuum_spectrum_slice(amp, zeta, 0.5, np.array([2.0]))[0]
    at_upper = continuum_spectrum_slice(amp, zeta, 1.0, np.array([1.0]))[0]
    # same q = 1 at both heights; ratio reduces to weights and the Tolman factor
    weight_lower = 0.75
    weight_upper = float(
        np.sum(np.abs(amp.values[:, :, 1]) ** 2)
    )
    want = (weight_lower / weight_upper) * (2.0 / 1.0) * (2.0 / 1.0)
    assert at_lower / at_upper == pytest.approx(want, rel=1e-13)


def test_spectrum_slice_scale_freedom():
    amp = _two_slab_amplitude()
    zeta = _flat_coupling()
    omega = np.array([1.0, 2.0, 3.0])
    base = continuum_spectrum_slice(amp, zeta, 0.5, omega)
    doubled = SmearedAmplitude(
        x=2.0 * amp.x,
        y=2.0 * amp.y,
        z=2.0 * amp.z,
        values=amp.values / math.sqrt(8.0),
        spacings=tuple(2.0 * s for s in amp.spacings),
    )
    zeta_half = CouplingFunction(omega=0.5 * zeta.omega, values=zeta.values)
    rescaled = continuum_spectrum_slice(doubled, zeta_half, 1.0, 0.5 * omega)
    # grids doubled, frequencies halved: values carry the exact constant
    # measure factor 8 and nothing else
    assert np.allclose(base, 8.0 * rescaled, rtol=1e-14, atol=0)


def test_spectrum_slice_requires_grid_height():
    amp = _uniform_amplitude()
    zeta = _flat_coupling()
    with pytest.raises(ValueError):
        continuum_spectrum_slice(amp, zeta, 0.75, np.array([1.0]))


def test_delta_weight_weak_limit():
    """Integrating the joint overlap against a narrow test function and
    refining the window reproduces coefficient x testfunction(partner).

    The finite-window overlap carries a Gaussian in the partner
    frequency; Gauss-Hermite nodes undo it exactly, and doubling the
    window plus Richardson extrapolation removes the leading 1/T^2
    error.
    """
    from numpy.polynomial.hermite_e import hermegauss

    omega = 1.0
    point = (0.3, 0.0, 1.0)
    point_p = (0.0, 0.0, 0.5)
    coeff, partner = continuum_offdiag_coefficient(omega, point, point_p)
    assert coeff == pytest.approx(0.0012039227811729723, rel=1e-12)
    assert partner == pytest.approx(2.0, rel=1e-15)

    def test_function(w):
        return math.exp(-(((w - 2.1) / 0.3) ** 2) / 2.0)

    target = coeff * test_function(partner)
    traj_m = Trajectory(z=point[2], x_perp=(point[0], point[1]))
    traj_n = Trajectory(z=point_p[2], x_perp=(point_p[0], point_p[1]))
    nodes, weights = hermegauss(16)

    def integrated(T):
        z, zp = point[2], point_p[2]
        sigma = math.sqrt(z * z + zp * zp) / (math.sqrt(2.0) * zp * T)
        total = 0.0
        for t, w in zip(nodes, weights):
            wp = partner + sigma * t
            if wp <= 0.0:
                continue
            overlap = oracle_overlap_finite_t(wp, traj_n, omega, traj_m, T)
            suppression = (omega * z - wp * zp) ** 2 * T * T / (z * z + zp * zp)
            total += w * math.exp(suppression) * overlap.real * test_function(wp)
        return sigma * total

    coarse = integrated(50.0)
    fine = integrated(100.0)
    extrapolated = (4.0 * fine - coarse) / 3.0
    assert abs(extrapolated - target) <= 1e-6
    assert abs(extrapolated - target) / target <= 1e-4


def test_discrete_limit_matches_branch_ratio():
    """Narrow Gaussian frequency packets riding on two delta-like cells
    reproduce the two-branch off-diagonal to diagonal ratio, converging
    quadratically as the packet width shrinks."""
    from superthermal.detector import DetectorSpec, joint_state
    from superthermal.geometry import TrajectorySet

    h = 1e-3
    amp = SmearedAmplitude(
        x=np.array([0.0]),
        y=np.array([0.0]),
        z=np.array([0.5, 1.0]),
        values=np.full((1, 1, 2), 1.0 / math.sqrt(2.0 * h * h * 0.5), dtype=complex),
        spacings=(h, h, None),
    )
    zeta = CouplingFunction(
        omega=np.linspace(0.01, 60.0, 1200), values=np.ones(1200, dtype=complex)
    )

    weight = 1.0 / math.sqrt(2.0)
    ts = TrajectorySet(
        (Trajectory(z=0.5, amplitude=weight), Trajectory(z=1.0, amplitude=weight))
    )
    det = DetectorSpec(frequencies=(1.0, 2.0))
    state = joint_state(det, ts, tol=1e-9)
    # flat index level * 2 + trajectory: (w=1, z=1) -> 1, (w=2, z=0.5) -> 2
    discrete_ratio = (state.excited_block[1, 2] / state.excited_block[1, 1]).real

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)

    def panel_quad(f, lo, hi, n_panels):
        edges = np.linspace(lo, hi, n_panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        t = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
        w = (half[:, None] * gl_weights[None, :]).ravel()
        return float(np.dot(w, f(t)))

    def phi(v):
        return math.pi**-0.25 * np.exp(-v * v / 2.0)

    pm = (0.0, 0.0, 1.0)  # packet center omega = 1 rides the z=1 cell
    pn = (0.0, 0.0, 0.5)  # packet center omega = 2 rides the z=0.5 cell
    q0 = 1.0

    def continuum_ratio(delta):
        def f_off(qs):
            return np.array(
                [
                    (
                        continuum_joint_kernel(q, pm, pn, amp, zeta)
                        * phi((q / 1.0 - 1.0) / delta)
                        / math.sqrt(delta)
                        * phi((q / 0.5 - 2.0) / delta)
                        / math.sqrt(delta)
                    ).real
                    for q in qs
                ]
            )

        def f_diag(qs):
            return np.array(
                [
                    (
                        continuum_joint_kernel(q, pm, pm, amp, zeta)
                        * (phi((q / 1.0 - 1.0) / delta) / math.sqrt(delta)) ** 2
                    ).real
                    for q in qs
                ]
            )

        lo, hi = q0 - 12.0 * delta, q0 + 12.0 * delta
        return panel_quad(f_off, lo, hi, 8) / panel_quad(f_diag, lo, hi, 8)

    errors = [
        abs(continuum_ratio(delta) / discrete_ratio - 1.0)
        for delta in (0.05, 0.025, 0.0125)
    ]
    assert errors[0] < 0.011
    assert errors[1] < errors[0] / 3.0
    assert errors[2] < errors[1] / 3.0
    assert errors[2] < 1e-3


def test_offdiag_coefficient_validation():
    with pytest.raises(ValueError):
        continuum_offdiag_coefficient(0.0, (0.0, 0.0, 1.0), (0.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        continuum_offdiag_coefficient(1.0, (0.0, 0.0, -1.0), (0.0, 0.0, 0.5))

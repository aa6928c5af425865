"""Coordinate maps, trajectory containers, and alignment variables."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superthermal.geometry import (
    MU,
    RegimeReport,
    Trajectory,
    TrajectorySet,
    WedgeError,
    branch_separations,
    coherence_condition,
    delta_xbar,
    delta_xi,
    minkowski_to_rindler,
    rindler_to_minkowski,
    validate_regime,
)
from superthermal.detector import DetectorSpec

RNG = np.random.default_rng(20260822)

# log(1/(2 pi) + 1)/(2 pi) at 40 digits (mpmath).
MU_REFERENCE = 0.02350579126351908266578


def test_thermal_floor_constant():
    assert MU == pytest.approx(MU_REFERENCE, rel=1e-15)


def test_round_trip_rindler_minkowski():
    for _ in range(200):
        t = float(RNG.uniform(-1.5, 1.5))
        x = float(RNG.uniform(-2, 2))
        y = float(RNG.uniform(-2, 2))
        z = float(RNG.uniform(0.05, 5))
        T, X, Y, Z = rindler_to_minkowski(t, x, y, z)
        assert Z > abs(T)
        assert Z * Z - T * T == pytest.approx(z * z, rel=1e-12)
        t2, x2, y2, z2 = minkowski_to_rindler(T, X, Y, Z)
        assert t2 == pytest.approx(t, rel=1e-9, abs=1e-9)
        assert (x2, y2) == (x, y)
        assert z2 == pytest.approx(z, rel=1e-12)


def test_origin_of_rindler_time_is_on_the_z_axis():
    T, X, Y, Z = rindler_to_minkowski(0.0, 0.25, -0.5, 2.0)
    assert (T, X, Y, Z) == (0.0, 0.25, -0.5, 2.0)


def test_wedge_violations_rejected():
    with pytest.raises(WedgeError):
        minkowski_to_rindler(2.0, 0.0, 0.0, 1.0)
    with pytest.raises(WedgeError):
        minkowski_to_rindler(-1.0, 0.0, 0.0, 1.0)
    with pytest.raises(WedgeError):
        minkowski_to_rindler(1.0, 0.0, 0.0, 1.0)  # null boundary excluded


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(z=0.0)
    with pytest.raises(ValueError):
        Trajectory(z=-1.0)
    traj = Trajectory(z=0.5, x_perp=(0.3, -0.2), amplitude=0.6 + 0.8j)
    assert traj.acceleration == pytest.approx(2.0)
    assert traj.position_key() == (0.5, 0.3, -0.2)


@pytest.mark.parametrize("field", ["z", "x_perp", "amplitude"])
@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["str", "bool", "None"])
def test_trajectory_refuses_text_bools_and_none_naming_the_field(field, bad):
    # the constructor keeps the readers' rule: a number is not a string, a
    # bool or None; numbers of any numeric type still convert
    value = (bad, 0.0) if field == "x_perp" else bad
    with pytest.raises(ValueError, match=f"^{field}: could not convert {type(bad).__name__} to a number$"):
        Trajectory(**{"z": 1.0, field: value})
    with pytest.raises(ValueError, match="x_perp must be a pair"):
        Trajectory(z=1.0, x_perp=bad)
    traj = Trajectory(z=np.int64(2), x_perp=[np.float32(0.5), 1], amplitude=np.complex64(1.0))
    assert traj == Trajectory(z=2.0, x_perp=(0.5, 1.0), amplitude=1.0 + 0j)
    assert type(traj.z) is float


def test_trajectory_set_sorts_and_normalizes():
    a = 1.0 / math.sqrt(2.0)
    ts = TrajectorySet(
        (
            Trajectory(z=1.5, amplitude=a),
            Trajectory(z=0.5, amplitude=a),
        )
    )
    assert ts.heights == (0.5, 1.5)
    assert len(ts) == 2
    with pytest.raises(ValueError):
        TrajectorySet((Trajectory(z=1.0, amplitude=1.0), Trajectory(z=2.0, amplitude=1.0)))
    with pytest.raises(ValueError):
        TrajectorySet(
            (
                Trajectory(z=1.0, amplitude=a),
                Trajectory(z=1.0, amplitude=a),  # duplicate position
            )
        )


def test_alignment_variables():
    m = Trajectory(z=1.0, x_perp=(0.3, 0.4))
    n = Trajectory(z=0.5)
    assert delta_xi(m, n) == pytest.approx(math.log(2.0), rel=1e-15)
    assert delta_xi(n, m) == pytest.approx(-math.log(2.0), rel=1e-15)
    # |dx| = 0.5; sqrt((1 + 4)/2) = sqrt(2.5)
    assert delta_xbar(m, n) == pytest.approx(0.5 * math.sqrt(2.5), rel=1e-15)
    assert delta_xbar(n, m) == delta_xbar(m, n)


# Heights whose squares, reciprocal squares and ratios under- or
# overflow, and offsets whose differences overflow.
_EDGE_HEIGHTS = (5e-324, 1e-200, 1e-160, 2e-160, 0.5, 1.0, 1e149, 1e200, 1.7976931348623157e308)
_EDGE_OFFSETS = (0.0, -0.0, 1.0, -1e308, 1e308, 1e-300)


@st.composite
def _trajectory_sets(draw):
    positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_infinity=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    keys = draw(st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_EDGE_HEIGHTS), positive),
            st.one_of(st.sampled_from(_EDGE_OFFSETS), finite),
            st.one_of(st.sampled_from(_EDGE_OFFSETS), finite),
        ),
        min_size=1, max_size=6, unique=True,
    ))
    amp = 1.0 / math.sqrt(len(keys))
    return TrajectorySet(Trajectory(z=z, x_perp=(x, y), amplitude=amp) for z, x, y in keys)


@settings(max_examples=300, deadline=None)
@given(traj_set=_trajectory_sets())
@example(traj_set=TrajectorySet([Trajectory(z=1e-160, amplitude=0.6),
                                 Trajectory(z=1e149, x_perp=(1.0, 0.0), amplitude=0.8)]))
@example(traj_set=TrajectorySet([Trajectory(z=1.0, x_perp=(-1e308, 0.0), amplitude=0.6),
                                 Trajectory(z=1.0, x_perp=(1e308, 0.0), amplitude=0.8)]))
# heights whose z**2 (Python's pow) is not z * z
@example(traj_set=TrajectorySet([Trajectory(z=1.8765586949267836, amplitude=0.6),
                                 Trajectory(z=0.9058897421895353, x_perp=(1.0, 0.0), amplitude=0.8)]))
@example(traj_set=TrajectorySet([Trajectory(z=1e200, amplitude=0.6),
                                 Trajectory(z=1e200, x_perp=(1.0, -1e308), amplitude=0.8)]))
def test_branch_separations_are_the_scalar_functions_bit_for_bit(traj_set):
    n = len(traj_set)
    # every ordered pair, repeated to at least 32 pairs: fewer take the
    # scalar functions themselves
    codes = np.tile(np.arange(n * n), -(-32 // (n * n)))
    m_idx, n_idx = np.divmod(codes, n)
    # the CLI's floating-point state: an overflow in numpy raises
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        dxi, dxbar = branch_separations(traj_set, m_idx, n_idx)
    want_xi = [delta_xi(traj_set[a], traj_set[b]) for a, b in zip(m_idx, n_idx)]
    want_xbar = [delta_xbar(traj_set[a], traj_set[b]) for a, b in zip(m_idx, n_idx)]
    # equal bits: the same value, sign of zero and infinity
    assert dxi.tobytes() == np.array(want_xi).tobytes()
    assert dxbar.tobytes() == np.array(want_xbar).tobytes()


def test_coherence_condition():
    assert coherence_condition(2.0, 0.5, 1.0, 1.0, tol=1e-12)
    assert not coherence_condition(2.0, 0.5, 1.1, 1.0, tol=1e-12)
    assert coherence_condition(2.0, 0.5, 1.1, 1.0, tol=0.2)
    # symmetric under the simultaneous swap
    assert coherence_condition(1.0, 1.0, 2.0, 0.5, tol=1e-12)
    with pytest.raises(ValueError):
        coherence_condition(1.0, 1.0, 1.0, 1.0, tol=0.0)


def test_regime_report_flags():
    det = DetectorSpec(frequencies=(1.0, 2.0))
    ts = TrajectorySet((Trajectory(z=1.0, amplitude=1.0),))
    report = validate_regime(det, ts, epsilon=0.01)
    assert isinstance(report, RegimeReport)
    assert report.t_recommended == pytest.approx(100.0)
    assert report.ok

    short = validate_regime(det, ts, epsilon=0.01, T=0.5)
    assert not short.ok
    assert any("time-too-short" in v for v in short.violations)

    long = validate_regime(det, ts, epsilon=0.01, T=1e6)
    assert not long.ok
    assert any("time-too-long" in v for v in long.violations)

    # omega_1 * z below the thermal floor trips the acceleration warning
    hot = TrajectorySet((Trajectory(z=0.01, amplitude=1.0),))
    report = validate_regime(det, hot, epsilon=0.01)
    assert any("acceleration-too-high" in v for v in report.violations)

    # epsilon * omega_1 underflows to 0: the recommendation is infinite
    far = TrajectorySet((Trajectory(z=1e9, amplitude=1.0),))
    tiny = validate_regime(DetectorSpec(frequencies=(1e-10,)), far, epsilon=1e-320, T=1.0)
    assert tiny.t_recommended == math.inf
    assert [v.split(":")[0] for v in tiny.violations] == ["time-too-short"]

"""Serialization fidelity and command-line behavior.

JSON artifacts must round-trip doubles bit-exactly (17 significant
digits); CSV plot data carries 9.  The command-line driver must emit
byte-identical files for identical configurations, name the offending
field on configuration errors, and use exit codes 0/2/3 without ending
in a traceback.
"""

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superthermal
from superthermal import cli
from superthermal.cli import main
from superthermal.detector import (
    DetectorSpec,
    MeasurementBasisVector,
    joint_state,
    measured_internal,
    neglog_matrix,
)
from superthermal.geometry import MU, Trajectory, TrajectorySet
from superthermal.io import (
    block_density_from_dict,
    block_density_to_dict,
    complex_pair,
    csv_float,
    format_json,
    matrix_to_pairs,
    measured_from_dict,
    measured_to_dict,
    pair_to_complex,
    pairs_to_matrix,
    read_json,
    read_neglog_csv,
    write_csv,
    write_json,
    write_neglog_csv,
)
from superthermal.overlaps import QuadratureError

NEGLOG_11 = 3.079241539661914724446
NEGLOG_77 = 10.45795881443162827351
NEGLOG_8_12 = 34.22778635527267164831


def _two_branch_system():
    det = DetectorSpec(frequencies=(1.0, 2.0))
    amp = 1.0 / math.sqrt(2.0)
    ts = TrajectorySet(
        (Trajectory(z=0.5, amplitude=amp), Trajectory(z=1.0, amplitude=amp))
    )
    return det, ts


def _write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


def _lattice_tree():
    """Five levels on four heights whose boost energies omega z coincide
    across branches (1 x 1 = 2 x 0.5, ...), so that several shells hold
    more than one member; with offsets, amplitudes and a measurement."""
    return {
        "detector": {"frequencies": [1.0, 2.0, 3.0, 4.0, 6.0]},
        "trajectories": [
            {"z": 0.5, "x": 0.1, "A": [0.5, 0.1]},
            {"z": 1.0, "y": 0.3, "A": [0.4, -0.2]},
            {"z": 1.5, "A": [0.3, 0.0]},
            {"z": 2.0, "x": -0.7, "A": [0.6, 0.3]},
        ],
        "interaction": {"epsilon": 0.01, "T": 50.0},
        "measurement": {"amplitudes": [[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.4, 0.3]]},
    }


def _base_tree(**interaction):
    inter = {"epsilon": 0.01, "T": 50.0}
    inter.update(interaction)
    return {
        "detector": {"frequencies": [1.0, 2.0]},
        "trajectories": [{"z": 0.5}, {"z": 1.0}],
        "interaction": inter,
    }


# ---------------------------------------------------------------------------
# JSON / CSV primitives


def test_format_json_numbers_and_structure():
    assert format_json(0.1) == "0.10000000000000001"
    assert format_json(1.0) == "1.0"
    assert format_json(-0.0) == "-0.0"
    assert format_json(7) == "7"
    assert format_json(True) == "true"
    assert format_json(False) == "false"
    assert format_json(None) == "null"
    assert format_json("a\"b") == '"a\\"b"'
    assert format_json({}) == "{}"
    assert format_json([]) == "[]"
    assert format_json([1.0, 2.0]) == "[1.0, 2.0]"
    nested = format_json({"k": [1.0, 2.0]})
    assert nested == '{\n  "k": [1.0, 2.0]\n}'
    # integers stay integers, also beside floats; arrays become lists
    assert format_json({"members": [0, 3, 7]}) == '{\n  "members": [0, 3, 7]\n}'
    assert format_json([1, 2.5]) == "[1, 2.5]"
    assert format_json([[1.0], [2]]) == "[[1.0], [2]]"
    assert format_json([True, 1.0]) == "[true, 1.0]"
    assert format_json([np.float64(0.5), np.int64(3)]) == "[0.5, 3]"
    assert format_json(np.array([[1.0, -0.0]])) == "[[1.0, -0.0]]"
    # a short element with a newline still puts its list on many lines
    assert format_json([{"a": 1}, 2.0]) == '[\n  {\n    "a": 1\n  },\n  2.0\n]'
    for bad in (math.inf, -math.inf, math.nan):
        for obj in (bad, [0.5, bad], {"block": [[[0.5, 0.0]], [[0.0, bad]]]}):
            with pytest.raises(ValueError, match="finite"):
                format_json(obj)
    with pytest.raises(TypeError):
        format_json(1 + 2j)
    with pytest.raises(TypeError):
        format_json(object())


def test_json_file_round_trip_is_bit_exact(tmp_path):
    awkward = {
        "mu": MU,
        "third": 1.0 / 3.0,
        "tiny": 1e-300,
        "huge": 1.7976931348623157e308,
        "negzero": -0.0,
        "list": [0.1, 0.2, 0.30000000000000004],
        "nested": {"int": 12, "flag": True, "none": None},
    }
    path = tmp_path / "values.json"
    write_json(path, awkward)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    back = read_json(path)
    assert back["mu"] == MU
    assert back["third"] == 1.0 / 3.0
    assert back["tiny"] == 1e-300
    assert back["huge"] == 1.7976931348623157e308
    assert math.copysign(1.0, back["negzero"]) == -1.0
    assert back["list"] == awkward["list"]
    assert back["nested"] == awkward["nested"]


def test_csv_float_format_and_nan():
    assert csv_float(1.5) == "1.5"
    assert csv_float(1.0 / 3.0) == "0.333333333"
    assert csv_float(-2.5e-7) == "-2.5e-07"
    with pytest.raises(ValueError):
        csv_float(math.nan)


# Reference renderers: each artifact format as specified, one number at a
# time.  The writers must produce exactly their bytes.


def _reference_json(obj, indent=0):
    """%.17g floats with ".0" where that prints neither "." nor "e"; a list
    inline when every element is at most 24 characters without a newline."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, float):
        text = "%.17g" % obj
        return text if "." in text or "e" in text else text + ".0"
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_reference_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    items = [_reference_json(v, indent + 1) for v in obj]
    if not items:
        return "[]"
    if all(len(item) <= 24 and "\n" not in item for item in items):
        return "[" + ", ".join(items) + "]"
    return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"


def _reference_csv(lines):
    """Rows of cells: strings verbatim, blanks for NaN, else %.9g."""
    def cell(value):
        if isinstance(value, str):
            return value
        return "" if math.isnan(value) else "%.9g" % value

    return "".join(",".join(map(cell, line)) + "\n" for line in lines)


# Integral values near 1e15-1e17 print without "." up to 1e17; 1e14 and
# 1e15 beside 0.5 make pairs of exactly 24 and 25 characters.
_EDGE_FLOATS = [
    0.0, -0.0, 0.5, -0.25, 1.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
    1e14, 1e15, -1e15, 1e16, 99999999999999984.0, 1e17, -1e17, 123456789012345680.0,
]
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**17) - 4, max_value=10**17 + 4).map(float),
    st.sampled_from(_EDGE_FLOATS),
)


@st.composite
def _complex_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(_FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(matrix=_complex_matrices(), values=st.lists(_FLOATS, max_size=6))
@example(matrix=np.array([[1e14 + 0.5j, 1e15 + 0.5j]]), values=[1e14, 0.5])
@example(matrix=np.zeros((2, 2), dtype=complex), values=[-0.0])
@example(matrix=np.full((1, 3), -0.0 + 0.5j), values=[])
def test_format_json_matches_the_reference_renderer(matrix, values):
    obj = {
        "block": matrix_to_pairs(matrix),
        "pair": complex_pair(matrix[0, 0]),
        "values": values,
        "members": list(range(len(values))),
        "nested": [{"z": v, "empty": []} for v in values],
    }
    text = format_json(obj)
    assert text == _reference_json(obj)
    # every float comes back bit for bit (repr tells -0.0 from 0.0), and
    # every integer as an integer
    assert repr(json.loads(text)) == repr(obj)


_CSV_CELLS = st.one_of(_FLOATS, st.just(math.inf), st.integers(-(10**6), 10**6), st.text("ab%_ ", max_size=3))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.lists(_CSV_CELLS, min_size=3, max_size=3), max_size=5),
    table=st.lists(st.lists(st.one_of(_FLOATS, st.just(math.nan)), min_size=3, max_size=3), max_size=4),
)
def test_csv_writers_match_the_reference_renderer(rows, table):
    header = ("a", "b%", "c")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, header, rows)
        assert path.read_text(encoding="utf-8") == _reference_csv([header, *rows])
        write_neglog_csv(path, np.array(table, dtype=float).reshape(len(table), 3))
        assert path.read_text(encoding="utf-8") == _reference_csv(table or [[]])
        with pytest.raises(ValueError, match="NaN"):
            write_csv(path, header, [*rows, ("x", math.nan, 1.0)])
    for cell in rows[0] if rows else ():
        if not isinstance(cell, str):
            assert csv_float(cell) == "%.9g" % cell


def test_complex_pair_round_trip():
    values = [1.5 - 2.25j, 0.0 + 0.0j, -3.0 + 4.0j]
    for v in values:
        assert pair_to_complex(complex_pair(v)) == v
    with pytest.raises(ValueError):
        pair_to_complex([1.0])
    matrix = np.array([[1 + 2j, 3 - 4j], [0.1j, -0.25]])
    assert np.array_equal(pairs_to_matrix(matrix_to_pairs(matrix)), matrix)


def test_block_density_json_round_trip(tmp_path):
    det, ts = _two_branch_system()
    rho = joint_state(det, ts, tol=1e-9)
    data = block_density_to_dict(rho, det.frequencies, ts)
    path = tmp_path / "state.json"
    write_json(path, data)
    rho2, levels, ts2 = block_density_from_dict(read_json(path))
    assert np.array_equal(rho2.ground_block, rho.ground_block)
    assert np.array_equal(rho2.excited_block, rho.excited_block)
    assert levels == [1.0, 2.0]
    assert rho2.scale == "per_eps2T"
    assert [t.z for t in ts2] == [t.z for t in ts]
    assert [t.amplitude for t in ts2] == [t.amplitude for t in ts]

    absolute = rho.to_absolute(0.01, 50.0)
    write_json(path, block_density_to_dict(absolute, det.frequencies, ts))
    rho3, _, _ = block_density_from_dict(read_json(path))
    assert rho3.scale == "absolute"
    assert rho3.epsilon == 0.01
    assert rho3.T == 50.0
    assert np.array_equal(rho3.excited_block, absolute.excited_block)


def test_block_density_json_shell_layout(tmp_path):
    det = DetectorSpec(frequencies=tuple(float(i) for i in range(1, 7)))
    amp = 1.0 / math.sqrt(3.0)
    ts = TrajectorySet(
        Trajectory(z=z, x_perp=(0.2 * k, 0.0), amplitude=amp * 1j**k)
        for k, z in enumerate((0.5, 1.0, 1.5))
    )
    rho = joint_state(det, ts, tol=1e-12).to_absolute(0.05, 30.0)
    data = block_density_to_dict(rho, det.frequencies, ts)
    assert list(data) == [
        "format", "scale", "levels", "trajectories", "ground_block", "excited_shells"
    ]
    assert data["format"] == "joint_state/2"
    firsts = [shell["members"][0] for shell in data["excited_shells"]]
    assert firsts == sorted(firsts)
    path = tmp_path / "state.json"
    write_json(path, data)
    back, _, _ = block_density_from_dict(read_json(path))
    assert back.scale == "absolute" and (back.epsilon, back.T) == (0.05, 30.0)
    assert len(back.shells) == len(rho.shells)
    for got, want in zip(back.shells, rho.shells):
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.block, want.block)  # bit-exact

    dense = {key: data[key] for key in ("scale", "levels", "trajectories", "ground_block")}
    dense["excited_block"] = matrix_to_pairs(rho.excited_block)
    with pytest.raises(ValueError, match="^format: missing field"):
        block_density_from_dict(dense)
    dense["format"] = "joint_state/2"
    with pytest.raises(ValueError, match="^excited_shells: missing field"):
        block_density_from_dict(dense)

    # the recorded levels and branches must match the blocks' shape
    short = dict(data, levels=data["levels"][:-1])
    with pytest.raises(ValueError, match="^excited_shells: blocks do not span"):
        block_density_from_dict(short)


def test_measured_json_round_trip(tmp_path):
    det, ts = _two_branch_system()
    rho = joint_state(det, ts, tol=1e-9)
    basis = MeasurementBasisVector(amplitudes=ts.amplitudes)
    measured = measured_internal(rho, basis)
    data = measured_to_dict(measured, det.frequencies, ts, basis.amplitudes)
    path = tmp_path / "measured.json"
    write_json(path, data)
    back, levels = measured_from_dict(read_json(path))
    assert np.array_equal(back, measured)
    assert levels == [1.0, 2.0]
    with pytest.raises(ValueError):
        measured_to_dict(measured[:2, :2], det.frequencies, ts, basis.amplitudes)


def test_neglog_csv_round_trip(tmp_path):
    matrix = np.array(
        [[1.5, math.nan, 0.25], [34.2277863552726716, 2e-9, math.nan]]
    )
    path = tmp_path / "neglog.csv"
    write_neglog_csv(path, matrix)
    back = read_neglog_csv(path)
    assert back.shape == matrix.shape
    assert np.array_equal(np.isnan(back), np.isnan(matrix))
    finite = ~np.isnan(matrix)
    assert np.allclose(back[finite], matrix[finite], rtol=1e-8, atol=0)

    commented = tmp_path / "commented.csv"
    commented.write_text("# table\n\n1.0,\n,2.0\n", encoding="utf-8")
    parsed = read_neglog_csv(commented)
    assert parsed.shape == (2, 2)
    assert math.isnan(parsed[0, 1]) and math.isnan(parsed[1, 0])

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_neglog_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_neglog_csv(empty)


# ---------------------------------------------------------------------------
# CLI: success paths


def test_cli_state_artifacts(tmp_path):
    config = _write_config(tmp_path, _base_tree())
    out = tmp_path / "out"
    assert main(["state", "--config", config, "--out", str(out)]) == 0
    joint = read_json(out / "joint_state.json")
    assert joint["scale"] == "per_eps2T"
    assert joint["levels"] == [1.0, 2.0]
    rho, _, _ = block_density_from_dict(joint)
    assert np.array_equal(rho.excited_block, rho.excited_block.conj().T)
    ground = pairs_to_matrix(joint["ground_block"])
    amps = np.array([pair_to_complex(t["A"]) for t in joint["trajectories"]])
    assert np.array_equal(ground, np.outer(amps, amps.conj()))
    reduced = read_json(out / "reduced_internal.json")
    assert reduced["scale"] == "per_eps2T"
    assert len(reduced["values"]) == 2
    assert all(v > 0.0 for v in reduced["values"])


def test_cli_state_byte_identical_reruns(tmp_path):
    config = _write_config(tmp_path, _base_tree())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["state", "--config", config, "--out", str(out1)]) == 0
    assert main(["state", "--config", config, "--out", str(out2)]) == 0
    for name in ("joint_state.json", "reduced_internal.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_measure_byte_identical_reruns(tmp_path):
    config = _write_config(tmp_path, _lattice_tree())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["measure", "--config", config, "--out", str(out1)]) == 0
    assert main(["measure", "--config", config, "--out", str(out2)]) == 0
    for name in ("measured_internal.json", "neglog_matrix.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_artifacts_match_the_reference_renderer(tmp_path):
    tree = _lattice_tree()
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main(["state", "--config", config, "--out", str(out)]) == 0
    assert main(["measure", "--config", config, "--out", str(out)]) == 0
    cfg = cli.build_run_config(tree)
    rho = joint_state(cfg.detector, cfg.trajectories, tol=cfg.q_tolerance)
    joint = block_density_to_dict(rho, cfg.detector.frequencies, cfg.trajectories)
    assert max(len(shell["members"]) for shell in joint["excited_shells"]) > 1
    measured = measured_to_dict(
        measured_internal(rho, cfg.measurement),
        cfg.detector.frequencies,
        cfg.trajectories,
        cfg.measurement.amplitudes,
    )
    for name, obj in (("joint_state.json", joint), ("measured_internal.json", measured)):
        assert (out / name).read_text(encoding="utf-8") == _reference_json(obj) + "\n"


def test_cli_state_absolute_scale_default_T_and_warnings(tmp_path, capsys):
    tree = _base_tree()
    del tree["interaction"]["T"]  # default: 1/(epsilon * omega_1) = 100
    tree["output"] = {"scale": "absolute"}
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main(["state", "--config", config, "--out", str(out)]) == 0
    joint = read_json(out / "joint_state.json")
    assert joint["scale"]["absolute"]["epsilon"] == 0.01
    assert joint["scale"]["absolute"]["T"] == 100.0

    assert capsys.readouterr().err == ""

    # a wildly long window triggers a perturbative-bound warning
    tree["interaction"]["T"] = 1e6
    config = _write_config(tmp_path, tree, name="long.json")
    assert main(["state", "--config", config, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in err] == [
        ["warning", " time-too-long"],
        ["warning", " perturbative-bound"],
    ]


def test_cli_measure_artifacts(tmp_path):
    config = _write_config(tmp_path, _base_tree())
    out = tmp_path / "out"
    assert main(["measure", "--config", config, "--out", str(out)]) == 0
    data = read_json(out / "measured_internal.json")
    assert data["scale"] == "per_eps2T"
    measured, levels = measured_from_dict(data)
    assert levels == [1.0, 2.0]
    # default measured branch is the preparation superposition
    uniform = 1.0 / math.sqrt(2.0)
    assert data["measurement"] == [[uniform, 0.0], [uniform, 0.0]]
    assert measured[0, 0].real == pytest.approx(1.0, rel=1e-12)

    det, ts = _two_branch_system()
    rho = joint_state(det, ts, tol=0.01)
    expected = measured_internal(rho, MeasurementBasisVector(amplitudes=ts.amplitudes))
    assert np.array_equal(measured, expected)

    table = read_neglog_csv(out / "neglog_matrix.csv")
    want = neglog_matrix(expected, det.level_count)
    assert table.shape == want.shape
    assert np.array_equal(np.isnan(table), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.allclose(table[finite], want[finite], rtol=1e-8, atol=0)


def test_cli_measure_absolute_scale_keeps_neglog_convention(tmp_path):
    base = _write_config(tmp_path, _base_tree())
    tree = _base_tree()
    tree["output"] = {"scale": "absolute"}
    absolute = _write_config(tmp_path, tree, name="absolute.json")
    out1, out2 = tmp_path / "per", tmp_path / "abs"
    assert main(["measure", "--config", base, "--out", str(out1)]) == 0
    assert main(["measure", "--config", absolute, "--out", str(out2)]) == 0
    # the display table stays in per-eps^2-T convention either way
    assert (out1 / "neglog_matrix.csv").read_bytes() == (
        out2 / "neglog_matrix.csv"
    ).read_bytes()
    per = measured_from_dict(read_json(out1 / "measured_internal.json"))[0]
    scaled = measured_from_dict(read_json(out2 / "measured_internal.json"))[0]
    factor = 0.01**2 * 50.0
    assert np.allclose(scaled, per * factor, rtol=1e-15, atol=0)


def test_cli_measure_orthogonal_branch_ground_zero(tmp_path):
    uniform = 1.0 / math.sqrt(2.0)
    tree = _base_tree()
    tree["measurement"] = {"amplitudes": [[uniform, 0.0], [-uniform, 0.0]]}
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main(["measure", "--config", config, "--out", str(out)]) == 0
    data = read_json(out / "measured_internal.json")
    assert data["ground_block"] == [[[0.0, 0.0]]]


def test_cli_lambda_grid(tmp_path):
    out = tmp_path / "grids"
    assert main(["lambda-grid", "--out", str(out), "--q", "0,1.5", "--grid", "6"]) == 0
    from superthermal.specfun import lambda_overlap

    for tag, q in (("0", 0.0), ("1.5", 1.5)):
        path = out / f"lambda_grid_q{tag}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "dxi,dxbar,lambda"
        assert len(lines) == 1 + 36
        dxi, dxb, lam = (float(tok) for tok in lines[8].split(","))
        assert lam == pytest.approx(float(lambda_overlap(q, dxi, dxb)), rel=1e-8)
    for name, column in (("lambda_axis_xi.csv", "dxi"), ("lambda_axis_xbar.csv", "dxbar")):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == f"q,{column},lambda"
        assert len(lines) == 1 + 2 * 6


def test_cli_oracle_validate(tmp_path):
    tree = {"oracle": {"T_list": [5.0, 10.0]}}
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main(["oracle-validate", "--config", config, "--out", str(out)]) == 0

    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "T,M,oracle,asymptotic,rel_error"
    errors = [float(r.split(",")[4]) for r in rows[1:]]
    assert len(errors) == 2
    assert errors[1] < errors[0]

    sweep = (out / "a_sweep.csv").read_text().splitlines()
    assert sweep[0] == "a,T,oracle"
    oracle_cells = {line.split(",")[2] for line in sweep[1:]}
    assert len(sweep[1:]) == 3
    assert len(oracle_cells) == 1  # boost-rate independence, to all printed digits

    diff_rows = (out / "lambda_oracle_diff.csv").read_text().splitlines()
    assert diff_rows[0] == "q,dxi,dxbar,closed,quadrature,diff"
    diffs = [abs(float(r.split(",")[5])) for r in diff_rows[1:]]
    assert len(diffs) == 4 * 3 * 3
    assert max(diffs) < 1e-6

    # one row per oracle call: two durations, 4 q x 3 dxi, three a values
    refinement = [line.split(",") for line in (out / "oracle_refinement.csv").read_text().splitlines()]
    assert refinement[0] == ["oracle", "q", "dxi", "dxbar", "T", "a", "change", "target"]
    calls = refinement[1:]
    assert [row[0] for row in calls] == ["finite_t"] * 2 + ["lambda_quadrature"] * 12 + ["finite_t"] * 3
    assert [row[4] for row in calls[:2]] == ["5", "10"]
    assert {row[3] for row in calls[2:14]} == {"0 1 2.5"}
    assert [row[5] for row in calls[14:]] == ["0.5", "1", "2"]
    for row in calls:
        change, target = float(row[6]), float(row[7])
        assert 0.0 <= change <= target
        assert target == (1e-8 if row[0] == "lambda_quadrature" else 1e-10 * float(row[4]))
    # at q = 10 the refined grid moves the result well above rounding
    assert all(float(row[6]) > 1e-14 for row in calls if row[1] == "10")


def test_cli_paper_example(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["paper-example", "--out", str(out)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    report = (out / "paper_example_report.txt").read_text().splitlines()
    assert report[0] == "three-trajectory demonstration: 12 levels, z = (0.5, 1.0, 1.5)"
    assert "40 printed, 104 absent" in report[1]
    assert report[2] == "verdict: PASS"
    table = read_neglog_csv(out / "neglog_matrix.csv")
    assert table.shape == (12, 12)
    assert int(np.sum(~np.isnan(table))) == 40
    assert table[0, 0] == pytest.approx(NEGLOG_11, rel=1e-8)
    assert table[6, 6] == pytest.approx(NEGLOG_77, rel=1e-8)
    assert table[7, 11] == pytest.approx(NEGLOG_8_12, rel=1e-8)


def _continuum_tree():
    value = 1.0 / math.sqrt(2.0)
    return {
        "continuum": {
            "amplitude": {
                "x": [-0.5, 0.5],
                "y": [0.0],
                "z": [0.5, 1.0],
                "values": [[value, 0.0]] * 4,
                "spacings": [1.0, 1.0, 0.5],
            },
            "coupling": {"omega": [0.05, 60.0], "values": [1.0, 1.0]},
            "z_fixed": 1.0,
            "omega_grid": [1.0, 2.0],
        }
    }


def test_cli_continuum(tmp_path):
    value = 1.0 / math.sqrt(2.0)
    config = _write_config(tmp_path, _continuum_tree())
    out = tmp_path / "out"
    assert main(["continuum", "--config", config, "--out", str(out)]) == 0

    slice_rows = (out / "continuum_slice.csv").read_text().splitlines()
    scaled_rows = (out / "continuum_slice_rescaled.csv").read_text().splitlines()
    assert slice_rows[0] == "q,x,y,z,xp,yp,zp,re,im"
    assert len(slice_rows) == len(scaled_rows) == 1 + 2 * 2
    for base_line, scaled_line in zip(slice_rows[1:], scaled_rows[1:]):
        base = [float(t) for t in base_line.split(",")]
        scaled = [float(t) for t in scaled_line.split(",")]
        assert scaled[0] == pytest.approx(base[0], rel=1e-8)  # same q
        assert scaled[3] == pytest.approx(2.0 * base[3], rel=1e-8)
        # diagonal kernel entries carry the constant measure factor
        # 2^5: three powers from |A|^2, two from the separation metric
        assert base[7] == pytest.approx(32.0 * scaled[7], rel=1e-8)
        assert base[8] == scaled[8] == 0.0

    from superthermal.continuum import CouplingFunction, SmearedAmplitude, continuum_spectrum_slice

    amp = SmearedAmplitude(
        x=np.array([-0.5, 0.5]),
        y=np.array([0.0]),
        z=np.array([0.5, 1.0]),
        values=np.full((2, 1, 2), value, dtype=complex),
        spacings=(1.0, 1.0, 0.5),
    )
    zeta = CouplingFunction(omega=np.array([0.05, 60.0]), values=np.ones(2, dtype=complex))
    want = continuum_spectrum_slice(amp, zeta, 1.0, np.array([1.0, 2.0]))
    spectrum_rows = (out / "continuum_spectrum.csv").read_text().splitlines()
    assert spectrum_rows[0] == "omega,q,value"
    for line, omega, expected in zip(spectrum_rows[1:], (1.0, 2.0), want):
        w, q, v = (float(t) for t in line.split(","))
        assert w == omega
        assert q == omega * 1.0
        assert v == pytest.approx(expected, rel=1e-8)


def test_cli_continuum_accepts_the_table_end_after_round_trip(tmp_path):
    # omega -> q = omega z_fixed -> q / z_fixed lands one ulp above 60
    z_fixed = 0.3310655327663832
    assert (60.0 * z_fixed) / z_fixed > 60.0
    tree = _continuum_tree()
    tree["continuum"]["amplitude"].update(
        x=[-0.5, 0.5], y=[0.0], z=[z_fixed], values=[[1.0, 0.0]] * 2
    )
    tree["continuum"].update(z_fixed=z_fixed, omega_grid=[60.0])
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main(["continuum", "--config", config, "--out", str(out)]) == 0
    rows = (out / "continuum_spectrum.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("60,")


# ---------------------------------------------------------------------------
# CLI: failure paths


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t: t.pop("detector"), "detector: missing required section"),
        (lambda t: t.pop("trajectories"), "trajectories: missing required section"),
        (lambda t: t["interaction"].pop("epsilon"), "interaction.epsilon"),
        (lambda t: t["interaction"].update(epsilon=1.5), "must lie in (0, 1)"),
        (lambda t: t["interaction"].update(T=-5.0), "interaction.T"),
        (lambda t: t["interaction"].update(q_tolerance=0.0), "interaction.q_tolerance"),
        (lambda t: t["trajectories"][0].pop("z"), "trajectories[0].z"),
        (
            lambda t: t["trajectories"][0].update(A=0.5),
            "A must be given for all trajectories or none",
        ),
        (
            lambda t: t.update(measurement={"amplitudes": [1.0]}),
            "does not match 2 trajectories",
        ),
        (lambda t: t.update(output={"scale": "bogus"}), "output.scale"),
        (lambda t: t["trajectories"][0].update(A=["a", "b"]), "trajectories[0].A"),
        (lambda t: t["interaction"].update(rindler_a=0.0), "interaction.rindler_a"),
        (lambda t: t["detector"].update(couplings=[1.0, math.nan]), "detector.couplings"),
        (lambda t: t["trajectories"][1].update(x=math.nan), "x_perp must be finite"),
    ],
)
def test_cli_config_errors_name_the_field(tmp_path, capsys, mutate, fragment):
    tree = _base_tree()
    mutate(tree)
    config = _write_config(tmp_path, tree)
    code = main(["state", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.update(z_fixed="abc"), "continuum.z_fixed"),
        (lambda c: c.update(z_fixed=0.75), "continuum.z_fixed"),
        (lambda c: c["amplitude"].update(x=["q"]), "continuum.amplitude.x"),
        (lambda c: c.update(omega_grid=[1.0, 61.0]), "continuum.omega_grid"),
    ],
)
def test_cli_continuum_config_errors_name_the_field(tmp_path, capsys, mutate, fragment):
    tree = _continuum_tree()
    mutate(tree["continuum"])
    config = _write_config(tmp_path, tree)
    code = main(["continuum", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


@pytest.mark.parametrize(
    "frequencies, heights",
    [
        # aligned pair at q = 120: e^{2 pi q} overflows a double
        ((60.0, 120.0), (1.0, 2.0)),
        # same-level pair aligned within the default tolerance (epsilon)
        # but not exactly: the coherence must keep the block PSD
        ((1.0,), (1.0, 1.001)),
    ],
)
@pytest.mark.parametrize("command", ["state", "measure"])
def test_cli_legal_edge_systems_succeed(tmp_path, frequencies, heights, command):
    tree = _base_tree()
    tree["detector"]["frequencies"] = list(frequencies)
    tree["trajectories"] = [{"z": z} for z in heights]
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 0
    if command == "state":
        # the shells partition the composites, so together they hold
        # every stored entry
        shells = read_json(out / "joint_state.json")["excited_shells"]
        members = sorted(i for shell in shells for i in shell["members"])
        assert members == list(range(len(frequencies) * len(heights)))
        blocks = [pairs_to_matrix(shell["block"]) for shell in shells]
    else:
        blocks = [pairs_to_matrix(read_json(out / "measured_internal.json")["excited_block"])]
    assert all(np.all(np.isfinite(block)) for block in blocks)


@pytest.mark.parametrize("command", ["state", "measure"])
def test_cli_far_transverse_branch_succeeds(tmp_path, command):
    # Delta xbar = 1e308: the overlap factor takes its log form instead of
    # overflowing to NaN
    tree = _base_tree()
    tree["trajectories"] = [{"z": 1.0}, {"z": 1.0, "x": 1e308}]
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 0
    if command == "state":
        rho, _, _ = block_density_from_dict(read_json(out / "joint_state.json"))
        excited = rho.excited_block
        assert np.all(np.isfinite(excited))
        assert excited[0, 1] == 0.0 or abs(excited[0, 1]) < 1e-300
    else:
        measured, _ = measured_from_dict(read_json(out / "measured_internal.json"))
        assert np.all(np.isfinite(measured))


def test_cli_infinite_transverse_separation_gives_zero_coherence(tmp_path):
    # x = -1e308 and 1e308 are 2e308 apart: Delta xbar overflows to inf,
    # where Lambda takes its limit 0
    tree = _base_tree()
    tree["detector"]["frequencies"] = [1.0]
    tree["trajectories"] = [{"z": 1.0, "x": -1e308}, {"z": 1.0, "x": 1e308}]
    config = _write_config(tmp_path, tree)
    assert main(["state", "--config", config, "--out", str(tmp_path / "state")]) == 0
    (shell,) = read_json(tmp_path / "state" / "joint_state.json")["excited_shells"]
    excited = pairs_to_matrix(shell["block"])
    assert excited[0, 1] == 0.0 and excited[1, 0] == 0.0
    assert excited[0, 0] == excited[1, 1] > 0.0

    assert main(["measure", "--config", config, "--out", str(tmp_path / "measure")]) == 0
    measured, _ = measured_from_dict(read_json(tmp_path / "measure" / "measured_internal.json"))
    # equal-weight measurement of two incoherent branches: the mean of the
    # diagonal weights, with no interference term
    assert measured[1, 1] == pytest.approx(0.5 * (excited[0, 0] + excited[1, 1]), rel=1e-14)


@pytest.mark.parametrize("command", ["state", "measure"])
def test_cli_non_transitive_alignment_chain_is_a_config_error(tmp_path, capsys, command):
    # q = 1.0, 1.3, 1.6 at tolerance 0.35: the outer pair is the only one
    # not aligned, and the shell's block is not positive semidefinite
    tree = _base_tree(q_tolerance=0.35)
    tree["detector"]["frequencies"] = [1.0]
    tree["trajectories"] = [{"z": 1.0}, {"z": 1.3}, {"z": 1.6}]
    config = _write_config(tmp_path, tree)
    code = main([command, "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: interaction.q_tolerance:")
    assert "boost-energy shell q = 1 to 1.6" in err
    assert "not positive semidefinite" in err


@pytest.mark.parametrize("z", [1e308, 1e-320])
def test_cli_numerical_failure_exit_code(tmp_path, capsys, z):
    # past the float range at these heights: the boost energy 2 z of the
    # upper level (z = 1e308), or the Planck weight ~ 1/(2 pi z) (z = 1e-320)
    tree = _base_tree()
    tree["trajectories"] = [{"z": z}, {"z": z, "x": 1.0}]
    config = _write_config(tmp_path, tree)
    code = main(["state", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_cli_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "detector": [,]\n}', encoding="utf-8")
    code = main(["state", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.json:2:" in err


def test_cli_flag_errors(tmp_path, capsys):
    assert main(["lambda-grid", "--out", str(tmp_path), "--q", "-1"]) == 2
    assert "--q" in capsys.readouterr().err
    assert main(["lambda-grid", "--out", str(tmp_path), "--grid", "1"]) == 2
    assert "--grid" in capsys.readouterr().err
    config = _write_config(tmp_path, _base_tree())
    assert main(["continuum", "--config", config, "--out", str(tmp_path)]) == 2
    assert "continuum: missing required section" in capsys.readouterr().err


def test_cli_unknown_command_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_cli_paper_example_fail_verdict_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "compare_with_reference", lambda neglog: (False, ["entry (1,1): synthetic"])
    )
    out = tmp_path / "out"
    assert main(["paper-example", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "verdict: FAIL" in captured.out
    assert "mismatch: entry (1,1): synthetic" in captured.err
    report = (out / "paper_example_report.txt").read_text().splitlines()
    assert report[2:] == ["verdict: FAIL", "mismatch: entry (1,1): synthetic"]


def test_cli_quadrature_failure_exit_code(tmp_path, capsys, monkeypatch):
    def explode(**kwargs):
        raise QuadratureError("synthetic failure")

    monkeypatch.setattr(cli, "convergence_report", explode)
    code = main(["oracle-validate", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical non-convergence:")
    assert "synthetic failure" in err


# ---------------------------------------------------------------------------
# Regime warnings, non-finite inputs and overflow


def _hot_long_tree():
    # omega_1 z_1 = 0.01 < mu, and T = 1e6 against the recommended 100
    tree = _base_tree(T=1e6)
    tree["trajectories"] = [{"z": 0.01}, {"z": 1.0}]
    return tree


def test_cli_state_and_measure_print_the_same_regime_warnings(tmp_path, capsys):
    seen = []
    for scale in ("per_eps2T", "absolute"):
        tree = _hot_long_tree()
        tree["output"] = {"scale": scale}
        config = _write_config(tmp_path, tree, name=f"{scale}.json")
        for command in ("state", "measure"):
            assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
            seen.append(capsys.readouterr().err)
    assert len(set(seen)) == 1
    tags = [line.split(":")[1].strip() for line in seen[0].splitlines()]
    assert tags == ["acceleration-too-high", "time-too-long", "perturbative-bound"]
    assert all(line.startswith("warning: ") for line in seen[0].splitlines())


def test_cli_short_window_warns(tmp_path, capsys):
    config = _write_config(tmp_path, _base_tree(T=5.0))
    assert main(["measure", "--config", config, "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: time-too-short: T = 5 is more than 10x below")


def _absolute_tree(**interaction):
    tree = _base_tree(**interaction)
    tree["output"] = {"scale": "absolute"}
    return tree


def _tiny_epsilon_tree():
    tree = _absolute_tree(epsilon=1e-320)
    del tree["interaction"]["T"]
    return tree


def _planck_overflow_tree(scale):
    tree = _base_tree()
    tree["trajectories"] = [{"z": 1e-310}, {"z": 1.0}]
    tree["output"] = {"scale": scale}
    return tree


def _boost_overflow_tree():
    # omega z = 2 x 1e308 on the upper level of the far branch
    tree = _base_tree()
    tree["trajectories"] = [{"z": 1.0}, {"z": 1e308}]
    return tree


def _absolute_overflow_tree():
    tree = _absolute_tree(epsilon=0.9, T=1e308)
    tree["trajectories"] = [{"z": 1e-300}, {"z": 1.0}]
    return tree


@pytest.mark.parametrize("command", ["state", "measure"])
@pytest.mark.parametrize(
    "make_tree, message",
    [
        (_absolute_overflow_tree, "epsilon^2 T x"),
        (lambda: _planck_overflow_tree("per_eps2T"), "planck_weight overflows"),
        (lambda: _planck_overflow_tree("absolute"), "planck_weight overflows"),
        (_tiny_epsilon_tree, "interaction.T: the default 1/(epsilon*omega_1) overflows"),
        (_boost_overflow_tree, "boost energy omega*z exceeds the float range"),
    ],
    ids=["eps2T-entry", "planck-per_eps2T", "planck-absolute", "default-T", "boost-energy"],
)
def test_cli_overflow_is_a_numerical_failure(tmp_path, capsys, command, make_tree, message):
    config = _write_config(tmp_path, make_tree())
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: OverflowError: ")
    assert message in err


@pytest.mark.parametrize(
    "argv_tail, tree, field",
    [
        ([], _absolute_tree(T=math.inf), "interaction.T: must be positive and finite"),
        (["--T", "inf"], _absolute_tree(), "interaction.T: must be positive and finite"),
        (["--tol", "inf"], _base_tree(), "interaction.q_tolerance: must be positive and finite"),
    ],
)
@pytest.mark.parametrize("command", ["state", "measure"])
def test_cli_non_finite_interaction_is_a_config_error(
    tmp_path, capsys, command, argv_tail, tree, field
):
    config = _write_config(tmp_path, tree)
    argv = [command, "--config", config, "--out", str(tmp_path / "out"), *argv_tail]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")


def test_cli_non_finite_oracle_duration_is_a_config_error(tmp_path, capsys):
    config = _write_config(tmp_path, {"oracle": {"T_list": [10.0, math.inf]}})
    assert main(["oracle-validate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: oracle.T_list: T_list must be finite")


def test_cli_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    config = _write_config(tmp_path, _base_tree())
    assert main(["state", "--config", config, "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("config error: output.directory: ")


def test_cli_config_error_leaves_no_output_directory(tmp_path, capsys):
    config = _write_config(tmp_path, {"oracle": {"T_list": [20.0, 10.0]}})
    out = tmp_path / "out"
    assert main(["oracle-validate", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: oracle.T_list: T_list must be strictly")
    assert not out.exists()


@pytest.mark.parametrize("q", ["nan", "inf", "1,nan"])
def test_cli_non_finite_q_is_a_config_error(tmp_path, capsys, q):
    out = tmp_path / "out"
    assert main(["lambda-grid", "--out", str(out), f"--q={q}", "--grid", "4"]) == 2
    assert capsys.readouterr().err == "config error: --q: values must be finite\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, tree, message",
    [
        (["oracle-validate"], {"oracle": {"T_list": [10.0, 1e308]}}, "FloatingPointError: invalid"),
        (
            ["oracle-validate"],
            {"interaction": {"rindler_a": 1e-310}},
            "FloatingPointError: finite-duration overlap is not finite at T = 10, a = 1e-310",
        ),
    ],
    ids=["T-1e308", "a-1e-310"],
)
def test_cli_non_finite_results_are_numerical_failures(tmp_path, capsys, argv, tree, message):
    out = tmp_path / "out"
    if tree is not None:
        argv = [*argv, "--config", _write_config(tmp_path, tree)]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_lambda_grid_writes_the_limit_where_q_alpha_overflows(tmp_path):
    # q alpha overflows on most of the grid; |Lambda| <= 1/(q alpha) makes
    # 0 the value there, and only the origin of the xbar axis (alpha = 0)
    # keeps Lambda = 1.
    out = tmp_path / "out"
    assert main(["lambda-grid", "--q", "1e308", "--grid", "4", "--out", str(out)]) == 0
    for name, count in (
        ("lambda_grid_q1e308.csv", 16),
        ("lambda_axis_xi.csv", 4),
        ("lambda_axis_xbar.csv", 4),
    ):
        values = [float(line.split(",")[-1]) for line in (out / name).read_text().splitlines()[1:]]
        assert len(values) == count
        assert values == [1.0 if name == "lambda_axis_xbar.csv" and i == 0 else 0.0 for i in range(count)]


def test_cli_unwritable_artifact_is_a_config_error(tmp_path, capsys):
    # --out exists, but holds a directory where the first artifact goes
    out = tmp_path / "out"
    (out / "joint_state.json").mkdir(parents=True)
    config = _write_config(tmp_path, _base_tree())
    assert main(["state", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: output.directory: cannot write joint_state.json: "
    )


@pytest.mark.parametrize("t_list", [[0.03, 10.0], [1e-3, 10.0]], ids=["T-0.03", "T-1e-3"])
def test_cli_oracle_durations_far_below_one_over_omega_stop_before_allocating(tmp_path, t_list):
    # Far below T = 1/omega the finite-duration grids widen without bound;
    # the oracle sizes them first and stops at its cap, inside a 3 GB
    # address space and without a traceback.
    config = _write_config(tmp_path, {"oracle": {"T_list": t_list}})
    src = str(Path(superthermal.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 3 * 10**9

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "superthermal.cli", "oracle-validate",
         "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=300,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"numerical non-convergence: finite-duration overlap at T = {t_list[0]:g} needs more than"
    )
    assert not (tmp_path / "out").exists()


def _run_cold(tmp_path, code):
    """Run ``code`` in a fresh interpreter on this checkout's package."""
    src = str(Path(superthermal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=60)


def test_pipeline_subcommands_run_with_scipy_blocked(tmp_path):
    # This process may have scipy loaded already, so the check runs in a
    # fresh one, where even a transient import of scipy fails.
    lattice = _write_config(tmp_path, _lattice_tree(), "lattice.json")
    continuum = _write_config(tmp_path, _continuum_tree(), "continuum.json")
    runs = [["paper-example"], ["state", "--config", lattice], ["measure", "--config", lattice],
            ["lambda-grid"], ["continuum", "--config", continuum]]
    proc = _run_cold(tmp_path, f"""
import sys
sys.modules["scipy"] = None
from superthermal.cli import main
for i, argv in enumerate({runs!r}):
    assert main([*argv, "--out", f"out{{i}}"]) == 0, argv
""")
    assert proc.returncode == 0, proc.stderr


def test_scipy_functions_import_it_on_first_call(tmp_path):
    proc = _run_cold(tmp_path, """
import sys
import superthermal
assert "scipy" not in sys.modules
print(repr(superthermal.bessel_j0(1.0)), repr(superthermal.bessel_k_imag(1.0, 1.0)))
""")
    assert proc.returncode == 0, proc.stderr
    from superthermal.specfun import bessel_j0, bessel_k_imag

    assert proc.stdout.split() == [repr(bessel_j0(1.0)), repr(bessel_k_imag(1.0, 1.0))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda c: c["amplitude"].update(y=[1e308]),
            "continuum: rescaled system (lengths doubled, frequencies halved): "
            "y axis must be non-empty and finite",
        ),
        (
            lambda c: c["amplitude"]["values"].__setitem__(0, 1e308),
            "continuum.amplitude: amplitude is not normalized: sum |A|^2 dV = inf",
        ),
    ],
    ids=["doubled-grid-overflows", "normalisation-overflows"],
)
def test_cli_continuum_overflowing_input_is_a_config_error(tmp_path, capsys, mutate, message):
    tree = _continuum_tree()
    mutate(tree["continuum"])
    out = tmp_path / "out"
    assert main(["continuum", "--config", _write_config(tmp_path, tree), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_huge_frequency_runs_without_warnings(tmp_path, capsys):
    # 2 pi omega z overflows to inf, and the Planck weight is exactly 0
    tree = _base_tree()
    del tree["interaction"]["T"]  # the recommended T, so no time warning
    tree["detector"]["frequencies"] = [1e308]
    config = _write_config(tmp_path, tree)
    assert main(["state", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    reduced = read_json(tmp_path / "out" / "reduced_internal.json")
    assert reduced["values"] == [0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["paper-example", "--q", "abc", "--grid", "0"],
        ["lambda-grid", "--epsilon", "7"],
        ["lambda-grid", "--tol", "1"],
        ["oracle-validate", "--T", "1"],
        ["oracle-validate", "--grid", "4"],
        ["continuum", "--epsilon", "0.1"],
        ["state", "--q", "1"],
        ["measure", "--grid", "4"],
    ],
)
def test_cli_foreign_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_flag_slots_match_what_each_subcommand_reads():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    flags = {
        name: sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, parser in sub.choices.items()
    }
    pipeline = ["--T", "--config", "--epsilon", "--out", "--tol"]
    assert flags == {
        "state": pipeline,
        "measure": pipeline,
        "lambda-grid": ["--config", "--grid", "--out", "--q"],
        "oracle-validate": ["--config", "--out"],
        "paper-example": ["--config", "--out"],
        "continuum": ["--config", "--out"],
    }

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
from oracles import lam

import superthermal
from superthermal import cli, overlaps
from superthermal.cli import main
from superthermal.continuum import (
    continuum_joint_kernel,
    continuum_offdiag_coefficient,
    continuum_spectrum_slice,
)
from superthermal.detector import (
    DetectorSpec,
    MeasurementBasisVector,
    joint_state,
    measured_internal,
    neglog_matrix,
    paper_example,
)
from superthermal.geometry import MU, Trajectory, TrajectorySet
from superthermal.io import (
    _as_complex,
    _complex_pair,
    _pair_block,
    block_density_from_dict,
    block_density_to_dict,
    csv_float,
    format_json,
    measured_from_dict,
    measured_to_dict,
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


def _pair_nest(matrix):
    """A complex matrix as row-major ``[re, im]`` pairs, as lists."""
    matrix = np.ascontiguousarray(matrix)
    return matrix.view(np.float64).reshape(*matrix.shape, 2).tolist()


def _listed(obj):
    """``obj`` with every array in its dicts and lists as its ``.tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _listed(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_listed(val) for val in obj]
    return obj


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


_INT64_EXTREMES = (-(2**63), 2**63 - 1)


@st.composite
def _int_arrays(draw):
    """int64 arrays of one to three dimensions, negative values and the
    int64 extremes among their entries."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    entries = st.one_of(st.integers(*_INT64_EXTREMES), st.integers(-9, 9), st.sampled_from(_INT64_EXTREMES))
    values = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=np.int64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(matrix=_complex_matrices(), values=st.lists(_FLOATS, max_size=6), ints=_int_arrays())
@example(matrix=np.array([[1e14 + 0.5j, 1e15 + 0.5j]]), values=[1e14, 0.5], ints=np.array(_INT64_EXTREMES))
@example(matrix=np.zeros((2, 2), dtype=complex), values=[-0.0], ints=np.zeros((2, 2, 2), dtype=np.int64))
@example(matrix=np.full((1, 3), -0.0 + 0.5j), values=[], ints=np.array([[-(2**63)] * 4, [-1, 0, 1, 2**63 - 1]]))
def test_format_json_matches_the_reference_renderer(matrix, values, ints):
    obj = {
        "block": _pair_nest(matrix),
        "pair": _complex_pair(matrix[0, 0]),
        "values": values,
        "members": list(range(len(values))),
        "pairs": [[k, -k] for k in range(len(values))],
        "nested": [{"z": v, "empty": []} for v in values],
        "ints": ints,
        "int_nest": [ints, {"ints": ints}],
    }
    text = format_json(obj)
    assert text == _reference_json(_listed(obj))
    # every float comes back bit for bit (repr tells -0.0 from 0.0), and
    # every integer as an integer
    assert repr(json.loads(text)) == repr(_listed(obj))


# the largest subnormal, and two deeper ones
_ARRAY_FLOATS = st.one_of(_FLOATS, st.sampled_from((2.2250738585072009e-308, -1e-310, 1e-320)))


@st.composite
def _float_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    values = draw(st.lists(_ARRAY_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values).reshape(shape)


@st.composite
def _sparse_arrays(draw):
    """Arrays shaped like a measured matrix's [re, im] pairs, up to
    (12, 12, 2): mostly +0.0, with a few -0.0 and a few nonzeros."""
    shape = tuple(draw(st.lists(st.integers(1, 12), max_size=2))) + (draw(st.integers(1, 2)),)
    array = np.zeros(shape)
    cells = draw(st.dictionaries(st.integers(0, array.size - 1), st.one_of(st.just(-0.0), _ARRAY_FLOATS),
                                 max_size=6))
    array.flat[list(cells)] = list(cells.values())
    return array


_MATRIX_WITH_AN_INLINE_ROW = np.zeros((3, 4, 2))
# row 1's only nonzero pair is "[0.5, 0.0]", so row 1 stays on one line;
# row 2's long pair puts row 2 one pair per line
_MATRIX_WITH_AN_INLINE_ROW[1, 2, 0] = 0.5
_MATRIX_WITH_AN_INLINE_ROW[2, 0, 1] = -1.0 / 3.0


@settings(max_examples=100, deadline=None)
@given(array=st.one_of(_float_arrays(), _sparse_arrays()))
@example(array=np.zeros((2, 3)))
@example(array=_MATRIX_WITH_AN_INLINE_ROW)
@example(array=np.full((1, 2, 2), -0.0))
@example(array=np.array([[99999999999999984.0, 1e17, -99999999999999984.0, -1e17, 5e-324, -0.0]]))
def test_format_json_writes_a_float_array_as_its_list(array):
    assert format_json(array) == format_json(array.tolist()) == _reference_json(array.tolist())
    # a strided view, and an array nested beside other floats
    assert format_json(array.T) == format_json(array.T.tolist())
    obj = {"x": -0.0, "array": array, "y": [0.5, 0.0], "z": [array, 0.0]}
    assert format_json(obj) == format_json({**obj, "array": array.tolist(), "z": [array.tolist(), 0.0]})


def test_format_json_writes_integer_zeros_as_integers():
    # the literals 0.0 and -0.0 stand only for float zeros
    assert format_json({"pairs": [[0, 1], [0, 2]]}) == '{\n  "pairs": [[0, 1], [0, 2]]\n}'
    assert format_json(np.array([[0, 1], [0, 2]])) == "[[0, 1], [0, 2]]"
    assert format_json([0, 0.0, -0.0, [0, 0], [0.0, -0.0]]) == "[0, 0.0, -0.0, [0, 0], [0.0, -0.0]]"


def test_format_json_writes_other_arrays_and_scalars_as_their_lists():
    arrays = [
        np.array([[0, -2], [3, 2**31 - 1]], dtype=np.int32),
        np.array([0, 7, 255], dtype=np.uint8),
        np.array([[-(2**63), 2**63 - 1]]),
        np.zeros((0, 2), dtype=np.int64),
        np.zeros((2, 0)),
        np.array([[True, False], [False, False]]),
        np.array(0.5),
        np.array(-0.0),
        np.array(3, dtype=np.int32),
        np.array(True),
    ]
    for array in arrays:
        assert format_json(array) == _reference_json(array.tolist())
        obj = {"array": array, "nested": [array, [array]]}
        assert format_json(obj) == _reference_json(_listed(obj))
    assert format_json(np.zeros((0, 2), dtype=np.int64)) == "[]"
    assert format_json(np.array([True, False])) == "[true, false]"
    scalars = [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (99999999999999984.0, "99999999999999984.0"),
        (1e17, "1e+17"),
        (5e-324, "4.9406564584124654e-324"),
    ]
    for value, text in scalars:
        assert format_json(value) == format_json(np.float64(value)) == _reference_json(value) == text
        assert format_json({"x": [value]}) == _reference_json({"x": [value]})
    assert format_json(np.float32(0.5)) == _reference_json(0.5) == "0.5"
    # a float32 scalar is written as the double it widens to
    assert format_json(np.float32(0.1)) == _reference_json(float(np.float32(0.1)))
    for bad in (math.inf, -math.inf, math.nan):
        for obj in ({"x": bad}, {"a": [0.5, {"b": bad}]}, [[0.5], [np.float64(bad)]], np.float32(bad)):
            with pytest.raises(ValueError, match="finite"):
                format_json(obj)


_CSV_NUMBERS = st.one_of(_FLOATS, st.just(math.inf), st.integers(-(10**6), 10**6))
_CSV_TEXTS = st.text("ab%_ ", max_size=3)


@st.composite
def _csv_columns(draw):
    """Three equally long columns of up to five cells, each all numbers or
    all text."""
    rows = draw(st.integers(0, 5))
    return [draw(st.lists(draw(st.sampled_from((_CSV_NUMBERS, _CSV_TEXTS))), min_size=rows, max_size=rows))
            for _ in range(3)]


@st.composite
def _mostly_blank_tables(draw):
    """Negative-log tables of a mostly-zero matrix, up to 12 x 12: NaN
    except for a few cells."""
    table = np.full((draw(st.integers(1, 12)), draw(st.integers(1, 12))), math.nan)
    cells = draw(st.dictionaries(st.integers(0, table.size - 1), st.one_of(_FLOATS, st.just(math.inf)),
                                 max_size=6))
    table.flat[list(cells)] = list(cells.values())
    return table


@settings(max_examples=100, deadline=None)
@given(
    columns=_csv_columns(),
    table=st.one_of(
        st.lists(st.lists(st.one_of(_FLOATS, st.just(math.nan)), min_size=3, max_size=3), max_size=4).map(
            lambda table: np.array(table, dtype=float).reshape(len(table), 3)),
        _mostly_blank_tables(),
    ),
)
def test_csv_writers_match_the_reference_renderer(columns, table):
    header = ("a", "b%", "c")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, header, columns)
        assert path.read_text(encoding="utf-8") == _reference_csv([header, *zip(*columns)])
        write_neglog_csv(path, table)
        assert path.read_text(encoding="utf-8") == _reference_csv(table.tolist() or [[]])
        # each numeric column again as a float array, which is checked in one
        # pass: the same bytes, an inf written, and a NaN refused with the
        # list form's message
        arrays = [column if column and isinstance(column[0], str) else np.array(column, dtype=float)
                  for column in columns]
        write_csv(path, header, arrays)
        assert path.read_text(encoding="utf-8") == _reference_csv([header, *zip(*columns)])
        for j, column in enumerate(arrays):
            if not isinstance(column, np.ndarray) or not column.size:
                continue
            changed = [*columns[:j], [math.inf, *columns[j][1:]], *columns[j + 1:]]
            write_csv(path, header, [*arrays[:j], np.array(changed[j], dtype=float), *arrays[j + 1:]])
            assert path.read_text(encoding="utf-8") == _reference_csv([header, *zip(*changed)])
            messages = []
            for bad in ([math.nan, *columns[j][1:]], np.array([math.nan, *columns[j][1:]], dtype=float)):
                with pytest.raises(ValueError, match=f"^CSV column '{header[j]}'") as raised:
                    write_csv(path, header, [*arrays[:j], bad, *arrays[j + 1:]])
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
        # a NaN in a column of numbers, and a first cell of the other kind
        # in a column of two or more, raise naming the column
        for j, column in enumerate(columns):
            text = bool(column) and isinstance(column[0], str)
            bad = [] if text or not column else [(math.nan, "numeric fields must not be NaN")]
            if len(column) > 1:
                bad.append((0.5 if text else "x", "mixes text and numbers"))
            for cell, message in bad:
                with pytest.raises(ValueError, match=f"^CSV column '{header[j]}'.* {message}"):
                    write_csv(path, header, [*columns[:j], [cell, *column[1:]], *columns[j + 1:]])
    for cell in (column[0] for column in columns if column):
        if not isinstance(cell, str):
            assert csv_float(cell) == "%.9g" % cell


def test_complex_pair_round_trip():
    values = [1.5 - 2.25j, 0.0 + 0.0j, -3.0 + 4.0j]
    for v in values:
        assert _as_complex(_complex_pair(v)) == v
    with pytest.raises(ValueError):
        _as_complex([1.0])
    matrix = np.array([[1 + 2j, 3 - 4j], [0.1j, -0.25]])
    assert np.array_equal(_pair_block(_pair_nest(matrix), 2, "block"), matrix)


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
    assert np.array_equal(rho3.ground_block, absolute.ground_block)


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
        "format", "scale", "levels", "trajectories", "couplings", "planck_weights", "coherences"
    ]
    assert data["format"] == "joint_state/3"
    assert len(data["couplings"]) == 6 and len(data["planck_weights"]) == 18
    # one entry per aligned pair, lower flat index first, sorted
    pairs = data["coherences"]["pairs"].tolist()
    assert pairs and pairs == sorted(pairs) and all(lo < hi for lo, hi in pairs)
    assert len(data["coherences"]["overlaps"]) == len(pairs)
    path = tmp_path / "state.json"
    write_json(path, data)
    back, _, _ = block_density_from_dict(read_json(path))
    assert back.scale == "absolute" and (back.epsilon, back.T) == (0.05, 30.0)
    assert len(back.shells) == len(rho.shells)
    for got, want in zip(back.shells, rho.shells):
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.block, want.block)  # bit-exact

    # the reader's contract is the parsed file, which the mutations below edit
    data = json.loads(format_json(block_density_to_dict(rho, det.frequencies, ts)))
    # a joint_state/2 file, with or without its format tag, names the field
    old = {key: data[key] for key in ("scale", "levels", "trajectories")}
    old["ground_block"] = _pair_nest(rho.ground_block)
    old["excited_shells"] = [
        {"members": s.members.tolist(), "block": _pair_nest(s.block)} for s in rho.shells
    ]
    with pytest.raises(ValueError, match="^format: missing field"):
        block_density_from_dict(old)
    old["format"] = "joint_state/2"
    with pytest.raises(ValueError, match="^format: expected 'joint_state/3', got 'joint_state/2'"):
        block_density_from_dict(old)
    for key in ("couplings", "planck_weights", "coherences"):
        partial = {k: v for k, v in data.items() if k != key}
        with pytest.raises(ValueError, match=f"^{key}: missing field"):
            block_density_from_dict(partial)

    # the recorded levels and branches must match the factors' shape
    short = dict(data, levels=data["levels"][:-1])
    with pytest.raises(ValueError, match="^levels, couplings: 5 frequencies but 6 couplings"):
        block_density_from_dict(short)
    short = dict(data, planck_weights=data["planck_weights"][:-1])
    with pytest.raises(ValueError, match="^planck_weights: expected a list of 18 numbers"):
        block_density_from_dict(short)

    # a malformed field raises ValueError naming it, never another error
    scale = data["scale"]["absolute"]
    for key, value, message in [
        ("levels", 5, "levels: must be a nonempty list of numbers"),
        ("levels", None, "levels: must be a nonempty list of numbers"),
        ("levels", ["a"], "levels: could not convert"),
        ("scale", {"absolute": dict(scale, epsilon="x")}, "scale.absolute.epsilon: could not"),
        ("scale", {"absolute": dict(scale, T=[1.0])}, "scale.absolute.T: could not convert list"),
        # a number's string form, a bool or an int past the float range is
        # not a JSON number, whatever float() would make of it
        ("levels", [str(data["levels"][0]), *data["levels"][1:]], "levels: could not convert str"),
        ("levels", [10**400, *data["levels"][1:]], "levels: could not convert an integer past"),
        ("planck_weights", [str(data["planck_weights"][0]), *data["planck_weights"][1:]],
         "planck_weights: could not convert str"),
        ("planck_weights", [True, *data["planck_weights"][1:]], "planck_weights: could not convert bool"),
        ("planck_weights", [10**400, *data["planck_weights"][1:]],
         "planck_weights: could not convert an integer past"),
        # flat indices 0 and 1 lie on branches 0 and 1, so [0, 1] is a legal pair
        ("coherences", {"pairs": [[0, True]], "overlaps": [0.5]},
         "coherences.pairs: expected a list of \\[lower, upper\\] integer pairs"),
        ("trajectories", [dict(data["trajectories"][0], z=str(data["trajectories"][0]["z"])),
                          *data["trajectories"][1:]], "trajectories\\[0\\].z: could not convert str"),
        ("scale", {"absolute": dict(scale, epsilon=str(scale["epsilon"]))},
         "scale.absolute.epsilon: could not convert str"),
        ("scale", {"absolute": dict(scale, T=True)}, "scale.absolute.T: could not convert bool"),
        ("scale", {"absolute": dict(scale, T=10**400)}, "scale.absolute.T: could not convert an integer past"),
        ("scale", {"absolute": {}}, "scale.absolute.epsilon: missing field"),
        ("scale", {"absolute": {"epsilon": 0.05}}, "scale.absolute.T: missing field"),
        ("scale", "absolute", "scale: expected 'per_eps2T' or an absolute object"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            block_density_from_dict(dict(data, **{key: value}))
    for root in ([data], "joint_state/3", None):
        with pytest.raises(ValueError, match="^root: expected an object"):
            block_density_from_dict(root)


@pytest.mark.parametrize(
    "pairs, overlaps, message",
    [
        ([[0, 1]], [0.5, 0.5], "coherences.overlaps: expected a list of 1 numbers"),
        ([[0, 1], [0, 1]], [0.5, 0.5], "coherences.pairs: a pair occurs twice"),
        ([[1, 0]], [0.5], "coherences.pairs: need 0 <= lower < upper < 4"),
        ([[0, 4]], [0.5], "coherences.pairs: need 0 <= lower < upper < 4"),
        ([[0, 2]], [0.5], "coherences.pairs: a pair must join two branches"),
        ([[0, 1.0]], [0.5], "coherences.pairs: expected a list of \\[lower, upper\\] integer pairs"),
        ([[0, 1, 2]], [0.5], "coherences.pairs: expected a list of \\[lower, upper\\] integer pairs"),
        ([[[0], [1]]], [0.5], "coherences.pairs: expected a list of \\[lower, upper\\] integer pairs"),
        ([[0, 1]], [1.5], "coherences.overlaps: need \\|Lambda\\| <= 1"),
        ([[0, 1]], ["x"], "coherences.overlaps: could not convert"),
        ([[0, True]], [0.5], "coherences.pairs: expected a list of \\[lower, upper\\] integer pairs"),
        ([[0, 10**400]], [0.5], "coherences.pairs: need 0 <= lower < upper < 4"),
        ([[0, 1]], ["0.5"], "coherences.overlaps: could not convert str"),
    ],
)
def test_block_density_json_rejects_bad_coherences(pairs, overlaps, message):
    det, ts = _two_branch_system()
    data = json.loads(format_json(block_density_to_dict(joint_state(det, ts, tol=1e-9), det.frequencies, ts)))
    data["coherences"] = {"pairs": pairs, "overlaps": overlaps}
    with pytest.raises(ValueError, match=f"^{message}"):
        block_density_from_dict(data)


def test_block_density_json_stores_the_paper_example_overlaps():
    result = paper_example()
    ts = result.trajectories
    data = block_density_to_dict(result.state, result.detector.frequencies, ts)
    n_traj = len(ts)
    pairs = data["coherences"]["pairs"]
    assert len(pairs) > 0
    for (lower, upper), stored in zip(pairs, data["coherences"]["overlaps"]):
        (j, m), (i, n) = divmod(lower, n_traj), divmod(upper, n_traj)
        omega_j, z_m, z_n = result.detector.frequencies[j], ts[m].z, ts[n].z
        want = lam(omega_j * z_m, math.log(z_m / z_n), 0.0)
        assert stored == pytest.approx(float(want), rel=1e-12, abs=1e-15)


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
    with pytest.raises(ValueError, match="^levels: expected a list of numbers"):
        measured_from_dict([read_json(path)])
    with pytest.raises(ValueError):
        measured_to_dict(measured[:2, :2], det.frequencies, ts, basis.amplitudes)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.clear(), "levels: expected a list of numbers"),
        (lambda d: d.pop("levels"), "levels: expected a list of numbers"),
        (lambda d: d.update(levels=2.0), "levels: expected a list of numbers"),
        (lambda d: d["levels"].__setitem__(1, math.nan), "levels: expected 2 finite numbers"),
        (lambda d: d["levels"].__setitem__(1, "x"), "levels: could not convert"),
        (lambda d: d.pop("ground_block"), "ground_block: expected rows of \\[re, im\\] pairs"),
        (lambda d: d.update(excited_block=0.5), "excited_block: expected rows of \\[re, im\\] pairs"),
        (lambda d: d.update(excited_block=d["ground_block"]), "excited_block: expected a 2x2 block"),
        (lambda d: d["excited_block"][0].__setitem__(1, [0.5, 0.0, 0.0]), "excited_block: expected a \\[re, im\\] pair"),
        (lambda d: d["excited_block"][0].__setitem__(1, [0.5]), "excited_block: expected a \\[re, im\\] pair"),
        # These two ids, and three of test_cli_continuum_config_errors_name_the_field's,
        # keep the names the cases had when they matched Python's and numpy's own messages.
        pytest.param(lambda d: d["excited_block"][0].__setitem__(1, 0.5), "excited_block: expected a \\[re, im\\] pair",
                     id="<lambda>-excited_block: object of type 'float' has no len"),
        pytest.param(lambda d: d["excited_block"][1].pop(), "excited_block: expected a 2x2 block",
                     id="<lambda>-excited_block: setting an array element"),
        # a number's string form, a bool or an int past the float range is
        # not a JSON number, whatever float() would make of it
        (lambda d: d["levels"].__setitem__(1, "2.0"), "levels: could not convert str"),
        (lambda d: d["levels"].__setitem__(0, True), "levels: could not convert bool"),
        (lambda d: d["levels"].__setitem__(1, 10**400), "levels: could not convert an integer past"),
        (lambda d: d["excited_block"][0][1].__setitem__(0, "0.5"), "excited_block: could not convert str"),
        (lambda d: d["excited_block"][1][1].__setitem__(1, True), "excited_block: could not convert bool"),
        (lambda d: d["ground_block"][0][0].__setitem__(0, 10**400), "ground_block: could not convert an integer past"),
        (lambda d: d["excited_block"].pop(), "excited_block: expected a 2x2 block"),
        (lambda d: d["excited_block"][1][1].__setitem__(0, math.nan), "excited_block: expected a 2x2 block of finite"),
        (lambda d: d["ground_block"][0][0].__setitem__(1, math.inf), "ground_block: expected a 1x1 block of finite"),
        # the fields beside the blocks are checked as a joint state's are
        (lambda d: d["trajectories"][0].__setitem__("z", "0.5"), "trajectories\\[0\\].z: could not convert str"),
        (lambda d: d.pop("trajectories"), "trajectories: must be a list"),
        (lambda d: d.update(scale={"absolute": {"epsilon": "0.01", "T": 10.0}}),
         "scale.absolute.epsilon: could not convert str"),
        (lambda d: d.update(scale="absolute"), "scale: expected 'per_eps2T' or an absolute object"),
        (lambda d: d.pop("measurement"), "measurement: expected 2 amplitudes, one per trajectory"),
        (lambda d: d["measurement"].pop(), "measurement: expected 2 amplitudes, one per trajectory"),
        (lambda d: d["measurement"].__setitem__(1, [0.5]), "measurement\\[1\\]: expected a \\[re, im\\] pair"),
        (lambda d: d["measurement"].__setitem__(0, ["0.5", 0.0]), "measurement\\[0\\]: could not convert str"),
        (lambda d: d["measurement"].__setitem__(1, [math.inf, 0.0]), "measurement\\[1\\]: must be finite"),
    ],
)
def test_measured_json_rejects_bad_fields(mutate, message):
    det, ts = _two_branch_system()
    basis = MeasurementBasisVector(amplitudes=ts.amplitudes)
    measured = measured_internal(joint_state(det, ts, tol=1e-9), basis)
    data = json.loads(format_json(measured_to_dict(measured, det.frequencies, ts, basis.amplitudes)))
    mutate(data)
    with pytest.raises(ValueError, match=f"^{message}"):
        measured_from_dict(data)


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
    amps = np.array([_as_complex(t["A"]) for t in joint["trajectories"]])
    assert np.array_equal(rho.ground_block, np.outer(amps, amps.conj()))
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
    assert max(shell.members.size for shell in rho.shells) > 1
    assert len(joint["coherences"]["pairs"]) > 0
    measured = measured_to_dict(
        measured_internal(rho, cfg.measurement),
        cfg.detector.frequencies,
        cfg.trajectories,
        cfg.measurement.amplitudes,
    )
    for name, obj in (("joint_state.json", joint), ("measured_internal.json", measured)):
        assert (out / name).read_text(encoding="utf-8") == _reference_json(_listed(obj)) + "\n"


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
    # only the excited levels scale; the ground entry |B^dagger A|^2 stays
    # at leading order, as in the joint state
    assert np.allclose(scaled[1:, 1:], per[1:, 1:] * factor, rtol=1e-15, atol=0)
    assert np.allclose(scaled[0, 0], per[0, 0], rtol=1e-15, atol=0)


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

    xi, xbar = np.linspace(-3.0, 3.0, 6), np.linspace(0.0, 5.0, 6)

    for tag, q in (("0", 0.0), ("1.5", 1.5)):
        path = out / f"lambda_grid_q{tag}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "dxi,dxbar,lambda"
        assert len(lines) == 1 + 36
        dxi, dxb, lam = (float(tok) for tok in lines[8].split(","))
        assert lam == pytest.approx(float(lambda_overlap(q, dxi, dxb)), rel=1e-8)
        # every row's coordinates are the text of the grid values, dxbar fastest
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{csv_float(a)},{csv_float(b)}" for a in xi for b in xbar
        ]
    for name, column, axis in (("lambda_axis_xi.csv", "dxi", xi), ("lambda_axis_xbar.csv", "dxbar", xbar)):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == f"q,{column},lambda"
        assert len(lines) == 1 + 2 * 6
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{csv_float(q)},{csv_float(v)}" for q in (0.0, 1.5) for v in axis
        ]


@pytest.mark.parametrize(
    "q, tag",
    [("1.0000000001,1.0000000002", "1"), ("2,0.5,2", "2"), ("0,1.5,1.50000000001", "1.5"), ("0,-0", "0")],
)
def test_cli_lambda_grid_q_values_that_share_a_file_are_a_config_error(tmp_path, capsys, q, tag):
    # each q names its file by its 9-digit text
    out = tmp_path / "out"
    assert main(["lambda-grid", f"--q={q}", "--grid", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --q: ")
    assert err.endswith(f" both name lambda_grid_q{tag}.csv\n")
    assert not out.exists()


def test_cli_lambda_grid_minus_zero_writes_the_q0_file(tmp_path):
    # -0 reads as +0: its file and table rows are those of --q 0
    runs = {}
    for q in ("0", "-0"):
        out = tmp_path / q
        assert main(["lambda-grid", f"--q={q}", "--grid", "3", "--out", str(out)]) == 0
        runs[q] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert "lambda_grid_q0.csv" in runs["-0"]
    assert runs["-0"] == runs["0"]


def test_cli_oracle_validate(tmp_path, monkeypatch):
    tree = {"oracle": {"T_list": [5.0, 10.0]}}
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    grid, grids = overlaps._kbar_grid, []

    def counted_grid(**kw):
        nodes, weights = grid(**kw)
        grids.append((kw["nu_max"], nodes.size))
        return nodes, weights

    monkeypatch.setattr(overlaps, "_kbar_grid", counted_grid)
    assert main(["oracle-validate", "--config", config, "--out", str(out)]) == 0

    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "T,M,oracle,asymptotic,rel_error"
    errors = [float(r.split(",")[4]) for r in rows[1:]]
    assert len(errors) == 2
    assert errors[1] < errors[0]

    assert sorted(p.name for p in out.iterdir()) == [
        "convergence.csv", "lambda_oracle_diff.csv", "oracle_refinement.csv",
    ]

    diff_rows = (out / "lambda_oracle_diff.csv").read_text().splitlines()
    assert diff_rows[0] == "q,dxi,dxbar,closed,quadrature,diff"
    diffs = [abs(float(r.split(",")[5])) for r in diff_rows[1:]]
    assert len(diffs) == 4 * 3 * 3
    assert max(diffs) < 1e-6

    # mirrored rows share one quadrature: equal quadrature cells
    by_key = {tuple(r.split(",")[:3]): r.split(",")[4] for r in diff_rows[1:]}
    for (q, dxi, dxbar), quad in by_key.items():
        if dxi == "1.5":
            assert by_key[q, "-1.5", dxbar] == quad

    # one row per compared (q, dxi) or T: two durations, 4 q x 3 dxi
    refinement = [line.split(",") for line in (out / "oracle_refinement.csv").read_text().splitlines()]
    assert refinement[0] == ["oracle", "q", "dxi", "dxbar", "T", "change", "target"]
    calls = refinement[1:]
    assert [row[0] for row in calls] == ["finite_t"] * 2 + ["lambda_quadrature"] * 12
    assert [row[4] for row in calls[:2]] == ["5", "10"]
    assert {row[3] for row in calls[2:]} == {"0 1 2.5"}
    for row in calls:
        change, target = float(row[5]), float(row[6])
        assert 0.0 <= change <= target
        assert target == (1e-8 if row[0] == "lambda_quadrature" else 1e-10 * float(row[4]))
    lambda_rows = {(row[1], row[2]): row[5] for row in calls[2:]}
    assert all(lambda_rows[q, "-1.5"] == lambda_rows[q, "1.5"] for q in ("0", "1", "2", "10"))
    # each q = 10 call's refined pass (run first) has at least 1.4 times the
    # base pass's k nodes, so its change measures a refinement; q = 10 takes
    # one call per |dxi|
    pairs = [(fine, base) for (q, fine), (_, base) in zip(grids[::2], grids[1::2]) if q == 10.0]
    assert len(pairs) == 2
    assert all(fine >= 1.4 * base for fine, base in pairs)


def test_cli_ignores_the_retired_boost_rate_key(tmp_path):
    # interaction.rindler_a once set the finite-duration oracle's boost
    # rate, which cancels from every overlap; a config that still carries
    # it, whatever its value, writes the files of the same config without it
    for command, tree in (
        ("state", _lattice_tree()),
        ("measure", _lattice_tree()),
        ("oracle-validate", {"interaction": {}, "oracle": {"T_list": [5.0, 10.0]}}),
    ):
        base = tmp_path / command / "base"
        assert main([command, "--config", _write_config(tmp_path, tree), "--out", str(base)]) == 0
        names = sorted(p.name for p in base.iterdir())
        for k, value in enumerate((0.7, 0, 1e-310, "abc")):
            tree["interaction"]["rindler_a"] = value
            out = tmp_path / command / str(k)
            assert main([command, "--config", _write_config(tmp_path, tree), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (base / name).read_bytes(), (command, value, name)


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


def test_cli_paper_example_twice_in_one_process_writes_the_same_files(tmp_path, capsys):
    # the example is built once per process; a second run must not see any
    # state the first one left
    runs = []
    for run in range(2):
        out = tmp_path / str(run)
        assert main(["paper-example", "--out", str(out)]) == 0
        runs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert capsys.readouterr().out == "verdict: PASS\n" * 2
    assert sorted(runs[0]) == ["neglog_matrix.csv", "paper_example_report.txt"]
    assert runs[0] == runs[1]


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

    from superthermal.continuum import CouplingFunction, SmearedAmplitude

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

    # on a 2 x 3 transverse grid every row's coordinates are the text of its
    # (omega, x, y) point, in row-major order, in both slices
    tree = _continuum_tree()
    tree["continuum"]["amplitude"].update(
        y=[-0.25, 0.0, 0.25], values=[[math.sqrt(2.0 / 3.0), 0.0]] * 12, spacings=[1.0, 0.25, 0.5])
    tree["continuum"].update(z_fixed=0.5, omega_grid=[1.0, 2.0, 3.5])
    config = _write_config(tmp_path, tree, "grid.json")
    out = tmp_path / "grid"
    assert main(["continuum", "--config", config, "--out", str(out)]) == 0
    for name, s in (("continuum_slice.csv", 1.0), ("continuum_slice_rescaled.csv", 2.0)):
        zf = s * 0.5
        points = [[w / s * zf, s * x, s * y, zf] for w in (1.0, 2.0, 3.5) for x in (-0.5, 0.5)
                  for y in (-0.25, 0.0, 0.25)]
        rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
        assert [row[:7] + row[8:] for row in rows] == [
            [*map(csv_float, point), *map(csv_float, point[1:]), "0"] for point in points
        ]


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


def _complex_continuum_tree():
    # 3 x 3 x 3 grid with complex amplitudes and a complex coupling table
    rng = np.random.default_rng(2718)
    raw = rng.normal(size=27) + 1j * rng.normal(size=27)
    raw /= math.sqrt(float(np.sum(np.abs(raw) ** 2)) * 0.3 * 0.25 * 0.3)
    return {
        "continuum": {
            "amplitude": {
                "x": [-0.3, 0.0, 0.3],
                "y": [0.1, 0.35, 0.6],
                "z": [0.6, 0.9, 1.2],
                "values": [[v.real, v.imag] for v in raw],
            },
            "coupling": {
                "omega": [0.05, 1.0, 3.0, 8.0],
                "values": [[0.9, 0.1], [0.5, -0.6], [0.0, 0.7], [0.3, 0.3]],
            },
            "z_fixed": 0.9,
            "omega_grid": [0.4, 1.1, 2.7, 4.0],
        }
    }


@pytest.mark.parametrize("tree", [_continuum_tree(), _complex_continuum_tree()])
def test_cli_continuum_rows_are_the_general_kernel(tmp_path, tree):
    config = _write_config(tmp_path, tree)
    out = tmp_path / "out"
    assert main(["continuum", "--config", config, "--out", str(out)]) == 0
    system, rescaled = cli._parse_continuum(tree)
    for (amp, zeta, zf, omegas), name in (
        (system, "continuum_slice.csv"), (rescaled, "continuum_slice_rescaled.csv")
    ):
        rows = [*zip(*cli._diagonal_columns(amp, zeta, zf, omegas))]
        lines = (out / name).read_text().splitlines()[1:]
        assert [",".join(map(csv_float, row)) for row in rows] == lines
        points = [(float(x), float(y), zf) for x in amp.x for y in amp.y]
        want = [continuum_joint_kernel(w * zf, p, p, amp, zeta) for w in omegas for p in points]
        assert len(rows) == len(want)
        for row, value in zip(rows, want):
            assert row[7] == pytest.approx(value.real, rel=1e-12, abs=0.0)
            assert row[8] == "0"  # the im column is the text of exactly 0
        hx, hy, _ = amp.spacings
        kernel_sums = np.sum(np.reshape([v.real for v in want], (len(omegas), -1)), axis=1) * hx * hy
        spectrum = continuum_spectrum_slice(amp, zeta, zf, omegas)
        np.testing.assert_allclose(spectrum, kernel_sums, rtol=1e-12, atol=0.0)
    spectrum_lines = (out / "continuum_spectrum.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in spectrum_lines] == [
        csv_float(v) for v in continuum_spectrum_slice(*system)
    ]


def test_offdiag_coefficient_of_an_omega_array_is_the_scalar_calls():
    omegas = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 40.0])
    for point, point_prime in [
        ((0.3, 0.0, 1.0), (0.0, 0.5, 0.5)),
        ((0.2, -0.1, 0.7), (0.2, -0.1, 0.7)),
        ((100.0, 0.0, 1.0), (0.0, 0.0, 0.5)),
    ]:
        coefficients, partners = continuum_offdiag_coefficient(omegas, point, point_prime)
        assert coefficients.shape == partners.shape == omegas.shape
        for omega, coefficient, partner in zip(omegas, coefficients, partners):
            want = continuum_offdiag_coefficient(float(omega), point, point_prime)
            assert (float(coefficient), float(partner)) == want


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
        # a nested list is not flattened, and a scalar is not a list
        pytest.param(lambda c: c["amplitude"].update(x=[[-0.5, 0.5]]), "continuum.amplitude.x: could not convert list",
                     id="<lambda>-continuum.amplitude.x: float() argument"),
        pytest.param(lambda c: c["coupling"].update(omega=[[0.05, 1.0, 60.0]]),
                     "continuum.coupling.omega: could not convert list",
                     id="<lambda>-continuum.coupling.omega: float() argument"),
        pytest.param(lambda c: c.update(omega_grid=[[1.0], [2.0]]), "continuum.omega_grid: could not convert list",
                     id="<lambda>-continuum.omega_grid: float() argument"),
        (lambda c: c.update(omega_grid=2.0), "continuum.omega_grid: must be a nonempty list"),
        (lambda c: c["amplitude"].update(z=[]), "continuum.amplitude.z: must be a nonempty list"),
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
        shells = block_density_from_dict(read_json(out / "joint_state.json"))[0].shells
        members = sorted(i for shell in shells for i in shell.members)
        assert members == list(range(len(frequencies) * len(heights)))
        blocks = [shell.block for shell in shells]
    else:
        blocks = [measured_from_dict(read_json(out / "measured_internal.json"))[0]]
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
    joint = read_json(tmp_path / "state" / "joint_state.json")
    assert joint["coherences"] == {"pairs": [[0, 1]], "overlaps": [0.0]}
    (shell,) = block_density_from_dict(joint)[0].shells
    excited = shell.block
    assert excited[0, 1] == 0.0 and excited[1, 0] == 0.0
    assert excited[0, 0] == excited[1, 1] > 0.0

    assert main(["measure", "--config", config, "--out", str(tmp_path / "measure")]) == 0
    measured, _ = measured_from_dict(read_json(tmp_path / "measure" / "measured_internal.json"))
    # equal-weight measurement of two incoherent branches: the mean of the
    # diagonal weights, with no interference term
    assert measured[1, 1] == pytest.approx(0.5 * (excited[0, 0] + excited[1, 1]), rel=1e-14)


# Two branches at one height, 1e-8 apart across it: Lambda ~ 1, so the
# shell of the two composites is rank one.  At epsilon = 1e-160, eps^2 T
# puts its entries a few subnormal units above zero, and for 45 of the 600
# T in the grid below (this T among them) eigvalsh of the rescaled block
# gives -4.9e-324 against a trace of 4.9e-324.  The block is a Gram matrix
# times eps^2 T > 0, so it is checked before the rescaling, not after.
SUBNORMAL_RANK_ONE = {
    "detector": {"frequencies": [1.0]},
    "trajectories": [
        {"z": 1.0, "A": [0.5477225575051661, 0.0]},
        {"z": 1.0, "x": 1e-8, "A": [0.8366600265340756, 0.0]},
    ],
    "interaction": {"epsilon": 1e-160, "T": 1.8864774624373957, "q_tolerance": 1e-9},
    "output": {"scale": "absolute"},
}


def test_cli_absolute_scale_with_subnormal_entries_succeeds(tmp_path):
    config = _write_config(tmp_path, SUBNORMAL_RANK_ONE)
    for command in ("state", "measure"):
        assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 0
    rho, _, _ = block_density_from_dict(read_json(tmp_path / "state" / "joint_state.json"))
    assert (rho.scale, rho.epsilon, rho.T) == ("absolute", 1e-160, 1.8864774624373957)
    ts = TrajectorySet((
        Trajectory(z=1.0, amplitude=0.5477225575051661),
        Trajectory(z=1.0, x_perp=(1e-8, 0.0), amplitude=0.8366600265340756),
    ))
    per_unit = joint_state(DetectorSpec(frequencies=(1.0,)), ts, tol=1e-9)
    (read,) = rho.shells
    (written,) = per_unit.to_absolute(1e-160, 1.8864774624373957).shells
    assert np.array_equal(read.block, written.block)
    for T in np.linspace(1.0, 60.0, 600):
        per_unit.to_absolute(1e-160, T)


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


@pytest.mark.parametrize("q", ["1,,2", "1,2,"])
def test_cli_empty_q_entry_is_a_config_error(tmp_path, capsys, q):
    # an empty entry is refused, not dropped
    out = tmp_path / "out"
    assert main(["lambda-grid", "--out", str(out), f"--q={q}", "--grid", "4"]) == 2
    assert capsys.readouterr().err == f"config error: --q: {q!r} has an empty entry\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, tree, message",
    [
        (["oracle-validate"], {"oracle": {"T_list": [10.0, 1e308]}}, "FloatingPointError: invalid"),
    ],
    ids=["T-1e308"],
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


@pytest.mark.parametrize("t_list", [[1e-5, 10.0], [1e-8, 10.0]], ids=["T-1e-5", "T-1e-8"])
def test_cli_oracle_durations_far_below_one_over_omega_stop_before_allocating(tmp_path, t_list):
    # Far below T = 1/omega the finite-duration window widens without bound
    # (8/T orders at omega = z = 1); the oracle counts its nodes first and
    # stops at its cap, from T = 2.3e-5 down, inside a 3 GB address space
    # and without a traceback.
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


@pytest.mark.parametrize(
    "T, want", [(0.03, 0.029426126169141886387), (1e-3, 0.031667314571438681669)], ids=["T-0.03", "T-1e-3"]
)
def test_cli_oracle_durations_far_below_one_over_omega_converge_under_the_cap(tmp_path, capsys, T, want):
    # 267 and 8000 orders wide, the windows stay under the cap; the values
    # are mpmath's whole-line integral (tests/oracles.py finite_t_spectral),
    # to the CSV's 9 digits (test_overlaps checks them within 1e-12)
    config = _write_config(tmp_path, {"oracle": {"T_list": [T, 10.0]}})
    out = tmp_path / "out"
    assert main(["oracle-validate", "--config", config, "--out", str(out)]) == 0
    assert f"regime violation: T = {T:g} is below 1/omega" in capsys.readouterr().err
    row = (out / "convergence.csv").read_text().splitlines()[1].split(",")
    assert row[0] == csv_float(T) and row[2] == csv_float(want)


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

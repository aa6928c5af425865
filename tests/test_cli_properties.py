"""Exit-code property of every subcommand.

A valid config has one or two of its fields mutated: a value replaced by
0, -1, 1e-310, 1e308, +-Infinity, NaN, a string, a list or null, or the
field dropped (``lambda-grid`` draws its ``--q`` and ``--grid`` values
instead); ``state`` and ``measure`` may also move both branches to
heights from the smallest subnormal to near the largest double, with or
without a transverse offset.  Whatever the mutation, ``main`` must
return 0, 2 or 3 without raising or leaking a numpy ``RuntimeWarning``;
stderr starts with ``config error:`` for 2 and ``numerical failure:``
(or ``numerical non-convergence:``) for 3, and holds only ``warning:``
lines for 0.  A nonzero exit leaves no ``--out`` directory behind, and
a run that succeeds exits 2 with ``config error: output.directory:``
once its ``--out`` lies under a regular file.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superthermal.cli import main
from superthermal.io import block_density_from_dict, read_json

BASE = {
    "detector": {"frequencies": [1.0, 2.0], "couplings": [[1.0, 0.0], [0.5, 0.5]]},
    # (omega = 2, z = 0.5) and (omega = 1, z = 1) align: one coherence
    "trajectories": [
        {"z": 0.5, "x": 0.0, "y": 0.0, "A": [0.6, 0.0]},
        {"z": 1.0, "x": 0.3, "y": 0.4, "A": [0.0, 0.8]},
    ],
    "interaction": {"epsilon": 0.01, "T": 50.0, "q_tolerance": 0.01, "rindler_a": 1.0},
    "measurement": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
    "output": {"scale": "per_eps2T"},
}

CONTINUUM = {
    "continuum": {
        "amplitude": {
            "x": [-0.5, 0.5],
            "y": [0.0],
            "z": [0.5, 1.0],
            "values": [[0.5, 0.5], [0.5, -0.5], [0.0, 0.7071067811865476], 0.7071067811865476],
            "spacings": [1.0, 1.0, 0.5],
        },
        "coupling": {"omega": [0.05, 1.0, 60.0], "values": [1.0, [0.6, 0.8], 0.5]},
        "z_fixed": 1.0,
        "omega_grid": [1.0, 2.0],
    }
}

ORACLE = {"interaction": {"rindler_a": 1.0}, "oracle": {"T_list": [5.0, 10.0]}}

_DROP = "<drop>"
MUTATIONS = (0, -1, 1e-310, 1e308, math.inf, -math.inf, math.nan, "abc", [1.0], None, _DROP)

# Legal heights whose squares, reciprocal squares and pairwise ratios
# under- or overflow; 5e-324 is the smallest subnormal.
HEIGHTS = (5e-324, 1e-320, 1e-200, 1e-160, 2e-160, 0.5, 1e149, 1e200, 1.7976931348623157e308)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(tree, path, value) -> None:
    """Apply one mutation; a path an earlier mutation removed is skipped."""
    node = tree
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    present = key in node if isinstance(node, dict) else (
        isinstance(node, list) and isinstance(key, int) and key < len(node)
    )
    if not present:
        return
    if value == _DROP:
        del node[key]
    else:
        node[key] = copy.deepcopy(value)


def _mutated(base, mutations):
    tree = copy.deepcopy(base)
    for path, value in mutations:
        _mutate(tree, path, value)
    return tree


def _main(argv):
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


def _check_exit_contract(args, tree=None):
    """Run one command and check the exit-code contract; returns the code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if tree is not None:
            config = tmp / "config.json"
            config.write_text(json.dumps(tree), encoding="utf-8")
            args = [*args, "--config", str(config)]
        out = tmp / "out"
        code, text = _main([*args, "--out", str(out)])
        if code == 0:
            assert all(line.startswith("warning: ") for line in text.splitlines()), text
            blocker = tmp / "afile"
            blocker.write_text("", encoding="utf-8")
            code, text = _main([*args, "--out", str(blocker / "out")])
            assert code == 2, (code, text)
            assert text.startswith("config error: output.directory:"), text
            return 0
        assert not out.exists(), (code, text)
        if code == 2:
            assert text.startswith("config error:"), text
        else:
            assert code == 3, (code, text)
            assert text.startswith(("numerical failure:", "numerical non-convergence:")), text
        return code


def _mutation_lists(paths):
    return st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(MUTATIONS)), min_size=1, max_size=2
    )


@settings(max_examples=250, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(("state", "measure")),
    scale=st.sampled_from(("per_eps2T", "absolute")),
    mutations=_mutation_lists(tuple(_paths(BASE))),
    geometry=st.one_of(
        st.none(), st.tuples(st.sampled_from(HEIGHTS), st.sampled_from(HEIGHTS), st.booleans())
    ),
)
def test_mutated_configs_exit_0_2_or_3(command, scale, mutations, geometry):
    base = copy.deepcopy(BASE)
    base["output"]["scale"] = scale
    if geometry is not None:
        z_first, z_second, offset = geometry
        first, second = base["trajectories"]
        first["z"], second["z"] = z_first, z_second
        if not offset:
            second.update(x=0.0, y=0.0)
    _check_exit_contract([command], _mutated(base, mutations))


# Legal geometries at the edge of the float range, with the default
# amplitudes.  The ratio of the heights of "ratio-past-float-range" is
# 1e309, and its aligned pair (omega z = 1e-3 on both sides) needs Lambda
# where cosh(dxi) overflows; the squares of the heights of
# "subnormal-squares" are subnormal, so 1/z**2 overflows, and its aligned
# pair (omega z = 2e-160) has no transverse offset.  At the default
# tolerance 0.01 every boost energy of "subnormal-squares" would align with
# every other, which is a config error (exit 2).  The last two put a
# transverse offset at heights whose squares overflow or underflow to 0.
EDGE_GEOMETRIES = {
    "ratio-past-float-range": ([1e-152, 1e157], [{"z": 1e-160}, {"z": 1e149}], {}),
    "subnormal-squares": ([1.0, 2.0], [{"z": 1e-160}, {"z": 2e-160}], {"q_tolerance": 1e-170}),
    "offset-at-1e200": ([1.0, 2.0], [{"z": 1e200}, {"z": 1e200, "x": 1.0}], {}),
    "offset-at-1e-200": ([1.0, 2.0], [{"z": 1e-200}, {"z": 1e-200, "x": 1.0}], {}),
}


@pytest.mark.parametrize("name", EDGE_GEOMETRIES)
def test_edge_geometries_exit_0_with_a_physical_state(tmp_path, name):
    frequencies, trajectories, interaction = EDGE_GEOMETRIES[name]
    tree = {
        "detector": {"frequencies": frequencies},
        "trajectories": trajectories,
        "interaction": {"epsilon": 0.01, **interaction},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tree), encoding="utf-8")
    code, text = _main(["state", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0, text
    rho, _, _ = block_density_from_dict(read_json(tmp_path / "out" / "joint_state.json"))
    for _, block in rho.shells:
        assert np.all(np.isfinite(block))
        assert np.array_equal(block, block.conj().T)
        assert np.linalg.eigvalsh(block).min() >= -1e-12 * np.trace(block).real


@settings(max_examples=120, derandomize=True, deadline=None)
@given(mutations=_mutation_lists(tuple(_paths(CONTINUUM))))
def test_mutated_continuum_configs_exit_0_2_or_3(mutations):
    _check_exit_contract(["continuum"], _mutated(CONTINUUM, mutations))


# Huge --grid values must fail fast, before steps^2 floats per q are allocated.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    q=st.one_of(
        st.none(),
        st.sampled_from(("0", "1.5", "0,2,10", "", ",", "abc", "1,,2", "-1", "-inf", "nan",
                         "inf", "1e308", "1e-310", "0,1e308", "1e300", "5e-324")),
    ),
    grid=st.one_of(st.none(), st.sampled_from((-1, 0, 1, 2, 3, 7, 10**4, 10**6, 2**31))),
)
def test_lambda_grid_flags_exit_0_2_or_3(q, grid):
    args = ["lambda-grid"]
    if q is not None:
        args.append(f"--q={q}")
    if grid is not None:
        args.append(f"--grid={grid}")
    start = time.perf_counter()
    code = _check_exit_contract(args)
    if grid is not None and grid >= 10**4:
        assert code == 2
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [["--grid=1025", "--q=1"], ["--grid=513"]], ids=["1q", "4q"])
def test_lambda_grid_past_the_cell_cap_is_a_config_error(tmp_path, argv):
    # 2**20 cells in all: one q at --grid 1024, or the four default q at 512.
    code, text = _main(["lambda-grid", *argv, "--out", str(tmp_path / "out")])
    assert code == 2
    assert text.startswith("config error: --grid:"), text
    assert "1048576" in text
    assert not (tmp_path / "out").exists()


# Dropping any of these fields, or a T_list of [1.0], leaves a valid
# config, whose run costs seconds; test_io_cli covers the valid run.
@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(path, value, id=f"{'.'.join(map(str, path))}={value!r}")
        for path in (("oracle", "T_list"), ("oracle", "T_list", 0), ("oracle", "T_list", 1),
                     ("interaction", "rindler_a"))
        for value in MUTATIONS
        if value != _DROP and (path, value) != (("oracle", "T_list"), [1.0])
    ],
)
def test_mutated_oracle_configs_exit_2_or_3(path, value):
    assert _check_exit_contract(["oracle-validate"], _mutated(ORACLE, [(path, value)])) in (2, 3)


@pytest.mark.parametrize("directory", ["<blocked>", 5, None, ["out"]], ids=repr)
def test_paper_example_bad_output_directory_exits_2(tmp_path, directory):
    if directory == "<blocked>":
        (tmp_path / "afile").write_text("", encoding="utf-8")
        directory = str(tmp_path / "afile" / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output": {"directory": directory}}), encoding="utf-8")
    code, text = _main(["paper-example", "--config", str(config)])
    assert code == 2
    assert text.startswith("config error: output.directory:"), text

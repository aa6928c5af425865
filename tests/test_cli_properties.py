"""Exit-code property of the ``state`` and ``measure`` commands.

A valid config has one or two of its fields mutated: a value replaced by
0, -1, 1e-310, 1e308, +-Infinity, NaN, a string, a list or null, or the
field dropped.  Whatever the mutation, ``main`` must return 0, 2 or 3
without raising or leaking a numpy ``RuntimeWarning``; stderr starts with
``config error:`` for 2 and ``numerical failure:`` for 3, and holds only
``warning:`` lines for 0.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from superthermal.cli import main

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

_DROP = "<drop>"
MUTATIONS = (0, -1, 1e-310, 1e308, math.inf, -math.inf, math.nan, "abc", [1.0], None, _DROP)


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


PATHS = tuple(_paths(BASE))


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
        isinstance(node, list) and key < len(node)
    )
    if not present:
        return
    if value == _DROP:
        del node[key]
    else:
        node[key] = copy.deepcopy(value)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(("state", "measure")),
    scale=st.sampled_from(("per_eps2T", "absolute")),
    mutations=st.lists(
        st.tuples(st.sampled_from(PATHS), st.sampled_from(MUTATIONS)), min_size=1, max_size=2
    ),
)
def test_mutated_configs_exit_0_2_or_3(command, scale, mutations):
    tree = copy.deepcopy(BASE)
    tree["output"]["scale"] = scale
    for path, value in mutations:
        _mutate(tree, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(tree), encoding="utf-8")
        argv = [command, "--config", str(config), "--out", str(Path(tmp) / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
    text = err.getvalue()
    if code == 0:
        assert all(line.startswith("warning: ") for line in text.splitlines()), text
    elif code == 2:
        assert text.startswith("config error:"), text
    else:
        assert code == 3, (code, text)
        assert text.startswith("numerical failure:"), text

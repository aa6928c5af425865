"""Deterministic serialization of results to JSON and CSV.

Two fixed float formats are used everywhere:

* JSON carries 17 significant digits, enough for every IEEE double to
  round-trip bit-exactly through the text file.
* CSV plot data carries 9 significant digits, a readability compromise
  for files meant to be fed to external plotting tools.

Joint states are written as JSON objects in the sparse layout
``"format": "joint_state/2"``: fields ``scale``, ``levels``,
``trajectories``, ``ground_block`` and ``excited_shells``, a list of
``{"members": [flat indices], "block": matrix}`` objects, one per
boost-energy shell and ordered by smallest member (flat index
``level_index * branch_count + branch_index``).  Post-measurement
internal matrices keep dense ``ground_block`` and ``excited_block``
fields.  Complex numbers appear as two-element ``[re, im]`` arrays and
matrices as row-major arrays of those pairs.  Negative-log magnitude
tables are written as CSV with empty cells for absent (exactly zero)
entries.

Every writer emits keys in a fixed order with ``\\n`` line endings, so
identical inputs produce byte-identical files.

Numbers become text in a few C-level passes per artifact, not one call
per number.  :func:`format_json` gathers the floats of the object in
document order, checks them and picks each one's %-format in one
float64 array pass, then writes each rectangular nest of floats (a pair
matrix, a float list) with one ``%`` pass over a template of its
innermost lists, and one layout pass per level above them.  The CSV
writers fill one %-template per file.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .detector import BlockDensity
from .geometry import Trajectory, TrajectorySet

__all__ = [
    "format_json",
    "write_json",
    "read_json",
    "write_csv",
    "complex_pair",
    "pair_to_complex",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "block_density_to_dict",
    "block_density_from_dict",
    "parse_trajectories",
    "measured_to_dict",
    "measured_from_dict",
    "write_neglog_csv",
    "read_neglog_csv",
]

_JSON_FLOAT = "%.17g"
_JOINT_STATE_FORMAT = "joint_state/2"
_CSV_FLOAT = "%.9g"
# Each number's %-format is picked by a flag.  JSON appends ".0" where
# %.17g prints neither "." nor "e" (an integral value below 1e17 in
# magnitude), so parsers return a float and keep the sign of zero.  A
# blank CSV cell is "%.0s", which consumes its NaN and prints nothing.
_JSON_FORMATS = (_JSON_FLOAT, _JSON_FLOAT + ".0")
_CSV_FORMATS = (_CSV_FLOAT, "%.0s")
# A list is written on one line when every element is at most this long
# and has no newline.
_INLINE_WIDTH = 24


def _json_formats(values: list[float]) -> Iterator[str]:
    """The %-format of each JSON float, from one float64 array; every
    value must be finite."""
    array = np.array(values, dtype=float)
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"JSON output requires finite numbers, got {float(array[~finite][0])}")
    point = np.trunc(array) == array
    point &= np.abs(array) < 1e17
    # One byte (0 or 1) per value picks its format.
    return map(_JSON_FORMATS.__getitem__, point.tobytes())


def _csv_formats(values: list[Any], blank_nan: bool = False) -> list[str]:
    """The %-format of each CSV number; NaN is a blank cell if
    ``blank_nan``, else an error."""
    nan = list(map(math.isnan, values))
    if not blank_nan and any(nan):
        raise ValueError("CSV numeric fields must not be NaN; use an empty cell")
    return list(map(_CSV_FORMATS.__getitem__, nan))


def _literal(text: str) -> str:
    """``text`` as a piece of a %-template that prints it verbatim."""
    return text.replace("%", "%%")


def csv_float(value: float) -> str:
    """Render one float for CSV plot data (9 significant digits)."""
    value = float(value)
    return _csv_formats([value])[0] % value


def _float_nest(obj: list) -> tuple[list[float], tuple[int, ...]] | None:
    """The leaves in row-major order and the shape of ``obj`` if it is a
    rectangular nest of lists of floats, else None."""
    leaves, shape = [obj], []
    while True:
        kinds = set(map(type, leaves))
        if kinds == {list}:
            widths = set(map(len, leaves))
            if len(widths) != 1 or 0 in widths:
                return None
            shape.append(widths.pop())
            leaves = list(chain.from_iterable(leaves))
        elif kinds == {float}:
            return leaves, tuple(shape)
        else:
            return None


def _skeleton(obj: Any, leaves: list[float]) -> Any:
    """``obj`` with its text decided except for the floats, which are
    appended to ``leaves`` in document order.  A float or a float nest
    becomes ``(shape, obj)``, a mapping a dict of quoted keys, a sequence a
    list and any other value its JSON text."""
    if isinstance(obj, (float, np.floating)):
        leaves.append(obj)
        return (), obj
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, list):
        nest = _float_nest(obj)
        if nest is None:
            return [_skeleton(val, leaves) for val in obj]
        leaves.extend(nest[0])
        return nest[1], obj
    if isinstance(obj, np.ndarray):
        return _skeleton(obj.tolist(), leaves)
    if isinstance(obj, Mapping):
        return {encode_basestring_ascii(str(key)): _skeleton(val, leaves) for key, val in obj.items()}
    if isinstance(obj, (complex, np.complexfloating)):
        raise TypeError("serialize complex values as [re, im] pairs explicitly")
    if isinstance(obj, Sequence):
        return [_skeleton(val, leaves) for val in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _lists(items: list[str], width: int, indent: int) -> list[str]:
    """Each run of ``width`` rendered items as one JSON list at ``indent``:
    on one line when every item is at most 24 characters long and has no
    newline, else one item per line."""
    pad = "  " * indent
    inner = pad + "  "
    layouts = ("[\n" + inner, ",\n" + inner, "\n" + pad + "]"), ("[", ", ", "]")
    lists = []
    for start in range(0, len(items), width):
        group = items[start:start + width]
        fits = max(map(len, group)) <= _INLINE_WIDTH and not any(map(operator.contains, group, repeat("\n")))
        head, sep, tail = layouts[fits]
        lists.append(head + sep.join(group) + tail)
    return lists


def _render_nest(shape: tuple[int, ...], nest: Any, indent: int, formats: Iterator[str]) -> str:
    """The JSON text of a float nest: one ``%`` pass writes its innermost
    lists, then :func:`_lists` lays out each level above them."""
    for _ in shape[1:]:
        nest = chain.from_iterable(nest)
    # A float's text is at most 24 characters (sign, 17 digits, point and
    # exponent), so every innermost list fits on one line.
    rows = map(", ".join, zip(*[islice(formats, math.prod(shape))] * shape[-1]))
    items = (("[" + "]\0[".join(rows) + "]") % tuple(nest)).split("\0")
    for level in reversed(range(len(shape) - 1)):
        items = _lists(items, shape[level], indent + level)
    return items[0]


def _render(node: Any, indent: int, formats: Iterator[str]) -> str:
    """The JSON text of a :func:`_skeleton` node; its floats take the next
    formats in document order."""
    if isinstance(node, str):
        return node
    if isinstance(node, tuple):
        shape, nest = node
        if not shape:
            return next(formats) % nest
        return _render_nest(shape, nest, indent, formats)
    if not node:
        return "{}" if isinstance(node, dict) else "[]"
    if isinstance(node, dict):
        inner = "  " * (indent + 1)
        parts = [f"{inner}{key}: {_render(val, indent + 1, formats)}" for key, val in node.items()]
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    rendered = [_render(val, indent + 1, formats) for val in node]
    return _lists(rendered, len(node), indent)[0]


def format_json(obj: Any, indent: int = 0) -> str:
    """Serialize ``obj`` to JSON text with fixed float formatting.

    Standard ``json.dumps`` delegates float formatting to ``repr``; this
    writer pins it to 17 significant digits instead so output bytes are
    stable across Python versions.  Mapping keys keep their insertion
    order.  A list is written on one line when every element is at most
    24 characters long and has no newline, else one element per line.

    The floats of ``obj`` are checked (finite, else ``ValueError``) in one
    array pass, and each rectangular nest of floats, such as a ``[re, im]``
    pair matrix, is written by one ``%`` pass and one layout pass per
    level above its innermost lists, not by one call per number.
    """
    leaves: list[float] = []
    tree = _skeleton(obj, leaves)
    formats = _json_formats(leaves)
    # Each nest gives its floats again when it is written, so the
    # artifact's flat copy is freed before any text is built.
    del leaves
    return _render(tree, indent, formats)


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as deterministic JSON text to ``path``."""
    Path(path).write_text(format_json(obj) + "\n", encoding="utf-8", newline="\n")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file written by :func:`write_json` (or any JSON)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Write a CSV file with a header line and 9-digit numeric cells.

    Cells that are already strings pass through verbatim; numbers are
    formatted as by :func:`csv_float`, all by one ``%`` pass.  Line endings
    are ``\\n``.
    """
    cells = list(chain.from_iterable(rows))
    textual = list(map(isinstance, cells, repeat(str)))
    numbers = list(compress(cells, map(operator.not_, textual)))
    pieces = _csv_formats(numbers)
    if any(textual):
        formats = iter(pieces)
        pieces = [_literal(cell) if is_text else next(formats) for cell, is_text in zip(cells, textual)]
    pieces = iter(pieces)
    lines = [_literal(",".join(header)), *(",".join(islice(pieces, len(row))) for row in rows)]
    text = ("\n".join(lines) + "\n") % tuple(numbers)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def complex_pair(value: complex) -> list[float]:
    """Represent one complex number as a ``[re, im]`` pair."""
    value = complex(value)
    return [value.real, value.imag]


def pair_to_complex(pair: Sequence[float]) -> complex:
    """Rebuild a complex number from a ``[re, im]`` pair."""
    if len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def matrix_to_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    """Convert a complex matrix to row-major nested ``[re, im]`` pairs."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    return matrix.view(np.float64).reshape(*matrix.shape, 2).tolist()


def pairs_to_matrix(rows: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    """Rebuild a complex matrix from row-major ``[re, im]`` pairs."""
    return np.array(
        [[pair_to_complex(cell) for cell in row] for row in rows], dtype=complex
    )


def _scale_field(scale: str, epsilon: float | None, T: float | None) -> Any:
    """An artifact's ``"per_eps2T"`` or ``{"absolute": {"epsilon", "T"}}`` scale."""
    if scale == "per_eps2T":
        return "per_eps2T"
    return {"absolute": {"epsilon": float(epsilon), "T": float(T)}}


def _trajectory_entries(traj_set: TrajectorySet) -> list[dict[str, Any]]:
    return [
        {
            "z": float(traj.z),
            "x": float(traj.x_perp[0]),
            "y": float(traj.x_perp[1]),
            "A": complex_pair(traj.amplitude),
        }
        for traj in traj_set
    ]


def block_density_to_dict(
    rho: BlockDensity,
    frequencies: Sequence[float],
    traj_set: TrajectorySet,
) -> dict[str, Any]:
    """Build the ``joint_state/2`` JSON object for a two-block density
    matrix: the ground block plus one entry per excited shell."""
    if len(frequencies) != rho.level_count:
        raise ValueError("frequency list does not match the stored level count")
    if len(traj_set) != rho.traj_count:
        raise ValueError("trajectory set does not match the stored branch count")
    return {
        "format": _JOINT_STATE_FORMAT,
        "scale": _scale_field(rho.scale, rho.epsilon, rho.T),
        "levels": [float(w) for w in frequencies],
        "trajectories": _trajectory_entries(traj_set),
        "ground_block": matrix_to_pairs(rho.ground_block),
        "excited_shells": [
            {"members": shell.members.tolist(), "block": matrix_to_pairs(shell.block)}
            for shell in rho.shells
        ],
    }


def _parse_scale(field: Any) -> tuple[str, float | None, float | None]:
    if field == "per_eps2T":
        return "per_eps2T", None, None
    if isinstance(field, Mapping) and "absolute" in field:
        inner = field["absolute"]
        return "absolute", float(inner["epsilon"]), float(inner["T"])
    raise ValueError(f"unrecognized scale field: {field!r}")


def _as_complex(value: Any) -> complex:
    """A finite JSON number or ``[re, im]`` pair as a complex number."""
    if isinstance(value, (int, float)):
        out = complex(value)
    elif isinstance(value, list):
        out = pair_to_complex(value)
    else:
        raise ValueError("expected a number or [re, im] pair")
    if not cmath.isfinite(out):
        raise ValueError(f"must be finite, got {value!r}")
    return out


def parse_trajectories(entries: Any) -> TrajectorySet:
    """Build a :class:`TrajectorySet` from ``{"z", "x", "y", "A"}`` entries.

    ``x`` and ``y`` default to 0.  The amplitude ``A`` is a number or an
    ``[re, im]`` pair, given for every entry or for none; without any, the
    branches form a uniform superposition.  Invalid input raises
    ``ValueError`` with a message that starts with the offending field
    path, such as ``trajectories[0].z``.
    """
    if not isinstance(entries, list):
        raise ValueError("trajectories: must be a list of trajectory objects")
    if not entries:
        raise ValueError("trajectories: must contain at least one trajectory")
    positions = []
    amplitudes = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValueError(f"trajectories[{k}]: must be an object")
        if "z" not in entry:
            raise ValueError(f"trajectories[{k}].z: missing required field")
        fields = {"x": 0.0, "y": 0.0, "A": None}
        for key, convert in (("z", float), ("x", float), ("y", float), ("A", _as_complex)):
            if key in entry:
                try:
                    fields[key] = convert(entry[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"trajectories[{k}].{key}: {exc}") from exc
        positions.append((fields["z"], fields["x"], fields["y"]))
        amplitudes.append(fields["A"])
    given = sum(a is not None for a in amplitudes)
    if given not in (0, len(amplitudes)):
        raise ValueError(
            "trajectories: amplitudes A must be given for all trajectories or none"
        )
    if not given:
        amplitudes = [complex(1.0 / math.sqrt(len(amplitudes)))] * len(amplitudes)
    try:
        return TrajectorySet(
            Trajectory(z=z, x_perp=(x, y), amplitude=a)
            for (z, x, y), a in zip(positions, amplitudes)
        )
    except ValueError as exc:
        raise ValueError(f"trajectories: {exc}") from exc


def block_density_from_dict(data: Mapping[str, Any]) -> tuple[BlockDensity, list[float], TrajectorySet]:
    """Parse the ``joint_state/2`` object written by :func:`block_density_to_dict`.

    Returns the density matrix together with the level frequencies and
    the trajectory set recorded alongside it.  A missing field, including
    the ``format`` tag that dense files lack, raises ``ValueError``
    naming it.
    """
    for key in ("format", "scale", "levels", "trajectories", "ground_block", "excited_shells"):
        if key not in data:
            raise ValueError(f"{key}: missing field of a {_JOINT_STATE_FORMAT} file")
    if data["format"] != _JOINT_STATE_FORMAT:
        raise ValueError(f"format: expected {_JOINT_STATE_FORMAT!r}, got {data['format']!r}")
    scale, epsilon, T = _parse_scale(data["scale"])
    levels = [float(w) for w in data["levels"]]
    traj_set = parse_trajectories(data["trajectories"])
    rho = BlockDensity(
        ground_block=pairs_to_matrix(data["ground_block"]),
        scale=scale,
        epsilon=epsilon,
        T=T,
        shells=[
            (np.array(shell["members"]), pairs_to_matrix(shell["block"]))
            for shell in data["excited_shells"]
        ],
    )
    if (rho.level_count, rho.traj_count) != (len(levels), len(traj_set)):
        raise ValueError("excited_shells: blocks do not span the levels x trajectories")
    return rho, levels, traj_set


def measured_to_dict(
    matrix: np.ndarray,
    frequencies: Sequence[float],
    traj_set: TrajectorySet,
    basis_amplitudes: Sequence[complex],
    scale: Any = "per_eps2T",
) -> dict[str, Any]:
    """Build the JSON object for a post-measurement internal matrix.

    The ``(0,0)`` cell is the ground coefficient; it is stored as a 1x1
    ``ground_block`` so the schema matches the joint-state files.
    """
    matrix = np.asarray(matrix, dtype=complex)
    levels = [float(w) for w in frequencies]
    n = len(levels)
    if matrix.shape != (n + 1, n + 1):
        raise ValueError(
            f"measured matrix must be {(n + 1, n + 1)} including the ground row, "
            f"got {matrix.shape}"
        )
    return {
        "scale": scale,
        "levels": levels,
        "trajectories": _trajectory_entries(traj_set),
        "measurement": [complex_pair(b) for b in basis_amplitudes],
        "ground_block": matrix_to_pairs(matrix[:1, :1]),
        "excited_block": matrix_to_pairs(matrix[1:, 1:]),
    }


def measured_from_dict(data: Mapping[str, Any]) -> tuple[np.ndarray, list[float]]:
    """Parse a measured-matrix JSON object back to the full array."""
    levels = [float(w) for w in data["levels"]]
    ground = pairs_to_matrix(data["ground_block"])
    excited = pairs_to_matrix(data["excited_block"])
    n = len(levels)
    if ground.shape != (1, 1) or excited.shape != (n, n):
        raise ValueError("measured-matrix blocks have inconsistent shapes")
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[0, 0] = ground[0, 0]
    out[1:, 1:] = excited
    return out, levels


def write_neglog_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Write a negative-log magnitude table as CSV.

    NaN marks an exactly-zero source entry and becomes an empty cell.
    """
    matrix = np.asarray(matrix, dtype=float)
    values = matrix.ravel().tolist()
    formats = iter(_csv_formats(values, blank_nan=True))
    lines = [",".join(islice(formats, matrix.shape[1])) for _ in range(matrix.shape[0])]
    text = ("\n".join(lines) + "\n") % tuple(values)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_neglog_csv(path: str | Path) -> np.ndarray:
    """Parse a negative-log CSV back to a float matrix with NaN blanks."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append([float(c) if c.strip() else math.nan for c in line.split(",")])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in {path}")
    return np.array(rows, dtype=float)

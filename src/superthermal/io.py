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
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Mapping, Sequence
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


def _json_float(value: float) -> str:
    """Render one finite float for JSON output."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"JSON output requires finite numbers, got {value}")
    text = _JSON_FLOAT % value
    # Keep the token a float so parsers return a float (and preserve the
    # sign of zero) rather than collapsing integral values to int.
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def csv_float(value: float) -> str:
    """Render one float for CSV plot data (9 significant digits)."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("CSV numeric fields must not be NaN; use an empty cell")
    return _CSV_FLOAT % value


def format_json(obj: Any, indent: int = 0) -> str:
    """Serialize ``obj`` to JSON text with fixed float formatting.

    Standard ``json.dumps`` delegates float formatting to ``repr``; this
    recursive emitter pins it to 17 significant digits instead so output
    bytes are stable across Python versions.  Mapping keys keep their
    insertion order.
    """
    # Floats, the bulk of a state file, are tested first: the abstract
    # Mapping and Sequence checks below are slow.
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {format_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        raise TypeError("serialize complex values as [re, im] pairs explicitly")
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Sequence):
        if not obj:
            return "[]"
        rendered = [format_json(val, indent + 1) for val in obj]
        if all(len(r) <= 24 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as deterministic JSON text to ``path``."""
    Path(path).write_text(format_json(obj) + "\n", encoding="utf-8", newline="\n")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file written by :func:`write_json` (or any JSON)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Write a CSV file with a header line and 9-digit numeric cells.

    Cells that are already strings pass through verbatim; numbers are
    formatted with :func:`csv_float`.  Line endings are ``\\n``.
    """
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(csv_float(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
    matrix = np.asarray(matrix, dtype=complex)
    return [[complex_pair(cell) for cell in row] for row in matrix]


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
    lines = []
    for row in matrix:
        lines.append(",".join("" if math.isnan(v) else csv_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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

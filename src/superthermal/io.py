"""Deterministic serialization of results to JSON and CSV.

Two fixed float formats are used everywhere:

* JSON carries 17 significant digits, enough for every IEEE double to
  round-trip bit-exactly through the text file.
* CSV plot data carries 9 significant digits, a readability compromise
  for files meant to be fed to external plotting tools.

Joint states are written as the factors of their closed form, in the
layout ``"format": "joint_state/3"``: fields ``scale``, ``levels``,
``trajectories`` (whose ``A`` are the branch amplitudes), ``couplings``
(the ``zeta_i``), ``planck_weights`` (one ``P`` per composite, in flat
index order ``level_index * branch_count + branch_index``) and
``coherences``, an object of ``pairs``, the ``[lower, upper]`` flat
indices of each aligned cross-branch pair sorted by lower then upper
index, and ``overlaps``, each pair's Lambda.  The ground block
``A A^dagger`` is not stored.  The factors are per unit eps^2 T at
either scale: an absolute-scale file records ``epsilon`` and ``T``, and
its reader multiplies the assembled blocks by eps^2 T as
``BlockDensity.to_absolute`` does, so a file reads back to the written
state bit for bit.  Post-measurement internal matrices keep dense
``ground_block`` and ``excited_block`` fields.  Complex numbers appear
as two-element ``[re, im]`` arrays and matrices as row-major arrays of
those pairs.  Negative-log magnitude tables are written as CSV with
empty cells for absent (exactly zero) entries.

Every writer emits keys in a fixed order with ``\\n`` line endings, so
identical inputs produce byte-identical files.

Every number a config or an artifact file supplies is read by
:func:`~superthermal.geometry._number`, as the Python constructors read
theirs, and must be a JSON int or float: a string, a boolean, ``null``
or an int past the float range raises ``ValueError`` naming the field.

Numbers become text in a few C-level passes per array, not one call per
number, and a zero costs no formatting.  :func:`format_json` walks its
object once.  Each float or int ndarray (a pair matrix, the Planck
weights, the index pairs) is checked and its %-formats picked in one
pass over its buffer, then written by one ``%`` pass over a template of
its innermost lists and one layout pass per level above them; its float
zeros are the literals ``0.0`` and ``-0.0``, and an innermost list of
+0.0 alone, most of a measured matrix, is one literal left out of that
pass.  Scalars and Python lists, which artifacts keep for their few
small fields, are written one element at a time.  The CSV writers fill
one %-template per file: a :func:`write_csv` column is all text, written
verbatim, or all numbers, and a blank negative-log cell is a literal.  A
float ndarray column is checked for NaN in one numpy pass, a list column
(such as a table that mixes text and number columns) cell by cell.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Mapping, Sequence
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .detector import BlockDensity, DetectorSpec, StateFactors, assemble_state
from .geometry import Trajectory, TrajectorySet, _number

__all__ = [
    "format_json",
    "write_json",
    "read_json",
    "write_csv",
    "block_density_to_dict",
    "block_density_from_dict",
    "parse_trajectories",
    "measured_to_dict",
    "measured_from_dict",
    "write_neglog_csv",
    "read_neglog_csv",
]

_JSON_FLOAT = "%.17g"
_JOINT_STATE_FORMAT = "joint_state/3"
_CSV_FLOAT = "%.9g"
# The %-format of each float of a JSON array, and of each negative-log
# CSV cell, is picked by a code.  JSON appends ".0" where %.17g prints
# neither "." nor "e" (an integral value below 1e17 in magnitude), so
# parsers return a float.  A zero and a blank CSV cell (a NaN) are
# literals, which consume no value.
_JSON_FORMATS = (_JSON_FLOAT, _JSON_FLOAT + ".0", "0.0", "-0.0")
_NEGLOG_CELLS = np.array([_CSV_FLOAT, ""], dtype=object)
# A list is written on one line when every element is at most this long
# and has no newline.
_INLINE_WIDTH = 24


def _json_codes(values: np.ndarray) -> np.ndarray:
    """One byte per float of ``values``, its index in ``_JSON_FORMATS``,
    from one float64 pass; every value must be finite."""
    array = np.asarray(values, dtype=float)
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"JSON output requires finite numbers, got {float(array[~finite][0])}")
    point = np.trunc(array) == array
    point &= np.abs(array) < 1e17
    zero = array == 0.0
    # 0 or 1 for a nonzero value, 2 or 3 (by the sign bit) for a zero.
    return point.view(np.uint8) + zero + (zero & np.signbit(array))


def csv_float(value: float) -> str:
    """Render one float for CSV plot data (9 significant digits)."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("CSV numeric fields must not be NaN; use an empty cell")
    return _CSV_FLOAT % value


def _json_float(value: float) -> str:
    """One JSON float: %.17g, plus ".0" where the value is integral and
    below 1e17 in magnitude; a value that is not finite raises
    ``ValueError``."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"JSON output requires finite numbers, got {value}")
    text = _JSON_FLOAT % value
    return text + ".0" if value.is_integer() and abs(value) < 1e17 else text


def _lists(items: list[str], width: int, indent: int) -> list[str]:
    """Each run of ``width`` rendered items as one JSON list at ``indent``:
    on one line when every item is at most 24 characters long and has no
    newline, else one item per line."""
    pad = "  " * indent
    inner = "\n" + pad + "  "
    lists = []
    for start in range(0, len(items), width):
        group = items[start:start + width]
        if max(map(len, group)) <= _INLINE_WIDTH:
            # The joined line has a newline where an item has one.
            line = ", ".join(group)
            if "\n" not in line:
                lists.append("[" + line + "]")
                continue
        lists.append("[" + inner + ("," + inner).join(group) + "\n" + pad + "]")
    return lists


def _render_array(array: np.ndarray, indent: int) -> str:
    """The JSON text of a nonempty float or int array of at least one
    dimension: one ``%`` pass writes its innermost lists, then
    :func:`_lists` lays out each level above them.  A float list of +0.0
    alone is a literal, so only the other lists take that pass."""
    flat = array.ravel()
    width = array.shape[-1]
    literal = None
    if array.dtype.kind == "f":
        codes = _json_codes(flat).reshape(-1, width)
        values = flat[flat != 0.0].tolist()
        # A list of +0.0 alone (code 2) is a literal; only an array with at
        # least a list's worth of zeros can hold one.
        if flat.size - len(values) >= width:
            written = (codes != 2).any(axis=1)
            if not written.all():
                literal = "[" + ", ".join(["0.0"] * width) + "]"
                codes = codes[written]
        formats = map(_JSON_FORMATS.__getitem__, codes.tobytes())
        template = "[" + "]\0[".join(map(", ".join, zip(*[formats] * width))) + "]"
    else:
        values = flat.tolist()
        template = "\0".join(["[" + ", ".join(["%d"] * width) + "]"] * (flat.size // width))
    # A number's text is at most 24 characters (a float's sign, 17 digits,
    # point and exponent; a 64-bit integer's at most 20), so every
    # innermost list fits on one line.
    items = (template % tuple(values)).split("\0")
    if literal is not None:
        texts = np.empty(written.size, dtype=object)
        texts.fill(literal)
        np.put(texts, np.flatnonzero(written), items)
        items = texts.tolist()
    for level in reversed(range(array.ndim - 1)):
        items = _lists(items, array.shape[level], indent + level)
    return items[0]


def _render(obj: Any, indent: int) -> str:
    """The JSON text of ``obj`` at ``indent``."""
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fiu" and obj.ndim and obj.size:
            return _render_array(obj, indent)
        return _render(obj.tolist(), indent)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        parts = [
            f"{inner}{encode_basestring_ascii(str(key))}: {_render(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    if isinstance(obj, (complex, np.complexfloating)):
        raise TypeError("serialize complex values as [re, im] pairs explicitly")
    if isinstance(obj, Sequence):
        if not obj:
            return "[]"
        return _lists([_render(val, indent + 1) for val in obj], len(obj), indent)[0]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def format_json(obj: Any) -> str:
    """Serialize ``obj`` to JSON text with fixed float formatting.

    Standard ``json.dumps`` delegates float formatting to ``repr``; this
    writer pins it to 17 significant digits instead so output bytes are
    stable across Python versions.  Mapping keys keep their insertion
    order.  A list is written on one line when every element is at most
    24 characters long and has no newline, else one element per line.
    A float that is not finite raises ``ValueError``.

    ``obj`` is written in one recursive walk.  A float or int ndarray (a
    ``[re, im]`` pair matrix, a list of index pairs) is written as its
    list would be, but by one pass that checks its floats and picks their
    formats, one ``%`` pass and one layout pass per level above its
    innermost lists, not by one call per number; a float zero, and an
    innermost list of +0.0 alone, is a literal.  Scalars and Python lists
    are written element by element.
    """
    return _render(obj, 0)


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as deterministic JSON text to ``path``."""
    Path(path).write_text(format_json(obj) + "\n", encoding="utf-8", newline="\n")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file written by :func:`write_json` (or any JSON)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
    """Write a CSV file with a header line, then one row per entry of the
    equally long ``columns``, one column per header name.

    A column is all text, whose cells pass through verbatim, or all
    numbers, formatted as by :func:`csv_float`; a column that mixes the
    two raises ``ValueError`` naming its header, as does a NaN.  A float
    ndarray column is checked for NaN in one numpy pass; any other column
    is checked cell by cell.  So a caller that repeats a few values down a
    column can format each once with :func:`csv_float` and pass the texts.
    The file is written by one ``%`` pass over a row template repeated per
    row.  Line endings are ``\\n``.
    """
    width = len(columns)
    rows = len(columns[0]) if columns else 0
    cells: list[Any] = [None] * (rows * width)
    formats = []
    for j, column in enumerate(columns):
        array = isinstance(column, np.ndarray)
        values = column.tolist() if array else list(column)
        cells[j::width] = values  # a column of another length raises ValueError
        if array and column.dtype.kind == "f":
            texts, nan = 0, np.isnan(column).any()
        else:
            texts = sum(map(isinstance, values, repeat(str)))
            if 0 < texts < len(values):
                raise ValueError(f"CSV column {header[j]!r} mixes text and numbers")
            nan = not texts and any(map(math.isnan, values))
        if nan:
            raise ValueError(f"CSV column {header[j]!r}: numeric fields must not be NaN; use an empty cell")
        formats.append("%s" if texts else _CSV_FLOAT)
    body = (",".join(formats) + "\n") * rows
    text = (",".join(header).replace("%", "%%") + "\n" + body) % tuple(cells)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _complex_pair(value: complex) -> list[float]:
    """Represent one complex number as a ``[re, im]`` pair."""
    value = complex(value)
    return [value.real, value.imag]


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
            "A": _complex_pair(traj.amplitude),
        }
        for traj in traj_set
    ]


def block_density_to_dict(
    rho: BlockDensity,
    frequencies: Sequence[float],
    traj_set: TrajectorySet,
) -> dict[str, Any]:
    """Build the ``joint_state/3`` JSON object of a state built from its
    factors: the couplings, Planck weights and aligned pairs with their
    overlaps, beside the levels and trajectories.  The factors stay
    arrays: the couplings as an (L, 2) float view of their ``[re, im]``
    pairs, the Planck weights, the int64 pairs and the overlaps."""
    if rho.factors is None:
        raise ValueError("only a state built from its factors can be written as joint_state/3")
    if len(frequencies) != rho.level_count:
        raise ValueError("frequency list does not match the stored level count")
    if len(traj_set) != rho.traj_count:
        raise ValueError("trajectory set does not match the stored branch count")
    factors = rho.factors
    if traj_set.amplitudes != tuple(factors.amplitudes.tolist()):
        raise ValueError("trajectory amplitudes do not match the state's")
    return {
        "format": _JOINT_STATE_FORMAT,
        "scale": _scale_field(rho.scale, rho.epsilon, rho.T),
        "levels": [float(w) for w in frequencies],
        "trajectories": _trajectory_entries(traj_set),
        "couplings": factors.couplings.view(np.float64).reshape(-1, 2),
        "planck_weights": factors.planck_weights,
        "coherences": {
            "pairs": factors.pairs,
            "overlaps": factors.overlaps,
        },
    }


def _named(name: str, read, *args) -> Any:
    """``read(*args)``, with a ``ValueError`` it raises prefixed by ``name``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _reals(values: Any, size: int | None = None) -> list[float]:
    """A JSON list of ``size`` numbers (by default, of at least one) as floats."""
    if not isinstance(values, list) or (not values if size is None else len(values) != size):
        raise ValueError("must be a nonempty list of numbers" if size is None
                         else f"expected a list of {size} numbers")
    return [_number(v) for v in values]


def _pair(value: Any) -> list[float]:
    """A JSON ``[re, im]`` pair as two floats read by :func:`_number`."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("expected a [re, im] pair")
    return [_number(value[0]), _number(value[1])]


def _parse_scale(field: Any) -> tuple[str, float | None, float | None]:
    if field == "per_eps2T":
        return "per_eps2T", None, None
    if isinstance(field, Mapping) and "absolute" in field:
        values = []
        for key in ("epsilon", "T"):
            try:
                values.append(_number(field["absolute"][key]))
            except (KeyError, TypeError, ValueError) as exc:
                why = "missing field" if isinstance(exc, KeyError) else exc
                raise ValueError(f"scale.absolute.{key}: {why}") from exc
        return "absolute", *values
    raise ValueError(f"scale: expected 'per_eps2T' or an absolute object, got {field!r}")


def _as_complex(value: Any) -> complex:
    """A finite JSON number or ``[re, im]`` pair as a complex number."""
    out = complex(*_pair(value)) if isinstance(value, list) else complex(_number(value))
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
        for key, convert in (("z", _number), ("x", _number), ("y", _number), ("A", _as_complex)):
            if key in entry:
                try:
                    fields[key] = convert(entry[key])
                except ValueError as exc:
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
    return _named("trajectories", TrajectorySet, (
        Trajectory(z=z, x_perp=(x, y), amplitude=a) for (z, x, y), a in zip(positions, amplitudes)
    ))


def _real_array(values: Any, size: int, name: str) -> np.ndarray:
    """``size`` finite JSON numbers as a float array."""
    array = np.array(_named(name, _reals, values, size), dtype=float)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name}: expected {size} finite numbers")
    return array


def _coherences(field: Any, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``pairs`` and ``overlaps`` of a ``coherences`` field: integer
    pairs, which :func:`~superthermal.detector.assemble_state` checks, each
    with a finite |Lambda| <= 1."""
    if not isinstance(field, Mapping) or set(field) != {"pairs", "overlaps"}:
        raise ValueError("coherences: expected an object of pairs and overlaps")
    raw = field["pairs"]
    # exact types: a bool is not an index
    if not (isinstance(raw, list) and all(type(p) is list and [*map(type, p)] == [int, int] for p in raw)):
        raise ValueError("coherences.pairs: expected a list of [lower, upper] integer pairs")
    # indices clipped to [-1, dim], which fit an int64, stay out of range
    # exactly where they were
    pairs = np.array([[min(max(i, -1), dim) for i in p] for p in raw], dtype=np.int64).reshape(-1, 2)
    overlaps = _real_array(field["overlaps"], len(pairs), "coherences.overlaps")
    if not np.all(np.abs(overlaps) <= 1.0):
        raise ValueError("coherences.overlaps: need |Lambda| <= 1")
    return pairs, overlaps


def block_density_from_dict(data: Mapping[str, Any]) -> tuple[BlockDensity, list[float], TrajectorySet]:
    """Parse the ``joint_state/3`` object written by :func:`block_density_to_dict`.

    Returns the density matrix, assembled from the stored factors by
    :func:`~superthermal.detector.assemble_state` and scaled to absolute
    units as :meth:`~superthermal.detector.BlockDensity.to_absolute` does,
    together with the level frequencies and the trajectory set recorded
    alongside it.  A missing field, including the ``format`` tag that
    dense files lack, raises ``ValueError`` naming it, as does a file of
    another format, an invalid field and a root that is not an object.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"root: expected an object, got {type(data).__name__}")
    if data.get("format", _JOINT_STATE_FORMAT) != _JOINT_STATE_FORMAT:
        raise ValueError(f"format: expected {_JOINT_STATE_FORMAT!r}, got {data['format']!r}")
    for key in ("format", "scale", "levels", "trajectories", "couplings", "planck_weights", "coherences"):
        if key not in data:
            raise ValueError(f"{key}: missing field of a {_JOINT_STATE_FORMAT} file")
    scale, epsilon, T = _parse_scale(data["scale"])
    levels = _named("levels", _reals, data["levels"])
    traj_set = parse_trajectories(data["trajectories"])
    couplings = data["couplings"]
    if not isinstance(couplings, list):
        raise ValueError("couplings: expected a list of [re, im] pairs")
    det = _named("levels, couplings", lambda: DetectorSpec(levels, tuple(map(_as_complex, couplings))))
    dim = det.level_count * len(traj_set)
    weights = _real_array(data["planck_weights"], dim, "planck_weights")
    if not np.all(weights >= 0.0):
        raise ValueError("planck_weights: must be nonnegative")
    pairs, overlaps = _coherences(data["coherences"], dim)
    factors = StateFactors(
        amplitudes=np.array(traj_set.amplitudes, dtype=complex),
        couplings=np.array(det.couplings, dtype=complex),
        planck_weights=weights,
        pairs=pairs,
        overlaps=overlaps,
    )
    try:
        rho = assemble_state(factors)
    except ValueError as exc:  # the pair rule is assemble_state's, naming pairs
        if not str(exc).startswith("pairs:"):
            raise
        raise ValueError(f"coherences.{exc}") from exc
    if scale == "absolute":
        rho = _named("scale", rho.to_absolute, epsilon, T)
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
    ``ground_block`` so the schema matches the joint-state files.  Both
    blocks are float views of their ``[re, im]`` pairs.
    """
    matrix = np.asarray(matrix, dtype=complex)
    levels = [float(w) for w in frequencies]
    n = len(levels)
    if matrix.shape != (n + 1, n + 1):
        raise ValueError(
            f"measured matrix must be {(n + 1, n + 1)} including the ground row, "
            f"got {matrix.shape}"
        )
    pairs = np.ascontiguousarray(matrix).view(np.float64).reshape(n + 1, n + 1, 2)
    return {
        "scale": scale,
        "levels": levels,
        "trajectories": _trajectory_entries(traj_set),
        "measurement": [_complex_pair(b) for b in basis_amplitudes],
        "ground_block": pairs[:1, :1],
        "excited_block": pairs[1:, 1:],
    }


def _pair_block(value: Any, size: int, name: str) -> np.ndarray:
    """A ``size``-square block of finite ``[re, im]`` pairs as a complex matrix."""
    if not isinstance(value, list):
        raise ValueError(f"{name}: expected rows of [re, im] pairs")
    shape = f"{name}: expected a {size}x{size} block of finite [re, im] pairs"
    if len(value) != size or not all(isinstance(row, list) and len(row) == size for row in value):
        raise ValueError(shape)
    pairs = np.array(_named(name, lambda: [_pair(cell) for row in value for cell in row]), dtype=float)
    if not np.all(np.isfinite(pairs)):
        raise ValueError(shape)
    return pairs.reshape(-1).view(complex).reshape(size, size)


def measured_from_dict(data: Mapping[str, Any]) -> tuple[np.ndarray, list[float]]:
    """Parse a measured-matrix JSON object back to the full array.

    ``scale``, ``trajectories`` and the ``measurement`` amplitudes are
    checked too, as :func:`block_density_from_dict` checks its fields.  A
    missing field, a block of the wrong shape, a cell that is not an
    ``[re, im]`` pair and a value that is not finite raise ``ValueError``
    naming the field.
    """
    if not isinstance(data, Mapping) or not isinstance(data.get("levels"), list):
        raise ValueError("levels: expected a list of numbers")
    levels = _real_array(data["levels"], len(data["levels"]), "levels")
    n = len(levels)
    _parse_scale(data.get("scale"))
    count = len(parse_trajectories(data.get("trajectories")))
    if not isinstance(basis := data.get("measurement"), list) or len(basis) != count:
        raise ValueError(f"measurement: expected {count} amplitudes, one per trajectory")
    for k, amplitude in enumerate(basis):
        _named(f"measurement[{k}]", _as_complex, amplitude)
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[:1, :1] = _pair_block(data.get("ground_block"), 1, "ground_block")
    out[1:, 1:] = _pair_block(data.get("excited_block"), n, "excited_block")
    return out, levels.tolist()


def write_neglog_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Write a negative-log magnitude table as CSV.

    NaN marks an exactly-zero source entry and becomes an empty cell,
    written as a literal: only the other cells are formatted.
    """
    matrix = np.asarray(matrix, dtype=float)
    blank = np.isnan(matrix)
    cells = _NEGLOG_CELLS[blank.view(np.uint8)].tolist()
    text = ("\n".join(map(",".join, cells)) + "\n") % tuple(matrix[~blank].tolist())
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

"""Command-line driver: config parsing, dispatch, artifact emission.

Subcommands
-----------

``state``
    Assemble the joint detector/branch state for a configured system and
    write ``joint_state.json`` plus ``reduced_internal.json``.  The
    ``joint_state/3`` file holds the factors of the state, not its
    entries: the couplings, one Planck weight per composite in flat index
    order (``level_index * branch_count + branch_index``) and the aligned
    cross-branch pairs, lower flat index first and sorted, with their
    overlaps Lambda.  At ``output.scale`` ``absolute`` the factors stay
    per unit eps^2 T beside the recorded ``epsilon`` and ``T``, and
    ``io.block_density_from_dict`` multiplies the assembled blocks out.
``measure``
    Project onto a measured branch superposition and write
    ``measured_internal.json`` plus ``neglog_matrix.csv``.  At
    ``output.scale`` ``absolute`` only the excited levels are multiplied
    by eps^2 T; the neglog table stays per unit eps^2 T.
``lambda-grid``
    Tabulate the overlap factor over separation grids: one CSV per
    requested ``q``, named by its 9-digit text, plus the two on-axis
    CSVs.  Two ``--q`` values with the same 9-digit text (-0 reads as 0)
    would share a file, so they are a configuration error, as is an empty
    entry of the list.
``oracle-validate``
    Cross-check closed forms against the independent quadrature oracles
    and write ``convergence.csv``, ``lambda_oracle_diff.csv`` and
    ``oracle_refinement.csv`` (the change each oracle call's grid
    refinement made, against its target).
``paper-example``
    Run the built-in three-trajectory demonstration, write its 12x12
    negative-log table and a comparison report against the embedded
    reference matrix.
``continuum``
    Evaluate continuous-spectrum kernel slices on configured grids and
    write them as CSV.  Its grid axes and frequency lists must be flat,
    nonempty lists of numbers.

Configuration is one JSON file with sections ``detector``,
``trajectories``, ``interaction``, ``measurement``, ``output``,
``continuum`` and ``oracle``; complex numbers are ``[re, im]`` pairs.
A number must be a JSON number: a string, a boolean or an integer past
the float range is a configuration error.
Keys that no command reads are ignored.  A flag overrides the field
:data:`_FLAGS` names (``--out`` is ``output.directory``), and every
configuration error names its field.  Each command computes all of its
results before it creates the output directory, so a failed run writes
nothing.  Exit codes: 0 success, 2 configuration error (an output
directory that cannot be created or written into too, and a
``lambda-grid`` run of more than :data:`_MAX_GRID_CELLS` cells, q values
x ``--grid`` squared), 3 numerical failure (a quadrature that does not
converge or whose grids would pass their size cap, an overflow, NaN or
division by zero in the formulas, or a ``paper-example`` FAIL verdict).

Identical configuration produces byte-identical files: floats are
emitted through fixed formats and every iteration order is fixed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .continuum import CouplingFunction, SmearedAmplitude, _diagonal_kernel, continuum_spectrum_slice
from .detector import (
    DetectorSpec,
    MeasurementBasisVector,
    NonPSDShellError,
    compare_with_reference,
    joint_state,
    measured_internal,
    neglog_matrix,
    paper_example,
    reduced_internal,
)
from .geometry import TrajectorySet, _number, validate_regime
from .io import (
    _as_complex,
    _reals,
    _scale_field,
    block_density_to_dict,
    csv_float,
    measured_to_dict,
    parse_trajectories,
    write_csv,
    write_json,
    write_neglog_csv,
)
from .overlaps import QuadratureError, _lambda_quadrature, convergence_report
from .specfun import lambda_axis_xbar, lambda_axis_xi, lambda_overlap

__all__ = ["ConfigError", "RunConfig", "load_config", "build_run_config", "main"]

_DEFAULT_Q_LIST = (0.0, 1.0, 2.0, 10.0)
_DEFAULT_GRID_STEPS = 25
_DEFAULT_T_LIST = (10.0, 20.0, 40.0, 80.0)
_ORACLE_DIFF_DXI = (-1.5, 0.0, 1.5)
_ORACLE_DIFF_DXBAR = (0.0, 1.0, 2.5)

#: Most cells (q values x steps^2) one lambda-grid run tabulates: one q at
#: --grid 1024, which costs about 3 s and 0.5 GB (0.4 KB per cell).
_MAX_GRID_CELLS = 2**20

_ALL = ("state", "measure", "lambda-grid", "oracle-validate", "paper-example", "continuum")
_PIPELINE = ("state", "measure")

#: One row per flag: the flag, the config field it overrides (``None``:
#: a command-line value only), its type, metavar and help, and the
#: subcommands that take it.
_FLAGS = (
    ("--config", None, str, "PATH", "JSON configuration file", _ALL),
    ("--out", "output.directory", str, "DIR", "output directory", _ALL),
    ("--tol", "interaction.q_tolerance", float, "X", "frequency-alignment tolerance", _PIPELINE),
    ("--epsilon", "interaction.epsilon", float, "X", "coupling strength in (0,1)", _PIPELINE),
    ("--T", "interaction.T", float, "X", "interaction window width", _PIPELINE),
    ("--q", None, str, "LIST", "comma-separated q values", ("lambda-grid",)),
    ("--grid", None, int, "N", "grid steps per axis", ("lambda-grid",)),
)


class ConfigError(Exception):
    """Invalid or missing configuration; messages name the field."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs for the state/measure pipeline."""

    detector: DetectorSpec
    trajectories: TrajectorySet
    epsilon: float
    T: float
    q_tolerance: float
    measurement: MeasurementBasisVector | None
    scale: str


def load_config(path: str | Path | None) -> dict[str, Any]:
    """Read the JSON config file; ``None`` yields an empty tree."""
    if path is None:
        return {}
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


_MISSING = object()


def _get(tree: Mapping[str, Any], path: str, convert: Callable[[Any], Any],
         default: Any = _MISSING) -> Any:
    """Read the field at the dotted ``path`` through ``convert``.

    An absent field or section yields ``default``, or is an error without
    one.  ``TypeError`` and ``ValueError`` from ``convert`` become a
    :class:`ConfigError` naming ``path``.
    """
    parts = path.split(".")
    node = tree
    for depth, key in enumerate(parts, 1):
        if not isinstance(node, Mapping):
            raise ConfigError(f"{'.'.join(parts[:depth - 1])}: must be a JSON object")
        if key not in node:
            if default is not _MISSING:
                return default
            for flag, field_path, *_ in _FLAGS:
                if field_path == path:
                    raise ConfigError(f"{path}: missing required field (or pass {flag})")
            kind = "field" if depth == len(parts) else "section"
            raise ConfigError(f"{'.'.join(parts[:depth])}: missing required {kind}")
        node = node[key]
    try:
        return convert(node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _positive(value: Any) -> float:
    value = _number(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _unit_interval(value: Any) -> float:
    value = _number(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must lie in (0, 1), got {value}")
    return value


def _complex_list(values: Any) -> list[complex]:
    if not isinstance(values, list):
        raise ValueError("must be a list")
    return [_as_complex(v) for v in values]


def _scale_name(value: Any) -> str:
    if value not in ("per_eps2T", "absolute"):
        raise ValueError(f"expected 'per_eps2T' or 'absolute', got {value!r}")
    return value


def build_run_config(raw: Mapping[str, Any]) -> RunConfig:
    """Resolve the (flag-merged) config tree into a :class:`RunConfig`.

    Defaults: ``T`` falls back to the compromise interaction time
    ``t_recommended`` of :func:`~superthermal.geometry.validate_regime`
    (long enough for sharp frequency support, short enough for the
    perturbative bound; ``OverflowError`` where it overflows) and
    ``q_tolerance`` to ``epsilon``.  Without a ``measurement`` section,
    ``measurement`` is ``None``.
    """
    freqs = _get(raw, "detector.frequencies", _reals)
    couplings = _get(raw, "detector.couplings", _complex_list, None)
    try:
        detector = DetectorSpec(freqs, tuple(couplings) if couplings is not None else None)
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from exc
    if "trajectories" not in raw:
        raise ConfigError("trajectories: missing required section")
    try:
        trajectories = parse_trajectories(raw["trajectories"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    eps = _get(raw, "interaction.epsilon", _unit_interval)
    T_value = _get(raw, "interaction.T", _positive, None)
    if T_value is None:
        T_value = validate_regime(detector, trajectories, eps).t_recommended
        if math.isinf(T_value):
            raise OverflowError(
                f"interaction.T: the default 1/(epsilon*omega_1) overflows at epsilon = {eps:g}"
            )
    tol = _get(raw, "interaction.q_tolerance", _positive, eps)

    measurement = None
    if "measurement" in raw:
        measurement = _get(
            raw,
            "measurement.amplitudes",
            lambda v: MeasurementBasisVector(amplitudes=tuple(_complex_list(v))),
        )
        if len(measurement.amplitudes) != len(trajectories):
            raise ConfigError(
                f"measurement.amplitudes: length {len(measurement.amplitudes)} does "
                f"not match {len(trajectories)} trajectories"
            )
    scale = _get(raw, "output.scale", _scale_name, "per_eps2T")
    return RunConfig(detector, trajectories, eps, T_value, tol, measurement, scale)


def _emit_warnings(warnings: Sequence[str]) -> None:
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)


def _write_outputs(tree: Mapping[str, Any], files) -> None:
    """Create ``output.directory`` and write each ``(name, writer, *args)``
    into it as ``writer(directory / name, *args)``; called only once every
    result exists.  An ``OSError`` there is a configuration error that
    names the directory, and the file it could not write."""
    out = _get(tree, "output.directory", Path, Path("."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: {exc}") from exc
    for name, writer, *args in files:
        try:
            writer(out / name, *args)
        except OSError as exc:
            raise ConfigError(f"output.directory: cannot write {name}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _joint_state(cfg: RunConfig):
    """The configured joint state and its regime report, whose warnings the
    commands print last, so that a failed run prints only its error.  A shell
    whose pairwise alignments are not transitive is a configuration error."""
    try:
        rho = joint_state(cfg.detector, cfg.trajectories, tol=cfg.q_tolerance)
    except NonPSDShellError as exc:
        raise ConfigError(f"interaction.q_tolerance: {exc}") from exc
    return rho, validate_regime(cfg.detector, cfg.trajectories, cfg.epsilon, cfg.T, rho.max_entry)


def cmd_state(tree: Mapping[str, Any], args: argparse.Namespace) -> int:
    """Emit the joint matrix and its internal reduction."""
    cfg = build_run_config(tree)
    rho, report = _joint_state(cfg)
    emitted = rho.to_absolute(cfg.epsilon, cfg.T) if cfg.scale == "absolute" else rho
    reduced = reduced_internal(emitted)
    joint = block_density_to_dict(emitted, cfg.detector.frequencies, cfg.trajectories)
    _write_outputs(tree, [
        ("joint_state.json", write_json, joint),
        ("reduced_internal.json", write_json, {
            "scale": _scale_field(emitted.scale, emitted.epsilon, emitted.T),
            "levels": [float(w) for w in cfg.detector.frequencies],
            "values": reduced,
        }),
    ])
    _emit_warnings(report.violations)
    return 0


def cmd_measure(tree: Mapping[str, Any], args: argparse.Namespace) -> int:
    """Emit the post-measurement internal matrix and its neglog table."""
    cfg = build_run_config(tree)
    # The measured branch defaults to the preparation amplitudes.
    basis = cfg.measurement or MeasurementBasisVector(amplitudes=cfg.trajectories.amplitudes)
    rho, report = _joint_state(cfg)
    measured = measured_internal(rho, basis)
    emitted = measured
    if cfg.scale == "absolute":
        # The ground entry |B^dagger A|^2 stays at leading order, as in the joint state.
        factor = cfg.epsilon**2 * cfg.T
        if not math.isfinite(factor * float(np.max(np.abs(measured[1:, 1:])))):
            raise OverflowError(f"epsilon^2 T x measured entry overflows at T = {cfg.T:g}")
        emitted = measured.copy()
        emitted[1:, 1:] *= factor
    # The negative-log display is always per unit eps^2 T, the convention
    # in which the reference table is expressed.
    neglog = neglog_matrix(measured, cfg.detector.level_count)
    scale = _scale_field(cfg.scale, cfg.epsilon, cfg.T)
    _write_outputs(tree, [
        ("measured_internal.json", write_json, measured_to_dict(
            emitted, cfg.detector.frequencies, cfg.trajectories, basis.amplitudes, scale=scale)),
        ("neglog_matrix.csv", write_neglog_csv, neglog),
    ])
    _emit_warnings(report.violations)
    return 0


def _parse_q_list(text: str | None) -> tuple[float, ...]:
    if text is None:
        return _DEFAULT_Q_LIST
    tokens = text.split(",")
    try:
        values = tuple(float(tok) + 0.0 for tok in tokens if tok.strip())  # -0 reads as +0
    except ValueError as exc:
        raise ConfigError(f"--q: {exc}") from exc
    if not values:
        raise ConfigError("--q: expected a comma-separated list of values")
    if len(values) < len(tokens):
        raise ConfigError(f"--q: {text!r} has an empty entry")
    if any(q < 0.0 for q in values):
        raise ConfigError("--q: values must be nonnegative")
    if not all(math.isfinite(q) for q in values):
        raise ConfigError("--q: values must be finite")
    seen: dict[str, float] = {}
    for q in values:
        tag = _q_tag(q)
        if tag in seen:
            raise ConfigError(f"--q: {seen[tag]!r} and {q!r} both name lambda_grid_q{tag}.csv")
        seen[tag] = q
    return values


def _q_tag(q: float) -> str:
    text = csv_float(q)
    return text.replace("-", "m").replace("+", "")


def _texts(values) -> np.ndarray:
    """The :func:`csv_float` text of each of ``values``, as an object array:
    a table that repeats a few values down a column formats each once."""
    return np.array([csv_float(v) for v in values], dtype=object)


def cmd_lambda_grid(tree: Mapping[str, Any], args: argparse.Namespace) -> int:
    """Tabulate the overlap factor over separation grids."""
    q_list = _parse_q_list(args.q)
    steps = _DEFAULT_GRID_STEPS if args.grid is None else args.grid
    if steps < 2:
        raise ConfigError(f"--grid: need at least 2 steps per axis, got {steps}")
    if len(q_list) * steps * steps > _MAX_GRID_CELLS:
        raise ConfigError(f"--grid: {len(q_list)} q values x {steps}^2 steps pass the cap of "
                          f"{_MAX_GRID_CELLS} cells")
    xi = np.linspace(-3.0, 3.0, steps)
    xbar = np.linspace(0.0, 5.0, steps)
    xi_text, xbar_text = _texts(xi), _texts(xbar)
    # One row per (dxi, dxbar) cell, dxbar running fastest.
    grid_columns = (np.repeat(xi_text, steps), np.tile(xbar_text, steps))
    tables = []
    for q in q_list:
        values = lambda_overlap(q, xi[:, None], xbar[None, :])
        tables.append((f"lambda_grid_q{_q_tag(q)}.csv", write_csv, ("dxi", "dxbar", "lambda"),
                       (*grid_columns, values.ravel())))
    for name, axis, axis_text, closed_form in (
        ("xi", xi, xi_text, lambda_axis_xi),
        ("xbar", xbar, xbar_text, lambda_axis_xbar),
    ):
        axis_columns = (
            np.repeat(_texts(q_list), steps),
            np.tile(axis_text, len(q_list)),
            np.concatenate([closed_form(q, axis) for q in q_list]),
        )
        tables.append((f"lambda_axis_{name}.csv", write_csv, ("q", f"d{name}", "lambda"), axis_columns))
    _write_outputs(tree, tables)
    return 0


def cmd_oracle_validate(tree: Mapping[str, Any], args: argparse.Namespace) -> int:
    """Cross-check closed forms against the quadrature oracles."""
    T_list = _get(tree, "oracle.T_list", _reals, _DEFAULT_T_LIST)
    try:
        report = convergence_report(omega=1.0, z=1.0, T_list=T_list)
    except ValueError as exc:
        raise ConfigError(f"oracle.T_list: {exc}") from exc
    # One row per compared (q, dxi) or T: q, dxi, then dxbar and T as text
    # (T on finite-duration rows only; their pair is omega = 1 on one branch
    # at z = 1).  Rows that share an oracle call repeat its change.
    refinement = [("finite_t", 1.0, 0.0, "0", csv_float(r.T), r.change, r.target) for r in report.rows]

    rows = []
    dxbar = np.array(_ORACLE_DIFF_DXBAR)
    dxbar_cell = " ".join(csv_float(dxb) for dxb in _ORACLE_DIFF_DXBAR)
    closed = lambda_overlap(*np.meshgrid(_DEFAULT_Q_LIST, _ORACLE_DIFF_DXI, dxbar, indexing="ij"))
    for q, closed_q in zip(_DEFAULT_Q_LIST, closed):
        # The quadrature sees dxi only through s+ and s-, which swap with its
        # sign, so each |dxi| takes one call and its mirrored rows share it.
        quads = {m: _lambda_quadrature(q, m, dxbar) for m in dict.fromkeys(map(abs, _ORACLE_DIFF_DXI))}
        for dxi, closed_row in zip(_ORACLE_DIFF_DXI, closed_q):
            quad, change, target = quads[abs(dxi)]
            refinement.append(("lambda_quadrature", q, dxi, dxbar_cell, "", change, target))
            rows += [(q, dxi, dxb, c, v, v - c) for dxb, c, v in zip(_ORACLE_DIFF_DXBAR, closed_row, quad)]

    convergence = ("T", "M", "oracle", "asymptotic", "rel_error")
    _write_outputs(tree, [
        ("convergence.csv", write_csv, convergence,
         [[getattr(r, name) for r in report.rows] for name in convergence]),
        ("lambda_oracle_diff.csv", write_csv,
         ("q", "dxi", "dxbar", "closed", "quadrature", "diff"), [*zip(*rows)]),
        ("oracle_refinement.csv", write_csv,
         ("oracle", "q", "dxi", "dxbar", "T", "change", "target"), [*zip(*refinement)]),
    ])
    _emit_warnings(report.warnings)
    return 0


def cmd_paper_example(tree: Mapping[str, Any], args: argparse.Namespace) -> int:
    """Run the three-trajectory demonstration and compare to the reference."""
    result = paper_example()
    ok, problems = compare_with_reference(result.neglog)
    lines = [
        "three-trajectory demonstration: 12 levels, z = (0.5, 1.0, 1.5)",
        f"entries compared against the embedded reference table: "
        f"{int(np.sum(~np.isnan(result.neglog)))} printed, "
        f"{int(np.sum(np.isnan(result.neglog)))} absent",
        f"verdict: {'PASS' if ok else 'FAIL'}",
    ]
    mismatches = [f"mismatch: {p}" for p in problems]
    _write_outputs(tree, [
        ("neglog_matrix.csv", write_neglog_csv, result.neglog),
        ("paper_example_report.txt", _write_text, "\n".join(lines + mismatches) + "\n"),
    ])
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    for line in mismatches:
        print(line, file=sys.stderr)
    return 0 if ok else 3


def _parse_continuum(tree: Mapping[str, Any]):
    """The ``continuum`` section as two ``(amplitude, coupling, z_fixed,
    omega_grid)`` systems: the configured one and its exact scale
    transformation (lengths doubled, frequencies halved), which must be
    representable too."""
    x, y, z = (np.array(_get(tree, f"continuum.amplitude.{key}", _reals)) for key in "xyz")
    values = _get(tree, "continuum.amplitude.values", _complex_list)
    expected = x.size * y.size * z.size
    if len(values) != expected:
        raise ConfigError(
            f"continuum.amplitude.values: expected {expected} row-major samples, got {len(values)}"
        )
    spacings = _get(tree, "continuum.amplitude.spacings", lambda v: _reals(v, 3), None)
    try:
        grid_values = np.array(values, dtype=complex).reshape(x.size, y.size, z.size)
        amplitude = SmearedAmplitude(x, y, z, grid_values, spacings)
    except ValueError as exc:
        raise ConfigError(f"continuum.amplitude: {exc}") from exc
    omega = np.array(_get(tree, "continuum.coupling.omega", _reals))
    coupling_values = _get(tree, "continuum.coupling.values", _complex_list)
    if omega.size != len(coupling_values):
        raise ConfigError("continuum.coupling: omega and values must have equal length")
    try:
        coupling = CouplingFunction(omega=omega, values=np.array(coupling_values, dtype=complex))
    except ValueError as exc:
        raise ConfigError(f"continuum.coupling: {exc}") from exc
    try:
        with np.errstate(over="ignore"):  # an infinite doubled grid is rejected
            scaled = SmearedAmplitude(
                2.0 * amplitude.x, 2.0 * amplitude.y, 2.0 * amplitude.z,
                amplitude.values / math.sqrt(8.0), tuple(2.0 * s for s in amplitude.spacings),
            )
        scaled_coupling = CouplingFunction(omega=0.5 * coupling.omega, values=coupling.values)
    except ValueError as exc:
        raise ConfigError(
            f"continuum: rescaled system (lengths doubled, frequencies halved): {exc}"
        ) from exc

    def grid_height(value: Any) -> float:
        height = _number(value)
        amplitude.index_of((amplitude.x[0], amplitude.y[0], height))
        return height

    z_fixed = _get(tree, "continuum.z_fixed", grid_height)
    omega_grid = np.array(_get(tree, "continuum.omega_grid", _reals))
    if not np.all(omega_grid > 0.0):
        raise ConfigError("continuum.omega_grid: must be positive frequencies")
    # The rescaled system halves both the grid and the table, so this one
    # check covers it too.
    lo, hi = float(coupling.omega[0]), float(coupling.omega[-1])
    if not np.all((omega_grid >= lo) & (omega_grid <= hi)):
        raise ConfigError(
            f"continuum.omega_grid: must lie within the coupling table [{lo:g}, {hi:g}]"
        )
    return (
        (amplitude, coupling, z_fixed, omega_grid),
        (scaled, scaled_coupling, 2.0 * z_fixed, 0.5 * omega_grid),
    )


def _diagonal_columns(amp: SmearedAmplitude, zeta: CouplingFunction, zf: float, omegas):
    """The slice table's columns, one row per (omega, x, y): the diagonal
    kernel at q = omega zf, which is real.  Every column but the kernel's
    repeats a few values, so it is text."""
    values = _diagonal_kernel(amp, zeta, zf, omegas)
    axes = (_texts(omegas * zf), _texts(amp.x), _texts(amp.y))
    q, x, y = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    z = [csv_float(zf)] * q.size
    return q, x, y, z, x, y, z, values.ravel(), [csv_float(0.0)] * q.size


def cmd_continuum(tree: Mapping[str, Any], args: argparse.Namespace) -> int:
    """Emit diagonal kernel slices for a configured continuum system.

    ``continuum_slice.csv`` holds the diagonal kernel at every transverse
    grid point for each requested frequency; the ``_rescaled`` companion
    holds the same system after the exact scale transformation (grid
    doubled, frequencies halved), whose entries differ by the constant
    grid-measure factor and nothing else, so corresponding rows of the
    two files have a fixed ratio.  ``continuum_spectrum.csv`` holds the
    transverse-aggregated spectrum at the fixed height.
    """
    system, rescaled = _parse_continuum(tree)
    _, _, z_fixed, omega_grid = system
    header = ("q", "x", "y", "z", "xp", "yp", "zp", "re", "im")
    spectrum = continuum_spectrum_slice(*system)
    _write_outputs(tree, [
        ("continuum_slice.csv", write_csv, header, _diagonal_columns(*system)),
        ("continuum_slice_rescaled.csv", write_csv, header, _diagonal_columns(*rescaled)),
        ("continuum_spectrum.csv", write_csv, ("omega", "q", "value"),
         (omega_grid, omega_grid * z_fixed, spectrum)),
    ])
    return 0


_COMMANDS = {
    "state": (cmd_state, "emit the joint matrix and its reduction"),
    "measure": (cmd_measure, "emit the post-measurement matrix"),
    "lambda-grid": (cmd_lambda_grid, "tabulate the overlap factor"),
    "oracle-validate": (cmd_oracle_validate, "run quadrature cross-checks"),
    "paper-example": (cmd_paper_example, "run the three-trajectory demonstration"),
    "continuum": (cmd_continuum, "emit continuum kernel slices"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="superthermal",
        description=(
            "Accelerated-trajectory superposition toolkit: joint detector/field "
            "states, overlap factors, and their validation oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=text)
        # Each subcommand takes only the flags it reads.
        for flag, _, kind, metavar, flag_help, commands in _FLAGS:
            if command in commands:
                subparser.add_argument(flag, metavar=metavar, type=kind, help=flag_help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        tree = load_config(args.config)
        for flag, path, *_ in _FLAGS:
            value = getattr(args, flag[2:], None)
            if path is not None and value is not None:
                section, key = path.split(".")
                node = tree.setdefault(section, {})
                if isinstance(node, dict):  # otherwise reading the field reports the section
                    node[key] = value
        # An overflow, NaN or division by zero in the formulas is a
        # numerical failure, not a warning next to a wrong number.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command][0](tree, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

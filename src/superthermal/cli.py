"""Command-line driver: config parsing, dispatch, artifact emission.

Subcommands
-----------

``state``
    Assemble the joint detector/branch state for a configured system and
    write ``joint_state.json`` (one block per boost-energy shell) plus
    ``reduced_internal.json``.
``measure``
    Project onto a measured branch superposition and write
    ``measured_internal.json`` plus ``neglog_matrix.csv``.
``lambda-grid``
    Tabulate the overlap factor over separation grids: one CSV per
    requested ``q`` plus the two on-axis CSVs.
``oracle-validate``
    Cross-check closed forms against the independent quadrature oracles
    and write ``convergence.csv``, ``lambda_oracle_diff.csv``,
    ``a_sweep.csv`` and ``oracle_refinement.csv`` (the change each oracle
    call's grid refinement made, against its target).
``paper-example``
    Run the built-in three-trajectory demonstration, write its 12x12
    negative-log table and a comparison report against the embedded
    reference matrix.
``continuum``
    Evaluate continuous-spectrum kernel slices on configured grids and
    write them as CSV.

Configuration is one JSON file with sections mirroring
:class:`RunConfig`: ``detector``, ``trajectories``, ``interaction``,
``measurement``, ``output``, ``continuum``.  Complex numbers are
``[re, im]`` pairs.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (a quadrature that does not converge, an overflow or
division by zero in the formulas, or a ``paper-example`` FAIL verdict).

Identical configuration produces byte-identical files: floats are
emitted through fixed formats and every iteration order is fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .continuum import (
    CouplingFunction,
    SmearedAmplitude,
    continuum_joint_kernel,
    continuum_spectrum_slice,
)
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
from .geometry import Trajectory, TrajectorySet, validate_regime
from .io import (
    _as_complex,
    _scale_field,
    block_density_to_dict,
    csv_float,
    measured_to_dict,
    parse_trajectories,
    write_csv,
    write_json,
    write_neglog_csv,
)
from .overlaps import (
    _FINITE_T_TARGET,
    _LAMBDA_TARGET,
    QuadratureError,
    _lambda_quadrature,
    _overlap_finite_t,
    convergence_report,
)
from .specfun import lambda_axis_xbar, lambda_axis_xi, lambda_overlap

__all__ = ["ConfigError", "RunConfig", "load_config", "build_run_config", "main"]

_DEFAULT_Q_LIST = (0.0, 1.0, 2.0, 10.0)
_DEFAULT_GRID_STEPS = 25
_DEFAULT_T_LIST = (10.0, 20.0, 40.0, 80.0)
_ORACLE_DIFF_DXI = (-1.5, 0.0, 1.5)
_ORACLE_DIFF_DXBAR = (0.0, 1.0, 2.5)
_A_SWEEP_VALUES = (0.5, 1.0, 2.0)


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
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _section(tree: Mapping[str, Any], path: str, required: bool = False) -> Mapping[str, Any] | None:
    """The object at ``path`` (dotted; its last part is the key in ``tree``)."""
    name = path.rsplit(".", 1)[-1]
    if name not in tree:
        if required:
            raise ConfigError(f"{path}: missing required section")
        return None
    value = tree[name]
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: must be a JSON object")
    return value


_MISSING = object()


def _field(
    section: Mapping[str, Any] | None,
    where: str,
    key: str,
    convert: Callable[[Any], Any] = float,
    default: Any = _MISSING,
) -> Any:
    """Read ``section[key]`` through ``convert``.

    An absent field yields ``default``, or is an error without one.
    ``TypeError`` and ``ValueError`` from ``convert`` become a
    :class:`ConfigError` naming the field path ``where.key``.
    """
    if section is None or key not in section:
        if default is _MISSING:
            raise ConfigError(f"{where}.{key}: missing required field")
        return default
    try:
        return convert(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


def _positive(value: Any) -> float:
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _unit_interval(value: Any) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must lie in (0, 1), got {value}")
    return value


def _nonempty_list(value: Any) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError("must be a nonempty list")
    return value


def _complex_list(values: Any) -> list[complex]:
    if not isinstance(values, list):
        raise ValueError("must be a list")
    return [_as_complex(v) for v in values]


def _float_tuple(values: Any) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _float_array(values: Any) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _parse_detector(raw: Mapping[str, Any]) -> DetectorSpec:
    section = _section(raw, "detector", required=True)
    freqs = _field(section, "detector", "frequencies", lambda v: _float_tuple(_nonempty_list(v)))
    couplings = _field(section, "detector", "couplings", _complex_list, None)
    try:
        return DetectorSpec(
            frequencies=freqs,
            couplings=tuple(couplings) if couplings is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from exc


def _scale_name(value: Any) -> str:
    if value not in ("per_eps2T", "absolute"):
        raise ValueError(f"expected 'per_eps2T' or 'absolute', got {value!r}")
    return value


def build_run_config(
    raw: Mapping[str, Any],
    *,
    epsilon: float | None = None,
    T: float | None = None,
    q_tolerance: float | None = None,
    need_measurement: bool = False,
) -> RunConfig:
    """Resolve the config tree plus flag overrides into a :class:`RunConfig`.

    Defaults: ``T`` falls back to the compromise interaction time
    ``t_recommended`` of :func:`~superthermal.geometry.validate_regime`
    (long enough for sharp frequency support, short enough for the
    perturbative bound; ``OverflowError`` where it overflows) and
    ``q_tolerance`` to ``epsilon``.
    """
    detector = _parse_detector(raw)
    if "trajectories" not in raw:
        raise ConfigError("trajectories: missing required section")
    try:
        trajectories = parse_trajectories(raw["trajectories"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    interaction = dict(_section(raw, "interaction") or {})
    flags = {"epsilon": epsilon, "T": T, "q_tolerance": q_tolerance}
    interaction.update((key, value) for key, value in flags.items() if value is not None)
    if "epsilon" not in interaction:
        raise ConfigError(
            "interaction.epsilon: missing required field (or pass --epsilon)"
        )
    eps = _field(interaction, "interaction", "epsilon", _unit_interval)
    T_value = _field(interaction, "interaction", "T", _positive, None)
    if T_value is None:
        T_value = validate_regime(detector, trajectories, eps).t_recommended
        if math.isinf(T_value):
            raise OverflowError(
                f"interaction.T: the default 1/(epsilon*omega_1) overflows at epsilon = {eps:g}"
            )
    tol = _field(interaction, "interaction", "q_tolerance", _positive, eps)

    measurement = None
    meas_section = _section(raw, "measurement")
    if meas_section is not None:
        measurement = _field(
            meas_section,
            "measurement",
            "amplitudes",
            lambda v: MeasurementBasisVector(amplitudes=tuple(_complex_list(v))),
        )
        if len(measurement.amplitudes) != len(trajectories):
            raise ConfigError(
                f"measurement.amplitudes: length {len(measurement.amplitudes)} does "
                f"not match {len(trajectories)} trajectories"
            )
    elif need_measurement:
        # The measured branch defaults to the preparation amplitudes.
        measurement = MeasurementBasisVector(amplitudes=trajectories.amplitudes)

    return RunConfig(
        detector=detector,
        trajectories=trajectories,
        epsilon=eps,
        T=T_value,
        q_tolerance=tol,
        measurement=measurement,
        scale=_field(_section(raw, "output"), "output", "scale", _scale_name, "per_eps2T"),
    )


def _emit_warnings(warnings: Sequence[str]) -> None:
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)


def _ensure_out_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _joint_state(cfg: RunConfig):
    """The configured joint state and its regime report, whose warnings the
    commands print last, so that a failed run prints only its error.  A shell
    whose pairwise alignments are not transitive is a configuration error."""
    try:
        rho = joint_state(cfg.detector, cfg.trajectories, tol=cfg.q_tolerance)
    except NonPSDShellError as exc:
        raise ConfigError(f"interaction.q_tolerance: {exc}") from exc
    return rho, validate_regime(cfg.detector, cfg.trajectories, cfg.epsilon, cfg.T, rho.max_entry)


def cmd_state(cfg: RunConfig, out_dir: Path) -> int:
    """Emit the joint matrix and its internal reduction."""
    rho, report = _joint_state(cfg)
    emitted = rho.to_absolute(cfg.epsilon, cfg.T) if cfg.scale == "absolute" else rho
    out = _ensure_out_dir(out_dir)
    write_json(
        out / "joint_state.json",
        block_density_to_dict(emitted, cfg.detector.frequencies, cfg.trajectories),
    )
    reduced = reduced_internal(emitted)
    write_json(
        out / "reduced_internal.json",
        {
            "scale": _scale_field(emitted.scale, emitted.epsilon, emitted.T),
            "levels": [float(w) for w in cfg.detector.frequencies],
            "values": [float(v) for v in reduced],
        },
    )
    _emit_warnings(report.violations)
    return 0


def cmd_measure(cfg: RunConfig, out_dir: Path) -> int:
    """Emit the post-measurement internal matrix and its neglog table."""
    rho, report = _joint_state(cfg)
    measured = measured_internal(rho, cfg.measurement)
    emitted = measured
    if cfg.scale == "absolute":
        factor = cfg.epsilon**2 * cfg.T
        if not math.isfinite(factor * float(np.max(np.abs(measured)))):
            raise OverflowError(f"epsilon^2 T x measured entry overflows at T = {cfg.T:g}")
        emitted = measured * factor
    out = _ensure_out_dir(out_dir)
    write_json(
        out / "measured_internal.json",
        measured_to_dict(
            emitted,
            cfg.detector.frequencies,
            cfg.trajectories,
            cfg.measurement.amplitudes,
            scale=_scale_field(cfg.scale, cfg.epsilon, cfg.T),
        ),
    )
    # The negative-log display is always per unit eps^2 T, the convention
    # in which the reference table is expressed.
    write_neglog_csv(
        out / "neglog_matrix.csv",
        neglog_matrix(measured, cfg.detector.level_count),
    )
    _emit_warnings(report.violations)
    return 0


def _parse_q_list(text: str | None) -> tuple[float, ...]:
    if text is None:
        return _DEFAULT_Q_LIST
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"--q: {exc}") from exc
    if not values:
        raise ConfigError("--q: expected a comma-separated list of values")
    if any(q < 0.0 for q in values):
        raise ConfigError("--q: values must be nonnegative")
    return values


def _q_tag(q: float) -> str:
    text = csv_float(q)
    return text.replace("-", "m").replace("+", "")


def cmd_lambda_grid(out_dir: Path, q_list: tuple[float, ...], steps: int) -> int:
    """Tabulate the overlap factor over separation grids."""
    if steps < 2:
        raise ConfigError(f"--grid: need at least 2 steps per axis, got {steps}")
    out = _ensure_out_dir(out_dir)
    xi = np.linspace(-3.0, 3.0, steps)
    xbar = np.linspace(0.0, 5.0, steps)
    for q in q_list:
        values = lambda_overlap(q, xi[:, None], xbar[None, :])
        rows = []
        for i, dxi in enumerate(xi):
            for j, dxb in enumerate(xbar):
                rows.append((dxi, dxb, values[i, j]))
        write_csv(out / f"lambda_grid_q{_q_tag(q)}.csv", ("dxi", "dxbar", "lambda"), rows)
    axis_rows = []
    for q in q_list:
        values = lambda_axis_xi(q, xi)
        axis_rows.extend((q, dxi, v) for dxi, v in zip(xi, values))
    write_csv(out / "lambda_axis_xi.csv", ("q", "dxi", "lambda"), axis_rows)
    axis_rows = []
    for q in q_list:
        values = lambda_axis_xbar(q, xbar)
        axis_rows.extend((q, dxb, v) for dxb, v in zip(xbar, values))
    write_csv(out / "lambda_axis_xbar.csv", ("q", "dxbar", "lambda"), axis_rows)
    return 0


def cmd_oracle_validate(out_dir: Path, rindler_a: float, T_list: Sequence[float]) -> int:
    """Cross-check closed forms against the quadrature oracles."""
    out = _ensure_out_dir(out_dir)
    try:
        report = convergence_report(omega=1.0, z=1.0, a=rindler_a, T_list=T_list)
    except ValueError as exc:
        raise ConfigError(f"oracle.T_list: {exc}") from exc
    _emit_warnings(report.warnings)
    write_csv(
        out / "convergence.csv",
        ("T", "M", "oracle", "asymptotic", "rel_error"),
        [(r.T, r.M, r.oracle, r.asymptotic, r.rel_error) for r in report.rows],
    )
    # One row per oracle call: q, dxi, dxbar, then T and a (finite-duration
    # calls only; their pair is omega = 1 on one branch at z = 1).
    same_branch = (1.0, 0.0, "0")
    refinement = [
        ("finite_t", *same_branch, r.T, rindler_a, r.change, _FINITE_T_TARGET * r.T)
        for r in report.rows
    ]

    rows = []
    dxbar_cell = " ".join(csv_float(dxb) for dxb in _ORACLE_DIFF_DXBAR)
    for q in _DEFAULT_Q_LIST:
        for dxi in _ORACLE_DIFF_DXI:
            quad, change = _lambda_quadrature(q, dxi, _ORACLE_DIFF_DXBAR)
            refinement.append(("lambda_quadrature", q, dxi, dxbar_cell, "", "", change, _LAMBDA_TARGET))
            for dxb, quad_value in zip(_ORACLE_DIFF_DXBAR, quad):
                closed = float(lambda_overlap(q, dxi, dxb))
                rows.append((q, dxi, dxb, closed, quad_value, quad_value - closed))
    write_csv(
        out / "lambda_oracle_diff.csv",
        ("q", "dxi", "dxbar", "closed", "quadrature", "diff"),
        rows,
    )

    traj = Trajectory(z=1.0)
    T_ref = float(T_list[-1])
    sweep_rows = []
    for a in _A_SWEEP_VALUES:
        value, change = _overlap_finite_t(1.0, traj, 1.0, traj, T_ref, a)
        refinement.append(("finite_t", *same_branch, T_ref, a, change, _FINITE_T_TARGET * T_ref))
        sweep_rows.append((a, T_ref, value))
    write_csv(out / "a_sweep.csv", ("a", "T", "oracle"), sweep_rows)
    write_csv(
        out / "oracle_refinement.csv",
        ("oracle", "q", "dxi", "dxbar", "T", "a", "change", "target"),
        refinement,
    )
    return 0


def cmd_paper_example(out_dir: Path) -> int:
    """Run the three-trajectory demonstration and compare to the reference."""
    result = paper_example()
    out = _ensure_out_dir(out_dir)
    write_neglog_csv(out / "neglog_matrix.csv", result.neglog)
    ok, problems = compare_with_reference(result.neglog)
    lines = [
        "three-trajectory demonstration: 12 levels, z = (0.5, 1.0, 1.5)",
        f"entries compared against the embedded reference table: "
        f"{int(np.sum(~np.isnan(result.neglog)))} printed, "
        f"{int(np.sum(np.isnan(result.neglog)))} absent",
        f"verdict: {'PASS' if ok else 'FAIL'}",
    ]
    mismatches = [f"mismatch: {p}" for p in problems]
    (out / "paper_example_report.txt").write_text(
        "\n".join(lines + mismatches) + "\n", encoding="utf-8", newline="\n"
    )
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    for line in mismatches:
        print(line, file=sys.stderr)
    return 0 if ok else 3


def _spacings(value: Any) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError("expected [dx, dy, dz]")
    return _float_tuple(value)


def _parse_amplitude_section(section: Mapping[str, Any]) -> SmearedAmplitude:
    where = "continuum.amplitude"
    x, y, z = (_field(section, where, key, _float_array) for key in ("x", "y", "z"))
    values = _field(section, where, "values", _complex_list)
    expected = x.size * y.size * z.size
    if len(values) != expected:
        raise ConfigError(
            f"{where}.values: expected {expected} row-major samples, got {len(values)}"
        )
    spacings = _field(section, where, "spacings", _spacings, None)
    try:
        return SmearedAmplitude(
            x=x,
            y=y,
            z=z,
            values=np.array(values, dtype=complex).reshape(x.size, y.size, z.size),
            spacings=spacings,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_coupling_section(section: Mapping[str, Any]) -> CouplingFunction:
    where = "continuum.coupling"
    omega = _field(section, where, "omega", _float_array)
    values = _field(section, where, "values", _complex_list)
    if omega.size != len(values):
        raise ConfigError(f"{where}: omega and values must have equal length")
    try:
        return CouplingFunction(omega=omega, values=np.array(values, dtype=complex))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def cmd_continuum(raw: Mapping[str, Any], out_dir: Path) -> int:
    """Emit diagonal kernel slices for a configured continuum system.

    ``continuum_slice.csv`` holds the diagonal kernel at every transverse
    grid point for each requested frequency; the ``_rescaled`` companion
    holds the same system after the exact scale transformation (grid
    doubled, frequencies halved), whose entries differ by the constant
    grid-measure factor.  ``continuum_spectrum.csv`` holds the
    transverse-aggregated spectrum at the fixed height.
    """
    section = _section(raw, "continuum", required=True)
    amplitude = _parse_amplitude_section(_section(section, "continuum.amplitude", required=True))
    coupling = _parse_coupling_section(_section(section, "continuum.coupling", required=True))

    def grid_height(value: Any) -> float:
        height = float(value)
        amplitude.index_of((amplitude.x[0], amplitude.y[0], height))
        return height

    z_fixed = _field(section, "continuum", "z_fixed", grid_height)
    omega_grid = _field(section, "continuum", "omega_grid", _float_array)
    if omega_grid.ndim != 1 or omega_grid.size == 0 or not np.all(omega_grid > 0.0):
        raise ConfigError("continuum.omega_grid: must be positive frequencies")
    # The rescaled pass halves both the grid and the table, so this one
    # check covers it too.
    lo, hi = float(coupling.omega[0]), float(coupling.omega[-1])
    if not np.all((omega_grid >= lo) & (omega_grid <= hi)):
        raise ConfigError(
            f"continuum.omega_grid: must lie within the coupling table [{lo:g}, {hi:g}]"
        )

    out = _ensure_out_dir(out_dir)
    header = ("q", "x", "y", "z", "xp", "yp", "zp", "re", "im")

    def _diagonal_rows(amp: SmearedAmplitude, zeta: CouplingFunction, zf: float, omegas):
        rows = []
        for omega in omegas:
            q = float(omega) * zf
            for xv in amp.x:
                for yv in amp.y:
                    point = (float(xv), float(yv), zf)
                    value = continuum_joint_kernel(q, point, point, amp, zeta)
                    rows.append(
                        (q, point[0], point[1], zf, point[0], point[1], zf,
                         value.real, value.imag)
                    )
        return rows

    write_csv(
        out / "continuum_slice.csv",
        header,
        _diagonal_rows(amplitude, coupling, z_fixed, omega_grid),
    )

    # Exact scale transformation: lengths doubled, frequencies halved.
    # Kernel entries pick up the constant grid-measure factor and nothing
    # else, so corresponding rows of the two files have a fixed ratio.
    scaled_amp = SmearedAmplitude(
        x=2.0 * amplitude.x,
        y=2.0 * amplitude.y,
        z=2.0 * amplitude.z,
        values=amplitude.values / math.sqrt(8.0),
        spacings=tuple(2.0 * s for s in amplitude.spacings),
    )
    scaled_coupling = CouplingFunction(
        omega=0.5 * coupling.omega, values=coupling.values
    )
    write_csv(
        out / "continuum_slice_rescaled.csv",
        header,
        _diagonal_rows(scaled_amp, scaled_coupling, 2.0 * z_fixed, 0.5 * omega_grid),
    )

    spectrum = continuum_spectrum_slice(amplitude, coupling, z_fixed, omega_grid)
    write_csv(
        out / "continuum_spectrum.csv",
        ("omega", "q", "value"),
        [(w, w * z_fixed, v) for w, v in zip(omega_grid, spectrum)],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads.
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", metavar="PATH", help="JSON configuration file")
    base.add_argument("--out", metavar="DIR", help="output directory")
    pipeline = argparse.ArgumentParser(add_help=False, parents=[base])
    pipeline.add_argument("--tol", metavar="X", type=float, help="frequency-alignment tolerance")
    pipeline.add_argument("--epsilon", metavar="X", type=float, help="coupling strength in (0,1)")
    pipeline.add_argument("--T", metavar="X", type=float, help="interaction window width")
    grid = argparse.ArgumentParser(add_help=False, parents=[base])
    grid.add_argument("--q", metavar="LIST", help="comma-separated q values")
    grid.add_argument("--grid", metavar="N", type=int, help="grid steps per axis")

    parser = argparse.ArgumentParser(
        prog="superthermal",
        description=(
            "Accelerated-trajectory superposition toolkit: joint detector/field "
            "states, overlap factors, and their validation oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("state", parents=[pipeline], help="emit the joint matrix and its reduction")
    sub.add_parser("measure", parents=[pipeline], help="emit the post-measurement matrix")
    sub.add_parser("lambda-grid", parents=[grid], help="tabulate the overlap factor")
    sub.add_parser("oracle-validate", parents=[base], help="run quadrature cross-checks")
    sub.add_parser("paper-example", parents=[base], help="run the three-trajectory demonstration")
    sub.add_parser("continuum", parents=[base], help="emit continuum kernel slices")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        if args.out is not None:
            out_dir = Path(args.out)
        else:
            out_dir = Path(_field(_section(raw, "output"), "output", "directory", str, "."))
        if args.command in ("state", "measure"):
            cfg = build_run_config(
                raw,
                epsilon=args.epsilon,
                T=args.T,
                q_tolerance=args.tol,
                need_measurement=args.command == "measure",
            )
        if args.command in ("state", "measure", "oracle-validate"):
            # Only oracle-validate uses the boost rate, but every command
            # that reads the interaction section rejects a bad one.
            rindler_a = _field(
                _section(raw, "interaction"), "interaction", "rindler_a", _positive, 1.0
            )
        if args.command == "state":
            return cmd_state(cfg, out_dir)
        if args.command == "measure":
            return cmd_measure(cfg, out_dir)
        if args.command == "lambda-grid":
            steps = args.grid if args.grid is not None else _DEFAULT_GRID_STEPS
            return cmd_lambda_grid(out_dir, _parse_q_list(args.q), steps)
        if args.command == "oracle-validate":
            T_list = _field(_section(raw, "oracle"), "oracle", "T_list", _float_tuple, _DEFAULT_T_LIST)
            return cmd_oracle_validate(out_dir, rindler_a, T_list)
        if args.command == "paper-example":
            return cmd_paper_example(out_dir)
        if args.command == "continuum":
            return cmd_continuum(raw, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
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

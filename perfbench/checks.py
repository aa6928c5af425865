"""Output checks, computed from the benchmark's own closed forms.

Each check reads only schema-stable artifacts (``joint_state.json`` is
never parsed) and raises :class:`CheckFailed` with a reason when an
output is wrong.  Nothing here imports the package under test.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _rel_close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def planck(omega: float, z: float) -> float:
    """omega / (exp(2 pi omega z) - 1), written to stay finite for large
    products (where the program's own factor overflows)."""
    x = 2.0 * math.pi * omega * z
    return omega * math.exp(-x) / -math.expm1(-x)


def own_lambda(q: float, dxi, dxbar) -> np.ndarray:
    """Overlap factor sqrt(sech dxi) sin(q a) / (q sinh a),
    cosh a = cosh dxi + dxbar^2 sech(dxi) / 2, with the a -> 0 and
    q -> 0 limits taken explicitly."""
    dxi = np.asarray(dxi, dtype=float)
    dxbar = np.asarray(dxbar, dtype=float)
    sech = 1.0 / np.cosh(dxi)
    alpha = np.arccosh(np.cosh(dxi) + 0.5 * dxbar**2 * sech)
    safe = np.where(alpha > 0.0, alpha, 1.0)
    ratio = (np.sin(q * safe) / q if q > 0.0 else safe) / np.sinh(safe)
    return np.sqrt(sech) * np.where(alpha > 0.0, ratio, 1.0)


def _printed_match(printed: float, exact: float, abs_slack: float = 0.0) -> bool:
    """Whether ``printed`` is ``exact`` rounded to 9 significant digits."""
    if exact == 0.0:
        return abs(printed) <= abs_slack
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 8)
    return abs(printed - exact) <= 0.5 * unit * (1.0 + 1e-6) + abs_slack


def _read_csv(path: Path) -> list[dict[str, str]]:
    _require(path.is_file(), f"{path.name} missing")
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _detector(config: dict):
    det = config["detector"]
    freqs = [float(w) for w in det["frequencies"]]
    couplings = [_complex(c) for c in det.get("couplings", [[1.0, 0.0]] * len(freqs))]
    trajs = config["trajectories"]
    heights = [float(t["z"]) for t in trajs]
    uniform = [1.0 / math.sqrt(len(trajs)), 0.0]
    amps = np.array([_complex(t.get("A", uniform)) for t in trajs])
    return freqs, couplings, heights, amps


def check_state(op: dict, out: Path, stdout: str) -> None:
    """``reduced_internal.json`` equals the Planck mixture
    W_i = sum_n |A_n|^2 |zeta_i|^2 planck(omega_i, z_n) / (2 pi),
    times eps^2 T when the config asks for absolute scale."""
    config = op["config"]
    freqs, couplings, heights, amps = _detector(config)
    factor = 1.0
    if config.get("output", {}).get("scale") == "absolute":
        inter = config["interaction"]
        eps = float(inter["epsilon"])
        T = float(inter.get("T", 1.0 / (eps * freqs[0])))
        factor = eps * eps * T
    _require((out / "joint_state.json").is_file(), "joint_state.json missing")
    data = json.loads((out / "reduced_internal.json").read_text())
    values = data["values"]
    _require(len(values) == len(freqs), "reduced_internal.json has the wrong level count")
    weights = np.abs(amps) ** 2
    for i, (w, zeta) in enumerate(zip(freqs, couplings)):
        want = factor * abs(zeta) ** 2 * sum(
            a2 * planck(w, z) for a2, z in zip(weights, heights)
        ) / (2.0 * math.pi)
        _require(_rel_close(float(values[i]), want, 1e-12),
                 f"reduced_internal level {i}: {values[i]!r} != Planck mixture {want!r}")


def check_measure(op: dict, out: Path, stdout: str) -> None:
    """``measured_internal.json`` is Hermitian, its (0,0) entry is
    |sum_n conj(B_n) A_n|^2 and its trace is positive."""
    config = op["config"]
    freqs, _, _, amps = _detector(config)
    if "measurement" in config:
        basis = np.array([_complex(b) for b in config["measurement"]["amplitudes"]])
    else:
        basis = amps
    data = json.loads((out / "measured_internal.json").read_text())
    ground = data["ground_block"]
    excited = data["excited_block"]
    n = len(freqs)
    _require(len(ground) == 1 and len(excited) == n, "measured_internal.json has the wrong shape")
    matrix = np.zeros((n + 1, n + 1), dtype=complex)
    matrix[0, 0] = _complex(ground[0][0])
    matrix[1:, 1:] = [[_complex(cell) for cell in row] for row in excited]
    scale = max(float(np.max(np.abs(matrix))), 1.0)
    dev = float(np.max(np.abs(matrix - matrix.conj().T)))
    _require(dev <= 1e-12 * scale, f"measured_internal not Hermitian (deviation {dev:.3e})")
    want = abs(np.vdot(basis, amps)) ** 2
    _require(abs(matrix[0, 0].imag) <= 1e-15 and _rel_close(matrix[0, 0].real, want, 1e-12),
             f"measured (0,0) = {matrix[0, 0]!r}, expected |B.A|^2 = {want!r}")
    _require(float(np.trace(matrix).real) > 0.0, "measured_internal trace is not positive")
    _require((out / "neglog_matrix.csv").is_file(), "neglog_matrix.csv missing")


def check_paper_example(op: dict, out: Path, stdout: str) -> None:
    report = (out / "paper_example_report.txt").read_text()
    _require("verdict: PASS" in report.splitlines() and "verdict: PASS" in stdout,
             "paper-example verdict is not PASS")


def _q_tag(q: float) -> str:
    return ("%.9g" % q).replace("-", "m").replace("+", "")


def check_lambda_grid(op: dict, out: Path, stdout: str) -> None:
    """Every printed Lambda equals the benchmark's own closed form to
    the 9 printed digits (with 1e-12 absolute slack at sign changes)."""
    argv = op["argv"]
    steps = int(argv[argv.index("--grid") + 1])
    qs = [float(q) for q in argv[argv.index("--q") + 1].split(",")]
    xi = np.linspace(-3.0, 3.0, steps)
    xbar = np.linspace(0.0, 5.0, steps)
    for q in qs:
        rows = _read_csv(out / f"lambda_grid_q{_q_tag(q)}.csv")
        _require(len(rows) == steps * steps, f"q={q}: expected {steps * steps} grid rows")
        want = own_lambda(q, xi[:, None], xbar[None, :]).ravel()
        for row, value in zip(rows, want):
            _require(_printed_match(float(row["lambda"]), float(value), 1e-12),
                     f"lambda grid q={q} at ({row['dxi']}, {row['dxbar']}): "
                     f"{row['lambda']} != {value!r}")
    for name, want in (
        ("lambda_axis_xi.csv", [own_lambda(q, xi, 0.0) for q in qs]),
        ("lambda_axis_xbar.csv", [own_lambda(q, 0.0, xbar) for q in qs]),
    ):
        rows = _read_csv(out / name)
        _require(len(rows) == steps * len(qs), f"{name}: wrong row count")
        for row, value in zip(rows, np.concatenate(want)):
            _require(_printed_match(float(row["lambda"]), float(value), 1e-12),
                     f"{name} q={row['q']}: {row['lambda']} != {float(value)!r}")


def check_continuum(op: dict, out: Path, stdout: str) -> None:
    """``continuum_spectrum.csv`` equals
    S(w) = [sum_xy |A|^2 hx hy] |zeta(w)|^2 planck(w, z) / (z sqrt(2 pi))
    to the 9 printed digits."""
    section = op["config"]["continuum"]
    amp = section["amplitude"]
    nx, ny, nz = len(amp["x"]), len(amp["y"]), len(amp["z"])
    values = np.array([_complex(v) for v in amp["values"]]).reshape(nx, ny, nz)
    hx, hy, _ = (float(h) for h in amp["spacings"])
    z = float(section["z_fixed"])
    iz = [float(v) for v in amp["z"]].index(z)
    transverse = float(np.sum(np.abs(values[:, :, iz]) ** 2)) * hx * hy
    table = np.array(section["coupling"]["omega"], dtype=float)
    zeta = np.array([_complex(v) for v in section["coupling"]["values"]])
    rows = _read_csv(out / "continuum_spectrum.csv")
    omegas = [float(w) for w in section["omega_grid"]]
    _require(len(rows) == len(omegas), "continuum_spectrum.csv: wrong row count")
    for row, w in zip(rows, omegas):
        z2 = np.interp(w, table, zeta.real) ** 2 + np.interp(w, table, zeta.imag) ** 2
        want = transverse * z2 * planck(w, z) / (z * math.sqrt(2.0 * math.pi))
        for column, value in (("omega", w), ("q", w * z), ("value", want)):
            _require(_printed_match(float(row[column]), value),
                     f"continuum spectrum at omega={w}: {column} {row[column]} != {value!r}")
    _require((out / "continuum_slice.csv").is_file() and (out / "continuum_slice_rescaled.csv").is_file(),
             "continuum slice files missing")


def check_oracle_validate(op: dict, out: Path, stdout: str) -> None:
    rows = _read_csv(out / "lambda_oracle_diff.csv")
    _require(bool(rows), "lambda_oracle_diff.csv is empty")
    worst = max(abs(float(row["diff"])) for row in rows)
    _require(worst < 1e-6, f"oracle-validate: worst |diff| {worst:.3e} >= 1e-6")
    _require(bool(_read_csv(out / "convergence.csv")), "convergence.csv is empty")


def check_lambda(op: dict, quadrature: np.ndarray, closed: np.ndarray, dxbar: np.ndarray) -> None:
    """Quadrature within 1e-6 of the program's closed form, which in turn
    matches the benchmark's own closed form."""
    worst = float(np.max(np.abs(quadrature - closed)))
    _require(worst < 1e-6, f"lambda_check q={op['q']} dxi={op['dxi']}: worst diff {worst:.3e}")
    own = own_lambda(op["q"], op["dxi"], dxbar)
    dev = float(np.max(np.abs(closed - own)))
    _require(dev < 1e-10, f"lambda_overlap differs from the closed form by {dev:.3e}")


def finite_t_reference(op: dict) -> tuple[float, float]:
    """(closed form, sharpness M) of a finite-duration pair: the geometric
    mean of the two diagonal norms T planck / (2 pi) times Lambda."""
    w_i, (z_n, x_n, y_n) = op["omega_i"], op["n"]
    w_j, (z_m, x_m, y_m) = op["omega_j"], op["m"]
    T = op["T"]
    d_i = T * planck(w_i, z_n) / (2.0 * math.pi)
    d_j = T * planck(w_j, z_m) / (2.0 * math.pi)
    dxbar = math.hypot(x_m - x_n, y_m - y_n) * math.sqrt(0.5 * (1.0 / z_m**2 + 1.0 / z_n**2))
    q = max(w_i * z_n, w_j * z_m)
    closed = math.sqrt(d_i * d_j) * float(own_lambda(q, math.log(z_m / z_n), dxbar))
    M = (w_i * z_m + w_j * z_n) ** 2 * T * T / (z_m**2 + z_n**2)
    return closed, M


def check_finite_t(op: dict, oracle: float, closed: float) -> None:
    own, M = finite_t_reference(op)
    _require(_rel_close(closed, own, 1e-10),
             f"closed-form overlap {closed!r} differs from {own!r}")
    _require(_rel_close(oracle, closed, 10.0 / M),
             f"finite-T oracle {oracle!r} not within 10/M = {10.0 / M:.3e} of {closed!r}")


CLI_CHECKS = {
    "state": check_state,
    "measure": check_measure,
    "paper_example": check_paper_example,
    "lambda_grid": check_lambda_grid,
    "continuum": check_continuum,
    "oracle_validate": check_oracle_validate,
}

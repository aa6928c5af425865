"""Closed-loop benchmark of the ``superthermal`` package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 24 --trace 0

One client in one process runs the workload's seeded operations back
to back, each through the package's public entry points in-process
(``superthermal.cli.main(argv)`` on generated configs, or a public
oracle function), and checks every output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
pass.  The last line of standard output is the result object; the line
before it is the full record (environment, per-kind latencies, failures).

Exits with code 2, printing no result, when ``src/superthermal`` is not
next to this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# BLAS threads are pinned (to one, at most nproc) before numpy is imported:
# single-threaded BLAS keeps timings steadier on shared machines.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_small", "state_scale", "oracle")

#: Per workload: ops in the fixed traced prefix, and the percentile
#: reported as ``<kind>_s_tail`` with the per-kind sample count it needs
#: (at least ten samples beyond it).  Kinds with fewer samples in a run
#: report p50 only.
SETTINGS = {
    "cli_small": {"trace_ops": 120, "tail": (97, 334)},
    "state_scale": {"trace_ops": 8, "tail": None},
    "oracle": {"trace_ops": 8, "tail": None},
}
SETUP_REPEATS = 5
KINDS = ("state", "measure", "paper_example", "lambda_grid", "continuum",
         "lambda_check", "finite_t_check", "oracle_validate")


def _import_package():
    src = ROOT / "src"
    if not (src / "superthermal" / "__init__.py").is_file():
        print(f"error: {src / 'superthermal'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import superthermal
    import superthermal.cli
    import superthermal.continuum
    import superthermal.detector
    import superthermal.overlaps
    import superthermal.specfun

    if Path(superthermal.__file__).resolve().parent != (src / "superthermal").resolve():
        print(f"error: imported superthermal from {superthermal.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return superthermal


class Runner:
    """Executes operations in-process and checks their outputs."""

    def __init__(self, package, work: Path, tracer=None) -> None:
        self.pkg = package
        self.work = work
        self.tracer = tracer

    def _span(self, name: str, layer: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)

    def _call(self, module, name: str, *args):
        fn = getattr(module, name)
        if getattr(fn, "traced", False):
            return fn(*args)
        layer = module.__name__.rsplit(".", 1)[-1]
        with self._span(f"{layer}.{name}", layer):
            return fn(*args)

    def run(self, op: dict) -> dict:
        """Run one op; returns its latency and, on failure, why."""
        out = self.work / "out"
        if out.exists():
            shutil.rmtree(out)
        record = {"kind": op["kind"], "large_q": bool(op.get("large_q"))}
        argv = None
        if "argv" in op:
            argv = [*op["argv"], "--out", str(out)]
            if "config" in op:
                path = self.work / "config.json"
                path.write_bytes(workloads.config_bytes(op))
                argv += ["--config", str(path)]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with self._span("bench.op", "bench"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if argv is not None:
                    with self._span("cli.main", "cli"):
                        code = self.pkg.cli.main(argv)
                else:
                    result = self._direct(op)
            record["latency_s"] = time.perf_counter() - start
        except (Exception, SystemExit) as exc:
            record["latency_s"] = time.perf_counter() - start
            record["error"] = type(exc).__name__
            record["layer"] = self._failing_layer(exc)
            record["message"] = str(exc)[:200]
            return record
        try:
            if argv is not None:
                expected = op.get("expect_exit", 0)
                if code != expected:
                    record["error"] = f"exit{code}"
                    record["layer"] = "cli"
                    record["message"] = sink.getvalue()[-200:]
                    return record
                if expected == 0:
                    checks.CLI_CHECKS[op["kind"]](op, out, sink.getvalue())
            else:
                self._check_direct(op, result)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            record["error"] = "CheckFailed"
            record["layer"] = "cli" if argv is not None else "overlaps"
            record["message"] = str(exc)[:200]
            record["wrong_output"] = True
        return record

    def _failing_layer(self, exc: BaseException) -> str:
        if self.tracer is not None:
            layer = self.tracer.raising_layer(exc)
            if layer is not None and layer != "bench":
                return layer
        layer = "cli"
        package_dir = str(ROOT / "src" / "superthermal")
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            filename = frame.f_code.co_filename
            if filename.startswith(package_dir):
                layer = Path(filename).stem
        return layer

    def _direct(self, op: dict):
        pkg = self.pkg
        if op["kind"] == "lambda_check":
            dxbar = np.linspace(0.0, 5.0, 25)
            quad = self._call(pkg.overlaps, "oracle_lambda_quadrature", op["q"], op["dxi"], dxbar)
            closed = self._call(pkg.specfun, "lambda_overlap", op["q"], op["dxi"], dxbar)
            return quad, closed, dxbar
        traj_n = pkg.geometry.Trajectory(z=op["n"][0], x_perp=tuple(op["n"][1:]))
        traj_m = pkg.geometry.Trajectory(z=op["m"][0], x_perp=tuple(op["m"][1:]))
        args = (op["omega_i"], traj_n, op["omega_j"], traj_m, op["T"])
        oracle = self._call(pkg.overlaps, "oracle_overlap_finite_t", *args)
        if traj_n == traj_m and op["omega_i"] == op["omega_j"]:
            closed = self._call(pkg.overlaps, "diag_overlap", op["omega_i"], op["n"][0], op["T"])
        else:
            closed = self._call(pkg.overlaps, "offdiag_overlap", *args, 1e-9).value.real
        return oracle, closed

    def _check_direct(self, op: dict, result) -> None:
        if op["kind"] == "lambda_check":
            checks.check_lambda(op, *result)
        else:
            checks.check_finite_t(op, float(result[0]), float(result[1]))


def _schedule(workload: str, seed: int):
    cycle = 0
    while True:
        yield workloads.CYCLES[workload](seed, cycle)
        cycle += 1


def _latencies(records: list[dict], workload: str) -> dict[str, dict]:
    """Per-kind median and tail of successful ops, at the reference speed
    (``raw_p50`` as measured)."""
    tail_pct, tail_n = SETTINGS[workload]["tail"] or (None, math.inf)
    out = {}
    for kind in KINDS:
        done = [r for r in records if r["kind"] == kind and "error" not in r]
        if not done:
            continue
        samples = [r["latency_s"] * r["speed"] for r in done]
        out[f"{kind}_s_p50"] = {"value": statistics.median(samples), "unit": "s", "samples": len(samples),
                                "raw_p50": statistics.median(r["latency_s"] for r in done)}
        if len(samples) >= tail_n:
            tail = statistics.quantiles(samples, n=100, method="inclusive")[tail_pct - 1]
            out[f"{kind}_s_tail"] = {"value": tail, "unit": "s",
                                     "percentile": tail_pct, "samples": len(samples)}
    return out


def _environment(seed: int, trace: int) -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "superthermal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "trace": trace,
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def _warm_up(runner: Runner, workload: str) -> None:
    for op in workloads.warmup_ops(workload):
        record = runner.run(op)
        if "error" in record:
            raise RuntimeError(f"warm-up {op['kind']} failed: {record}")


def _probe(workload: str) -> int:
    """Set-up only: import, warm up, report readiness on stdout."""
    package = _import_package()
    work = ROOT / ".perfbench_work" / f"probe-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _warm_up(Runner(package, work), workload)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _setup_seconds(workload: str, speed) -> list[float]:
    """Process start to ready, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                _, err = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
            if line.strip() != "ready" or child.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {err[-500:]}")
        samples.append(elapsed)
        speed.owe(elapsed)
    return samples


def _summary(records: list[dict]) -> dict:
    failed = [r for r in records if "error" in r]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "wrong_outputs": sum(1 for r in failed if r.get("wrong_output")),
        "large_q_attempted": sum(1 for r in records if r["large_q"]),
        "errors": sorted({(r["kind"], r["error"], r["layer"], r["large_q"]) for r in failed}),
        "first_failures": [
            {k: r[k] for k in ("kind", "error", "layer", "large_q", "message")} for r in failed[:5]
        ],
    }


def _untraced(runner: Runner, workload: str, seed: int, seconds: float, speed):
    """Whole cycles while the next one is expected to end within
    ``seconds``.  Each record gets the mean speed factor of the reference
    samples bracketing it.  Returns the records and the loop's wall time."""
    records: list[dict] = []
    pending: list[dict] = []
    cycle_times: list[float] = []
    before = reference.NOMINAL_S / speed.sample()

    def settle(after: float) -> float:
        for record in pending:
            record["speed"] = 0.5 * (before + after)
        pending.clear()
        return after

    start = time.perf_counter()
    for cycle in _schedule(workload, seed):
        cycle_start = time.perf_counter()
        for op in cycle:
            records.append(runner.run(op))
            pending.append(records[-1])
            after = speed.owe(records[-1]["latency_s"])
            if after is not None:
                before = settle(after)
        cycle_times.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(cycle_times) > seconds:
            if pending:
                settle(reference.NOMINAL_S / speed.sample())
            return records, elapsed
    raise AssertionError("unreachable")


def _prefix(workload: str, seed: int) -> list[dict]:
    ops: list[dict] = []
    for cycle in _schedule(workload, seed):
        ops.extend(cycle)
        if len(ops) >= SETTINGS[workload]["trace_ops"]:
            return ops[: SETTINGS[workload]["trace_ops"]]
    raise AssertionError("unreachable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args.workload)

    process_start = time.perf_counter()
    package = _import_package()
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(package, work)
        _warm_up(runner, args.workload)
        own_setup = time.perf_counter() - process_start
        record = {"workload": args.workload, "environment": _environment(args.seed, args.trace),
                  "own_setup_s": own_setup}
        if args.trace == 0:
            setup_speed = reference.SpeedProbe(duty=0.2)
            setups = _setup_seconds(args.workload, setup_speed)
            speed = reference.SpeedProbe(duty=0.05)
            records, wall = _untraced(runner, args.workload, args.seed, args.seconds, speed)
            summary = _summary(records)
            succeeded = [r for r in records if "error" not in r]

            def rates(scale) -> dict[str, float]:
                """Successful ops per second of time inside the program,
                and the geometric mean and median of successful latencies
                (with no success at all, the failures' latencies stand in)."""
                latencies = [r["latency_s"] * scale(r) for r in succeeded or records]
                return {
                    "ops_per_s": len(succeeded) / sum(r["latency_s"] * scale(r) for r in records),
                    "op_s_geomean": statistics.geometric_mean(latencies),
                    "op_s_p50": statistics.median(latencies),
                }

            raw = {"setup_s": statistics.median(setups), **rates(lambda r: 1.0)}
            # Gated times are stated at the reference speed (see reference.py).
            normalized = rates(lambda r: r["speed"])
            metrics = {
                "setup_s": {"value": raw["setup_s"] * setup_speed.factor, "unit": "s"},
                "ops_per_s": {"value": normalized["ops_per_s"], "unit": "1/s"},
                "op_s_geomean": {"value": normalized["op_s_geomean"], "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
            record.update(summary)
            record.update({
                "raw_metrics": raw,
                "op_s_p50": normalized["op_s_p50"],
                "speed_factor": speed.factor,
                "setup_speed_factor": setup_speed.factor,
                "reference_samples": len(speed.samples) + len(setup_speed.samples),
                "setup_samples_s": setups,
                "loop_wall_s": wall,
                "error_rate": summary["failed"] / summary["attempted"],
                "large_q_share": summary["large_q_attempted"] / summary["attempted"],
                "latency": _latencies(records, args.workload),
            })
        else:
            tracer = tracing.Tracer()
            traced_runner = Runner(package, work, tracer)
            plain, records = [], []
            plain_wall = traced_wall = 0.0
            # Each op runs untraced and traced back to back, alternating
            # which goes first, so neither pass pays the other's cold start.
            for i, op in enumerate(_prefix(args.workload, args.seed)):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    start = time.perf_counter()
                    if traced:
                        with tracing.patched(tracer, package):
                            records.append(traced_runner.run(op))
                        traced_wall += time.perf_counter() - start
                    else:
                        plain.append(runner.run(op))
                        plain_wall += time.perf_counter() - start
            summary = _summary(records)
            summary["wrong_outputs"] += sum(1 for r in plain if r.get("wrong_output"))
            values = tracing.layer_metrics(tracer)
            values.update(tracing.kernel_ns(args.seed))
            for layer in tracing.LAYERS:
                values[f"{layer}.failed_ops"] = sum(1 for r in records if r.get("layer") == layer)
            values["trace_overhead_s"] = traced_wall - plain_wall
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
            record.update(summary)
            record.update({"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                           "untraced_failed": sum(1 for r in plain if "error" in r),
                           "spans": len(tracer.spans)})
            tracer.dump(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["metrics"] = metrics
    print(json.dumps(record, default=str))
    result = {
        "correct": summary["wrong_outputs"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in tracing.LAYERS}
    units.update({
        "cli.parse_s": "s",
        "detector.joint_state_s": "s", "detector.validate_s": "s", "detector.assembly_s": "s",
        "detector.measured_internal_s": "s", "detector.reduced_internal_s": "s",
        "detector.dim": "count", "detector.stored_entries": "count",
        "detector.nonzero_entries": "count", "detector.nonzero_fraction": "ratio",
        "detector.aligned_pairs": "count", "detector.shell_count": "count",
        "detector.max_shell_size": "count",
        "io.write_json_s": "s", "io.json_bytes": "B", "io.write_csv_s": "s", "io.csv_bytes": "B",
        "io.zero_entry_fraction": "ratio",
        "specfun.planck_weight_ns": "ns", "specfun.lambda_overlap_ns": "ns",
        "specfun.bessel_k_imag_ns": "ns",
        "overlaps.oracle_lambda_quadrature_s": "s", "overlaps.oracle_overlap_finite_t_s": "s",
        "overlaps.convergence_report_s": "s",
        "continuum.joint_kernel_calls": "count", "continuum.joint_kernel_s": "s",
    })
    units.update({f"{layer}.failed_ops": "count" for layer in tracing.LAYERS})
    units["trace_overhead_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


if __name__ == "__main__":
    sys.exit(main())

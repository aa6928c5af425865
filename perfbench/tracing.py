"""Spans at the package's module boundaries, recorded from outside.

For a traced pass, :func:`patched` replaces the names that
``superthermal.cli``, ``superthermal.detector``, ``superthermal.overlaps``
and ``superthermal.continuum`` import from one another with wrappers
that record a span per call: name (``<importing module>.<name>``),
layer (the module that defines the callee), start, end, parent id and
the exception class if the call raised.  No file of the package is
edited and every original is restored on exit.

Spans stay in memory; :meth:`Tracer.dump` writes them at the end of a
run and :func:`layer_metrics` derives self times and counts from them.
Work the benchmark does for its own bookkeeping (rebuilding a
``BlockDensity`` to time validation, counting entries and shells,
sizing written files) runs in spans of layer ``bench``, which are
subtracted from their parent's self time and reported under no layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "detector", "io", "specfun", "overlaps", "continuum")

#: Names wrapped in each importing module.  Names a later version of the
#: package no longer has are skipped.
PATCH_POINTS = {
    "cli": (
        "build_run_config", "joint_state", "reduced_internal", "measured_internal",
        "paper_example", "compare_with_reference", "neglog_matrix",
        "write_json", "write_csv", "write_neglog_csv",
        "block_density_to_dict", "measured_to_dict",
        "convergence_report", "oracle_lambda_quadrature", "oracle_overlap_finite_t",
        "lambda_overlap", "lambda_axis_xi", "lambda_axis_xbar",
        "continuum_joint_kernel", "continuum_spectrum_slice",
    ),
    "detector": (
        "joint_state", "measured_internal", "neglog_matrix",
        "lambda_overlap", "planck_weight",
    ),
    "overlaps": (
        "oracle_overlap_finite_t", "diag_overlap",
        "lambda_overlap", "planck_weight", "bessel_j0", "_k_imag_outer",
    ),
    "continuum": ("lambda_overlap",),
}


class Tracer:
    """In-memory span log with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        # (id, parent, name, layer, start, end, error class or None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._raised: dict[int, int] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            yield span_id
        except BaseException as exc:
            error = type(exc).__name__
            # The first span an exception passes through is the innermost.
            self._raised.setdefault(id(exc), span_id)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, layer, start, end, error)

    def raising_layer(self, exc: BaseException) -> str | None:
        """Layer of the innermost span that ``exc`` was raised through."""
        span_id = self._raised.get(id(exc))
        return None if span_id is None else self.spans[span_id][3]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "layer", "start", "end", "error")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    return module.rsplit(".", 1)[-1]


def shell_stats(frequencies, heights, tol: float) -> tuple[int, int]:
    """Boost-energy shells: sort all products omega_i z_m and cut wherever
    neighbours are more than ``tol`` apart.  Returns (count, largest)."""
    q = np.sort(np.outer(np.asarray(frequencies, float), np.asarray(heights, float)).ravel())
    cuts = np.flatnonzero(np.diff(q) > tol)
    sizes = np.diff(np.concatenate(([0], cuts + 1, [q.size])))
    return int(sizes.size), int(sizes.max())


def _numeric_leaves(obj) -> tuple[int, int]:
    """(all, zero) numeric leaves of a JSON-ready object."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        total = zero = 0
        for item in obj:
            t, z = _numeric_leaves(item)
            total += t
            zero += z
        return total, zero
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return 1, int(obj == 0)
    return 0, 0


def _after_joint_state(tracer: Tracer, detector_module, args, kwargs, rho) -> None:
    det, traj_set = args[0], args[1]
    tol = kwargs.get("tol", args[2] if len(args) > 2 else None)
    excited = rho.excited_block
    with tracer.span("bench.validate", "bench"):
        start = time.perf_counter()
        detector_module.BlockDensity(
            ground_block=rho.ground_block, excited_block=excited,
            scale=rho.scale, epsilon=rho.epsilon, T=rho.T,
        )
        tracer.add("detector.validate_s", time.perf_counter() - start)
    with tracer.span("bench.count", "bench"):
        dim = excited.shape[0]
        tracer.add("detector.dim", dim)
        tracer.add("detector.stored_entries", dim * dim)
        tracer.add("detector.nonzero_entries", int(np.count_nonzero(excited)))
        count, largest = shell_stats(det.frequencies, [t.z for t in traj_set], tol)
        tracer.add("detector.shell_count", count)
        tracer.peak("detector.max_shell_size", largest)


def _after_write(tracer: Tracer, kind: str, args, kwargs) -> None:
    with tracer.span("bench.count", "bench"):
        path = args[0] if args else kwargs["path"]
        tracer.add(f"io.{kind}_bytes", os.path.getsize(path))
        if kind == "json":
            obj = args[1] if len(args) > 1 else kwargs["obj"]
            total, zero = _numeric_leaves(obj)
            tracer.add("io.json_numbers", total)
            tracer.add("io.json_zero_numbers", zero)


def _wrap(tracer: Tracer, fn, span_name: str, detector_module):
    layer = layer_of(fn)
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name, layer):
            result = fn(*args, **kwargs)
        if name == "joint_state":
            _after_joint_state(tracer, detector_module, args, kwargs, result)
        elif name == "write_json":
            _after_write(tracer, "json", args, kwargs)
        elif name in ("write_csv", "write_neglog_csv"):
            _after_write(tracer, "csv", args, kwargs)
        return result

    wrapper.traced = True
    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, package):
    """Install span wrappers on the package's cross-module imports."""
    originals = []
    detector_module = package.detector
    try:
        for module_name, names in PATCH_POINTS.items():
            module = getattr(package, module_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                originals.append((module, name, fn))
                setattr(module, name, _wrap(tracer, fn, f"{module_name}.{name}", detector_module))
        yield
    finally:
        for module, name, fn in reversed(originals):
            setattr(module, name, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times per layer, per-function totals and the recorded counts."""
    spans = [s for s in tracer.spans if s is not None]
    child_time = [0.0] * len(tracer.spans)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    by_fn: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span_id, _, name, layer, start, end, _ in spans:
        duration = end - start
        if layer in self_s:
            self_s[layer] += duration - child_time[span_id]
        fn = f"{layer}.{name.rsplit('.', 1)[-1]}"
        by_fn[fn] = by_fn.get(fn, 0.0) + duration
        calls[fn] = calls.get(fn, 0) + 1
    cli_main_self = sum(
        (end - start) - child_time[span_id]
        for span_id, _, name, _, start, end, _ in spans if name == "cli.main"
    )
    counts = tracer.counts
    joint = by_fn.get("detector.joint_state", 0.0)
    validate = counts.get("detector.validate_s", 0.0)
    stored = counts.get("detector.stored_entries", 0)
    numbers = counts.get("io.json_numbers", 0)
    out = {f"{layer}.self_s": value for layer, value in self_s.items()}
    out.update({
        "cli.self_s": cli_main_self,
        "cli.parse_s": by_fn.get("cli.build_run_config", 0.0),
        "detector.joint_state_s": joint,
        "detector.validate_s": validate,
        "detector.assembly_s": joint - validate,
        "detector.measured_internal_s": by_fn.get("detector.measured_internal", 0.0),
        "detector.reduced_internal_s": by_fn.get("detector.reduced_internal", 0.0),
        "detector.dim": counts.get("detector.dim", 0),
        "detector.stored_entries": stored,
        "detector.nonzero_entries": counts.get("detector.nonzero_entries", 0),
        "detector.nonzero_fraction": counts.get("detector.nonzero_entries", 0) / stored if stored else 0.0,
        "detector.aligned_pairs": sum(
            1 for s in spans if s[2] == "detector.lambda_overlap"
        ),
        "detector.shell_count": counts.get("detector.shell_count", 0),
        "detector.max_shell_size": tracer.maxima.get("detector.max_shell_size", 0),
        "io.write_json_s": by_fn.get("io.write_json", 0.0),
        "io.json_bytes": counts.get("io.json_bytes", 0),
        "io.write_csv_s": by_fn.get("io.write_csv", 0.0) + by_fn.get("io.write_neglog_csv", 0.0),
        "io.csv_bytes": counts.get("io.csv_bytes", 0),
        "io.zero_entry_fraction": counts.get("io.json_zero_numbers", 0) / numbers if numbers else 0.0,
        "overlaps.oracle_lambda_quadrature_s": by_fn.get("overlaps.oracle_lambda_quadrature", 0.0),
        "overlaps.oracle_overlap_finite_t_s": by_fn.get("overlaps.oracle_overlap_finite_t", 0.0),
        "overlaps.convergence_report_s": by_fn.get("overlaps.convergence_report", 0.0),
        "continuum.joint_kernel_calls": calls.get("continuum.continuum_joint_kernel", 0),
        "continuum.joint_kernel_s": by_fn.get("continuum.continuum_joint_kernel", 0.0),
    })
    return out


def kernel_ns(seed: int, repeats: int = 3) -> dict[str, float]:
    """Per-element cost of the special-function kernels on fixed-size
    seeded inputs (median of ``repeats``)."""
    from superthermal import specfun

    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 5.0, 10**6)
    z = rng.uniform(0.1, 3.0, 10**6)
    dxi = rng.uniform(-3.0, 3.0, 10**6)
    dxbar = rng.uniform(0.0, 5.0, 10**6)
    x = np.sort(rng.uniform(1e-3, 10.0, 2 * 10**4))

    def timed(fn) -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    k_imag = timed(lambda: [specfun.bessel_k_imag(nu, x) for nu in (0.0, 2.0, 10.0)])
    return {
        "specfun.planck_weight_ns": timed(lambda: specfun.planck_weight(omega, z)) * 1e9 / omega.size,
        "specfun.lambda_overlap_ns": timed(lambda: specfun.lambda_overlap(2.0, dxi, dxbar)) * 1e9 / dxi.size,
        "specfun.bessel_k_imag_ns": k_imag * 1e9 / (3 * x.size),
    }

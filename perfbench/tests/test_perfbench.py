"""Tests of the benchmark itself: seeded inputs, the shell counter, the
output checks and the result format.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _dump(ops: list[dict]) -> bytes:
    parts = []
    for op in ops:
        parts.append(json.dumps({k: v for k, v in op.items() if k != "config"}).encode())
        if "config" in op:
            parts.append(workloads.config_bytes(op))
    return b"\n".join(parts)


@pytest.mark.parametrize("name", sorted(workloads.CYCLES))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.CYCLES[name]
    first = [_dump(make(7, cycle)) for cycle in range(3)]
    again = [_dump(make(7, cycle)) for cycle in range(3)]
    assert first == again
    assert first != [_dump(make(8, cycle)) for cycle in range(3)]
    assert len(set(first)) == 3


def _brute_force_shells(freqs, heights, tol):
    q = [w * z for w in freqs for z in heights]
    parent = list(range(len(q)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(q)):
        for b in range(a + 1, len(q)):
            if abs(q[a] - q[b]) <= tol:
                parent[find(a)] = find(b)
    sizes = {}
    for a in range(len(q)):
        sizes[find(a)] = sizes.get(find(a), 0) + 1
    return len(sizes), max(sizes.values())


@pytest.mark.parametrize("seed", range(40))
def test_shell_counter_matches_connected_components(seed):
    rng = random.Random(seed)
    levels, branches = rng.randint(1, 8), rng.randint(1, 6)
    if seed % 2:
        freqs = [0.5 * (i + 1) for i in range(levels)]
        heights = [0.4 * rng.randint(1, 4) for _ in range(branches)]
        tol = 1e-9
    else:
        freqs = sorted(rng.uniform(0.1, 3.0) for _ in range(levels))
        heights = [rng.uniform(0.2, 2.0) for _ in range(branches)]
        tol = rng.choice([1e-3, 0.05, 0.3])
    assert tracing.shell_stats(freqs, heights, tol) == _brute_force_shells(freqs, heights, tol)


@pytest.mark.parametrize("seed", range(20))
def test_large_q_family_has_an_overflowing_aligned_pair(seed):
    config = workloads.large_q_system(random.Random(seed), measure=bool(seed % 2))
    freqs = config["detector"]["frequencies"]
    heights = [t["z"] for t in config["trajectories"]]
    assert 112.8 < max(freqs) * max(heights) <= 200.0
    aligned = [
        w_a * z_a
        for a, w_a in enumerate(freqs) for m, z_a in enumerate(heights)
        for b, w_b in enumerate(freqs) for n, z_b in enumerate(heights)
        if a < b and m != n and abs(w_a * z_a - w_b * z_b) <= 1e-9
    ]
    assert any(q > workloads.OVERFLOW_Q for q in aligned)


def test_own_closed_form_matches_the_package():
    from superthermal.specfun import lambda_overlap

    rng = np.random.default_rng(0)
    dxi = rng.uniform(-3.0, 3.0, 500)
    dxbar = rng.uniform(0.0, 5.0, 500)
    for q in (0.0, 0.7, 3.0, 12.0):
        assert np.max(np.abs(checks.own_lambda(q, dxi, dxbar) - lambda_overlap(q, dxi, dxbar))) < 1e-12
    assert checks.own_lambda(2.0, 0.0, 0.0) == 1.0


def test_state_check_rejects_a_wrong_population():
    from superthermal.cli import main

    op = workloads.cli_small_cycle(3, 0)
    op = next(o for o in op if o["kind"] == "state" and not o.get("large_q"))
    work = ROOT / ".perfbench_work" / "test-state-check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_bytes(workloads.config_bytes(op))
        assert main(["state", "--config", str(work / "config.json"), "--out", str(work / "out")]) == 0
        checks.check_state(op, work / "out", "")
        path = work / "out" / "reduced_internal.json"
        data = json.loads(path.read_text())
        data["values"][0] *= 1.0 + 1e-9
        path.write_text(json.dumps(data))
        with pytest.raises(checks.CheckFailed):
            checks.check_state(op, work / "out", "")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    record = json.loads(done.stdout.strip().splitlines()[-2])
    assert record["environment"]["seed"] == 0
    if trace == "0":
        # Only members of the large-q family may fail.
        assert all(large_q for *_, large_q in record["errors"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run("--workload", "cli_small", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

"""Time the two hand-measured baseline points of the project roadmap.

* ``joint_state`` at dimension 3000 (100 levels x 30 branches);
* ``superthermal state`` at dimension 640 (32 levels x 20 branches):
  size of ``joint_state.json``, time to write it, and the whole op.

Systems come from the benchmark's lattice generator (seed 0); each point
is the median of three repeats.  Run from the repository root::

    python3 perfbench/crosscheck.py
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time

import run  # pins BLAS threads before numpy is imported
import workloads


def _config(levels: int, branches: int) -> dict:
    rng = random.Random(f"crosscheck:{levels}x{branches}")
    freqs, positions = workloads._lattice_system(rng, levels, branches, q_max=100.0, heights=4)
    return workloads._detector_config(rng, freqs, positions, measure=False, absolute=False)


def _median_time(fn, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    package = run._import_package()
    cli, io = package.cli, package.io
    work = run.ROOT / ".perfbench_work" / "crosscheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = cli.build_run_config(_config(100, 30))
        joint_3000 = _median_time(
            lambda: package.detector.joint_state(cfg.detector, cfg.trajectories, tol=cfg.q_tolerance)
        )
        op = {"config": _config(32, 20)}
        (work / "config.json").write_bytes(workloads.config_bytes(op))
        argv = ["state", "--config", str(work / "config.json"), "--out", str(work / "out")]
        state_640 = _median_time(lambda: cli.main(argv))
        cfg = cli.build_run_config(op["config"])
        rho = package.detector.joint_state(cfg.detector, cfg.trajectories, tol=cfg.q_tolerance)
        obj = io.block_density_to_dict(rho, cfg.detector.frequencies, cfg.trajectories)
        write_640 = _median_time(lambda: io.write_json(work / "joint_state.json", obj))
        size = (work / "out" / "joint_state.json").stat().st_size
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "environment": run._environment(seed=0, trace=0),
        "joint_state_dim3000_s": joint_3000,
        "state_dim640_s": state_640,
        "write_json_dim640_s": write_640,
        "joint_state_json_dim640_bytes": size,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

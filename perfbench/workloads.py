"""Seeded operation schedules for the three benchmark workloads.

Every workload is an endless sequence of *cycles*; a cycle is a list of
operations.  An operation is a plain dict with a ``kind`` and the inputs
the program receives: a JSON config plus CLI flags for subcommands, or
the arguments of one public oracle function.  Cycle ``c`` of workload
``w`` under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{c}")``,
so the same seed always yields the same inputs, byte for byte.

In ``state_scale`` and ``oracle`` the values that set an operation's
cost (dimension and its levels x branches split, ``q``, ``|dxi|``,
``T``) are stratified: each cycle visits every stratum once, at its
midpoint and the op order is fixed, so the work (and peak memory) per
cycle does not depend on the seed while everything else (scales,
offsets, amplitudes, couplings, signs) does.  ``cli_small`` draws its
small sizes freely and shuffles each cycle; a run holds hundreds of
its cycles.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import cmath
import json
import math
import random

#: Products ``omega * z`` above this make ``expm1(2 pi q)`` overflow.
OVERFLOW_Q = math.log(1.7976931348623157e308) / (2.0 * math.pi)

#: Dimension strata (levels x branches) of ``state_scale``.
STATE_DIMS = (100, 800)
MEASURE_DIMS = (200, 3000)
SCALE_STRATA = 4

#: ``lambda_check`` strata over q in [0, 12] and |dxi| in [0, 3];
#: ``finite_t_check`` strata over T in [5, 80] (log-spaced).
LAMBDA_Q = (0.0, 12.0)
DXI_MAX = 3.0
LAMBDA_STRATA = 5
FINITE_T = (5.0, 80.0)
FINITE_T_STRATA = 2
#: Shared boost energy of finite-duration pairs.  The oracle approaches
#: the closed form as c(q)/M with c ~ 7 q^2, so q <= 1 keeps the
#: first-order deviation inside the 10/M gate.
FINITE_T_Q = (0.2, 1.0)


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def _midpoint(lo: float, hi: float, k: int, n: int) -> float:
    """Geometric midpoint of log-stratum ``k`` of ``n`` on [lo, hi]."""
    return lo * (hi / lo) ** ((k + 0.5) / n)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _unit_vector(rng: random.Random, n: int) -> list[complex]:
    vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
    norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
    return [v / norm for v in vec]


def _trajectories(rng: random.Random, positions: list[tuple[float, float, float]]) -> list[dict]:
    """Branches sorted by (z, x, y), the order the program stores them in,
    so measurement amplitudes line up with the preparation amplitudes."""
    positions = sorted(positions)
    amps = _unit_vector(rng, len(positions))
    return [
        {"z": z, "x": x, "y": y, "A": _pair(a)}
        for (z, x, y), a in zip(positions, amps)
    ]


def _detector_config(
    rng: random.Random,
    freqs: list[float],
    positions: list[tuple[float, float, float]],
    measure: bool,
    absolute: bool,
) -> dict:
    trajs = _trajectories(rng, positions)
    config: dict = {"detector": {"frequencies": freqs}, "trajectories": trajs}
    if rng.random() < 0.5:
        config["detector"]["couplings"] = [
            _pair(cmath.rect(rng.uniform(0.3, 1.0), rng.uniform(-math.pi, math.pi)))
            for _ in freqs
        ]
    config["interaction"] = {"epsilon": rng.uniform(0.001, 0.05), "q_tolerance": 1e-9}
    if measure and rng.random() < 0.5:
        config["measurement"] = {
            "amplitudes": [_pair(b) for b in _unit_vector(rng, len(trajs))]
        }
    if absolute:
        config["interaction"]["T"] = rng.uniform(10.0, 100.0)
        config["output"] = {"scale": "absolute"}
    return config


def _lattice_system(rng: random.Random, levels: int, branches: int, q_max: float,
                    heights: int | None = None):
    """Equally spaced frequencies and heights on a lattice, so products
    ``omega_i z_m`` coincide across levels and branches (multi-member
    boost-energy shells); branches sharing a height get distinct seeded
    transverse offsets.  Which pairs align depends only on ``levels``,
    ``branches`` and ``heights``, not on the seeded scales."""
    if heights is None:
        heights = rng.randint(min(2, branches), min(6, branches))
    scale = q_max * rng.uniform(0.3, 1.0) / (levels * heights)
    z0 = rng.uniform(0.3, 1.2)
    w0 = scale / z0
    freqs = [w0 * (i + 1) for i in range(levels)]
    positions = []
    for n in range(branches):
        k = n % heights + 1
        positions.append((z0 * k, round(rng.uniform(0.0, 2.0), 6), round(rng.uniform(0.0, 2.0), 6)))
    return freqs, positions


def _small_system(rng: random.Random, measure: bool) -> dict:
    levels = rng.randint(2, 12)
    branches = rng.randint(1, 4)
    if rng.random() < 0.5:
        freqs, positions = _lattice_system(rng, levels, branches, q_max=rng.uniform(2.0, 40.0))
    else:
        w = rng.uniform(0.2, 1.5)
        freqs = []
        for _ in range(levels):
            freqs.append(w)
            w += rng.uniform(0.1, 1.0)
        positions = [
            (rng.uniform(0.3, 3.0), round(rng.uniform(0.0, 1.5), 6), 0.0)
            for _ in range(branches)
        ]
    absolute = not measure and rng.random() < 0.25
    return _detector_config(rng, freqs, positions, measure, absolute)


def large_q_system(rng: random.Random, measure: bool) -> dict:
    """A legal system with an aligned pair at boost energy q* in
    (OVERFLOW_Q, 160] and omega_max * z_max = q* r <= 200.

    The pair is (omega_lo at z_hi, omega_hi at z_lo) with
    omega_lo z_hi = omega_hi z_lo = q*; further levels sit below
    omega_hi and further branches between the two heights.
    """
    q_star = rng.uniform(OVERFLOW_Q + 2.0, 160.0)
    ratio = rng.uniform(1.1, min(1.7, 200.0 / q_star))
    z_lo = rng.uniform(0.5, 2.0)
    z_hi = z_lo * ratio
    w_lo, w_hi = q_star / z_hi, q_star / z_lo
    extra = sorted({round(rng.uniform(0.2 * w_lo, w_hi), 9) for _ in range(rng.randint(0, 4))})
    freqs = sorted({w_lo, w_hi, *[w for w in extra if w not in (w_lo, w_hi)]})
    positions = [(z_lo, 0.0, 0.0), (z_hi, round(rng.uniform(0.0, 1.0), 6), 0.0)]
    for _ in range(rng.randint(0, 2)):
        positions.append((rng.uniform(z_lo, z_hi), round(rng.uniform(0.0, 1.0), 6), 0.5))
    return _detector_config(rng, freqs, positions, measure, absolute=False)


def _continuum_config(rng: random.Random) -> dict:
    shape = [rng.randint(1, 4) for _ in range(3)]
    spacings = [round(rng.uniform(0.1, 0.5), 6) for _ in range(3)]
    origins = [0.0, 0.0, round(rng.uniform(0.5, 2.0), 6)]
    axes = [[o + h * k for k in range(n)] for o, h, n in zip(origins, spacings, shape)]
    count = shape[0] * shape[1] * shape[2]
    raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(count)]
    volume = spacings[0] * spacings[1] * spacings[2]
    norm = math.sqrt(sum(abs(v) ** 2 for v in raw) * volume)
    values = [_pair(v / norm) for v in raw]
    w_top = rng.uniform(2.0, 6.0)
    table = [0.05 + (w_top - 0.05) * k / 5 for k in range(6)]
    coupling = [_pair(cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))) for _ in table]
    omega_grid = sorted({round(rng.uniform(0.1, 0.99 * w_top), 6) for _ in range(rng.randint(1, 8))})
    return {
        "continuum": {
            "amplitude": {"x": axes[0], "y": axes[1], "z": axes[2], "values": values, "spacings": spacings},
            "coupling": {"omega": table, "values": coupling},
            "z_fixed": axes[2][rng.randrange(shape[2])],
            "omega_grid": omega_grid,
        }
    }


def _lambda_grid_args(rng: random.Random) -> list[str]:
    qs = sorted({round(rng.uniform(0.0, 12.0), 3) for _ in range(rng.randint(1, 3))})
    return ["--grid", str(rng.randint(10, 40)), "--q", ",".join(repr(q) for q in qs)]


def cli_small_cycle(seed: int, cycle: int) -> list[dict]:
    """Five small subcommands plus one member of the large-q family
    (state on even cycles, measure on odd ones), in seeded order."""
    rng = _rng("cli_small", seed, cycle)
    ops = [
        {"kind": "paper_example", "argv": ["paper-example"]},
        {"kind": "state", "argv": ["state"], "config": _small_system(rng, measure=False)},
        {"kind": "measure", "argv": ["measure"], "config": _small_system(rng, measure=True)},
        {"kind": "lambda_grid", "argv": ["lambda-grid", *_lambda_grid_args(rng)]},
        {"kind": "continuum", "argv": ["continuum"], "config": _continuum_config(rng)},
    ]
    measure = cycle % 2 == 1
    ops.append(
        {
            "kind": "measure" if measure else "state",
            "argv": ["measure" if measure else "state"],
            "config": large_q_system(rng, measure),
            "large_q": True,
        }
    )
    rng.shuffle(ops)
    return ops


def _scale_system(rng: random.Random, dim: float, measure: bool) -> dict:
    branches = max(4, round(math.sqrt(dim) / 1.5))
    levels = round(dim / branches)
    freqs, positions = _lattice_system(rng, levels, branches, q_max=100.0, heights=4)
    return _detector_config(rng, freqs, positions, measure, absolute=False)


def state_scale_cycle(seed: int, cycle: int) -> list[dict]:
    """One ``state`` and one ``measure`` per dimension stratum, smallest
    first, each at the stratum's geometric midpoint with a fixed levels x
    branches split and four lattice heights, so the work (and, with the
    fixed order, peak memory) repeats across seeds; the seed moves
    scales, offsets, amplitudes and couplings."""
    rng = _rng("state_scale", seed, cycle)
    ops = []
    for k in range(SCALE_STRATA):
        dim = _midpoint(*STATE_DIMS, k, SCALE_STRATA)
        ops.append({"kind": "state", "argv": ["state"], "config": _scale_system(rng, dim, False)})
        dim = _midpoint(*MEASURE_DIMS, k, SCALE_STRATA)
        ops.append({"kind": "measure", "argv": ["measure"], "config": _scale_system(rng, dim, True)})
    return ops


def _finite_t_op(rng: random.Random, T: float, diagonal: bool) -> dict:
    q = rng.uniform(*FINITE_T_Q)
    if diagonal:
        return {"kind": "finite_t_check", "omega_i": q, "n": [1.0, 0.0, 0.0],
                "omega_j": q, "m": [1.0, 0.0, 0.0], "T": T}
    return {"kind": "finite_t_check", "omega_i": 2.0 * q, "n": [0.5, 0.0, 0.0],
            "omega_j": q, "m": [1.0, round(rng.uniform(0.0, 1.0), 6), 0.0], "T": T}


def oracle_cycle(seed: int, cycle: int) -> list[dict]:
    """One ``oracle-validate`` run, then one ``lambda_check`` per q stratum
    interleaved with one ``finite_t_check`` per T stratum, in a fixed order
    (so peak memory repeats across seeds).

    Cost-setting values sit at stratum midpoints: q, |dxi| (each q stratum
    is paired with a fixed |dxi| stratum), T and the oracle-validate
    T_list.  The seed picks the signs of dxi, the boost energy
    and offset of each finite-duration pair, and the Rindler parameter.
    """
    rng = _rng("oracle", seed, cycle)
    T_list = [round(_midpoint(*FINITE_T, k, 4), 6) for k in range(4)]
    ops = [{
        "kind": "oracle_validate",
        "argv": ["oracle-validate"],
        "config": {"interaction": {"rindler_a": rng.uniform(0.5, 2.0)}, "oracle": {"T_list": T_list}},
    }]
    width = (LAMBDA_Q[1] - LAMBDA_Q[0]) / LAMBDA_STRATA
    lambda_ops = [
        {"kind": "lambda_check",
         "q": LAMBDA_Q[0] + width * (k + 0.5),
         "dxi": rng.choice((-1.0, 1.0)) * DXI_MAX * ((2 * k) % LAMBDA_STRATA + 0.5) / LAMBDA_STRATA}
        for k in range(LAMBDA_STRATA)
    ]
    finite_ops = [
        _finite_t_op(rng, round(_midpoint(*FINITE_T, k, FINITE_T_STRATA), 6), diagonal=k % 2 == 0)
        for k in range(FINITE_T_STRATA)
    ]
    for i, op in enumerate(lambda_ops):
        ops.append(op)
        if i % 2 == 1 and finite_ops:
            ops.append(finite_ops.pop())
    return ops


CYCLES = {
    "cli_small": cli_small_cycle,
    "state_scale": state_scale_cycle,
    "oracle": oracle_cycle,
}


def warmup_ops(workload: str) -> list[dict]:
    """One small, seed-independent instance of every kind the workload
    runs; ``oracle_validate`` is warmed through its config-error path
    (a decreasing ``T_list``), which parses and dispatches without the
    ten-second quadrature sweep."""
    rng = random.Random(f"warmup:{workload}")
    tiny = {"detector": {"frequencies": [1.0, 2.0]},
            "trajectories": [{"z": 0.5}, {"z": 1.0}],
            "interaction": {"epsilon": 0.01, "q_tolerance": 1e-9}}
    if workload == "cli_small":
        return [
            {"kind": "paper_example", "argv": ["paper-example"]},
            {"kind": "state", "argv": ["state"], "config": tiny},
            {"kind": "measure", "argv": ["measure"], "config": tiny},
            {"kind": "lambda_grid", "argv": ["lambda-grid", "--grid", "4", "--q", "1.0"]},
            {"kind": "continuum", "argv": ["continuum"], "config": _continuum_config(rng)},
        ]
    if workload == "state_scale":
        return [
            {"kind": "state", "argv": ["state"], "config": tiny},
            {"kind": "measure", "argv": ["measure"], "config": tiny},
        ]
    return [
        {"kind": "oracle_validate", "argv": ["oracle-validate"],
         "config": {"oracle": {"T_list": [20.0, 10.0]}}, "expect_exit": 2},
        {"kind": "lambda_check", "q": 2.0, "dxi": 3.0},
        {"kind": "finite_t_check", "omega_i": 0.5, "n": [1.0, 0.0, 0.0],
         "omega_j": 0.5, "m": [1.0, 0.0, 0.0], "T": 20.0},
    ]


def config_bytes(op: dict) -> bytes:
    """The exact bytes written as the op's ``--config`` file."""
    return (json.dumps(op["config"], indent=1) + "\n").encode("utf-8")

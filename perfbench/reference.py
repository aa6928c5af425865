"""Machine-speed reference for normalizing wall times.

Shared machines drift in speed by tens of percent over tens of seconds,
which no amount of work inside one run averages away.  The benchmark
therefore interleaves a fixed reference kernel with the measured work
(5 % of the loop's time, 20 % of the set-up probes' time) and states its
gated times at a nominal speed:

    normalized time = measured time * NOMINAL_S / mean(reference samples)

where an operation's factor is the mean of those of the sample groups
just before and just after it, and set-up times use all samples of the
set-up phase.

The kernel mixes what the package spends its time on (interpreter
arithmetic, float formatting, vectorized exponentials, a small LAPACK
call) and uses nothing from the package, so a change to the package
cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median kernel time on the machine the benchmark was tuned on (Intel
#: Xeon, 2 vCPUs, one BLAS thread).  Only a unit: results stay
#: comparable as long as this constant does not change.
NOMINAL_S = 2.0e-3


_GRID = np.linspace(0.1, 3.0, 512)
_SYM = np.cos(np.add.outer(_GRID[:24], _GRID[:24]))


def kernel() -> float:
    total = 0.0
    for i in range(4000):
        total += math.sqrt(i + 0.5)
    text = ",".join("%.17g" % (i * 0.37) for i in range(800))
    total += float(np.exp(-np.outer(_GRID[:128], _GRID)).sum())
    total += float(np.linalg.eigvalsh(_SYM)[0])
    return total + len(text)


class SpeedProbe:
    """Samples the reference kernel in proportion to the time it is told
    was spent on work."""

    def __init__(self, duty: float) -> None:
        self.duty = duty
        self.samples: list[float] = []
        self._owed = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def owe(self, busy_s: float) -> float | None:
        """Take the samples now due; returns the speed factor they give,
        or None if none was due."""
        self._owed += self.duty * busy_s
        taken = []
        while self._owed > 0.0:
            taken.append(self.sample())
            self._owed -= taken[-1]
        return NOMINAL_S / statistics.fmean(taken) if taken else None

    @property
    def factor(self) -> float:
        """Nominal over measured speed: multiply a measured time by this."""
        return NOMINAL_S / statistics.fmean(self.samples)

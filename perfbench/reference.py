"""Machine-speed reference that end-to-end times are scaled by.

On a shared 2-vCPU machine the same code runs up to 1.7x slower for seconds
to minutes at a time, often longer than a run, so that no statistic over
one run's own timings is steady between runs.  A fixed reference kernel of
the benchmark's own is therefore timed between ops, and each op's time is
multiplied by the kernel's nominal time over its median time within
``WINDOW_S`` of the op.  Scaled times read as times on a machine where the
kernel takes its nominal time; the raw times are kept in the details.  No
package code runs in a kernel, so a change to the package cannot move it.

In-process workloads use :func:`kernel` (a Python loop and small numpy
calls).  ``cli_pipeline`` uses :func:`child_kernel` (a child that imports
numpy), because process start-up and imports drift apart from in-process
compute: alternating CLI ``check`` calls with each kernel for 100 s, the
median of 10 s windows spread 0.19 (IQR over median) raw, 0.19 scaled by
the in-process kernel and 0.07 scaled by a child importing numpy and
scipy.linalg; a child importing numpy alone, at less than half the cost,
gave 0.05 against 0.07 raw in a calmer 80 s.  Over ten seeds of
each workload on a 2-vCPU machine, the spread of ``ops_per_s`` went from
0.21 raw to 0.05 scaled on ``fit_recovery``, 0.30 to 0.04 on
``certify_sweep``, 0.12 to 0.11 on ``certify_ladder`` and 0.17 to 0.05 on
``cli_pipeline``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from inputs import circle_points, product_values, schur_spec

#: Nominal time of :func:`kernel` and :func:`child_kernel`.
NOMINAL_S = 0.005
CHILD_NOMINAL_S = 0.15
#: Kernel samples within this distance of an op set its scale.
WINDOW_S = 1.0
#: An op longer than this is left unscaled: the kernel runs only between
#: ops, so its samples cannot speak for the middle of a long op (the
#: degree-64 ladder form, about 11 s of LAPACK).
LONG_OP_S = 5.0

_SPEC = schur_spec(np.random.default_rng(5), "iso", 2, 2, 3)
_POINTS = circle_points(8)


def kernel() -> float:
    """Seconds for a fixed mix of interpreted Python and small numpy calls."""
    start = time.perf_counter()
    for _ in range(40):
        product_values(_SPEC, _POINTS)
    total = 0
    for i in range(15000):
        total += i * i
    return time.perf_counter() - start


def child_kernel(env: dict) -> float:
    """Seconds for a child interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, capture_output=True,
        timeout=60, stdin=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - start


class Reference:
    """Kernel samples ``(time, seconds)`` taken during a run, and the scale
    they give.

    Before an op, the kernel runs once per ``every_s`` elapsed since it last
    ran, at most ``burst`` times, so that a long op has several samples on
    each side.
    """

    def __init__(self, run=kernel, nominal_s=NOMINAL_S, every_s=0.1, burst=5):
        self.run = run
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.burst = burst
        self.samples = []

    def sample(self, count: int | None = None) -> None:
        """Time the kernel ``count`` times, or as many times as are due."""
        if count is None:
            since = time.perf_counter() - self.samples[-1][0] if self.samples else float("inf")
            count = min(self.burst, int(since / self.every_s))
        for _ in range(count):
            self.samples.append((time.perf_counter(), self.run()))

    def scale(self, start: float, end: float) -> float:
        """Nominal over the median kernel time near ``[start, end]``."""
        if end - start > LONG_OP_S:
            return 1.0
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return self.nominal_s / statistics.median(near)

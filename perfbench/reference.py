"""The reference loop: a fixed computation that gauges the machine's speed of the moment.

The benchmark's host is shared.  Its speed drifts by up to 2x over seconds to
minutes, for pshlab and any other code alike, and a drift that lasts a whole
run cannot be filtered by a statistic over the run.  So run.py times this loop
whenever a worker asks it to (after the set-up and after every job, while the
worker waits) and rescales the run's times by NOMINAL_S / the median loop time:
the time the work would have taken on a machine where the loop takes
NOMINAL_S.

The loop has three parts of similar length: interpreted Python, numpy
arithmetic on complex arrays of the scans' size (1 MiB, a 2x2 unitary, exp,
log, reductions) and a streaming pass over arrays larger than a core's cache
(16 MiB each), which tracks the grid work of `certificates`.  It runs in
run.py's process, so it adds nothing to a pass's peak memory, and it does not
touch pshlab, so no change to pshlab can change it.
"""

import time

import numpy as np

# The loop's median time on the baseline machine (see README.md); it only sets
# the scale of the rescaled times.
NOMINAL_S = 0.065

_PYTHON_STEPS = 120_000
_SMALL_POINTS = 1 << 16
_SMALL_REPS = 8
_LARGE_POINTS = 1 << 21


def _python_part() -> float:
    total, table = 0.0, {}
    for i in range(_PYTHON_STEPS):
        total += i * 0.5
        if i % 7 == 0:
            table[i % 101] = total
    return total + len(table)


def _small_arrays_part(z: np.ndarray, u: np.ndarray) -> float:
    total = 0.0
    for _ in range(_SMALL_REPS):
        p = (z.reshape(-1, 2) @ u).ravel()
        y = np.exp(-np.abs(p) ** 2) * np.log1p(np.abs(z)) + np.cos(z.real)
        total += float(y.sum())
    return total


def _large_arrays_part(a: np.ndarray, b: np.ndarray) -> float:
    return float((np.sqrt(a * a + b * b) * 0.5 + a).sum())


class Reference:
    """Times the reference loop; the first, untimed call warms it up."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._z = rng.standard_normal(_SMALL_POINTS) + 1j * rng.standard_normal(_SMALL_POINTS)
        self._u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._a = rng.standard_normal(_LARGE_POINTS)
        self._b = rng.standard_normal(_LARGE_POINTS)
        self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        _python_part()
        _small_arrays_part(self._z, self._u)
        _large_arrays_part(self._a, self._b)
        return time.perf_counter() - t0

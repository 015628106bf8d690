"""Machine pace: how fast the host runs a fixed kernel right now.

The reference host shares its cores with other tenants, and its speed
drifts: a fixed numpy-plus-Python loop took 99 to 178 ms in successive
10-second windows on a 2-core Xeon.  So the benchmark samples a fixed
kernel between work items (every ``EVERY_S`` seconds) and reports every
timing scaled to a nominal pace.  Each raw time is multiplied by the
kernel's nominal time over its measured time, interpolated to the moment
of the measurement.  ``paper-sweeps`` and ``oracle-checks`` use the
``mixed`` kernel (small LAPACK calls, a vector op, a Python loop).
``many-fluctuators`` spans small and large operators and uses ``blend``,
the ``mixed`` kernel followed by a mid-size eigensolve and matrix
product; across five-run sets it tracked that workload's throughput
more closely than either part alone.  The kernels run no qtel code, so
a change to qtel moves the scaled timings as it moves the raw ones.
The raw timings are printed and saved next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

EVERY_S = 1.0
REPEATS = 3
# Samples on each side in the running median that smooths the samples'
# own jitter; the drift changes over tens of seconds.
HALF_WINDOW = 2

_rng = np.random.default_rng(20070707)
_SMALL = _rng.normal(size=(64, 64))
_VECTOR = np.linspace(0.0, 1.0, 100_000)
_SQUARE = _rng.normal(size=(128, 128))
_COMPLEX = _rng.normal(size=(256, 256)) * (1.0 + 1.0j)


def _mixed():
    """Small LAPACK calls, a vector op and a Python loop."""
    np.linalg.eigvals(_SMALL)
    np.linalg.eigvals(_SMALL)
    np.sin(_VECTOR).sum()
    total = 0
    for i in range(30_000):
        total += i * i


def _blend():
    """The mixed kernel, then a mid-size eigensolve and a complex product."""
    _mixed()
    np.linalg.eigvals(_SQUARE)
    _COMPLEX @ _COMPLEX


# kind -> (kernel, nominal seconds: its time on the quiet reference host)
KERNELS = {"mixed": (_mixed, 0.005), "blend": (_blend, 0.015)}


def kernel_seconds(kind: str = "mixed") -> float:
    """Median time of REPEATS runs of one kernel."""
    work = KERNELS[kind][0]
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return sorted(times)[REPEATS // 2]


class Pace:
    """Kernel times sampled through a run, and the scale they imply."""

    def __init__(self, kind: str = "mixed"):
        self.kind = kind
        self.times: list[float] = []
        self.seconds: list[float] = []

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= EVERY_S

    def sample(self):
        start = perf_counter()
        seconds = kernel_seconds(self.kind)
        self.times.append(start + seconds / 2)
        self.seconds.append(seconds)

    def factor(self, at) -> np.ndarray:
        """Scale to the nominal pace for measurements centred at `at`."""
        seconds = np.array(self.seconds)
        smooth = [np.median(seconds[max(i - HALF_WINDOW, 0):i + HALF_WINDOW + 1])
                  for i in range(len(seconds))]
        return KERNELS[self.kind][1] / np.interp(at, self.times, smooth)

"""Machine-speed calibration for the timed calls.

On a shared virtual machine the same Python code runs up to a quarter
slower or faster from one second to the next, because of load the
benchmark cannot see.  To keep that drift out of the figures, a fixed
pure-Python kernel, the benchmark's own ``ref.hnf2`` and independent of
``cotorsion``, runs between blocks of timed calls: before the first call
that starts after CALIBRATE_EVERY_S seconds of timed calls, and at the
end of every round.  Each call of a block is scaled by
REFERENCE_S / (mean of the kernel times just before and just after the
block).  The reported times are therefore seconds at the machine speed
at which the kernel takes REFERENCE_S; the unscaled times are printed
beside them.

The kernel runs with the garbage collector paused, so a program that
keeps many objects alive cannot slow the kernel and so hide its own cost.
"""

from __future__ import annotations

import gc
import math
import time

import ref

# kernel time at the reference speed: the typical time on the machine the
# reference figures in README.md were measured on
REFERENCE_S = 0.004
CALIBRATE_EVERY_S = 0.1


def kernel() -> int:
    """Fixed integer work in the style of the library: 2x2 Hermite reductions of small rows."""
    acc = 0
    for i in range(1, 1250):
        h = ref.hnf2([(i, 2 * i + 1), (3, i % 7 + 1), (i % 5 + 2, 9)])
        acc += h[1][1] + h[0][1]
    return acc


class Calibrator:
    """Kernel runs between blocks of timed calls; a block is scaled by the speed around it."""

    def __init__(self) -> None:
        self.last: float | None = None
        self.since = math.inf

    def due(self) -> bool:
        return self.since >= CALIBRATE_EVERY_S

    def measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.since = 0.0
        return dt

    def close_block(self) -> float:
        """Run the kernel; the scale of the calls timed since its previous run."""
        before, now = self.last, self.measure()
        self.last = now
        return 2 * REFERENCE_S / ((now if before is None else before) + now)

    def add(self, seconds: float) -> None:
        self.since += seconds

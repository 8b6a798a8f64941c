"""Machine-speed calibration shared by the benchmark and its set-up probes.

On a shared 2-core virtual machine the speed drifts by up to 1.5x within
minutes, and CPU time drifts with wall time, so it is the machine, not
scheduling.  A fixed dict-and-tuple loop, timed next to a measurement,
tracks that drift for interpreter-bound work: a time multiplied by
``CAL_REF_S`` over the loop's time is in *reference seconds*, the time on
a machine where the loop takes ``CAL_REF_S``.
"""

from __future__ import annotations

import statistics
import time

CAL_REF_S = 0.010


def _loop() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(30_000):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + i
    return len(table)


def calibrate() -> float:
    """Median time of three runs of the loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)

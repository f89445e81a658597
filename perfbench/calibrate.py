"""Machine-speed calibration: fixed work that never touches gmodelc.

On a shared host the speed of a vCPU changes with what other guests run
on the same physical core.  On the 2-vCPU VM this benchmark was written
on, the same code took up to 1.8x longer in CPU time (not only in wall
time) in slow phases that lasted about a minute.  A calibration sample
times a fixed piece of interpreter work and a fixed numpy pass.  Samples
are taken between the benchmark's operations all through a run, and their
median measures the speed of the machine during that run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CLOCK = time.process_time       # the clock of every timing in the benchmark


def _interpreter_work() -> int:
    table: dict[int, int] = {}
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return len(table)


class Calibration:
    """Samples that take `share` of the CPU time measured since `start`."""

    def __init__(self, share: float):
        self.share = share
        self.interpreter_ms: list[float] = []
        self.numpy_ms: list[float] = []
        self._array: np.ndarray | None = None
        self._spent = 0.0
        self._start = 0.0

    def start(self):
        """Begin the measured span.  The 16 MiB array is made here, not in
        __init__, so that it is not part of the process's first peak memory."""
        self._array = np.ones(2 * 2**20)
        self._spent = 0.0
        self._start = CLOCK()

    def sample(self):
        begin = CLOCK()
        _interpreter_work()
        middle = CLOCK()
        for _ in range(4):
            np.multiply(self._array, 1.0000001, out=self._array)
        end = CLOCK()
        self.interpreter_ms.append(1000.0 * (middle - begin))
        self.numpy_ms.append(1000.0 * (end - middle))
        self._spent += end - begin

    def keep_up(self):
        """Sample until calibration has taken `share` of the time since start."""
        while self._spent < self.share * (CLOCK() - self._start):
            self.sample()

    def medians(self) -> tuple[float, float]:
        return statistics.median(self.interpreter_ms), statistics.median(self.numpy_ms)

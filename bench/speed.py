"""How fast the shared machine runs, sampled while the program runs.

The machine this benchmark was tuned on is shared, and its speed for the same
work flips between two levels (about 2.7 and 4.5 ms for the probe kernel
below) many times a minute, and drifts over longer spells. A wall time taken
alone therefore moves by 15 to 30 % from run to run of the same code.

A ``Sampler`` times a small fixed piece of pure-Python work, the probe,
every ``interval`` seconds of wall time, from a SIGALRM handler. The handler
runs in the main thread between two bytecodes, so the probe also samples the
machine in the middle of an op; no thread or process is started. The time
spent in probes is kept apart, and ``clock()`` is wall time minus it, so a
probe never counts as the program's time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time


def probe_kernel() -> int:
    """A fixed piece of pure-Python work, independent of the program: float
    arithmetic and number formatting. It keeps nothing it allocates, so the
    probe does not raise the peak memory of the op it interrupts."""
    total, chars = 0.0, 0
    for i in range(1, 4001):
        x = i * 0.001
        total += x * x / (1.0 + x) - 0.5 * x
        chars += len(f"{total:.17g}")
    return chars


def probe() -> float:
    """One timing of the probe kernel, in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe readings every ``interval`` seconds while started."""

    def __init__(self, interval: float):
        self.interval = interval
        self.readings: list[float] = []
        self.spent = 0.0  # wall time spent in probes
        self._sampling = False

    def clock(self) -> float:
        """Wall time without the time spent in probes, in seconds."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        if self._sampling:  # a signal that came during the probe itself
            return
        self._sampling = True
        start = time.perf_counter()
        self.readings.append(probe())
        self.spent += time.perf_counter() - start
        self._sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_since(self, index: int) -> float:
        """Mean of the readings taken since ``len(readings)`` was ``index``;
        the mean of all readings if none was taken since."""
        return statistics.mean(self.readings[index:] or self.readings)

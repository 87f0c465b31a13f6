"""The speed sampler reads the probe while other work runs, and its clock
leaves the probes' time out.

Run from the repository root with ``python3 -m pytest bench``.
"""

import signal
import time

import speed


def test_sampler_reads_during_work_and_clock_skips_probes():
    sampler = speed.Sampler(0.02)
    sampler.start()
    try:
        wall, clock = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall < 0.3:
            sum(i * i for i in range(1000))
        wall, clock = time.perf_counter() - wall, sampler.clock() - clock
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(sampler.readings) >= 3
    assert all(r > 0.0 for r in sampler.readings)
    assert sampler.spent >= sum(sampler.readings)
    assert abs(wall - sampler.spent - clock) < 1e-3
    assert sampler.mean_since(len(sampler.readings)) == sampler.mean_since(0)

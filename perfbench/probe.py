"""Host-speed probe: a fixed stdlib workload timed while the engine runs.

A shared host runs the benchmark at a speed that changes by up to 2x, in
episodes of a fraction of a second to several minutes, with no steal time
to show for it: CPU time equals wall time in both states.  A run cannot
wait such an episode out, so every timing is divided by the probe's time
around it and reported at NOMINAL_PROBE_S, the probe's time on a quiet
host of the machine the benchmark was written on (Intel Xeon, 2 vCPUs).

The probe does what the engine does most: Fraction arithmetic, tuple keys
and dict updates.  It never calls the engine, so a change to the engine
moves the engine's timings and not the probe.

In a worker, `SpeedProbe` runs the workload once at start, then from a
SIGALRM timer every PROBE_INTERVAL_S seconds, and keeps each sample with the
time it started.  `Clock` times an operation without the probe time spent
inside it.  `speed_s` gives the probe time that goes with an operation: the
mean of the samples taken during it, or of its nearest samples before and
after when it is shorter than the interval.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.2
NOMINAL_PROBE_S = 0.0025


def probe_work() -> Fraction:
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 400):
        f = Fraction(i % 17 - 8, i % 7 + 1)
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + f
        total += f * table[key]
    return total


def probe_s() -> float:
    """One probe sample: the seconds probe_work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe samples taken at start, every PROBE_INTERVAL_S, and at stop."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at start, seconds)
        self.spent = 0.0  # seconds spent in the probe, all told

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, probe_s()))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def speed_s(self, start: float, end: float) -> float:
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            before = [s for t, s in self.samples if t < start][-1:]
            after = [s for t, s in self.samples if t > end][:1]
            inside = before + after
        return sum(inside) / len(inside)


class Clock:
    """Times one operation, less the probe samples taken inside it."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe

    def __enter__(self):
        self.spent0 = self.probe.spent if self.probe else 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        spent = (self.probe.spent if self.probe else 0.0) - self.spent0
        self.seconds = self.end - self.start - spent
        return False

    def record(self) -> dict:
        """seconds, and the probe time that goes with them."""
        out = {"seconds": self.seconds}
        if self.probe:
            out["probe_s"] = self.probe.speed_s(self.start, self.end)
        return out

"""Reference-speed probe: rescales measured times to a fixed machine speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, so raw wall times of the same code spread too far
between runs to judge a change. While a timed region runs, an interval timer
interrupts it every ``INTERVAL_S`` and times a fixed pure-Python loop (the
probe). The time spent in probes is removed from the region, and the rest is
rescaled to the time it would take on a machine where the probe takes
``NOMINAL_S``: each stretch of ``GROUP`` probe intervals (half a second) is
scaled by ``NOMINAL_S / median probe time`` within it, so speed changes
inside a long region are followed. The probe never touches the package, so a
change to the package cannot move it.

Run as a script it times ``import moyalcalc`` under the probe in a fresh
interpreter and prints ``raw_s scaled_s``.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

INTERVAL_S = 0.05
GROUP = 10
NOMINAL_S = 0.001
_LOOP = 15000


def _probe_once(samples):
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    samples.append((t0, time.perf_counter() - t0))


def speed(n=10):
    """Median probe time over ``n`` probes run back to back."""
    samples = []
    for _ in range(n):
        _probe_once(samples)
    return statistics.median(d for _s, d in samples)


class Probe:
    """Times one region at a time, interrupted by the probe every ``INTERVAL_S``."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, lambda _sig, _frame: _probe_once(self.samples))

    def measure(self, fn, *args):
        """Run ``fn(*args)``; return (result, raw seconds, scaled seconds).

        The probes cut the region into intervals; each runs at the speed of
        the probe that opened it. One probe runs before the region and opens
        the first interval, so even a region shorter than ``INTERVAL_S`` has
        a speed sample.
        """
        self.samples = []
        _probe_once(self.samples)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
        inside = [(s, d) for s, d in self.samples[1:] if s + d <= t1]
        starts = [t0] + [s + d for s, d in inside]
        ends = [s for s, _d in inside] + [t1]
        work = [e - s for s, e in zip(starts, ends)]
        speed = [d for _s, d in self.samples[:len(work)]]
        scaled = sum(sum(work[g:g + GROUP]) / statistics.median(speed[g:g + GROUP])
                     for g in range(0, len(work), GROUP))
        return result, sum(work), scaled * NOMINAL_S


def _time_import():
    def load():
        import moyalcalc  # noqa: F401

    _result, raw, scaled = Probe().measure(load)
    print(raw, scaled)


if __name__ == "__main__":
    sys.exit(_time_import())

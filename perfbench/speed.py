"""Correcting timings for a core that other tenants slow down.

On a shared host the same code runs up to twice as slowly when other
tenants load the physical core this process runs on, and that load drifts
over seconds to minutes. Neither CPU time nor the minimum of repeats
removes it. So the benchmark times a fixed pure-Python snippet next to the
work, on the same core, and rescales each measured interval by how slow
the snippet ran during it:

    corrected = (measured - time spent sampling) / mean slowdown in the interval

where a sample's slowdown is its snippet time over ``REFERENCE_S``, the
snippet's time on an idle core of a 2-core x86-64 machine with Python 3.11.

A timer signal takes a sample every ``PERIOD_S`` in the main thread, so it
runs between two steps of the work. There the snippet finds its own code
evicted from the caches by the work, and a timed run would charge the
work's memory traffic to the core. So each sample first runs the snippet
``WARMUP`` times untimed and then takes the median of ``RUNS`` timed runs;
warmed up, the samples read the same as samples taken with no work
running at all (see the README). Raw times are reported alongside.

The set-up probe loads this module before ``altseq``; of what it imports,
only ``signal`` (under a millisecond) is not imported by ``altseq.cli``
itself.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

#: The snippet's time on an idle core of the reference machine.
REFERENCE_S = 20e-6
#: How often a sample is taken while work runs.
PERIOD_S = 0.01
#: Untimed snippet runs that start each sample, then timed ones.
WARMUP = 2
RUNS = 3


def snippet() -> float:
    """Seconds taken by one run of a fixed pure-Python loop."""
    t0 = perf_counter()
    total = 0
    for i in range(400):
        total += i * i
    return perf_counter() - t0


class SpeedProbe:
    """Samples the core's slowdown every PERIOD_S on a timer signal, in the
    main thread, so that it shares the core with the work being timed."""

    def __init__(self):
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        #: Cumulative seconds spent sampling, up to and including each sample.
        self.busy: list[float] = []
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        for _ in range(WARMUP):
            snippet()
        duration = sorted(snippet() for _ in range(RUNS))[RUNS // 2]
        t1 = perf_counter()
        self.times.append(t1)
        self.slowdowns.append(duration / REFERENCE_S)
        self.busy.append((self.busy[-1] if self.busy else 0.0) + (t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)

    def busy_s(self, t0: float, t1: float) -> float:
        """Seconds spent sampling within [t0, t1]."""
        lo, hi = self._span(t0, t1)
        if hi == lo:
            return 0.0
        return self.busy[hi - 1] - (self.busy[lo - 1] if lo else 0.0)

    def slowdown(self, t0: float, t1: float) -> float:
        """The core's slowdown over [t0, t1]: work time over corrected time.

        Samples are evenly spaced in wall time and each covers its share of
        the interval at its own speed, so the slowdowns combine as a
        harmonic mean; a sample stalled by a rare event barely moves it.
        An interval too short to hold a sample takes its nearest samples.
        """
        lo, hi = self._span(t0, t1)
        if hi == lo:
            lo, hi = max(0, lo - 1), hi + 1
        window = self.slowdowns[lo:hi]
        if not window:
            raise RuntimeError("no speed samples were taken")
        return len(window) / sum(1.0 / s for s in window)

    def corrected(self, t0: float, t1: float) -> float:
        """The work's time in [t0, t1] on a core where the snippet takes REFERENCE_S."""
        return (t1 - t0 - self.busy_s(t0, t1)) / self.slowdown(t0, t1)

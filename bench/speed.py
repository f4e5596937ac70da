"""Machine-speed probe: fixed calibration bursts run inside each sample.

On a shared cloud VM the same cold build of JW_10 takes anywhere from 1.6 s
to 3.6 s depending on what the other tenants do, and the speed changes every
few seconds, so raw wall times of one run and the next disagree by far more
than any change worth measuring.  CPU time does not help: the slowdown
is counted as our own CPU time.

The probe measures the speed of the machine while a sample runs.  A burst is
a fixed piece of pure-Python work of the same kind the program does
(``fractions.Fraction`` arithmetic, dicts keyed by tuples, sorting); it
belongs to the benchmark, so a change to ``wenzl`` cannot change it.  A
sample runs bursts

* ``EDGE_BURSTS`` times in a row just after set-up and just after the
  timed phase, and
* once every ``INTERVAL_S`` seconds of wall time during set-up and the
  timed phase, from a SIGALRM handler, so that a phase of many seconds is
  probed all along its length (untraced samples only, so that no burst
  lands inside a span).

The time spent in bursts is subtracted from the phase that holds them, and
the rest is scaled by ``REFERENCE_BURST_S / harmonic mean burst``, the mean
taken over the bursts that ran during the phase or within ``NEAR_S`` of it:
the phase's time on a machine on which a burst takes ``REFERENCE_BURST_S``.
Only bursts close to a phase say how fast the machine was while it ran.  On the VM above a burst takes either
about 4.5 ms or about 7.8 ms, the machine switching between the two states
every few seconds, so a median flips between them; the harmonic mean
weighs each state by the work the program got done in it, and a burst
slowed by a one-off stall barely moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
EDGE_BURSTS = 3
NEAR_S = 0.1
# A burst's time on a 2-core x86-64 cloud VM under Python 3.11 in its faster
# state.  Only a scale factor: normalised times read as seconds on that VM.
REFERENCE_BURST_S = 0.005

_THREE_HALVES = Fraction(3, 2)


def burst() -> int:
    """The fixed unit of work whose duration gauges the machine's speed."""
    table: dict = {}
    x = Fraction(1, 3)
    for i in range(1200):
        key = ((i * 7919) % 61, i & 7)
        table[key] = table.get(key, 0) + x
        x = x * _THREE_HALVES if i & 1 else x / _THREE_HALVES
    return len(sorted(table.items()))


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Runs bursts and remembers (start, duration) of each."""

    def __init__(self) -> None:
        self.bursts: list[tuple[float, float]] = []
        self._saved = None

    def run_burst(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not a burst's cost
        start = _clock()
        burst()
        self.bursts.append((start, _clock() - start))
        if enabled:
            gc.enable()

    def edge(self) -> None:
        for _ in range(EDGE_BURSTS):
            self.run_burst()

    def _fire(self, signum, frame) -> None:
        self.run_burst()

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def spent(self, start: float, end: float) -> float:
        """Seconds of bursts that began in [start, end)."""
        return sum(d for t, d in self.bursts if start <= t < end)

    def mean_burst(self, start: float, end: float) -> float:
        """Harmonic mean duration of the bursts that began in [start - NEAR_S, end + NEAR_S)."""
        return statistics.harmonic_mean([d for t, d in self.bursts
                                         if start - NEAR_S <= t < end + NEAR_S])

    def normalise(self, start: float, end: float) -> float:
        """Time of [start, end) without its bursts, in reference seconds."""
        scale = REFERENCE_BURST_S / self.mean_burst(start, end)
        return (end - start - self.spent(start, end)) * scale

"""Job timing corrected for the speed the host gives this process.

The benchmark runs on a share of a host whose speed changes from one moment
to the next: when a neighbour is busy on the same physical core, pure Python
and numpy alike run about 1.5 times slower, in spells from a fraction of a
second to minutes.  Raw wall times then measure the neighbour as much as the
program.

``Clock.measure`` times one call and samples the host's speed while it runs:
a fixed pure-Python probe is timed before and after the call and, from a
SIGALRM interval timer, every ``SAMPLE_S`` seconds during it.  Work done is
speed integrated over time, so the corrected time is the call's wall time
(less the time spent in the samples) times the mean of
``PROBE_NOMINAL_S / probe`` over the samples: the seconds the call would have
taken with the probe running at its nominal speed.
"""

import math
import signal
import time

# The probe's time on one uncontended core of the 2-vCPU Intel Xeon VM the
# baseline was recorded on: corrected times read as seconds on that core.
PROBE_NOMINAL_S = 4.0e-5
SAMPLE_S = 0.02


def _kernel() -> float:
    s = 0.0
    for i in range(1, 300):
        s += math.log(i) / i
    return s


def probe(repeats: int) -> float:
    """Best wall time of ``repeats`` runs of the probe kernel."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times calls one at a time, in wall and in corrected seconds."""

    def __init__(self):
        self._last = probe(5)
        self._speed = []      # PROBE_NOMINAL_S / probe, per sample
        self._spent = 0.0     # seconds spent in samples during the call
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._speed.append(PROBE_NOMINAL_S / probe(3))
        self._spent += time.perf_counter() - t0

    def measure(self, fn):
        """``(fn(), wall seconds, corrected seconds)``.

        When ``fn`` waits on a child process pinned to the same CPU, the
        samples take the CPU from the child for their duration, which is
        subtracted like any other sample's."""
        self._speed = [PROBE_NOMINAL_S / self._last]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
        self._last = probe(5)
        self._speed.append(PROBE_NOMINAL_S / self._last)
        wall -= self._spent
        return result, wall, wall * math.fsum(self._speed) / len(self._speed)

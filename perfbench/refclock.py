"""A clock that runs at the machine's current speed, for timing on a shared host.

On a few shared cores the speed of interpreted code changes by 20-40% from one
second to the next, as other tenants come and go.  A pass that takes 12 s can
read anywhere from 10 to 16 s, and a longer run does not average this away,
because the slow and fast phases last from seconds to minutes.

`RefClock` divides the change out.  While it is running, SIGALRM fires every
`PERIOD` seconds in the main thread, and the handler times one run of a fixed
reference loop.  Each stretch of wall time between two samples is scaled by
`NOMINAL_S / (that stretch's closing reference time)`, and the time the handler
itself took is left out.  `now()` therefore reads seconds at a fixed nominal
speed: the speed at which the reference loop takes `NOMINAL_S`.  On a quiet
machine it runs at about the wall clock's rate.

The reference loop does what the search kernel and the chain DP do: numpy
scalar reads, list reads, small-int arithmetic and branches.  The closer its
mix is to the work being timed, the better it tracks the speed that work saw.

The clock measures only the thread that installs it.  Work run by other
threads or processes is timed in wall seconds of the main thread, scaled by
the main thread's reference loop, which itself then competes with that work.
"""

from __future__ import annotations

import signal
import time

import numpy

PERIOD = 0.02           # seconds between reference samples
REF_ITERATIONS = 2500   # one reference run takes 0.4-0.8 ms, 2-4% of PERIOD
# The reference time that defines the clock's second.  The value only sets
# the unit: it is about what one reference run takes inside the handler when
# the 2-core x86-64 host the benchmark was sized on is in a fast phase, so
# that there the clock runs close to wall time.
NOMINAL_S = 0.0005

_ARRAY = numpy.arange(64, dtype=numpy.int64)
_LIST = list(range(64))


def reference_loop() -> int:
    a, lst, s = _ARRAY, _LIST, 0
    for i in range(REF_ITERATIONS):
        j = i & 63
        if a[j] > s & 63:
            s += lst[j]
        else:
            s -= 1
    return s


class RefClock:
    """Seconds at nominal speed, while installed with `with RefClock() as clock`."""

    def __init__(self):
        # (nominal seconds up to `last`, perf_counter at the last sample's end,
        # scale of the stretch since then); replaced whole, so a sample that
        # lands inside now() cannot tear it.
        self._state = (0.0, 0.0, 1.0)
        self.samples = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        norm, last, _ = self._state
        scale = NOMINAL_S / (t1 - t0)
        self._state = (norm + (t0 - last) * scale if self.samples else 0.0, t1, scale)
        self.samples += 1

    def now(self) -> float:
        norm, last, scale = self._state
        return norm + (time.perf_counter() - last) * scale

    def __enter__(self) -> "RefClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

"""Machine-speed probe for timing on a shared, unsteady CPU.

On a host shared with other tenants the speed of the same pure-Python code
moves in steps of up to 2x that last seconds to tens of seconds, so raw wall
times of the same pass spread far wider than any useful regression bound.
While the probe is open, an interval timer fires every ``INTERVAL_S`` seconds
and times a fixed pure-Python snippet that shares nothing with sigbasis.

``clock()`` is ``time.perf_counter()`` minus the time spent in those
snippets.  ``elapsed(mark)`` gives the ``clock()`` interval since ``mark``
both as it is and converted to seconds on a machine where one snippet takes
``REFERENCE_S``: interval * REFERENCE_S / (mean snippet time over the
interval, without its fastest and slowest tenth).  An interval with fewer than ``MIN_SAMPLES`` samples uses the
latest ``MIN_SAMPLES`` instead.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_S = 400e-6
MIN_SAMPLES = 10


def _snippet():
    # Tuple, dict and small-int work as in the monomial layer, then rational
    # arithmetic as in the Q coefficient layer.
    table = {}
    for i in range(150):
        key = tuple(x + y for x, y in zip((i % 13, i % 7, i), (1, 2, 3)))
        table[key] = table.get(key, 0) + 1
    x = Fraction(3, 7)
    for i in range(1, 25):
        x = x * Fraction(i + 1, i + 2) - Fraction(1, i)
    return table, x


class SpeedProbe:
    """Context manager that samples the snippet time while it is open."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _snippet()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self.spent += duration

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def mark(self):
        return self.clock(), len(self.samples)

    def elapsed(self, mark) -> tuple[float, float]:
        """(reference seconds, clock seconds) from ``mark`` to now."""
        start, first = mark
        interval = self.clock() - start
        if len(self.samples) == 0:
            self._sample(None, None)
        window = self.samples[min(first, max(0, len(self.samples) - MIN_SAMPLES)):]
        ordered = sorted(window)
        cut = len(ordered) // 10
        return interval * REFERENCE_S / statistics.mean(ordered[cut:len(ordered) - cut]), interval

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

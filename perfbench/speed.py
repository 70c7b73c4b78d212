"""Host-speed calibration: a fixed pure-Python kernel timed around and during
each timed region.

On a shared virtual machine the same code runs up to two and a half times
more slowly for stretches of a fraction of a second to minutes (CPU time
slows with wall time, so the cause is the host, not waiting).  A run that
falls in a slow stretch reads slow whatever the solver does.  The
benchmark therefore measures the host's speed while it times: a
``Speedometer`` times ``BRACKET_PASSES`` passes of a small kernel right
before and right after a timed region, and one pass every
``SAMPLE_EVERY_S`` of wall time inside it, from a timer signal.  Each time
is reported scaled to a nominal host on which one kernel pass takes
``REFERENCE_MS``:

    scaled ms = (measured ms - kernel ms inside) * REFERENCE_MS / mean pass ms

where the mean counts the passes inside the region one by one and each
bracket as one pass of its mean.  Passes inside the region follow the
speed the solver actually had, which the brackets alone cannot: the
scaled times of hanoi(7) spread about half as much with them.

The kernel does the kind of work the solver does in the interpreter
(calls, tuple building, dict stores, list comprehensions, ``Fraction``
arithmetic) and never calls the solver, so a change to the solver moves
the scaled times by as much as the measured ones, while a change of host
speed moves the kernel with them and cancels.  A traced region's spans
also hold the passes taken inside them, about 5% of their time, spread
in proportion over the layers.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 0.5
BRACKET_PASSES = 10
SAMPLE_EVERY_S = 0.01


def _walk(t, depth):
    if depth == 0:
        return (t,)
    return (_walk((t, depth), depth - 1), _walk((depth, t), depth - 1))


def kernel():
    out = {}
    for i in range(6):
        out[i] = len(_walk(i, 7))
        s = Fraction(0)
        for k in range(20):
            s += Fraction(k, i + 1)
        out[(i, s)] = [x for x in range(50) if x % 3]
    return out


def kernel_ms():
    """One timed pass of the kernel, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1000.0


def scaled(ms, cal_ms):
    """`ms` measured while a kernel pass took `cal_ms`, as on the nominal host."""
    return ms * REFERENCE_MS / cal_ms


class Speedometer:
    """``with Speedometer() as meter:`` around a timed region.

    Inside, ``meter.paused_ms(t0, t1)`` is the kernel time taken between two
    ``time.perf_counter()`` readings; after it, ``meter.cal_ms()`` is the
    mean pass time.  The timer signal is SIGALRM, which nothing else in the
    benchmark's child process uses.
    """

    def __init__(self):
        self.before = self.after = None
        self.inside = []  # (perf_counter at the start, ms) per pass

    def _bracket(self):
        return statistics.fmean(kernel_ms() for _ in range(BRACKET_PASSES))

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.inside.append((t, kernel_ms()))

    def __enter__(self):
        self.before = self._bracket()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.after = self._bracket()
        return False

    def paused_ms(self, t0, t1):
        return sum(ms for t, ms in self.inside if t0 <= t < t1)

    def cal_ms(self):
        inside = [ms for _, ms in self.inside]
        return (self.before + self.after + sum(inside)) / (2 + len(inside))

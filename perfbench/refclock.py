"""Reference-speed clock: times that do not move when the host's speed does.

On a small shared host the same pure-Python loop can take anywhere from
one to three times its fastest time, and the speed changes within a
tenth of a second as well as over hours.  A plain wall time then says
more about the host than about the code.

While a ``RefClock`` runs, a timer signal interrupts the process every
``INTERVAL_S`` seconds and runs a fixed reference slice: exact
``Fraction`` arithmetic from the standard library, the kind of work the
library itself does, and no library code.  The handler runs between
bytecodes of the measured code, so the slices sample the host's speed
throughout even a long call.  ``seconds(t0, t1)`` then converts a
``perf_counter`` interval into reference seconds: the slices that ran
inside the interval are left out, and each stretch of work between two
slices is scaled by ``NOMINAL_SLICE_S`` over the mean duration of those
two slices.

One reference second is the time the work takes on a host that runs a
slice in ``NOMINAL_SLICE_S``.  A faster library makes the reference time
smaller; a slower or busier host does not make it larger.
"""

from __future__ import annotations

import array
import signal
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

clock = time.perf_counter

INTERVAL_S = 0.02
SLICE_TERMS = 300
# About the slice's duration on the 2-vCPU host the bounds were set on, so
# reference seconds read close to wall seconds there.
NOMINAL_SLICE_S = 0.001


def reference_slice() -> Fraction:
    total = Fraction(0)
    for i in range(1, SLICE_TERMS):
        total += Fraction(i % 13 + 1, i % 97 + 1)
    return total


class RefClock:
    """Runs reference slices on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._previous = None

    def _slice(self, signum, frame) -> None:
        t0 = clock()
        reference_slice()
        self.starts.append(t0)
        self.ends.append(clock())

    def start(self) -> RefClock:
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.index()

    def index(self) -> None:
        """Precompute the speed of every gap between slices.

        Gap g runs from the end of slice g-1 to the start of slice g; its
        speed is the mean duration of those two slices (of the one that
        exists, at either end).
        """
        if not self.starts:
            raise RuntimeError("no reference slice ran; nothing can be timed")
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self._mean_slice = sum(durations) / len(durations)
        last = len(durations) - 1
        self._gap_slice = [
            (durations[max(g - 1, 0)] + durations[min(g, last)]) / 2 for g in range(last + 2)
        ]
        full_gaps = (
            (self.starts[g] - self.ends[g - 1]) / self._gap_slice[g] for g in range(1, last + 1)
        )
        # _before[g]: slice-normalised work of the full gaps 1 .. g-1
        self._before = [0.0, 0.0, *accumulate(full_gaps)]

    @property
    def slices(self) -> list[tuple[float, float]]:
        return list(zip(self.starts, self.ends))

    def mean_slice_s(self) -> float:
        return self._mean_slice

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between two ``clock()`` reads.

        Each stretch of work between slices is scaled by its own gap's
        speed, so work done while the host was slow counts as much as work
        done while it was fast.
        """
        ends, speed = self.ends, self._gap_slice
        g0, g1 = bisect_right(ends, t0), bisect_right(ends, t1)
        if g0 == g1:
            work = (t1 - t0) / speed[g0]
        else:
            work = (
                (self.starts[g0] - t0) / speed[g0]
                + self._before[g1] - self._before[g0 + 1]
                + (t1 - ends[g1 - 1]) / speed[g1]
            )
        return work * NOMINAL_SLICE_S

"""Host-speed calibration.

On a shared host the CPU speed a process gets drifts, by up to 1.8x over
tens of seconds on the 2-core machine this benchmark was written on, and
CPU time tracks wall time within 2%, so the drift is host speed, not
waiting.  To keep that out of the metrics, a fixed stdlib-only reference
routine is timed between graphs and, during timed passes, every few tens
of milliseconds from a SIGALRM handler, so a coloring that lasts seconds
is calibrated by the host speed during it.  The handler interrupts
whatever Python code is running and calls nothing in twodist.  Each
measured time is scaled to a nominal host on which the reference takes
``NOMINAL_S``:

    scaled = measured * NOMINAL_S / mean reference time during it

The routine is independent of twodist, so a change to the program moves
the scaled times exactly as it moves the measured ones.  Its mix (tuples,
dicts, sets, sorting, a graph search) is the kind of work twodist does.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time

NOMINAL_S = 0.003

_rng = random.Random(7)
_ADJ = {v: tuple(_rng.randrange(300) for _ in range(6)) for v in range(300)}


def _reference() -> int:
    total = 0
    for _ in range(6):
        seen = set()
        stack = [0]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(u for u in _ADJ[v] if u not in seen)
        rows = {v: tuple(sorted(_ADJ[v])) for v in seen}
        total += len(rows) + sum(len(r) for r in rows.values())
    return total


class Meter:
    """Reference timings, taken when the caller asks for one (between
    graphs) and, inside ``ticking``, on a wall-clock timer.  ``spent`` is
    the time the reference took, which the caller subtracts from what it
    measured around it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer tick that lands in a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _reference()
            end = time.perf_counter()
        finally:
            self._busy = False
        self.samples.append(end - start)
        self.spent += end - start

    @contextlib.contextmanager
    def ticking(self, interval: float):
        """Also sample every `interval` seconds of wall time."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale_since(self, first: int) -> float:
        """NOMINAL_S over the mean reference time of samples[first:], each
        sample clipped at 1.5 times their median: a sample that an interrupt
        lands in reads far too slow, yet the mean tracks the speed better
        than the median does."""
        refs = self.samples[first:]
        cap = 1.5 * statistics.median(refs)
        return NOMINAL_S * len(refs) / sum(min(r, cap) for r in refs)

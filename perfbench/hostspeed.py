"""Timings rescaled to a fixed reference speed of the host.

The 2-vCPU VMs this benchmark was written on do not run single-threaded
Python at a steady speed: it switches between two levels about 2x
apart, in phases that last from a fraction of a second to minutes, and
process CPU time equals wall time throughout (no steal time is
accounted).  A raw wall time therefore says as much about the phase a
run fell into as about the program: ten 60 s runs of the same code can
spread by more than 25% of their median.

:class:`SpeedProbe` measures the host's speed while the program runs.
A ``SIGALRM`` handler in the measuring process times a fixed pure-Python
loop (about 1 ms) every 50 ms.  The loop is this file's own code, so no
change to the program can make it faster or slower; only the host can.
:meth:`SpeedProbe.scaled` turns a wall interval into the seconds the
same work takes at the reference speed: the probe's own time inside the
interval is subtracted, and the rest is multiplied by the mean of
``REFERENCE_S / probe time`` over the probes around it.  Timer signals
are not inherited by child processes, so only the measuring process is
sampled.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List, Tuple

#: a measured interval, ``(start, end)`` in ``perf_counter`` seconds
Span = Tuple[float, float]


def _loop(iterations: int) -> int:
    """Dictionary, list and integer work, the mix the simulator's stages
    spend their time on."""
    table: dict = {}
    window: List[int] = []
    total = 0
    for i in range(iterations):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        window.append(key)
        if len(window) > 64:
            total += window.pop(0)
    return total


class SpeedProbe:
    """Samples the host's speed from a timer signal while it is entered."""

    #: seconds between probes
    PERIOD = 0.05
    #: iterations of the probe loop (about 0.5 ms in a fast phase)
    ITERATIONS = 2000
    #: probe time that defines the reference speed: the loop's time in a
    #: fast phase of an Intel Xeon 2.0 GHz vCPU with Python 3.11
    REFERENCE_S = 0.5e-3
    #: probes this far outside a short interval still describe its speed
    MARGIN = 2 * PERIOD

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _loop(self.ITERATIONS)
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def scaled(self, span: Span) -> float:
        """Seconds the work of ``span`` takes at the reference speed."""
        start, end = span
        inside = self.durations[bisect_left(self.starts, start) : bisect_left(self.starts, end)]
        around = self.durations[
            bisect_left(self.starts, start - self.MARGIN) : bisect_right(self.starts, end + self.MARGIN)
        ]
        if not around:
            raise RuntimeError("no speed probe ran near a measured interval")
        work = end - start - sum(inside)
        return work * statistics.fmean(self.REFERENCE_S / d for d in around)

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 in a fast phase."""
        return statistics.median(self.durations) / self.REFERENCE_S if self.durations else 0.0

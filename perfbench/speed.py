"""Host speed probes: how fast the host ran while a world was built and run.

On a shared host the same run can take 0.6 s or 1.6 s depending on what else
the machine runs, and the slow spells come and go within seconds, so neither
repeating runs nor timing a reference before and after each run averages
them out. Inside `Probes`, a SIGALRM timer interrupts the simulation every
PROBE_EVERY seconds to time a fixed pure-Python loop, and `clock()` leaves
that time out. The mean probe time over PROBE_SECONDS is the host's
slowness during the run; dividing a measured time by it reports the time at
the speed the host had when the probe took PROBE_SECONDS.

The loop does not use the simulator, so a change to the program moves the
program's times and not the probes. It mixes the operations the engine
spends its time on (a heap of tuples, dict updates, float math, attribute
access on small objects) over a working set of a few kilobytes, and runs once
untimed first so that what the simulation left in the caches matters little.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time
from random import Random

PROBE_EVERY = 0.1        # seconds of wall time between probes
PROBE_SECONDS = 0.0012   # one probe's time on this 2-vCPU host at its fast speed, Python 3.11
_WARM_ITERS = 300
_ITERS = 1000


class _Item:
    __slots__ = ("pos", "zone", "acc")

    def __init__(self, pos: float, zone: int, acc: float) -> None:
        self.pos = pos
        self.zone = zone
        self.acc = acc


def _loop(iters: int) -> float:
    rng = Random(12345)
    heap: list[tuple[float, int, str]] = []
    sums: dict[int, float] = {}
    ring = [_Item(0.0, 0, 0.0)] * 64
    acc = 0.0
    for i in range(iters):
        heapq.heappush(heap, (rng.random(), i, "event"))
        k = i % 97
        sums[k] = sums.get(k, 0.0) + math.hypot(i * 0.5, k * 0.25)
        ring[i % 64] = _Item(float(i), k, acc)
        if len(heap) > 64:
            t, j, _ = heapq.heappop(heap)
            acc += t * ring[j % 64].zone
    return acc


class Probes:
    """Probe the host's speed on a timer inside the block, and once on entry
    and once on exit."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in probes, warm-up included

    def clock(self) -> float:
        """perf_counter without the probes' own time (a probe firing between
        the two reads can shift one reading by a probe, about 1.5 ms)."""
        return time.perf_counter() - self.spent

    def slowness(self, first: int = 0) -> float:
        """Mean time of the probes from the first-th on, over PROBE_SECONDS."""
        return statistics.fmean(self.times[first:]) / PROBE_SECONDS

    def __enter__(self) -> "Probes":
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def _on_alarm(self, _signum, _frame) -> None:
        self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        _loop(_WARM_ITERS)
        t1 = time.perf_counter()
        _loop(_ITERS)
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self.spent += t2 - t0

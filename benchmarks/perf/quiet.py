"""Noise control: keep the process on whichever CPU is quiet right now.

On the 2-vCPU sandbox this benchmark was sized on, each vCPU spends about
half its time 40-55 % slower than its best for 5-70 s at a stretch (a
neighbour on the host), and the two vCPUs do so largely independently: in a
seven-minute log either one was slow half the time, both together 28 %.
A process left where the scheduler put it sits out whole runs in the slow
state; one that re-checks once a second and moves to the faster vCPU sees the
quiet machine nearly three quarters of the time, which is what lets a
best-of-rounds latency repeat from run to run.

The probe is pure bytecode and needs no import, so it can run before the
program under test is loaded.  Nothing here is timed into any metric: the
harness calls :meth:`QuietCpu.settle` between operations only.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

PROBE_LOOPS = 30_000       # about 2 ms of bytecode
PROBE_REPEATS = 3
#: Move only for a CPU this much faster than the current one; below that
#: the cold caches of a migration cost more than the move gains.
MOVE_MARGIN = 0.95
SETTLE_EVERY = 1.0         # seconds between two looks at the other CPUs


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def _pin(cpu: int) -> None:
    """Bind every thread of this process (affinity is per thread on Linux)."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended while we were listing


class QuietCpu:
    """Pins the process to one CPU and re-picks it when asked.

    On a platform without ``sched_setaffinity``, with one CPU allowed, or
    with ``enabled=False`` (several benchmark processes at once, which would
    all pick the same CPU), :meth:`settle` does nothing and the scheduler
    keeps the decision.
    """

    def __init__(self, enabled: bool = True):
        allowed = getattr(os, "sched_getaffinity", None)
        self.cpus: List[int] = sorted(allowed(0)) if allowed and enabled else []
        self.current: Optional[int] = None
        self.moves = 0
        self._due = 0.0

    def settle(self) -> None:
        """Probe every allowed CPU and stay on (or move to) the fastest."""
        if len(self.cpus) < 2:
            return
        timings = {}
        for cpu in self.cpus:
            _pin(cpu)
            timings[cpu] = min(_probe() for _ in range(PROBE_REPEATS))
        best = min(timings, key=timings.__getitem__)
        if self.current is not None and timings[best] > MOVE_MARGIN * timings[self.current]:
            best = self.current
        if best != self.current:
            self.moves += self.current is not None
            self.current = best
        _pin(best)
        self._due = time.perf_counter() + SETTLE_EVERY

    def settle_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.settle()

"""Wall times rescaled to a reference host speed.

The 2-vCPU hosts this benchmark was built on are shared, and their speed
is not constant: a fixed loop switches between levels up to 40% apart, in
CPU time as well as in wall time, and stays at one for seconds at a time.
A 30-second run sees a different mix of levels each time, which moved
whole-run medians by up to 30% between runs of the same code.

So every timed interval is bracketed by a short probe, a fixed piece of work
that runs no repository code, taken right before and right after it.  A
probe reads the host's slowness: its time over the time it takes on the
reference host, about the fast level of the host above.  The interval is
then reported as ``wall / mean(slowness before, slowness after)``, the time
it would have taken on the reference host.  Work the program adds still
counts in full; only the host's speed at the time is divided out.  The raw
wall times stay in the report next to the rescaled ones.

The host's slow levels do not slow all code alike, so the probe mixes the
three kinds of work the engine does: interpreter arithmetic, an event loop
over a heap with generators and small objects (the simulator's pattern), and
NumPy kernels on small arrays.  Against a fixed query repeated for two
minutes on such a host, the mix left less spread than any one of the three.
The CPUs of such a host also change speed independently of each other, and
the parallel backend's workers use all of them, so a probe runs on each CPU
the process may use and takes their mean.  The parallel backend also waits
on its worker processes many times per query, and in some slow phases of
the host those wake-ups slowed far more than any computation did; for it
the probe adds the time of pipe round trips to a child process, combined
with the computing part as a geometric mean.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from typing import List, Tuple

import numpy

#: Rounds per CPU.  A CPU's figure is its fastest round: a preemption or an
#: interrupt only ever adds time, while the host's speed level slows every
#: round alike.
PROBE_ROUNDS = 2
#: Seconds one probe round takes on the reference host (its fast level).
REFERENCE_PROBE_S = 0.0018
#: Round trips per echo round, and rounds per echo probe (fastest counts).
ECHO_TRIPS = 100
ECHO_ROUNDS = 2
#: Seconds one echo round takes on the reference host (its fast level).
REFERENCE_ECHO_S = 0.0012

_KEYS = numpy.arange(20_000, dtype=numpy.int64) * 2_654_435_761 % 100_003
_VALUES = _KEYS.astype(numpy.float64)


class _Event:
    __slots__ = ("time", "owner")

    def __init__(self, time: int, owner: int):
        self.time = time
        self.owner = owner


def _counter():
    total = 0
    while True:
        total += yield total


def _round() -> None:
    total = 0
    for i in range(8_000):
        total += i * i
    queue, owners, counts = [], [_counter() for _ in range(50)], {}
    for owner in owners:
        next(owner)
    for i in range(500):
        heapq.heappush(queue, ((i * 7919) % 500, i, _Event(i, i % 50)))
    while queue:
        _, _, event = heapq.heappop(queue)
        owners[event.owner].send(1)
        counts[event.owner] = counts.get(event.owner, 0) + 1
    groups = _KEYS % 97
    numpy.unique(groups, return_inverse=True)
    numpy.bincount(groups, weights=_VALUES)
    _KEYS[_KEYS > 5000].sum()


def _fastest_round() -> float:
    best = float("inf")
    for _ in range(PROBE_ROUNDS):
        started = time.perf_counter()
        _round()
        best = min(best, time.perf_counter() - started)
    return best


def cpu_probe() -> float:
    """Seconds one probe round takes right now: mean over CPUs of the fastest."""
    if not hasattr(os, "sched_setaffinity"):
        return _fastest_round()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest_round())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Echo:
    """A child process that sends back every byte it reads from a pipe."""

    def __init__(self):
        to_child, self._to_child = os.pipe()
        self._from_child, from_child = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the child: echo until the parent closes its end
            try:
                os.close(self._to_child)
                os.close(self._from_child)
                while os.write(from_child, os.read(to_child, 1)):
                    pass
            finally:
                os._exit(0)
        os.close(to_child)
        os.close(from_child)

    def round_trips(self) -> float:
        """Seconds ``ECHO_TRIPS`` one-byte round trips take (fastest round)."""
        best = float("inf")
        for _ in range(ECHO_ROUNDS):
            started = time.perf_counter()
            for _ in range(ECHO_TRIPS):
                os.write(self._to_child, b"x")
                os.read(self._from_child, 1)
            best = min(best, time.perf_counter() - started)
        return best

    def close(self) -> None:
        """End the child and wait for it."""
        os.close(self._to_child)
        os.waitpid(self.pid, 0)
        os.close(self._from_child)


def host_scale(before: float, after: float) -> float:
    """Factor that turns wall time between two probes into reference time."""
    return 2.0 / (before + after)


class HostClock:
    """Times intervals in wall and in reference seconds.

    With ``cross_process`` the probe includes the echo round trips; ``close()``
    ends the echo child.  ``start()`` reuses the probe that ended the previous
    interval when no more than ``reuse_s`` has passed since, so back-to-back
    intervals share one probe between them.
    """

    def __init__(self, cross_process: bool = False, reuse_s: float = 0.05):
        self.reuse_s = reuse_s
        self.echo = Echo() if cross_process else None
        #: Slowness read by each probe (1.0 is the reference host).
        self.probes: List[float] = []
        self._last: Tuple[float, float] = (float("-inf"), 0.0)

    def close(self) -> None:
        if self.echo is not None:
            self.echo.close()
            self.echo = None

    def _probe(self) -> float:
        value = cpu_probe() / REFERENCE_PROBE_S
        if self.echo is not None:
            value = math.sqrt(value * self.echo.round_trips() / REFERENCE_ECHO_S)
        self.probes.append(value)
        self._last = (time.perf_counter(), value)
        return value

    def start(self) -> Tuple[float, float]:
        """Begin an interval; returns the token ``stop`` takes."""
        at, value = self._last
        before = value if time.perf_counter() - at <= self.reuse_s else self._probe()
        return before, time.perf_counter()

    def stop(self, token: Tuple[float, float]) -> Tuple[float, float]:
        """End an interval; returns ``(wall seconds, host scale)``."""
        wall = time.perf_counter() - token[1]
        return wall, host_scale(token[0], self._probe())

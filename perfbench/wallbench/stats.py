"""The benchmark's arithmetic: percentiles, geomeans, self time, failures.

Everything here is a pure function of its arguments so the unit tests in
``perfbench/tests`` can pin it without running a query.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one that leaves at least :data:`MIN_BEYOND` samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(percentile: float, n: int) -> int:
    """1-based nearest-rank position of ``percentile`` among ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(1, math.ceil(percentile / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ``MIN_BEYOND`` samples beyond it.

    Falls back to the median when the sample is too small for any candidate
    (fewer than ``2 * MIN_BEYOND`` samples).
    """
    for percentile in TAIL_PERCENTILES:
        if n - nearest_rank(percentile, n) >= MIN_BEYOND:
            return percentile
    return 50.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, n)`` of the tail latency of ``values``."""
    ordered = sorted(values)
    n = len(ordered)
    percentile = tail_percentile(n)
    return percentile, ordered[nearest_rank(percentile, n) - 1], n


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs at least one value, all positive")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_query_geomean(latencies: Dict[int, List[float]]) -> float:
    """Geomean over queries of each query's median latency."""
    return geomean(statistics.median(samples) for samples in latencies.values())


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# -- self time -------------------------------------------------------------------

#: A span: ``(name, start_ns, end_ns, pid)``.
Span = Tuple[str, int, int, int]


def self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Self time per span name: duration minus time covered by nested spans.

    Nesting is resolved per process: a span only subtracts spans of its own
    pid that start inside it, so a driver blocked on workers keeps its
    waiting time while the workers' spans count for themselves.  Spans of one
    thread nest properly; a child reaching past its parent's end is clipped.
    """
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_pid[span[3]].append(span)
    totals: Dict[str, int] = defaultdict(int)
    for pid_spans in by_pid.values():
        pid_spans.sort(key=lambda s: (s[1], -s[2]))
        # Open ancestors: [name, start, end, covered_by_children].
        stack: List[list] = []

        def close(frame) -> None:
            totals[frame[0]] += (frame[2] - frame[1]) - frame[3]

        for name, start, end, _pid in pid_spans:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                end = min(end, parent[2])
                parent[3] += end - start
            stack.append([name, start, end, 0])
        while stack:
            close(stack.pop())
    return dict(totals)


# -- failure accounting ------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What happened to one timed query execution."""

    query: int
    latency_s: float
    error: Optional[str] = None
    matched: bool = True
    leaked_blocks: int = 0
    runtime_changed: bool = False
    #: Reference seconds per wall second while it ran (``hostspeed``).
    host_scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        """Latency in reference seconds."""
        return self.latency_s * self.host_scale

    @property
    def failed(self) -> bool:
        """Raised, answered wrongly, leaked shared memory or drifted in virtual time."""
        return (
            self.error is not None
            or not self.matched
            or self.leaked_blocks > 0
            or self.runtime_changed
        )


def failure_counts(outcomes: Sequence[Outcome]) -> Tuple[int, int]:
    """``(attempted, failed)`` over ``outcomes``."""
    return len(outcomes), sum(1 for o in outcomes if o.failed)


def fail_frac(outcomes: Sequence[Outcome]) -> float:
    """Failed ÷ attempted (0 for no attempts)."""
    attempted, failed = failure_counts(outcomes)
    return failed / attempted if attempted else 0.0

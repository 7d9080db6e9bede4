"""Arithmetic of the benchmark: percentiles, failure accounting, open-loop
timing and span self time.

Everything here is a pure function over plain numbers so it can be
tested without a daemon (see ``test_stats.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: Percentiles the tail rule may pick from, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default rule).

    ``inf`` entries sort last, so a failed request placed at ``inf``
    pulls every percentile that reaches it to ``inf``.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if position == low or ordered[high] == ordered[low]:
        return float(ordered[low])
    return float(ordered[low]
                 + (ordered[high] - ordered[low]) * (position - low))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile
    (rounded so that 10 beyond p90 of 100 is not 9.999...)."""
    return round(n * (100.0 - q) / 100.0, 9)


def tail_percentile(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(q, value)`` for the highest percentile in :data:`TAIL_PERCENTILES`
    that has at least :data:`MIN_BEYOND` samples beyond it, or ``None``
    when the run is too short for even the median to qualify."""
    chosen = None
    for q in TAIL_PERCENTILES:
        if samples_beyond(len(values), q) >= MIN_BEYOND:
            chosen = q
    if chosen is None:
        return None
    return chosen, percentile(values, chosen)


def percentile_if_supported(values: Sequence[float],
                            q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def with_failures(latencies: Iterable[float], failed: int) -> list[float]:
    """Latency samples with every failed, refused, timed-out or wrong
    request counted as ``inf``: it misses any latency limit."""
    return list(latencies) + [math.inf] * failed


def open_loop_latency(due_s: float, done_s: float) -> float:
    """Open-loop latency runs from when the request was *due*, so a stalled
    generator's delay is charged to the requests it held back."""
    return done_s - due_s


def lateness(due_s: float, sent_s: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent_s - due_s)


def busy_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent; overlapping children (concurrent
    threads) are counted once.
    """
    clipped = [(max(start, child_start), min(end, child_end))
               for child_start, child_end in children]
    return (end - start) - busy_seconds(clipped)


def drift(latencies_in_order: Sequence[float]) -> Optional[float]:
    """Median latency of the last third over that of the first third."""
    third = len(latencies_in_order) // 3
    if third == 0:
        return None
    first = median(latencies_in_order[:third])
    last = median(latencies_in_order[-third:])
    return last / first if first > 0 else None

"""Small numeric helpers of the end-to-end benchmark.

Everything here is a pure function of its arguments, so the smoke test
checks each one directly: percentiles, span self time, ``/proc`` CPU and
memory parsing, and sums over ``obs.metrics`` snapshots.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default: rank ``q/100 * (n-1)`` between
    the two nearest order statistics.  An empty sample has no percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank {q!r} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children are clipped to the parent and overlapping children are counted
    once, so the result is never negative.
    """
    clipped = [
        (max(start, c_start), min(end, c_end))
        for c_start, c_end in children
        if c_end > start and c_start < end
    ]
    return (end - start) - covered(clipped)


# -- /proc ---------------------------------------------------------------------


def parse_proc_stat_cpu_s(stat_text: str, clk_tck: int) -> float:
    """User + system CPU seconds from the text of ``/proc/<pid>/stat``.

    The command name (field 2) may contain spaces and parentheses, so the
    fields are counted from the last ``)``: ``utime`` and ``stime`` are
    fields 14 and 15 of the whole line.
    """
    tail = stat_text[stat_text.rindex(")") + 1 :].split()
    utime, stime = int(tail[11]), int(tail[12])
    return (utime + stime) / float(clk_tck)


def parse_proc_status_kb(status_text: str, key: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


def process_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        return parse_proc_stat_cpu_s(handle.read(), os.sysconf("SC_CLK_TCK"))


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        return parse_proc_status_kb(handle.read(), "VmHWM") / 1024.0


def tree_bytes(*paths: str) -> int:
    """Bytes of every regular file under the given files or directories."""
    total = 0
    for path in paths:
        if os.path.isfile(path):
            total += os.path.getsize(path)
            continue
        for root, _dirs, files in os.walk(path):
            for name in files:
                total += os.path.getsize(os.path.join(root, name))
    return total


# -- obs.metrics snapshots -------------------------------------------------------


def _matches(sample_labels: Dict[str, str], wanted: Dict[str, str]) -> bool:
    return all(sample_labels.get(key) == value for key, value in wanted.items())


def sample_sum(samples: Iterable, name: str, **labels: str) -> float:
    """Sum of a counter or gauge over every label set matching ``labels``.

    Under federation the merged snapshot carries one sample per shard; a
    caller that does not name the ``shard`` label gets the fleet total.
    """
    return sum(
        s.value for s in samples if s.name == name and _matches(s.labels, labels)
    )


def histogram_totals(samples: Iterable, name: str, **labels: str) -> Tuple[int, float]:
    """``(count, sum)`` of a histogram over every matching label set."""
    count, total = 0, 0.0
    for s in samples:
        if s.name == name and _matches(s.labels, labels):
            count += s.count
            total += s.sum
    return count, total


class ObsDelta:
    """Difference of two ``obs.metrics`` views taken around the window."""

    def __init__(self, before, after) -> None:
        self._before = before
        self._after = after

    def counter(self, name: str, **labels: str) -> float:
        return sample_sum(self._after.counters, name, **labels) - sample_sum(
            self._before.counters, name, **labels
        )

    def gauge(self, name: str, **labels: str) -> float:
        return sample_sum(self._after.gauges, name, **labels) - sample_sum(
            self._before.gauges, name, **labels
        )

    def histogram(self, name: str, **labels: str) -> Tuple[int, float]:
        count_a, sum_a = histogram_totals(self._after.histograms, name, **labels)
        count_b, sum_b = histogram_totals(self._before.histograms, name, **labels)
        return count_a - count_b, sum_a - sum_b

    def series(self) -> int:
        view = self._after
        return len(view.counters) + len(view.gauges) + len(view.histograms)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quartile_spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (the driver's spread)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None

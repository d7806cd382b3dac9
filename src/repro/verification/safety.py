"""Mutual-exclusion safety checking from run metrics.

The paper's safety property: *at any time, at most one process can be in the
critical section*.  The checker works on the critical-section intervals
recorded by the :class:`~repro.simulation.metrics.MetricsCollector`, so it
applies to every algorithm in the repository (open-cube, Raymond,
Naimi-Trehel, ...) without instrumenting them individually.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice, pairwise
from math import isnan
from typing import Iterable, Sequence

from repro.exceptions import SafetyViolationError
from repro.simulation.metrics import IntervalLog, MetricsCollector

__all__ = ["Overlap", "find_overlaps", "assert_mutual_exclusion"]


@dataclass(frozen=True)
class Overlap:
    """Two critical-section intervals that overlap in time."""

    first_node: int
    second_node: int
    start: float
    end: float

    def describe(self) -> str:
        """Human readable description of the violation."""
        return (
            f"nodes {self.first_node} and {self.second_node} were both in the "
            f"critical section during [{self.start:.3f}, {self.end:.3f}]"
        )


def _closed_intervals(
    intervals: IntervalLog,
    *,
    end_of_time: float,
    exclude_nodes: Sequence[int] = (),
) -> Iterable[tuple[float, float, int]]:
    """``(entered, exited or end_of_time, node)`` per interval, sorted."""
    excluded = set(exclude_nodes)
    closed = (
        (entered_at, end_of_time if isnan(exited_at) else exited_at, node)
        for node, entered_at, exited_at in intervals.fields()
        if node not in excluded
    )
    entries = intervals.column("entered_at")
    if all(map(operator.lt, entries, islice(intervals.column("entered_at"), 1, None))):
        # Entry times strictly increase, as the simulator's clock makes
        # them: entry order is already the sorted order.
        return closed
    return sorted(closed)


def find_overlaps(
    metrics: MetricsCollector,
    *,
    end_of_time: float = float("inf"),
    exclude_nodes: Sequence[int] = (),
) -> list[Overlap]:
    """Return every pair of overlapping critical sections.

    Args:
        metrics: the collector of the run to check.
        end_of_time: close any still-open interval at this time (use the
            simulation end time; an interval left open by a crashed node is
            conventionally closed at its crash time by excluding the node).
        exclude_nodes: nodes whose intervals are ignored — typically nodes
            that crashed *while inside* the critical section, since fail-stop
            semantics mean they are not executing anything any more even
            though no exit was recorded.
    """
    intervals = _closed_intervals(
        metrics.cs_intervals, end_of_time=end_of_time, exclude_nodes=exclude_nodes
    )
    overlaps: list[Overlap] = []
    for (start_a, end_a, node_a), (start_b, end_b, node_b) in pairwise(intervals):
        if start_b < end_a:
            overlaps.append(
                Overlap(
                    first_node=node_a,
                    second_node=node_b,
                    start=start_b,
                    end=min(end_a, end_b),
                )
            )
    return overlaps


def crashed_in_critical_section(metrics: MetricsCollector) -> set[int]:
    """Return nodes that crashed while holding the critical section.

    Their open intervals must be excluded from the overlap check: fail-stop
    means they stopped executing at the crash instant.
    """
    crashes: dict[int, list[float]] = {}
    for crash_time, node in metrics.failures:
        crashes.setdefault(node, []).append(crash_time)
    crashed: set[int] = set()
    if not crashes:
        return crashed
    for node, entered_at, exited_at in metrics.cs_intervals.fields():
        for crash_time in crashes.get(node, ()):
            if entered_at <= crash_time and (isnan(exited_at) or exited_at > crash_time):
                crashed.add(node)
    return crashed


def assert_mutual_exclusion(
    metrics: MetricsCollector, *, end_of_time: float = float("inf")
) -> None:
    """Raise :class:`SafetyViolationError` when two CS intervals overlap.

    Nodes that crashed inside the critical section are excluded (fail-stop).
    """
    excluded = crashed_in_critical_section(metrics)
    overlaps = find_overlaps(
        metrics, end_of_time=end_of_time, exclude_nodes=sorted(excluded)
    )
    if overlaps:
        details = "; ".join(overlap.describe() for overlap in overlaps[:5])
        raise SafetyViolationError(
            f"mutual exclusion violated {len(overlaps)} time(s): {details}"
        )

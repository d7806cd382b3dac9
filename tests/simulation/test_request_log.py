"""The request and interval columns must read exactly like the dict and list they replaced.

``MetricsCollector`` keeps requests and critical-section intervals in a
:class:`~repro.simulation.metrics.RequestLog` and an
:class:`~repro.simulation.metrics.IntervalLog` instead of one object each.
The property test drives random hook sequences — re-issued and
non-consecutive ids, unknown ids, double grants, tied grant times, exits
without an entry, second entries — through a collector and through
:class:`ReferenceCollector`, a plain dict-and-list transcription of the
object-per-record collector, and compares every read and every derived value
(the four verification readers are transcribed too).  The memory guards pin
the mechanism: bytes per request, and chunks that never move once sealed.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation import metrics as metrics_module
from repro.simulation.metrics import (
    CriticalSectionInterval,
    MetricsCollector,
    RequestRecord,
)
from repro.telemetry.fairness import FairnessTracker
from repro.telemetry.online import OnlineLivenessWatchdog, OnlineSafetyChecker
from repro.verification import (
    Overlap,
    analyse_liveness,
    crashed_in_critical_section,
    find_overlaps,
    replay_online,
)
from repro.verification.liveness import LivenessReport


@contextmanager
def chunk_size(size: int):
    """Build logs with ``size``-entry chunks inside the block."""
    saved = metrics_module.CHUNK
    metrics_module.CHUNK = size
    try:
        yield
    finally:
        metrics_module.CHUNK = saved


class ReferenceCollector:
    """The per-record hooks and readers, one object per request and interval."""

    def __init__(self) -> None:
        self.total_sent = 0
        self.requests: dict[int, RequestRecord] = {}
        self.cs_intervals: list[CriticalSectionInterval] = []
        self.open_cs: dict[int, CriticalSectionInterval] = {}
        self.failures: list[tuple[float, int]] = []
        self.issued = 0
        self.granted = 0

    def send(self) -> None:
        self.total_sent += 1

    def issue(self, request_id, node, time) -> None:
        self.issued += 1
        record = RequestRecord(request_id, node, time, None, None, self.total_sent)
        self.requests[request_id] = record

    def grant(self, request_id, time) -> None:
        record = self.requests.get(request_id)
        if record is None:
            return
        if record.granted_at is None:
            self.granted += 1
        record.granted_at = time
        record.messages_at_grant = self.total_sent

    def release(self, request_id, time) -> None:
        record = self.requests.get(request_id)
        if record is not None:
            record.released_at = time

    def enter(self, node, time) -> None:
        interval = CriticalSectionInterval(node, time)
        self.cs_intervals.append(interval)
        self.open_cs[node] = interval

    def exit(self, node, time) -> None:
        interval = self.open_cs.pop(node, None)
        if interval is not None:
            interval.exited_at = time

    def fail(self, node, time) -> None:
        self.failures.append((time, node))

    def summary(self) -> dict:
        per_request = self.messages_per_request()
        return {
            "total_messages": self.total_sent,
            "dropped_messages": 0,
            "messages_by_kind": {"TokenMessage": self.total_sent} if self.total_sent else {},
            "requests_issued": self.issued,
            "requests_granted": self.granted,
            "mean_messages_per_request": self.total_sent / self.granted if self.granted else 0.0,
            "max_messages_per_request": max(per_request) if per_request else 0,
            "mean_waiting_time": self.mean_waiting_time(),
            "failures": len(self.failures),
            "recoveries": 0,
        }

    # -- derived values ------------------------------------------------
    def satisfied(self):
        granted = [r for r in self.requests.values() if r.granted_at is not None]
        return sorted(granted, key=lambda r: r.granted_at)

    def mean_waiting_time(self) -> float:
        total = 0.0
        waits = [r.waiting_time for r in self.satisfied()]
        for wait in waits:
            total += wait
        return total / len(waits) if waits else 0.0

    def messages_per_request(self) -> list[int]:
        ordered = sorted(self.requests.values(), key=lambda r: r.issued_at)
        counts = [b.messages_at_issue - a.messages_at_issue for a, b in zip(ordered, ordered[1:])]
        if ordered:
            counts.append(self.total_sent - ordered[-1].messages_at_issue)
        return counts

    def per_node_request_counts(self) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for record in self.requests.values():
            counts[record.node] += 1
        return dict(counts)

    def find_overlaps(self, end_of_time, exclude_nodes) -> list[Overlap]:
        intervals = sorted(
            (i.entered_at, end_of_time if i.exited_at is None else i.exited_at, i.node)
            for i in self.cs_intervals
            if i.node not in set(exclude_nodes)
        )
        return [
            Overlap(node_a, node_b, start_b, min(end_a, end_b))
            for (_, end_a, node_a), (start_b, end_b, node_b) in zip(intervals, intervals[1:])
            if start_b < end_a
        ]

    def crashed_in_critical_section(self) -> set[int]:
        return {
            node
            for crash_time, node in self.failures
            for i in self.cs_intervals
            if i.node == node
            and i.entered_at <= crash_time
            and (i.exited_at is None or i.exited_at > crash_time)
        }

    def analyse_liveness(self) -> LivenessReport:
        starved, excused = [], []
        for record in self.requests.values():
            if record.granted_at is not None:
                continue
            crashed = any(
                node == record.node and crash_time >= record.issued_at
                for crash_time, node in self.failures
            )
            (excused if crashed else starved).append(record)
        granted = sum(r.granted_at is not None for r in self.requests.values())
        return LivenessReport(len(self.requests), granted, starved, excused)

    def replay_online(self, end_of_time):
        events = []
        for r in self.requests.values():
            events.append((r.issued_at, 2, r.request_id, r.node))
            if r.granted_at is not None:
                events.append((r.granted_at, 3, r.request_id, r.node))
        for i in self.cs_intervals:
            events.append((i.entered_at, 4, 0, i.node))
            if i.exited_at is not None:
                events.append((i.exited_at, 0, 0, i.node))
        events += [(time, 1, 0, node) for time, node in self.failures]
        events.sort(key=lambda event: (event[0], event[1]))
        safety, tracker = OnlineSafetyChecker(), FairnessTracker()
        liveness = OnlineLivenessWatchdog(fairness=tracker)
        for time, priority, request_id, node in events:
            if priority == 0:
                safety.on_exit(node, time)
            elif priority == 1:
                safety.on_failure(node, time)
                liveness.on_failure(node, time)
            elif priority == 2:
                liveness.on_issue(request_id, node, time)
            elif priority == 3:
                liveness.on_grant(request_id, time)
            else:
                safety.on_enter(node, time)
        liveness.finalize(end_of_time)
        return safety.report(), liveness.report(), tracker.report()


nodes = st.integers(min_value=1, max_value=5)
# Steps of 0 tie times, negative steps make grant times go back, and a jump
# of 3e15 makes waits whose sum depends on the order they are added in.
steps = st.sampled_from([0.0, 0.1, 1.0, 2.5, -1.0, 3e15])
# None: the next id.  Explicit ids around the first one re-issue, skip ahead
# or name ids never issued.
ids = st.none() | st.integers(min_value=995, max_value=1015)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), ids, nodes, steps),
        st.tuples(st.just("grant"), ids, st.just(0), steps),
        st.tuples(st.just("release"), ids, st.just(0), steps),
        st.tuples(st.just("enter"), st.none(), nodes, steps),
        st.tuples(st.just("exit"), st.none(), nodes, steps),
        st.tuples(st.just("send"), st.none(), nodes, st.just(0.0)),
        st.tuples(st.just("fail"), st.none(), nodes, steps),
    ),
    max_size=80,
)


def drive(detail, ops, consecutive):
    metrics = MetricsCollector(detail)
    reference = ReferenceCollector()
    time, next_id, last_issued = 10.0, 1000, 1000
    for op, request_id, node, step in ops:
        time += step
        if op in ("issue", "grant", "release") and request_id is None:
            # Mostly consecutive ids, so the arithmetic rows get exercised.
            request_id = next_id if op == "issue" else last_issued
        if op == "issue":
            if request_id == next_id or consecutive:
                request_id, next_id = next_id, next_id + 1
            last_issued = request_id
            metrics.record_request_issued(request_id, node, time)
            reference.issue(request_id, node, time)
        elif op == "grant":
            metrics.record_request_granted(request_id, time)
            reference.grant(request_id, time)
        elif op == "release":
            metrics.record_request_released(request_id, time)
            reference.release(request_id, time)
        elif op == "enter":
            metrics.record_cs_enter(node, time)
            reference.enter(node, time)
        elif op == "exit":
            metrics.record_cs_exit(node, time)
            reference.exit(node, time)
        elif op == "send":
            metrics.record_send(time, node, 1, "TokenMessage")
            reference.send()
        else:
            metrics.record_failure(node, time)
            reference.fail(node, time)
    return metrics, reference, time


class TestViewsAreTheDictAndList:
    @settings(max_examples=300, deadline=None)
    @example(  # an id issued again after its grant drops that grant's wait
        ops=[("issue", None, 1, 1.0), ("grant", None, 0, 1.0), ("issue", 1000, 2, 1.0)],
        consecutive=False, detail="full", chunk=8, cut=slice(None),
    )
    @example(  # a tied grant time recorded out of id order
        ops=[
            ("issue", None, 1, 0.1), ("issue", None, 2, 0.1), ("issue", None, 3, 0.1),
            ("grant", 1000, 0, 3e15), ("grant", 1002, 0, 0.1), ("grant", 1001, 0, 0.0),
        ],
        consecutive=False, detail="full", chunk=8, cut=slice(None),
    )
    @given(
        ops=operations,
        consecutive=st.booleans(),
        detail=st.sampled_from(["full", "counters"]),
        chunk=st.sampled_from([1, 3, 8]),
        cut=st.slices(90),
    )
    def test_every_read_and_derived_value_matches(self, ops, consecutive, detail, chunk, cut):
        with chunk_size(chunk):
            metrics, reference, end = drive(detail, ops, consecutive)
        requests, expected = metrics.requests, reference.requests
        assert len(requests) == len(expected)
        assert requests == expected
        assert list(requests) == list(expected)
        assert list(requests.keys()) == list(expected.keys())
        assert requests.keys() == expected.keys()
        assert list(requests.values()) == list(expected.values())
        assert list(requests.items()) == list(expected.items())
        for request_id in range(990, 1090):
            assert (request_id in requests) == (request_id in expected)
            assert requests.get(request_id) == expected.get(request_id)
            if request_id in expected:
                assert requests[request_id] == expected[request_id]
            else:
                with pytest.raises(KeyError):
                    requests[request_id]
        assert "1000" not in requests

        intervals, expected_cs = metrics.cs_intervals, reference.cs_intervals
        assert len(intervals) == len(expected_cs)
        assert intervals == expected_cs
        assert list(intervals) == expected_cs
        assert [intervals[i] for i in range(-len(expected_cs), len(expected_cs))] == (
            expected_cs + expected_cs
        )
        assert intervals[cut] == expected_cs[cut]
        for index in (len(expected_cs), -len(expected_cs) - 1):
            with pytest.raises(IndexError):
                intervals[index]

        assert metrics.requests_issued_count == reference.issued
        assert metrics.requests_granted_count == reference.granted
        assert metrics.satisfied_requests() == reference.satisfied()
        assert metrics.messages_per_request() == reference.messages_per_request()
        assert list(metrics.per_node_request_counts().items()) == list(
            reference.per_node_request_counts().items()
        )
        assert metrics.mean_waiting_time().hex() == reference.mean_waiting_time().hex()
        summary = metrics.summary()
        assert summary == reference.summary()
        assert summary["mean_waiting_time"].hex() == reference.mean_waiting_time().hex()

        crashed = crashed_in_critical_section(metrics)
        assert crashed == reference.crashed_in_critical_section()
        for excluded in ((), sorted(crashed)):
            assert find_overlaps(metrics, end_of_time=end, exclude_nodes=excluded) == (
                reference.find_overlaps(end, excluded)
            )
        assert analyse_liveness(metrics) == reference.analyse_liveness()
        verdicts = replay_online(metrics, end_of_time=end + 1.0, fairness=True)
        assert (
            verdicts.safety.report(),
            verdicts.liveness.report(),
            verdicts.fairness.report(),
        ) == reference.replay_online(end + 1.0)

    def test_empty_views_equal_empty_containers(self):
        metrics = MetricsCollector()
        assert metrics.requests == {}
        assert metrics.cs_intervals == []
        assert metrics.mean_waiting_time() == 0.0
        assert metrics.messages_per_request() == []
        assert 1 not in metrics.requests

    def test_records_are_copies(self):
        metrics = MetricsCollector()
        metrics.record_request_issued(7, 2, 1.0)
        metrics.record_cs_enter(2, 1.5)
        metrics.requests[7].granted_at = 9.0
        metrics.cs_intervals[0].exited_at = 9.0
        assert metrics.requests[7].granted_at is None
        assert metrics.cs_intervals[0].exited_at is None


def test_mean_wait_adds_left_to_right_like_the_sketch():
    """Waits of 1e16, 1, 1, 1: left to right the 1s vanish, a compensated
    ``sum()`` (Python 3.12+) keeps them.  The record mean must be the
    sketch's left-to-right mean on every interpreter."""
    grants = [(-1e16, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
    waits = [granted - issued for issued, granted in grants]
    left_to_right = 0.0
    for wait in waits:
        left_to_right += wait
    assert left_to_right != math.fsum(waits)  # the pattern separates the two sums
    collectors = [MetricsCollector(), MetricsCollector("telemetry")]
    for metrics in collectors:
        for request_id, (issued, granted) in enumerate(grants, start=1):
            metrics.record_request_issued(request_id, 1, issued)
            metrics.record_cs_enter(1, granted)
            metrics.record_request_granted(request_id, granted)
            metrics.record_cs_exit(1, granted)
    full, telemetry = (metrics.mean_waiting_time() for metrics in collectors)
    assert full.hex() == telemetry.hex() == (left_to_right / len(waits)).hex()


def record_requests(metrics, count, first_id=1):
    issue, grant, release = (
        metrics.record_request_issued,
        metrics.record_request_granted,
        metrics.record_request_released,
    )
    enter, exit_ = metrics.record_cs_enter, metrics.record_cs_exit
    for request_id in range(first_id, first_id + count):
        node = request_id % 1024 + 1
        time = request_id * 0.5
        issue(request_id, node, time)
        enter(node, time + 0.25)
        grant(request_id, time + 0.25)
        exit_(node, time + 0.375)
        release(request_id, time + 0.375)


def test_memory_per_request_stays_columnar():
    """50 000 requests (issue, grant, release, CS enter and exit) must grow
    the heap by at most 100 B each; one record object per request, its boxed
    counters and its interval cost ~330 B."""
    metrics = MetricsCollector()
    record_requests(metrics, 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record_requests(metrics, 50_000, first_id=11)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(metrics.requests) == len(metrics.cs_intervals) == 50_010
    assert grown <= 100 * 50_000, f"{grown / 50_000:.0f} bytes a request"


def test_sealed_chunks_never_move_or_grow():
    """Once a column has a second chunk, every sealed chunk keeps its buffer
    address; no chunk ever holds more than ``CHUNK`` entries."""
    with chunk_size(64):
        metrics = MetricsCollector()
        logs = (metrics.sent_messages, metrics.requests, metrics.cs_intervals)

        def record(first_id, count):
            record_requests(metrics, count, first_id)
            for i in range(count * 3):
                metrics.record_send(i * 0.1, 1, 2, "TokenMessage")

        record(1, 100)
        sealed = [
            (chunk, chunk.buffer_info()[0])
            for log in logs
            for chunks in log.chunks
            for chunk in chunks[:-1]
        ]
        assert sealed and all(len(log.chunks[0]) >= 2 for log in logs)
        record(101, 1000)
        assert all(chunk.buffer_info()[0] == address for chunk, address in sealed)
        for log in logs:
            for chunks in log.chunks:
                assert all(len(chunk) == 64 for chunk in chunks[:-1])
                assert len(chunks[-1]) <= 64

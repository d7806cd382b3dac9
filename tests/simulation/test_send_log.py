"""The full-mode send log must read exactly like the list of records it replaced.

``MetricsCollector.record_send`` appends each send to the columns of a
:class:`~repro.simulation.metrics.SendLog` instead of building a
``SentMessage`` per send.  The property test drives random send sequences
against a plain list of ``SentMessage`` records and compares every way of
reading the log; the cluster run checks the log against the counters the
send path keeps beside it; the memory guard pins the per-send cost.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders import build_fault_tolerant_cluster
from repro.experiments.runner import run_workload
from repro.simulation.metrics import MetricsCollector, SendLog, SentMessage
from repro.simulation.network import ConstantDelay, UniformDelay
from repro.workload.arrivals import poisson_arrivals

KINDS = ("RequestMessage", "TokenMessage", "EnquiryMessage", "ReplyMessage")

sends = st.lists(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(KINDS) | st.text(min_size=1, max_size=8),
        st.booleans(),
    ),
    max_size=60,
)


def record_all(sent):
    metrics = MetricsCollector()
    reference = []
    for time, sender, dest, kind, dropped in sent:
        metrics.record_send(time, sender, dest, kind, dropped)
        reference.append(SentMessage(time, sender, dest, kind, dropped))
    return metrics, reference


class TestLogIsTheList:
    @settings(max_examples=200, deadline=None)
    @given(sent=sends, cut=st.slices(70))
    def test_every_read_matches_a_list_of_records(self, sent, cut):
        metrics, reference = record_all(sent)
        log = metrics.sent_messages
        assert len(log) == len(reference)
        assert list(log) == reference
        assert log == reference
        assert [log[i] for i in range(len(log))] == reference
        assert [log[i] for i in range(-len(log), 0)] == reference
        if reference:
            assert log[-1] == reference[-1]
        assert log[cut] == reference[cut]
        assert log[::-1] == reference[::-1]
        for index in (len(reference), -len(reference) - 1):
            with pytest.raises(IndexError):
                log[index]
        assert metrics.dropped_messages == sum(record.dropped for record in reference)
        assert metrics.total_messages() == len(reference)

    def test_empty_log_equals_the_empty_list(self):
        assert SendLog() == []
        assert MetricsCollector().sent_messages == []
        assert MetricsCollector().sent_messages != [SentMessage(0.0, 1, 2, "TokenMessage")]

    @pytest.mark.parametrize("detail", ["counters", "telemetry"])
    def test_streaming_modes_keep_it_empty(self, detail):
        metrics = MetricsCollector(detail)
        metrics.record_send(1.0, 1, 2, "RequestMessage")
        assert metrics.sent_messages == []
        assert len(metrics.sent_messages) == 0
        assert metrics.total_messages() == 1

    def test_log_is_read_only(self):
        metrics, _ = record_all([(1.0, 1, 2, "TokenMessage", False)])
        with pytest.raises(TypeError):
            metrics.sent_messages[0] = SentMessage(2.0, 2, 1, "TokenMessage")
        assert not hasattr(metrics.sent_messages, "append")

    def test_kind_codes_widen_past_one_byte(self):
        sent = [(float(i), i, i + 1, f"Kind{i}", False) for i in range(300)]
        sent += [(300.0, 1, 2, "Kind7", True), (301.0, 2, 1, "Kind299", False)]
        metrics, reference = record_all(sent)
        assert metrics.sent_messages == reference
        assert len(metrics.sent_messages.kind_names) == 300


class TestLogAgainstTheCounters:
    def test_plain_cluster_run(self):
        result = run_workload(
            "open-cube",
            32,
            poisson_arrivals(32, 200, rate=0.8, seed=5, hold=0.3),
            seed=3,
            delay_model=UniformDelay(0.5, 1.0),
        )
        self.assert_consistent(result.cluster.metrics)

    def test_fault_tolerant_run_with_a_crash(self):
        """Sends towards the crashed node are dropped at delivery: the
        counter moves, the send records never carry the flag."""
        cluster = build_fault_tolerant_cluster(16, delay_model=ConstantDelay(1.0))
        cluster.fail_node(5, at=0.5)
        for at, node in enumerate((6, 7, 2, 12, 6, 14), start=1):
            cluster.request_cs(node, at=float(at), hold=0.5)
        cluster.run_until_quiescent()
        assert cluster.metrics.dropped_messages >= 1
        self.assert_consistent(cluster.metrics)

    @staticmethod
    def assert_consistent(metrics):
        log = metrics.sent_messages
        assert len(log) == metrics.total_messages() > 0
        assert Counter(record.kind for record in log) == metrics.messages_by_kind
        assert Counter(record.sender for record in log) == metrics.messages_by_sender
        assert not any(record.dropped for record in log)
        times = [record.time for record in log]
        assert times == sorted(times)


def test_memory_per_send_stays_columnar():
    """100 000 full-mode sends must grow the heap by at most 2.5 MB (25 B a
    send); one ``SentMessage`` object per send costs ~110 B."""
    metrics = MetricsCollector()
    record_send = metrics.record_send
    for kind in KINDS:
        record_send(0.0, 1, 2, kind)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            record_send(i * 0.25, i % 1024 + 1, (i * 7) % 1024 + 1, KINDS[i % 4])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(metrics.sent_messages) == 100_004
    assert grown <= 2_500_000, f"{grown} bytes for 100 000 sends"

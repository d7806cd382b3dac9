"""Seeded-run determinism regression tests.

The engine rewrite (tuple-heap agenda, jump-table dispatch, no-op tracer,
streaming metrics) must not change *anything* observable about a seeded run:
the full trace and the metrics summary have to stay byte-identical.  The
golden digest below was computed on the pre-rewrite engine (seed commit
9d87f97); if it ever changes, either determinism broke or the event order
was intentionally altered — in the latter case recompute the digest and say
so loudly in the commit message.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.baselines.registry import build_cluster
from repro.core import messages
from repro.workload.arrivals import poisson_arrivals, poisson_stream

#: sha256 over the full trace + metrics summary of the two scenario runs
#: below, computed on the pre-rewrite engine.
GOLDEN_DIGEST = "51796c98bf6d15f69aca1ddd0b336407c6264e7736cb9d439631eb96b0c90639"

#: sha256 of the streamed (bounded-window feeder) run below, pinning the
#: feeder's own event order from the PR that introduced it.  The pinned
#: workload has distinct arrival times, so lazy injection cannot reorder
#: arrivals relative to eager scheduling — but injection *sequence numbers*
#: differ, and this digest locks that canonical streamed order down.
STREAMED_DIGEST = "e613ba3eb6d8bb39366bb798615bda941831629bce6be7ff2585d0140aa78203"

#: sha256 of the fault-tolerant run under load below, computed on commit
#: db4145d — the parent of the PR that flattened the Section 5 hot path,
#: gave timers opaque handles and taught the agenda to compact — before any
#: source edit.  The FT half of GOLDEN_DIGEST is n = 8 / 24 requests and
#: never leaves the happy path; this one sends all twelve message kinds
#: (search sweeps, try-later answers, father pings, enquiries, an anomaly, a
#: root claim, a regenerated token) through ~8 500 events.
FT_LOAD_DIGEST = "cdc9064f3a118fd89a3286708a50f69b30899de6fdf570bec3f391256d77ac52"


def run_golden_scenario():
    """The pinned scenario: a concurrent run and a faulty run, seeded."""
    # Trace records embed request ids drawn from the process-wide counter;
    # pin it so the digest does not depend on which tests ran before us.
    messages._request_counter = itertools.count(1)
    results = []

    # Concurrent workload on the plain open-cube algorithm.
    cluster = build_cluster("open-cube", 16, seed=42, trace=True)
    workload = poisson_arrivals(16, 40, rate=0.5, seed=3, hold=0.4)
    workload.apply(cluster)
    cluster.run_until_quiescent()
    results.append(cluster)

    # Fault-tolerant variant with a crash/recovery (exercises timers and drops).
    cluster = build_cluster("open-cube-ft", 8, seed=7, trace=True)
    workload = poisson_arrivals(8, 24, rate=0.3, seed=5, hold=0.4)
    workload.apply(cluster)
    cluster.fail_node(3, at=20.0)
    cluster.recover_node(3, at=45.0)
    cluster.run_until_quiescent()
    results.append(cluster)

    return results


def trace_digest(clusters) -> str:
    """Digest every trace record and the metrics summary of each cluster."""
    hasher = hashlib.sha256()
    for cluster in clusters:
        for record in cluster.tracer:
            line = (
                repr(record.time),
                record.category.value,
                repr(record.node),
                repr(sorted(record.details.items())),
            )
            hasher.update("|".join(line).encode())
            hasher.update(b"\n")
        hasher.update(
            json.dumps(cluster.metrics.summary(), sort_keys=True).encode()
        )
        hasher.update(b"\n--\n")
    return hasher.hexdigest()


def run_golden_scenario_with_tracing():
    """The same pinned scenario, telemetry mode with causal tracing on.

    Trace sampling is a pure function of ``(seed, request_id)`` — never an
    RNG draw — and the recorder only observes hooks that already fire, so
    the event order (and therefore the golden digest) must be byte-identical
    with tracing enabled.
    """
    messages._request_counter = itertools.count(1)
    results = []
    tracing = {"trace_sample": 0.25}

    cluster = build_cluster(
        "open-cube", 16, seed=42, trace=True,
        metrics_detail="telemetry", telemetry_options=tracing,
    )
    workload = poisson_arrivals(16, 40, rate=0.5, seed=3, hold=0.4)
    workload.apply(cluster)
    cluster.run_until_quiescent()
    cluster.metrics.finalize_telemetry(cluster.now)
    results.append(cluster)

    cluster = build_cluster(
        "open-cube-ft", 8, seed=7, trace=True,
        metrics_detail="telemetry", telemetry_options=tracing,
    )
    workload = poisson_arrivals(8, 24, rate=0.3, seed=5, hold=0.4)
    workload.apply(cluster)
    cluster.fail_node(3, at=20.0)
    cluster.recover_node(3, at=45.0)
    cluster.run_until_quiescent()
    cluster.metrics.finalize_telemetry(cluster.now)
    results.append(cluster)

    return results


def run_ft_load_scenario(**cluster_kwargs):
    """The pinned FT scenario: n = 64, 320 Poisson requests, three crashes.

    Two scheduled crash/recover pairs, and a third that hits whoever holds
    the token: the first node granted after t = 300 dies inside its
    critical section.
    """
    messages._request_counter = itertools.count(1)
    cluster = build_cluster("open-cube-ft", 64, seed=39, trace=True, **cluster_kwargs)
    poisson_arrivals(64, 320, rate=0.3, seed=88, hold=0.3).apply(cluster)
    cluster.fail_node(30, at=47.9)
    cluster.recover_node(30, at=143.5)
    cluster.fail_node(44, at=264.7)
    cluster.recover_node(44, at=307.2)
    crashed = []

    def crash_holder(node_id, time):
        if time >= 300.0 and not crashed:
            crashed.append(node_id)
            cluster.fail_node(node_id, at=time + 0.1)
            cluster.recover_node(node_id, at=time + 90.0)

    cluster.add_grant_listener(crash_holder)
    cluster.run_until_quiescent()
    return [cluster]


def run_streamed_scenario(**cluster_kwargs):
    """The pinned feeder scenario: a streamed n=64 Poisson run, seeded."""
    messages._request_counter = itertools.count(1)
    cluster = build_cluster("open-cube", 64, seed=17, trace=True, **cluster_kwargs)
    stream = poisson_stream(64, 120, rate=0.8, seed=23, hold=0.3)
    cluster.feed_workload(stream, window=8)
    cluster.run_until_quiescent()
    return [cluster]


class TestGoldenTrace:
    def test_seeded_run_matches_pre_rewrite_digest(self):
        assert trace_digest(run_golden_scenario()) == GOLDEN_DIGEST

    def test_back_to_back_runs_are_identical(self):
        assert trace_digest(run_golden_scenario()) == trace_digest(run_golden_scenario())


class TestStreamedGoldenTrace:
    def test_streamed_seeded_run_matches_pinned_digest(self):
        assert trace_digest(run_streamed_scenario()) == STREAMED_DIGEST

    def test_streamed_run_matches_eager_run_of_same_workload(self):
        """Lazy injection must not change *what* happens, only agenda size."""
        streamed = run_streamed_scenario()[0]
        messages._request_counter = itertools.count(1)
        eager = build_cluster("open-cube", 64, seed=17, trace=True)
        poisson_stream(64, 120, rate=0.8, seed=23, hold=0.3).materialise().apply(eager)
        eager.run_until_quiescent()
        assert streamed.metrics.summary() == eager.metrics.summary()
        # And the agenda stayed O(active + window) instead of O(requests).
        assert streamed.simulator.peak_pending < eager.simulator.peak_pending


class TestFaultTolerantGoldenTrace:
    def test_ft_run_under_load_matches_parent_commit_digest(self):
        (cluster,) = clusters = run_ft_load_scenario()
        assert trace_digest(clusters) == FT_LOAD_DIGEST
        # The scenario still reaches what it was chosen for.
        kinds = cluster.metrics.messages_by_kind
        for kind in (
            "TestMessage", "AnswerMessage", "PingMessage", "PingReply", "EnquiryMessage",
            "EnquiryReply", "AnomalyMessage", "RootClaimMessage", "TokenMessage+regenerated",
        ):
            assert kinds[kind] > 0, kind
        assert len(cluster.metrics.failures) == 3

    def test_ft_digest_unchanged_in_telemetry_mode_with_tracing(self):
        clusters = run_ft_load_scenario(
            metrics_detail="telemetry", telemetry_options={"trace_sample": 0.25}
        )
        clusters[0].metrics.finalize_telemetry(clusters[0].now)
        assert trace_digest(clusters) == FT_LOAD_DIGEST
        assert clusters[0].metrics.telemetry.tracing.block()["sampled"] > 0


class TestTracingKeepsGoldenDigests:
    """Enabling ``trace_sample`` must not move either golden digest."""

    def test_golden_digest_unchanged_with_tracing_enabled(self):
        clusters = run_golden_scenario_with_tracing()
        assert trace_digest(clusters) == GOLDEN_DIGEST
        # The tracing actually ran: both clusters sampled requests.
        for cluster in clusters:
            assert cluster.metrics.telemetry.tracing.block()["sampled"] > 0

    def test_streamed_digest_unchanged_with_tracing_enabled(self):
        clusters = run_streamed_scenario(
            metrics_detail="telemetry", telemetry_options={"trace_sample": 0.25}
        )
        clusters[0].metrics.finalize_telemetry(clusters[0].now)
        assert trace_digest(clusters) == STREAMED_DIGEST
        assert clusters[0].metrics.telemetry.tracing.block()["sampled"] > 0


class TestTraceExportDeterminism:
    """Same seed ⇒ byte-identical sampled trace export, per engine path."""

    TELEMETRY = {"trace_sample": 0.2}

    @staticmethod
    def _export(**kwargs):
        from repro.experiments.runner import run_workload

        messages._request_counter = itertools.count(1)
        result = run_workload(
            "open-cube",
            16,
            poisson_arrivals(16, 60, rate=1.0, seed=9, hold=0.2),
            seed=13,
            metrics_detail="telemetry",
            **kwargs,
        )
        assert result.traces is not None
        assert result.traces["sampled"] > 0
        return json.dumps(result.traces, sort_keys=True)

    def test_serial_path_is_byte_identical(self):
        first = self._export(telemetry=self.TELEMETRY)
        second = self._export(telemetry=self.TELEMETRY)
        assert first == second

    def test_streamed_path_is_byte_identical(self):
        first = self._export(telemetry=self.TELEMETRY, stream=True)
        second = self._export(telemetry=self.TELEMETRY, stream=True)
        assert first == second

    def test_sharded_path_is_byte_identical(self):
        first = self._export(telemetry=self.TELEMETRY, shards=1)
        second = self._export(telemetry=self.TELEMETRY, shards=1)
        assert first == second

    def test_export_reconstructs_full_journey(self):
        """At least one sampled trace shows issue→hops→token→grant→exit."""
        block = json.loads(self._export(telemetry={"trace_sample": 1.0}))
        complete = [
            t
            for t in block["traces"]
            if t["granted_at"] is not None
            and t["exited_at"] is not None
            and any(h["category"] == "request" for h in t["hops"])
            and any(h["category"] == "token" for h in t["hops"])
        ]
        assert complete, "no trace reconstructed a full request journey"
        trace = complete[0]
        assert trace["issued_at"] <= trace["granted_at"] <= trace["exited_at"]
        token_hops = [h for h in trace["hops"] if h["category"] == "token"]
        # The final token hop lands on the requester before the grant.
        assert token_hops[-1]["to"] == trace["node"]
        assert token_hops[-1]["delivered_at"] is not None
        assert token_hops[-1]["delivered_at"] <= trace["granted_at"]


class TestCountersModeEquivalence:
    @pytest.mark.benchmark
    def test_counters_mode_summary_matches_full_mode(self):
        """detail="counters" must agree with detail="full" on every aggregate."""
        summaries = {}
        tallies = {}
        for detail in ("full", "counters"):
            cluster = build_cluster(
                "open-cube", 32, seed=11, trace=False, metrics_detail=detail
            )
            workload = poisson_arrivals(32, 200, rate=1.0, seed=9, hold=0.2)
            workload.apply(cluster)
            cluster.run_until_quiescent()
            summaries[detail] = cluster.metrics.summary()
            tallies[detail] = (
                cluster.metrics.total_messages(),
                cluster.metrics.total_messages(include_dropped=False),
                dict(cluster.metrics.messages_by_sender),
                cluster.metrics.messages_per_request(),
            )
        assert summaries["counters"] == summaries["full"]
        assert tallies["counters"] == tallies["full"]

    @pytest.mark.benchmark
    def test_counters_mode_keeps_no_per_message_records(self):
        cluster = build_cluster(
            "open-cube", 32, seed=1, trace=False, metrics_detail="counters"
        )
        workload = poisson_arrivals(32, 500, rate=2.0, seed=2, hold=0.1)
        workload.apply(cluster)
        cluster.run_until_quiescent()
        assert cluster.metrics.total_messages() > 1000
        # Memory stays O(requests): no per-message record was allocated.
        assert cluster.metrics.sent_messages == []
        assert len(cluster.metrics.requests) == 500

"""Timer handling of the fault-tolerant node.

Three contracts the flat Section 5 hot path must keep:

* a node has at most one live ``await_token`` timer, whatever interleaving of
  pings, anomalies, searches and claim rejections it goes through;
* the three timeouts are the docstring formulas of ``(n, e, delta, grace)``,
  although they are now computed once, when the node is bound;
* a crash takes the node's live timers with it (the simulated environment
  keeps no per-node timer table any more — it finds them on the agenda).

Timer handles are opaque to the node: the stub environment below hands out
plain ints like the runtime hosts do, the simulator hands out agenda entries.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.builders import build_fault_tolerant_cluster
from repro.core.fault_tolerant_node import FaultTolerantOpenCubeNode
from repro.core.messages import (
    AnomalyMessage,
    AnswerKind,
    AnswerMessage,
    PingMessage,
    PingReply,
    RequestMessage,
    RootClaimMessage,
    RootClaimReject,
    TokenMessage,
)
from repro.core.messages import TestMessage as ProbeMessage  # not a test class
from repro.core.opencube import OpenCubeTree
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.events import TAG_TIMER
from repro.simulation.network import ConstantDelay, UniformDelay
from repro.simulation.process import Environment


class RecordingEnvironment(Environment):
    """Records sends and keeps the live timers; nothing fires by itself."""

    def __init__(self, node_id: int, max_delay: float = 1.0) -> None:
        self._node_id = node_id
        self._max_delay = max_delay
        self.sent: list[tuple[int, Any]] = []
        self.timers: dict[int, tuple[str, float]] = {}  # live handle -> (name, delay)
        self._handles = 0

    node_id = property(lambda self: self._node_id)
    now = property(lambda self: 0.0)
    max_delay = property(lambda self: self._max_delay)

    def send(self, dest, message) -> None:
        self.sent.append((dest, message))

    def set_timer(self, delay, name, payload=None) -> int:
        self._handles += 1
        self.timers[self._handles] = (name, delay)
        return self._handles

    def cancel_timer(self, timer_id) -> None:
        self.timers.pop(timer_id, None)

    def live(self, name: str) -> list[float]:
        """Delays of the live timers called ``name``."""
        return [delay for timer, delay in self.timers.values() if timer == name]

    def fire(self, node: FaultTolerantOpenCubeNode, name: str) -> None:
        (handle,) = [h for h, (timer, _) in self.timers.items() if timer == name]
        del self.timers[handle]
        node.on_timer(name)


def bound_node(node_id: int, n: int, father: int, **options) -> tuple:
    node = FaultTolerantOpenCubeNode(node_id, n, father=father, has_token=False, **options)
    env = RecordingEnvironment(node_id)
    node.bind(env)
    node.set_granted_callback(lambda node_id: None)
    return node, env


class TestAwaitTimerIsNeverOrphaned:
    def test_late_ping_reply_after_an_anomaly_search_rearms_instead_of_adding(self):
        """The father ping is in flight when an ``anomaly`` starts a search;
        the search re-arms the suspicion timer, then the ``PingReply`` lands."""
        node, env = bound_node(6, 8, father=5)
        node.acquire()
        assert [type(m) for _, m in env.sent] == [RequestMessage]
        assert len(env.live("await_token")) == 1

        env.fire(node, "await_token")  # overdue: probe the father
        assert isinstance(env.sent[-1][1], PingMessage)
        assert env.live("await_token") == [] and len(env.live("father_ping")) == 1

        node.on_message(5, AnomalyMessage(detected_by=5))  # dist(6, 5) = 1: phase 1
        assert node.searching
        assert (5, ProbeMessage(phase=1, searcher_power=0)) in env.sent
        node.on_message(5, AnswerMessage(answer=AnswerKind.OK, phase=1))
        assert not node.searching and node.requests_regenerated == 1
        assert len(env.live("await_token")) == 1  # armed by _regenerate_request

        node.on_message(5, PingReply(probe_id=env.sent[1][1].probe_id))
        assert env.live("father_ping") == []
        # Exactly one suspicion timer, not the search's plus the reply's.
        assert env.live("await_token") == [node.await_token_timeout]

    def test_claim_rejection_rearms_instead_of_adding(self):
        """An anomaly search starts with the suspicion timer still live and
        ends in a root claim; the rejection backs off on the same timer."""
        node, env = bound_node(2, 4, father=1)
        node.acquire()
        node.on_message(1, AnomalyMessage(detected_by=1))
        assert node.searching and len(env.live("await_token")) == 1
        # Nobody answers: phases 1..pmax, one more sweep, then the claim.
        for _ in range(2 * node.pmax):
            env.fire(node, "search_phase")
        assert not node.searching and len(env.live("root_claim")) == 1
        assert sum(isinstance(m, RootClaimMessage) for _, m in env.sent) == 3

        node.on_message(1, RootClaimReject(reason="token accounted for"))
        assert env.live("root_claim") == []
        assert env.live("await_token") == [4.0 * env.max_delay * 1]

    def test_handles_are_opaque(self):
        """Any non-``None`` handle works, falsy ones included."""
        node, env = bound_node(2, 4, father=1)
        handles = iter([0, "", ()])
        env.set_timer = lambda delay, name, payload=None: next(handles)
        cancelled = []
        env.cancel_timer = cancelled.append
        node.bind(env)
        node.acquire()  # arms: handle 0
        node._arm_await_timer()  # cancels 0, arms ""
        node._cancel_await_timer()  # cancels ""
        node._cancel_await_timer()  # nothing live
        assert cancelled == [0, ""]


class TestTimeoutsMatchTheirFormulas:
    @pytest.mark.parametrize(
        "delay_model, delta",
        [(ConstantDelay(2.0), 2.0), (UniformDelay(0.1, 3.0), 3.0)],
    )
    @pytest.mark.parametrize("grace", [None, 7.5])
    def test_non_default_grace_estimate_and_delay_model(self, delay_model, delta, grace):
        n, estimate = 16, 0.3
        tree = OpenCubeTree.initial(n)
        nodes = {
            i: FaultTolerantOpenCubeNode(
                i, n, father=tree.father(i), has_token=i == tree.root,
                cs_duration_estimate=estimate, await_grace=grace,
            )
            for i in tree.nodes()
        }
        cluster = SimulatedCluster(nodes, delay_model=delay_model, trace=False)
        node = cluster.node(7)
        assert node.pmax == 4 and node.env.max_delay == delta
        expected_grace = grace if grace is not None else 2.0 * n * (estimate + 2.0 * delta)
        assert node.await_token_timeout == 2.0 * node.pmax * delta + expected_grace
        assert node.lend_timeout(borrower=3, source=3) == 2.0 * delta + estimate
        assert node.lend_timeout(borrower=3, source=9) == (node.pmax + 1) * delta + estimate
        assert node.round_trip_timeout == 2.25 * delta

    def test_the_armed_delays_are_the_formulas(self):
        estimate, grace, delta = 0.4, 11.0, 1.0
        node = FaultTolerantOpenCubeNode(
            1, 8, father=None, has_token=True,
            cs_duration_estimate=estimate, await_grace=grace,
        )
        env = RecordingEnvironment(1, max_delay=delta)
        node.bind(env)
        # The root lends directly to the source, then through a proxy.
        node.on_message(2, RequestMessage(requester=2, source=2))
        assert env.live("lend") == [2.0 * delta + estimate]
        node.on_message(2, TokenMessage(lender=None))  # the loan returns
        assert env.live("lend") == []
        node.on_message(3, RequestMessage(requester=3, source=4))
        assert env.live("lend") == [(node.pmax + 1) * delta + estimate]

        asker, asker_env = bound_node(6, 8, father=5, await_grace=grace)
        asker.acquire()
        assert asker_env.live("await_token") == [2.0 * asker.pmax * delta + grace]


def live_timers(cluster: SimulatedCluster, node_id: int) -> list:
    return [
        entry for entry in cluster.simulator._heap
        if entry[2] == TAG_TIMER and not entry[4] and entry[3].node == node_id
    ]


class TestTimersDieWithTheirNode:
    @pytest.mark.parametrize("detail", ["full", "counters", "telemetry"])
    def test_crash_cancels_exactly_the_nodes_live_timers(self, detail):
        cluster = build_fault_tolerant_cluster(
            16, delay_model=ConstantDelay(1.0), seed=1, trace=False, metrics_detail=detail
        )
        for node_id, at in ((6, 0.5), (11, 0.7), (16, 0.9), (3, 1.1)):
            cluster.request_cs(node_id, at=at, hold=2.0)
        cluster.run(until=3.0)
        # The root lent the token and waits for it; node 9 forwarded a
        # request as a proxy and waits for the token.
        doomed = {1: live_timers(cluster, 1), 9: live_timers(cluster, 9)}
        assert [entry[3].name for entry in doomed[1]] == ["lend"]
        assert [entry[3].name for entry in doomed[9]] == ["await_token"]

        fired: list[tuple[int, str, float]] = []
        for node_id in doomed:
            node = cluster.node(node_id)

            def on_timer(name, payload=None, *, node_id=node_id, inner=node.on_timer):
                fired.append((node_id, name, cluster.now))
                inner(name, payload)

            node.on_timer = on_timer

        for node_id, entries in doomed.items():
            before = cluster.simulator.pending_events
            cluster.fail_node(node_id)
            assert cluster.simulator.pending_events == before - len(entries)
            assert live_timers(cluster, node_id) == []
            cluster.environment(node_id).cancel_timer(entries[0])  # stale handle: a no-op
            assert cluster.simulator.pending_events == before - len(entries)

        cluster.recover_node(1, at=40.0)
        cluster.recover_node(9, at=45.0)
        cluster.run_until_quiescent()

        # Cancelled entries are skipped by every run loop, so none of the
        # pre-crash timers reached on_timer ...
        assert all(entry[4] for entries in doomed.values() for entry in entries)
        # ... and whatever did fire on those nodes was armed after recovery.
        recovered_at = {1: 40.0, 9: 45.0}
        assert fired, "the recovery searches arm (and fire) fresh timers"
        assert all(at > recovered_at[node_id] for node_id, _, at in fired)
        assert cluster.simulator.pending_events == 0
        assert len(cluster.token_holders()) == 1

    def test_environment_keeps_no_timer_table(self):
        cluster = build_fault_tolerant_cluster(4, trace=False)
        env = cluster.environment(2)
        assert not hasattr(env, "_timers") and not hasattr(env, "_next_timer_id")
        handle = env.set_timer(5.0, "probe", payload="p")
        assert handle[3].node == 2 and handle[3].name == "probe" and handle[3].payload == "p"
        assert cluster.simulator.pending_events == 1
        env.cancel_timer(handle)
        env.cancel_timer(handle)
        assert cluster.simulator.pending_events == 0

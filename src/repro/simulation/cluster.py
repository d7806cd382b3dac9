"""The simulated cluster: nodes + network + failures + metrics.

:class:`SimulatedCluster` is the main entry point for running any of the
mutual exclusion algorithms on the discrete-event simulator.  It owns the
:class:`~repro.simulation.simulator.Simulator`, creates one
:class:`SimEnvironment` per node, routes messages through the configured
delay model, injects fail-stop failures, and records everything in a
:class:`~repro.simulation.metrics.MetricsCollector` and a
:class:`~repro.simulation.trace.Tracer`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Mapping

from repro.core.messages import Message, next_request_id
from repro.exceptions import SimulationError
from repro.simulation.events import MessageDelivery, TimerExpiry
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import (
    DUPLICATE,
    PARTITION,
    ChannelState,
    DelayModel,
    NetworkFaults,
    UniformDelay,
)
from repro.simulation.process import Environment, MutexNode
from repro.simulation.simulator import Simulator
from repro.simulation.trace import NullTracer, TraceCategory, Tracer

__all__ = ["SimEnvironment", "SimulatedCluster"]


class SimEnvironment(Environment):
    """Environment implementation backed by a :class:`SimulatedCluster`."""

    def __init__(self, cluster: "SimulatedCluster", node_id: int) -> None:
        self._cluster = cluster
        self._node_id = node_id
        self._schedule_timer = cluster.simulator.schedule_timer
        # Per-instance closure shadows the class method: the whole send fast
        # path runs in one frame with every stable reference pre-bound.
        self.send = cluster._make_send(node_id)

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def now(self) -> float:
        return self._cluster.simulator.now

    @property
    def max_delay(self) -> float:
        return self._cluster.delay_model.max_delay

    def send(self, dest: int, message: Message) -> None:  # pragma: no cover
        # Never reached: __init__ installs the per-instance fast-path closure
        # which shadows this method.  The body exists to satisfy the
        # Environment ABC and to fail loudly if the shadowing ever breaks
        # (there is no slower path to delegate to).
        raise AssertionError(
            "SimEnvironment.send is shadowed by the per-instance fast path"
        )

    def set_timer(self, delay: float, name: str, payload: Any = None) -> Any:
        # The handle is the agenda entry itself: no id counter and no
        # id -> entry table to maintain per arm/cancel.  The expiry's
        # ``timer_id`` field is for callers that number their timers.
        return self._schedule_timer(delay, TimerExpiry(self._node_id, 0, name, payload))

    #: Cancelling a handle is cancelling its agenda entry — a no-op once the
    #: timer fired or was cancelled (by hand, or by a crash).
    cancel_timer = staticmethod(Simulator.cancel)

    def cancel_all_timers(self) -> None:
        """Cancel every outstanding timer of the node (used on crash)."""
        self._cluster.simulator.cancel_timers(self._node_id)


class SimulatedCluster:
    """Hosts a set of :class:`MutexNode` instances on the simulator.

    Args:
        nodes: mapping from node id to the node instance implementing the
            algorithm under test.
        delay_model: message delay model (default: uniform delays in
            ``[0.5, 1.0]``).
        fifo: when ``True`` channels deliver messages in order; the paper's
            default model allows out-of-order delivery (``False``).
        seed: seed of the simulator RNG (delays, workload sampling).
        trace: enable trace collection (disable for large benchmark runs;
            when disabled a :class:`NullTracer` is installed and the hot
            paths skip trace emission entirely).
        metrics_detail: ``"full"`` (default), ``"counters"`` or
            ``"telemetry"``; see
            :class:`~repro.simulation.metrics.MetricsCollector`.
        telemetry_options: configuration of the telemetry hub
            (:class:`~repro.telemetry.TelemetryOptions` or its dict form);
            only valid with ``metrics_detail="telemetry"``.
        network_faults: optional adversarial message-fault layer
            (:class:`~repro.simulation.network.NetworkFaults`: seeded loss,
            duplication, partition windows).  Each send, once accounted,
            asks :meth:`~repro.simulation.network.NetworkFaults.decide`
            whether the network blocks, loses or duplicates it.  ``None`` —
            or a fault object with nothing enabled — is never asked, so
            fault-free runs are bit-identical to a cluster built without
            the argument.
        cs_duration: default critical-section hold time used by
            :meth:`request_cs` when the caller does not specify one.

    NOTE: ``delay_model``, ``metrics``, ``channels``, ``nodes`` and the FIFO
    flag are bound into per-node send fast paths at construction time.  Do
    not reassign these attributes on a live cluster — the hot paths would
    keep using the originals; build a new cluster instead.
    """

    def __init__(
        self,
        nodes: Mapping[int, MutexNode],
        *,
        delay_model: DelayModel | None = None,
        fifo: bool = False,
        seed: int = 0,
        trace: bool = True,
        max_trace_records: int | None = None,
        metrics_detail: str = "full",
        telemetry_options: Mapping[str, Any] | None = None,
        network_faults: NetworkFaults | None = None,
        cs_duration: float = 0.5,
    ) -> None:
        self.nodes: dict[int, MutexNode] = dict(nodes)
        if not self.nodes:
            raise SimulationError("a cluster needs at least one node")
        self.simulator = Simulator(seed=seed)
        self.delay_model = delay_model or UniformDelay()
        self.channels = ChannelState(fifo=fifo)
        self.metrics = MetricsCollector(
            detail=metrics_detail, telemetry_options=telemetry_options
        )
        self.tracer = Tracer(enabled=True, max_records=max_trace_records) if trace else NullTracer()
        # Hot-path aliases: `_trace is None` lets each node's send closure
        # (_make_send) and _deliver skip the emit call (and its kwarg
        # packing) entirely when tracing is off.
        self._trace: Tracer | None = self.tracer if trace else None
        self._record_send = self.metrics.record_send
        self._sample_delay = self.delay_model.bind(self.simulator.rng)
        if network_faults is not None:
            network_faults.validate_nodes(len(self.nodes))
        #: The adversarial fault layer, or ``None`` when disabled — the send
        #: path binds its decision only when set (see _make_send).
        self.network_faults: NetworkFaults | None = (
            network_faults if network_faults is not None and network_faults.enabled else None
        )
        self.metrics.network_faults_active = self.network_faults is not None
        self.cs_duration = cs_duration
        self.failed: set[int] = set()
        self._environments: dict[int, SimEnvironment] = {}
        self._pending_request_ids: dict[int, deque[int]] = {
            node_id: deque() for node_id in self.nodes
        }
        self._active_request: dict[int, int | None] = {node_id: None for node_id in self.nodes}
        self._auto_release: dict[int, float | None] = {node_id: None for node_id in self.nodes}
        self._grant_listeners: list[Callable[[int, float], None]] = []
        #: Deliveries popped off the agenda so far (drops included) — with
        #: the send counter this yields the in-flight message gauge the
        #: telemetry series samples.
        self._delivered_total = 0
        telemetry = self.metrics.telemetry
        if telemetry is not None:
            simulator = self.simulator
            telemetry.bind_probes(
                # The agenda sequence number: a live, deterministic count of
                # events *scheduled* (processed_events is batched inside
                # run() and stale for mid-run observers like the sampler).
                events_scheduled=lambda: simulator._sequence,
                # len(heap), not pending_events: the live, honest figure
                # (cancelled-but-unpopped entries still occupy memory, and
                # the pending counter is batched during run()).
                agenda_size=lambda: len(simulator._heap),
                # Sent plus injected duplicates, minus what the network ate
                # (loss/partition) and what already arrived; every fault term
                # is 0 on a fault-free cluster so this stays sent - delivered.
                in_flight=lambda: (
                    self.metrics._total_sent
                    + self.metrics.duplicated_messages
                    - self.metrics.lost_messages
                    - self.metrics.blocked_messages
                    - self._delivered_total
                ),
            )
        # Causal trace recorder (None unless telemetry tracing is on); bound
        # here so the sampling seed is pinned before the first issue and the
        # send fast paths can specialise on `recorder is None` at bind time.
        recorder = telemetry.tracing if telemetry is not None else None
        if recorder is not None:
            recorder.bind_seed(seed)
        self._trace_recorder = recorder

        self.simulator.set_delivery_handler(self._deliver)
        self.simulator.set_timer_handler(self._fire_timer)
        self.simulator.set_request_handler(self._dispatch_request)
        for node_id, node in self.nodes.items():
            env = SimEnvironment(self, node_id)
            self._environments[node_id] = env
            node.bind(env)
            node.set_granted_callback(self._on_granted)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    def node(self, node_id: int) -> MutexNode:
        """Return the node instance with the given id."""
        return self.nodes[node_id]

    def environment(self, node_id: int) -> SimEnvironment:
        """Return the environment of a node (mainly for tests)."""
        return self._environments[node_id]

    def is_failed(self, node_id: int) -> bool:
        """Whether the node is currently crashed."""
        return node_id in self.failed

    def add_grant_listener(self, listener: Callable[[int, float], None]) -> None:
        """Register a callable invoked as ``listener(node_id, time)`` on grants."""
        self._grant_listeners.append(listener)

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def _make_send(self, sender: int) -> Callable[[int, Message], None]:
        """Build the per-node send fast path (installed as ``env.send``).

        This is the hottest code of the whole simulation: every protocol
        message runs through the returned closure once.  All stable
        references (node table, failed set, metrics recorder, sampler,
        scheduler) are captured at bind time so a send costs one frame and
        no repeated attribute chains.  Crash drops are accounted at
        *delivery* time (the fail-stop model loses messages in transit, not
        at the sender), so a send towards a currently failed node is
        recorded as a plain send; network faults are decided at send time.
        """
        nodes = self.nodes
        failed = self.failed
        simulator = self.simulator
        schedule_delivery = simulator.schedule_delivery
        sample_delay = self._sample_delay
        trace = self._trace
        # Optional stages are captured as one local each, ``None`` when off:
        # every captured name costs a closure cell per node, so no bool flag
        # rides beside them.  Non-FIFO skips the ChannelState indirection.
        delivery_time = self.channels.delivery_time if self.channels.fifo else None
        # In streaming mode (record_send is None) the counter updates are
        # inlined here instead of paying a record_send frame per message.
        # Keep the inlined branch in sync with MetricsCollector.record_send /
        # _record_send_counters — the counters-vs-full equivalence test in
        # tests/simulation/test_determinism.py guards the pair.
        metrics = self.metrics
        record_send = self._record_send if metrics._keep_records else None
        by_kind = metrics.messages_by_kind
        by_sender = metrics.messages_by_sender
        recorder = self._trace_recorder
        # The fault layer, bound only when one is enabled: a fault-free send
        # pays two `decide is not None` tests and no RNG draw.  The
        # duplicate's delay comes from the fault RNG, never the simulator's,
        # so enabling faults leaves the run's delay sequence unperturbed.
        faults = self.network_faults
        decide = duplicate_delay = None
        if faults is not None:
            decide = faults.decide
            duplicate_delay = self.delay_model.bind(faults.rng)

        def send(dest: int, message: Message) -> None:
            if dest not in nodes:
                raise SimulationError(
                    f"node {sender} sent a message to unknown node {dest}"
                )
            if sender in failed:
                # A crashed node cannot act; silently ignore (defensive,
                # the cluster never invokes handlers of crashed nodes).
                return
            now = simulator._time
            kind = message.kind
            # The send is accounted first in every case — the sender did its
            # part; it is the network that eats or clones the message.
            if record_send is None:
                metrics._total_sent += 1
                by_kind[kind] += 1
                by_sender[sender] += 1
            else:
                record_send(now, sender, dest, kind)
            if trace is not None:
                trace.emit(now, TraceCategory.SEND, sender, dest=dest, kind=kind)
            if recorder is not None:
                recorder.on_send(now, sender, dest, message)
            if decide is not None:
                fault = decide(sender, dest, now)
                if fault is not None and fault != DUPLICATE:
                    if fault == PARTITION:
                        metrics.blocked_messages += 1
                    else:
                        metrics.lost_messages += 1
                    if trace is not None:
                        trace.emit(
                            now, TraceCategory.DROP, dest,
                            sender=sender, kind=kind, fault=fault,
                        )
                    if recorder is not None:
                        recorder.on_drop(now, sender, dest, message, fault)
                    return
            delay = sample_delay(sender, dest)
            if delivery_time is None:
                arrival = now + delay
            else:
                arrival = delivery_time(sender, dest, now, delay)
            schedule_delivery(arrival, sender, dest, message, now)
            if decide is not None and fault is not None:
                # The clone gets its own independently sampled delay and
                # deliberately bypasses FIFO clamping: a duplicate arriving
                # out of order is exactly the adversarial behaviour this
                # layer exists to inject.
                metrics.duplicated_messages += 1
                if trace is not None:
                    trace.emit(
                        now, TraceCategory.SEND, sender,
                        dest=dest, kind=kind, fault=fault,
                    )
                schedule_delivery(
                    now + duplicate_delay(sender, dest), sender, dest, message, now
                )

        return send

    def _deliver(self, delivery: tuple[int, int, Message, float]) -> None:
        # The simulator hands deliveries over as plain tuples (see
        # Simulator.schedule_delivery).
        self._delivered_total += 1
        sender, dest, message, _sent_at = delivery
        recorder = self._trace_recorder
        if dest in self.failed:
            # Fail-stop: messages in transit towards a crashed node are lost.
            self.metrics.dropped_messages += 1
            trace = self._trace
            if trace is not None:
                trace.emit(
                    self.simulator._time,
                    TraceCategory.DROP,
                    dest,
                    sender=sender,
                    kind=message.kind,
                )
            if recorder is not None:
                recorder.on_drop(
                    self.simulator._time, sender, dest, message, "crashed-dest"
                )
            return
        trace = self._trace
        if trace is not None:
            trace.emit(
                self.simulator._time,
                TraceCategory.DELIVER,
                dest,
                sender=sender,
                kind=message.kind,
            )
        if recorder is not None:
            recorder.on_deliver(self.simulator._time, sender, dest, message)
        self.nodes[dest].on_message(sender, message)

    def _fire_timer(self, expiry: TimerExpiry) -> None:
        node_id = expiry.node
        if node_id in self.failed:
            return
        trace = self._trace
        if trace is not None:
            trace.emit(self.simulator._time, TraceCategory.TIMER, node_id, name=expiry.name)
        self.nodes[node_id].on_timer(expiry.name, expiry.payload)

    # ------------------------------------------------------------------
    # Application-level operations
    # ------------------------------------------------------------------
    def request_cs(
        self,
        node_id: int,
        *,
        at: float | None = None,
        hold: float | None = None,
        auto_release: bool = True,
    ) -> int:
        """Issue a critical-section request on behalf of ``node_id``.

        Args:
            at: simulated time at which the request is issued (default: now).
            hold: how long the node stays in the critical section once
                granted (default: the cluster's ``cs_duration``); the release
                is scheduled automatically.
            auto_release: pass ``False`` to keep the critical section until
                :meth:`release_cs` is called explicitly.

        Returns:
            The request id used in the metrics records.
        """
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")
        request_id = next_request_id()
        hold_time: float | None = self.cs_duration if hold is None else hold
        if not auto_release:
            hold_time = None

        if at is None or at <= self.simulator.now:
            self._issue_request(node_id, request_id, hold_time)
        else:
            # Closure-free dispatch: the arrival rides the agenda as a plain
            # tuple through the TAG_REQUEST jump-table slot (no ScheduledAction
            # wrapper, no per-request closure capturing self/node_id/hold).
            self.simulator.schedule_request(at, (node_id, request_id, hold_time, None))
        return request_id

    def feed_workload(self, arrivals: Iterable[Any], *, window: int = 64) -> int:
        """Inject a workload lazily, keeping at most ``window`` arrivals queued.

        The streaming counterpart of :meth:`repro.workload.arrivals.Workload.apply`:
        instead of scheduling every arrival up front (O(requests) agenda
        entries and arrival objects before the run even starts), prime only
        the first ``window`` arrivals and pull the next one from the
        iterator each time a queued arrival fires.  Agenda size — and
        therefore heap depth, which every ``heappush``/``heappop`` of the
        whole run pays for — stays O(active + window).

        ``arrivals`` is anything iterating over
        :class:`~repro.workload.arrivals.RequestArrival`-shaped items
        (``node``/``at``/``hold``), typically an
        :class:`~repro.workload.arrivals.ArrivalStream`.  Arrival times must
        be non-decreasing *beyond the window horizon*: out-of-order arrivals
        are fine while they land inside the currently queued window (the
        agenda re-orders them), but an arrival earlier than the already
        reached simulation time raises :class:`SimulationError` — materialise
        and sort such a workload instead.  Request ids are allocated at
        injection time, in stream order, so a monotone stream gets the same
        ids eager scheduling would have produced.

        A streamed run is observably identical to eager scheduling for
        workloads whose arrival times never exactly tie a pending
        delivery/timer instant (all built-in generators draw continuous
        times, so ties have measure zero).  On an exact tie the agenda's
        insertion-order tiebreak differs: eager scheduling queued every
        arrival up front with the lowest sequence numbers, a mid-run
        injection gets a fresh one.

        Can be called on a live cluster (e.g. to chain a second workload)
        and multiple feeds can be active at once; each pull replenishes only
        its own stream.

        Returns:
            The number of arrivals primed into the window now
            (``min(window, len(stream))``); the rest inject during the run.
        """
        if window < 1:
            raise SimulationError(f"feeder window must be >= 1, got {window}")
        iterator = iter(arrivals)
        schedule = self._schedule_streamed_arrival
        primed = 0
        for arrival in iterator:
            schedule(arrival, iterator)
            primed += 1
            if primed >= window:
                break
        return primed

    def _schedule_streamed_arrival(self, arrival: Any, feeder: Any) -> None:
        """Queue one streamed arrival, tagged with the feeder to refill from.

        Mirrors ``request_cs`` semantics: unknown nodes fail fast with
        :class:`SimulationError`, and a ``hold`` of ``None`` falls back to
        the cluster's ``cs_duration``.
        """
        node = arrival.node
        if node not in self.nodes:
            raise SimulationError(f"workload stream names unknown node {node}")
        at = arrival.at
        now = self.simulator.now
        if at < now:
            raise SimulationError(
                f"workload stream went backwards in time: arrival at t={at} "
                f"pulled when the simulation already reached t={now}; "
                "increase the feeder window or materialise the workload"
            )
        hold = arrival.hold
        if hold is None:
            hold = self.cs_duration
        self.simulator.schedule_request(at, (node, next_request_id(), hold, feeder))

    def _dispatch_request(self, payload: tuple[int, int, float | None, Any]) -> None:
        """Jump-table handler for TAG_REQUEST entries (see ``request_cs``)."""
        node_id, request_id, hold, feeder = payload
        if feeder is not None:
            # Refill the feeder window before issuing: one arrival leaves the
            # agenda, the next one of its stream enters.  Runs once per
            # streamed request, so the _schedule_streamed_arrival frame is
            # inlined — keep the two in sync.
            arrival = next(feeder, None)
            if arrival is not None:
                node = arrival.node
                if node not in self.nodes:
                    raise SimulationError(f"workload stream names unknown node {node}")
                at = arrival.at
                simulator = self.simulator
                if at < simulator._time:
                    raise SimulationError(
                        f"workload stream went backwards in time: arrival at t={at} "
                        f"pulled when the simulation already reached t={simulator._time}; "
                        "increase the feeder window or materialise the workload"
                    )
                arrival_hold = arrival.hold
                if arrival_hold is None:
                    arrival_hold = self.cs_duration
                simulator.schedule_request(at, (node, next_request_id(), arrival_hold, feeder))
        self._issue_request(node_id, request_id, hold)

    def _issue_request(self, node_id: int, request_id: int, hold: float | None) -> None:
        if node_id in self.failed:
            # The requester itself is down; the request never happens.
            return
        now = self.simulator._time
        self.metrics.record_request_issued(request_id, node_id, now)
        trace = self._trace
        if trace is not None:
            trace.emit(now, TraceCategory.REQUEST, node_id, request=request_id)
        self._pending_request_ids[node_id].append(request_id)
        self._auto_release[node_id] = hold
        self.nodes[node_id].acquire()

    def release_cs(self, node_id: int) -> None:
        """Explicitly release the critical section held by ``node_id``."""
        self._do_release(node_id)

    def _on_granted(self, node_id: int) -> None:
        now = self.simulator.now
        pending = self._pending_request_ids[node_id]
        request_id = pending.popleft() if pending else None
        self._active_request[node_id] = request_id
        self.metrics.record_cs_enter(node_id, now)
        trace = self._trace
        if trace is not None:
            trace.emit(now, TraceCategory.CS_ENTER, node_id, request=request_id)
        if request_id is not None:
            self.metrics.record_request_granted(request_id, now)
            if trace is not None:
                trace.emit(now, TraceCategory.GRANT, node_id, request=request_id)
        for listener in self._grant_listeners:
            listener(node_id, now)
        hold = self._auto_release[node_id]
        if hold is not None:
            self.simulator.call_after(hold, lambda: self._do_release(node_id), label=f"release-{node_id}")

    def _do_release(self, node_id: int) -> None:
        if node_id in self.failed:
            return
        node = self.nodes[node_id]
        if not node.in_critical_section:
            return
        now = self.simulator.now
        request_id = self._active_request.get(node_id)
        self.metrics.record_cs_exit(node_id, now)
        trace = self._trace
        if trace is not None:
            trace.emit(now, TraceCategory.CS_EXIT, node_id, request=request_id)
        if request_id is not None:
            self.metrics.record_request_released(request_id, now)
            if trace is not None:
                trace.emit(now, TraceCategory.RELEASE, node_id, request=request_id)
        self._active_request[node_id] = None
        node.release()

    # ------------------------------------------------------------------
    # Failure injection (fail-stop model of Section 5)
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int, *, at: float | None = None) -> None:
        """Crash ``node_id`` now or at a scheduled time.

        A crashed node stops processing messages and timers; messages in
        transit towards it are lost; its volatile state is wiped through
        :meth:`MutexNode.on_crash`.
        """
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")

        def crash() -> None:
            if node_id in self.failed:
                return
            self.failed.add(node_id)
            self._environments[node_id].cancel_all_timers()
            self.metrics.record_failure(node_id, self.simulator.now)
            self.tracer.emit(self.simulator.now, TraceCategory.FAILURE, node_id)
            # Requests the node had issued (or was serving) die with it;
            # forgetting them keeps later grants matched to the right
            # request records after a recovery.
            self._pending_request_ids[node_id].clear()
            self._active_request[node_id] = None
            self._auto_release[node_id] = None
            self.nodes[node_id].on_crash()

        if at is None or at <= self.simulator.now:
            crash()
        else:
            self.simulator.call_at(at, crash, label=f"fail-{node_id}")

    def recover_node(self, node_id: int, *, at: float | None = None) -> None:
        """Recover a crashed node now or at a scheduled time."""
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")

        def recover() -> None:
            if node_id not in self.failed:
                return
            self.failed.discard(node_id)
            self.metrics.record_recovery(node_id, self.simulator.now)
            self.tracer.emit(self.simulator.now, TraceCategory.RECOVERY, node_id)
            self.nodes[node_id].on_recover()

        if at is None or at <= self.simulator.now:
            recover()
        else:
            self.simulator.call_at(at, recover, label=f"recover-{node_id}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = 2_000_000) -> None:
        """Run the simulation (see :meth:`Simulator.run`)."""
        self.simulator.run(until=until, max_events=max_events)

    def run_until_quiescent(self, max_events: int | None = 2_000_000) -> None:
        """Run until no pending events remain."""
        self.simulator.run(until=None, max_events=max_events)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshots(self) -> dict[int, dict[str, Any]]:
        """Return the state snapshot of every node."""
        return {node_id: node.snapshot() for node_id, node in self.nodes.items()}

    def father_map(self) -> dict[int, int | None]:
        """Return the ``father`` variable of every node exposing one.

        Only meaningful for the tree-based algorithms; nodes that do not have
        a ``father`` attribute are skipped.
        """
        fathers: dict[int, int | None] = {}
        for node_id, node in self.nodes.items():
            snapshot = node.snapshot()
            if "father" in snapshot:
                fathers[node_id] = snapshot["father"]
        return fathers

    def token_holders(self) -> list[int]:
        """Return the nodes that currently believe they hold the token."""
        holders = []
        for node_id, node in self.nodes.items():
            snapshot = node.snapshot()
            if snapshot.get("token_here"):
                holders.append(node_id)
        return holders

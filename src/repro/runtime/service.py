"""The lock server: one protocol node behind a real transport.

Each :class:`LockServer` hosts exactly one sans-I/O
:class:`~repro.simulation.process.MutexNode` (any algorithm) and gives it a
real :class:`~repro.simulation.process.Environment`: protocol messages
travel over :class:`~repro.runtime.transport.PeerLink`s (length-prefixed
frames over TCP or UDS, per-link reconnect, one socket write per link per
loop tick, write backpressure), timers are
``call_later`` handles, and the clock is wall time relative to a shared
*service epoch* so timestamps are comparable across server processes.

Clients speak a tiny framed request protocol (``acquire`` / ``release`` /
``cancel`` / ``status``) with **idempotent request ids**: the server keeps
each request's lifecycle state, so a client that retries an ``acquire``
after a lost response is answered from that state — a retried acquire never
enqueues a second critical-section entry.  A ``cancel`` (sent by the client
at its deadline) removes a queued request; if the algorithm grants the
abandoned request later, the server releases it immediately (a *phantom*
grant — counted, surfaced in ``status``, and invisible to clients, whose
mutual exclusion is what the service guarantees).

Reliability: protocol frames carry per-destination sequence numbers and a
process incarnation tag; receivers ack every frame and admit each sequence
exactly once, senders retransmit unacked frames.  That restores the paper's
reliable-channel assumption over loss, duplication and partition windows —
but it also means a "lost" frame can resurface after an arbitrary delay,
which the algorithm's bounded-delay suspicion logic was never built for.
Two fences close that gap: timers that conclude *death from silence* (the
enquiry and root-claim timeouts, both ending in token regeneration) are
deferred while any of our frames is unacked past a grace period or hasn't
been silent long enough for a lost reply to be repaired (see
``_SILENCE_TIMERS``), and a regeneration purges our own still-unacked token
frames so the transport cannot later deliver the very copy the node just
declared lost.  The third fence is the node's: a source that answers an
enquiry with "token not received" burns that loan id and destroys any late
copy (:class:`~repro.core.fault_tolerant_node.FaultTolerantNode`).

Fault injection: a :class:`~repro.runtime.faults.RuntimeChaos` filters the
**protocol** send path (seeded loss / duplication / partition windows,
exactly the simulator's adversarial semantics) and schedules fail-stop
crash/restart of the server's node — a crashed server drops all protocol
traffic, wipes the node's volatile state through
:meth:`~repro.simulation.process.MutexNode.on_crash`, and fails queued
client requests with a retryable ``crashed`` error.  Every lifecycle edge
(issue/grant/enter/exit/cancel/crash/recover) is reported to an optional
:class:`~repro.runtime.monitor.SLOMonitor`: events carry their emit-time
timestamp and leave in bounded batches (at most 16 events or 1 ms per frame,
see ``_EVENT_BATCH_MAX``; crash, recover and ``stop()`` flush at once) over
a reconnecting :class:`~repro.runtime.transport.PeerLink`.  The link is
bounded and fire-and-forget — ``status()["monitor_link"]`` counts events
emitted, frames shipped and events dropped.

Tracing: a client that head-sampled an acquire attaches a ``tr`` trace id
to the frame; the server stores it on the waiter, stamps it on monitor
events and structured log lines, and propagates it onto every protocol
frame sent while the node works on that request's behalf (both from the
acquire/release call itself and, transitively, while handling an inbound
protocol frame that carried a trace id) — so the monitor's ``/traces``
endpoint can reconstruct the request's full causal journey across peers.

``python -m repro.runtime.service`` runs one server as its own OS process —
see the module's ``main`` and ``examples/asyncio_lock_service.py --tcp``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable

from repro.core.messages import Message
from repro.exceptions import ConfigurationError, ReproError
from repro.runtime.faults import DROP, DUPLICATE, RuntimeChaos
from repro.runtime.logs import log_event, service_logger
from repro.runtime.transport import FrameConnection, FrameServer, PeerLink
from repro.runtime.wire import message_to_wire, wire_to_message, wire_trace_id
from repro.simulation.process import Environment, MutexNode

__all__ = ["LockServerConfig", "LockServer", "start_servers", "main"]

#: Completed request ids remembered for idempotent replies.
_RECENT_LIMIT = 512

#: Node timers whose expiry concludes "a silent peer is dead" — the
#: fault-tolerant algorithm's enquiry timeout and root-claim timeout, both
#: of which end in token regeneration.  Their delivery is gated on
#: :meth:`LockServer._silence_conclusive`: over a retransmitting transport,
#: silence only proves death once our frames were acked (a crashed server
#: still acks — transport receipt is not node liveness) and any lost reply
#: has had time to be repaired.  A partitioned server defers these timers
#: until the partition heals, at which point the retransmitted enquiry or
#: claim draws a real answer that cancels the timer — regenerating from
#: inside a partition is how a token gets duplicated.
_SILENCE_TIMERS = frozenset({"enquiry", "root_claim"})

#: Monitor events leave a server in batches: one ``events`` frame when the
#: batch holds ``_EVENT_BATCH_MAX`` events or ``_EVENT_BATCH_DELAY`` seconds
#: after its first event, whichever comes first.  Events keep their emit-time
#: ``t``, so the monitor orders and judges them exactly as before; 1 ms is
#: 1/50 of the monitor's own 50 ms ``reorder_window``.  Constants, not
#: options, because both ends were measured with ``benchmarks/suite``
#: (ISSUE 12): a frame per event made the attached monitor cost a third of the
#: throughput (``monitor.tax`` 1.55 on ``svc-pingpong-n8``, 6 events per
#: grant); an uncapped 2 ms batch raised ``svc-local-n8`` ``acquire_p99_ms``
#: 0.277 -> 0.383 (one ~36-event encode/decode lump per 9 grants), while a cap
#: of 16 reads 0.23-0.26 with ``grants_per_s`` within 5 % of the uncapped run.
_EVENT_BATCH_MAX = 16
_EVENT_BATCH_DELAY = 0.001


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of node snapshots to JSON-ready values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class _DedupWindow:
    """Exactly-once frame admission per (sender, incarnation).

    ``admit(seq)`` returns True the first time a sequence number is seen.
    A cumulative floor (all seqs <= floor admitted) keeps the out-of-order
    set tiny: it only ever holds the gaps opened by in-flight
    retransmissions.
    """

    __slots__ = ("floor", "_seen")

    def __init__(self) -> None:
        self.floor = 0
        self._seen: set[int] = set()

    def admit(self, seq: int) -> bool:
        if seq <= self.floor or seq in self._seen:
            return False
        self._seen.add(seq)
        while self.floor + 1 in self._seen:
            self.floor += 1
            self._seen.discard(self.floor)
        return True


@dataclass
class LockServerConfig:
    """Static configuration of one lock server.

    Args:
        node_id: the hosted node's identity.
        listen: listen address (``tcp://host:0`` resolves an ephemeral port).
        peers: node id -> address of every *other* node.
        monitor: optional :class:`~repro.runtime.monitor.SLOMonitor` address.
        epoch: shared service epoch (unix seconds); event timestamps and
            chaos windows are expressed relative to it.
        max_delay: the bound ``delta`` reported to the node (drives the
            fault-tolerant algorithm's suspicion timeouts, so it should
            reflect the real transport: a few ms on loopback).
        chaos: optional fault injection (protocol links + own-node crashes).
    """

    node_id: int
    listen: str = "tcp://127.0.0.1:0"
    peers: dict[int, str] = dataclass_field(default_factory=dict)
    monitor: str | None = None
    epoch: float = 0.0
    max_delay: float = 0.05
    chaos: RuntimeChaos | None = None


class _Waiter:
    """One queued client acquire."""

    __slots__ = ("rid", "client", "conn", "cancelled", "trace")

    def __init__(
        self,
        rid: int,
        client: int,
        conn: FrameConnection,
        trace: str | None = None,
    ) -> None:
        self.rid = rid
        self.client = client
        self.conn = conn
        self.cancelled = False
        #: Propagated trace id (client head-sampling decides; ``None`` when
        #: the request is unsampled).  Rides on every protocol frame the
        #: node sends while working on this request's behalf.
        self.trace = trace


class _ServiceEnvironment(Environment):
    """Real-transport environment handed to the hosted node."""

    def __init__(self, server: "LockServer") -> None:
        self._server = server
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._next_timer_id = 0

    @property
    def node_id(self) -> int:
        return self._server.config.node_id

    @property
    def now(self) -> float:
        return self._server.now

    @property
    def max_delay(self) -> float:
        return self._server.config.max_delay

    def send(self, dest: int, message: Message) -> None:
        self._server._send_protocol(dest, message)

    def set_timer(self, delay: float, name: str, payload: Any = None) -> int:
        self._next_timer_id += 1
        timer_id = self._next_timer_id
        loop = asyncio.get_running_loop()

        def fire(first_fired: float | None = None) -> None:
            now = self._server.now
            if first_fired is None:
                first_fired = now
            if name in _SILENCE_TIMERS and not self._server._silence_conclusive(
                first_fired
            ):
                # Keep the timer registered under its id while deferred so
                # the node can still cancel it (e.g. the awaited reply or
                # veto arrives during the deferral).
                self._server.timer_deferrals += 1
                self._timers[timer_id] = loop.call_later(
                    self._server._silence_recheck, fire, first_fired
                )
                return
            self._timers.pop(timer_id, None)
            self._server._on_node_timer(name, payload)

        self._timers[timer_id] = loop.call_later(delay, fire)
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        handle = self._timers.pop(timer_id, None)
        if handle is not None:
            handle.cancel()

    def cancel_all(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()


class LockServer:
    """Hosts one :class:`MutexNode` behind the framed transport."""

    def __init__(self, node: MutexNode, config: LockServerConfig) -> None:
        if config.node_id != node.node_id:
            raise ConfigurationError(
                f"config names node {config.node_id} but the node is {node.node_id}"
            )
        if config.chaos is not None and config.chaos.faults is not None:
            # The simulator's rule, checked before any socket opens: a
            # partition names only nodes 1..n and leaves one outside.
            config.chaos.faults.validate_nodes(node.n)
        self.node = node
        self.config = config
        self.crashed = False
        self.phantom_grants = 0
        self.node_errors: list[str] = []
        self.dropped_while_crashed = 0
        self.duplicates_dropped = 0
        self.unknown_peers = 0
        self.retransmits = 0
        # Reliable protocol delivery over an unreliable transport: every
        # frame carries a per-destination sequence number and a process
        # incarnation tag; the receiver acks each seq and admits it exactly
        # once through a sliding-window dedup, while the sender retransmits
        # unacked frames.  Retransmission + dedup together restore the
        # paper's reliable-channel assumption over chaos loss/duplication
        # and partition windows: a token frame lost on the wire with every
        # node alive would otherwise strand the whole system (no node is
        # crashed, so the regeneration arbitration rightly refuses to mint a
        # second token — the fuzzer documents exactly that model boundary),
        # and a duplicated token accepted by an asking node would break
        # mutual exclusion outright.
        self._incarnation = time.time_ns() & 0xFFFF_FFFF
        self._send_seq: dict[int, int] = {}
        self._recv_windows: dict[int, tuple[int, _DedupWindow]] = {}
        self._unacked: dict[int, dict[int, list[Any]]] = {}
        self._retransmit_task: asyncio.Task | None = None
        # Silence-gate tuning (see _SILENCE_TIMERS and _silence_conclusive).
        self._retransmit_interval = max(0.05, 2.0 * config.max_delay)
        self._ack_grace = 3.0 * self._retransmit_interval
        self._stall_clear = 2.0 * self._retransmit_interval
        self._min_silence = 4.0 * self._retransmit_interval + 2.0 * config.max_delay
        self._silence_recheck = self._retransmit_interval / 2.0
        self._last_stall = float("-inf")
        self.timer_deferrals = 0
        self.stale_frames_purged = 0
        self._env = _ServiceEnvironment(self)
        self._links: dict[int, PeerLink] = {}
        self._monitor_link: PeerLink | None = None
        self._event_batch: list[dict[str, Any]] = []
        self._event_timer: asyncio.TimerHandle | None = None
        self.events_emitted = 0
        self.event_frames = 0
        self.events_dropped = 0
        self._server = FrameServer(
            config.listen, self._on_frame, http_handler=self._on_http
        )
        self._waiters: deque[_Waiter] = deque()
        self._pending: dict[int, _Waiter] = {}
        self._holder: int | None = None
        # Causal trace context: set while the node runs on behalf of a traced
        # request (client acquire) or a traced inbound protocol frame, so
        # every protocol frame sent synchronously from that work carries the
        # same trace id — REQUEST forwarding and token hops chain naturally.
        self._current_trace: str | None = None
        self._holder_trace: str | None = None
        self._log = service_logger(f"repro.runtime.node.{config.node_id}")
        self._recent: OrderedDict[int, str] = OrderedDict()
        self._chaos_handles: list[asyncio.TimerHandle] = []
        self._listening = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Service time: wall-clock seconds since the shared epoch."""
        return time.time() - self.config.epoch

    @property
    def address(self) -> str:
        return self._server.address

    async def listen(self) -> str:
        """Start the inbound listener only; returns the resolved address.

        Splitting this from :meth:`start` lets a launcher bring every
        server's listener up on an ephemeral port first, then distribute the
        resolved addresses as the peer map (see :func:`start_servers`).
        Idempotent; :meth:`start` calls it when not already done.
        """
        if not self._listening:
            await self._server.start()
            self._listening = True
        return self.address

    async def start(self) -> None:
        await self.listen()
        for peer_id, address in self.config.peers.items():
            self._links[peer_id] = PeerLink(address, seed=self.config.node_id * 1009 + peer_id)
            self._links[peer_id].start()
        if self.config.monitor is not None:
            self._monitor_link = PeerLink(self.config.monitor, seed=self.config.node_id)
            self._monitor_link.start()
        self.node.bind(self._env)
        self.node.set_granted_callback(self._on_granted)
        self._retransmit_task = asyncio.get_running_loop().create_task(
            self._retransmit_loop()
        )
        self._schedule_chaos()
        self._started = True

    def _schedule_chaos(self) -> None:
        chaos = self.config.chaos
        if chaos is None:
            return
        loop = asyncio.get_running_loop()
        for plan in chaos.crashes_for(self.config.node_id):
            delay = max(0.0, plan.at - self.now)
            self._chaos_handles.append(loop.call_later(delay, self.inject_crash))
            if plan.recover_at is not None:
                recover_delay = max(0.0, plan.recover_at - self.now)
                self._chaos_handles.append(
                    loop.call_later(recover_delay, self.inject_recover)
                )

    async def stop(self) -> None:
        self._started = False
        for handle in self._chaos_handles:
            handle.cancel()
        self._chaos_handles.clear()
        if self._retransmit_task is not None:
            self._retransmit_task.cancel()
            try:
                await self._retransmit_task
            except asyncio.CancelledError:
                pass
            self._retransmit_task = None
        self._env.cancel_all()
        await self._server.close()
        for link in self._links.values():
            await link.close()
        if self._monitor_link is not None:
            self._flush_events()
            await self._monitor_link.close()

    async def __aenter__(self) -> "LockServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def _send_protocol(self, dest: int, message: Message) -> None:
        if self.crashed:
            return
        if dest not in self._links:
            self.unknown_peers += 1
            return
        seq = self._send_seq.get(dest, 0) + 1
        self._send_seq[dest] = seq
        payload = {
            "type": "proto",
            "from": self.config.node_id,
            "s": seq,
            "i": self._incarnation,
            "m": message_to_wire(message, trace_id=self._current_trace),
        }
        if self._current_trace is not None:
            self._emit(
                "send",
                trace=self._current_trace,
                dest=dest,
                kind=type(message).__name__,
            )
        # Buffered before the first (chaos-filtered) transmission: a frame
        # the fault layer eats on the wire is still retransmitted until the
        # receiver acks it.  The cap only bounds memory against a peer that
        # is gone for good (its node then looks crashed, which the algorithm
        # handles); dropping newest keeps the buffered prefix contiguous.
        pending = self._unacked.setdefault(dest, {})
        if len(pending) < 512:
            # [payload, last transmission, first transmission] — the first
            # timestamp never moves; its age is what the silence gate reads.
            pending[seq] = [payload, self.now, self.now]
        self._transmit(dest, payload)

    def _ack(self, sender: int, seq: int, incarnation: int) -> None:
        self._transmit(
            sender,
            {"type": "ack", "from": self.config.node_id, "s": seq, "i": incarnation},
        )

    def _transmit(self, dest: int, payload: dict[str, Any]) -> None:
        """One wire transmission attempt, subject to the chaos filter."""
        link = self._links.get(dest)
        if link is None:
            return
        chaos = self.config.chaos
        copies = 1
        if chaos is not None and chaos.faults is not None:
            verdict = chaos.on_send(self.config.node_id, dest, self.now)
            if verdict == DROP:
                return
            if verdict == DUPLICATE:
                copies = 2
        for _ in range(copies):
            link.send(payload)

    async def _retransmit_loop(self) -> None:
        interval = self._retransmit_interval
        while True:
            await asyncio.sleep(interval)
            if self.crashed:
                continue
            now = self.now
            if self._oldest_unacked_age(now) > self._ack_grace:
                self._last_stall = now
            for dest, pending in self._unacked.items():
                for seq in sorted(pending):
                    entry = pending[seq]
                    if now - entry[1] >= interval:
                        entry[1] = now
                        self.retransmits += 1
                        self._transmit(dest, entry[0])

    def _oldest_unacked_age(self, now: float) -> float:
        oldest = 0.0
        for pending in self._unacked.values():
            for entry in pending.values():
                age = now - entry[2]
                if age > oldest:
                    oldest = age
        return oldest

    def _silence_conclusive(self, first_fired: float) -> bool:
        """May a silence-based timer (enquiry / root claim) be delivered?

        Three conditions make the silence trustworthy:

        * the timer has been due for at least ``_min_silence`` — a reply or
          veto that was lost on the wire has had several retransmission
          rounds to be repaired;
        * no frame we sent has been unacked longer than ``_ack_grace`` —
          our own probes verifiably reached their hosts (a crashed server
          still acks, so this detects partitions, not crashes);
        * no such delivery stall existed in the recent past
          (``_stall_clear``) — right after a partition heals, the answers to
          freshly repaired probes are still in flight.
        """
        now = self.now
        if now - first_fired < self._min_silence:
            return False
        if self._oldest_unacked_age(now) > self._ack_grace:
            self._last_stall = now
            return False
        return now - self._last_stall >= self._stall_clear

    def _purge_stale_tokens(self, sent_before: dict[int, int]) -> None:
        """Stop retransmitting token frames sent before a regeneration.

        When the node regenerates, any token frame of ours still in the
        retransmission buffer is a copy of the token just declared lost;
        delivering it later would put two tokens in circulation.  Frames
        sent *during* the regeneration (the replacement loan) stay.
        """
        for dest, pending in self._unacked.items():
            floor = sent_before.get(dest, 0)
            stale = [
                seq
                for seq, entry in pending.items()
                if seq <= floor and entry[0]["m"].get("m") == "TokenMessage"
            ]
            for seq in stale:
                del pending[seq]
                self.stale_frames_purged += 1

    def _on_node_timer(self, name: str, payload: Any) -> None:
        if self.crashed:
            return
        try:
            self._dispatch_to_node(self.node.on_timer, name, payload)
        except ReproError as exc:
            self.node_errors.append(f"timer {name}: {exc}")

    def _emit(
        self,
        event: str,
        rid: int = 0,
        *,
        trace: str | None = None,
        dest: int | None = None,
        kind: str | None = None,
    ) -> None:
        if self._monitor_link is None:
            return
        payload: dict[str, Any] = {
            "e": event,
            "node": self.config.node_id,
            "rid": rid,
            "t": round(self.now, 6),
        }
        if trace is not None:
            payload["tr"] = trace
        if dest is not None:
            payload["dest"] = dest
        if kind is not None:
            payload["kind"] = kind
        self.events_emitted += 1
        batch = self._event_batch
        batch.append(payload)
        if len(batch) >= _EVENT_BATCH_MAX:
            self._flush_events()
        elif self._event_timer is None:
            self._event_timer = asyncio.get_running_loop().call_later(
                _EVENT_BATCH_DELAY, self._flush_events
            )

    def _flush_events(self) -> None:
        """Ship the pending monitor events as one frame (see ``_EVENT_BATCH_MAX``)."""
        if self._event_timer is not None:
            self._event_timer.cancel()
            self._event_timer = None
        batch = self._event_batch
        if not batch:
            return
        self._event_batch = []
        if len(batch) == 1:
            frame = {"type": "event", **batch[0]}
        else:
            frame = {"type": "events", "batch": batch}
        self.event_frames += 1
        if not self._monitor_link.send(frame):
            self.events_dropped += len(batch)

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    async def _on_frame(self, frame: dict[str, Any], conn: FrameConnection) -> None:
        kind = frame.get("type")
        if kind == "proto":
            self._handle_protocol(frame)
        elif kind == "ack":
            if frame.get("i") == self._incarnation and not self.crashed:
                self._unacked.get(frame.get("from", 0), {}).pop(frame.get("s"), None)
        elif kind == "acquire":
            self._handle_acquire(frame, conn)
        elif kind == "release":
            self._handle_release(frame, conn)
        elif kind == "cancel":
            self._handle_cancel(frame, conn)
        elif kind == "status":
            conn.send(self.status())
        elif kind == "crash":
            self.inject_crash()
            conn.send({"type": "crashed", "node": self.config.node_id})
        elif kind == "recover":
            self.inject_recover()
            conn.send({"type": "recovered", "node": self.config.node_id})
        else:
            conn.send({"type": "error", "error": "unknown-frame", "detail": str(kind)})

    def _handle_protocol(self, frame: dict[str, Any]) -> None:
        sender = frame.get("from", 0)
        seq = frame.get("s")
        if isinstance(seq, int):
            incarnation = frame.get("i", 0)
            known = self._recv_windows.get(sender)
            if known is None or known[0] != incarnation:
                known = (incarnation, _DedupWindow())
                self._recv_windows[sender] = known
            # Ack duplicates too: the first ack may have been lost on the
            # wire, and only a fresh ack stops the sender's retransmissions.
            # A crashed server acks as well — the ack is a transport-level
            # receipt, and stopping the retransmission is what makes a
            # message to a crashed node *lost* (the fail-stop semantics the
            # regeneration arbitration depends on) instead of resurrected
            # after recovery next to a regenerated token.
            self._ack(sender, seq, incarnation)
            if not known[1].admit(seq):
                self.duplicates_dropped += 1
                return
        if self.crashed:
            # Fail-stop: delivered to the host, lost with the node.
            self.dropped_while_crashed += 1
            return
        try:
            wire = frame.get("m", {})
            message = wire_to_message(wire)
            # Inbound trace context: protocol frames sent synchronously while
            # handling this message (forwarded REQUESTs, token hops, grants)
            # inherit the incoming frame's trace id.
            self._current_trace = wire_trace_id(wire)
            try:
                self._dispatch_to_node(self.node.on_message, sender, message)
            finally:
                self._current_trace = None
        except ReproError as exc:
            # A protocol anomaly (e.g. a duplicated token the algorithm
            # rejects loudly) must not kill the server; it is recorded and
            # surfaced through status() instead.
            self.node_errors.append(str(exc))

    def _dispatch_to_node(self, handler: Callable, *args: Any) -> None:
        """Run one node callback, purging stale token frames on regeneration."""
        sent_before = dict(self._send_seq)
        regenerated_before = getattr(self.node, "tokens_regenerated", 0)
        try:
            handler(*args)
        finally:
            if getattr(self.node, "tokens_regenerated", 0) > regenerated_before:
                self._purge_stale_tokens(sent_before)

    def _remember(self, rid: int, state: str) -> None:
        self._recent[rid] = state
        self._recent.move_to_end(rid)
        while len(self._recent) > _RECENT_LIMIT:
            self._recent.popitem(last=False)

    def _handle_acquire(self, frame: dict[str, Any], conn: FrameConnection) -> None:
        rid = frame.get("rid")
        client = frame.get("client", 0)
        if not isinstance(rid, int):
            conn.send({"type": "error", "error": "bad-request", "detail": "rid must be int"})
            return
        if self.crashed:
            conn.send({"type": "error", "rid": rid, "error": "crashed"})
            return
        if rid == self._holder:
            # Idempotent retry of an already-granted acquire (the original
            # response was lost): answer from state, do not re-enter.
            conn.send({"type": "granted", "rid": rid})
            return
        waiter = self._pending.get(rid)
        if waiter is not None:
            # Retry of a still-queued acquire: adopt the new connection as
            # the reply target; the queued entry stays where it is.
            waiter.conn = conn
            return
        if self._recent.get(rid) == "released":
            conn.send({"type": "error", "rid": rid, "error": "stale-request"})
            return
        # New request (including re-issues after a cancel or a crash).
        trace = frame.get("tr")
        if not isinstance(trace, str):
            trace = None
        waiter = _Waiter(rid, client, conn, trace=trace)
        self._waiters.append(waiter)
        self._pending[rid] = waiter
        self._emit("issue", rid, trace=trace)
        log_event(
            self._log, "issue", trace_id=trace,
            node=self.config.node_id, rid=rid, client=client, t=round(self.now, 6),
        )
        self._current_trace = trace
        try:
            self.node.acquire()
        except ReproError as exc:
            self._waiters.remove(waiter)
            self._pending.pop(rid, None)
            self.node_errors.append(f"acquire: {exc}")
            conn.send({"type": "error", "rid": rid, "error": "protocol", "detail": str(exc)})
        finally:
            self._current_trace = None

    def _on_granted(self, _node_id: int) -> None:
        """Granted callback from the node — route the grant to a client."""
        loop = asyncio.get_running_loop()
        while self._waiters:
            waiter = self._waiters.popleft()
            self._pending.pop(waiter.rid, None)
            if waiter.cancelled:
                # The client gave up before the grant arrived: give the CS
                # straight back.  This grant belonged to that abandoned local
                # request — the algorithm serves remaining queued requests
                # after the release.
                self.phantom_grants += 1
                loop.call_soon(self._auto_release)
                return
            self._holder = waiter.rid
            self._holder_trace = waiter.trace
            self._emit("grant", waiter.rid, trace=waiter.trace)
            self._emit("enter", waiter.rid, trace=waiter.trace)
            log_event(
                self._log, "grant", trace_id=waiter.trace,
                node=self.config.node_id, rid=waiter.rid, t=round(self.now, 6),
            )
            waiter.conn.send({"type": "granted", "rid": waiter.rid})
            return
        # A grant with no queued client at all (e.g. all were cancelled and
        # already consumed): phantom as well.
        self.phantom_grants += 1
        loop.call_soon(self._auto_release)

    def _auto_release(self) -> None:
        if self.crashed:
            return
        if self.node.in_critical_section:
            try:
                self.node.release()
            except ReproError as exc:
                self.node_errors.append(f"auto-release: {exc}")

    def _handle_release(self, frame: dict[str, Any], conn: FrameConnection) -> None:
        rid = frame.get("rid")
        if self.crashed:
            conn.send({"type": "error", "rid": rid, "error": "crashed"})
            return
        if rid == self._holder:
            trace = self._holder_trace
            self._holder = None
            self._holder_trace = None
            self._remember(rid, "released")
            self._emit("exit", rid, trace=trace)
            log_event(
                self._log, "exit", trace_id=trace,
                node=self.config.node_id, rid=rid, t=round(self.now, 6),
            )
            self._current_trace = trace
            try:
                self.node.release()
            except ReproError as exc:
                self.node_errors.append(f"release: {exc}")
            finally:
                self._current_trace = None
            conn.send({"type": "released", "rid": rid})
            return
        state = self._recent.get(rid)
        if state == "released":
            conn.send({"type": "released", "rid": rid})  # idempotent retry
            return
        if state == "crashed":
            # The grant died with the crash; the CS was already surrendered.
            conn.send({"type": "released", "rid": rid, "lost": True})
            return
        conn.send({"type": "error", "rid": rid, "error": "not-holder"})

    def _handle_cancel(self, frame: dict[str, Any], conn: FrameConnection) -> None:
        rid = frame.get("rid")
        if rid == self._holder:
            # The grant and the client's deadline crossed in flight: the
            # client no longer wants the CS, so release on its behalf.
            trace = self._holder_trace
            self._holder = None
            self._holder_trace = None
            self._remember(rid, "released")
            self._emit("exit", rid, trace=trace)
            if not self.crashed:
                self._current_trace = trace
                try:
                    self.node.release()
                except ReproError as exc:
                    self.node_errors.append(f"cancel-release: {exc}")
                finally:
                    self._current_trace = None
            conn.send({"type": "cancelled", "rid": rid})
            return
        waiter = self._pending.pop(rid, None) if isinstance(rid, int) else None
        if waiter is not None:
            # The node-level local request this acquire opened is still in
            # the algorithm's pipeline, and grants map to local requests in
            # FIFO order — so the entry stays in the queue as a cancelled
            # placeholder until its grant arrives and is auto-released.
            waiter.cancelled = True
            self._remember(rid, "cancelled")
            self._emit("cancel", rid, trace=waiter.trace)
            log_event(
                self._log, "cancel", trace_id=waiter.trace,
                node=self.config.node_id, rid=rid, t=round(self.now, 6),
            )
        conn.send({"type": "cancelled", "rid": rid})

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_crash(self) -> None:
        """Fail-stop the hosted node (volatile state lost, traffic dropped)."""
        if self.crashed:
            return
        self.crashed = True
        self._env.cancel_all()
        for waiter in self._waiters:
            if not waiter.cancelled:
                waiter.conn.send(
                    {"type": "error", "rid": waiter.rid, "error": "crashed"}
                )
                self._remember(waiter.rid, "crashed")
        self._waiters.clear()
        self._pending.clear()
        if self._holder is not None:
            self._remember(self._holder, "crashed")
            self._holder = None
            self._holder_trace = None
        # Volatile state is lost: unacked pre-crash frames die with it (the
        # fail-stop model allows in-flight messages to vanish at a crash).
        self._unacked.clear()
        try:
            self.node.on_crash()
        except ReproError as exc:
            self.node_errors.append(f"on_crash: {exc}")
        self._emit("crash")
        self._flush_events()
        log_event(self._log, "crash", node=self.config.node_id, t=round(self.now, 6))

    def inject_recover(self) -> None:
        """Restart the node (only stable storage survives, as in the paper)."""
        if not self.crashed:
            return
        self.crashed = False
        try:
            self.node.on_recover()
        except ReproError as exc:
            self.node_errors.append(f"on_recover: {exc}")
        self._emit("recover")
        self._flush_events()
        log_event(self._log, "recover", node=self.config.node_id, t=round(self.now, 6))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        chaos = self.config.chaos
        links = {
            str(peer): {
                "sent": link.sent,
                "dropped": link.dropped,
                "reconnects": link.reconnects,
            }
            for peer, link in self._links.items()
        }
        return {
            "type": "status-reply",
            "node": self.config.node_id,
            "crashed": self.crashed,
            "queue_depth": len(self._waiters),
            "holder_rid": self._holder,
            "phantom_grants": self.phantom_grants,
            "node_errors": len(self.node_errors),
            "dropped_while_crashed": self.dropped_while_crashed,
            "duplicates_dropped": self.duplicates_dropped,
            "retransmits": self.retransmits,
            "unacked_frames": sum(len(p) for p in self._unacked.values()),
            "timer_deferrals": self.timer_deferrals,
            "stale_frames_purged": self.stale_frames_purged,
            "links": links,
            # Events-per-frame as two counts; ``dropped`` is in events and
            # covers frames the link refused (buffer full or closed), the
            # only loss the sender can see.
            "monitor_link": {
                "events_emitted": self.events_emitted,
                "event_frames": self.event_frames,
                "dropped": self.events_dropped,
            },
            "chaos": chaos.counters() if chaos is not None else None,
            "snapshot": _jsonable(self.node.snapshot()),
        }

    def _on_http(self, path: str, headers: dict[str, str]) -> tuple[int, dict[str, Any]]:
        if path in ("/", "/status"):
            return 200, self.status()
        return 404, {"error": f"unknown path {path!r}"}


async def start_servers(
    nodes: dict[int, MutexNode],
    *,
    monitor: str | None = None,
    epoch: float | None = None,
    max_delay: float = 0.05,
    chaos: "Callable[[int], RuntimeChaos | None] | None" = None,
    listen: str = "tcp://127.0.0.1:0",
) -> dict[int, LockServer]:
    """Start one in-process :class:`LockServer` per node on ephemeral ports.

    Brings every listener up first (resolving the ephemeral ports), then
    distributes the resolved address map as each server's peer set and
    finishes startup.  ``chaos`` is a per-node factory so every server gets
    its *own* :class:`RuntimeChaos` (independent fault RNGs, mirroring the
    simulator).  Used by the runtime tests and ``benchmarks/bench_service``;
    real multi-process deployments use the module CLI instead.
    """
    epoch = time.time() if epoch is None else epoch
    servers: dict[int, LockServer] = {}
    for node_id, node in nodes.items():
        config = LockServerConfig(
            node_id=node_id,
            listen=listen,
            monitor=monitor,
            epoch=epoch,
            max_delay=max_delay,
            chaos=chaos(node_id) if chaos is not None else None,
        )
        servers[node_id] = LockServer(node, config)
    for server in servers.values():
        await server.listen()
    addresses = {node_id: server.address for node_id, server in servers.items()}
    for node_id, server in servers.items():
        server.config.peers = {
            peer: address for peer, address in addresses.items() if peer != node_id
        }
        await server.start()
    return servers


# ----------------------------------------------------------------------
# CLI: one server per OS process
# ----------------------------------------------------------------------
def _build_node(algorithm: str, node_id: int, n: int, cs_estimate: float) -> MutexNode:
    from repro.core.builders import build_fault_tolerant_nodes, build_opencube_nodes

    if algorithm == "open-cube":
        return build_opencube_nodes(n)[node_id]
    if algorithm == "open-cube-ft":
        return build_fault_tolerant_nodes(n, cs_duration_estimate=cs_estimate)[node_id]
    raise ConfigurationError(f"unsupported service algorithm {algorithm!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.service",
        description="Run one lock-service node as its own process.",
    )
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, help="total nodes in the cube")
    parser.add_argument(
        "--algorithm", default="open-cube-ft", choices=["open-cube", "open-cube-ft"]
    )
    parser.add_argument("--listen", required=True, help="tcp://host:port or unix://path")
    parser.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="ID=ADDR",
        help="peer address, repeatable (e.g. --peer 2=tcp://127.0.0.1:7002)",
    )
    parser.add_argument("--monitor", default=None, help="SLO monitor address")
    parser.add_argument("--epoch", type=float, default=0.0, help="shared service epoch")
    parser.add_argument("--max-delay", type=float, default=0.05)
    parser.add_argument("--cs-estimate", type=float, default=0.05)
    parser.add_argument(
        "--chaos", default=None, help="RuntimeChaos JSON document (inline string)"
    )
    args = parser.parse_args(argv)

    peers: dict[int, str] = {}
    for item in args.peer:
        peer_id, _, addr = item.partition("=")
        peers[int(peer_id)] = addr
    chaos = RuntimeChaos.from_dict(json.loads(args.chaos)) if args.chaos else None
    node = _build_node(args.algorithm, args.node_id, args.n, args.cs_estimate)
    config = LockServerConfig(
        node_id=args.node_id,
        listen=args.listen,
        peers=peers,
        monitor=args.monitor,
        epoch=args.epoch,
        max_delay=args.max_delay,
        chaos=chaos,
    )

    async def run() -> None:
        server = LockServer(node, config)
        await server.start()
        print(f"lock-server node {args.node_id} listening on {server.address}", flush=True)
        try:
            await asyncio.Event().wait()  # run until killed
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

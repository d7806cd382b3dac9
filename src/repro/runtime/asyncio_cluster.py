"""asyncio runtime for running the mutual-exclusion nodes concurrently.

The same sans-I/O node classes that run on the discrete-event simulator run
here on a real :mod:`asyncio` event loop: messages travel through per-node
queues (optionally with injected delays), timers are ``call_later`` handles,
and the application acquires the critical section with ``await
cluster.acquire(node_id)``.

Semantics worth knowing:

* **Acquire is single-flight per node.**  A node-level ``acquire`` while a
  previous one is still waiting raises
  :class:`~repro.runtime.errors.AcquireInProgress` instead of racing two
  awaiters on the same grant signal.  A timed-out acquire raises
  :class:`~repro.runtime.errors.AcquireTimeout` and the request is
  *abandoned*: if the grant arrives later the cluster releases the CS
  immediately (counted in :attr:`AsyncioCluster.abandoned_grants`), so a
  timeout never leaks a held lock or poisons the next acquire.
* **Fault injection.**  Pass a
  :class:`~repro.simulation.network.NetworkFaults` as ``faults`` to subject
  the message layer to seeded loss/duplication/partition windows: every
  message asks :meth:`~repro.simulation.network.NetworkFaults.decide`, the
  same decision the simulator's send path asks, and the cluster counts the
  verdict.  :meth:`crash_node` / :meth:`recover_node` fail-stop and restart
  a node on the live loop.
* **Shutdown contract.**  :meth:`stop` first *drains*: it waits (bounded by
  ``drain_grace`` seconds) for in-flight deliveries and non-empty inboxes to
  settle, so messages already handed to the loop are processed rather than
  dropped mid-protocol.  Then pumps are cancelled, timers cancelled, and any
  still-waiting acquire fails with :class:`AcquireTimeout`.  ``stop`` is
  idempotent; after it returns no callback of this cluster will run again.

This runtime exists to demonstrate the algorithms outside the simulator (the
examples use it); quantitative experiments use the simulator, whose
determinism makes them reproducible.  The process-per-node deployment story
lives in :mod:`repro.runtime.service`.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Mapping

from repro.core.messages import Message
from repro.exceptions import ConfigurationError, ReproError, SimulationError
from repro.runtime.errors import AcquireInProgress, AcquireTimeout, NodeCrashed
from repro.simulation.network import DUPLICATE, PARTITION, NetworkFaults

__all__ = ["AsyncioEnvironment", "AsyncioCluster"]

from repro.simulation.process import Environment, MutexNode


class AsyncioEnvironment(Environment):
    """Environment backed by an asyncio event loop."""

    def __init__(self, cluster: "AsyncioCluster", node_id: int) -> None:
        self._cluster = cluster
        self._node_id = node_id
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._next_timer_id = 0

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def now(self) -> float:
        return time.monotonic() - self._cluster.start_time

    @property
    def max_delay(self) -> float:
        return self._cluster.max_delay

    def send(self, dest: int, message: Message) -> None:
        self._cluster._post(self._node_id, dest, message)

    def set_timer(self, delay: float, name: str, payload: Any = None) -> int:
        self._next_timer_id += 1
        timer_id = self._next_timer_id
        loop = self._cluster.loop

        def fire() -> None:
            self._timers.pop(timer_id, None)
            self._cluster._post_timer(self._node_id, name, payload)

        self._timers[timer_id] = loop.call_later(delay, fire)
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        handle = self._timers.pop(timer_id, None)
        if handle is not None:
            handle.cancel()

    def cancel_all(self) -> None:
        """Cancel every outstanding timer (used at shutdown and crashes)."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()


class AsyncioCluster:
    """Hosts :class:`MutexNode` instances on an asyncio event loop.

    Args:
        nodes: mapping of node id to node instance (any algorithm).
        message_delay: fixed extra delay added to every message, emulating a
            network; ``jitter`` adds a uniform random component.
        seed: seed for the jitter RNG.
        faults: optional seeded :class:`NetworkFaults` applied to every
            message send (loss / duplication / partition windows over the
            cluster-relative clock).
        drain_grace: bound (seconds) on how long :meth:`stop` waits for
            in-flight messages to finish before cancelling the pumps.
    """

    def __init__(
        self,
        nodes: Mapping[int, MutexNode],
        *,
        message_delay: float = 0.001,
        jitter: float = 0.001,
        seed: int = 0,
        faults: NetworkFaults | None = None,
        drain_grace: float = 1.0,
    ) -> None:
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        self.nodes: dict[int, MutexNode] = dict(nodes)
        self.message_delay = message_delay
        self.jitter = jitter
        self.max_delay = message_delay + jitter + 0.05
        self.rng = random.Random(seed)
        if faults is not None:
            faults.validate_nodes(len(self.nodes))
        self.faults = faults
        self.drain_grace = drain_grace
        self.start_time = time.monotonic()
        self.loop: asyncio.AbstractEventLoop | None = None
        self.messages_sent = 0
        self.messages_lost = 0
        self.messages_duplicated = 0
        self.messages_blocked = 0
        #: Duplicate copies discarded at delivery (see ``_post``): like the
        #: service transport, the cluster's message layer dedups injected
        #: duplicates — a duplicated token accepted by an asking node would
        #: break mutual exclusion through no fault of the algorithm, whose
        #: model assumes channels that do not duplicate.
        self.duplicates_dropped = 0
        #: Grants that arrived after their acquire timed out (auto-released).
        self.abandoned_grants = 0
        #: ReproErrors raised by node callbacks inside the pumps (recorded,
        #: not fatal — chaos runs legitimately provoke protocol anomalies).
        self.node_errors: list[str] = []
        self.failed: set[int] = set()
        self._inboxes: dict[int, asyncio.Queue] = {}
        self._dup_tag = 0
        self._seen_dup_tags: dict[int, set[int]] = {}
        self._environments: dict[int, AsyncioEnvironment] = {}
        self._pumps: list[asyncio.Task] = []
        self._grant_futures: dict[int, asyncio.Future | None] = {}
        self._abandoned: dict[int, int] = {}
        self._inflight = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the nodes and start the message pumps."""
        if self._started:
            raise SimulationError("cluster already started")
        self.loop = asyncio.get_running_loop()
        self.start_time = time.monotonic()
        for node_id, node in self.nodes.items():
            env = AsyncioEnvironment(self, node_id)
            self._environments[node_id] = env
            self._inboxes[node_id] = asyncio.Queue()
            self._seen_dup_tags[node_id] = set()
            self._grant_futures[node_id] = None
            self._abandoned[node_id] = 0
            node.bind(env)
            node.set_granted_callback(self._on_granted)
            self._pumps.append(asyncio.create_task(self._pump(node_id)))
        self._started = True

    async def stop(self) -> None:
        """Drain in-flight work (bounded), then stop pumps and timers.

        The drain phase waits up to ``drain_grace`` seconds for every inbox
        to empty and every in-progress delivery to finish — messages already
        accepted are processed, not dropped.  Afterwards the pumps are
        cancelled, all timers cancelled, and any acquire still waiting gets
        an :class:`AcquireTimeout`.  Idempotent.
        """
        if not self._started and not self._pumps:
            return
        deadline = time.monotonic() + self.drain_grace
        while time.monotonic() < deadline:
            busy = self._inflight > 0 or any(
                not inbox.empty() for inbox in self._inboxes.values()
            )
            if not busy:
                break
            await asyncio.sleep(0.005)
        for task in self._pumps:
            task.cancel()
        for task in self._pumps:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for env in self._environments.values():
            env.cancel_all()
        for node_id, future in self._grant_futures.items():
            if future is not None and not future.done():
                future.set_exception(
                    AcquireTimeout(node_id, 0.0, detail="cluster stopped")
                )
            self._grant_futures[node_id] = None
        self._pumps.clear()
        self._started = False

    async def __aenter__(self) -> "AsyncioCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Messaging internals
    # ------------------------------------------------------------------
    def _post(self, sender: int, dest: int, message: Message) -> None:
        if dest not in self._inboxes:
            raise SimulationError(f"message to unknown node {dest}")
        copies = 1
        faults = self.faults
        if faults is not None:
            fault = faults.decide(sender, dest, time.monotonic() - self.start_time)
            if fault == DUPLICATE:
                self.messages_duplicated += 1
                copies = 2
            elif fault == PARTITION:
                self.messages_blocked += 1
                return
            elif fault is not None:
                self.messages_lost += 1
                return
        self.messages_sent += 1
        # Duplicated copies carry a shared delivery tag so the receiving pump
        # can discard the extra copy — jittered delays may reorder distinct
        # messages, so only dup copies are tagged (full sequence numbers
        # would mis-drop reordered legitimate messages here).
        tag = None
        if copies == 2:
            self._dup_tag += 1
            tag = self._dup_tag
        assert self.loop is not None
        for _ in range(copies):
            delay = self.message_delay + self.rng.uniform(0.0, self.jitter)
            self.loop.call_later(
                delay, self._deliver, dest, ("message", sender, message, tag)
            )

    def _deliver(self, dest: int, item: tuple) -> None:
        inbox = self._inboxes.get(dest)
        if inbox is not None:
            inbox.put_nowait(item)

    def _post_timer(self, node_id: int, name: str, payload: Any) -> None:
        self._inboxes[node_id].put_nowait(("timer", name, payload, None))

    async def _pump(self, node_id: int) -> None:
        inbox = self._inboxes[node_id]
        node = self.nodes[node_id]
        seen_tags = self._seen_dup_tags[node_id]
        while True:
            kind, first, second, tag = await inbox.get()
            if tag is not None:
                if tag in seen_tags:
                    seen_tags.discard(tag)  # both copies seen: forget the tag
                    self.duplicates_dropped += 1
                    continue
                seen_tags.add(tag)
            if node_id in self.failed:
                continue  # fail-stop: a crashed node neither receives nor acts
            self._inflight += 1
            try:
                if kind == "message":
                    node.on_message(first, second)
                else:
                    node.on_timer(first, second)
            except ReproError as exc:
                self.node_errors.append(f"node {node_id} {kind}: {exc}")
            finally:
                self._inflight -= 1

    def _on_granted(self, node_id: int) -> None:
        future = self._grant_futures.get(node_id)
        if future is not None and not future.done():
            future.set_result(None)
            return
        # No live awaiter: the acquire timed out (or its future was cancelled
        # a moment ago and the timeout handler has not bookkept yet — the
        # pre-decrement here may take the counter to -1; the handler's
        # increment nets it back to zero).  Hand the CS straight back so the
        # token keeps moving.
        self._abandoned[node_id] = self._abandoned.get(node_id, 0) - 1
        self.abandoned_grants += 1
        assert self.loop is not None
        self.loop.call_soon(self._release_abandoned, node_id)

    def _release_abandoned(self, node_id: int) -> None:
        if node_id in self.failed:
            return
        node = self.nodes[node_id]
        if node.in_critical_section:
            try:
                node.release()
            except ReproError as exc:
                self.node_errors.append(f"node {node_id} abandoned-release: {exc}")

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Fail-stop ``node_id`` on the live loop (volatile state lost)."""
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")
        if node_id in self.failed:
            return
        self.failed.add(node_id)
        self._environments[node_id].cancel_all()
        future = self._grant_futures.get(node_id)
        if future is not None and not future.done():
            future.set_exception(NodeCrashed(node_id))
        self._grant_futures[node_id] = None
        self._abandoned[node_id] = 0
        try:
            self.nodes[node_id].on_crash()
        except ReproError as exc:
            self.node_errors.append(f"node {node_id} on_crash: {exc}")

    def recover_node(self, node_id: int) -> None:
        """Restart a crashed node (only stable storage survives)."""
        if node_id not in self.failed:
            return
        self.failed.discard(node_id)
        try:
            self.nodes[node_id].on_recover()
        except ReproError as exc:
            self.node_errors.append(f"node {node_id} on_recover: {exc}")

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    async def acquire(self, node_id: int, timeout: float | None = 30.0) -> None:
        """Acquire the critical section on behalf of ``node_id``.

        Raises :class:`AcquireInProgress` when this node already has an
        acquire waiting, :class:`AcquireTimeout` at the deadline (the
        eventual grant is auto-released, never leaked) and
        :class:`NodeCrashed` if the node fail-stops while waiting.
        """
        if not self._started:
            raise SimulationError("cluster not started; use `async with` or await start()")
        if node_id in self.failed:
            raise NodeCrashed(node_id)
        if self._grant_futures.get(node_id) is not None:
            raise AcquireInProgress(node_id)
        assert self.loop is not None
        future: asyncio.Future = self.loop.create_future()
        self._grant_futures[node_id] = future
        # Run the (synchronous, non-blocking) acquire inside the loop thread.
        self.nodes[node_id].acquire()
        if self.nodes[node_id].in_critical_section and not future.done():
            self._grant_futures[node_id] = None
            return
        try:
            await asyncio.wait_for(future, timeout=timeout)
        except asyncio.TimeoutError:
            # The grant may have landed between the future's cancellation and
            # this handler.  _on_granted consumed the future either way; the
            # pre-decrement in that race nets the abandoned counter to zero.
            if future.cancelled() or not future.done():
                self._abandoned[node_id] += 1
            else:
                # Grant actually won the race: the CS is ours but the caller
                # is giving up — release immediately instead of leaking it.
                self.abandoned_grants += 1
                self._release_abandoned(node_id)
            raise AcquireTimeout(node_id, timeout or 0.0) from None
        finally:
            if self._grant_futures.get(node_id) is future:
                self._grant_futures[node_id] = None

    def release(self, node_id: int) -> None:
        """Release the critical section held by ``node_id``."""
        if node_id in self.failed:
            raise NodeCrashed(node_id)
        self.nodes[node_id].release()

    def locked(self, node_id: int, timeout: float | None = 30.0) -> "_LockContext":
        """Async context manager: ``async with cluster.locked(3): ...``."""
        return _LockContext(self, node_id, timeout)

    def snapshot(self) -> dict[int, dict[str, Any]]:
        """State snapshot of every node (for debugging / examples)."""
        return {node_id: node.snapshot() for node_id, node in self.nodes.items()}


class _LockContext:
    """Async context manager returned by :meth:`AsyncioCluster.locked`."""

    def __init__(self, cluster: AsyncioCluster, node_id: int, timeout: float | None) -> None:
        self._cluster = cluster
        self._node_id = node_id
        self._timeout = timeout

    async def __aenter__(self) -> int:
        await self._cluster.acquire(self._node_id, timeout=self._timeout)
        return self._node_id

    async def __aexit__(self, *exc_info) -> None:
        self._cluster.release(self._node_id)

"""A small deterministic discrete-event simulation engine.

The engine is intentionally minimal: an agenda (binary heap) of entries
processed in ``(time, insertion order)`` order.  All randomness flows through
a single seeded :class:`random.Random` instance owned by the simulator, so
every run is exactly reproducible from its seed.

Fast-path design
----------------

The agenda is the hottest structure of the whole simulator, so it avoids
per-event Python niceties:

* heap entries are plain lists ``[time, sequence, tag, payload, cancelled,
  owner]`` (see :mod:`repro.simulation.events`); sequences are unique, so
  heap comparisons resolve at C speed on the first two elements and never
  touch the payload,
* dispatch goes through a four-slot jump table indexed by the entry's int
  ``tag`` (computed once at schedule time) instead of ``isinstance`` chains
  — deliveries, timers, actions and critical-section request arrivals,
* :attr:`Simulator.pending_events` is a live counter maintained on schedule,
  cancel and pop — not an O(n) scan of the heap,
* :meth:`Simulator.run` inlines the pop/dispatch loop so the common case
  (thousands of deliveries) costs one heap pop, one counter update and one
  jump-table call per event,
* timers have the same kind of fast path as deliveries:
  :meth:`Simulator.schedule_timer` pushes an already-built
  :class:`~repro.simulation.events.TimerExpiry` with no payload-type lookup,
  and the returned agenda entry *is* the timer handle — cancelling it is
  :meth:`Simulator.cancel`, with no id counter and no id -> entry table in
  between (the fault-tolerant nodes arm and cancel a suspicion timer on
  almost every request, and in a healthy run every one is cancelled).

Agenda compaction
-----------------

A cancelled entry stays in the heap until its due time, and a suspicion
timer's due time is far in the future, so without care the heap of a
fault-tolerant run is mostly dead timers (two orders of magnitude more than
live entries at n = 4096) and every push and pop pays for their depth.
:meth:`Simulator.cancel` therefore counts the dead entries and, once they
exceed both :data:`COMPACT_FLOOR` and half the heap, drops them all and
re-heapifies — *in place*, because :meth:`Simulator.run` holds a local alias
of the list.  The invariant: after every :meth:`cancel`, and whenever the
simulator is idle (between :meth:`run` / :meth:`step` calls),
``len(heap) <= 2 * live + COMPACT_FLOOR``.  The cost is amortised O(1) per
cancel (a compaction of ``k`` entries removes more than ``k / 2`` of them),
and the per-event path of a run that never cancels is untouched: the dead
count is only written by :meth:`cancel` and on the branch that pops an
already-cancelled entry, and the run loops look at it once, on exit.

Determinism is unchanged by all of this: entries are still ordered by
``(time, sequence)`` exactly as before — a total order, sequences being
unique, so the pop order of a heap depends only on the *set* of live entries
and never on its internal layout — and a given seed produces a
byte-identical event order (pinned by ``tests/simulation/test_determinism``
and by the reference-model property test in
``tests/simulation/test_agenda_compaction``).

The engine knows nothing about mutual exclusion; the
:class:`~repro.simulation.cluster.SimulatedCluster` layers the network,
failure and metrics semantics on top by registering delivery and timer
handlers.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.simulation.events import (
    TAG_ACTION,
    TAG_DELIVERY,
    TAG_REQUEST,
    TAG_TIMER,
    MessageDelivery,
    ScheduledAction,
    TimerExpiry,
)

__all__ = ["Simulator", "COMPACT_FLOOR"]

#: Agenda entry layout: [time, sequence, tag, payload, cancelled, owner].
AgendaEntry = list

#: Dead (cancelled, not yet popped) entries the agenda tolerates before it
#: considers compacting; below it a sweep would cost more than the heap
#: depth it saves.  See "Agenda compaction" in the module docstring.
COMPACT_FLOOR = 64

_TAG_OF = {MessageDelivery: TAG_DELIVERY, TimerExpiry: TAG_TIMER, ScheduledAction: TAG_ACTION}


def _run_action(payload: ScheduledAction) -> None:
    payload.action()


def _no_delivery_handler(payload: Any) -> None:
    raise SimulationError("no delivery handler registered")


def _no_timer_handler(payload: Any) -> None:
    raise SimulationError("no timer handler registered")


def _no_request_handler(payload: Any) -> None:
    raise SimulationError("no request handler registered")


class Simulator:
    """Deterministic discrete-event loop.

    Args:
        seed: seed of the simulator-owned random number generator.
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: list[AgendaEntry] = []
        self._time: float = 0.0
        self._sequence: int = 0
        self._processed: int = 0
        self._pending: int = 0
        self._dead: int = 0
        self._peak_pending: int = 0
        self._run_horizon: float = float("inf")
        self.rng = random.Random(seed)
        # Jump table indexed by the entry tag — the single source of truth
        # for dispatch; mutated in place so loops that hold a local
        # reference always see the current handlers.
        self._jump: list[Callable[[Any], None]] = [
            _no_delivery_handler,
            _no_timer_handler,
            _run_action,
            _no_request_handler,
        ]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_delivery_handler(
        self, handler: Callable[[tuple[int, int, Any, float]], None]
    ) -> None:
        """Register the callable invoked for each message delivery event.

        The handler receives the delivery as a plain tuple
        ``(sender, dest, message, sent_at)``.
        """
        self._jump[TAG_DELIVERY] = handler

    def set_timer_handler(self, handler: Callable[[TimerExpiry], None]) -> None:
        """Register the callable invoked for each timer expiry event."""
        self._jump[TAG_TIMER] = handler

    def set_request_handler(
        self, handler: Callable[[tuple[int, int, Any, Any]], None]
    ) -> None:
        """Register the callable invoked for each request-arrival event.

        The handler receives the arrival as a plain tuple
        ``(node, request_id, hold, feeder)`` — ``feeder`` is an arrival
        iterator to pull the next streamed arrival from, or ``None`` for
        one-shot requests (see :meth:`schedule_request`).
        """
        self._jump[TAG_REQUEST] = handler

    # ------------------------------------------------------------------
    # Clock and agenda
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._time

    @property
    def pending_events(self) -> int:
        """Number of not-yet-processed (and not cancelled) agenda entries.

        Maintained as a live counter (no heap scan).  Contract: the value is
        exact between :meth:`run` calls and after every :meth:`step`, but a
        handler executing *inside* :meth:`run` observes the value as of run()
        entry (plus any events it scheduled or cancelled itself) — the run
        loop batches its decrements for speed.
        """
        return self._pending

    @property
    def peak_pending(self) -> int:
        """High-water mark of the agenda (heap) size over the run so far.

        Sampled after every push — pops only shrink the heap, so push-time
        sampling is exact.  Unlike :attr:`pending_events` it counts
        cancelled-but-not-yet-popped entries too, which is the honest
        memory figure (compaction bounds those by ``live + COMPACT_FLOOR``).
        With eager workload scheduling this is O(requests);
        with the bounded-window feeder it stays O(active + window) — the
        number the scale benchmark reports as ``agenda_peak``.
        """
        return self._peak_pending

    @property
    def processed_events(self) -> int:
        """Number of events processed since the simulator was created.

        Same freshness contract as :attr:`pending_events`: exact between
        :meth:`run` calls and after every :meth:`step`; stale for handlers
        reading it from inside a :meth:`run` loop.
        """
        return self._processed

    def schedule_at(
        self, time: float, payload: MessageDelivery | TimerExpiry | ScheduledAction
    ) -> AgendaEntry:
        """Schedule ``payload`` at absolute simulated time ``time``.

        Returns the agenda entry, an opaque handle usable with :meth:`cancel`.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        tag = _TAG_OF.get(type(payload))
        if tag is None:
            # Subclasses of the payload types still dispatch correctly; truly
            # unknown payloads fail fast here rather than at dispatch time.
            if isinstance(payload, MessageDelivery):
                tag = TAG_DELIVERY
            elif isinstance(payload, TimerExpiry):
                tag = TAG_TIMER
            elif isinstance(payload, ScheduledAction):
                tag = TAG_ACTION
            else:
                raise SimulationError(f"unknown event payload {payload!r}")
        if tag == TAG_DELIVERY:
            # Deliveries are stored (and handed to the delivery handler) as
            # plain tuples; see schedule_delivery.
            payload = (payload.sender, payload.dest, payload.message, payload.sent_at)
        self._sequence += 1
        entry: AgendaEntry = [time, self._sequence, tag, payload, False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule_delivery(
        self, time: float, sender: int, dest: int, message: Any, sent_at: float
    ) -> AgendaEntry:
        """Fast-path scheduling of one message delivery.

        This is called once per simulated message, so it cuts every corner
        :meth:`schedule_at` keeps for generality: no payload tag lookup and
        no :class:`MessageDelivery` wrapper — the delivery handler receives
        the plain tuple ``(sender, dest, message, sent_at)``.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        seq = self._sequence + 1
        self._sequence = seq
        entry: AgendaEntry = [time, seq, TAG_DELIVERY, (sender, dest, message, sent_at), False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule_timer(self, delay: float, expiry: TimerExpiry) -> AgendaEntry:
        """Fast-path scheduling of one timer, ``delay`` from now.

        The :data:`TAG_TIMER` twin of :meth:`schedule_delivery`: the caller
        already knows it holds a :class:`TimerExpiry`, so the payload-type
        lookup of :meth:`schedule_at` is skipped.  The returned entry is the
        timer's handle — pass it to :meth:`cancel` to disarm it.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        seq = self._sequence + 1
        self._sequence = seq
        entry: AgendaEntry = [self._time + delay, seq, TAG_TIMER, expiry, False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule_request(
        self, time: float, payload: tuple[int, int, Any, Any]
    ) -> AgendaEntry:
        """Fast-path scheduling of one critical-section request arrival.

        ``payload`` is the plain tuple ``(node, request_id, hold, feeder)``
        handed verbatim to the request handler — no per-request closure, no
        wrapper object.  ``feeder`` is an arrival iterator the handler pulls
        the next streamed arrival from (bounded-window workload feeding), or
        ``None`` for one-shot requests.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        seq = self._sequence + 1
        self._sequence = seq
        entry: AgendaEntry = [time, seq, TAG_REQUEST, payload, False, self]
        heap = self._heap
        heapq.heappush(heap, entry)
        self._pending += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        return entry

    def schedule(
        self, delay: float, payload: MessageDelivery | TimerExpiry | ScheduledAction
    ) -> AgendaEntry:
        """Schedule ``payload`` after a relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._time + delay, payload)

    def call_at(self, time: float, action: Callable[[], None], label: str = "action") -> AgendaEntry:
        """Schedule an arbitrary callable at absolute time ``time``."""
        return self.schedule_at(time, ScheduledAction(label=label, action=action))

    def call_after(self, delay: float, action: Callable[[], None], label: str = "action") -> AgendaEntry:
        """Schedule an arbitrary callable after ``delay`` time units."""
        return self.schedule(delay, ScheduledAction(label=label, action=action))

    @staticmethod
    def cancel(event: AgendaEntry) -> None:
        """Mark a scheduled event as cancelled (it will be skipped).

        Safe to call more than once and after the event has been processed.
        The entry stays in the heap until it is popped or swept by a
        compaction (see "Agenda compaction" in the module docstring).
        """
        if not event[4]:
            event[4] = True
            owner = event[5]
            if owner is not None:
                # Live entries are exactly the ones still in the heap, so
                # this one just became a dead heap entry.
                owner._pending -= 1
                event[5] = None
                owner._dead += 1
                owner._compact_if_mostly_dead()

    def _compact_if_mostly_dead(self) -> None:
        """Sweep the cancelled entries out once they dominate the heap.

        Called after every :meth:`cancel`, and by :meth:`step` and
        :meth:`run` on their way out: pops of live entries shrink the live
        side of the invariant without looking at it.
        """
        heap = self._heap
        if self._dead > COMPACT_FLOOR and self._dead * 2 > len(heap):
            # In place: a run() in progress holds a local alias of the list.
            heap[:] = [entry for entry in heap if not entry[4]]
            heapq.heapify(heap)
            self._dead = 0

    def cancel_timers(self, node: int) -> int:
        """Cancel every pending timer owned by ``node``; return how many.

        One O(pending) agenda scan — meant for rare events (a node crash),
        which is what lets timers live without a per-node handle table.
        """
        doomed = [
            entry
            for entry in self._heap
            if entry[2] == TAG_TIMER and not entry[4] and entry[3].node == node
        ]
        # Collected first: a cancel may compact the heap being scanned.
        for entry in doomed:
            self.cancel(entry)
        return len(doomed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; return ``False`` when the agenda is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[4]:
                self._dead -= 1
                continue
            entry[5] = None
            self._pending -= 1
            self._time = entry[0]
            self._processed += 1
            self._jump[entry[2]](entry[3])
            self._compact_if_mostly_dead()
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        *,
        exclusive: bool = False,
    ) -> None:
        """Run until the agenda is empty, ``until`` is reached, or a budget hit.

        Args:
            until: stop before processing any event scheduled after this time
                (the clock is left at the last processed event).
            max_events: safety valve against runaway protocols; at most
                ``max_events`` events are processed, and attempting to process
                one more raises :class:`SimulationError` so bugs surface as
                failures rather than hangs.
            exclusive: treat ``until`` as a strict (open) horizon — events
                scheduled exactly *at* ``until`` stay on the agenda.  The
                sharded engine runs each synchronisation window this way: a
                cross-shard message can arrive exactly at the horizon, and a
                same-instant local event must not be processed before it.
                Ignored when ``until`` is ``None``.
        """
        heap = self._heap
        jump = self._jump
        pop = heapq.heappop
        budget = -1 if max_events is None else max_events
        processed = 0
        # `_processed`/`_pending` are batched: they are only read through the
        # reporting properties, never by event handlers mid-run, so updating
        # them once per run() (exception-safely) instead of once per event
        # keeps the loop tight.  `_time` must stay live: handlers read `now`.
        # `_dead` is live too (cancel() reads it to decide on a compaction),
        # but only the cancelled-pop branches write it.  A compaction
        # triggered from inside a handler rewrites `heap` in place, between
        # two iterations: no loop holds a heap index across a dispatch.
        try:
            if until is not None and exclusive:
                # Strict-horizon window (sharded engine); a separate loop so
                # the historical inclusive path below stays byte-identical.
                # The horizon is re-read from `_run_horizon` every event so a
                # handler can tighten it mid-run (the seam window's boomerang
                # cut: after a cross-shard send the window must close before
                # the earliest possible reply).  Only this path pays the
                # attribute read; the serial loops below keep the local.
                self._run_horizon = until
                while heap:
                    entry = heap[0]
                    if entry[4]:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if entry[0] >= self._run_horizon:
                        break
                    if processed == budget:
                        raise SimulationError(
                            f"exceeded the event budget of {max_events} events; "
                            "the protocol is probably not quiescing"
                        )
                    pop(heap)
                    entry[5] = None
                    self._time = entry[0]
                    processed += 1
                    jump[entry[2]](entry[3])
                return
            if until is None:
                # Fast path (run_until_quiescent): pop unconditionally, no
                # peek needed because nothing can stop us except the budget.
                while heap:
                    entry = pop(heap)
                    if entry[4]:
                        self._dead -= 1
                        continue
                    if processed == budget:
                        heapq.heappush(heap, entry)
                        raise SimulationError(
                            f"exceeded the event budget of {max_events} events; "
                            "the protocol is probably not quiescing"
                        )
                    entry[5] = None
                    self._time = entry[0]
                    processed += 1
                    jump[entry[2]](entry[3])
                return
            while heap:
                entry = heap[0]
                if entry[4]:
                    pop(heap)
                    self._dead -= 1
                    continue
                if entry[0] > until:
                    break
                if processed == budget:
                    raise SimulationError(
                        f"exceeded the event budget of {max_events} events; "
                        "the protocol is probably not quiescing"
                    )
                pop(heap)
                entry[5] = None
                self._time = entry[0]
                processed += 1
                jump[entry[2]](entry[3])
        finally:
            self._processed += processed
            self._pending -= processed
            self._compact_if_mostly_dead()

    def tighten_run_horizon(self, time: float) -> None:
        """Close the current strict-horizon :meth:`run` window at ``time``.

        Only meaningful from inside an event handler while an
        ``exclusive=True`` run is in progress: events scheduled at or after
        ``time`` are left on the agenda and the run returns once the next
        event would reach them.  Never widens the window.  The sharded
        engine's seam window uses this as its boomerang cut — after a
        cross-shard send at ``t`` the window must end before ``t + 2 *
        lookahead``, the earliest instant a reply could arrive.
        """
        if time < self._run_horizon:
            self._run_horizon = time

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without processing events.

        Only valid when no pending event is scheduled before ``time``.
        """
        next_entry = self._peek()
        if next_entry is not None and next_entry[0] < time:
            raise SimulationError(
                "cannot advance the clock past pending events; call run() instead"
            )
        if time < self._time:
            raise SimulationError("cannot move the clock backwards")
        self._time = time

    def _peek(self) -> AgendaEntry | None:
        heap = self._heap
        while heap and heap[0][4]:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0] if heap else None

    def earliest_event_at(self, nodes) -> tuple[float | None, float | None]:
        """Scan the agenda for the sharded engine's seam probe.

        Returns ``(earliest, feeder_guard)``:

        * ``earliest`` — the time of the earliest pending event that could
          run *at* a node in ``nodes``: a delivery whose destination is in
          the set, a workload request entry whose node is in the set, a
          timer whose owner (:attr:`TimerExpiry.node <repro.simulation.events.TimerExpiry>`)
          is in the set, or a scheduled action whose owner is in the set.
          An action's owner is recovered from its ``<kind>-<node_id>``
          label (the convention of every cluster-scheduled action:
          ``release-7``, ``fail-7``, ``recover-7``); an action whose label
          does not end in an integer has no known owner and counts
          unconditionally — conservative, never unsound.
        * ``feeder_guard`` — the *latest* pending workload request entry
          that still carries a live feeder.  A streamed workload schedules
          arrivals lazily; with the documented non-decreasing-``at`` stream
          order (:mod:`repro.workload.arrivals`), every arrival not yet on
          the agenda fires at or after this time, whichever node it names.
          ``None`` when no feeder-carrying entry is pending (eager feeds,
          exhausted streams).

        One O(pending) pass; cancelled entries are skipped.  Membership
        tests hit ``nodes`` once per delivery/request entry, so pass a
        ``set``/``frozenset``.
        """
        earliest: float | None = None
        guard: float | None = None
        for entry in self._heap:
            if entry[4]:
                continue
            tag = entry[2]
            time = entry[0]
            if tag == TAG_DELIVERY:
                if entry[3][1] not in nodes:
                    continue
            elif tag == TAG_REQUEST:
                payload = entry[3]
                if payload[3] is not None and (guard is None or time > guard):
                    guard = time
                if payload[0] not in nodes:
                    continue
            elif tag == TAG_TIMER:
                if entry[3].node not in nodes:
                    continue
            elif tag == TAG_ACTION:
                _, _, tail = entry[3].label.rpartition("-")
                if tail.isdigit() and int(tail) not in nodes:
                    continue
            if earliest is None or time < earliest:
                earliest = time
        return earliest, guard

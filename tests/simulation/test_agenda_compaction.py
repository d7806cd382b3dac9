"""Agenda compaction must be invisible.

``Simulator.cancel`` leaves the cancelled entry in the heap; once dead
entries outnumber live ones (past ``COMPACT_FLOOR``) the heap is filtered and
re-heapified in place.  Nothing observable may depend on when that happens:
the property test drives random schedule / cancel / run / step interleavings
against a sorted-list reference model and compares pop order, payloads, the
clock and the live counter after every operation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.events import TAG_TIMER, TimerExpiry
from repro.simulation.simulator import COMPACT_FLOOR, Simulator

KINDS = ("delivery", "timer", "action", "request")


class Harness:
    """A simulator and its reference model, driven in lockstep.

    Every scheduled event gets a ``pid`` in schedule order, so the model's
    ``(time, pid)`` order is the simulator's ``(time, sequence)`` order.  The
    model keeps the live events in a dict and pops the minimum — no heap, no
    cancelled flags, nothing to compact.  The two sides number the events
    they schedule from inside handlers independently; the numbers agree as
    long as the pop orders do, which is what the test is about.
    """

    def __init__(self) -> None:
        self.sim = Simulator(seed=0)
        self.sim_log: list[tuple[str, int]] = []
        self.sim.set_delivery_handler(self._on_delivery)
        self.sim.set_timer_handler(lambda expiry: self.sim_log.append(("timer", expiry.payload)))
        self.sim.set_request_handler(lambda payload: self.sim_log.append(("request", payload[1])))
        self.handles: list = []  # pid -> agenda entry
        # The model.
        self.live: dict[int, tuple[float, str]] = {}  # pid -> (time, kind)
        self.model_log: list[tuple[str, int]] = []
        self.model_next = 0
        self.now = 0.0
        # Decided when the operation is applied, read by both sides.
        self.bombs: dict[int, range] = {}  # pid of an action -> pids it cancels when it fires
        self.respawns: set[int] = set()  # pids of deliveries that schedule one more delivery

    # -- the simulator side --------------------------------------------
    def _sim_push(self, kind: str, offset: float) -> int:
        sim = self.sim
        pid = len(self.handles)
        self.handles.append(None)
        time = sim.now + offset
        if kind == "delivery":
            entry = sim.schedule_delivery(time, 0, 1, pid, sim.now)
        elif kind == "timer":
            entry = sim.schedule_timer(
                offset, TimerExpiry(node=pid % 5, timer_id=pid, name="t", payload=pid)
            )
        elif kind == "action":
            entry = sim.call_at(time, lambda: self._explode(pid), label=f"bomb-{pid}")
        else:
            entry = sim.schedule_request(time, (1, pid, None, None))
        self.handles[pid] = entry
        return pid

    def _on_delivery(self, delivery) -> None:
        pid = delivery[2]
        self.sim_log.append(("delivery", pid))
        if pid in self.respawns:
            self._sim_push("delivery", 1.0)

    def _explode(self, pid: int) -> None:
        self.sim_log.append(("action", pid))
        for target in self.bombs.get(pid, ()):
            Simulator.cancel(self.handles[target])

    # -- the model side ------------------------------------------------
    def _model_push(self, kind: str, offset: float) -> int:
        pid = self.model_next
        self.model_next += 1
        self.live[pid] = (self.now + offset, kind)
        return pid

    def _model_pop(self) -> None:
        pid = min(self.live, key=lambda p: (self.live[p][0], p))
        self.now, kind = self.live.pop(pid)
        self.model_log.append((kind, pid))
        for target in self.bombs.get(pid, ()):
            self.live.pop(target, None)
        if pid in self.respawns:
            self._model_push("delivery", 1.0)

    # -- operations ----------------------------------------------------
    def _push(self, kind: str, offset: float) -> int:
        pid = self._sim_push(kind, offset)
        assert self._model_push(kind, offset) == pid
        return pid

    def schedule(self, kind: str, offset: float, count: int, respawn: bool) -> None:
        for _ in range(count):
            pid = self._push(kind, offset)
            if respawn and kind == "delivery":
                self.respawns.add(pid)

    def bomb(self, offset: float, start: int, count: int) -> None:
        pid = self._push("action", offset)
        self.bombs[pid] = range(start, min(start + count, pid))

    def cancel(self, start: int, count: int) -> None:
        for pid in range(start, min(start + count, len(self.handles))):
            Simulator.cancel(self.handles[pid])  # fired / already cancelled: a no-op
            self.live.pop(pid, None)

    def crash(self, node: int) -> None:
        doomed = [pid for pid, (_, kind) in self.live.items()
                  if kind == "timer" and pid % 5 == node]
        assert self.sim.cancel_timers(node) == len(doomed)
        for pid in doomed:
            del self.live[pid]

    def run(self, mode: str, offset: float) -> None:
        until = None if mode == "quiescent" else self.now + offset
        self.sim.run(until=until, max_events=None, exclusive=mode == "exclusive")
        while self.live:
            time = min(time for time, _ in self.live.values())
            if until is not None and (time >= until if mode == "exclusive" else time > until):
                break
            self._model_pop()

    def step(self) -> None:
        assert self.sim.step() is bool(self.live)
        if self.live:
            self._model_pop()

    def check(self) -> None:
        sim = self.sim
        assert self.sim_log == self.model_log
        assert len(self.handles) == self.model_next
        assert sim.pending_events == len(self.live)
        assert sim.now == self.now
        heap = sim._heap
        assert sim._dead == sum(1 for entry in heap if entry[4])
        assert len(heap) - sim._dead == len(self.live)
        assert len(heap) <= 2 * len(self.live) + COMPACT_FLOOR


OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 1000.0])  # ties on purpose
# Sized so that most examples cross COMPACT_FLOOR dead entries at least once,
# from a plain cancel and from a bomb going off inside a run.
OPERATIONS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(KINDS), OFFSETS,
              st.integers(1, 200), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 400), st.integers(50, 500)),
    st.tuples(st.just("bomb"), OFFSETS, st.integers(0, 400), st.integers(50, 500)),
    st.tuples(st.just("crash"), st.integers(0, 4)),
    st.tuples(st.just("run"), st.sampled_from(["inclusive", "exclusive", "quiescent"]), OFFSETS),
    st.tuples(st.just("step")),
)


@given(operations=st.lists(OPERATIONS, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_random_interleavings_match_the_sorted_list_model(operations):
    harness = Harness()
    for name, *args in operations:
        getattr(harness, name)(*args)
        harness.check()
    harness.run("quiescent", 0.0)
    harness.check()
    assert harness.sim.pending_events == 0
    assert harness.sim._heap == []


class TestCompaction:
    def test_dead_timers_leave_the_heap(self):
        sim = Simulator()
        fired = []
        sim.set_timer_handler(lambda expiry: fired.append(expiry.payload))
        entries = [
            sim.schedule_timer(1000.0 + i, TimerExpiry(node=1, timer_id=i, name="t", payload=i))
            for i in range(1000)
        ]
        assert sim.peak_pending == 1000
        for entry in entries[10:]:
            Simulator.cancel(entry)
        assert sim.pending_events == 10
        assert len(sim._heap) <= 2 * 10 + COMPACT_FLOOR
        sim.run()
        assert fired == list(range(10))
        assert sim.peak_pending == 1000  # a high-water mark, compaction does not lower it

    def test_few_dead_entries_are_left_alone(self):
        sim = Simulator()
        entries = [sim.call_at(float(i), lambda: None) for i in range(COMPACT_FLOOR)]
        for entry in entries:
            Simulator.cancel(entry)
        # All dead, but not more than the floor: sweeping would cost more
        # than the depth it saves.
        assert len(sim._heap) == COMPACT_FLOOR
        assert sim.pending_events == 0
        sim.run()
        assert sim._heap == [] and sim._dead == 0

    def test_cancel_after_fire_and_double_cancel_do_not_count(self):
        sim = Simulator()
        fired = sim.call_at(1.0, lambda: None)
        pending = sim.call_at(5.0, lambda: None)
        sim.run(until=2.0)
        Simulator.cancel(fired)
        Simulator.cancel(fired)
        assert (sim.pending_events, sim._dead) == (1, 0)
        Simulator.cancel(pending)
        Simulator.cancel(pending)
        assert (sim.pending_events, sim._dead) == (0, 1)
        assert sim.step() is False
        assert sim._dead == 0

    def test_pops_alone_restore_the_invariant_when_the_run_returns(self):
        sim = Simulator()
        live = 4 * COMPACT_FLOOR
        for i in range(live):
            sim.call_at(float(i), lambda: None)
        doomed = [sim.call_at(1e6, lambda: None) for _ in range(live)]
        for entry in doomed:
            Simulator.cancel(entry)
        # As many dead as live: cancel() itself had no reason to compact ...
        assert len(sim._heap) == 2 * live
        sim.run(until=float(live))
        # ... but the run popped every live entry and swept on its way out.
        assert sim.pending_events == 0
        assert sim._heap == []

    @pytest.mark.parametrize("mode", ["inclusive", "exclusive", "quiescent"])
    def test_cancel_from_inside_a_handler_compacts_mid_run(self, mode):
        sim = Simulator()
        order = []
        sim.set_delivery_handler(lambda delivery: order.append(delivery[2]))
        doomed = [sim.schedule_delivery(50.0 + i, 0, 1, f"dead-{i}", 0.0) for i in range(500)]

        def cancel_everything():
            order.append("bomb")
            before = len(sim._heap)
            for entry in doomed:
                Simulator.cancel(entry)
            assert len(sim._heap) < before - 400  # compacted under the run loop's feet

        sim.call_at(1.0, cancel_everything)
        for i in range(20):
            sim.schedule_delivery(2.0 + i, 0, 1, i, 0.0)
        until = None if mode == "quiescent" else 1000.0
        sim.run(until=until, exclusive=mode == "exclusive")
        assert order == ["bomb", *range(20)]
        assert sim.pending_events == 0
        assert sim.processed_events == 21

    def test_a_run_that_never_cancels_never_compacts(self, monkeypatch):
        sim = Simulator()
        monkeypatch.setattr("heapq.heapify", lambda heap: pytest.fail("compacted"))
        sim.set_delivery_handler(lambda delivery: None)
        for i in range(1000):
            sim.schedule_delivery(float(i), 0, 1, None, 0.0)
        sim.run()
        assert sim._dead == 0


class TestTimerFastPath:
    def test_schedule_timer_is_relative_and_tagged(self):
        sim = Simulator()
        seen = []
        sim.set_timer_handler(seen.append)
        sim.call_at(3.0, lambda: None)
        sim.run()
        expiry = TimerExpiry(node=2, timer_id=0, name="lend", payload="p")
        entry = sim.schedule_timer(4.0, expiry)
        assert entry[0] == 7.0 and entry[2] == TAG_TIMER and entry[3] is expiry
        assert sim.earliest_event_at({2}) == (7.0, None)
        assert sim.earliest_event_at({3}) == (None, None)
        sim.run()
        assert seen == [expiry] and sim.now == 7.0

    def test_negative_delay_is_rejected(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="non-negative"):
            Simulator().schedule_timer(-0.1, TimerExpiry(node=1, timer_id=0, name="t"))

    def test_cancel_timers_only_touches_that_nodes_live_timers(self):
        sim = Simulator()
        seen = []
        sim.set_timer_handler(lambda expiry: seen.append((expiry.node, expiry.name)))
        sim.set_delivery_handler(lambda delivery: seen.append("delivery"))
        sim.schedule_timer(1.0, TimerExpiry(node=1, timer_id=0, name="a"))
        already = sim.schedule_timer(2.0, TimerExpiry(node=1, timer_id=0, name="b"))
        sim.schedule_timer(3.0, TimerExpiry(node=2, timer_id=0, name="c"))
        sim.schedule_delivery(4.0, 1, 1, None, 0.0)
        Simulator.cancel(already)
        assert sim.cancel_timers(1) == 1
        assert sim.pending_events == 2
        assert sim.cancel_timers(1) == 0
        sim.run()
        assert seen == [(2, "c"), "delivery"]

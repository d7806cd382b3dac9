"""Event payloads and agenda entries used by the discrete-event simulator.

The simulator's agenda is a binary heap of *agenda entries*.  An entry is a
plain mutable list ``[time, sequence, tag, payload, cancelled, owner]``:

* ``time`` / ``sequence`` give the deterministic ``(time, insertion order)``
  ordering; sequences are unique so heap comparisons never look past index 1,
  which keeps every comparison a C-level float/int compare,
* ``tag`` is a small int (:data:`TAG_DELIVERY`, :data:`TAG_TIMER`,
  :data:`TAG_ACTION`, :data:`TAG_REQUEST`) used by the simulator's
  jump-table dispatch instead of per-event ``isinstance`` checks,
* ``payload`` is one of the classes below — except the two hottest event
  types, which skip the wrapper entirely: message deliveries are stored
  (and handed to the delivery handler) as plain
  ``(sender, dest, message, sent_at)`` tuples, and critical-section request
  arrivals as plain ``(node, request_id, hold, feeder)`` tuples
  (:data:`TAG_REQUEST`; scheduled only through
  ``Simulator.schedule_request``, there is no payload class).
  :class:`MessageDelivery` remains the construction API for callers that
  schedule deliveries directly through ``schedule_at``,
* ``cancelled`` marks entries to skip, and ``owner`` points back at the
  simulator while the entry is live (so cancellation can maintain the live
  pending-event counter) and is cleared once processed.

An entry doubles as the handle of what it scheduled: ``Simulator.cancel``
takes it, and for timers it is what ``SimEnvironment.set_timer`` returns to
the node — an opaque value there, to be handed back and nothing else.  A
cancelled entry leaves the heap when it is popped or when the simulator
compacts the agenda, whichever comes first.

The payload classes use ``__slots__`` and hand-written initialisers: they are
allocated once per message/timer on the hot path, where dataclass-generated
``__init__`` (and especially ``frozen=True``'s ``object.__setattr__``) showed
up prominently in profiles.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = [
    "MessageDelivery",
    "TimerExpiry",
    "ScheduledAction",
    "TAG_DELIVERY",
    "TAG_TIMER",
    "TAG_ACTION",
    "TAG_REQUEST",
]

#: Jump-table indices for the simulator's dispatch (see Simulator._jump).
TAG_DELIVERY = 0
TAG_TIMER = 1
TAG_ACTION = 2
TAG_REQUEST = 3


class MessageDelivery:
    """A message arriving at ``dest`` that was sent by ``sender``."""

    __slots__ = ("sender", "dest", "message", "sent_at")

    def __init__(self, sender: int, dest: int, message: Any, sent_at: float) -> None:
        self.sender = sender
        self.dest = dest
        self.message = message
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MessageDelivery(sender={self.sender}, dest={self.dest}, "
            f"message={self.message!r}, sent_at={self.sent_at})"
        )


class TimerExpiry:
    """A timer set by ``node`` firing; carried name/payload are opaque.

    ``timer_id`` is for callers that number their own timers.  The
    simulated environment does not: the handle of a timer is its agenda
    entry (see ``Simulator.schedule_timer``), so ``SimEnvironment`` leaves
    the field 0 and finds a node's timers by ``node``.
    """

    __slots__ = ("node", "timer_id", "name", "payload")

    def __init__(self, node: int, timer_id: int, name: str, payload: Any = None) -> None:
        self.node = node
        self.timer_id = timer_id
        self.name = name
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TimerExpiry(node={self.node}, timer_id={self.timer_id}, "
            f"name={self.name!r}, payload={self.payload!r})"
        )


class ScheduledAction:
    """A plain callable to run at the scheduled time (workloads, failures)."""

    __slots__ = ("label", "action")

    def __init__(self, label: str, action: Callable[[], None]) -> None:
        self.label = label
        self.action = action

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ScheduledAction(label={self.label!r}, action={self.action!r})"

"""Online verification — the streaming counterpart of the record checkers.

The checkers themselves live in :mod:`repro.telemetry.online` (they are part
of the constant-memory telemetry subsystem); this module makes them
first-class citizens of the verification layer and provides the bridge that
*validates* them against the record-based checkers: :func:`replay_online`
feeds a full-mode :class:`~repro.simulation.metrics.MetricsCollector`'s
records through the online checkers in event-time order, so the two
implementations can be compared verdict-for-verdict on the same run
(``tests/telemetry/test_online_checkers.py`` pins the parity).

Tie-breaking at equal event times mirrors the record-based semantics: exits
replay before failures, failures before issues, issues before grants and
entries — so back-to-back intervals (exit and next enter at the same
instant) do not count as an overlap, matching the strict inequality in
:func:`repro.verification.safety.find_overlaps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

from repro.simulation.metrics import MetricsCollector
from repro.telemetry.fairness import FairnessTracker
from repro.telemetry.online import OnlineLivenessWatchdog, OnlineSafetyChecker

__all__ = ["OnlineVerdicts", "replay_online"]

_PRIO_EXIT = 0
_PRIO_FAILURE = 1
_PRIO_ISSUE = 2
_PRIO_GRANT = 3
_PRIO_ENTER = 4


@dataclass
class OnlineVerdicts:
    """The online checkers after a full replay (or live run).

    ``fairness`` is populated when the replay was asked to carry a
    :class:`~repro.telemetry.fairness.FairnessTracker` on the watchdog's
    event stream (``replay_online(..., fairness=True)``); it is the
    record-based side of the fairness parity tests.
    """

    safety: OnlineSafetyChecker
    liveness: OnlineLivenessWatchdog
    end_of_time: float
    fairness: FairnessTracker | None = None

    @property
    def safety_ok(self) -> bool:
        return self.safety.ok

    @property
    def liveness_ok(self) -> bool:
        return self.liveness.ok

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.liveness_ok


def replay_online(
    metrics: MetricsCollector,
    *,
    end_of_time: float,
    max_grant_gap: float | None = None,
    fairness: bool = False,
) -> OnlineVerdicts:
    """Drive a full-mode collector's records through the online checkers.

    Args:
        metrics: a ``detail="full"`` (or ``"counters"``) collector whose
            request records and CS intervals will be replayed.
        end_of_time: simulation end time (closes the liveness bookkeeping;
            still-open CS intervals need no closing — online safety checks
            at entries, not at interval ends).
        max_grant_gap: optional no-progress threshold forwarded to the
            watchdog (the record-based checker has no equivalent).
        fairness: attach a per-node
            :class:`~repro.telemetry.fairness.FairnessTracker` to the
            watchdog, so the records also yield Jain index / grant shares /
            per-node starvation gaps (returned on the verdicts).
    """
    safety = OnlineSafetyChecker()
    tracker = FairnessTracker() if fairness else None
    liveness = OnlineLivenessWatchdog(max_grant_gap=max_grant_gap, fairness=tracker)

    events: list[tuple[float, int, int, int]] = []
    requests = metrics.requests
    for request_id, node, issued_at, granted_at in zip(
        *map(requests.column, ("request_id", "node", "issued_at", "granted_at"))
    ):
        events.append((issued_at, _PRIO_ISSUE, request_id, node))
        if not isnan(granted_at):
            events.append((granted_at, _PRIO_GRANT, request_id, node))
    for node, entered_at, exited_at in metrics.cs_intervals.fields():
        events.append((entered_at, _PRIO_ENTER, 0, node))
        if not isnan(exited_at):
            events.append((exited_at, _PRIO_EXIT, 0, node))
    for time, node in metrics.failures:
        events.append((time, _PRIO_FAILURE, 0, node))
    # Stable sort on (time, priority) only: same-priority ties keep record
    # (issue) order, which is how the live hooks would have observed them.
    events.sort(key=lambda event: (event[0], event[1]))

    for time, priority, request_id, node in events:
        if priority == _PRIO_EXIT:
            safety.on_exit(node, time)
        elif priority == _PRIO_FAILURE:
            safety.on_failure(node, time)
            liveness.on_failure(node, time)
        elif priority == _PRIO_ISSUE:
            liveness.on_issue(request_id, node, time)
        elif priority == _PRIO_GRANT:
            liveness.on_grant(request_id, time)
        else:
            safety.on_enter(node, time)

    liveness.finalize(end_of_time)
    return OnlineVerdicts(
        safety=safety, liveness=liveness, end_of_time=end_of_time, fairness=tracker
    )

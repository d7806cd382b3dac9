"""Live SLO monitoring for the lock service.

The online checkers built for the simulator
(:class:`~repro.telemetry.online.OnlineSafetyChecker`,
:class:`~repro.telemetry.online.OnlineLivenessWatchdog`,
:class:`~repro.telemetry.fairness.FairnessTracker`) are sans-I/O event
consumers, so they run unchanged on *runtime* events: every
:class:`~repro.runtime.service.LockServer` sends its issue/grant/enter/exit/
cancel/crash/recover events to an :class:`SLOMonitor` — singly as ``event``
frames or several to an ``events`` frame — which feeds them to the checkers
and turns verdict changes into **alerts**: a mutual-exclusion violation or
a grant-gap breach shows up in the ``/metrics`` document within the
sender's batching delay (at most 1 ms) plus ``reorder_window`` of
happening, instead of in post-hoc trace analysis.

Ordering: events arrive over per-server TCP/UDS links, so cross-server
arrival order is not event order.  The monitor holds events in a small
timestamp-ordered buffer and only applies those older than
``reorder_window`` seconds behind the newest timestamp seen — enough to
absorb link jitter without making the alerts meaningfully late.  The
buffered tail is force-drained by :meth:`finalize` (and nothing else), so a
mid-run ``/metrics`` scrape never applies events out of order.

The monitor serves its status over the same listener that receives events:
frame connections carry events, and an HTTP ``GET`` on the same port
(sniffed by :class:`~repro.runtime.transport.FrameServer`) returns the JSON
status document — ``/metrics``, ``/healthz``, ``/alerts`` and ``/traces``
paths.  ``/metrics`` additionally content-negotiates: an
``Accept: text/plain`` request gets the Prometheus text exposition format
instead of JSON.

Health vs history: ``/healthz`` reports *active* conditions only — the
safety verdict plus the currently open grant gap
(:meth:`~repro.telemetry.online.OnlineLivenessWatchdog.current_gap`), which
recovers as soon as a grant lands.  The alert deque is a bounded historical
log; it never makes the service permanently unhealthy.

Tracing: servers propagate client-minted trace ids on their events (``tr``
key); the monitor assembles per-request span timelines from sampled events
and serves the most recent completed ones at ``/traces``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any

from repro.runtime.transport import FrameConnection, FrameServer
from repro.telemetry.fairness import FairnessTracker
from repro.telemetry.online import OnlineLivenessWatchdog, OnlineSafetyChecker

__all__ = ["SLOMonitor"]


class SLOMonitor:
    """Aggregates runtime events into live safety/liveness/fairness verdicts.

    Args:
        address: listen address (``tcp://host:port`` / ``unix://path``);
            port 0 is resolved after :meth:`start`.
        max_grant_gap: optional SLO threshold on the global grant gap —
            breaching it flips the liveness verdict and raises an alert.
        reorder_window: hold-back (service-time seconds) for cross-link
            event reordering.
        max_alerts: bound on the retained alert list (oldest dropped).
        max_traces: bound on retained completed traces (oldest dropped);
            at most ``4 * max_traces`` still-active trace timelines are
            kept (oldest evicted).
    """

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        *,
        max_grant_gap: float | None = None,
        reorder_window: float = 0.05,
        max_alerts: int = 256,
        max_traces: int = 32,
    ) -> None:
        self.fairness = FairnessTracker()
        self.safety = OnlineSafetyChecker()
        self.liveness = OnlineLivenessWatchdog(
            max_grant_gap=max_grant_gap, fairness=self.fairness
        )
        self.reorder_window = reorder_window
        self.alerts: deque[dict[str, Any]] = deque(maxlen=max_alerts)
        self.events_applied = 0
        self.events_received = 0
        self.malformed_events = 0
        self.crashes_seen = 0
        self.recoveries_seen = 0
        self._heap: list[tuple[float, int, dict[str, Any]]] = []
        self._tiebreak = itertools.count()
        self._watermark = 0.0
        self._finalized = False
        #: High-water mark of already-alerted grant gaps: a new alert fires
        #: only when ``max_gap`` breaches the threshold AND sets a new
        #: record, so a single long stall alerts once but a later, worse
        #: stall still does.  (A plain bool latch would silence forever.)
        self._gap_alerted_at = 0.0
        self.max_traces = max_traces
        #: Trace timelines being assembled: trace_id -> span dict.
        self._trace_active: dict[str, dict[str, Any]] = {}
        #: Most recent completed traces (the ``/traces`` body).
        self._traces_done: deque[dict[str, Any]] = deque(maxlen=max_traces)
        self._server = FrameServer(address, self._on_frame, http_handler=self._on_http)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self._server.start()

    @property
    def address(self) -> str:
        """The resolved listen address (ephemeral port filled in)."""
        return self._server.address

    async def close(self) -> None:
        await self._server.close()

    def finalize(self, end_of_time: float | None = None) -> None:
        """Drain the reorder buffer fully and close liveness bookkeeping."""
        self._drain(force=True)
        self._finalized = True
        self.liveness.finalize(self._watermark if end_of_time is None else end_of_time)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    async def _on_frame(self, frame: dict[str, Any], conn: FrameConnection) -> None:
        kind = frame.get("type")
        if kind == "event":
            self.ingest(frame)
            return
        batch = frame.get("batch") if kind == "events" else None
        if not isinstance(batch, list):
            self.malformed_events += 1
            return
        # Same ingest calls, in the same order, as one frame per event.
        for event in batch:
            if isinstance(event, dict):
                self.ingest(event)
            else:
                self.malformed_events += 1

    def ingest(self, event: dict[str, Any]) -> None:
        """Buffer one event dict (``e``/``t``/``node``/``rid`` keys)."""
        t = event.get("t")
        if not isinstance(t, (int, float)):
            self.malformed_events += 1
            return
        self.events_received += 1
        heapq.heappush(self._heap, (float(t), next(self._tiebreak), event))
        if t > self._watermark:
            self._watermark = float(t)
        self._drain()

    def _drain(self, force: bool = False) -> None:
        horizon = float("inf") if force else self._watermark - self.reorder_window
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            _t, _seq, event = heapq.heappop(heap)
            self._apply(event)

    def _apply(self, event: dict[str, Any]) -> None:
        kind = event.get("e")
        t = float(event["t"])
        node = event.get("node", 0)
        rid = event.get("rid", 0)
        violations_before = self.safety.violations
        if kind == "issue":
            self.liveness.on_issue(rid, node, t)
        elif kind == "grant":
            self.liveness.on_grant(rid, t)
        elif kind == "enter":
            self.safety.on_enter(node, t)
        elif kind == "exit":
            self.safety.on_exit(node, t)
        elif kind == "cancel":
            self.liveness.on_cancel(rid, t)
        elif kind == "crash":
            self.crashes_seen += 1
            self.safety.on_failure(node, t)
            self.liveness.on_failure(node, t)
        elif kind == "recover":
            self.recoveries_seen += 1
        elif kind == "send":
            pass  # protocol-hop event: trace assembly only, no checker
        else:
            self.malformed_events += 1
            return
        self.events_applied += 1
        trace_id = event.get("tr")
        if trace_id is not None:
            self._trace_event(trace_id, kind, t, event)
        if self.safety.violations > violations_before:
            self._alert(
                "safety-violation",
                t,
                detail=self.safety.report().get("first_violation", {}),
            )
        threshold = self.liveness.max_grant_gap
        if (
            threshold is not None
            and self.liveness.max_gap > threshold
            and self.liveness.max_gap > self._gap_alerted_at
        ):
            self._gap_alerted_at = self.liveness.max_gap
            self._alert(
                "grant-gap-breach",
                t,
                detail={
                    "max_grant_gap": round(self.liveness.max_gap, 6),
                    "threshold": threshold,
                },
            )

    def _trace_event(self, trace_id: str, kind: str, t: float, event: dict[str, Any]) -> None:
        """Fold one trace-carrying event into its span timeline."""
        trace = self._trace_active.get(trace_id)
        if trace is None:
            if kind in ("exit", "cancel", "crash"):
                return  # tail of a trace whose head we never saw
            while len(self._trace_active) >= 4 * self.max_traces:
                self._trace_active.pop(next(iter(self._trace_active)))
            trace = {
                "trace_id": trace_id,
                "rid": event.get("rid", 0),
                "node": event.get("node", 0),
                "issued_at": None,
                "granted_at": None,
                "exited_at": None,
                "hops": [],
                "status": "active",
            }
            self._trace_active[trace_id] = trace
        if kind == "issue":
            trace["issued_at"] = t
        elif kind == "grant":
            trace["granted_at"] = t
        elif kind == "send":
            if len(trace["hops"]) < 64:
                trace["hops"].append(
                    {
                        "t": t,
                        "from": event.get("node", 0),
                        "to": event.get("dest"),
                        "kind": event.get("kind"),
                    }
                )
        elif kind in ("exit", "cancel", "crash"):
            if kind == "exit":
                trace["exited_at"] = t
            trace["status"] = {"exit": "done", "cancel": "cancelled", "crash": "failed"}[kind]
            del self._trace_active[trace_id]
            self._traces_done.append(trace)

    def _alert(self, kind: str, t: float, detail: dict[str, Any]) -> None:
        self.alerts.append({"kind": kind, "t": round(t, 6), "detail": detail})

    # ------------------------------------------------------------------
    # Status surface
    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """JSON-ready status document (the ``/metrics`` body)."""
        return {
            "safety": self.safety.report(),
            "liveness": self.liveness.report(),
            "fairness": self.fairness.report(),
            "alerts": list(self.alerts),
            "events": {
                "received": self.events_received,
                "applied": self.events_applied,
                "buffered": len(self._heap),
                "malformed": self.malformed_events,
                "crashes": self.crashes_seen,
                "recoveries": self.recoveries_seen,
            },
            "finalized": self._finalized,
        }

    def healthz(self) -> dict[str, Any]:
        """Active health conditions (the ``/healthz`` body).

        Health is a *current* property: the safety verdict plus the
        currently open grant gap, which resets as soon as a grant lands.
        The alert log is history — a transient, already-recovered stall
        must not keep the service unhealthy forever.
        """
        threshold = self.liveness.max_grant_gap
        current_gap = self.liveness.current_gap(self._watermark)
        stalled = threshold is not None and current_gap > threshold
        return {
            "ok": self.safety.ok and not stalled,
            "safety_ok": self.safety.ok,
            "stalled": stalled,
            "current_grant_gap": round(current_gap, 6),
            "grant_gap_threshold": threshold,
            "pending": self.liveness.pending,
            "alerts": len(self.alerts),  # historical count, informational
        }

    def prometheus(self) -> str:
        """Prometheus text exposition (``/metrics`` with ``Accept: text/plain``)."""
        health = self.healthz()
        fairness = self.fairness.report()
        lines = []

        def metric(name: str, kind: str, help_text: str, value: Any) -> None:
            if value is None:
                return
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {float(value):g}")

        metric("mutex_safety_ok", "gauge", "1 when mutual exclusion has held so far.", int(self.safety.ok))
        metric("mutex_safety_violations_total", "counter", "Mutual exclusion violations observed.", self.safety.violations)
        metric("mutex_requests_issued_total", "counter", "Requests issued.", self.liveness.issued)
        metric("mutex_requests_granted_total", "counter", "Requests granted.", self.liveness.granted)
        metric("mutex_requests_cancelled_total", "counter", "Requests cancelled (client deadline).", self.liveness.cancelled)
        metric("mutex_requests_excused_total", "counter", "Pending requests excused by crashes.", self.liveness.excused)
        metric("mutex_requests_pending", "gauge", "Currently outstanding requests.", self.liveness.pending)
        metric("mutex_grant_gap_current_seconds", "gauge", "Currently open no-progress gap.", health["current_grant_gap"])
        metric("mutex_grant_gap_max_seconds", "gauge", "Largest no-progress gap observed.", round(self.liveness.max_gap, 6))
        metric("mutex_fairness_jain_index", "gauge", "Jain fairness index over grant counts.", fairness.get("jain_index"))
        metric("mutex_healthz_ok", "gauge", "1 when the active health conditions hold.", int(health["ok"]))
        metric("mutex_alerts_total", "counter", "Alerts raised (bounded log).", len(self.alerts))
        metric("mutex_events_received_total", "counter", "Event frames received.", self.events_received)
        metric("mutex_events_applied_total", "counter", "Events applied to the checkers.", self.events_applied)
        metric("mutex_events_malformed_total", "counter", "Malformed event frames.", self.malformed_events)
        metric("mutex_crashes_total", "counter", "Crash events observed.", self.crashes_seen)
        metric("mutex_recoveries_total", "counter", "Recovery events observed.", self.recoveries_seen)
        metric("mutex_traces_completed", "gauge", "Completed sampled traces retained.", len(self._traces_done))
        return "\n".join(lines) + "\n"

    def traces(self) -> dict[str, Any]:
        """Recent sampled traces (the ``/traces`` body)."""
        return {
            "completed": list(self._traces_done),
            "active": len(self._trace_active),
        }

    def _on_http(self, path: str, headers: dict[str, str]) -> tuple[int, Any]:
        if path in ("/", "/metrics"):
            if "text/plain" in headers.get("accept", ""):
                return 200, self.prometheus()
            return 200, self.report()
        if path == "/healthz":
            return 200, self.healthz()
        if path == "/alerts":
            return 200, {"alerts": list(self.alerts)}
        if path == "/traces":
            return 200, self.traces()
        return 404, {"error": f"unknown path {path!r}"}

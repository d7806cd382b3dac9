"""Liveness checking from run metrics.

The paper's liveness property: *each request to enter the critical section
will be satisfied after a finite time* (in the absence of unrecovered
failures of the requester itself).  In a finite simulation this becomes:
every request issued by a node that did not crash while waiting has been
granted by the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

from repro.exceptions import LivenessViolationError
from repro.simulation.metrics import MetricsCollector, RequestRecord

__all__ = ["LivenessReport", "analyse_liveness", "assert_liveness"]


@dataclass
class LivenessReport:
    """Summary of request satisfaction for one run."""

    issued: int
    granted: int
    starved: list[RequestRecord]
    excused: list[RequestRecord]

    @property
    def ok(self) -> bool:
        """Whether every non-excused request was granted."""
        return not self.starved


def _requester_crashed_while_waiting(metrics: MetricsCollector, record: RequestRecord) -> bool:
    for crash_time, node in metrics.failures:
        if node != record.node:
            continue
        if crash_time >= record.issued_at and (
            record.granted_at is None or crash_time <= record.granted_at
        ):
            return True
    return False


def analyse_liveness(metrics: MetricsCollector) -> LivenessReport:
    """Classify every issued request as granted, excused or starved.

    A request is *excused* when its own requester crashed between issuing it
    and (what would have been) its grant: fail-stop semantics wipe the
    requester's interest in the critical section, so the algorithm owes it
    nothing.  Everything else that was not granted is *starved* and counts
    as a liveness violation.
    """
    starved: list[RequestRecord] = []
    excused: list[RequestRecord] = []
    granted = 0
    requests = metrics.requests
    for request_id, granted_at in zip(requests.column("request_id"), requests.column("granted_at")):
        if not isnan(granted_at):
            granted += 1
            continue
        record = requests[request_id]
        if _requester_crashed_while_waiting(metrics, record):
            excused.append(record)
        else:
            starved.append(record)
    return LivenessReport(
        issued=len(requests),
        granted=granted,
        starved=starved,
        excused=excused,
    )


def assert_liveness(metrics: MetricsCollector) -> LivenessReport:
    """Raise :class:`LivenessViolationError` when any request starved."""
    report = analyse_liveness(metrics)
    if not report.ok:
        nodes = sorted({record.node for record in report.starved})
        raise LivenessViolationError(
            f"{len(report.starved)} request(s) were never granted "
            f"(requesters {nodes}); issued={report.issued}, granted={report.granted}"
        )
    return report

"""Metrics collection for simulation runs.

The paper's quantitative claims are *message counts*: messages per request in
the failure-free case, extra messages per failure in the fault-tolerant case.
The :class:`MetricsCollector` therefore records every send (classified by
message type), every critical-section entry/exit, every request issue/grant
pair, and every injected failure, so the experiment harness can compute those
quantities without instrumenting the algorithms themselves.

Detail modes
------------

``MetricsCollector(detail="full")`` (the default) keeps every send, every
request and every critical-section interval in typed columns rather than one
Python object each:

* :class:`SendLog` — a float time, two 32-bit node ids and a one-byte kind
  code, ~17 bytes a send where a :class:`SentMessage` object with its time
  float and list slot took ~110;
* :class:`RequestLog` — the node, the issue/grant/release times and the
  message counter at issue and at grant, ~44 bytes a request where a
  :class:`RequestRecord` with its boxed ints and floats took ~270;
* :class:`IntervalLog` — the node and the entry/exit times, ~20 bytes an
  interval where a :class:`CriticalSectionInterval` took ~56.

Memory still grows with the run, only several times more slowly.  Every
column grows in chunks of :data:`CHUNK` entries: a full chunk is sealed and
never resized again, so a long run reallocates no large buffer, and the
chunks a finished run frees have exactly the sizes the next run asks for.
(With one flat array per column the process high-water mark crept up from
run to run, as each run's arrays outgrew the holes the last one left.)

The logs read like the containers of records they replace:
``sent_messages`` and ``cs_intervals`` like lists of :class:`SentMessage` and
:class:`CriticalSectionInterval`, ``requests`` like a dict of request id →
:class:`RequestRecord`; an empty log equals ``[]`` (or ``{}``).  A record is
built on access and is a copy: writing to it changes nothing in the log.
Bulk readers — the derived quantities below and :mod:`repro.verification` —
stream the raw columns through :meth:`RequestLog.column` /
:meth:`IntervalLog.column` instead of building records; a time not yet
recorded reads there as NaN and a message count as -1.  Full mode is the only
mode the record-based safety/liveness analysis runs on.

``detail="counters"`` drops the per-*message* columns: sends only bump
integer counters (``messages_by_kind``, ``messages_by_sender``, the global
total), so memory stays O(requests) regardless of how many messages flow.
The per-*request* and interval columns are still kept, so every aggregate in
:meth:`MetricsCollector.summary` — totals, per-kind breakdown, per-request
message attribution, waiting times — is identical to full mode; but note
that :func:`repro.experiments.runner.run_workload` *skips* the record-based
safety/liveness analysis in this mode and reports
``safety_ok/liveness_ok/analysis_ok = None`` ("not analysed", never a hollow
``True``).

``detail="telemetry"`` is the constant-memory scale mode: no send, request
or interval columns are filled at all.  Instead the collector owns a
:class:`~repro.telemetry.collector.RunTelemetry` hub that checks
safety/liveness *online* (every CS enter/exit and grant) and folds waiting
time, CS hold time and messages-per-request into streaming quantile sketches
— so scale runs report real ``safety_ok``/``liveness_ok`` booleans and
p50/p90/p99 distributions in O(1) memory per metric.  :meth:`summary` stays
aggregate-identical to the other modes; the record-returning helpers
(``sent_messages``, ``requests``, ``satisfied_requests()``,
``messages_per_request()``) return empty containers, by design.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import Counter
from collections.abc import ItemsView, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any

from repro.exceptions import ConfigurationError
from repro.telemetry.collector import RunTelemetry, TelemetryOptions

__all__ = [
    "CHUNK",
    "SentMessage",
    "SendLog",
    "CriticalSectionInterval",
    "IntervalLog",
    "RequestRecord",
    "RequestLog",
    "MetricsCollector",
]

#: Entries per column chunk (see the module docstring).  A log reads it when
#: it is built, so a test may set it smaller to exercise many chunks.
CHUNK = 8192

#: What a time column holds until the time is recorded (no grant, release or
#: exit yet), and what a message-count column holds until the grant.
_NO_TIME = math.nan
_NO_COUNT = -1


class _Columns:
    """Parallel typed columns that grow in chunks of ``chunk`` entries.

    A subclass names its columns in ``_fields`` as ``(name, typecode,
    fill)``.  ``chunks[i]`` lists column ``i``'s chunks, the open one last,
    and the attribute named after the column is that open chunk.  The
    recording hooks append to a column whose ``fill`` is ``None``; the first
    column is one of those, and its length counts the rows.  A column with a
    fill value is written in place instead: each of its chunks is allocated
    whole, ``chunk`` copies of ``fill``, when the chunk opens, and only its
    first rows are read.  Every chunk but the open one holds exactly
    ``chunk`` rows and is never resized again (an entry of it may still be
    overwritten, say by a grant).
    """

    __slots__ = ("chunk", "chunks")
    _fields: tuple[tuple[str, str, float | int | None], ...] = ()

    def __init__(self) -> None:
        self.chunk = CHUNK
        self.chunks = tuple([] for _ in self._fields)

    def open_chunk(self) -> None:
        """Seal the (full) open chunks and open a new one per column."""
        for (name, typecode, fill), chunks in zip(self._fields, self.chunks):
            if chunks:
                typecode = chunks[-1].typecode
            chunk = array(typecode) if fill is None else array(typecode, (fill,)) * self.chunk
            chunks.append(chunk)
            setattr(self, name, chunk)

    def _row_count(self) -> int:
        chunks = self.chunks[0]
        return (len(chunks) - 1) * self.chunk + len(chunks[-1]) if chunks else 0

    def _cell(self, column: int, row: int) -> Any:
        return self.chunks[column][row // self.chunk][row % self.chunk]

    def _column(self, column: int) -> Iterator:
        """One column's rows, in row order."""
        values = chain.from_iterable(self.chunks[column])
        if self._fields[column][2] is None:
            return values
        return islice(values, self._row_count())

    def fields(self) -> Iterator[tuple]:
        """Stream every row's raw fields, in row order, without building records."""
        return zip(*map(self._column, range(len(self._fields))))


class _RecordSequence(_Columns, Sequence):
    """A :class:`_Columns` read as a list of records (``_record(i)``)."""

    __slots__ = ()

    def _record(self, i: int) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._row_count()

    def __getitem__(self, index):  # type: ignore[override]
        size = self._row_count()
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(size))]
        i = operator.index(index)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._record(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _RecordSequence)):
            return len(other) == len(self) and list(self) == list(other)
        return NotImplemented


@dataclass(frozen=True, slots=True)
class SentMessage:
    """One message send event."""

    time: float
    sender: int
    dest: int
    kind: str
    dropped: bool = False


class SendLog(_RecordSequence):
    """Append-only columnar log of sends, read as a sequence of :class:`SentMessage`.

    One parallel column per field, each grown in chunks (see
    :class:`_Columns`): ``times`` (``array('d')``), ``senders`` and
    ``dests`` (``array('i')``, so node ids must fit in 32 bits) and
    ``kinds``, a one-byte code per send indexing ``kind_names``, the tuple of
    interned kind strings in first-seen order.  ``dropped`` is the sparse
    set of indices of sends recorded as dropped.  :meth:`MetricsCollector
    .record_send` appends to the open chunks directly; readers index, slice
    and iterate it like the list of records it replaces, and it compares
    equal to a list of equal records (so an empty log ``== []``).
    """

    __slots__ = ("times", "senders", "dests", "kinds", "kind_names", "kind_codes", "dropped")
    _fields = (
        ("times", "d", None), ("senders", "i", None), ("dests", "i", None), ("kinds", "B", None),
    )

    def __init__(self) -> None:
        super().__init__()
        self.open_chunk()
        self.kind_names: tuple[str, ...] = ()
        self.kind_codes: dict[str, int] = {}
        self.dropped: set[int] = set()

    def add_kind(self, kind: str) -> int:
        """Assign the next code to a kind not seen before and return it."""
        code = len(self.kind_names)
        if code == 256:
            # Past 256 kinds one byte no longer holds a code: the open chunk
            # and every later one hold four-byte codes, sealed ones keep theirs.
            self.kinds = self.chunks[3][-1] = array("I", self.kinds)
        kind = sys.intern(kind)
        self.kind_names += (kind,)
        self.kind_codes[kind] = code
        return code

    def _record(self, i: int) -> SentMessage:
        return SentMessage(
            self._cell(0, i),
            self._cell(1, i),
            self._cell(2, i),
            self.kind_names[self._cell(3, i)],
            i in self.dropped,
        )

    def __iter__(self) -> Iterator[SentMessage]:
        names, dropped = self.kind_names, self.dropped
        for i, (time, sender, dest, code) in enumerate(self.fields()):
            yield SentMessage(time, sender, dest, names[code], i in dropped)


@dataclass(slots=True)
class CriticalSectionInterval:
    """One critical-section occupancy interval of a node."""

    node: int
    entered_at: float
    exited_at: float | None = None


class IntervalLog(_RecordSequence):
    """Critical-section intervals in entry order, read as a sequence of
    :class:`CriticalSectionInterval`.

    Columns ``node`` (``array('i')``), ``entered_at`` and ``exited_at``
    (``array('d')``, NaN while the interval is open).
    """

    __slots__ = ("node", "entered_at", "exited_at")
    _fields = (("node", "i", None), ("entered_at", "d", None), ("exited_at", "d", None))
    _names = {name: i for i, (name, *_) in enumerate(_fields)}

    def __init__(self) -> None:
        super().__init__()
        self.open_chunk()

    def column(self, name: str) -> Iterator:
        """Stream one raw column (``"node"``, ``"entered_at"`` or
        ``"exited_at"``) in entry order, without building records."""
        return self._column(self._names[name])

    def _record(self, i: int) -> CriticalSectionInterval:
        return _interval(self._cell(0, i), self._cell(1, i), self._cell(2, i))

    def __iter__(self) -> Iterator[CriticalSectionInterval]:
        for node, entered_at, exited_at in self.fields():
            yield _interval(node, entered_at, exited_at)


def _interval(node: int, entered_at: float, exited_at: float) -> CriticalSectionInterval:
    # x == x is false only for NaN; cheaper than math.isnan per record.
    return CriticalSectionInterval(node, entered_at, exited_at if exited_at == exited_at else None)


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one critical-section request.

    Built on access from a :class:`RequestLog` row; a copy, so writing to it
    changes nothing in the log.
    """

    request_id: int
    node: int
    issued_at: float
    granted_at: float | None = None
    released_at: float | None = None
    messages_at_issue: int = 0
    messages_at_grant: int | None = None

    @property
    def satisfied(self) -> bool:
        """Whether the request was eventually granted."""
        return self.granted_at is not None

    @property
    def waiting_time(self) -> float | None:
        """Time between issuing the request and entering the CS."""
        if self.granted_at is None:
            return None
        return self.granted_at - self.issued_at


def _request(fields: tuple) -> RequestRecord:
    request_id, node, issued_at, granted_at, released_at, at_issue, at_grant = fields
    # x == x is false only for NaN; cheaper than math.isnan per record.
    return RequestRecord(
        request_id,
        node,
        issued_at,
        granted_at if granted_at == granted_at else None,
        released_at if released_at == released_at else None,
        at_issue,
        None if at_grant == _NO_COUNT else at_grant,
    )


class RequestLog(_Columns, Mapping):
    """Requests by id, read as a mapping of id → :class:`RequestRecord`.

    One row per issue, with columns ``node`` (``array('i')``),
    ``issued_at``, ``granted_at``, ``released_at`` (``array('d')``) and
    ``messages_at_issue``, ``messages_at_grant`` (``array('q')``), grown in
    chunks (see :class:`_Columns`).  An issue appends the first three; a
    grant or a release writes the others in place, in chunks allocated
    whole and filled with NaN (time) or -1 (count) until then.  Request
    ids come from one process-wide counter, so within a run they normally
    arrive consecutively: ids ``base`` to ``stop - 1`` live in rows 0 to
    ``stop - base - 1`` and no id is stored at all.  The first id that
    breaks the sequence (a gap, or an id issued again) switches the log to a
    dict ``index`` of id → row; an id issued again then maps to its new row
    and keeps its place in iteration order, as a dict key would.

    ``wait_total`` adds each grant's wait as it is recorded, which is the
    order :meth:`MetricsCollector.mean_waiting_time` adds the waits in: by
    grant time, ties in id order.  ``in_grant_order`` turns false once the
    two orders can differ — a grant time that ties or goes back, a request
    granted twice, an id issued twice — and the mean then sorts instead.
    """

    __slots__ = (
        "node", "issued_at", "granted_at", "released_at", "messages_at_issue",
        "messages_at_grant", "base", "stop", "index", "wait_total", "last_grant",
        "in_grant_order",
    )
    _fields = (
        ("node", "i", None), ("issued_at", "d", None), ("granted_at", "d", _NO_TIME),
        ("released_at", "d", _NO_TIME), ("messages_at_issue", "q", None),
        ("messages_at_grant", "q", _NO_COUNT),
    )
    _names = {name: i for i, (name, *_) in enumerate(_fields)}

    def __init__(self) -> None:
        super().__init__()
        # NaN bounds: no id is in [base, stop) and none equals stop, so an
        # empty or indexed log sends every hook to its slow path.
        self.base: float | int = _NO_TIME
        self.stop: float | int = _NO_TIME
        self.index: dict[int, int] | None = None
        self.wait_total = 0.0
        self.last_grant = -math.inf
        self.in_grant_order = True

    # -- recording (the hooks on MetricsCollector call these) ---------------
    def place(self, request_id: int) -> None:
        """Slow path of an issue: make room for one more row and map
        ``request_id`` to it when it does not continue the sequence."""
        if not self.chunks[0] or len(self.node) == self.chunk:
            self.open_chunk()
        if self.index is None:
            if request_id == self.stop:
                self.stop += 1
                return
            if not self._row_count():
                self.base, self.stop = request_id, request_id + 1
                return
            self.index = dict(zip(range(self.base, self.stop), range(self._row_count())))
            self.base = self.stop = _NO_TIME
        if request_id in self.index:
            self.in_grant_order = False
        self.index[request_id] = self._row_count()

    def row_of(self, request_id: int) -> int | None:
        """The row holding ``request_id``, or ``None`` if it was never issued."""
        if self.base <= request_id < self.stop:
            return request_id - self.base
        if self.index is not None:
            return self.index.get(request_id)
        return None

    # -- reading ---------------------------------------------------------
    def column(self, name: str) -> Iterator:
        """Stream one raw column — ``"request_id"`` or a column name — over
        the live rows in id order (first issue), without building records."""
        if name == "request_id":
            return iter(self)
        i = self._names[name]
        if self.index is None:
            return self._column(i)
        return (self._cell(i, row) for row in self.index.values())

    def fields(self) -> Iterator[tuple]:
        """Stream every live row as ``(request_id, node, issued_at,
        granted_at, released_at, messages_at_issue, messages_at_grant)``."""
        return zip(self.column("request_id"), *map(self.column, self._names))

    def __len__(self) -> int:
        return self._row_count() if self.index is None else len(self.index)

    def __iter__(self) -> Iterator[int]:
        if self.index is None:
            return iter(range(self.base, self.stop)) if self._row_count() else iter(())
        return iter(self.index)

    def __contains__(self, request_id: object) -> bool:
        return isinstance(request_id, int) and self.row_of(request_id) is not None

    def __getitem__(self, request_id: int) -> RequestRecord:
        row = self.row_of(request_id) if isinstance(request_id, int) else None
        if row is None:
            raise KeyError(request_id)
        return _request((request_id, *(self._cell(i, row) for i in range(len(self.chunks)))))

    def values(self) -> ValuesView:
        return _RequestValues(self)

    def items(self) -> ItemsView:
        return _RequestItems(self)


class _RequestValues(ValuesView):
    def __iter__(self) -> Iterator[RequestRecord]:
        return map(_request, self._mapping.fields())


class _RequestItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, RequestRecord]]:
        for fields in self._mapping.fields():
            yield fields[0], _request(fields)


class MetricsCollector:
    """Accumulates counters and per-request records during a run.

    Args:
        detail: ``"full"`` keeps every send in a columnar :class:`SendLog`;
            ``"counters"`` only maintains integer counters so memory stays
            O(requests) on arbitrarily long runs; ``"telemetry"`` also drops
            the per-request records and streams everything through a
            :class:`~repro.telemetry.collector.RunTelemetry` hub (see the
            module docstring).
        telemetry_options: configuration of the telemetry hub
            (:class:`~repro.telemetry.collector.TelemetryOptions` or its
            dict form); only valid with ``detail="telemetry"``.
    """

    def __init__(
        self,
        detail: str = "full",
        *,
        telemetry_options: TelemetryOptions | Mapping[str, Any] | None = None,
    ) -> None:
        if detail not in ("full", "counters", "telemetry"):
            raise ConfigurationError(
                f"detail must be 'full', 'counters' or 'telemetry', got {detail!r}"
            )
        if telemetry_options is not None and detail != "telemetry":
            raise ConfigurationError(
                f"telemetry_options only apply to detail='telemetry', got {detail!r}"
            )
        self.detail = detail
        self._keep_records = detail == "full"
        self._total_sent: int = 0
        #: Every send in full mode; stays empty in the other modes.
        self.sent_messages = SendLog()
        self.messages_by_kind: Counter[str] = Counter()
        self.messages_by_sender: Counter[int] = Counter()
        self.dropped_messages: int = 0
        #: Adversarial network-fault tallies (``repro.simulation.network
        #: .NetworkFaults``): messages eaten by loss, extra deliveries
        #: injected by duplication, messages severed by an active partition.
        #: Maintained by the cluster's fault-aware send path in every detail
        #: mode; ``network_faults_active`` gates their appearance in
        #: :meth:`summary` so fault-free summaries (and the golden digests
        #: computed over them) are byte-identical to the pre-fault engine.
        self.lost_messages: int = 0
        self.duplicated_messages: int = 0
        self.blocked_messages: int = 0
        self.network_faults_active: bool = False
        #: Every CS interval and request outside telemetry mode.
        self.cs_intervals = IntervalLog()
        self.requests = RequestLog()
        self.requests_issued_count: int = 0
        self.requests_granted_count: int = 0
        self.failures: list[tuple[float, int]] = []
        self.recoveries: list[tuple[float, int]] = []
        self.custom: dict[str, Any] = {}
        #: node -> (chunk, offset) of its open interval's ``exited_at`` entry.
        self._open_cs: dict[int, tuple[array, int]] = {}
        #: The online-telemetry hub; ``None`` outside telemetry mode.
        self.telemetry: RunTelemetry | None = None
        if not self._keep_records:
            # Shadow the method with the streaming variant so the hot path
            # pays no per-send mode branch.
            self.record_send = self._record_send_counters  # type: ignore[method-assign]
        if detail == "telemetry":
            self.telemetry = RunTelemetry(telemetry_options)
            # Same shadowing trick for the per-request/CS hooks: telemetry
            # variants keep no records and feed the hub instead.
            self.record_request_issued = self._record_request_issued_telemetry  # type: ignore[method-assign]
            self.record_request_granted = self._record_request_granted_telemetry  # type: ignore[method-assign]
            self.record_request_released = self._record_request_released_telemetry  # type: ignore[method-assign]
            self.record_cs_enter = self._record_cs_enter_telemetry  # type: ignore[method-assign]
            self.record_cs_exit = self._record_cs_exit_telemetry  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Recording hooks (called by the simulator / cluster)
    # ------------------------------------------------------------------
    def record_send(
        self, time: float, sender: int, dest: int, kind: str, dropped: bool = False
    ) -> None:
        """Record a message send; ``dropped`` marks sends to failed nodes.

        NOTE: simulated sends in counters mode do NOT go through this method
        or :meth:`_record_send_counters` — the cluster inlines the same
        counter updates into its send closure (``SimulatedCluster._make_send``)
        to avoid a per-message frame.  A new or changed counter must be
        mirrored there, and ``tests/simulation/test_determinism.py`` asserts
        both modes stay aggregate-equivalent.
        """
        self._total_sent += 1
        self.messages_by_kind[kind] += 1
        self.messages_by_sender[sender] += 1
        log = self.sent_messages
        times = log.times
        if len(times) == log.chunk:
            log.open_chunk()
            times = log.times
        times.append(time)
        log.senders.append(sender)
        log.dests.append(dest)
        try:
            log.kinds.append(log.kind_codes[kind])
        except KeyError:
            code = log.add_kind(kind)  # may replace log.kinds with a wider array
            log.kinds.append(code)
        if dropped:
            log.dropped.add(len(log) - 1)
            self.dropped_messages += 1

    def _record_send_counters(
        self, time: float, sender: int, dest: int, kind: str, dropped: bool = False
    ) -> None:
        """Streaming-mode :meth:`record_send`: counters only, no records."""
        self._total_sent += 1
        self.messages_by_kind[kind] += 1
        self.messages_by_sender[sender] += 1
        if dropped:
            self.dropped_messages += 1

    def record_request_issued(self, request_id: int, node: int, time: float) -> None:
        """Record the moment a node asks to enter the critical section."""
        self.requests_issued_count += 1
        log = self.requests
        if request_id == log.stop and len(log.node) < log.chunk:
            log.stop = request_id + 1
        else:
            log.place(request_id)
        log.node.append(node)
        log.issued_at.append(time)
        log.messages_at_issue.append(self._total_sent)

    def _record_request_issued_telemetry(self, request_id: int, node: int, time: float) -> None:
        """Telemetry-mode :meth:`record_request_issued`: hub only, no record."""
        self.requests_issued_count += 1
        self.telemetry.on_issue(request_id, node, time, self._total_sent)

    def record_request_granted(self, request_id: int, time: float) -> None:
        """Record the moment the corresponding critical section is entered."""
        log = self.requests
        if log.base <= request_id < log.stop:
            row = request_id - log.base
        else:
            row = log.row_of(request_id)
            if row is None:
                return
        size = log.chunk
        chunk = row // size
        at = row % size
        chunks = log.chunks
        at_grant = chunks[5][chunk]
        if at_grant[at] < 0:
            self.requests_granted_count += 1
        else:
            log.in_grant_order = False
        at_grant[at] = self._total_sent
        chunks[2][chunk][at] = time
        if time <= log.last_grant:
            log.in_grant_order = False
        log.last_grant = time
        log.wait_total += time - chunks[1][chunk][at]

    def _record_request_granted_telemetry(self, request_id: int, time: float) -> None:
        """Telemetry-mode :meth:`record_request_granted`."""
        if self.telemetry.on_grant(request_id, time):
            self.requests_granted_count += 1

    def record_request_released(self, request_id: int, time: float) -> None:
        """Record the moment the corresponding critical section is left."""
        log = self.requests
        if log.base <= request_id < log.stop:
            row = request_id - log.base
        else:
            row = log.row_of(request_id)
            if row is None:
                return
        log.chunks[3][row // log.chunk][row % log.chunk] = time

    def _record_request_released_telemetry(self, request_id: int, time: float) -> None:
        """Telemetry-mode :meth:`record_request_released`: nothing to keep —
        hold times are measured at the CS enter/exit hooks."""

    def record_cs_enter(self, node: int, time: float) -> None:
        """Record a critical-section entry (for the safety checker)."""
        log = self.cs_intervals
        exited = log.exited_at
        if len(exited) == log.chunk:
            log.open_chunk()
            exited = log.exited_at
        self._open_cs[node] = (exited, len(exited))
        log.node.append(node)
        log.entered_at.append(time)
        exited.append(_NO_TIME)

    def _record_cs_enter_telemetry(self, node: int, time: float) -> None:
        """Telemetry-mode :meth:`record_cs_enter`: online safety check."""
        self.telemetry.on_cs_enter(node, time)

    def record_cs_exit(self, node: int, time: float) -> None:
        """Record a critical-section exit."""
        entry = self._open_cs.pop(node, None)
        if entry is not None:
            chunk, at = entry
            chunk[at] = time

    def _record_cs_exit_telemetry(self, node: int, time: float) -> None:
        """Telemetry-mode :meth:`record_cs_exit`."""
        self.telemetry.on_cs_exit(node, time)

    def record_failure(self, node: int, time: float) -> None:
        """Record an injected fail-stop failure."""
        self.failures.append((time, node))
        if self.telemetry is not None:
            self.telemetry.on_failure(node, time)

    def record_recovery(self, node: int, time: float) -> None:
        """Record a node recovery."""
        self.recoveries.append((time, node))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def total_messages(self, *, include_dropped: bool = True) -> int:
        """Total number of messages sent so far."""
        if include_dropped:
            return self._total_sent
        return self._total_sent - self.dropped_messages

    def messages_of_kinds(self, kinds: set[str] | frozenset[str]) -> int:
        """Total number of messages whose kind is in ``kinds``."""
        return sum(count for kind, count in self.messages_by_kind.items() if kind in kinds)

    def satisfied_requests(self) -> list[RequestRecord]:
        """Return the requests that were granted, ordered by grant time."""
        granted = [
            _request(fields) for fields in self.requests.fields() if not math.isnan(fields[3])
        ]
        granted.sort(key=operator.attrgetter("granted_at"))
        return granted

    def unsatisfied_requests(self) -> list[RequestRecord]:
        """Return the requests never granted during the run."""
        return [_request(fields) for fields in self.requests.fields() if math.isnan(fields[3])]

    def messages_per_request(self) -> list[int]:
        """Messages attributable to each request, in issue order.

        For *serial* workloads (at most one outstanding request at a time,
        spaced widely enough that all traffic of a request — including the
        possible token-return message after the critical section — settles
        before the next request is issued) this is exact: request ``k`` is
        charged every message sent between its issue and the next issue (or
        the end of the run for the last request).  For concurrent workloads
        use :meth:`mean_messages_per_request`, which divides the total
        traffic by the number of grants instead.
        """
        log = self.requests
        if not log:
            return []
        issued = log.column("issued_at")
        if all(map(operator.le, issued, islice(log.column("issued_at"), 1, None))):
            # Already in issue order, ties in id order: what the stable sort
            # below would give, read straight off the column.
            marks = log.column("messages_at_issue")
            later = islice(log.column("messages_at_issue"), 1, None)
        else:
            pairs = sorted(
                zip(log.column("issued_at"), log.column("messages_at_issue")),
                key=operator.itemgetter(0),
            )
            marks = map(operator.itemgetter(1), pairs)
            later = map(operator.itemgetter(1), islice(pairs, 1, None))
        return list(map(operator.sub, chain(later, (self.total_messages(),)), marks))

    def mean_messages_per_request(self) -> float:
        """Total messages divided by the number of granted requests."""
        if not self.requests_granted_count:
            return 0.0
        return self.total_messages() / self.requests_granted_count

    def mean_waiting_time(self) -> float:
        """Average time between issuing a request and entering the CS.

        The waits are added one by one, left to right, by grant time (ties
        in id order) — the additions the telemetry sketch makes, so the
        modes agree to the bit.  ``sum()`` would not do: since Python 3.12
        it compensates float rounding.  The record modes read the running
        sum :meth:`record_request_granted` keeps, and sort the granted
        requests only when that sum's order may differ (see
        :class:`RequestLog`); telemetry mode reads the sketch's sum.
        """
        if self.telemetry is not None:
            return self.telemetry.waiting_time.mean
        log = self.requests
        if log.in_grant_order:
            count = self.requests_granted_count
            return log.wait_total / count if count else 0.0
        granted = sorted(
            (
                (granted_at, granted_at - issued_at)
                for issued_at, granted_at in zip(log.column("issued_at"), log.column("granted_at"))
                if not math.isnan(granted_at)
            ),
            key=operator.itemgetter(0),
        )
        total = 0.0
        for _, wait in granted:
            total += wait
        return total / len(granted) if granted else 0.0

    def per_node_request_counts(self) -> dict[int, int]:
        """Number of requests issued by each node."""
        return dict(Counter(self.requests.column("node")))

    def summary(self) -> dict[str, Any]:
        """Return a dictionary summary convenient for table printing.

        Aggregate-identical across all three detail modes (pinned by the
        equivalence tests): telemetry mode answers from its counters and
        sketches, the record modes from their per-request records.
        """
        if self.telemetry is not None:
            max_per_request = self.telemetry.live_max_messages_per_request(self._total_sent)
        else:
            per_request = self.messages_per_request()
            max_per_request = max(per_request) if per_request else 0
        summary = {
            "total_messages": self.total_messages(),
            "dropped_messages": self.dropped_messages,
            "messages_by_kind": dict(self.messages_by_kind),
            "requests_issued": self.requests_issued_count,
            "requests_granted": self.requests_granted_count,
            "mean_messages_per_request": self.mean_messages_per_request(),
            "max_messages_per_request": max_per_request,
            "mean_waiting_time": self.mean_waiting_time(),
            "failures": len(self.failures),
            "recoveries": len(self.recoveries),
        }
        if self.network_faults_active:
            # Only when a fault layer is configured: fault-free summaries
            # must stay byte-identical (the golden determinism digests hash
            # this dictionary).
            summary["lost_messages"] = self.lost_messages
            summary["duplicated_messages"] = self.duplicated_messages
            summary["blocked_messages"] = self.blocked_messages
        return summary

    def finalize_telemetry(self, end_time: float) -> dict[str, Any] | None:
        """Close the telemetry hub (idempotent) and return its report.

        Returns ``None`` outside telemetry mode.  Call with the simulation
        end time once the run is quiescent; the hub then charges the last
        request its message tail, classifies leftover pending requests as
        starvation, and takes the final series sample.
        """
        if self.telemetry is None:
            return None
        self.telemetry.finalize(end_time, self._total_sent)
        return self.telemetry.report()

"""Span tracer the suite installs around calls into each layer.

The program under test carries no spans of its own yet; the suite wraps the
public (and a few construction-time) entry points of every layer *before*
the cluster or the servers are built, because the send closures and handler
tables bind at construction.  Each wrapped call is one span
``(id, layer, start_ns, end_ns, parent_id)``; a layer's **self time** is its
span's duration minus the part its child spans cover, so the per-layer self
times plus the residual (run loop, sockets, glue nobody wrapped) add up to
the wall time of the traced run.

Coroutines are traced per synchronous segment: the time a coroutine spends
suspended at an ``await`` belongs to whoever runs meanwhile, not to it, and
between two suspension points one event-loop thread is an ordinary call
stack, so the parent/child bookkeeping stays exact.

Totals are kept per layer for the whole run; only the first ``keep`` raw
spans are retained (a 400 k-event run would otherwise hold millions) and
written out with the result document.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterator

__all__ = ["Tracer"]


class _TimedAwaitable:
    """Drives a coroutine, opening one span per synchronous segment."""

    __slots__ = ("_coro", "_enter", "_exit")

    def __init__(self, coro, enter, exit_) -> None:
        self._coro = coro
        self._enter = enter
        self._exit = exit_

    def __await__(self):
        inner = self._coro.__await__()
        step, arg = inner.send, None
        while True:
            frame = self._enter()
            try:
                yielded = step(arg)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit(frame)
            try:
                arg = yield yielded
                step = inner.send
            except BaseException as exc:  # delivered into the coroutine, not swallowed
                arg, step = exc, inner.throw


class _TimedIterator:
    """Iterator proxy whose ``__next__`` is one span per item."""

    __slots__ = ("_next",)

    def __init__(self, timed_next: Callable[[], Any]) -> None:
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class Tracer:
    """Per-layer span accounting; see the module docstring.

    Use as a context manager: patches applied through :meth:`patch` /
    :meth:`patch_factory` are undone on exit, so one interpreter can run a
    traced cell and then an untraced one.
    """

    def __init__(self, keep: int = 128) -> None:
        self._clock = time.perf_counter_ns
        self._stack: list[list[int]] = []  # [child_ns, span_id, start_ns] per open span
        self._totals: dict[str, list[int]] = {}  # layer -> [count, total_ns, self_ns]
        self._undo: list[tuple[Any, str, Any]] = []
        self._next_id = 0
        self.keep = keep
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        #: Wall time and per-layer ``[count, total_ns, self_ns]`` of the last
        #: :meth:`window`; what :meth:`shares` reports on.
        self.window_s = 0.0
        self._window: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _span_hooks(self, layer: str):
        """``(enter, exit)`` closures for one layer (hot path, so pre-bound)."""
        stack = self._stack
        clock = self._clock
        totals = self._totals.setdefault(layer, [0, 0, 0])
        spans = self.spans
        keep = self.keep

        def enter() -> list[int]:
            self._next_id += 1
            frame = [0, self._next_id, 0]
            stack.append(frame)
            frame[2] = clock()
            return frame

        def exit_(frame: list[int]) -> None:
            end = clock()
            duration = end - frame[2]
            stack.pop()
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[0]
            parent = None
            if stack:
                stack[-1][0] += duration
                parent = stack[-1][1]
            if len(spans) < keep:
                spans.append((frame[1], layer, frame[2], end, parent))

        return enter, exit_

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """A synchronous callable whose every call is one ``layer`` span."""
        enter, exit_ = self._span_hooks(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    def wrap_async(self, layer: str, fn: Callable) -> Callable:
        """A coroutine function traced per synchronous segment."""
        enter, exit_ = self._span_hooks(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedAwaitable(fn(*args, **kwargs), enter, exit_)

        return traced

    def wrap_iterator(self, layer: str, iterator) -> _TimedIterator:
        """An iterator whose every ``next()`` is one ``layer`` span."""
        return _TimedIterator(self.wrap(layer, iterator.__next__))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, layer: str, owner: Any, name: str, *, is_async: bool = False) -> None:
        """Replace ``owner.name`` (class or module attribute) with a traced twin."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrapper = self.wrap_async if is_async else self.wrap
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper(layer, original))

    def patch_factory(self, layer: str, owner: type, name: str, *, iterator: bool = False) -> None:
        """Trace what ``owner.name(...)`` *returns* (a closure or an iterator).

        The delay sampler, the per-node send closure and the arrival
        iterator are all built by a method and then called directly by the
        hot path; wrapping the product is the only seam outside ``src/``.
        """
        original = owner.__dict__[name]
        wrap_product = self.wrap_iterator if iterator else self.wrap

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return wrap_product(layer, original(*args, **kwargs))

        self._undo.append((owner, name, original))
        setattr(owner, name, factory)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def window(self) -> Iterator[None]:
        """The timed section: spans before it (set-up, warm-up) are dropped,
        spans after it (teardown) never reach the report."""
        for totals in self._totals.values():
            totals[:] = [0, 0, 0]
        del self.spans[:]
        started = self._clock()
        try:
            yield
        finally:
            self.window_s = (self._clock() - started) / 1e9
            self._window = {layer: list(totals) for layer, totals in self._totals.items()}

    def shares(self) -> dict[str, float]:
        """Self-time share of the window per layer, plus ``residual``; sums to 1."""
        wall_ns = self.window_s * 1e9
        shares = {layer: totals[2] / wall_ns for layer, totals in self._window.items()}
        shares["residual"] = 1.0 - sum(shares.values())
        return shares

    def span_count(self) -> int:
        return sum(totals[0] for totals in self._window.values())

    def span_rows(self) -> list[dict[str, Any]]:
        """The retained raw spans as JSON-ready rows."""
        return [
            {"id": sid, "name": layer, "start_ns": start, "end_ns": end, "parent": parent}
            for sid, layer, start, end, parent in self.spans
        ]


# ----------------------------------------------------------------------
# Where the spans go: one function per product
# ----------------------------------------------------------------------
_NODE_HOOKS = ("on_message", "on_timer", "acquire", "release")


def _patch_node_classes(tracer: Tracer, nodes) -> None:
    """Trace the protocol handlers of every class in the nodes' MRO."""
    from repro.simulation.process import MutexNode

    seen: set[type] = set()
    for node in nodes:
        for cls in type(node).__mro__:
            if cls in seen or not issubclass(cls, MutexNode) or cls is MutexNode:
                continue
            seen.add(cls)
            for name in _NODE_HOOKS:
                if name in cls.__dict__:
                    tracer.patch("core", cls, name)


def trace_simulation(tracer: Tracer, algorithm: str) -> None:
    """Install the simulator-side spans (call before the cluster is built)."""
    from repro.baselines.registry import build_nodes
    from repro.experiments import runner
    from repro.simulation.cluster import SimulatedCluster
    from repro.simulation.metrics import MetricsCollector
    from repro.simulation import sharding
    from repro.simulation.network import ConstantDelay, UniformDelay
    from repro.simulation.simulator import Simulator
    from repro.telemetry.collector import RunTelemetry
    from repro.workload.arrivals import ArrivalStream

    for name in ("schedule_delivery", "schedule_at", "schedule_request"):
        tracer.patch("simulation.simulator", Simulator, name)
    for name in ("_deliver", "_fire_timer", "_dispatch_request", "_on_granted", "_do_release"):
        tracer.patch("simulation.cluster", SimulatedCluster, name)
    tracer.patch_factory("simulation.cluster", SimulatedCluster, "_make_send")
    for model in (ConstantDelay, UniformDelay):
        tracer.patch_factory("simulation.network", model, "bind")
    for name in list(vars(MetricsCollector)):
        if name.startswith(("record_", "_record_")):
            tracer.patch("simulation.metrics", MetricsCollector, name)
    for name in list(vars(RunTelemetry)):
        if name.startswith("on_"):
            tracer.patch("telemetry", RunTelemetry, name)
    tracer.patch("verification", MetricsCollector, "finalize_telemetry")
    for name in ("crashed_in_critical_section", "find_overlaps", "analyse_liveness"):
        tracer.patch("verification", runner, name)
    tracer.patch_factory("workload", ArrivalStream, "__iter__", iterator=True)
    # The coordinator side only: spans opened inside the forked shard workers
    # die with them, so a sharded run reads as one big sharding span.
    tracer.patch("simulation.sharding", sharding, "run_sharded")
    _patch_node_classes(tracer, build_nodes(algorithm, 4).values())


def trace_service(tracer: Tracer, nodes) -> None:
    """Install the lock-service spans (call before the servers are built)."""
    from repro.runtime import client, monitor, service, transport

    _patch_node_classes(tracer, nodes)
    for module in (client, transport):
        tracer.patch("runtime.wire", module, "encode_frame")
        tracer.patch("runtime.wire", module, "read_frame", is_async=True)
    for name in ("acquire", "release"):
        tracer.patch("runtime.client", client.LockClient, name, is_async=True)
    tracer.patch("runtime.service", service.LockServer, "_on_frame", is_async=True)
    tracer.patch("runtime.monitor", monitor.SLOMonitor, "_on_frame", is_async=True)
    tracer.patch("runtime.transport", transport.PeerLink, "send")
    tracer.patch("runtime.transport", transport.FrameConnection, "send")

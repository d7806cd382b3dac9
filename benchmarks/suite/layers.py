"""Per-layer metrics, measured from the suite by timing calls into public functions.

Three kinds of measurement, all in one interpreter so differences are taken
between numbers from the same process:

* **micro** — one layer's primitive in a tight loop (agenda push/pop, a
  delay draw, a frame encode, ...), reported as time per operation;
* **ladder** — the ``sim-poisson-n4096`` segment run on a real
  :class:`SimulatedCluster` with one ingredient added per rung (relay nodes
  -> open-cube nodes -> uniform delays -> telemetry hub -> fairness census);
  a layer's cost is the difference of two adjacent rungs in host ns per
  event, so the differences telescope to the top rung, which is the
  end-to-end configuration;
* **cells** — short service runs and sharded/serial pairs whose ratio or
  difference isolates one layer (monitor attached vs detached, shards 0/1/2).

:func:`measure_layers` returns ``{metric name: value}`` for every per-layer
metric of ``BENCHMARK.json`` except the ``trace.*`` family.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import os
import random
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.baselines.registry import build_nodes
from repro.core.messages import Message, RequestMessage, TokenMessage
from repro.experiments.runner import run_workload
from repro.runtime import FrameServer, LockClient, PeerLink, RuntimeChaos, SLOMonitor
from repro.runtime.wire import encode_frame, message_to_wire, read_frame, wire_to_message
from repro.scenarios.spec import NetworkFaultSpec
from repro.scenarios.sweep import run_scenario
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.events import TimerExpiry
from repro.simulation.network import ConstantDelay, ParetoDelay, UniformDelay
from repro.simulation.process import Environment, MutexNode
from repro.simulation.sharding import SenderDelayStream
from repro.simulation.simulator import Simulator
from repro.telemetry import LogHistogram

import drivers
import workloads

__all__ = ["measure_layers"]


def _per_op(elapsed_s: float, operations: int, unit: float = 1e9) -> float:
    return elapsed_s * unit / operations


# ----------------------------------------------------------------------
# simulation.simulator
# ----------------------------------------------------------------------
def _agenda_ns(depth: int, events: int) -> float:
    """Bare ``schedule_delivery`` + ``run`` with a no-op handler at fixed heap depth."""
    simulator = Simulator(seed=0)
    schedule = simulator.schedule_delivery

    def handler(delivery) -> None:
        # sent_at carries the entry's own time, so no clock read is billed.
        at = delivery[3] + 1.0
        schedule(at, 0, 0, None, at)

    simulator.set_delivery_handler(handler)
    for slot in range(depth):
        at = slot / depth
        schedule(at, 0, 0, None, at)
    started = time.perf_counter()
    simulator.run(until=events / depth, max_events=None)
    return _per_op(time.perf_counter() - started, simulator.processed_events)


def _timer_ns(timers: int) -> float:
    """``schedule`` a timer, ``cancel`` every other one, fire the rest."""
    simulator = Simulator(seed=0)
    simulator.set_timer_handler(lambda expiry: None)
    started = time.perf_counter()
    for index in range(timers):
        entry = simulator.schedule(
            1.0 + index * 1e-6, TimerExpiry(node=1, timer_id=index, name="t", payload=None)
        )
        if index & 1:
            Simulator.cancel(entry)
    simulator.run()
    return _per_op(time.perf_counter() - started, timers)


# ----------------------------------------------------------------------
# Small loops: network, telemetry, workload, sharding, monitor, faults
# ----------------------------------------------------------------------
def _loop_ns(call: Callable[[], Any], operations: int) -> float:
    started = time.perf_counter()
    for _ in range(operations):
        call()
    return _per_op(time.perf_counter() - started, operations)


def _delay_ns(model, seed: int, draws: int) -> float:
    sampler = model.bind(random.Random(seed))
    return _loop_ns(lambda: sampler(1, 2), draws)


def _sketch_add_ns(seed: int, operations: int) -> float:
    rng = random.Random(seed)
    values = [rng.expovariate(0.1) for _ in range(operations)]
    add = LogHistogram().add
    started = time.perf_counter()
    for value in values:
        add(value)
    return _per_op(time.perf_counter() - started, operations)


def _poisson_ns_per_arrival(spec) -> float:
    stream = spec.workload.build_stream(spec.n)
    started = time.perf_counter()
    count = sum(1 for _ in stream)
    return _per_op(time.perf_counter() - started, count)


def _monitor_ingest_us(events: int) -> float:
    """``SLOMonitor.ingest`` on the event mix one traced grant produces."""
    monitor = SLOMonitor()
    stream = []
    for rid in range(events // 4):
        t = rid * 1e-3
        for offset, kind in enumerate(("issue", "grant", "enter", "exit")):
            stream.append(
                {"type": "event", "e": kind, "node": 1 + rid % 8, "rid": rid,
                 "t": t + offset * 1e-4, "tr": f"{rid:016x}"}
            )
    started = time.perf_counter()
    for event in stream:
        monitor.ingest(event)
    return _per_op(time.perf_counter() - started, len(stream), 1e6)


def _chaos_on_send_ns(network: NetworkFaultSpec, sends: int) -> float:
    chaos = RuntimeChaos(network=network, seed=1)
    return _loop_ns(lambda: chaos.on_send(1, 2, 0.5), sends)


# ----------------------------------------------------------------------
# core: handlers replayed through a stub environment
# ----------------------------------------------------------------------
class _RecordingNode(MutexNode):
    """Hosts a real node and logs every call the cluster makes into it."""

    def __init__(self, inner: MutexNode, log: list) -> None:
        super().__init__(inner.node_id, inner.n)
        self._inner, self._log, self._host = inner, log, None

    def bind(self, env: Environment) -> None:
        self._host = env
        self._inner.bind(env)

    def set_granted_callback(self, callback) -> None:
        self._inner.set_granted_callback(callback)

    @property
    def in_critical_section(self) -> bool:
        return self._inner.in_critical_section

    @in_critical_section.setter
    def in_critical_section(self, value: bool) -> None:
        pass  # MutexNode.__init__ assigns it; the hosted node owns the flag

    def _call(self, hook: str, *args) -> None:
        self._log.append((self.node_id, hook, args, self._host.now))
        getattr(self._inner, hook)(*args)

    def on_message(self, sender, message) -> None:
        self._call("on_message", sender, message)

    def on_timer(self, name, payload=None) -> None:
        self._call("on_timer", name, payload)

    def acquire(self) -> None:
        self._call("acquire")

    def release(self) -> None:
        self._call("release")


class _ReplayEnvironment(Environment):
    """Swallows sends, hands out timer ids the way ``SimEnvironment`` does."""

    def __init__(self, node_id: int, clock: list[float]) -> None:
        self._node_id, self._clock, self._timers = node_id, clock, 0

    node_id = property(lambda self: self._node_id)
    now = property(lambda self: self._clock[0])
    max_delay = property(lambda self: 1.0)

    def send(self, dest, message) -> None:
        pass

    def set_timer(self, delay, name, payload=None) -> int:
        self._timers += 1
        return self._timers

    def cancel_timer(self, timer_id) -> None:
        pass


def _on_message_ns(algorithm: str, seed: int, requests: int, n: int = 256) -> float:
    """Host ns per handler call, replaying a recorded delivery sequence.

    A real run records every call the cluster made into the nodes; fresh
    nodes of the same algorithm then replay that sequence against an
    environment that does nothing, so only handler code is on the clock
    (the ``acquire``/``release``/``on_timer`` calls the sequence needs to
    stay consistent are included in the average).
    """
    log: list = []
    recorded = {
        node_id: _RecordingNode(node, log) for node_id, node in build_nodes(algorithm, n).items()
    }
    _drive(recorded, UniformDelay(0.5, 1.0), "counters", seed, n, requests)

    clock = [0.0]
    fresh = build_nodes(algorithm, n)
    for node_id, node in fresh.items():
        node.bind(_ReplayEnvironment(node_id, clock))
        node.set_granted_callback(lambda node_id: None)
    calls = [(getattr(fresh[node_id], hook), args, at) for node_id, hook, args, at in log]
    started = time.perf_counter()
    for method, args, at in calls:
        clock[0] = at
        method(*args)
    return _per_op(time.perf_counter() - started, len(calls))


# ----------------------------------------------------------------------
# The ladder: one real cluster per rung
# ----------------------------------------------------------------------
class _Relay(Message):
    __slots__ = ("hops",)

    def __init__(self, hops: int) -> None:
        self.hops = hops


class _RelayNode(MutexNode):
    """One-line protocol: bounce a message off a neighbour ``_HOPS`` times.

    Ten messages per request, like the open cube at n = 4096, through a
    handler that does nothing — what is left is agenda + cluster send path.
    """

    _HOPS = 9  # odd, so the last bounce lands back on the requester

    def on_message(self, sender: int, message: _Relay) -> None:
        if message.hops:
            self._env_send(sender, _Relay(message.hops - 1))
        else:
            self.notify_granted()

    def acquire(self) -> None:
        self._env_send(self.node_id % self.n + 1, _Relay(self._HOPS))

    def release(self) -> None:
        self.notify_released()


def _drive(nodes, delay, detail: str, seed: int, n: int, requests: int,
           telemetry: dict | None = None) -> dict[str, float]:
    """Feed the poisson segment to ``nodes`` on a real cluster; ns per event."""
    spec = workloads.by_name("sim-poisson-n4096").build(seed, requests)
    cluster = SimulatedCluster(
        nodes, delay_model=delay, seed=seed, trace=False, metrics_detail=detail,
        telemetry_options=telemetry,
    )
    cluster.feed_workload(spec.workload.build_stream(n), window=spec.feed_window)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    cluster.run_until_quiescent(max_events=None)
    elapsed = time.perf_counter() - started
    return {
        "ns_per_event": _per_op(elapsed, cluster.simulator.processed_events),
        "events": cluster.simulator.processed_events,
        "agenda_peak": cluster.simulator.peak_pending,
        "rss_delta_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) / 1024,
    }


def _ladder(seed: int, requests: int, micro: Callable[[int], int]) -> dict[str, float]:
    n = 4096
    constant, uniform = ConstantDelay(0.75), UniformDelay(0.5, 1.0)
    hub = dict(workloads.TELEMETRY)

    def rung(nodes, delay, detail, telemetry=None):
        return _drive(nodes, delay, detail, seed, n, requests, telemetry)

    def cube(algorithm="open-cube"):
        return build_nodes(algorithm, n)

    rung(cube(), uniform, "counters")  # discarded: first cluster of the interpreter
    agenda = _agenda_ns(64, micro(200_000))
    relay = rung({i: _RelayNode(i, n) for i in range(1, n + 1)}, constant, "counters")
    nodes = rung(cube(), constant, "counters")
    delays = rung(cube(), uniform, "counters")
    ft = rung(cube("open-cube-ft"), uniform, "counters")
    hub_only = rung(cube(), uniform, "telemetry", {**hub, "fairness": False})
    top = rung(cube(), uniform, "telemetry", hub)
    tracing = rung(cube(), uniform, "telemetry", {**hub, "trace_sample": 0.01})
    records = rung(cube(), uniform, "full")  # last: it alone grows the RSS high-water mark

    def step(upper, lower):
        return upper["ns_per_event"] - lower["ns_per_event"]

    return {
        "simulator.push_pop_ns_d64": agenda,
        "simulator.push_pop_ns_d1024": _agenda_ns(1024, micro(200_000)),
        "simulator.timer_ns": _timer_ns(micro(100_000)),
        "simulator.events": top["events"],
        "simulator.agenda_peak": top["agenda_peak"],
        "cluster.relay_ns_per_event": relay["ns_per_event"] - agenda,
        "core.opencube.ns_per_event": step(nodes, relay),
        "core.opencube_ft.ns_per_event": step(ft, delays),
        "network.ns_per_event": step(delays, nodes),
        "telemetry.hub_ns_per_event": step(hub_only, delays),
        "telemetry.fairness_ns_per_event": step(top, hub_only),
        "telemetry.tracing_ns_per_event": step(tracing, top),
        "metrics.records_ns_per_event": step(records, delays),
        "metrics.records_mb": records["rss_delta_mb"],
        # The rungs themselves, so every difference above can be recomputed.
        "ladder.relay_ns_per_event": relay["ns_per_event"],
        "ladder.opencube_ns_per_event": nodes["ns_per_event"],
        "ladder.uniform_ns_per_event": delays["ns_per_event"],
        "ladder.ft_ns_per_event": ft["ns_per_event"],
        "ladder.hub_ns_per_event": hub_only["ns_per_event"],
        "ladder.top_ns_per_event": top["ns_per_event"],
        "ladder.tracing_ns_per_event": tracing["ns_per_event"],
        "ladder.records_ns_per_event": records["ns_per_event"],
    }


# ----------------------------------------------------------------------
# runtime.wire / runtime.transport / runtime.client
# ----------------------------------------------------------------------
def _proto_frame() -> dict[str, Any]:
    """A protocol frame as ``LockServer._send_protocol`` builds it (token hop, traced)."""
    message = TokenMessage(lender=3, loan_id=(3, 1234))
    return {
        "type": "proto", "from": 3, "s": 4321, "i": 0x5EED_CAFE,
        "m": message_to_wire(message, trace_id="0123456789abcdef"),
    }


async def _decode_us(frames: int) -> float:
    blob = encode_frame(_proto_frame()) * frames
    reader = asyncio.StreamReader()
    reader.feed_data(blob)
    reader.feed_eof()
    started = time.perf_counter()
    for _ in range(frames):
        await read_frame(reader)
    return _per_op(time.perf_counter() - started, frames, 1e6)


def _wire(frames: int) -> dict[str, float]:
    frame = _proto_frame()
    messages = (RequestMessage(requester=5, source=7), TokenMessage(lender=3, loan_id=(3, 9)))
    started = time.perf_counter()
    for _ in range(frames // 2):
        for message in messages:
            wire_to_message(message_to_wire(message))
    roundtrip = _per_op(time.perf_counter() - started, frames, 1e6)
    return {
        "wire.encode_us": _loop_ns(lambda: encode_frame(frame), frames) / 1e3,
        "wire.decode_us": asyncio.run(_decode_us(frames)),
        "wire.message_roundtrip_us": roundtrip,
        "wire.frame_bytes": len(encode_frame(frame)),
    }


async def _transport_rtt_us(address_a: str, address_b: str, rounds: int) -> float:
    """Ping-pong between two ``FrameServer``s over a ``PeerLink`` each way —
    the path a protocol hop and its ack take between two lock servers."""
    finished = asyncio.Event()
    remaining = [0]
    links: dict[str, PeerLink] = {}

    async def on_pong(frame, conn) -> None:
        remaining[0] -= 1
        if remaining[0] <= 0:
            finished.set()
        else:
            links["a->b"].send(frame)

    async def on_ping(frame, conn) -> None:
        links["b->a"].send(frame)

    server_a, server_b = FrameServer(address_a, on_pong), FrameServer(address_b, on_ping)
    await server_a.start()
    await server_b.start()
    links["a->b"], links["b->a"] = PeerLink(server_b.address), PeerLink(server_a.address)
    try:
        elapsed = 0.0
        for timed, count in ((False, 50), (True, rounds)):  # first pass connects both links
            finished.clear()
            remaining[0] = count
            started = time.perf_counter()
            links["a->b"].send(_proto_frame())
            await asyncio.wait_for(finished.wait(), timeout=30.0)
            if timed:
                elapsed = time.perf_counter() - started
    finally:
        for link in links.values():
            await link.close()
        await server_a.close()
        await server_b.close()
    return _per_op(elapsed, rounds, 1e6)


def _transport(rounds: int) -> dict[str, float]:
    tcp = "tcp://127.0.0.1:0"
    # Socket files live under the suite (the benchmark writes nowhere else)
    # and are addressed relative to the cwd: sun_path holds 108 bytes.
    scratch = Path(__file__).resolve().parent / ".tmp"
    scratch.mkdir(exist_ok=True)
    sockets = tempfile.mkdtemp(prefix="uds-", dir=scratch)
    try:
        uds = [f"unix://{os.path.relpath(os.path.join(sockets, name))}" for name in "ab"]
        return {
            "transport.rtt_us.tcp": asyncio.run(_transport_rtt_us(tcp, tcp, rounds)),
            "transport.rtt_us.uds": asyncio.run(_transport_rtt_us(*uds, rounds)),
        }
    finally:
        shutil.rmtree(sockets, ignore_errors=True)


async def _stub_acquire_us(rounds: int) -> float:
    """``LockClient.acquire`` against a server that grants at once."""
    replies = {"acquire": "granted", "release": "released"}

    async def grant(frame, conn) -> None:
        conn.send({"type": replies[frame["type"]], "rid": frame["rid"]})

    server = FrameServer("tcp://127.0.0.1:0", grant)
    await server.start()
    try:
        async with LockClient(server.address, client_id=1) as client:
            await client.release(await client.acquire(timeout=10.0))
            spent = 0.0
            for _ in range(rounds):
                started = time.perf_counter()
                rid = await client.acquire(timeout=10.0)
                spent += time.perf_counter() - started
                await client.release(rid)
    finally:
        await server.close()
    return _per_op(spent, rounds, 1e6)


# ----------------------------------------------------------------------
# Cells: records analysis, scenario overhead, sharding, service
# ----------------------------------------------------------------------
def _timed_row(spec) -> tuple[dict[str, Any], float]:
    gc.collect()  # earlier rungs' clusters are not billed to this one
    started = time.perf_counter()
    row = run_scenario(spec)
    return row, time.perf_counter() - started


def _scenario_cells(seed: int, scale: float) -> dict[str, float]:
    records = workloads.by_name("sim-records-n1024")
    spec = records.build(seed, workloads.segment_count(records, scale))
    started = time.perf_counter()
    spec.workload.build(spec.n)
    materialise_s = time.perf_counter() - started
    row, wall = _timed_row(spec)

    poisson = workloads.by_name("sim-poisson-n4096")
    spec = poisson.build(seed, workloads.segment_count(poisson, scale))
    scenario_row, scenario_wall = _timed_row(spec)
    gc.collect()
    started = time.perf_counter()
    result = run_workload(
        spec.algorithm, spec.n, spec.workload.build_stream(spec.n), seed=spec.seed,
        delay_model=spec.delay.build(), metrics_detail=spec.metrics_detail,
        max_events=spec.max_events, stream=True, feed_window=spec.feed_window,
        telemetry=spec.telemetry,
    )
    runner_wall = time.perf_counter() - started
    return {
        "workload.poisson_ns_per_arrival": _poisson_ns_per_arrival(spec),
        "workload.materialise_s": materialise_s,
        "verification.analysis_s": max(
            0.0, wall - row["setup_s"] - row["feed_s"] - row["run_s"] - materialise_s
        ),
        # Each side's own engine time is taken out first, so the difference
        # is what run_scenario adds around run_workload, not run-to-run noise.
        "scenarios.overhead_s": (scenario_wall - scenario_row["run_s"])
        - (runner_wall - result.run_s),
    }


def _sharding_cells(seed: int, scale: float, draws: int) -> dict[str, float]:
    sharded = workloads.by_name("sim-sharded-n16384")
    spec = sharded.build(seed, workloads.segment_count(sharded, scale))
    rows = {shards: run_scenario(spec.with_(shards=shards)) for shards in (0, 1, 2)}
    stream, plain = SenderDelayStream(seed, 1), random.Random(seed)
    return {
        "sharding.serial_tax": rows[1]["events_per_sec"] / rows[0]["events_per_sec"],
        "sharding.speedup_vs_control": rows[2]["events_per_sec"] / rows[1]["events_per_sec"],
        "sharding.sync_rounds": rows[2]["sync_rounds"],
        "sharding.events_per_window": rows[2]["events_per_window"],
        "sharding.merge_s": rows[2]["merge_s"],
        "sharding.worker_setup_s": rows[2]["setup_s"],
        "sharding.delay_stream_ns": _loop_ns(lambda: stream.uniform(0.5, 1.0), draws)
        - _loop_ns(lambda: plain.uniform(0.5, 1.0), draws),
    }


def _service_cells(seed: int, scale: float) -> dict[str, float]:
    def cell(name: str, **changes):
        workload = workloads.by_name(name)
        schedule = workload.build(seed, workloads.segment_count(workload, scale))
        schedule = dataclasses.replace(schedule, **changes)
        return drivers.run_service(schedule, segments=2, setup_probes=0)

    pingpong = cell("svc-pingpong-n8")
    local = cell("svc-local-n8")
    detached = cell("svc-pingpong-n8", monitor=False)
    frames_per_grant = pingpong["metrics"]["msgs_per_request"]
    hop_ms = pingpong["metrics"]["acquire_p50_ms"] - local["metrics"]["acquire_p50_ms"]
    counters = pingpong["exact"]
    return {
        "service.frames_per_grant": frames_per_grant,
        "service.hop_us": hop_ms * 1e3 / frames_per_grant,
        "service.retransmits": counters["retransmits"],
        "service.duplicates_dropped": counters["duplicates_dropped"],
        "service.timer_deferrals": counters["timer_deferrals"],
        "service.tokens_regenerated": counters["tokens_regenerated"],
        "monitor.tax": detached["metrics"]["grants_per_s"] / pingpong["metrics"]["grants_per_s"],
    }


def measure_layers(seed: int, scale: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.*`` (see the module docstring)."""
    def micro(full: int) -> int:
        # Loop lengths are sized for a full-length run and shrink with --smoke.
        return max(200, int(full * min(1.0, 8 * scale)))

    poisson = workloads.by_name("sim-poisson-n4096")
    metrics = _ladder(seed, workloads.segment_count(poisson, scale), micro)
    loops = micro(200_000)
    metrics.update(
        {
            "core.on_message_ns.opencube": _on_message_ns("open-cube", seed, micro(8192)),
            "core.on_message_ns.opencube_ft": _on_message_ns("open-cube-ft", seed, micro(8192)),
            "network.delay_ns.constant": _delay_ns(ConstantDelay(0.75), seed, loops),
            "network.delay_ns.uniform": _delay_ns(UniformDelay(0.5, 1.0), seed, loops),
            "network.delay_ns.pareto": _delay_ns(ParetoDelay(), seed, loops),
            "telemetry.sketch_add_ns": _sketch_add_ns(seed, loops),
            "client.stub_acquire_us": asyncio.run(_stub_acquire_us(micro(3000))),
            "monitor.ingest_us": _monitor_ingest_us(micro(40_000)),
            "faults.on_send_ns.zero": _chaos_on_send_ns(NetworkFaultSpec(), loops),
            "faults.on_send_ns.2pct": _chaos_on_send_ns(
                NetworkFaultSpec(loss_rate=0.02, dup_rate=0.02, seed=seed), loops
            ),
        }
    )
    metrics.update(_wire(micro(20_000)))
    metrics.update(_transport(micro(2000)))
    metrics.update(_scenario_cells(seed, scale))
    metrics.update(_sharding_cells(seed, scale, loops))
    metrics.update(_service_cells(seed, scale))
    return metrics

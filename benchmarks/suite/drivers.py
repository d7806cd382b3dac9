"""Runs one workload and reduces it to the end-to-end metrics.

Two drivers, one per product, with the same shape: run ``segments`` equal
back-to-back segments, report every metric as the **median** over the segments with its
spread (IQR / median) beside it, and collect the named output checks.  A
simulator segment is one full ``ScenarioSpec.run().row()`` call —
:func:`repro.scenarios.sweep.run_scenario` spelt out, so the record-mode
cell can read its waiting times.  Each segment has its own seed, derived
from ``--seed``, so a simulated quantile is a median over five arrival
streams instead of one draw; before them a short *probe* spec is run twice,
as the simulator's warm-up and as the check that one seeded spec simulates
the same thing every time.  A service segment is a slice of one closed loop
against one running cluster.

Both return a plain dict::

    {"attempted", "failed", "problems": [named failed checks],
     "metrics": {name: value}, "spread": {name: IQR/median},
     "exact": {statistics that repeat exactly for a seed}, "samples": {...}}
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import time
from typing import Any, Callable, ContextManager

from repro.core.builders import build_fault_tolerant_nodes
from repro.runtime import AcquireTimeout, LockClient, LockServiceError, SLOMonitor, start_servers
from repro.scenarios.spec import ScenarioSpec

from stats import median_spread, quantile
from workloads import ServiceSchedule

__all__ = ["run_simulation", "run_service"]


def _reduce(samples: dict[str, list[float]]) -> tuple[dict[str, float], dict[str, float]]:
    metrics, spread = {}, {}
    for name, values in samples.items():
        metrics[name], spread[name] = median_spread(values)
    return metrics, spread


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
#: Row fields that are functions of the spec alone; two runs of one spec (or
#: two commits) that disagree on any of them simulated different things.
_SIMULATED = (
    "requests", "requests_granted", "total_messages", "mean_waiting_time",
    "overhead_messages", "failures", "events", "agenda_peak",
    "safety_ok", "liveness_ok", "sync_rounds",
)

#: ``timed`` brackets exactly the timed section of a driver, so a tracer can
#: drop what happens before (set-up, warm-up) and after (teardown).
Timed = Callable[[], ContextManager]


def _simulated_waits(result, row: dict[str, Any]) -> tuple[float, float]:
    """Waiting-time p50/p99 in simulated time: the row's sketch columns in
    telemetry mode, exact order statistics of the records in full mode."""
    if "waiting_p50" in row:
        return row["waiting_p50"], row["waiting_p99"]
    waits = sorted(
        record.waiting_time
        for record in result.result.cluster.metrics.requests.values()
        if record.granted_at is not None
    )
    return quantile(waits, 0.50), quantile(waits, 0.99)


def _simulate(spec: ScenarioSpec, timed: Timed) -> tuple[dict[str, Any], dict[str, float]]:
    """One ``spec.run().row()``: its simulated signature and its host timings."""
    gc.collect()  # the previous cluster is cyclic garbage until collected
    with timed():
        started = time.perf_counter()
        result = spec.run()
        row = result.row()
        wall = time.perf_counter() - started
    signature = {name: row[name] for name in _SIMULATED if name in row}
    signature["acquire_p50"], signature["acquire_p99"] = _simulated_waits(result, row)
    signature["excused"] = row.get("online_checks", {}).get("excused", 0)
    # Timings come from the RunResult: the row rounds them to 0.1 ms.
    run = result.result
    timings = {
        "events_per_s": run.events / run.run_s,
        "grants_per_s": run.requests_granted / run.run_s,
        "wall_s": wall,
        "setup_s": run.setup_s,
    }
    return signature, timings


def run_simulation(specs: list[ScenarioSpec], *, probe: ScenarioSpec | None = None,
                   paper_bound: bool = False,
                   timed: Timed = contextlib.nullcontext) -> dict[str, Any]:
    """Run one segment per spec; ``probe`` is run twice first (see module docstring)."""
    problems = []
    if probe is not None:
        first, second = (_simulate(probe, contextlib.nullcontext)[0] for _ in range(2))
        if first != second:
            problems.append("determinism: two runs of one seeded spec simulated different things")
    signatures, timings = zip(*(_simulate(spec, timed) for spec in specs))
    exact = {name: [signature.get(name) for signature in signatures] for name in signatures[0]}
    metrics, spread = _reduce({name: [t[name] for t in timings] for name in timings[0]})
    issued, granted = sum(exact["requests"]), sum(exact["requests_granted"])
    metrics["msgs_per_request"] = sum(exact["total_messages"]) / max(1, granted)
    for name in ("acquire_p50", "acquire_p99"):
        metrics[f"{name}_ms"], spread[f"{name}_ms"] = median_spread(exact[name])

    for verdict in ("safety_ok", "liveness_ok"):
        if any(value is not True for value in exact[verdict]):
            problems.append(f"{verdict} is {exact[verdict]}")
    failed = issued - granted - sum(exact["excused"])
    if failed:
        problems.append(f"failed_share: {failed} of {issued} requests never granted")
    bound = math.log2(specs[0].n) + 1
    if paper_bound and metrics["msgs_per_request"] > bound:
        problems.append(
            f"paper bound: {metrics['msgs_per_request']:.3f} messages per request "
            f"> log2 n + 1 = {bound:g}"
        )
    return {
        "attempted": issued,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "spread": spread,
        "exact": exact,
        "samples": {"segments": len(specs), "acquire": granted},
    }


# ----------------------------------------------------------------------
# Lock service
# ----------------------------------------------------------------------
async def start_service(schedule: ServiceSchedule) -> dict[str, Any]:
    """Bring up monitor, servers and connected clients; the timed set-up."""
    # Every cluster starts from a collected heap.  Without this exactly one
    # cluster per interpreter (the 4th or 5th started) ran its whole closed
    # loop a third slower than its neighbours; with it none of 32 did.
    gc.collect()
    started = time.perf_counter()
    monitor = None
    if schedule.monitor:
        monitor = SLOMonitor()
        await monitor.start()
    nodes = build_fault_tolerant_nodes(schedule.n, cs_duration_estimate=schedule.hold_s)
    servers = await start_servers(
        nodes, monitor=monitor.address if monitor else None, epoch=time.time()
    )
    clients = [
        LockClient(servers[home].address, client_id=home, seed=schedule.seed + home)
        for home in schedule.homes
    ]
    for client in clients:
        await client.connect()
    return {
        "monitor": monitor, "nodes": nodes, "servers": servers, "clients": clients,
        "setup_s": time.perf_counter() - started,
    }


async def stop_service(service: dict[str, Any]) -> None:
    for client in service["clients"]:
        await client.close()
    for server in service["servers"].values():
        await server.stop()
    if service["monitor"] is not None:
        await service["monitor"].close()


def _peer_frames(servers) -> int:
    """Protocol + ack frames written to peer links so far (public status only)."""
    return sum(
        link["sent"] for server in servers.values() for link in server.status()["links"].values()
    )


async def _caller(client: LockClient, schedule: ServiceSchedule, rounds: int,
                  latencies: list[float], failures: dict[str, int]) -> None:
    for _ in range(rounds):
        started = time.perf_counter()
        try:
            rid = await client.acquire(timeout=schedule.deadline_s)
            latencies.append(time.perf_counter() - started)
            if schedule.hold_s:
                await asyncio.sleep(schedule.hold_s)
            await client.release(rid)
        except AcquireTimeout:
            failures["timeouts"] += 1
        except LockServiceError:
            failures["errors"] += 1


async def _service_cell(schedule: ServiceSchedule, segments: int, setup_probes: int,
                        timed: Timed) -> dict[str, Any]:
    setups = []
    for _ in range(setup_probes):
        probe = await start_service(schedule)
        setups.append(probe["setup_s"])
        await stop_service(probe)
    service = await start_service(schedule)
    setups.append(service["setup_s"])
    servers, clients = service["servers"], service["clients"]
    failures = {"timeouts": 0, "errors": 0}
    try:
        # One discarded warm-up cell: the first timed cell of a fresh
        # interpreter runs measurably slower than every later one.
        await asyncio.gather(
            *(_caller(c, schedule, schedule.warmup_rounds, [], failures) for c in clients)
        )
        samples: dict[str, list[float]] = {
            name: [] for name in
            ("events_per_s", "grants_per_s", "wall_s", "acquire_p50_ms", "acquire_p99_ms")
        }
        grants = frames = 0
        for _ in range(segments):
            latencies: list[float] = []
            peer_before = _peer_frames(servers)
            with timed():
                started = time.perf_counter()
                await asyncio.gather(
                    *(_caller(c, schedule, schedule.rounds, latencies, failures) for c in clients)
                )
                wall = time.perf_counter() - started
            # acquire, granted, release, released on the client link of every round.
            segment_frames = _peer_frames(servers) - peer_before + 4 * len(latencies)
            latencies.sort()
            grants += len(latencies)
            frames += segment_frames
            samples["events_per_s"].append(segment_frames / wall)
            samples["grants_per_s"].append(len(latencies) / wall)
            samples["wall_s"].append(wall)
            samples["acquire_p50_ms"].append(quantile(latencies, 0.50) * 1e3 if latencies else 0.0)
            samples["acquire_p99_ms"].append(quantile(latencies, 0.99) * 1e3 if latencies else 0.0)
        await asyncio.sleep(0.3)  # let trailing events reach the monitor
        monitor = service["monitor"]
        violations = None
        if monitor is not None:
            monitor.finalize()
            violations = monitor.report()["safety"]["violations"]
        counters = {
            key: sum(server.status()[key] for server in servers.values())
            for key in ("retransmits", "duplicates_dropped", "timer_deferrals")
        }
        counters["tokens_regenerated"] = sum(
            getattr(node, "tokens_regenerated", 0) for node in service["nodes"].values()
        )
    finally:
        await stop_service(service)

    attempted = segments * schedule.rounds * len(clients)
    failed = attempted - grants  # timeouts + errors + anything unresolved
    metrics, spread = _reduce(samples)
    metrics["setup_s"], spread["setup_s"] = median_spread(setups)
    metrics["msgs_per_request"] = frames / max(1, grants)

    problems = []
    if violations:
        problems.append(f"safety: the live monitor reported {violations} violation(s)")
    if failed:
        problems.append(f"failed_share: {failed} of {attempted} acquires not granted ({failures})")
    for key in ("retransmits", "tokens_regenerated"):
        if counters[key]:
            problems.append(f"service.{key} is {counters[key]} on a clean run")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "spread": spread,
        "exact": {"grants": grants, "safety_violations": violations, **counters},
        "samples": {
            "segments": segments,
            "acquire": grants,
            "beyond_p99_per_segment": len(latencies) - math.ceil(0.99 * len(latencies)),
        },
    }


def run_service(schedule: ServiceSchedule, segments: int, *, setup_probes: int = 4,
                timed: Timed = contextlib.nullcontext) -> dict[str, Any]:
    return asyncio.run(_service_cell(schedule, segments, setup_probes, timed))

"""The benchmark's workloads as one data table.

Every workload is a row of :data:`WORKLOADS`: a name, the nominal number of
requests of a full-length run, a builder that turns ``(seed, count)`` into
what the program under test is handed — a :class:`ScenarioSpec` for the
simulator, a :class:`ServiceSchedule` for the lock service — one sentence on
why the row exists, and the layers expected to dominate it.  ``run.py``
iterates the table and has no per-workload code path; ``layers.py`` borrows
three rows' specs by name for its ladder and cells.

Shared simulator settings, stated once: ``UniformDelay(0.5, 1.0)`` (one
simulated time unit is read as one millisecond, so waits are ``ms`` of
*simulated* time), critical-section hold ``0.1``, no trace collection.
Poisson rate ``0.2`` is the highest of {0.1, 0.2, 0.3, 0.5} at which the
open cube keeps a bounded backlog at n = 4096 (wait p99 28 at 0.2, 16 876
at 0.3), so the waiting-time quantiles mean something.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.scenarios.spec import DelaySpec, FailureSpec, ScenarioSpec, WorkloadSpec

__all__ = [
    "NOMINAL_SECONDS", "SEGMENTS", "TELEMETRY", "ServiceSchedule", "Workload", "WORKLOADS",
    "by_name", "segment_count",
]

#: ``--seconds`` value the nominal request counts are sized for on the
#: 2-core reference box; other values scale the counts linearly.
NOMINAL_SECONDS = 8

#: A run is this many equal back-to-back segments; every timing metric is
#: the median over them (see the README, "How a run is measured").
SEGMENTS = 5

DELAY = DelaySpec("uniform", {"low": 0.5, "high": 1.0})
HOLD = 0.1
RATE = 0.2

#: Quantile sketches 25x finer than the library default (0.1 % relative
#: error instead of 2.5 %), so a waiting-time quantile moves when the
#: distribution moves instead of jumping between 5 %-wide buckets.
TELEMETRY = {"sketch_growth": 1.002}


@dataclass(frozen=True)
class ServiceSchedule:
    """One closed-loop client schedule against an in-process lock service.

    ``homes`` lists the home node of each client connection; every
    connection has one caller that does ``rounds`` acquire/release rounds
    per segment and waits for each reply before sending the next request
    (callers wait for the lock, hence closed loop).  ``seed`` seeds the
    clients' retry jitter — the only randomness a clean run could draw on.
    """

    n: int
    homes: tuple[int, ...]
    rounds: int
    seed: int
    hold_s: float = 0.0
    deadline_s: float = 10.0
    warmup_rounds: int = 50
    monitor: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    requests: int
    build: Callable[[int, int], "ScenarioSpec | ServiceSchedule"]
    why: str
    layers: tuple[str, ...]
    #: Failure-free open-cube cells must stay under the paper's bound of
    #: ``log2 n + 1`` messages per request on average.
    paper_bound: bool = False
    #: ``build`` returns a :class:`ServiceSchedule`, not a :class:`ScenarioSpec`.
    service: bool = False


def _poisson(count: int, seed: int, rate: float = RATE) -> WorkloadSpec:
    return WorkloadSpec("poisson", {"count": count, "rate": rate, "hold": HOLD, "seed": seed})


def _sim(algorithm: str, n: int, workload: WorkloadSpec, seed: int, **fields) -> ScenarioSpec:
    fields.setdefault("metrics_detail", "telemetry")
    fields.setdefault("stream", True)
    if fields["metrics_detail"] == "telemetry":
        fields.setdefault("telemetry", dict(TELEMETRY))
    return ScenarioSpec(algorithm, n, workload, delay=DELAY, seed=seed, **fields)


def _poisson_n4096(seed: int, count: int) -> ScenarioSpec:
    return _sim("open-cube", 4096, _poisson(count, seed), seed)


def _records_n1024(seed: int, count: int) -> ScenarioSpec:
    return _sim(
        "open-cube", 1024, _poisson(count, seed), seed, metrics_detail="full", stream=False
    )


#: The fault cell runs at a tenth of the Poisson rate of the others.  A
#: crash that takes the token with it stalls every requester for one
#: suspicion period, ``2n(e + 2*delta)`` = 6 144 time units at n = 1024; at
#: rate 0.2 that one stall delays 1 229 requests — 1.9 % of a 65 536-request
#: run, so the p99 wait read 21 on most seeds and 6 678 on a third of them.
#: At rate 0.02 the same stall touches 0.19 % and p99 stays a property of
#: the algorithm rather than of which node the planner happened to pick.
FT_RATE = 0.02
FT_CRASH_SPACING = 30_000.0


def _ftcrash_n1024(seed: int, count: int) -> ScenarioSpec:
    n = 1024
    crashes = max(1, int(count / FT_RATE / FT_CRASH_SPACING))
    failures = FailureSpec(
        "periodic",
        {"count": crashes, "start": 50, "spacing": FT_CRASH_SPACING, "recover_after": 40},
        seed=seed,
        # bench_scale.failure_thresholds(n): a stall may last a few suspicion
        # periods; eight means regeneration itself is broken.
        liveness_thresholds={"max_grant_gap": 8.0 * 2.0 * n * (1.0 + 2.0 * 1.0)},
    )
    return _sim("open-cube-ft", n, _poisson(count, seed, FT_RATE), seed, failures=failures)


def _broadcast_ra256(seed: int, count: int) -> ScenarioSpec:
    return _sim("ricart-agrawala", 256, _poisson(count, seed), seed)


#: Half the Poisson rate of the unsharded cells: a few thousand requests on
#: 16 384 nodes never leave the start-up transient, and at rate 0.2 their
#: p99 wait moved 8-9 % from seed to seed (2 % at 0.1) while events/s, sync
#: rounds and events per window read the same at both rates.
SHARDED_RATE = 0.1


def _sharded_n16384(seed: int, count: int) -> ScenarioSpec:
    return _sim(
        "open-cube", 16384, _poisson(count, seed, SHARDED_RATE), seed,
        shards=2, shard_by="cube", shard_window="seam",
    )


def _service(homes: tuple[int, ...]) -> Callable[[int, int], ServiceSchedule]:
    def build(seed: int, count: int) -> ServiceSchedule:
        return ServiceSchedule(
            n=8, homes=homes, rounds=max(1, count // len(homes)), seed=seed
        )

    return build


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "sim-poisson-n4096", 131_072, _poisson_n4096,
        "open-cube at n=4096, streamed, telemetry: the paper's algorithm in its intended "
        "regime and the scale path every sweep uses",
        ("simulation.simulator", "simulation.cluster", "core", "simulation.network", "telemetry"),
        paper_bound=True,
    ),
    Workload(
        "sim-records-n1024", 131_072, _records_n1024,
        "same engine with an eager workload and full records: moves only when records, "
        "materialisation or the record-based analysis change",
        ("simulation.metrics", "workload", "verification", "core"),
        paper_bound=True,
    ),
    Workload(
        "sim-ftcrash-n1024", 65_536, _ftcrash_n1024,
        "open-cube-ft under a periodic crash/recover schedule: fault-tolerant handlers, "
        "timers and the failure planner do the work",
        ("core", "simulation.simulator"),
    ),
    Workload(
        "sim-broadcast-ra256", 4_096, _broadcast_ra256,
        "ricart-agrawala at n=256, 510 messages per request through a trivial handler: "
        "agenda, send path and delay draw only; bypasses all open-cube code",
        ("simulation.simulator", "simulation.cluster", "simulation.network"),
    ),
    Workload(
        "sim-sharded-n16384", 12_800, _sharded_n16384,
        "open-cube at n=16384 on two cube-aligned shards: the only cell where window "
        "sync, pipe IPC, merge and worker set-up matter",
        ("simulation.sharding",),
        paper_bound=True,
    ),
    Workload(
        "svc-pingpong-n8", 12_000, _service((1, 8)),
        "8 lock servers on loopback TCP, two closed-loop clients homed on nodes 1 and 8: "
        "every acquire moves the token across peer links",
        ("runtime.service", "runtime.transport", "runtime.wire", "runtime.monitor", "core"),
        service=True,
    ),
    Workload(
        "svc-local-n8", 20_000, _service((1,)),
        "same servers, one client on node 1: the token never moves, so client, wire and "
        "server loop do all the work and peer links none",
        ("runtime.client", "runtime.wire", "runtime.service", "runtime.monitor"),
        service=True,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")


def segment_count(workload: Workload, scale: float) -> int:
    """Requests in one segment of ``workload`` at length ``scale``."""
    return max(2, math.ceil(workload.requests * scale / SEGMENTS))

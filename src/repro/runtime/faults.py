"""Runtime chaos injection: the adversarial fault layer on the real event loop.

Message faults (seeded loss, duplication and partition/heal windows) are
decided by :meth:`~repro.simulation.network.NetworkFaults.decide`, the one
decision the simulator's send path and
:class:`~repro.runtime.asyncio_cluster.AsyncioCluster` also ask.  This
module wraps it for :class:`~repro.runtime.service.LockServer` and adds the
one fault the runtime can express that the fault layer cannot: node
**crash/restart** injection against live servers.

A :class:`RuntimeChaos` builds its ``NetworkFaults`` from the same
declarative :class:`~repro.scenarios.spec.NetworkFaultSpec` used by
scenarios and the fuzzer, maps each decision onto a wire verdict
(:data:`SEND`, :data:`DROP`, :data:`DUPLICATE`) with its own counters, and
carries a :class:`CrashPlan` schedule.  Partition windows and crash times
are in *service time* (seconds since the shared service epoch), so a chaos
config is one reproducible, serialisable object.

Chaos only ever touches **protocol** links (server ↔ server).  Client
connections and monitor event links stay reliable: the point is to stress
the algorithm, not to blind the observer measuring it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.exceptions import ConfigurationError
from repro.scenarios.spec import NetworkFaultSpec
from repro.simulation.network import DUPLICATE, LOSS, PARTITION

__all__ = ["CrashPlan", "RuntimeChaos", "SEND", "DROP", "DUPLICATE"]

#: Verdicts of :meth:`RuntimeChaos.on_send`; ``DUPLICATE`` is the fault
#: layer's own verdict.
SEND = "send"
DROP = "drop"


@dataclass(frozen=True)
class CrashPlan:
    """One injected fail-stop crash: ``node`` dies at ``at``, restarts at
    ``recover_at`` (``None`` = never — the node stays down)."""

    node: int
    at: float
    recover_at: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ConfigurationError(
                f"node {self.node}: recover_at {self.recover_at} must be after crash at {self.at}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "at": self.at, "recover_at": self.recover_at}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CrashPlan":
        return cls(
            node=data["node"], at=data["at"], recover_at=data.get("recover_at")
        )


class RuntimeChaos:
    """Seeded chaos configuration for one lock-service run.

    Each server builds its *own* :class:`RuntimeChaos` from the same spec:
    the fault RNG only advances on that server's sends, so one server's
    traffic pattern never perturbs another's fault sequence (mirroring the
    simulator's dedicated fault RNG).

    Args:
        network: declarative loss/dup/partition spec (``None`` = no message
            faults).  Partition window times are service-time seconds.
        crashes: :class:`CrashPlan` items; each server applies the entries
            naming its own node.
        seed: extra seed folded into the fault RNG (so two runs of the same
            spec can differ deliberately).
    """

    def __init__(
        self,
        *,
        network: NetworkFaultSpec | None = None,
        crashes: Iterable[CrashPlan] = (),
        seed: int = 0,
    ) -> None:
        self.network = network
        self.crashes = tuple(crashes)
        self.seed = seed
        self.faults = (
            replace(network, seed=network.seed ^ seed).build()
            if network is not None and network.enabled
            else None
        )
        self.lost = 0
        self.duplicated = 0
        self.blocked = 0

    @property
    def enabled(self) -> bool:
        return self.faults is not None or bool(self.crashes)

    def on_send(self, sender: int, dest: int, now: float) -> str:
        """Decide the fate of one protocol message (service time ``now``).

        The verdict is :meth:`NetworkFaults.decide`'s, counted here:
        a partition or a loss is a :data:`DROP`.
        """
        faults = self.faults
        if faults is None:
            return SEND
        fault = faults.decide(sender, dest, now)
        if fault is None:
            return SEND
        if fault == PARTITION:
            self.blocked += 1
        elif fault == LOSS:
            self.lost += 1
        else:
            self.duplicated += 1
            return DUPLICATE
        return DROP

    def crashes_for(self, node: int) -> tuple[CrashPlan, ...]:
        """The crash plan entries targeting ``node``."""
        return tuple(plan for plan in self.crashes if plan.node == node)

    def last_heal_time(self) -> float:
        """Latest finite partition heal time (0.0 without partitions)."""
        return self.faults.last_heal_time() if self.faults is not None else 0.0

    def last_recovery_time(self) -> float:
        """Latest scheduled crash recovery (0.0 without restarts)."""
        times = [p.recover_at for p in self.crashes if p.recover_at is not None]
        return max(times, default=0.0)

    def counters(self) -> dict[str, int]:
        return {
            "lost_messages": self.lost,
            "duplicated_messages": self.duplicated,
            "blocked_messages": self.blocked,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "network": self.network.to_dict() if self.network is not None else None,
            "crashes": [plan.to_dict() for plan in self.crashes],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RuntimeChaos":
        network = data.get("network")
        return cls(
            network=NetworkFaultSpec.from_dict(network) if network else None,
            crashes=tuple(CrashPlan.from_dict(c) for c in data.get("crashes", ())),
            seed=data.get("seed", 0),
        )

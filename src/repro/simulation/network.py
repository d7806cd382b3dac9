"""Network models for the simulator.

The paper's system model is: reliable channels (no loss, no corruption),
asynchronous communication with finite but unpredictable delay, channels that
may or may not be FIFO, and — for the fault-tolerance layer — a known upper
bound ``delta`` on the transmission delay between non-failed nodes.

A :class:`DelayModel` turns that model into numbers: it samples a delay for
each message and exposes the bound ``delta`` (``max_delay``) that the failure
detectors rely on.

:class:`NetworkFaults` deliberately steps *outside* that model: seeded
message loss, duplication and partition/heal windows — the adversarial edges
the paper's fail-stop analysis does **not** cover.  The fuzzer
(:mod:`repro.fuzz`) uses it to probe the boundary of the paper's claims.
:meth:`NetworkFaults.decide` is the one fault decision every host asks per
message — the simulator's send path, the asyncio cluster and the lock
service's chaos filter: a severing partition first (no RNG draw), then the
loss draw, then the duplication draw.  A host without a fault layer never
calls it, so fault-free runs draw nothing extra and stay bit-identical.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.exceptions import ConfigurationError

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "PerHopDelay",
    "ParetoDelay",
    "ChannelState",
    "PartitionWindow",
    "NetworkFaults",
    "PARTITION",
    "LOSS",
    "DUPLICATE",
]

#: Verdicts of :meth:`NetworkFaults.decide` (``None`` means deliver once).
#: Each is also the ``fault`` name the simulator's trace and the causal
#: trace recorder attach to the affected message.
PARTITION = "partition"
LOSS = "loss"
DUPLICATE = "duplicate"


class DelayModel(abc.ABC):
    """Samples per-message transmission delays.

    Attributes:
        max_delay: the bound ``delta`` guaranteed by the underlying
            communication service.  Sampled delays never exceed it.
    """

    max_delay: float

    @abc.abstractmethod
    def sample(self, sender: int, dest: int, rng: random.Random) -> float:
        """Return the transmission delay of one message from sender to dest."""

    @abc.abstractmethod
    def min_delay(self) -> float:
        """A guaranteed lower bound on every value :meth:`sample` can return.

        This is the conservative *lookahead* of the model: a message sent at
        time ``t`` never arrives before ``t + min_delay()``, for any sender /
        destination pair and any RNG state.  The sharded single-run engine
        (:mod:`repro.simulation.sharding`) synchronises its shards exactly
        this far apart, so the bound must be *true* — an optimistic value
        here silently breaks causality across shards.  Models whose support
        reaches down to 0 must return ``0.0`` (they then provide no usable
        lookahead and cannot drive a sharded run).
        """

    def bind(self, rng: random.Random) -> Callable[[int, int], float]:
        """Return a sampler closure ``f(sender, dest)`` over ``rng``.

        The cluster calls the bound sampler once per message; subclasses
        with trivial distributions override this to close over locals and
        skip per-call attribute lookups.  Bound samplers draw from ``rng``
        exactly as :meth:`sample` does, so determinism is unaffected.

        ``rng`` only needs the ``random()``/``uniform()`` surface the model
        actually draws from — the sharded engine passes a counter-based
        per-sender stream here instead of a :class:`random.Random`.
        """
        return lambda sender, dest: self.sample(sender, dest, rng)

    def validate(self) -> None:
        """Check the configured bounds; raise ConfigurationError when invalid."""
        if self.max_delay <= 0:
            raise ConfigurationError(
                f"max_delay must be positive, got {self.max_delay}"
            )
        lower = self.min_delay()
        if lower < 0:
            raise ConfigurationError(
                f"min_delay() must be >= 0, got {lower}"
            )
        if lower > self.max_delay:
            raise ConfigurationError(
                f"min_delay() {lower} exceeds max_delay {self.max_delay}; "
                "the lookahead bound must be a true lower bound of sample()"
            )


@dataclass
class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    delay: float = 1.0

    def __post_init__(self) -> None:
        self.max_delay = self.delay
        self.validate()

    def sample(self, sender: int, dest: int, rng: random.Random) -> float:
        return self.delay

    def min_delay(self) -> float:
        return self.delay

    def bind(self, rng: random.Random) -> Callable[[int, int], float]:
        delay = self.delay
        return lambda sender, dest: delay


@dataclass
class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]``; ``high`` is ``delta``."""

    low: float = 0.5
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ConfigurationError(
                f"invalid uniform delay bounds [{self.low}, {self.high}]"
            )
        self.max_delay = self.high
        self._span = self.high - self.low
        self.validate()

    def sample(self, sender: int, dest: int, rng: random.Random) -> float:
        # Same float expression as random.Random.uniform (low + (high-low)*r)
        # without the extra frame; sampled values are bit-identical.
        return self.low + self._span * rng.random()

    def min_delay(self) -> float:
        # random() is in [0, 1), so low itself is attainable; a low of 0
        # honestly reports "no lookahead" rather than a fake epsilon.
        return self.low

    def bind(self, rng: random.Random) -> Callable[[int, int], float]:
        low = self.low
        span = self._span
        rand = rng.random
        return lambda sender, dest: low + span * rand()


@dataclass
class PerHopDelay(DelayModel):
    """Delay proportional to the hypercube (Hamming) distance of the labels.

    This loosely models the iPSC/2 testbed of the paper's conclusion, where
    messages between distant hypercube corners traverse more physical links.
    The delay is ``base * hamming(sender-1, dest-1)`` plus a uniform jitter,
    capped at ``max_delay``.
    """

    base: float = 0.2
    jitter: float = 0.1
    dimensions: int = 5

    def __post_init__(self) -> None:
        if self.base <= 0 or self.jitter < 0 or self.dimensions < 1:
            raise ConfigurationError(
                "PerHopDelay requires base > 0, jitter >= 0, dimensions >= 1"
            )
        self.max_delay = self.base * self.dimensions + self.jitter
        self.validate()

    def sample(self, sender: int, dest: int, rng: random.Random) -> float:
        hops = bin((sender - 1) ^ (dest - 1)).count("1")
        hops = max(1, min(hops, self.dimensions))
        return min(self.max_delay, self.base * hops + rng.uniform(0.0, self.jitter))

    def min_delay(self) -> float:
        # Hops are clamped to >= 1 and the jitter draw is >= 0, so every
        # sample is >= base (the cap max_delay = base*dimensions + jitter
        # never truncates below one hop's base).
        return self.base


@dataclass
class ParetoDelay(DelayModel):
    """Heavy-tail (truncated Pareto) delays, capped at ``cap``.

    Most messages arrive around ``scale``; a minority straggle with a
    power-law tail of index ``alpha`` (smaller = heavier).  The truncation at
    ``cap`` keeps ``max_delay`` (the paper's ``delta``) finite so the failure
    detectors' timeouts remain well defined — the adversarial part is the
    tail shape, not an unbounded delay.
    """

    alpha: float = 1.5
    scale: float = 0.2
    cap: float = 8.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.scale <= 0 or self.cap <= self.scale:
            raise ConfigurationError(
                "ParetoDelay requires alpha > 0, scale > 0 and cap > scale"
            )
        self.max_delay = self.cap
        self._inv_alpha = 1.0 / self.alpha
        self.validate()

    def sample(self, sender: int, dest: int, rng: random.Random) -> float:
        # Inverse-CDF sampling; rng.random() is in [0, 1) so 1-u is in (0, 1].
        return min(self.cap, self.scale / (1.0 - rng.random()) ** self._inv_alpha)

    def min_delay(self) -> float:
        # 1-u is in (0, 1] so scale/(1-u)**inv_alpha >= scale, and the
        # constructor guarantees cap > scale — the truncation never cuts
        # below the distribution's lower endpoint.
        return self.scale

    def bind(self, rng: random.Random) -> Callable[[int, int], float]:
        scale = self.scale
        cap = self.cap
        inv_alpha = self._inv_alpha
        rand = rng.random
        return lambda sender, dest: min(cap, scale / (1.0 - rand()) ** inv_alpha)


class ChannelState:
    """Per-ordered-pair channel bookkeeping.

    When ``fifo`` is ``True`` the delivery time of a message is forced to be
    at least the delivery time of the previously sent message on the same
    channel, so messages between the same pair of nodes arrive in sending
    order.  When ``False`` (the paper's default assumption: "messages can be
    delivered out of order") each message gets an independent delay.
    """

    def __init__(self, fifo: bool = False) -> None:
        self.fifo = fifo
        self._last_delivery: dict[tuple[int, int], float] = {}

    def delivery_time(self, sender: int, dest: int, send_time: float, delay: float) -> float:
        """Compute the delivery time of a message and update channel state."""
        arrival = send_time + delay
        if self.fifo:
            key = (sender, dest)
            arrival = max(arrival, self._last_delivery.get(key, 0.0))
            self._last_delivery[key] = arrival
        return arrival

    def reset(self) -> None:
        """Forget all channel history (used when a simulation is reset)."""
        self._last_delivery.clear()


@dataclass(frozen=True)
class PartitionWindow:
    """One partition interval: ``nodes`` are cut off from the complement.

    While ``start <= now < heal`` every message between a node inside
    ``nodes`` and a node outside it (either direction) is blocked; messages
    already in transit when the partition starts still deliver — a real
    partition severs links, it does not reach into queues.  ``heal`` may be
    ``math.inf`` for a partition that never heals.
    """

    start: float
    heal: float
    nodes: frozenset[int]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(
                f"partition start must be >= 0, got {self.start}"
            )
        if not self.heal > self.start:
            raise ConfigurationError(
                f"partition heal time {self.heal} must be after its start {self.start}"
            )
        if not self.nodes:
            raise ConfigurationError("a partition needs at least one node")

    def severs(self, sender: int, dest: int, now: float) -> bool:
        """Whether a message from ``sender`` to ``dest`` at ``now`` is cut."""
        return (
            self.start <= now < self.heal
            and (sender in self.nodes) != (dest in self.nodes)
        )


class NetworkFaults:
    """Seeded adversarial message faults: loss, duplication, partitions.

    These are exactly the behaviours the paper's system model rules out
    (reliable channels), kept strictly separate from the fail-stop
    :mod:`~repro.simulation.failures` layer so the boundary of the paper's
    claims stays explicit.  All randomness comes from a dedicated RNG seeded
    here — never the simulator's — so enabling faults does not perturb the
    delay/workload sampling of the underlying run, and a given
    ``(run seed, fault seed)`` pair is exactly reproducible.

    Args:
        loss_rate: probability in ``[0, 1)`` that a sent message silently
            vanishes in transit.
        dup_rate: probability in ``[0, 1)`` that a delivered message is
            delivered a second time, with an independently sampled delay
            (duplicates bypass FIFO ordering — that is the adversarial
            point).
        partitions: :class:`PartitionWindow` items; overlapping windows
            compose (a message is blocked if *any* active window severs it).
        seed: seed of the fault RNG.
    """

    __slots__ = ("loss_rate", "dup_rate", "partitions", "seed", "rng")

    def __init__(
        self,
        *,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        partitions: Iterable[PartitionWindow] = (),
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        if not 0.0 <= dup_rate < 1.0:
            raise ConfigurationError(
                f"dup_rate must be in [0, 1), got {dup_rate}"
            )
        self.loss_rate = loss_rate
        self.dup_rate = dup_rate
        self.partitions = tuple(partitions)
        for window in self.partitions:
            if not isinstance(window, PartitionWindow):
                raise ConfigurationError(
                    f"partitions must be PartitionWindow items, got {window!r}"
                )
        self.seed = seed
        self.rng = random.Random(seed)

    @property
    def enabled(self) -> bool:
        """Whether any fault is actually configured (else a host never asks
        :meth:`decide`)."""
        return bool(self.loss_rate or self.dup_rate or self.partitions)

    def decide(self, sender: int, dest: int, now: float) -> str | None:
        """The network's verdict on one message ``sender -> dest`` at ``now``.

        Returns :data:`PARTITION` when an active window severs the pair —
        decided with no RNG draw, so the fault RNG stream only depends on
        the messages that reach the lossy link — else :data:`LOSS` on the
        loss draw, else :data:`DUPLICATE` on the duplication draw, else
        ``None`` (deliver once).  A zero rate draws nothing.
        """
        for window in self.partitions:
            if window.severs(sender, dest, now):
                return PARTITION
        if self.loss_rate and self.rng.random() < self.loss_rate:
            return LOSS
        if self.dup_rate and self.rng.random() < self.dup_rate:
            return DUPLICATE
        return None

    def validate_nodes(self, n: int) -> None:
        """Check every partition only names nodes in ``1..n``."""
        for window in self.partitions:
            bad = [node for node in window.nodes if not 1 <= node <= n]
            if bad:
                raise ConfigurationError(
                    f"partition names node(s) {sorted(bad)} outside 1..{n}"
                )
            if len(window.nodes) >= n:
                raise ConfigurationError(
                    "a partition must leave at least one node on the other "
                    f"side; {len(window.nodes)} nodes named with n={n}"
                )

    def last_heal_time(self) -> float:
        """The latest finite heal time, 0.0 when there are no partitions.

        ``math.inf`` heals are excluded: a never-healing partition has no
        heal event to wait for.
        """
        finite = [w.heal for w in self.partitions if not math.isinf(w.heal)]
        return max(finite, default=0.0)

"""Abstractions shared by every mutual-exclusion algorithm implementation.

Algorithm nodes are written *sans-I/O*: they are plain state machines that
react to messages, timers and local application calls, and perform all their
effects through an :class:`Environment`.  The same node classes therefore run
unchanged on the deterministic simulator (tests, benchmarks) and on the
asyncio runtime (examples).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable

from repro.core.messages import Message

__all__ = ["Environment", "MutexNode"]


class Environment(abc.ABC):
    """Effect interface injected into every node.

    The environment is the node's only way to interact with the outside
    world: sending messages, reading the clock and managing timers.  The
    paper's model (asynchronous reliable channels, known delay bound
    ``delta``) is realised behind this interface by the simulator or by the
    asyncio runtime.
    """

    @property
    @abc.abstractmethod
    def node_id(self) -> int:
        """Identity of the node this environment belongs to."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time (simulated or wall-clock seconds)."""

    @property
    @abc.abstractmethod
    def max_delay(self) -> float:
        """The bound ``delta`` on message transmission delay."""

    @abc.abstractmethod
    def send(self, dest: int, message: Message) -> None:
        """Send ``message`` to node ``dest`` (asynchronous, reliable)."""

    @abc.abstractmethod
    def set_timer(self, delay: float, name: str, payload: Any = None) -> Any:
        """Arm a timer; returns a handle usable with :meth:`cancel_timer`.

        The handle is **opaque** and never ``None``: a node may keep it,
        hand it back to :meth:`cancel_timer` and compare it to ``None``,
        nothing else.  The simulator returns the agenda entry itself, the
        asyncio and lock-service hosts return ints.
        """

    @abc.abstractmethod
    def cancel_timer(self, timer_id: Any) -> None:
        """Cancel a timer by the handle :meth:`set_timer` returned.

        A no-op when the timer already fired or was already cancelled.
        """


class MutexNode(abc.ABC):
    """Base class of every mutual exclusion node implementation.

    Lifecycle: construct, :meth:`bind` to an environment, then feed events
    through :meth:`on_message` / :meth:`on_timer` and the local application
    calls :meth:`acquire` / :meth:`release`.

    Subclasses signal critical-section entry by calling
    :meth:`notify_granted`, which forwards to the callback registered by the
    hosting cluster or workload driver.

    The base class (and the failure-free open-cube node) declare
    ``__slots__``: node state is read on every simulated event, and slot
    access is measurably cheaper than instance-dict access.  Subclasses may
    freely omit ``__slots__`` (they then get a ``__dict__`` as usual).
    """

    __slots__ = ("node_id", "n", "_env", "_env_send", "_granted_callback", "in_critical_section")

    def __init__(self, node_id: int, n: int) -> None:
        self.node_id = node_id
        self.n = n
        self._env: Environment | None = None
        self._env_send: Callable[[int, Message], None] | None = None
        self._granted_callback: Callable[[int], None] | None = None
        self.in_critical_section = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, env: Environment) -> None:
        """Attach the node to its environment (called once by the host)."""
        self._env = env
        # Cache the send callable: `self._env_send(dest, msg)` is the
        # hot-path form of `self.env.send(dest, msg)` (no property frame).
        self._env_send = env.send

    @property
    def env(self) -> Environment:
        """The bound environment; raises if :meth:`bind` was never called."""
        if self._env is None:
            raise RuntimeError(f"node {self.node_id} is not bound to an environment")
        return self._env

    def set_granted_callback(self, callback: Callable[[int], None]) -> None:
        """Register the callable invoked when this node enters the CS."""
        self._granted_callback = callback

    def notify_granted(self) -> None:
        """Mark CS entry and invoke the granted callback (if any)."""
        self.in_critical_section = True
        if self._granted_callback is not None:
            self._granted_callback(self.node_id)

    def notify_released(self) -> None:
        """Mark CS exit (subclasses call this from :meth:`release`)."""
        self.in_critical_section = False

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_message(self, sender: int, message: Message) -> None:
        """Handle a protocol message delivered to this node."""

    def on_timer(self, name: str, payload: Any = None) -> None:
        """Handle a timer expiry (default: ignore; failure-free nodes need none)."""

    def peer_refs(self) -> "Iterable[int | None] | None":
        """Every node id this node's *current state* could send a message to.

        Used by the sharded engine's seam-aware window probe
        (:mod:`repro.simulation.sharding`): a node all of whose peer refs
        are shard-local cannot emit a cross-boundary message until new state
        arrives in a message, so the engine can stop treating it as a
        boundary node.  The contract is conservative: the returned iterable
        must cover **every** id the node could use as a send destination
        based on its state right now (``None`` entries are ignored), and a
        node whose destinations are not derivable from enumerable state —
        computed targets, broadcasts — must return ``None`` ("unknown"),
        which pins it as a boundary node forever.  The safe default is
        ``None``.
        """
        return None

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def acquire(self) -> None:
        """Ask to enter the critical section (the paper's ``enter_cs``)."""

    @abc.abstractmethod
    def release(self) -> None:
        """Leave the critical section (the paper's ``exit_cs``)."""

    # ------------------------------------------------------------------
    # Failure hooks (fail-stop model of Section 5)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Called when the node fail-stops; volatile state is lost.

        The default is a no-op: failure-free nodes are never crashed by the
        experiments.  Fault-tolerant nodes override this to wipe their
        volatile variables.
        """

    def on_recover(self) -> None:
        """Called when the node recovers; only stable storage survives."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Return a picture of the node state for verification and debugging."""
        return {"node_id": self.node_id, "in_critical_section": self.in_critical_section}

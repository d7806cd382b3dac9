"""Protocol messages exchanged by the mutual exclusion algorithms.

The failure-free algorithm of Section 3 only uses :class:`RequestMessage`
and :class:`TokenMessage`; the fault-tolerance layer of Section 5 adds the
enquiry, test/answer and anomaly messages.  Baseline algorithms (Raymond,
Naimi–Trehel, Ricart–Agrawala, Suzuki–Kasami, centralized) define their own
message types here as well so that the metrics layer can classify traffic
uniformly.

Messages are treated as immutable.  The two types allocated on the open-cube
hot path (:class:`RequestMessage`, :class:`TokenMessage` — one per protocol
message of every simulated run) are hand-rolled ``__slots__`` classes, since
frozen-dataclass construction (``object.__setattr__`` per field) was a
measurable share of the per-event cost; the colder message types stay frozen
dataclasses for brevity.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import ClassVar

__all__ = [
    "Message",
    "RequestMessage",
    "TokenMessage",
    "EnquiryMessage",
    "EnquiryReply",
    "EnquiryStatus",
    "TestMessage",
    "AnswerMessage",
    "AnswerKind",
    "AnomalyMessage",
    "PingMessage",
    "PingReply",
    "RootClaimMessage",
    "RootClaimReject",
    "RaymondRequest",
    "RaymondToken",
    "NaimiTrehelRequest",
    "NaimiTrehelToken",
    "CentralRequest",
    "CentralGrant",
    "CentralRelease",
    "RicartAgrawalaRequest",
    "RicartAgrawalaReply",
    "SuzukiKasamiRequest",
    "SuzukiKasamiToken",
    "next_request_id",
]

_request_counter = itertools.count(1)


def next_request_id() -> int:
    """Return a process-wide unique request identifier.

    Request identifiers are only used for bookkeeping (metrics, liveness
    checking); the algorithms themselves never rely on them, exactly as in
    the paper where requests carry only node identities.
    """
    return next(_request_counter)


class Message:
    """Base class for all protocol messages."""

    __slots__ = ()

    # Class-level kind cache: `kind` is read once per send on the metrics hot
    # path, so the class name (and its "+regenerated" variant) is computed at
    # class-definition time instead of per message.
    _kind_plain: ClassVar[str] = "Message"
    _kind_regenerated: ClassVar[str] = "Message+regenerated"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._kind_plain = cls.__name__
        cls._kind_regenerated = f"{cls.__name__}+regenerated"

    @property
    def kind(self) -> str:
        """Message classification used by the metrics layer.

        Regenerated requests/tokens (re-issued by the fault-tolerance layer)
        are reported as a distinct kind so that the failure-overhead
        experiments can attribute them to failures rather than to the normal
        per-request cost.
        """
        if getattr(self, "regenerated", False):
            return self._kind_regenerated
        return self._kind_plain


# ----------------------------------------------------------------------
# Open-cube algorithm (Section 3)
# ----------------------------------------------------------------------
class RequestMessage(Message):
    """``request(j)`` of the paper.

    Instances must not be mutated after construction (the old
    ``frozen=True`` guard is gone for speed, and ``kind`` is precomputed
    from ``regenerated`` at construction time).

    Attributes:
        requester: the node ``j`` on whose behalf the token is requested;
            this is the identity the receiving node uses for the last-son
            test and, when acting as proxy, records as its mandator.
        source: the node whose wish to enter the critical section originated
            the whole chain.  Section 5 notes that the root needs this
            identity to run its enquiry, "this information can be added in
            the request message"; it is also handy for metrics.
        regenerated: ``True`` when the request was re-issued after a
            ``search_father`` reconnection (used only for accounting failure
            overhead; the algorithm ignores the flag).
    """

    __slots__ = ("requester", "source", "regenerated", "kind")

    def __init__(self, requester: int, source: int, regenerated: bool = False) -> None:
        self.requester = requester
        self.source = source
        self.regenerated = regenerated
        # The slot shadows the base-class property: `kind` is read on every
        # send, so precomputing it here trades one store at construction for
        # a plain attribute read on the hot path.
        self.kind = self._kind_regenerated if regenerated else self._kind_plain

    def __eq__(self, other: object) -> bool:
        # Value semantics, as the frozen-dataclass version had.
        if type(other) is not RequestMessage:
            return NotImplemented
        return (
            self.requester == other.requester
            and self.source == other.source
            and self.regenerated == other.regenerated
        )

    def __hash__(self) -> int:
        return hash((self.requester, self.source, self.regenerated))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RequestMessage(requester={self.requester}, source={self.source}, "
            f"regenerated={self.regenerated})"
        )


class TokenMessage(Message):
    """``token(j)`` of the paper.

    Instances must not be mutated after construction (the old
    ``frozen=True`` guard is gone for speed, and ``kind`` is precomputed
    from ``regenerated`` at construction time).

    Attributes:
        lender: the node that lends the token and expects it back, or
            ``None`` when the token is given up for good (the receiver keeps
            it and becomes the root).
        regenerated: ``True`` when this token was regenerated after a loss
            (accounting only).
        loan_id: identifier of the loan, assigned by the lender and preserved
            while the token is forwarded along the mandator chain.  The paper
            only says the root must know the source of the request; carrying
            a loan identifier as well lets the source answer the root's
            enquiry about *this particular* loan instead of guessing from its
            current state, which matters when requests and failures overlap.
    """

    __slots__ = ("lender", "regenerated", "loan_id", "kind")

    def __init__(
        self,
        lender: int | None,
        regenerated: bool = False,
        loan_id: tuple[int, int] | None = None,
    ) -> None:
        self.lender = lender
        self.regenerated = regenerated
        self.loan_id = loan_id
        self.kind = self._kind_regenerated if regenerated else self._kind_plain

    def __eq__(self, other: object) -> bool:
        # Value semantics, as the frozen-dataclass version had.
        if type(other) is not TokenMessage:
            return NotImplemented
        return (
            self.lender == other.lender
            and self.regenerated == other.regenerated
            and self.loan_id == other.loan_id
        )

    def __hash__(self) -> int:
        return hash((self.lender, self.regenerated, self.loan_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TokenMessage(lender={self.lender}, regenerated={self.regenerated}, "
            f"loan_id={self.loan_id})"
        )


# ----------------------------------------------------------------------
# Fault tolerance (Section 5)
# ----------------------------------------------------------------------
class EnquiryStatus(enum.Enum):
    """Replies a request source can give to the root's enquiry."""

    IN_CRITICAL_SECTION = "in_critical_section"
    TOKEN_RETURNED = "token_returned"
    TOKEN_NOT_RECEIVED = "token_not_received"


@dataclass(frozen=True)
class EnquiryMessage(Message):
    """Root-to-source probe sent when the token is overdue."""

    root: int
    loan_id: tuple[int, int] | None = None


@dataclass(frozen=True)
class EnquiryReply(Message):
    """Source-to-root reply to an :class:`EnquiryMessage`."""

    status: EnquiryStatus


class AnswerKind(enum.Enum):
    """Replies to a ``test`` probe of the search_father procedure."""

    OK = "ok"
    TRY_LATER = "try_later"


@dataclass(frozen=True)
class TestMessage(Message):
    """``test(d)`` probe of the search_father procedure.

    Attributes:
        phase: the distance ``d`` currently probed by the searcher.
        searcher_power: the power the searcher currently assumes for itself
            (``d - 1``); carried so concurrent searchers can apply the
            tie-breaking rules of Section 5 without extra round trips.
    """

    phase: int
    searcher_power: int


@dataclass(frozen=True)
class AnswerMessage(Message):
    """Reply to a :class:`TestMessage`."""

    answer: AnswerKind
    phase: int


@dataclass(frozen=True)
class PingMessage(Message):
    """Liveness probe sent by a waiting node to its father before searching.

    The paper triggers ``search_father`` purely on a timeout.  Under load a
    request can legitimately wait much longer than the timeout (it queues
    behind other critical sections), and a reconnection storm triggered by
    such ill-founded suspicions destabilises the tree.  Probing the father
    first costs two messages and filters out almost every false alarm.  This
    is an extension beyond the paper.
    """

    probe_id: int


@dataclass(frozen=True)
class PingReply(Message):
    """Answer to a :class:`PingMessage` (its mere arrival proves liveness)."""

    probe_id: int


@dataclass(frozen=True)
class RootClaimMessage(Message):
    """Broadcast by a node about to regenerate the token.

    The paper resolves *pairwise* regeneration races with its identity
    tie-break but does not describe how two searchers that never probe each
    other (both in the same half of the cube at phase ``pmax``) avoid both
    regenerating.  This reproduction adds an explicit claim round: the
    would-be root announces itself, and any node that holds the token, is the
    live root, or is itself claiming with a smaller identity rejects the
    claim.  This is an extension beyond the paper.
    """

    claimant: int


@dataclass(frozen=True)
class RootClaimReject(Message):
    """Rejection of a :class:`RootClaimMessage`."""

    reason: str = ""


@dataclass(frozen=True)
class AnomalyMessage(Message):
    """Sent by a recovered node that detects it should not be the father.

    Section 5: after recovery a node may still have descendants from before
    its failure; when such a descendant sends a request and the last-son
    invariant ``power(father) >= dist(father, son)`` is violated, the father
    answers with an anomaly message and the son re-runs ``search_father``.
    """

    detected_by: int


# ----------------------------------------------------------------------
# Raymond's algorithm (baseline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RaymondRequest(Message):
    """Request sent towards the token holder along the static tree."""

    sender: int


@dataclass(frozen=True)
class RaymondToken(Message):
    """Token (privilege) message of Raymond's algorithm."""


# ----------------------------------------------------------------------
# Naimi-Trehel's algorithm (baseline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NaimiTrehelRequest(Message):
    """Request forwarded along the dynamic `last` chain."""

    requester: int


@dataclass(frozen=True)
class NaimiTrehelToken(Message):
    """Token message of Naimi-Trehel's algorithm."""


# ----------------------------------------------------------------------
# Centralized coordinator (baseline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CentralRequest(Message):
    """Client request to the central coordinator."""

    requester: int


@dataclass(frozen=True)
class CentralGrant(Message):
    """Coordinator grant to a waiting client."""


@dataclass(frozen=True)
class CentralRelease(Message):
    """Client release notification to the coordinator."""

    requester: int


# ----------------------------------------------------------------------
# Ricart-Agrawala (permission-based baseline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RicartAgrawalaRequest(Message):
    """Broadcast request carrying the Lamport timestamp of the requester."""

    timestamp: int
    requester: int


@dataclass(frozen=True)
class RicartAgrawalaReply(Message):
    """Permission reply."""

    replier: int


# ----------------------------------------------------------------------
# Suzuki-Kasami (broadcast token baseline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuzukiKasamiRequest(Message):
    """Broadcast request carrying the requester's sequence number."""

    requester: int
    sequence: int


@dataclass(frozen=True)
class SuzukiKasamiToken(Message):
    """Token carrying the last-served sequence numbers and the waiting queue."""

    last_served: tuple[int, ...] = field(default_factory=tuple)
    queue: tuple[int, ...] = field(default_factory=tuple)

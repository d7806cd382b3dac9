"""Fault-tolerant open-cube node (Section 5 of the paper).

:class:`FaultTolerantOpenCubeNode` extends the failure-free node with the
four mechanisms described in Section 5:

1. **Root enquiry and token regeneration** — a root that lent the token arms
   a timer (``2*delta + e`` when lending directly to the source, ``(pmax+1)*
   delta + e`` otherwise).  On expiry it enquires at the request source and
   regenerates the token when the source is down or reports the token lost.
2. **search_father** — an asking node that waited ``>= 2*pmax*delta`` (plus a
   configurable grace period accounting for queueing behind other critical
   sections) probes the nodes at increasing distances ``power+1 .. pmax``
   with ``test(d)`` messages until a node of sufficient power answers ``ok``;
   it then reconnects and regenerates its request.  If no phase succeeds the
   node becomes the root and regenerates the token.
3. **Concurrent-suspicion arbitration** — the three cases (``di > dj``,
   ``di < dj``, ``di == dj`` with identity tie-breaking) of the paper.
4. **Recovery and anomaly repair** — a recovering node restores only ``pmax``
   and its distance row (stable storage), reconnects as a leaf via
   ``search_father`` starting at phase 1, and detects the stale-descendant
   anomaly ``power(f) < dist_f(i)`` when later processing such a
   descendant's request, answering with an ``anomaly`` message.

The failure model is fail-stop: the simulation layer stops delivering
messages and timers to a crashed node and calls :meth:`on_crash`, which
wipes every volatile variable.

Hot path
--------

Section 5 is meant to be free until a node fails, and in a failure-free run
the only work it adds is arming and cancelling suspicion timers.  That path
is kept flat: the three timeouts are constants of ``(n, e, delta)`` computed
once in :meth:`bind`, :meth:`on_message` dispatches on the exact message
type itself, and the four hooks every request crosses
(``_hook_request_sent`` / ``_hook_token_received`` / ``_hook_token_lent`` /
``_hook_token_returned``) arm and cancel their timers inline through the
environment callables cached at bind time.  Timer handles are opaque: the
node only ever hands them back to ``cancel_timer`` or compares them to
``None`` (the simulator returns agenda entries, the runtime hosts ints).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core import distances
from repro.core.messages import (
    AnomalyMessage,
    AnswerKind,
    AnswerMessage,
    EnquiryMessage,
    EnquiryReply,
    EnquiryStatus,
    Message,
    PingMessage,
    PingReply,
    RequestMessage,
    RootClaimMessage,
    RootClaimReject,
    TestMessage,
    TokenMessage,
)
from repro.core.node import OpenCubeMutexNode
from repro.simulation.process import Environment

__all__ = ["FaultTolerantOpenCubeNode"]

_TIMER_AWAIT_TOKEN = "await_token"
_TIMER_LEND = "lend"
_TIMER_ENQUIRY = "enquiry"
_TIMER_SEARCH_PHASE = "search_phase"
_TIMER_SEARCH_RETRY = "search_retry"
_TIMER_CLAIM = "root_claim"
_TIMER_PING = "father_ping"


class FaultTolerantOpenCubeNode(OpenCubeMutexNode):
    """Open-cube node with the failure handling of Section 5.

    Args:
        node_id, n, father, has_token, topology, dist_row: see the
            failure-free node.
        cs_duration_estimate: the paper's ``e`` — an estimation of the
            critical section duration, used in the root's lend timeout.
        await_grace: extra waiting time added to the ``2*pmax*delta`` bound
            before an asking node suspects a failure.  The paper's bound
            ignores the time spent queueing behind other critical sections;
            the grace period (default ``2n * (e + 2*delta)``, i.e. two
            critical sections plus their hand-offs per node) keeps spurious
            suspicions rare without affecting the per-failure message counts
            that the experiments measure.  The grace is this code's
            addition, not the paper's, and it makes a waiting node's
            patience O(n), not O(log n).
        enquiry_enabled: allow disabling the root enquiry machinery (used by
            ablation benchmarks).
    """

    def __init__(
        self,
        node_id: int,
        n: int,
        *,
        father: int | None,
        has_token: bool,
        topology=None,
        dist_row=None,
        cs_duration_estimate: float = 1.0,
        await_grace: float | None = None,
        enquiry_enabled: bool = True,
    ) -> None:
        super().__init__(
            node_id, n, father=father, has_token=has_token,
            topology=topology, dist_row=dist_row,
        )
        self.cs_duration_estimate = cs_duration_estimate
        self.enquiry_enabled = enquiry_enabled
        self._await_grace = await_grace
        # The timeouts (_await_timeout, _lend_timeout_direct/_relayed,
        # _round_trip) and the timer callables (_set_timer, _cancel_timer)
        # exist once the node is bound; see bind().  A *_timer attribute is
        # the opaque handle ``set_timer`` returned, or ``None``.
        #
        # Waiting-for-token failure detection.
        self._await_timer: Any = None
        # Root-side lend bookkeeping.
        self._lend_timer: Any = None
        self._enquiry_timer: Any = None
        self._lend_borrower: int | None = None
        self._lend_source: int | None = None
        # Borrower-side bookkeeping used to answer enquiries.
        self._current_loan_from: int | None = None
        self._current_loan_id: tuple[int, int] | None = None
        self._last_returned_to: int | None = None
        self._returned_loan_ids: deque[tuple[int, int]] = deque(maxlen=64)
        # Loans this node told an enquiring root it never received.  The
        # answer makes the root regenerate the token, so these identifiers
        # are burned: a late copy of a disclaimed loan is destroyed on
        # arrival instead of becoming a second token.
        self._disclaimed_loan_ids: deque[tuple[int, int]] = deque(maxlen=64)
        self._returned_reply_streak = 0
        # Lender-side bookkeeping.
        self._lend_loan_id: tuple[int, int] | None = None
        # search_father state.
        self.searching = False
        self._search_phase = 0
        self._search_waiting: set[int] = set()
        self._search_try_later: set[int] = set()
        self._search_timer: Any = None
        self._search_reason: str = ""
        self._search_retry_round = 0
        # A recovering node whose search finds nobody retries a few times
        # (the usual cause is a root change in progress) before falling back
        # to the paper's behaviour of becoming the root itself.
        self.max_recovery_retries = 10
        self._recovery_retries = 0
        # An asking searcher re-sweeps once from phase 1 before concluding it
        # must regenerate the token; see _conclude_search_as_root.
        self.max_root_conclusion_retries = 1
        self._root_conclusion_retries = 0
        # Bounded "try later" re-probe rounds per search phase.
        self.max_try_later_rounds = 3
        self._ever_recovered = False
        # Root-claim arbitration state (extension, see RootClaimMessage).
        self._claiming = False
        self._claim_timer: Any = None
        self._claim_attempts = 0
        # Father liveness probe state (extension, see PingMessage).
        self._ping_timer: Any = None
        self._ping_probe_id = 0
        self._ping_target: int | None = None
        self._alive_father_backoffs = 0
        # After this many "father is alive" verdicts in a row the node falls
        # back to the paper's unconditional search (covers the rare case of a
        # request lost at a crashed node deeper in the chain while every
        # direct father link is healthy).
        self.max_alive_father_backoffs = 3
        # Counters for the failure-overhead experiments.
        self.tokens_regenerated = 0
        self.requests_regenerated = 0
        self.searches_started = 0
        self.searches_concluded_root = 0
        self.anomalies_detected = 0
        self.stale_tokens_discarded = 0
        self.spurious_suspicions = 0

    def peer_refs(self):
        """Unknown: failure handling sends to computed targets.

        The search sweeps probe distance-ranked candidate sets, the
        root-claim arbitration broadcasts to every node, and ping/enquiry
        replies answer whoever asked — none of which is derivable from
        enumerable state.  Returning ``None`` pins the node as a permanent
        boundary node in the sharded engine's seam probe, degrading a
        sharded fault-tolerant run to classic windows (sound, just
        unbatched).
        """
        return None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, env: Environment) -> None:
        """Attach the environment and fix the Section 5 timeouts.

        ``delta`` (the environment's ``max_delay``), ``e``
        (``cs_duration_estimate``), ``pmax`` and the grace period are all
        constants of a bound node, so the timeouts are computed here once
        instead of on every arm — see :attr:`await_token_timeout`,
        :meth:`lend_timeout` and :attr:`round_trip_timeout` for the formulas.
        """
        super().bind(env)
        delta = env.max_delay
        estimate = self.cs_duration_estimate
        grace = (
            self._await_grace
            if self._await_grace is not None
            else 2.0 * self.n * (estimate + 2.0 * delta)
        )
        self._await_timeout = 2.0 * self.pmax * delta + grace
        self._lend_timeout_direct = 2.0 * delta + estimate
        self._lend_timeout_relayed = (self.pmax + 1) * delta + estimate
        self._round_trip = 2.25 * delta
        self._set_timer = env.set_timer
        self._cancel_timer = env.cancel_timer

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def power(self) -> int:
        """Current power; during a search the node evaluates it as ``d - 1``.

        Section 5: "while performing the phase d, the node i evaluates its
        power as d-1".  Outside a search it is Proposition 2.1, computed
        here directly (this property is read once per routed request).
        """
        if self.searching:
            return max(0, self._search_phase - 1)
        father = self.father
        if father is None:
            return self.pmax
        return (self._xor ^ (father - 1)).bit_length() - 1

    @property
    def await_token_timeout(self) -> float:
        """Delay before a waiting node suspects a failure.

        ``2*pmax*delta + grace``.  The paper's bound is ``2*pmax*delta`` —
        the maximum round-trip of a request and a token through the tree —
        but it ignores the time a request legitimately spends queued behind
        other critical sections.  The default grace period,
        ``2*n*(e + 2*delta)``, therefore scales with the number of nodes (up
        to ``n - 1`` requests can be ahead in the system), which keeps
        ill-founded suspicions rare under stable workloads.
        """
        return self._await_timeout

    def lend_timeout(self, borrower: int, source: int) -> float:
        """Root-side timeout for the return of a lent token (Section 5).

        ``2*delta + e`` when lending directly to the request source,
        ``(pmax+1)*delta + e`` otherwise.
        """
        if borrower == source:
            return self._lend_timeout_direct
        return self._lend_timeout_relayed

    @property
    def round_trip_timeout(self) -> float:
        """Waiting time for a probe/enquiry answer: ``2.25*delta``.

        The paper uses exactly ``2*delta``; a small margin is added so an
        answer that needs the full bound in both directions is not lost to a
        tie with its own timeout (the bound is reachable, not strict).
        """
        return self._round_trip

    # ------------------------------------------------------------------
    # Message dispatch for the extra message types
    # ------------------------------------------------------------------
    def on_message(self, sender: int, message: Message) -> None:
        # Re-establish the invariant "an idle token holder is the root".
        # Interleavings of recovery searches, aborted claims and late answers
        # can leave a node holding the token while still pointing at a father.
        # Such a node would never be found by searchers (its power looks tiny)
        # and would veto every root claim, freezing the whole system.  Dropping
        # the stale father pointer restores the invariant and lets waiting
        # nodes reattach below the holder.
        if (
            self.token_here
            and self.father is not None
            and not self.asking
            and not self.in_critical_section
        ):
            self.father = None
            self.lender = self.node_id
        # The failure-free node's exact-type dispatch, repeated here so a
        # message costs one frame before it reaches its handler.
        kind = type(message)
        if kind is RequestMessage:
            self._receive_request(sender, message)
        elif kind is TokenMessage:
            self._receive_token(sender, message)
        else:
            self._handle_extension_message(sender, message)

    def _handle_extension_message(self, sender: int, message: Message) -> None:
        if isinstance(message, TestMessage):
            self._receive_test(sender, message)
        elif isinstance(message, AnswerMessage):
            self._receive_answer(sender, message)
        elif isinstance(message, EnquiryMessage):
            self._receive_enquiry(sender, message)
        elif isinstance(message, EnquiryReply):
            self._receive_enquiry_reply(sender, message)
        elif isinstance(message, AnomalyMessage):
            self._receive_anomaly(sender, message)
        elif isinstance(message, PingMessage):
            self._receive_ping(sender, message)
        elif isinstance(message, PingReply):
            self._receive_ping_reply(sender, message)
        elif isinstance(message, RootClaimMessage):
            self._receive_root_claim(sender, message)
        elif isinstance(message, RootClaimReject):
            self._receive_claim_reject(sender, message)
        else:
            super()._handle_extension_message(sender, message)

    # ------------------------------------------------------------------
    # Deviations from the failure-free node
    # ------------------------------------------------------------------
    def _receive_request(self, sender: int, message: RequestMessage) -> None:
        # Requests received while reconnecting (or while disconnected after
        # a failed reconnection) are deferred; they are served once the node
        # has a usable father or the token.
        if self.searching or self._claiming:
            self.pending.append(("request", sender, message))
            return
        if self._is_disconnected():
            self.pending.append(("request", sender, message))
            self._start_search(start_phase=1, reason="reconnect")
            return
        if self.mandator is not None and self.mandator == message.requester:
            # Duplicate of a request this node is already serving as a proxy
            # (typically a regenerated request after an ill-founded
            # suspicion): serving it twice would fetch the token twice.
            return
        super()._receive_request(sender, message)

    def _receive_token(self, sender: int, message: TokenMessage) -> None:
        if (
            self._disclaimed_loan_ids
            and message.loan_id is not None
            and message.loan_id in self._disclaimed_loan_ids
        ):
            # This node answered TOKEN_NOT_RECEIVED about exactly this loan,
            # which licensed the root to regenerate.  The late copy is a
            # duplicate by construction now; bouncing it to the lender could
            # hand an *asking* lender a second token, so it is destroyed.
            self.stale_tokens_discarded += 1
            return
        if not self.asking:
            # A token received while not asking is unexpected: it can be a
            # duplicate produced by an ill-founded regeneration, or a token
            # granted against a request that was already served through a
            # regenerated copy.  Destroying it could leave its lender waiting
            # forever, so instead it is bounced back to the lender (who will
            # simply see its loan return) or adopted when it has no lender.
            self.stale_tokens_discarded += 1
            if message.lender is not None and message.lender != self.node_id:
                # A loan addressed to a node that no longer wants it: give it
                # back to its lender, who is waiting for it anyway.  The copy
                # stays on its legitimate path and dies with its lender chain
                # if that chain contains a crashed node.
                self.env.send(message.lender, TokenMessage(lender=None))
            # An ownerless token arriving at a node that did not ask for it
            # can only be a duplicate (a real `token(nil)` is always addressed
            # to an asking node: either a transit hand-over target or a lender
            # waiting for its loan).  Destroying it is what removes the extra
            # copies created by an ill-founded regeneration.
            return
        if message.lender is not None and self.mandator == self.node_id:
            # This node is the borrower: remember who the loan came from so
            # it can answer the lender's enquiries truthfully.
            self._current_loan_from = message.lender
            self._current_loan_id = message.loan_id
        super()._receive_token(sender, message)

    def release(self) -> None:
        if self.lender != self.node_id:
            self._last_returned_to = self.lender
            if self._current_loan_id is not None:
                self._returned_loan_ids.append(self._current_loan_id)
            self._current_loan_from = None
            self._current_loan_id = None
        super().release()

    # ------------------------------------------------------------------
    # Hooks from the failure-free node
    # ------------------------------------------------------------------
    def _hook_before_process_request(self, sender: int, message: RequestMessage) -> bool:
        # Anomaly detection (recovery repair): in a consistent open-cube a
        # father always satisfies power(f) >= dist_f(requester).  After this
        # node recovered and reconnected as a leaf, stale descendants may
        # still believe it is their father; their requests violate the
        # invariant and are answered with an anomaly message so that they
        # reattach through search_father (Section 5, "node recovery").
        #
        # The check is restricted to nodes that actually recovered from a
        # crash: during repair storms the powers of healthy nodes fluctuate
        # and the same inequality can hold transiently for perfectly
        # serviceable requests, which the ordinary proxy behaviour handles
        # correctly (and far more cheaply than a reattachment).
        if self._ever_recovered and self.distance_to(message.requester) > self.power:
            self.anomalies_detected += 1
            self.env.send(message.requester, AnomalyMessage(detected_by=self.node_id))
            return False
        return True

    # The next four run on every request of a failure-free run, so their
    # timer handling is _arm_*/_cancel_* (see "Timers" below) written out.
    def _hook_request_sent(self, requester: int, source: int) -> None:
        if self._await_timer is not None:
            self._cancel_timer(self._await_timer)
        self._await_timer = self._set_timer(self._await_timeout, _TIMER_AWAIT_TOKEN)

    def _hook_token_received(self, sender: int, message: TokenMessage) -> None:
        if self._await_timer is not None:
            self._cancel_timer(self._await_timer)
            self._await_timer = None
        self._alive_father_backoffs = 0
        if self._ping_timer is not None:
            self._cancel_timer(self._ping_timer)
            self._ping_timer = None
        if self._claiming:
            self._cancel_claim()
        if self.searching:
            # The suspicion was ill-founded: the token arrived after all.
            self.spurious_suspicions += 1
            self._stop_search()

    def _hook_token_lent(
        self, borrower: int, source: int, loan_id: tuple[int, int] | None = None
    ) -> None:
        if not self.enquiry_enabled:
            return
        self._lend_borrower = borrower
        self._lend_source = source
        self._lend_loan_id = loan_id
        if self._lend_timer is not None:
            self._cancel_timer(self._lend_timer)
        self._lend_timer = self._set_timer(self.lend_timeout(borrower, source), _TIMER_LEND)

    def _hook_token_returned(self) -> None:
        if self._lend_timer is not None:
            self._cancel_timer(self._lend_timer)
            self._lend_timer = None
        if self._enquiry_timer is not None:
            self._cancel_timer(self._enquiry_timer)
            self._enquiry_timer = None
        self._lend_borrower = None
        self._lend_source = None
        self._lend_loan_id = None
        self._returned_reply_streak = 0

    def _hook_token_given_back(self) -> None:
        # Nothing to arm: once the token has been sent back, responsibility
        # for it lies with the lender's enquiry machinery.
        return

    def _can_serve_pending(self) -> bool:
        if self.searching or self._claiming:
            return False
        if self._is_disconnected():
            return False
        return super()._can_serve_pending()

    def _is_disconnected(self) -> bool:
        """A node with no father, no token and no pending mandate of its own.

        This state only arises transiently around recoveries and aborted
        root claims; a disconnected node must reconnect through
        ``search_father`` before it can issue or route requests.
        """
        return self.father is None and not self.token_here and not self.asking

    def _start_local_request(self) -> None:
        # While the node is still reconnecting (typically right after a
        # recovery) it has no usable father yet, so the wish is queued and
        # served as soon as the search concludes.
        if self.searching or self._claiming:
            self.pending.append(("local",))
            return
        if self._is_disconnected():
            self.pending.append(("local",))
            self._start_search(start_phase=1, reason="reconnect")
            return
        # Issuing a new own request invalidates the memory of a previously
        # returned loan (the enquiry answer must not claim "returned" about a
        # loan that has not even been granted yet).
        self._last_returned_to = None
        super()._start_local_request()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def on_timer(self, name: str, payload: Any = None) -> None:
        if name == _TIMER_AWAIT_TOKEN:
            self._await_timer = None
            self._on_await_timeout()
        elif name == _TIMER_LEND:
            self._lend_timer = None
            self._on_lend_timeout()
        elif name == _TIMER_ENQUIRY:
            self._enquiry_timer = None
            self._on_enquiry_timeout()
        elif name == _TIMER_SEARCH_PHASE:
            self._search_timer = None
            self._on_search_phase_timeout()
        elif name == _TIMER_SEARCH_RETRY:
            if not self.searching and self.father is None and not self.token_here:
                self._start_search(start_phase=1, reason="recovery_retry")
        elif name == _TIMER_CLAIM:
            self._claim_timer = None
            self._on_claim_timeout()
        elif name == _TIMER_PING:
            self._on_ping_timeout()
        else:  # pragma: no cover - defensive
            super().on_timer(name, payload)

    def _arm_await_timer(self, delay: float | None = None) -> None:
        """(Re)arm the suspicion timer; at most one is ever live per node."""
        self._cancel_await_timer()
        self._await_timer = self._set_timer(
            self._await_timeout if delay is None else delay, _TIMER_AWAIT_TOKEN
        )

    def _cancel_await_timer(self) -> None:
        if self._await_timer is not None:
            self._cancel_timer(self._await_timer)
            self._await_timer = None

    def _arm_lend_timer(self, delay: float) -> None:
        self._cancel_lend_timer()
        self._lend_timer = self._set_timer(delay, _TIMER_LEND)

    def _cancel_lend_timer(self) -> None:
        if self._lend_timer is not None:
            self._cancel_timer(self._lend_timer)
            self._lend_timer = None

    def _arm_enquiry_timer(self) -> None:
        self._cancel_enquiry_timer()
        self._enquiry_timer = self._set_timer(self._round_trip, _TIMER_ENQUIRY)

    def _cancel_enquiry_timer(self) -> None:
        if self._enquiry_timer is not None:
            self._cancel_timer(self._enquiry_timer)
            self._enquiry_timer = None

    # ------------------------------------------------------------------
    # Root enquiry and token regeneration
    # ------------------------------------------------------------------
    def _on_lend_timeout(self) -> None:
        """The lent token is overdue: enquire at the request source."""
        if self.token_here or self._lend_source is None:
            return
        self.env.send(
            self._lend_source,
            EnquiryMessage(root=self.node_id, loan_id=self._lend_loan_id),
        )
        self._arm_enquiry_timer()

    def _receive_enquiry(self, sender: int, message: EnquiryMessage) -> None:
        """Answer the root's enquiry about the loan it is worried about.

        When the enquiry names a loan identifier the answer is exact: the
        source either is still using that loan, already gave it back, or
        never saw it (in which case the token really is lost, since a loan
        addressed to this source would have arrived within the bounded
        delay).  The identity-based fallback keeps the protocol working with
        peers that do not fill in loan identifiers.
        """
        root = message.root
        loan_id = message.loan_id
        if loan_id is not None:
            if self._current_loan_id == loan_id:
                status = EnquiryStatus.IN_CRITICAL_SECTION
            elif loan_id in self._returned_loan_ids:
                status = EnquiryStatus.TOKEN_RETURNED
            elif self.asking and self.mandator == self.node_id and not self.token_here:
                # Never saw that loan and still waiting: the loan is lost.
                # Answering "not received" is a *promise* — the root will
                # regenerate the token on the strength of this answer, so a
                # copy of the disclaimed loan that surfaces later (a frame
                # repaired by a retransmitting transport after the bounded
                # delay, or a duplicate) must never be accepted; see
                # _receive_token.
                self._disclaimed_loan_ids.append(loan_id)
                status = EnquiryStatus.TOKEN_NOT_RECEIVED
            else:
                # Never saw that loan but no longer waiting either (the
                # request was satisfied some other way); claiming "lost"
                # here would make the root fabricate a duplicate token.
                status = EnquiryStatus.TOKEN_RETURNED
        elif self._current_loan_from == root or (
            self.in_critical_section and self.lender == root
        ):
            status = EnquiryStatus.IN_CRITICAL_SECTION
        elif self._last_returned_to == root:
            status = EnquiryStatus.TOKEN_RETURNED
        elif self.asking and self.mandator == self.node_id and not self.token_here:
            status = EnquiryStatus.TOKEN_NOT_RECEIVED
        else:
            status = EnquiryStatus.TOKEN_RETURNED
        self.env.send(sender, EnquiryReply(status=status))

    def _receive_enquiry_reply(self, sender: int, message: EnquiryReply) -> None:
        if self.token_here:
            return
        self._cancel_enquiry_timer()
        if message.status is EnquiryStatus.IN_CRITICAL_SECTION:
            # Ill-founded suspicion: keep waiting a full lend period.
            self._returned_reply_streak = 0
            self._arm_lend_timer(self._round_trip + self.cs_duration_estimate)
        elif message.status is EnquiryStatus.TOKEN_RETURNED:
            # The token is claimed to be on its way back on a reliable
            # channel: wait one more bounded delay for it.  A "returned"
            # answer that repeats while nothing arrives means the claim is
            # about an older loan and the current token is in fact lost.
            self._returned_reply_streak += 1
            if self._returned_reply_streak >= 3:
                self._returned_reply_streak = 0
                self._regenerate_token()
            else:
                self._arm_lend_timer(self._round_trip)
        else:
            self._returned_reply_streak = 0
            self._regenerate_token()

    def _on_enquiry_timeout(self) -> None:
        """No reply from the source within 2*delta: it is down."""
        if self.token_here:
            return
        self._regenerate_token()

    def _regenerate_token(self) -> None:
        """Recreate the token at this node (the current root)."""
        self.tokens_regenerated += 1
        self._lend_borrower = None
        self._lend_source = None
        self._cancel_lend_timer()
        self._cancel_enquiry_timer()
        self._accept_token_without_lender(regenerated=True)

    def _accept_token_without_lender(self, *, regenerated: bool) -> None:
        """Behave exactly as if ``token(nil)`` had just been received locally."""
        self.token_here = True
        if self.mandator is None:
            self.asking = False
            self._process_pending()
        elif self.mandator == self.node_id:
            self.lender = self.node_id
            self.father = None
            self.mandator = None
            self.mandate_source = None
            self._enter_critical_section()
        else:
            borrower = self.mandator
            source = self.mandate_source if self.mandate_source is not None else borrower
            self.mandator = None
            self.mandate_source = None
            self.father = None
            self.lender = self.node_id
            self.token_here = False
            loan_id = self._new_loan_id()
            self.env.send(
                borrower,
                TokenMessage(
                    lender=self.node_id, regenerated=regenerated, loan_id=loan_id
                ),
            )
            self._hook_token_lent(borrower=borrower, source=source, loan_id=loan_id)

    # ------------------------------------------------------------------
    # Waiting-node failure suspicion: search_father
    # ------------------------------------------------------------------
    def _on_await_timeout(self) -> None:
        """The requested token is overdue: suspect a failure on the path.

        Before launching the (comparatively heavy) ``search_father``
        procedure the node checks that its father is actually unreachable: a
        request that simply queues behind many other critical sections also
        trips the timeout, and reconnecting in that situation is both useless
        and destabilising.  A father that stays reachable across several
        consecutive timeouts still triggers the paper's unconditional search,
        which covers requests lost at a crashed node further up the chain.
        """
        if self.token_here or not self.asking:
            return
        if self.father is None:
            # The node is the root waiting for a loan to return; that case is
            # covered by the lend/enquiry machinery, not by search_father.
            return
        if self.searching or self._claiming or self._ping_timer is not None:
            return
        if self._alive_father_backoffs >= self.max_alive_father_backoffs:
            self._alive_father_backoffs = 0
            self._start_search(start_phase=super().power + 1, reason="await_timeout")
            return
        self._ping_probe_id += 1
        self._ping_target = self.father
        self.env.send(self.father, PingMessage(probe_id=self._ping_probe_id))
        self._ping_timer = self._set_timer(self._round_trip, _TIMER_PING)

    def _receive_ping(self, sender: int, message: PingMessage) -> None:
        self.env.send(sender, PingReply(probe_id=message.probe_id))

    def _receive_ping_reply(self, sender: int, message: PingReply) -> None:
        if message.probe_id != self._ping_probe_id or self._ping_timer is None:
            return
        self._cancel_timer(self._ping_timer)
        self._ping_timer = None
        if self.token_here or not self.asking:
            return
        if sender != self.father:
            # The father changed while the probe was in flight; probe again
            # at the next timeout.
            self._alive_father_backoffs = 0
        else:
            self._alive_father_backoffs += 1
        # The father is alive: the delay is (very likely) queueing, keep
        # waiting with a slightly longer fuse.  Cancel-then-arm: a search
        # started by an `anomaly` while the probe was in flight may already
        # have re-armed the timer (see _regenerate_request).
        self._arm_await_timer()

    def _on_ping_timeout(self) -> None:
        """No reply from the father within 2*delta: it is down, reconnect."""
        self._ping_timer = None
        if self.token_here or not self.asking or self.searching or self._claiming:
            return
        if self.father is not None and self.father != self._ping_target:
            # The father changed while probing; give the new chain a chance.
            self._arm_await_timer()
            return
        self._alive_father_backoffs = 0
        self._start_search(start_phase=super().power + 1, reason="father_down")

    def _receive_anomaly(self, sender: int, message: AnomalyMessage) -> None:
        """The father answered that it should not be our father any more."""
        if not self.asking or self.token_here:
            return
        start_phase = self.distance_to(message.detected_by)
        self._start_search(start_phase=max(1, start_phase), reason="anomaly")

    def _start_search(self, start_phase: int, reason: str) -> None:
        if self.searching:
            return
        self.searching = True
        self.searches_started += 1
        self._search_reason = reason
        self._search_phase = max(1, min(start_phase, self.pmax))
        self._run_search_phase()

    def _run_search_phase(self) -> None:
        """Send ``test(d)`` to every node at distance ``d`` and arm 2*delta."""
        phase = self._search_phase
        targets = distances.nodes_at_distance(self.node_id, phase, self.n)
        self._search_waiting = set(targets)
        self._search_try_later = set()
        self._search_retry_round = 0
        probe = TestMessage(phase=phase, searcher_power=phase - 1)
        for target in targets:
            self.env.send(target, probe)
        self._arm_search_timer()

    def _arm_search_timer(self) -> None:
        if self._search_timer is not None:
            self._cancel_timer(self._search_timer)
        # Re-probes of "try later" nodes back off exponentially so a long
        # queue ahead of the probed node does not translate into a storm of
        # test messages.
        wait = self._round_trip * (2 ** min(self._search_retry_round, 4))
        self._search_timer = self._set_timer(wait, _TIMER_SEARCH_PHASE)

    def _stop_search(self) -> None:
        self.searching = False
        self._search_waiting = set()
        self._search_try_later = set()
        if self._search_timer is not None:
            self._cancel_timer(self._search_timer)
            self._search_timer = None

    def _receive_test(self, sender: int, message: TestMessage) -> None:
        """Answer (or not) a ``test(d)`` probe from a concurrent searcher."""
        probed_phase = message.phase
        if self.searching:
            # Concurrent suspicion arbitration (Section 5).
            my_phase = self._search_phase
            if my_phase > probed_phase:
                # power(self) = my_phase - 1 >= probed_phase = dist(self, j):
                # this node must be the father of the prober.
                self.env.send(sender, AnswerMessage(answer=AnswerKind.OK, phase=probed_phase))
            elif my_phase < probed_phase:
                # Optimisation described in the paper: the search will
                # necessarily conclude with father := sender, so conclude now.
                self._conclude_search_with_father(sender)
            else:
                # Equal phases: break the tie with the identities; the
                # smaller identity becomes the father of the other.
                if self.node_id < sender:
                    self.env.send(
                        sender, AnswerMessage(answer=AnswerKind.OK, phase=probed_phase)
                    )
                # The larger identity stays silent and waits for the ok.
            return
        if self.power >= probed_phase:
            self.env.send(sender, AnswerMessage(answer=AnswerKind.OK, phase=probed_phase))
        elif self.asking:
            # The power of this node may still grow before its request
            # completes; ask the searcher to try again later.
            self.env.send(
                sender, AnswerMessage(answer=AnswerKind.TRY_LATER, phase=probed_phase)
            )
        # Otherwise: stay silent, the searcher will discard this node.

    def _receive_answer(self, sender: int, message: AnswerMessage) -> None:
        if not self.searching or message.phase != self._search_phase:
            return
        if message.answer is AnswerKind.OK:
            self._conclude_search_with_father(sender)
            return
        # try later: keep the node in the undecided set for a re-probe.
        self._search_waiting.discard(sender)
        self._search_try_later.add(sender)

    def _on_search_phase_timeout(self) -> None:
        """2*delta elapsed: silent nodes are discarded, retry or move on."""
        if not self.searching:
            return
        if self._search_try_later and self._search_retry_round < self.max_try_later_rounds:
            # Some nodes asked to be probed again later: re-test only them,
            # with exponential backoff.  The number of rounds is bounded so a
            # fully blocked system (every node waiting because the token was
            # lost together with the crashed root) cannot pin every search in
            # the "try later" state forever: after the last round the
            # undecided nodes are treated as not qualifying and the search
            # moves on, which is what eventually lets some waiting node reach
            # phase pmax and regenerate the token.
            targets = sorted(self._search_try_later)
            self._search_waiting = set(targets)
            self._search_try_later = set()
            self._search_retry_round += 1
            probe = TestMessage(phase=self._search_phase, searcher_power=self._search_phase - 1)
            for target in targets:
                self.env.send(target, probe)
            self._arm_search_timer()
            return
        if self._search_phase >= self.pmax:
            self._conclude_search_as_root()
            return
        self._search_phase += 1
        self._run_search_phase()

    def _conclude_search_with_father(self, new_father: int) -> None:
        """A node of sufficient power answered: reconnect below it."""
        self._stop_search()
        self._recovery_retries = 0
        self._root_conclusion_retries = 0
        if self.token_here:
            # A holder of the token never subordinates itself to a father;
            # the search result is obsolete (the token arrived meanwhile).
            self._process_pending()
            return
        self.father = new_father
        if self.asking and not self.token_here:
            self._regenerate_request()
        else:
            # Recovery reconnection (the node was not asking).
            self._process_pending()

    def _conclude_search_as_root(self) -> None:
        """No phase succeeded: this node becomes the root (Section 5).

        Only an *asking* searcher regenerates the token, exactly as in the
        paper.  A recovering node whose search finds nobody of sufficient
        power retries later instead: the usual reason is that the previous
        root crashed and its successor has not emerged yet, in which case
        fabricating a token here would duplicate the one still in circulation.
        """
        self._stop_search()
        if not self.asking and self._recovery_retries < self.max_recovery_retries:
            self._recovery_retries += 1
            retry_delay = 4.0 * self.env.max_delay * self._recovery_retries
            self._set_timer(retry_delay, _TIMER_SEARCH_RETRY)
            return
        if self.asking and self._root_conclusion_retries < self.max_root_conclusion_retries:
            # Finding nobody of sufficient power usually means the previous
            # root crashed and its successor has not taken over yet.  One
            # more sweep from phase 1 gives the hand-over in progress a
            # chance to finish before a replacement token is fabricated.
            self._root_conclusion_retries += 1
            self.searching = True
            self._search_phase = 1
            self._run_search_phase()
            return
        self.searches_concluded_root += 1
        self._root_conclusion_retries = 0
        self._start_root_claim()

    # ------------------------------------------------------------------
    # Root-claim arbitration (an extension beyond the paper)
    # ------------------------------------------------------------------
    def _start_root_claim(self) -> None:
        """Announce the intention to regenerate the token and wait 2*delta."""
        if self._claiming:
            return
        self._claiming = True
        self._claim_attempts += 1
        claim = RootClaimMessage(claimant=self.node_id)
        for other in range(1, self.n + 1):
            if other != self.node_id:
                self.env.send(other, claim)
        self._claim_timer = self._set_timer(self._round_trip, _TIMER_CLAIM)

    def _cancel_claim(self) -> None:
        self._claiming = False
        if self._claim_timer is not None:
            self._cancel_timer(self._claim_timer)
            self._claim_timer = None

    def _receive_root_claim(self, sender: int, message: RootClaimMessage) -> None:
        """Reject the claim when this node knows the token is accounted for."""
        has_authority = (
            self.token_here
            or self.in_critical_section
            or (self.father is None and self.asking and not self.searching)
            or (self._claiming and self.node_id < message.claimant)
        )
        if has_authority:
            self.env.send(sender, RootClaimReject(reason="token accounted for"))

    def _receive_claim_reject(self, sender: int, message: RootClaimReject) -> None:
        if not self._claiming:
            return
        self._cancel_claim()
        # Somebody vouches for the token (or a smaller claimant is in
        # charge): back off and try again later if still disconnected.
        backoff = 4.0 * self.env.max_delay * min(self._claim_attempts, 8)
        if self.asking and not self.token_here:
            self._arm_await_timer(backoff)
        elif self.father is None and not self.token_here:
            # Recovered node still without a father: keep trying to
            # reconnect (the rejection proves a live root or token exists).
            self._set_timer(backoff, _TIMER_SEARCH_RETRY)

    def _on_claim_timeout(self) -> None:
        """Nobody objected within 2*delta: regenerate the token here."""
        if not self._claiming:
            return
        self._claiming = False
        self._claim_timer = None
        if self.token_here:
            return
        self.father = None
        self.tokens_regenerated += 1
        self._accept_token_without_lender(regenerated=True)

    def _regenerate_request(self) -> None:
        """Re-issue the pending request towards the freshly found father."""
        self.requests_regenerated += 1
        source = self.mandate_source if self.mandate_source is not None else self.node_id
        if self.mandator is None:
            # Should not happen (asking without mandate means a loan return
            # is expected and the node is then the root), but stay safe.
            self.mandator = self.node_id
        self.env.send(
            self.father,
            RequestMessage(requester=self.node_id, source=source, regenerated=True),
        )
        self._arm_await_timer()

    # ------------------------------------------------------------------
    # Fail-stop crash and recovery
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Lose every volatile variable (only ``pmax`` and ``dist`` survive)."""
        self.token_here = False
        self.asking = False
        self.mandator = None
        self.mandate_source = None
        self.lender = self.node_id
        self.father = None
        self.pending.clear()
        self.in_critical_section = False
        self.searching = False
        self._search_phase = 0
        self._search_waiting = set()
        self._search_try_later = set()
        self._search_timer = None
        self._await_timer = None
        self._lend_timer = None
        self._enquiry_timer = None
        self._lend_borrower = None
        self._lend_source = None
        self._lend_loan_id = None
        self._current_loan_from = None
        self._current_loan_id = None
        self._returned_loan_ids.clear()
        self._disclaimed_loan_ids.clear()
        self._last_returned_to = None
        self._returned_reply_streak = 0
        self._recovery_retries = 0
        self._root_conclusion_retries = 0
        self._claiming = False
        self._claim_timer = None
        self._claim_attempts = 0
        self._ping_timer = None
        self._ping_target = None
        self._alive_father_backoffs = 0

    def on_recover(self) -> None:
        """Reconnect to the open-cube as a leaf (search_father from phase 1)."""
        self._ever_recovered = True
        self.father = None
        self._start_search(start_phase=1, reason="recovery")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        base = super().snapshot()
        base.update(
            {
                "searching": self.searching,
                "search_phase": self._search_phase,
                "tokens_regenerated": self.tokens_regenerated,
                "requests_regenerated": self.requests_regenerated,
                "searches_started": self.searches_started,
                "anomalies_detected": self.anomalies_detected,
                "stale_tokens_discarded": self.stale_tokens_discarded,
                "spurious_suspicions": self.spurious_suspicions,
            }
        )
        return base

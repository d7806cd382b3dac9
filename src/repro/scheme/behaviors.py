"""Behaviour policies for the general token-and-tree scheme.

The paper presents its algorithm as an instance of the general scheme of
Hélary, Mostefaoui & Raynal [1]: every node reacts to a request either as
*transit* (forward the request / give the token up, and adopt the requester
as new father) or as *proxy* (request or lend the token on the requester's
behalf).  The choice can be made by any rule; three notable rules are:

* :class:`OpenCubePolicy` — the paper's rule (transit iff the request came
  through the last son), which keeps the tree an open-cube forever.
* :class:`RaymondLikePolicy` — transit iff the node currently holds the
  token; with a static structure this reproduces the spirit of Raymond's
  algorithm (the tree shape is fixed, only edge directions move).
* :class:`AlwaysTransitPolicy` — every node is permanently transit, which is
  the Naimi-Trehel regime: the tree follows the requests and can degenerate.

These policies power the ablation experiments (EXP-ABL, beyond the paper): same
substrate, same workload, only the behaviour rule changes.
"""

from __future__ import annotations

import abc

from repro.core.messages import RequestMessage

__all__ = [
    "BehaviourPolicy",
    "OpenCubePolicy",
    "AlwaysTransitPolicy",
    "AlwaysProxyPolicy",
    "RaymondLikePolicy",
    "POLICIES",
]


class BehaviourPolicy(abc.ABC):
    """Decides, per incoming request, whether a node is transit or proxy."""

    name = "abstract"

    @abc.abstractmethod
    def decide(self, node, message: RequestMessage) -> str:
        """Return ``"transit"`` or ``"proxy"``."""


class OpenCubePolicy(BehaviourPolicy):
    """The paper's rule: transit exactly for requests from the last son."""

    name = "open-cube"

    def decide(self, node, message: RequestMessage) -> str:
        if node.distance_to(message.requester) == node.power:
            return "transit"
        return "proxy"


class AlwaysTransitPolicy(BehaviourPolicy):
    """Every node is permanently transit (Naimi-Trehel regime)."""

    name = "always-transit"

    def decide(self, node, message: RequestMessage) -> str:
        return "transit"


class AlwaysProxyPolicy(BehaviourPolicy):
    """Every node is permanently proxy.

    The tree never changes; every ancestor of a requester becomes a relay
    that borrows the token on its behalf.  This is the most static (and most
    chatty) corner of the design space and is included as an ablation
    reference point.
    """

    name = "always-proxy"

    def decide(self, node, message: RequestMessage) -> str:
        return "proxy"


class RaymondLikePolicy(BehaviourPolicy):
    """Transit iff the node holds the token (Raymond-like edge reversal)."""

    name = "raymond-like"

    def decide(self, node, message: RequestMessage) -> str:
        return "transit" if node.token_here else "proxy"


POLICIES: dict[str, BehaviourPolicy] = {
    policy.name: policy
    for policy in (
        OpenCubePolicy(),
        AlwaysTransitPolicy(),
        AlwaysProxyPolicy(),
        RaymondLikePolicy(),
    )
}

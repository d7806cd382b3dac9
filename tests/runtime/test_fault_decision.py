"""One network-fault decision for every host.

:meth:`NetworkFaults.decide` is the only place that orders the fault rule:
a severing partition first (no RNG draw), then the loss draw, then the
duplication draw.  The property tests pin that order against a test-local
reference of the rule, and pin :meth:`RuntimeChaos.on_send` to the same
verdicts and counter totals.  The last test pins that the asyncio cluster
rejects the partition configs the simulator rejects.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders import build_opencube_nodes
from repro.exceptions import ConfigurationError
from repro.runtime import AsyncioCluster, RuntimeChaos, start_servers
from repro.runtime.faults import DROP, SEND
from repro.scenarios.spec import NetworkFaultSpec, PartitionSpec
from repro.simulation.network import (
    DUPLICATE,
    LOSS,
    PARTITION,
    NetworkFaults,
    PartitionWindow,
)

N = 8

rates = st.sampled_from([0.0, 0.05, 0.3, 0.9]) | st.floats(
    min_value=0.0, max_value=0.99, allow_nan=False
)
windows = st.builds(
    lambda start, length, nodes: PartitionSpec(
        start=start, heal=None if length is None else start + length, nodes=nodes
    ),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.none() | st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    st.lists(
        st.integers(min_value=1, max_value=N), min_size=1, max_size=N - 1, unique=True
    ).map(tuple),
)
specs = st.builds(
    NetworkFaultSpec,
    loss_rate=rates,
    dup_rate=rates,
    partitions=st.lists(windows, max_size=3).map(tuple),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
sends = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=N),
        st.integers(min_value=1, max_value=N),
        st.floats(min_value=0.0, max_value=45.0, allow_nan=False),
    ),
    max_size=80,
)


def reference_verdicts(spec: NetworkFaultSpec, messages):
    """The fault rule written out by hand, with its own fault RNG."""
    rng = random.Random(spec.seed)
    cuts = [p.build() for p in spec.partitions]
    verdicts = []
    for sender, dest, now in messages:
        if any(
            w.start <= now < w.heal and (sender in w.nodes) != (dest in w.nodes)
            for w in cuts
        ):
            verdicts.append(PARTITION)  # decided with no RNG draw
        elif spec.loss_rate and rng.random() < spec.loss_rate:
            verdicts.append(LOSS)
        elif spec.dup_rate and rng.random() < spec.dup_rate:
            verdicts.append(DUPLICATE)
        else:
            verdicts.append(None)
    return verdicts, rng.getstate()


@settings(max_examples=150, deadline=None)
@given(spec=specs, messages=sends)
def test_decide_follows_partition_then_loss_then_duplicate(spec, messages):
    faults = spec.build()
    got = [faults.decide(sender, dest, now) for sender, dest, now in messages]
    want, rng_state = reference_verdicts(spec, messages)
    assert got == want
    # Same draws, not just the same verdicts: the RNG streams end level.
    assert faults.rng.getstate() == rng_state


@settings(max_examples=150, deadline=None)
@given(
    spec=specs,
    chaos_seed=st.integers(min_value=0, max_value=2**16),
    messages=sends,
)
def test_runtime_chaos_counts_the_same_decisions(spec, chaos_seed, messages):
    chaos = RuntimeChaos(network=spec, seed=chaos_seed)
    got = [chaos.on_send(sender, dest, now) for sender, dest, now in messages]
    if not spec.enabled:
        assert chaos.faults is None
        assert got == [SEND] * len(messages)
        assert chaos.counters() == {
            "lost_messages": 0, "duplicated_messages": 0, "blocked_messages": 0,
        }
        return
    faults = replace(spec, seed=spec.seed ^ chaos_seed).build()
    decisions = [faults.decide(sender, dest, now) for sender, dest, now in messages]
    as_wire = {None: SEND, PARTITION: DROP, LOSS: DROP, DUPLICATE: DUPLICATE}
    assert got == [as_wire[d] for d in decisions]
    tally = Counter(decisions)
    assert chaos.counters() == {
        "lost_messages": tally[LOSS],
        "duplicated_messages": tally[DUPLICATE],
        "blocked_messages": tally[PARTITION],
    }


@pytest.mark.parametrize(
    "nodes",
    [frozenset({99}), frozenset(range(1, N + 1))],
    ids=["node-outside-population", "window-names-every-node"],
)
def test_asyncio_cluster_rejects_partitions_the_simulator_rejects(nodes):
    faults = NetworkFaults(
        partitions=[PartitionWindow(start=0.0, heal=1.0, nodes=nodes)]
    )
    with pytest.raises(ConfigurationError):
        AsyncioCluster(build_opencube_nodes(N), faults=faults)


@pytest.mark.parametrize(
    "nodes",
    [(99,), tuple(range(1, N + 1))],
    ids=["node-outside-population", "window-names-every-node"],
)
def test_lock_service_rejects_partitions_the_simulator_rejects(nodes):
    """Rejected at construction, before any server listens."""

    def chaos(node_id):
        spec = NetworkFaultSpec(partitions=(PartitionSpec(0.0, None, nodes),))
        return RuntimeChaos(network=spec, seed=node_id)

    with pytest.raises(ConfigurationError):
        asyncio.run(start_servers(build_opencube_nodes(N), chaos=chaos))

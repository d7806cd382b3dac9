"""EXP-ABL: ablations of the design choices (behaviour rule, channels, delays).

Not part of the paper's evaluation; these are the design choices worth
isolating: the open-cube transit/proxy rule against the other
instances of the general scheme, FIFO vs out-of-order channels, and the
sensitivity of message counts to the delay model (the justification for
replacing the iPSC/2 testbed with a simulator).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.experiments.ablation import (
    behaviour_rule_ablation,
    channel_ordering_ablation,
    delay_model_ablation,
)


def test_behaviour_rule_ablation(benchmark):
    rows = benchmark.pedantic(
        behaviour_rule_ablation, args=(32,), kwargs={"requests": 64, "seed": 3}, rounds=1, iterations=1
    )
    print()
    print(render_table(rows, title="EXP-ABL (a): behaviour rules of the general scheme"))
    assert all(row["safety_ok"] and row["liveness_ok"] for row in rows)
    by_policy = {row["policy"]: row for row in rows}
    # The open-cube rule must keep the worst case bounded well below the
    # always-proxy rule's chatter.
    assert by_policy["open-cube"].get("mean_msgs_per_request") <= by_policy[
        "always-proxy"
    ].get("mean_msgs_per_request") + 1e-9


def test_channel_ordering_ablation(benchmark):
    rows = benchmark.pedantic(
        channel_ordering_ablation, args=(32,), kwargs={"requests": 64, "seed": 3}, rounds=1, iterations=1
    )
    print()
    print(render_table(rows, title="EXP-ABL (b): FIFO vs out-of-order channels"))
    assert all(row["safety_ok"] and row["liveness_ok"] for row in rows)


def test_delay_model_ablation(benchmark):
    rows = benchmark.pedantic(
        delay_model_ablation, args=(32,), kwargs={"requests": 64, "seed": 3}, rounds=1, iterations=1
    )
    print()
    print(render_table(rows, title="EXP-ABL (c): delay-model sensitivity"))
    means = [row["mean_msgs_per_request"] for row in rows]
    # Message counts are essentially delay-model independent on serial runs.
    assert max(means) - min(means) < 1.0

"""EXP-ABL: ablations of the design choices (not in the paper).

Three ablations isolate the design choices the reproduction had to make:

(a) behaviour rule: the open-cube rule versus always-transit (Naimi-Trehel
    regime), always-proxy and the Raymond-like rule, on the same initial
    structure and workload;
(b) channel ordering: FIFO versus out-of-order delivery;
(c) delay variance: constant versus uniform versus per-hop delays.
"""

from __future__ import annotations

from repro.experiments.runner import run_workload
from repro.scheme.generic import build_scheme_cluster
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.network import ConstantDelay, PerHopDelay, UniformDelay
from repro.verification.liveness import analyse_liveness
from repro.verification.safety import find_overlaps
from repro.workload.arrivals import Workload, serial_random

__all__ = ["behaviour_rule_ablation", "channel_ordering_ablation", "delay_model_ablation"]


def _run_policy(policy: str, n: int, workload: Workload, *, seed: int, fifo: bool = False,
                delay_model=None) -> dict:
    cluster: SimulatedCluster = build_scheme_cluster(
        n,
        policy,
        seed=seed,
        trace=False,
        fifo=fifo,
        delay_model=delay_model or ConstantDelay(1.0),
    )
    workload.apply(cluster)
    cluster.run_until_quiescent()
    metrics = cluster.metrics
    per_request = metrics.messages_per_request()
    liveness = analyse_liveness(metrics)
    overlaps = find_overlaps(metrics, end_of_time=cluster.now)
    return {
        "policy": policy,
        "n": n,
        "requests": len(metrics.satisfied_requests()),
        "mean_msgs_per_request": (sum(per_request) / len(per_request)) if per_request else 0.0,
        "max_msgs_per_request": max(per_request) if per_request else 0,
        "safety_ok": not overlaps,
        "liveness_ok": liveness.ok,
    }


def behaviour_rule_ablation(n: int = 32, *, requests: int | None = None, seed: int = 0) -> list[dict]:
    """Same serial workload, four behaviour rules of the general scheme."""
    count = requests if requests is not None else 4 * n
    workload = serial_random(n, count, seed=seed, spacing=60.0, hold=0.25)
    return [
        _run_policy(policy, n, workload, seed=seed)
        for policy in ("open-cube", "always-transit", "always-proxy", "raymond-like")
    ]


def channel_ordering_ablation(n: int = 32, *, requests: int | None = None, seed: int = 0) -> list[dict]:
    """Open-cube algorithm with FIFO versus out-of-order channels."""
    count = requests if requests is not None else 4 * n
    rows = []
    for fifo in (False, True):
        workload = serial_random(n, count, seed=seed, spacing=60.0, hold=0.25)
        result = run_workload(
            "open-cube",
            n,
            workload,
            seed=seed,
            fifo=fifo,
            delay_model=UniformDelay(0.2, 1.0),
            serial=True,
        )
        rows.append(
            {
                "channels": "fifo" if fifo else "out-of-order",
                "n": n,
                "requests": result.requests_granted,
                "mean_msgs_per_request": result.mean_messages_per_request,
                "max_msgs_per_request": result.max_messages_per_request,
                "safety_ok": result.safety_ok,
                "liveness_ok": result.liveness_ok,
            }
        )
    return rows


def delay_model_ablation(n: int = 32, *, requests: int | None = None, seed: int = 0) -> list[dict]:
    """Open-cube algorithm under different delay models.

    Message *counts* should be essentially insensitive to the delay model on
    a serial workload — that insensitivity is what justifies substituting the
    paper's iPSC/2 testbed with a simulator.
    """
    count = requests if requests is not None else 4 * n
    models = {
        "constant(1.0)": ConstantDelay(1.0),
        "uniform(0.2,1.0)": UniformDelay(0.2, 1.0),
        "per-hop": PerHopDelay(base=0.2, jitter=0.1, dimensions=max(1, n.bit_length() - 1)),
    }
    rows = []
    for name, model in models.items():
        workload = serial_random(n, count, seed=seed, spacing=60.0, hold=0.25)
        result = run_workload(
            "open-cube", n, workload, seed=seed, delay_model=model, serial=True
        )
        rows.append(
            {
                "delay_model": name,
                "n": n,
                "requests": result.requests_granted,
                "mean_msgs_per_request": result.mean_messages_per_request,
                "max_msgs_per_request": result.max_messages_per_request,
                "mean_waiting_time": result.mean_waiting_time,
            }
        )
    return rows

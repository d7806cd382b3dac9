"""Runs the suite at --smoke length, the way a user and the driver run it.

Every run is its own interpreter (as in the real benchmark); they are started
together and collected once per test session, so the whole file costs about
as much wall time as its slowest run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent.parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

import compare  # noqa: E402
import workloads  # noqa: E402

#: name -> extra flags.  Between them: every workload end to end, one traced
#: run per product, and the driver's two forms (--trace 0 / --trace 1).
RUNS = {
    "sim-poisson-n4096": ["--trace", "1"],
    "sim-records-n1024": ["--trace", "0"],
    "sim-ftcrash-n1024": [],
    "sim-broadcast-ra256": ["--traced"],
    "sim-sharded-n16384": [],
    "svc-pingpong-n8": [],
    "svc-local-n8": ["--traced"],
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    started = {
        name: subprocess.Popen(
            [sys.executable, str(SUITE / "run.py"), "--workload", name, "--smoke",
             "--seed", "3", "--out", str(out / f"{name}.json"), *flags],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, flags in RUNS.items()
    }
    finished = {}
    for name, process in started.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{name}: exit {process.returncode}\n{stdout}\n{stderr}"
        finished[name] = {
            "stdout": stdout,
            "document": json.loads((out / f"{name}.json").read_text()),
        }
    return finished


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_the_runs_cover_the_workload_table():
    assert set(RUNS) == {w.name for w in workloads.WORKLOADS}


def test_every_workload_passes_its_output_checks(runs):
    for name, run in runs.items():
        result = run["document"]["workloads"][name]
        assert result["problems"] == [], name
        assert result["failed"] == 0 and result["attempted"] >= 1, name


def test_every_workload_emits_exactly_the_declared_end_to_end_metrics(runs):
    names = {m["name"] for m in declared()["end_to_end"]}
    for name, run in runs.items():
        metrics = run["document"]["workloads"][name]["metrics"]
        assert set(metrics) == names, name
        assert all(value > 0 for value in metrics.values()), (name, metrics)


def test_driver_forms_print_one_result_object_last(runs):
    document = declared()
    for name, group in (("sim-records-n1024", "end_to_end"), ("sim-poisson-n4096", "per_layer")):
        last = json.loads(runs[name]["stdout"].strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in document[group]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units
        assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_every_metric_is_printed_by_name_with_unit_and_direction(runs):
    stdout = runs["sim-records-n1024"]["stdout"]
    for metric in declared()["end_to_end"]:
        line = next(l for l in stdout.splitlines() if l.split()[:1] == [metric["name"]])
        assert metric["unit"] in line.split() and metric["better"] in line.split()


def test_trace_shares_sum_to_one(runs):
    for name in ("sim-poisson-n4096", "sim-broadcast-ra256", "svc-local-n8"):
        trace = runs[name]["document"]["workloads"][name]["trace"]
        shares = {k: v for k, v in trace["metrics"].items() if k.startswith("trace.share.")}
        assert abs(sum(shares.values()) - 1.0) <= 0.01, (name, shares)
        assert 0.0 < shares["trace.share.residual"] < 1.0, name
        assert trace["metrics"]["trace.overhead_ratio"] > 0
        assert trace["spans"] and {"id", "name", "start_ns", "end_ns", "parent"} == set(trace["spans"][0])
    sim = runs["sim-broadcast-ra256"]["document"]["workloads"]["sim-broadcast-ra256"]["trace"]["metrics"]
    assert sim["trace.share.simulation.simulator"] > 0 and sim["trace.share.runtime.wire"] == 0
    svc = runs["svc-local-n8"]["document"]["workloads"]["svc-local-n8"]["trace"]["metrics"]
    assert svc["trace.share.runtime.wire"] > 0 and svc["trace.share.simulation.simulator"] == 0


def test_ladder_rungs_are_positive_and_telescope(runs):
    layers = runs["sim-poisson-n4096"]["document"]["layers"]
    rungs = {k: v for k, v in layers.items() if k.startswith("ladder.")}
    assert len(rungs) == 8 and all(value > 0 for value in rungs.values()), rungs
    steps = ("simulator.push_pop_ns_d64", "cluster.relay_ns_per_event",
             "core.opencube.ns_per_event", "network.ns_per_event",
             "telemetry.hub_ns_per_event", "telemetry.fairness_ns_per_event")
    top = layers["ladder.top_ns_per_event"]
    assert abs(sum(layers[step] for step in steps) - top) <= 0.05 * top
    for counter in ("retransmits", "tokens_regenerated", "duplicates_dropped", "timer_deferrals"):
        assert layers[f"service.{counter}"] == 0


def test_compare_reads_a_run_against_itself_as_ok_and_a_slowdown_as_regressed(runs, capsys):
    document = runs["svc-pingpong-n8"]["document"]
    assert compare.compare([document], [document], declared()) == 0
    assert "exact same" in capsys.readouterr().out
    slower = json.loads(json.dumps(document))
    result = slower["workloads"]["svc-pingpong-n8"]
    result["metrics"]["grants_per_s"] *= 0.8
    result["spread"]["grants_per_s"] = 0.0
    document["workloads"]["svc-pingpong-n8"]["spread"]["grants_per_s"] = 0.0
    assert compare.compare([document], [slower], declared()) == 1
    assert "grants_per_s regressed 0.800x" in capsys.readouterr().out
    result["spread"]["grants_per_s"] = 0.5
    assert compare.compare([document], [slower], declared()) == 0
    assert "grants_per_s unresolved" in capsys.readouterr().out

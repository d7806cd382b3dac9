"""Static checks: BENCHMARK.json, the workload table and the suite agree."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent.parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    document = declared()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/suite"]
    assert document["command"] == ["python3", "benchmarks/suite/run.py"]
    assert document["run_seconds"] == workloads.NOMINAL_SECONDS


def test_metric_names_units_and_bounds_are_well_formed():
    document = declared()
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_workloads_in_benchmark_json_are_the_table():
    listed = {w["name"]: w["why"] for w in declared()["workloads"]}
    assert listed == {w.name: w.why for w in workloads.WORKLOADS}
    assert all(len(why) <= 200 and "\n" not in why for why in listed.values())


def test_every_workload_builds_from_its_seed_alone():
    for workload in workloads.WORKLOADS:
        count = workloads.segment_count(workload, 1 / 32)
        assert workload.build(7, count) == workload.build(7, count)
        assert workload.build(7, count) != workload.build(8, count)
        assert workload.layers, workload.name


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "svc-local-n8",
         "--seed", "1", "--seconds", "8", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode not in (0, 1)
    assert not done.stdout.strip()

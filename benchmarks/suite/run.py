"""One benchmark for both products: the simulator and the lock service.

Usage (from the repository root)::

    python benchmarks/suite/run.py                       # every workload, fresh interpreter each
    python benchmarks/suite/run.py --workload svc-local-n8 --seed 3
    python benchmarks/suite/run.py --traced --layers --out suite.json
    python benchmarks/suite/run.py --smoke               # 1/32 length, for tests

and the benchmark driver's form, one workload per call::

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Every metric is printed by name with its unit and direction, the outputs are
checked (see ``README.md``, "Output checks"), and the exit code is 1 when a
check fails.  With ``--trace`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro  # noqa: F401  (the program under test; absent outside a checkout)
except ImportError as exc:
    sys.stderr.write(f"benchmarks/suite: cannot import the program under test: {exc}\n")
    raise SystemExit(2)

import drivers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, trace_service, trace_simulation  # noqa: E402

SCHEMA = "bench-suite/v1"

#: Layers a traced run attributes self time to; ``BENCHMARK.json`` lists one
#: ``trace.share.<layer>`` per entry, and a layer a workload never enters
#: reads 0.
TRACED_LAYERS = (
    "simulation.simulator", "simulation.cluster", "simulation.network", "simulation.metrics",
    "simulation.sharding", "core", "telemetry", "workload", "verification",
    "runtime.wire", "runtime.transport", "runtime.client", "runtime.service", "runtime.monitor",
    "residual",
)


@functools.cache
def declared_metrics() -> dict[str, dict[str, Any]]:
    """``BENCHMARK.json``'s metric declarations by name (units, directions, bounds)."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in document["end_to_end"] + document["per_layer"]}


def peak_rss_mb() -> float:
    """High-water RSS of this interpreter plus that of its largest reaped
    child (the shard workers; 0 for every unsharded workload)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------
def _segment_specs(workload: workloads.Workload, seed: int, scale: float, segments: int) -> list:
    """Segment i of ``--seed s`` runs seed ``s * SEGMENTS + i``: distinct for
    every (s, i), and a function of ``--seed`` alone."""
    count = workloads.segment_count(workload, scale)
    return [workload.build(seed * workloads.SEGMENTS + i, count) for i in range(segments)]


def run_end_to_end(workload: workloads.Workload, seed: int, scale: float, segments: int) -> dict[str, Any]:
    if workload.service:
        schedule = workload.build(seed, workloads.segment_count(workload, scale))
        result = drivers.run_service(schedule, segments, setup_probes=segments - 1)
    else:
        (probe,) = _segment_specs(workload, seed, scale / 32, 1)
        result = drivers.run_simulation(
            _segment_specs(workload, seed, scale, segments),
            probe=probe, paper_bound=workload.paper_bound,
        )
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    return result


def run_traced(workload: workloads.Workload, seed: int, scale: float,
               untraced: dict[str, Any]) -> dict[str, Any]:
    """One extra segment with the suite's spans installed; see ``tracer.py``."""
    problems = []
    with Tracer() as tracer:
        if workload.service:
            from repro.core.builders import build_fault_tolerant_nodes

            schedule = workload.build(seed, workloads.segment_count(workload, scale))
            trace_service(tracer, build_fault_tolerant_nodes(schedule.n).values())
            traced = drivers.run_service(schedule, 1, setup_probes=0, timed=tracer.window)
        else:
            specs = _segment_specs(workload, seed, scale, 1)
            trace_simulation(tracer, specs[0].algorithm)
            traced = drivers.run_simulation(specs, timed=tracer.window)
            first_segment = {name: values[:1] for name, values in untraced["exact"].items()}
            if traced["exact"] != first_segment:
                problems.append("tracing: the traced segment simulated something else "
                                "than the same untraced one")
    shares = tracer.shares()
    metrics = {f"trace.share.{layer}": shares.pop(layer, 0.0) for layer in TRACED_LAYERS}
    assert not shares, f"spans on undeclared layers: {sorted(shares)}"
    metrics["trace.overhead_ratio"] = traced["metrics"]["wall_s"] / untraced["metrics"]["wall_s"]
    metrics["trace.spans"] = tracer.span_count()
    return {"metrics": metrics, "problems": problems + traced["problems"],
            "spans": tracer.span_rows()}


def run_child(args: argparse.Namespace, scale: float, segments: int) -> dict[str, Any]:
    """Everything one interpreter measures: a workload and/or the layer ladder."""
    document: dict[str, Any] = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "workloads": {},
    }
    if args.workload:
        workload = workloads.by_name(args.workload)
        # The driver's traced call reports per-layer numbers only; two
        # untraced segments are enough of a baseline for the overhead ratio.
        result = run_end_to_end(workload, args.seed, scale, 2 if args.trace else segments)
        if args.traced:
            trace = run_traced(workload, args.seed, scale, result)
            result["problems"] += trace.pop("problems")
            result["trace"] = trace
        document["workloads"][workload.name] = result
    if args.layers:
        import layers  # here, so an end-to-end run's RSS does not carry the ladder's imports

        document["layers"] = layers.measure_layers(args.seed, scale)
    return document


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def print_metrics(title: str, metrics: dict[str, float], spread: dict[str, float] | None = None) -> None:
    declared = declared_metrics()
    print(f"== {title}")
    for name, value in metrics.items():
        decl = declared.get(name, {})
        line = f"  {name:<38} {_format(value):>14} {decl.get('unit', ''):<6} {decl.get('better', ''):<6}"
        if spread and name in spread:
            line += f" {name}.spread={spread[name]:.3f}"
        print(line)


def print_document(document: dict[str, Any]) -> None:
    for name, result in document["workloads"].items():
        print_metrics(name, result["metrics"], result["spread"])
        samples = ", ".join(f"{key}={value}" for key, value in result["samples"].items())
        print(f"  samples: {samples}; attempted={result['attempted']} failed={result['failed']} "
              f"failed_share={result['failed'] / result['attempted']:.6f}")
        if "trace" in result:
            print_metrics(f"{name} (traced segment)", result["trace"]["metrics"])
        for problem in result["problems"]:
            print(f"  CHECK FAILED [{name}] {problem}")
    if "layers" in document:
        print_metrics("layers", document["layers"])


def contract_line(document: dict[str, Any], per_layer: bool) -> str:
    """The driver's result object for the single workload of ``document``."""
    (result,) = document["workloads"].values()
    if per_layer:
        values = {**result["trace"]["metrics"], **document["layers"]}
    else:
        values = result["metrics"]
    declared = declared_metrics()
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": declared[name]["unit"]}
                for name, value in values.items()
            },
        }
    )


# ----------------------------------------------------------------------
# Every workload, one fresh interpreter each
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> dict[str, Any]:
    scratch = SUITE / ".tmp"
    scratch.mkdir(exist_ok=True)
    common = [sys.executable, str(SUITE / "run.py"), "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    jobs = [["--workload", w.name] + (["--traced"] if args.traced else [])
            for w in workloads.WORKLOADS]
    if args.layers:
        jobs.append(["--layers", "--child"])
    merged: dict[str, Any] = {"workloads": {}}
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        for index, job in enumerate(jobs):
            path = Path(out) / f"{index}.json"
            # The child prints its own report; only its document is collected.
            status = subprocess.run(common + job + ["--out", str(path)], check=False).returncode
            if status not in (0, 1):
                raise SystemExit(f"benchmarks/suite: {' '.join(job)} exited with {status}")
            document = json.loads(path.read_text())
            merged = {**merged, **document,
                      "workloads": {**merged["workloads"], **document["workloads"]}}
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS,
                        help="nominal length of one run; request counts scale with it")
    parser.add_argument("--smoke", action="store_true", help="1/32 length, two segments (tests)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 prints the end-to-end result object, "
                             "1 the per-layer one (same as --traced --layers)")
    parser.add_argument("--traced", action="store_true", help="add one traced segment per workload")
    parser.add_argument("--layers", action="store_true", help="run the per-layer ladder")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace is the driver's per-workload form; name a --workload")
    if args.trace:
        args.traced = args.layers = True

    scale = args.seconds / workloads.NOMINAL_SECONDS / (32 if args.smoke else 1)
    segments = 2 if args.smoke else workloads.SEGMENTS
    if args.workload or args.child:
        document = run_child(args, scale, segments)
        print_document(document)
    else:
        document = run_all(args)
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    failed = [name for name, result in document["workloads"].items() if result["problems"]]
    if args.trace is not None:
        print(contract_line(document, per_layer=bool(args.trace)))
    elif not (args.workload or args.child):
        total = sum(r["metrics"]["wall_s"] * r["samples"]["segments"]
                    for r in document["workloads"].values())
        print(f"== {len(document['workloads'])} workloads, {total:.1f} s timed, "
              f"{len(failed)} failed their checks")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

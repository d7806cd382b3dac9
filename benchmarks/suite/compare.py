"""Compare two sets of suite results, metric by metric and workload by workload.

Usage::

    python benchmarks/suite/compare.py A B

``A`` (the base) and ``B`` (the change) are each a result document written by
``run.py --out``, or a directory of such documents — one per run, for the
alternating-pairs protocol of the README.  For every (end-to-end metric,
workload) pair it prints the two medians, the ratio ``B / A`` *with its
base*, the bound from ``BENCHMARK.json`` and one of

* ``ok``         — B is not worse than A by more than the bound;
* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — the run-to-run spread is wider than the bound, so the
  comparison cannot tell (unless every run of B beats every run of A, which
  reads ``ok``).

Spread is IQR / median across a side's runs; with one run per side it is the
spread that run recorded across its own segments.  Statistics that repeat
exactly for a seed (message counts, simulated waits, sync rounds, verdicts)
are compared for equality when both sides ran the same seed, and reported as
``same`` or ``CHANGED``.  Exit code 1 when anything regressed or changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from stats import median_spread

ROOT = Path(__file__).resolve().parent.parent.parent


def load_side(path: Path) -> list[dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no result documents under {path}")
    return [json.loads(file.read_text()) for file in files]


def side_summary(documents: list[dict[str, Any]], workload: str, metric: str):
    """``(values, median, spread)`` of one metric on one workload, or ``None``."""
    results = [d["workloads"][workload] for d in documents if workload in d["workloads"]]
    values = [r["metrics"][metric] for r in results if metric in r["metrics"]]
    if not values:
        return None
    median, spread = median_spread(values)
    if len(values) == 1:
        spread = results[0]["spread"].get(metric, 0.0)
    return values, median, spread


def judge(base, change, better: str, bound: float) -> tuple[str, float]:
    """Verdict and ``change / base`` ratio for one (metric, workload) pair."""
    (base_values, base_median, base_spread) = base
    (change_values, change_median, change_spread) = change
    ratio = change_median / base_median if base_median else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if better == "lower":
        dominates = max(change_values) < min(base_values)
    else:
        dominates = min(change_values) > max(base_values)
    if max(base_spread, change_spread) > bound and not dominates:
        return "unresolved", ratio
    return ("regressed" if worse_by > bound else "ok"), ratio


def exact_changes(base_docs, change_docs, workload: str) -> list[str] | None:
    """Exact statistics that differ between same-seed runs (``None``: no common seed)."""
    def by_seed(documents):
        return {d["seed"]: d["workloads"][workload]["exact"]
                for d in documents if workload in d["workloads"]}

    base, change = by_seed(base_docs), by_seed(change_docs)
    common = sorted(base.keys() & change.keys())
    if not common:
        return None
    return [
        f"seed {seed} {key}: {base[seed].get(key)} -> {change[seed].get(key)}"
        for seed in common
        for key in sorted(base[seed].keys() | change[seed].keys())
        if base[seed].get(key) != change[seed].get(key)
    ]


def compare(base_docs, change_docs, declared) -> int:
    workloads = [w for w in base_docs[0]["workloads"] if w in change_docs[0]["workloads"]]
    bad = 0
    summary = []
    for workload in workloads:
        print(f"== {workload}")
        cells = []
        for decl in declared["end_to_end"]:
            metric = decl["name"]
            base = side_summary(base_docs, workload, metric)
            change = side_summary(change_docs, workload, metric)
            if base is None or change is None:
                continue
            verdict, ratio = judge(base, change, decl["better"], decl["bound"])
            bad += verdict == "regressed"
            cells.append(f"{metric} {verdict} {ratio:.3f}x{base[1]:.4g}")
            print(
                f"  {metric:<18} {verdict:<10} {change[1]:.6g} / {base[1]:.6g} = {ratio:.4f} "
                f"({decl['unit']}, {decl['better']} is better, bound {decl['bound']:.2f}, "
                f"spread A {base[2]:.3f} B {change[2]:.3f}, runs {len(base[0])}+{len(change[0])})"
            )
        changed = exact_changes(base_docs, change_docs, workload)
        if changed is not None:
            bad += bool(changed)
            cells.append("exact CHANGED" if changed else "exact same")
            print(f"  {'exact statistics':<18} {'CHANGED  ' + '; '.join(changed) if changed else 'same'}")
        summary.append(f"{workload:<22} " + " | ".join(cells))
    print("== one workload per row: metric verdict ratio x base")
    for row in summary:
        print(row)
    return bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = compare(load_side(Path(argv[0])), load_side(Path(argv[1])), declared)
    print(f"== {bad} regressed or changed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

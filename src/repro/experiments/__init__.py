"""Experiment harness: one module per experiment family (complexity,
comparison, failures, structure and the ablations beyond the paper)."""

from repro.experiments.ablation import (
    behaviour_rule_ablation,
    channel_ordering_ablation,
    delay_model_ablation,
)
from repro.experiments.comparison import ComparisonRow, adaptivity_experiment, compare_algorithms
from repro.experiments.complexity import (
    ComplexityPoint,
    complexity_sweep,
    measure_complexity,
    measure_complexity_from_initial,
)
from repro.experiments.failures import (
    FailureOverheadResult,
    failure_overhead_sweep,
    measure_failure_overhead,
    single_failure_probe_cost,
)
from repro.experiments.runner import FT_MESSAGE_KINDS, RunResult, run_workload
from repro.experiments.structure import (
    b_transformation_report,
    branch_bound_report,
    figure2_tables,
    hypercube_subset_report,
)

__all__ = [
    "behaviour_rule_ablation",
    "channel_ordering_ablation",
    "delay_model_ablation",
    "ComparisonRow",
    "adaptivity_experiment",
    "compare_algorithms",
    "ComplexityPoint",
    "complexity_sweep",
    "measure_complexity",
    "measure_complexity_from_initial",
    "FailureOverheadResult",
    "failure_overhead_sweep",
    "measure_failure_overhead",
    "single_failure_probe_cost",
    "FT_MESSAGE_KINDS",
    "RunResult",
    "run_workload",
    "b_transformation_report",
    "branch_bound_report",
    "figure2_tables",
    "hypercube_subset_report",
]

"""Experiment drivers: classification (Figure 1), the growth-exponent fit, lower-bound
and partitioning adversaries, and the batch analysis pipeline."""

from .classification import (
    ClassificationCounts,
    Figure1Report,
    classify_standard_properties,
    figure1_report,
    sample_validity_property_space,
)
from .complexity import fit_growth_exponent
from .lower_bound import (
    CheapLeaderConsensus,
    CheapLeaderProcess,
    LowerBoundReport,
    dolev_reischuk_threshold,
    run_lower_bound_experiment,
)
from .partitioning import PartitionAttackReport, SplitBrainProcess, run_partitioning_attack
from .pipeline import (
    ANALYSIS_FORMAT_VERSION,
    AnalysisError,
    AnalysisRun,
    AnalysisVerdict,
    CrossCheckResult,
    PropertyTask,
    classify_task,
    cross_check_matrix,
    cross_check_tasks,
    default_tasks,
    diff_verdicts,
    enumerated_tasks,
    load_verdict_baseline,
    named_tasks,
    run_analysis,
    sampled_tasks,
    verdicts_to_json,
    verdicts_to_payload,
)

__all__ = [
    "ANALYSIS_FORMAT_VERSION",
    "AnalysisError",
    "AnalysisRun",
    "AnalysisVerdict",
    "CrossCheckResult",
    "PropertyTask",
    "classify_task",
    "cross_check_matrix",
    "cross_check_tasks",
    "default_tasks",
    "diff_verdicts",
    "enumerated_tasks",
    "load_verdict_baseline",
    "named_tasks",
    "run_analysis",
    "sampled_tasks",
    "verdicts_to_json",
    "verdicts_to_payload",
    "ClassificationCounts",
    "Figure1Report",
    "classify_standard_properties",
    "figure1_report",
    "sample_validity_property_space",
    "fit_growth_exponent",
    "LowerBoundReport",
    "CheapLeaderConsensus",
    "CheapLeaderProcess",
    "dolev_reischuk_threshold",
    "run_lower_bound_experiment",
    "PartitionAttackReport",
    "SplitBrainProcess",
    "run_partitioning_attack",
]

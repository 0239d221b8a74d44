"""End-to-end protocols: direct transfer, grounded training, ablations, gaps."""

from ugatlab.experiment.config import ExperimentConfig
from ugatlab.experiment.protocols import (
    METRIC_KEYS,
    EvalResult,
    GapReport,
    Grounder,
    MetricStats,
    SeedResult,
    aggregate_metrics,
    compare_uncertainty_methods,
    compute_gap,
    evaluate,
    run_ablation,
    run_arms,
    run_ugat,
    sweep_static_alpha,
    train_direct_policy,
)
from ugatlab.experiment import io

__all__ = [
    "EvalResult",
    "ExperimentConfig",
    "GapReport",
    "Grounder",
    "METRIC_KEYS",
    "MetricStats",
    "SeedResult",
    "aggregate_metrics",
    "compare_uncertainty_methods",
    "compute_gap",
    "evaluate",
    "io",
    "run_ablation",
    "run_arms",
    "run_ugat",
    "sweep_static_alpha",
    "train_direct_policy",
]

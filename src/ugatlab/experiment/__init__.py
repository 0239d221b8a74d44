"""End-to-end protocols: direct transfer, grounded training, ablations, gaps."""

from ugatlab.experiment.config import ExperimentConfig
from ugatlab.experiment.io import METRIC_KEYS, EvalResult, GapReport, MetricStats, SeedResult, compute_gap
from ugatlab.experiment.protocols import (
    Grounder,
    compare_uncertainty_methods,
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

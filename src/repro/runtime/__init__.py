"""Quality metrics and the greedy tuner."""

from .quality import (
    L1_NORM,
    L2_NORM,
    MEAN_RELATIVE,
    QualityMetric,
    l1_norm_error,
    l2_norm_error,
    mean_relative_error,
    relative_errors,
)
from .tuner import GreedyTuner, TuningResult, VariantProfile

__all__ = [
    "QualityMetric",
    "MEAN_RELATIVE",
    "L1_NORM",
    "L2_NORM",
    "mean_relative_error",
    "l1_norm_error",
    "l2_norm_error",
    "relative_errors",
    "GreedyTuner",
    "TuningResult",
    "VariantProfile",
]

"""Core library: data model, problem specs, and the paper's estimators."""

from .alpha_net import AlphaNetEstimator, SketchPlan, TheoremSixFiveGuarantee
from .dataset import ColumnQuery, Dataset
from .estimator import ProjectedFrequencyEstimator, pattern_words
from .exhaustive import ExactBaseline
from .frequency import FrequencyVector, exact_fp, exact_heavy_hitters
from .problems import (
    FpEstimation,
    FrequencyEstimation,
    HeavyHitters,
    LpSampling,
    ProjectedProblem,
)
from .rounding import AlphaNet, NeighbourRule, rounding_distortion
from .uniform_sample import UniformSampleEstimator, sample_size_for

__all__ = [
    "AlphaNet",
    "AlphaNetEstimator",
    "ColumnQuery",
    "Dataset",
    "ExactBaseline",
    "FpEstimation",
    "FrequencyEstimation",
    "FrequencyVector",
    "HeavyHitters",
    "LpSampling",
    "NeighbourRule",
    "ProjectedFrequencyEstimator",
    "ProjectedProblem",
    "SketchPlan",
    "TheoremSixFiveGuarantee",
    "UniformSampleEstimator",
    "exact_fp",
    "exact_heavy_hitters",
    "pattern_words",
    "rounding_distortion",
    "sample_size_for",
]

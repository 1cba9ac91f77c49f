"""Streaming sketch substrate.

Every sketch used by the projected-frequency estimators is implemented here
from scratch: the three families Algorithm 1 keeps per net member (KMV for
``F_0``, p-stable ``ℓ_p`` for ``F_p``, Count-Min for point queries), the
row samplers (reservoir, with-replacement) behind the uniform-sample
estimator, and the seeded Mersenne-61 hashing the sketches apply to their
integer keys.  :func:`~repro.sketches.base.collapse_block` is the one
projected-count kernel: the exact frequency vectors of :mod:`repro.core`
count patterns through it.
"""

from .base import (
    DistinctCountSketch,
    FrequencyMomentSketch,
    MergeableSketch,
    PointQuerySketch,
    Sketch,
    collapse_block,
    validate_counts,
)
from .countmin import CountMinSketch
from .hashing import MERSENNE_PRIME_61
from .kmv import KMVSketch, kmv_size_for_epsilon
from .reservoir import ReservoirSampler, WithReplacementSampler
from .stable_lp import StableLpSketch, median_of_absolute_stable, sample_p_stable

__all__ = [
    "CountMinSketch",
    "DistinctCountSketch",
    "FrequencyMomentSketch",
    "KMVSketch",
    "MERSENNE_PRIME_61",
    "MergeableSketch",
    "PointQuerySketch",
    "ReservoirSampler",
    "Sketch",
    "StableLpSketch",
    "WithReplacementSampler",
    "collapse_block",
    "kmv_size_for_epsilon",
    "median_of_absolute_stable",
    "sample_p_stable",
    "validate_counts",
]

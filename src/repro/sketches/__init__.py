"""Streaming sketch substrate.

Every sketch used by the projected-frequency estimators is implemented here
from scratch: the three families Algorithm 1 keeps per net member (KMV for
``F_0``, p-stable ``ℓ_p`` for ``F_p``, Count-Min for point queries), the
row samplers (reservoir, with-replacement) behind the uniform-sample
estimator, and the hash-function families they rely on.
:func:`~repro.sketches.base.collapse_block` is the one projected-count
kernel: the sketches' ``update_block`` kernels and the exact frequency
vectors of :mod:`repro.core` all count patterns through it.
"""

from .base import (
    DistinctCountSketch,
    FrequencyMomentSketch,
    MergeableSketch,
    PointQuerySketch,
    Sketch,
    as_item_block,
    as_query_block,
    collapse_block,
    validate_counts,
)
from .countmin import CountMinSketch
from .hashing import (
    MERSENNE_PRIME_61,
    HashFamily,
    PolynomialHash,
    hash_to_unit_interval,
    stable_hash64,
    stable_hash64_patterns,
)
from .kmv import KMVSketch, kmv_size_for_epsilon
from .reservoir import ReservoirSampler, WithReplacementSampler
from .stable_lp import StableLpSketch, median_of_absolute_stable, sample_p_stable

__all__ = [
    "CountMinSketch",
    "DistinctCountSketch",
    "FrequencyMomentSketch",
    "HashFamily",
    "KMVSketch",
    "MERSENNE_PRIME_61",
    "MergeableSketch",
    "PointQuerySketch",
    "PolynomialHash",
    "ReservoirSampler",
    "Sketch",
    "StableLpSketch",
    "WithReplacementSampler",
    "as_item_block",
    "as_query_block",
    "collapse_block",
    "hash_to_unit_interval",
    "kmv_size_for_epsilon",
    "median_of_absolute_stable",
    "sample_p_stable",
    "stable_hash64",
    "stable_hash64_patterns",
    "validate_counts",
]

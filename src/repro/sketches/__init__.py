"""Streaming sketch substrate.

Every sketch used by the projected-frequency estimators is implemented here
from scratch: distinct-count sketches (KMV, BJKST, HyperLogLog),
point-query / heavy-hitter sketches (Count-Min, Count-Sketch, Misra–Gries,
SpaceSaving), frequency-moment sketches (AMS ``F_2``, p-stable ``ℓ_p``),
row samplers (reservoir, with-replacement) and the hash-function families
they rely on.  :func:`~repro.sketches.base.collapse_block` is the one
projected-count kernel: the sketches' ``update_block`` kernels and the
exact frequency vectors of :mod:`repro.core` all count patterns through it.
"""

from .ams import AMSSketch
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
from .bjkst import BJKSTSketch
from .countmin import CountMinSketch
from .countsketch import CountSketch
from .hashing import (
    MERSENNE_PRIME_61,
    HashFamily,
    PolynomialHash,
    hash_to_unit_interval,
    stable_hash64,
    stable_hash64_patterns,
)
from .hyperloglog import HyperLogLog
from .kmv import KMVSketch, kmv_size_for_epsilon
from .misra_gries import MisraGries
from .reservoir import ReservoirSampler, WithReplacementSampler
from .space_saving import SpaceSaving, TrackedCount
from .stable_lp import StableLpSketch, median_of_absolute_stable, sample_p_stable

__all__ = [
    "AMSSketch",
    "BJKSTSketch",
    "CountMinSketch",
    "CountSketch",
    "DistinctCountSketch",
    "FrequencyMomentSketch",
    "HashFamily",
    "HyperLogLog",
    "KMVSketch",
    "MERSENNE_PRIME_61",
    "MergeableSketch",
    "MisraGries",
    "PointQuerySketch",
    "PolynomialHash",
    "ReservoirSampler",
    "Sketch",
    "SpaceSaving",
    "StableLpSketch",
    "TrackedCount",
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

"""Tests for the p-stable moment sketch and the samplers (reservoir)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sketches.reservoir import (
    ReservoirSampler,
    WithReplacementSampler,
)
from repro.sketches.stable_lp import (
    StableLpSketch,
    median_of_absolute_stable,
    sample_p_stable,
)


def _skewed_counts(n_items: int = 40, seed: int = 0) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    return {item: int(rng.integers(1, 50)) + (200 if item < 3 else 0) for item in range(n_items)}


def _replay(counts: dict[int, int], sketch) -> None:
    for item, count in counts.items():
        sketch.update(item, count)


def _miss_budget(trials: int, rate: float) -> int:
    """The fewest misses ``b`` with ``P(Binomial(trials, rate) > b) < 10^-3``.

    A seeded accuracy test checks one draw of the hash functions; a sweep
    over sketch seeds against this budget checks the sketch.
    """
    budget = 0
    while sum(
        math.comb(trials, misses) * rate**misses * (1 - rate) ** (trials - misses)
        for misses in range(budget + 1, trials + 1)
    ) >= 1e-3:
        budget += 1
    return budget


#: Sketch seeds each norm-accuracy sweep runs.
NORM_SWEEP_SEEDS = 100

#: Share of sketch seeds 0-999 whose norm estimate missed the 35% bound,
#: measured per p before the sweep replaced the one-seed test.
NORM_MISS_RATE = {0.5: 13 / 1000, 1.0: 0.0, 1.5: 0.0, 2.0: 0.0}


class TestStableLp:
    def test_p_stable_sampler_shapes_and_special_cases(self):
        rng = np.random.default_rng(0)
        gaussian = sample_p_stable(2.0, rng, 5000)
        cauchy = sample_p_stable(1.0, rng, 5000)
        general = sample_p_stable(0.5, rng, 5000)
        assert gaussian.shape == cauchy.shape == general.shape == (5000,)
        # Gaussian branch has finite second moment near 2 (stability scaling).
        assert 1.0 < np.var(gaussian) < 3.0
        with pytest.raises(InvalidParameterError):
            sample_p_stable(2.5, rng, 10)

    def test_median_constant_for_cauchy_is_one(self):
        assert median_of_absolute_stable(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    def test_norm_estimate_accuracy(self, p):
        """Over a sweep of sketch seeds, at most the miss budget of
        estimates are off by 35% or more."""
        counts = {item: count for item, count in _skewed_counts(20, seed=3).items()}
        true_norm = sum(c**p for c in counts.values()) ** (1.0 / p)
        misses = 0
        for seed in range(NORM_SWEEP_SEEDS):
            sketch = StableLpSketch(p=p, width=256, depth=3, seed=seed)
            _replay(counts, sketch)
            misses += abs(sketch.norm_estimate() - true_norm) / true_norm >= 0.35
        assert misses <= _miss_budget(NORM_SWEEP_SEEDS, NORM_MISS_RATE[p])

    def test_fp_estimate_is_norm_to_the_p(self):
        sketch = StableLpSketch(p=0.5, width=64, depth=1, seed=4)
        sketch.update(1, 4)
        assert sketch.estimate() == pytest.approx(sketch.norm_estimate() ** 0.5)

    def test_merge_requires_matching_p(self):
        with pytest.raises(InvalidParameterError):
            StableLpSketch(p=1.0, width=16, depth=1, seed=0).merge(
                StableLpSketch(p=2.0, width=16, depth=1, seed=0)
            )

    def test_f2_estimate_within_30_percent(self):
        counts = _skewed_counts(seed=1)
        true_f2 = sum(c * c for c in counts.values())
        sketch = StableLpSketch(p=2.0, width=96, depth=5, seed=1)
        _replay(counts, sketch)
        assert abs(sketch.estimate() - true_f2) / true_f2 < 0.3

    def test_merge_is_additive(self):
        counts = _skewed_counts(seed=2)
        whole = StableLpSketch(p=2.0, width=48, depth=3, seed=2)
        left = StableLpSketch(p=2.0, width=48, depth=3, seed=2)
        right = StableLpSketch(p=2.0, width=48, depth=3, seed=2)
        _replay(counts, whole)
        half = {item: count for item, count in counts.items() if item % 2 == 0}
        other = {item: count for item, count in counts.items() if item % 2 == 1}
        _replay(half, left)
        _replay(other, right)
        left.merge(right)
        assert left.estimate() == pytest.approx(whole.estimate(), rel=1e-9)

    def test_from_error_sizes(self):
        fine = StableLpSketch.from_error(2.0, epsilon=0.05)
        coarse = StableLpSketch.from_error(2.0, epsilon=0.3)
        assert fine.width > coarse.width
        assert StableLpSketch.from_error(2.0, 0.1, delta=0.001).depth > (
            StableLpSketch.from_error(2.0, 0.1, delta=0.2).depth
        )

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            StableLpSketch(p=2.0, width=0)
        with pytest.raises(InvalidParameterError):
            StableLpSketch(p=2.0, depth=0)
        with pytest.raises(InvalidParameterError):
            StableLpSketch(p=0.0)
        with pytest.raises(InvalidParameterError):
            StableLpSketch.from_error(2.0, epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            StableLpSketch.from_error(2.0, epsilon=0.1, delta=1.0)


class TestReservoirSamplers:
    def test_reservoir_holds_at_most_capacity(self):
        sampler = ReservoirSampler(capacity=50, seed=1)
        for value in range(1000):
            sampler.update(value)
        assert len(sampler) == 50
        assert sampler.items_processed == 1000
        assert set(sampler.sample()) <= set(range(1000))

    def test_reservoir_is_approximately_uniform(self):
        hits = 0
        trials = 300
        for seed in range(trials):
            sampler = ReservoirSampler(capacity=10, seed=seed)
            for value in range(100):
                sampler.update(value)
            hits += sum(1 for v in sampler.sample() if v < 10)
        # Each of the first 10 values is kept with probability 10/100.
        expected = trials * 10 * (10 / 100)
        assert abs(hits - expected) < 0.35 * expected

    def test_with_replacement_sampler_draw_count(self):
        sampler = WithReplacementSampler(draws=25, seed=2)
        for value in range(500):
            sampler.update(value)
        assert len(sampler.sample()) == 25

    def test_with_replacement_empty_stream(self):
        assert WithReplacementSampler(draws=5).sample() == []

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(capacity=0)

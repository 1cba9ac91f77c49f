"""Tests for the KMV distinct-count sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sketches.hashing import MERSENNE_PRIME_61
from repro.sketches.kmv import KMVSketch, kmv_size_for_epsilon

#: Key sets with repeats, consecutive runs, the field's edges and wide
#: strides: any pair sharing a hash would show as an undercount below k.
EXACT_KEY_SETS = {
    "consecutive": list(range(300)) * 2,
    "field-edges": [0, 1, 2, 2**32 - 1, 2**32, 2**60, MERSENNE_PRIME_61 - 2,
                    MERSENNE_PRIME_61 - 1, 0, MERSENNE_PRIME_61 - 1],
    "strided": [index << 32 for index in range(200)] * 2,
    "random": np.random.default_rng(5).integers(0, MERSENNE_PRIME_61, 400).tolist(),
}


@pytest.fixture(
    params=[
        pytest.param(lambda seed: KMVSketch(k=512, seed=seed), id="kmv"),
        pytest.param(lambda seed: KMVSketch.from_epsilon(0.2, seed=seed), id="kmv-from-epsilon"),
        # k above every stream's distinct count: the sketch never evicts.
        pytest.param(lambda seed: KMVSketch(k=8_192, seed=seed), id="kmv-unsaturated"),
    ]
)
def factory(request):
    """A fresh KMV sketch per seed, in each size the contract must hold at."""
    return request.param


class TestDistinctSketchContract:
    def test_empty_sketch_estimates_zero(self, factory):
        assert factory(0).estimate() == 0.0

    def test_exactness_on_tiny_streams(self, factory):
        sketch = factory(1)
        for key in [1, 2, 3, 1, 2]:
            sketch.update(key)
        assert sketch.estimate() == pytest.approx(3, abs=1.0)
        assert sketch.items_processed == 5

    def test_estimate_within_20_percent_on_large_stream(self, factory):
        sketch = factory(2)
        true_distinct = 5_000
        for value in range(true_distinct):
            sketch.update(value)
            if value % 3 == 0:  # duplicates must not change the answer
                sketch.update(value)
        estimate = sketch.estimate()
        assert abs(estimate - true_distinct) / true_distinct < 0.2

    def test_merge_equals_union(self, factory):
        left = factory(3)
        right = factory(3)
        for value in range(0, 3000):
            left.update(value)
        for value in range(1500, 4500):
            right.update(value)
        left.merge(right)
        combined = left.estimate()
        assert abs(combined - 4500) / 4500 < 0.25

    def test_merge_rejects_mismatched_configuration(self, factory):
        left = factory(1)
        right = factory(2)  # different seed
        with pytest.raises(InvalidParameterError):
            left.merge(right)

    def test_update_rejects_nonpositive_count(self, factory):
        with pytest.raises(InvalidParameterError):
            factory(0).update(17, count=0)

    def test_size_in_bits_positive_and_stable(self, factory):
        sketch = factory(0)
        before = sketch.size_in_bits()
        for value in range(1000):
            sketch.update(value)
        assert sketch.size_in_bits() == before > 0


class TestKMVSpecifics:
    def test_size_for_epsilon_monotone(self):
        assert kmv_size_for_epsilon(0.05) > kmv_size_for_epsilon(0.2)

    def test_from_epsilon_accuracy(self):
        sketch = KMVSketch.from_epsilon(0.1, seed=1)
        for value in range(20_000):
            sketch.update(value)
        assert abs(sketch.estimate() - 20_000) / 20_000 < 0.1

    def test_minimum_values_sorted_and_bounded(self):
        sketch = KMVSketch(k=16, seed=0)
        for value in range(1000):
            sketch.update(value)
        minima = list(sketch.minimum_values())
        assert minima == sorted(minima)
        assert len(minima) == 16

    def test_from_epsilon_sets_k(self):
        fine = KMVSketch.from_epsilon(0.05)
        coarse = KMVSketch.from_epsilon(0.2)
        assert fine.k > coarse.k
        assert coarse.k == kmv_size_for_epsilon(0.2)

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    @pytest.mark.parametrize("key_set", sorted(EXACT_KEY_SETS))
    def test_count_is_exact_below_k(self, key_set, seed):
        """The key hash is a bijection on [0, 2^61 - 1), so below k distinct
        keys the estimate is their exact number, by update and update_block."""
        keys = EXACT_KEY_SETS[key_set]
        distinct = len(set(keys))
        scalar = KMVSketch(k=distinct + 1, seed=seed)
        for key in keys:
            scalar.update(key)
        block = KMVSketch(k=distinct + 1, seed=seed)
        block.update_block(np.array(keys, dtype=np.uint64))
        assert scalar.estimate() == block.estimate() == distinct

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            KMVSketch(k=1)

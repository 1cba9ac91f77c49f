"""Tests for the Count-Min point-query sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sketches.countmin import CountMinSketch


def _zipf_stream(n_items: int, n_updates: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_items + 1, dtype=float)
    probabilities = ranks**-1.3
    probabilities /= probabilities.sum()
    return [int(v) for v in rng.choice(n_items, size=n_updates, p=probabilities)]


def _feed(sketch: CountMinSketch, stream: list[int]) -> None:
    for key in stream:
        sketch.update(key)


def _exact_counts(stream: list[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for item in stream:
        counts[item] = counts.get(item, 0) + 1
    return counts


class TestCountMin:
    def test_never_underestimates(self):
        stream = _zipf_stream(200, 5000, seed=1)
        exact = _exact_counts(stream)
        sketch = CountMinSketch(width=512, depth=5, seed=1)
        _feed(sketch, stream)
        for item, count in exact.items():
            assert sketch.estimate(item) >= count

    def test_additive_error_bound_holds(self):
        stream = _zipf_stream(200, 5000, seed=2)
        exact = _exact_counts(stream)
        sketch = CountMinSketch.from_error(epsilon=0.01, delta=0.01, seed=2)
        _feed(sketch, stream)
        budget = 0.02 * len(stream)  # generous vs the epsilon * F1 bound
        violations = sum(
            1 for item, count in exact.items() if sketch.estimate(item) - count > budget
        )
        assert violations == 0

    def test_merge_adds_counts(self):
        left = CountMinSketch(width=128, depth=4, seed=3)
        right = CountMinSketch(width=128, depth=4, seed=3)
        left.update(17, 10)
        right.update(17, 5)
        left.merge(right)
        assert left.estimate(17) >= 15
        assert left.items_processed == 15

    def test_merge_requires_same_configuration(self):
        with pytest.raises(InvalidParameterError):
            CountMinSketch(width=128, depth=4, seed=1).merge(
                CountMinSketch(width=128, depth=4, seed=2)
            )

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            CountMinSketch(width=1)
        with pytest.raises(InvalidParameterError):
            CountMinSketch.from_error(epsilon=2.0)
        with pytest.raises(InvalidParameterError):
            CountMinSketch(depth=0)
        with pytest.raises(InvalidParameterError):
            CountMinSketch.from_error(epsilon=0.1, delta=0.0)
        with pytest.raises(InvalidParameterError):
            CountMinSketch().additive_error_bound(delta=1.0)

    def test_from_error_width_grows_with_accuracy(self):
        assert CountMinSketch.from_error(0.01).width > CountMinSketch.from_error(0.1).width
        assert CountMinSketch.from_error(0.1, delta=0.001).depth > (
            CountMinSketch.from_error(0.1, delta=0.2).depth
        )

    def test_merge_of_one_item_is_exact(self):
        left = CountMinSketch(width=64, depth=3, seed=6)
        right = CountMinSketch(width=64, depth=3, seed=6)
        left.update(17, 20)
        right.update(17, 22)
        left.merge(right)
        assert left.estimate(17) == 42

    def test_guaranteed_recall_of_frequent_items(self):
        heavy = 1_000  # outside the Zipf keys [0, 50)
        stream = [heavy] * 400 + _zipf_stream(50, 600, seed=7)
        sketch = CountMinSketch(width=64, depth=4, seed=7)
        _feed(sketch, stream)
        # The heavy key holds 0.4 * F1, so every threshold below that
        # reports it: Count-Min never underestimates.
        assert sketch.estimate(heavy) >= 400
        assert sketch.estimate(heavy) >= 0.3 * len(stream)

    def test_error_bound(self):
        sketch = CountMinSketch(width=100, depth=3, seed=9)
        _feed(sketch, _zipf_stream(40, 1000, seed=9))
        assert sketch.additive_error_bound() == pytest.approx(np.e / 100 * 1000)

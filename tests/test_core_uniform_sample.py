"""Tests for the uniform-sampling estimator of Theorem 5.1 / Corollary 5.2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import ColumnQuery
from repro.core.frequency import FrequencyVector
from repro.core.uniform_sample import UniformSampleEstimator, sample_size_for
from repro.errors import EstimationError, InvalidParameterError


class TestSampleSizeFormula:
    def test_scales_inverse_quadratically_in_epsilon(self):
        assert sample_size_for(0.05) > sample_size_for(0.1) > sample_size_for(0.2)
        assert sample_size_for(0.1) >= 4 * sample_size_for(0.2) * 0.9

    def test_independent_of_n_and_d(self):
        # The key point of Theorem 5.1: the bound involves only epsilon, delta.
        assert sample_size_for(0.1, 0.01) == sample_size_for(0.1, 0.01)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sample_size_for(0.0)
        with pytest.raises(InvalidParameterError):
            sample_size_for(0.1, delta=1.0)


class TestFrequencyEstimation:
    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_additive_error_within_epsilon_n(self, zipfian_dataset, with_replacement):
        epsilon = 0.05
        estimator = UniformSampleEstimator.from_accuracy(
            n_columns=zipfian_dataset.n_columns,
            epsilon=epsilon,
            delta=0.01,
            with_replacement=with_replacement,
            seed=3,
        )
        estimator.observe(zipfian_dataset)
        query = ColumnQuery.of([0, 2, 5, 8], zipfian_dataset.n_columns)
        exact = FrequencyVector.from_dataset(zipfian_dataset, query)
        budget = 3 * epsilon * zipfian_dataset.n_rows  # 3x slack for the delta tail
        for pattern in list(exact.observed_patterns())[:10]:
            estimate = estimator.estimate_frequency(query, pattern)
            assert abs(estimate - exact.frequency(pattern)) <= budget

    def test_estimate_of_unseen_pattern_is_small(self, zipfian_dataset):
        estimator = UniformSampleEstimator(
            n_columns=zipfian_dataset.n_columns, sample_size=400, seed=1
        )
        estimator.observe(zipfian_dataset)
        query = ColumnQuery.of([0, 1, 2], zipfian_dataset.n_columns)
        exact = FrequencyVector.from_dataset(zipfian_dataset, query)
        unseen = next(
            pattern
            for pattern in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
            if exact.frequency(pattern) == 0
        ) if any(
            exact.frequency(p) == 0
            for p in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
        ) else None
        if unseen is not None:
            assert estimator.estimate_frequency(query, unseen) == 0.0

    def test_query_before_observation_fails(self):
        estimator = UniformSampleEstimator(n_columns=4, sample_size=10)
        with pytest.raises(EstimationError):
            estimator.estimate_frequency(ColumnQuery.of([0], 4), (0,))

    def test_pattern_length_must_match_query(self, small_binary_dataset):
        estimator = UniformSampleEstimator(n_columns=8, sample_size=50)
        estimator.observe(small_binary_dataset)
        with pytest.raises(EstimationError):
            estimator.estimate_frequency(ColumnQuery.of([0, 1], 8), (0, 1, 1))

    def test_row_width_validation(self):
        estimator = UniformSampleEstimator(n_columns=4, sample_size=10)
        with pytest.raises(EstimationError):
            estimator.observe_row((0, 1))


class TestHeavyHitters:
    def test_planted_heavy_hitters_are_recalled(self, planted_dataset):
        dataset, planted = planted_dataset
        estimator = UniformSampleEstimator(
            n_columns=dataset.n_columns, sample_size=600, seed=2
        )
        estimator.observe(dataset)
        query = ColumnQuery.all_columns(dataset.n_columns)
        report = estimator.heavy_hitters(query, phi=0.1, p=1.0)
        for pattern, count in planted.items():
            if count >= 0.15 * dataset.n_rows:
                assert pattern in report

    def test_no_wildly_light_false_positives(self, planted_dataset):
        dataset, _ = planted_dataset
        estimator = UniformSampleEstimator(
            n_columns=dataset.n_columns, sample_size=600, seed=4
        )
        estimator.observe(dataset)
        query = ColumnQuery.all_columns(dataset.n_columns)
        exact = FrequencyVector.from_dataset(dataset, query)
        report = estimator.heavy_hitters(query, phi=0.1, p=1.0)
        for pattern in report:
            assert exact.frequency(pattern) >= 0.02 * dataset.n_rows

    def test_fractional_p_supported(self, planted_dataset):
        dataset, planted = planted_dataset
        estimator = UniformSampleEstimator(
            n_columns=dataset.n_columns, sample_size=600, seed=5
        )
        estimator.observe(dataset)
        query = ColumnQuery.all_columns(dataset.n_columns)
        report = estimator.heavy_hitters(query, phi=0.05, p=0.5)
        # ||f||_0.5 >= ||f||_1, so thresholds are higher; the top planted
        # pattern still has a large share and must appear.
        top_pattern = max(planted, key=planted.get)
        assert top_pattern in report or planted[top_pattern] < 0.2 * dataset.n_rows

    def test_p_above_one_is_refused(self, small_binary_dataset):
        # Theorem 5.3: no small-space algorithm exists for p > 1, and the
        # estimator makes that explicit instead of answering badly.
        estimator = UniformSampleEstimator(n_columns=8, sample_size=50)
        estimator.observe(small_binary_dataset)
        with pytest.raises(EstimationError):
            estimator.heavy_hitters(ColumnQuery.of([0, 1], 8), phi=0.1, p=2.0)

    def test_phi_validation(self, small_binary_dataset):
        estimator = UniformSampleEstimator(n_columns=8, sample_size=50)
        estimator.observe(small_binary_dataset)
        with pytest.raises(InvalidParameterError):
            estimator.heavy_hitters(ColumnQuery.of([0], 8), phi=0.0)


class TestPlugInMoments:
    def test_f1_is_exact(self, small_binary_dataset):
        estimator = UniformSampleEstimator(n_columns=8, sample_size=64, seed=0)
        estimator.observe(small_binary_dataset)
        assert estimator.estimate_fp(ColumnQuery.of([0, 1], 8), 1) == float(
            small_binary_dataset.n_rows
        )

    def test_f0_plugin_is_a_lower_bound(self, small_binary_dataset):
        estimator = UniformSampleEstimator(n_columns=8, sample_size=64, seed=0)
        estimator.observe(small_binary_dataset)
        query = ColumnQuery.of([0, 1, 2, 3, 4], 8)
        exact = FrequencyVector.from_dataset(small_binary_dataset, query)
        assert estimator.estimate_fp(query, 0) <= exact.distinct_patterns()

    def test_space_is_independent_of_stream_length(self):
        small = UniformSampleEstimator(n_columns=10, sample_size=100)
        big = UniformSampleEstimator(n_columns=10, sample_size=100)
        small.observe([tuple([0] * 10)] * 50)
        big.observe([tuple([0] * 10)] * 5000)
        assert small.size_in_bits() == big.size_in_bits()

    def test_invalid_sample_size(self):
        with pytest.raises(InvalidParameterError):
            UniformSampleEstimator(n_columns=4, sample_size=0)


def _answers(estimator: UniformSampleEstimator) -> tuple:
    """Every query kind, on one query, in a comparable form."""
    query = ColumnQuery.of([0, 2, 5], 6)
    return (
        estimator.estimate_frequency(query, (1, 1, 1)),
        estimator.estimate_frequency_block(query, [(0, 0, 0), (1, 0, 1)]).tolist(),
        sorted(estimator.heavy_hitters(query, 0.1).items()),
        estimator.estimate_fp(query, 0),
        estimator.estimate_fp(query, 2),
        estimator.additive_error_bound(),
        dict(estimator.sample_frequencies(query).counts),
    )


@pytest.mark.parametrize(
    "with_replacement", [False, True], ids=["reservoir", "with-replacement"]
)
def test_answers_follow_every_mutation(with_replacement):
    """After observe, merge or load, answers equal a fresh restore's.

    The sample is held as a derived array.  Each step below changes the
    sample (it feeds or adopts rows unlike the ones before), so an array
    left from an earlier version would answer differently.
    """

    def make(seed: int, rows: np.ndarray) -> UniformSampleEstimator:
        estimator = UniformSampleEstimator(
            6, 40, with_replacement=with_replacement, seed=seed
        )
        return estimator.observe_rows(rows)

    rng = np.random.default_rng(4)
    ones = np.ones((3_000, 6), dtype=np.int64)
    estimator = make(1, rng.integers(0, 2, size=(200, 6)))
    steps = [
        lambda: estimator.observe_rows(ones),
        lambda: [estimator.observe_row((1, 0, 1, 0, 1, 0)) for _ in range(3_000)],
        lambda: estimator.merge(make(2, np.zeros((9_000, 6), dtype=np.int64))),
        lambda: estimator.load_state_dict(make(3, ones[:500]).state_dict()),
    ]
    before = _answers(estimator)
    for step in steps:
        step()
        after = _answers(estimator)
        restored = UniformSampleEstimator.from_bytes(estimator.to_bytes())
        assert after == _answers(restored)
        assert after != before
        before = after

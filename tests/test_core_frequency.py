"""Tests for frequency vectors and exact reference solvers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dataset import ColumnQuery, Dataset
from repro.core.exhaustive import ExactBaseline
from repro.core.frequency import FrequencyVector, exact_fp, exact_heavy_hitters
from repro.core.uniform_sample import UniformSampleEstimator
from repro.errors import InvalidParameterError, QueryError

# The Section 2 running example: A in {0,1}^{5x3}, C = first two columns.
PAPER_ROWS = [(1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0)]


@pytest.fixture()
def paper_example() -> FrequencyVector:
    dataset = Dataset.from_words(PAPER_ROWS, alphabet_size=2)
    return FrequencyVector.from_dataset(dataset, ColumnQuery.of([0, 1], 3))


class TestPaperExample:
    def test_f0_is_three(self, paper_example):
        assert paper_example.distinct_patterns() == 3
        assert paper_example.frequency_moment(0) == 3.0

    def test_f1_is_five_regardless_of_projection(self, paper_example):
        assert paper_example.total_rows() == 5
        dataset = Dataset.from_words(PAPER_ROWS, alphabet_size=2)
        other = FrequencyVector.from_dataset(dataset, ColumnQuery.of([2], 3))
        assert other.total_rows() == 5

    def test_frequency_vector_entries_match_remark_1(self, paper_example):
        # f = (1, 1, 0, 3) under the canonical index: 00, 01, 10, 11.
        dense = paper_example.to_dense()
        assert list(dense) == [1, 1, 0, 3]

    def test_point_frequencies(self, paper_example):
        assert paper_example.frequency((1, 1)) == 3
        assert paper_example.frequency((1, 0)) == 0


class TestMomentsAndNorms:
    def test_f2_matches_hand_computation(self, paper_example):
        assert paper_example.frequency_moment(2) == 1 + 1 + 9

    def test_lp_norm_consistency(self, paper_example):
        assert paper_example.lp_norm(1) == 5
        assert paper_example.lp_norm(2) == pytest.approx(math.sqrt(11))

    def test_fractional_moments_monotone(self, paper_example):
        # For p < 1, ||f||_p >= ||f||_1 (used by Corollary 5.2).
        assert paper_example.lp_norm(0.5) >= paper_example.lp_norm(1)

    def test_negative_p_rejected(self, paper_example):
        with pytest.raises(InvalidParameterError):
            paper_example.frequency_moment(-1)


class TestHeavyHittersAndSampling:
    def test_heavy_hitters_threshold(self, paper_example):
        heavy = paper_example.heavy_hitters(phi=0.5, p=1.0)
        assert heavy == {(1, 1): 3}

    def test_heavy_hitters_low_threshold_reports_all(self, paper_example):
        heavy = paper_example.heavy_hitters(phi=0.1, p=1.0)
        assert set(heavy) == {(1, 1), (0, 1), (0, 0)}

    def test_heavy_hitters_rejects_bad_phi(self, paper_example):
        with pytest.raises(InvalidParameterError):
            paper_example.heavy_hitters(phi=1.5)

    def test_sampling_distribution_sums_to_one(self, paper_example):
        for p in (0.5, 1.0, 2.0):
            distribution = paper_example.lp_sampling_distribution(p)
            assert sum(distribution.values()) == pytest.approx(1.0)

    def test_sampling_distribution_weights(self, paper_example):
        distribution = paper_example.lp_sampling_distribution(2.0)
        assert distribution[(1, 1)] == pytest.approx(9 / 11)

    def test_relative_frequency(self, paper_example):
        assert paper_example.relative_frequency((1, 1), p=1.0) == pytest.approx(0.6)


class TestConstructionAndValidation:
    def test_from_counts_drops_zero_entries(self):
        vector = FrequencyVector.from_counts(
            {(0, 1): 3, (1, 1): 0}, alphabet_size=2, pattern_length=2
        )
        assert len(vector) == 1

    def test_from_counts_validates_lengths(self):
        with pytest.raises(InvalidParameterError):
            FrequencyVector.from_counts(
                {(0, 1, 1): 1}, alphabet_size=2, pattern_length=2
            )

    def test_from_counts_rejects_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            FrequencyVector.from_counts(
                {(0, 1): -1}, alphabet_size=2, pattern_length=2
            )

    def test_dense_guard(self):
        vector = FrequencyVector.from_counts(
            {(0,) * 30: 1}, alphabet_size=2, pattern_length=30
        )
        with pytest.raises(QueryError):
            vector.to_dense(max_domain=1 << 20)

    def test_domain_size(self, paper_example):
        assert paper_example.domain_size == 4


class TestApproximationRatioAndWrappers:
    def test_approximation_ratio_symmetry(self, paper_example):
        truth = paper_example.frequency_moment(0)
        assert paper_example.approximation_ratio(truth * 2, 0) == pytest.approx(2.0)
        assert paper_example.approximation_ratio(truth / 2, 0) == pytest.approx(2.0)
        assert paper_example.approximation_ratio(truth, 0) == pytest.approx(1.0)

    def test_approximation_ratio_degenerate_cases(self, paper_example):
        assert paper_example.approximation_ratio(0.0, 0) == float("inf")

    def test_exact_wrappers(self):
        dataset = Dataset.from_words(PAPER_ROWS, alphabet_size=2)
        assert exact_fp(dataset, [0, 1], 0) == 3.0
        heavy = exact_heavy_hitters(dataset, [0, 1], phi=0.5)
        assert heavy == {(1, 1): 3}

    def test_f0_varies_widely_with_projection(self):
        # Section 3: F0 can be large on diverse columns and 1 on constant ones.
        rows = [(i % 2, (i >> 1) % 2, 0) for i in range(4)]
        dataset = Dataset.from_words(rows, alphabet_size=2)
        diverse = FrequencyVector.from_dataset(dataset, ColumnQuery.of([0, 1], 3))
        constant = FrequencyVector.from_dataset(dataset, ColumnQuery.of([2], 3))
        assert diverse.distinct_patterns() == 4
        assert constant.distinct_patterns() == 1


def _reference_counts(rows: np.ndarray) -> dict:
    """Pattern counts by an independent ``np.unique`` over the rows."""
    patterns, counts = np.unique(rows, axis=0, return_counts=True)
    return dict(zip(map(tuple, patterns.tolist()), counts.tolist()))


class TestOneCountingContract:
    """Every exact or sampled projected count agrees on counts and key order."""

    @pytest.fixture(params=[(2, 3), (3, 5)], ids=["binary", "q3"])
    def case(self, request):
        alphabet_size, seed = request.param
        dataset = Dataset.random(240, 6, alphabet_size=alphabet_size, seed=seed)
        query = ColumnQuery.of([0, 2, 5], 6)
        return dataset, query, dataset.to_array()[:, list(query.columns)]

    def _vectors(self, dataset, query):
        exact = ExactBaseline(n_columns=6, alphabet_size=dataset.alphabet_size)
        exact.observe(dataset)
        usample = UniformSampleEstimator(
            n_columns=6,
            sample_size=dataset.n_rows,
            alphabet_size=dataset.alphabet_size,
            seed=1,
        )
        usample.observe(dataset)
        return {
            "from_dataset": FrequencyVector.from_dataset(dataset, query),
            "exact_baseline": exact.frequencies(query),
            "usample": usample.sample_frequencies(query),
        }

    def test_counts_match_an_independent_count(self, case):
        dataset, query, projected = case
        expected = _reference_counts(projected)
        assert max(expected.values()) > 1  # the data repeats patterns
        for name, vector in self._vectors(dataset, query).items():
            assert dict(vector.counts) == expected, name
            assert vector.total_rows() == dataset.n_rows, name
            assert vector.pattern_length == len(query), name

    def test_a_shuffled_stream_gives_the_same_keys_in_the_same_order(self, case):
        dataset, query, projected = case
        order = np.random.default_rng(0).permutation(dataset.n_rows)
        shuffled = Dataset(dataset.to_array()[order], dataset.alphabet_size)
        keys = sorted(_reference_counts(projected))
        for vectors in (
            self._vectors(dataset, query),
            self._vectors(shuffled, query),
        ):
            for name, vector in vectors.items():
                assert list(vector.counts) == keys, name

    def test_with_replacement_draws_count_with_multiplicity(self, case):
        dataset, query, _ = case
        usample = UniformSampleEstimator(
            n_columns=6,
            sample_size=3 * dataset.n_rows,
            alphabet_size=dataset.alphabet_size,
            with_replacement=True,
            seed=4,
        )
        usample.observe(dataset)
        drawn = np.array(usample.state_dict()["summary"]["sampler"].sample())
        projected = drawn[:, list(query.columns)]
        vector = usample.sample_frequencies(query)
        assert len(set(map(tuple, drawn.tolist()))) < len(drawn)
        assert vector.total_rows() == 3 * dataset.n_rows
        assert dict(vector.counts) == _reference_counts(projected)
        assert list(vector.counts) == sorted(_reference_counts(projected))

    def test_exact_baseline_fractional_moment_is_bit_identical(self, case):
        dataset, query, _ = case
        exact = ExactBaseline(n_columns=6, alphabet_size=dataset.alphabet_size)
        exact.observe(dataset)
        assert exact.estimate_fp(query, 0.5) == exact_fp(dataset, query, 0.5)

    def test_from_rows_rejects_a_block_that_is_not_2d_integer(self):
        with pytest.raises(InvalidParameterError):
            FrequencyVector.from_rows(np.zeros(4, dtype=np.int64), alphabet_size=2)
        with pytest.raises(InvalidParameterError):
            FrequencyVector.from_rows(np.zeros((4, 2)), alphabet_size=2)

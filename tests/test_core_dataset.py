"""Tests for the dataset / column-query data model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import ColumnQuery, Dataset
from repro.errors import AlphabetError, DimensionError, QueryError


class TestColumnQuery:
    def test_of_sorts_and_deduplicates(self):
        query = ColumnQuery.of([5, 1, 3, 1], 8)
        assert query.columns == (1, 3, 5)
        assert len(query) == 3

    def test_membership_and_iteration(self):
        query = ColumnQuery.of([2, 4], 6)
        assert 2 in query and 3 not in query
        assert list(query) == [2, 4]

    def test_all_columns(self):
        assert ColumnQuery.all_columns(4).columns == (0, 1, 2, 3)

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            ColumnQuery.of([], 4)

    def test_out_of_range_columns_rejected(self):
        with pytest.raises(QueryError):
            ColumnQuery.of([4], 4)
        with pytest.raises(QueryError):
            ColumnQuery.of([-1], 4)

    def test_complement(self):
        query = ColumnQuery.of([0, 2], 4)
        assert query.complement().columns == (1, 3)
        with pytest.raises(QueryError):
            ColumnQuery.all_columns(3).complement()

    def test_symmetric_difference_size(self):
        a = ColumnQuery.of([0, 1, 2], 6)
        b = ColumnQuery.of([2, 3], 6)
        assert a.symmetric_difference_size(b) == 3
        with pytest.raises(QueryError):
            a.symmetric_difference_size(ColumnQuery.of([0], 5))


class TestDatasetConstruction:
    def test_from_array_and_shape(self):
        dataset = Dataset([[0, 1], [1, 0], [1, 1]], alphabet_size=2)
        assert dataset.shape == (3, 2)
        assert dataset.n_rows == 3 and dataset.n_columns == 2
        assert len(dataset) == 3

    def test_from_words(self):
        dataset = Dataset.from_words([(0, 1, 2), (2, 1, 0)], alphabet_size=3)
        assert dataset.row(1) == (2, 1, 0)

    def test_random_respects_alphabet(self):
        dataset = Dataset.random(100, 5, alphabet_size=4, seed=0)
        array = dataset.to_array()
        assert array.min() >= 0 and array.max() <= 3

    def test_rejects_out_of_alphabet_values(self):
        with pytest.raises(AlphabetError):
            Dataset([[0, 2]], alphabet_size=2)

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 3, 3), dtype=int))
        with pytest.raises(DimensionError):
            Dataset(np.zeros((0, 3), dtype=int))

    def test_row_index_bounds(self):
        dataset = Dataset([[0, 1]], alphabet_size=2)
        with pytest.raises(DimensionError):
            dataset.row(5)


class TestProjection:
    def test_project_returns_restricted_dataset(self):
        dataset = Dataset([[1, 0, 1], [0, 1, 1]], alphabet_size=2)
        projected = dataset.project([0, 2])
        assert projected.shape == (2, 2)
        assert projected.row(0) == (1, 1)

    def test_query_dimension_mismatch_rejected(self):
        dataset = Dataset.random(10, 4, seed=3)
        foreign = ColumnQuery.of([0], 9)
        with pytest.raises(QueryError):
            dataset.project(foreign)


class TestDatasetOperations:
    def test_concatenate(self):
        a = Dataset([[0, 1]], alphabet_size=2)
        b = Dataset([[1, 1], [0, 0]], alphabet_size=2)
        combined = a.concatenate(b)
        assert combined.n_rows == 3
        assert combined.row(2) == (0, 0)

    def test_concatenate_rejects_mismatched_shapes(self):
        a = Dataset([[0, 1]], alphabet_size=2)
        with pytest.raises(DimensionError):
            a.concatenate(Dataset([[0, 1, 1]], alphabet_size=2))
        with pytest.raises(AlphabetError):
            a.concatenate(Dataset([[0, 1]], alphabet_size=4))

    def test_size_in_bits(self):
        binary = Dataset.random(10, 8, alphabet_size=2, seed=0)
        qary = Dataset.random(10, 8, alphabet_size=5, seed=0)
        assert binary.size_in_bits() == 80
        assert qary.size_in_bits() == 240  # ceil(log2 5) = 3 bits per symbol

    def test_to_array_is_a_copy(self):
        dataset = Dataset([[0, 1]], alphabet_size=2)
        array = dataset.to_array()
        array[0, 0] = 1
        assert dataset.row(0) == (0, 1)

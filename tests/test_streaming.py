"""Tests for the streaming substrate: row streams and space accounting."""

from __future__ import annotations

import pytest

from repro.core.dataset import Dataset
from repro.errors import DimensionError, InvalidParameterError
from repro.streaming.memory import (
    compare_space,
    format_bits,
    naive_storage_bits,
    per_subset_summaries,
)
from repro.streaming.stream import RowStream


@pytest.fixture()
def dataset() -> Dataset:
    return Dataset.random(n_rows=300, n_columns=6, seed=17)


class TestRowStream:
    def test_stream_from_dataset_replays(self, dataset):
        stream = RowStream(dataset)
        assert stream.count() == 300
        assert stream.count() == 300  # replayable

    def test_from_rows_and_take(self):
        stream = RowStream.from_rows([(0, 1), (1, 1), (1, 0)], n_columns=2)
        assert stream.take(2) == [(0, 1), (1, 1)]
        assert stream.count() == 3

    def test_chunking_covers_all_rows(self, dataset):
        stream = RowStream(dataset)
        chunks = list(stream.chunks(64))
        assert sum(len(chunk) for chunk in chunks) == 300
        assert all(len(chunk) <= 64 for chunk in chunks)

    def test_shuffled_preserves_the_multiset(self, dataset):
        stream = RowStream(dataset)
        shuffled = stream.shuffled(seed=1)
        assert sorted(stream) == sorted(shuffled)
        assert list(stream) != list(shuffled)

    def test_map_rows(self):
        stream = RowStream.from_rows([(0, 1), (1, 0)], n_columns=2)
        flipped = stream.map_rows(lambda row: tuple(1 - s for s in row))
        assert list(flipped) == [(1, 0), (0, 1)]

    def test_map_rows_honours_explicit_falsy_arguments(self):
        # An explicit (invalid) n_columns=0 must raise, not silently fall
        # back to the source's width the way `n_columns or default` did.
        stream = RowStream.from_rows([(0, 1), (1, 0)], n_columns=2)
        with pytest.raises(DimensionError):
            stream.map_rows(lambda row: row, n_columns=0)
        with pytest.raises(InvalidParameterError):
            stream.map_rows(lambda row: row, alphabet_size=0)

    def test_map_rows_explicit_geometry_is_used(self):
        stream = RowStream.from_rows([(0, 1), (1, 0)], n_columns=2)
        widened = stream.map_rows(
            lambda row: row + (2,), n_columns=3, alphabet_size=3
        )
        assert widened.n_columns == 3
        assert widened.alphabet_size == 3
        assert list(widened) == [(0, 1, 2), (1, 0, 2)]

    def test_map_rows_validates_transform_width_on_first_row(self):
        stream = RowStream.from_rows([(0, 1), (1, 0)], n_columns=2)
        truncating = stream.map_rows(lambda row: row[:1])
        with pytest.raises(DimensionError, match="transform"):
            next(iter(truncating))

    def test_iter_batches_covers_stream_in_order(self, dataset):
        stream = RowStream(dataset)
        rows = []
        expected_start = 0
        for start, block in stream.iter_batches(64):
            assert start == expected_start
            assert block.shape[1] == 6
            assert block.shape[0] <= 64
            rows.extend(tuple(row) for row in block.tolist())
            expected_start += block.shape[0]
        assert rows == list(stream)

    def test_iter_batches_generator_source_matches_dataset_source(self, dataset):
        materialised = RowStream.from_rows(list(RowStream(dataset)), n_columns=6)
        from_dataset = [
            (start, block.tolist())
            for start, block in RowStream(dataset).iter_batches(50)
        ]
        from_generator = [
            (start, block.tolist()) for start, block in materialised.iter_batches(50)
        ]
        assert from_dataset == from_generator

    def test_iter_batches_validates_batch_size(self, dataset):
        with pytest.raises(InvalidParameterError):
            list(RowStream(dataset).iter_batches(0))

    def test_row_width_enforced(self):
        stream = RowStream(lambda: iter([(0, 1, 1)]), n_columns=2, alphabet_size=2)
        with pytest.raises(DimensionError):
            list(stream)

    def test_generator_source_requires_metadata(self):
        with pytest.raises(InvalidParameterError):
            RowStream(lambda: iter([(0,)]))

    def test_to_dataset_roundtrip(self, dataset):
        assert RowStream(dataset).to_dataset().shape == dataset.shape

    @pytest.mark.parametrize("policy", ["round_robin", "hash"])
    def test_shard_substreams_partition_the_stream(self, dataset, policy):
        stream = RowStream(dataset)
        shards = [stream.shard(i, 3, policy=policy) for i in range(3)]
        scattered = [row for shard in shards for row in shard]
        assert sorted(scattered) == sorted(stream)

    def test_shard_validation(self, dataset):
        stream = RowStream(dataset)
        with pytest.raises(InvalidParameterError):
            stream.shard(0, 0)
        with pytest.raises(InvalidParameterError):
            stream.shard(2, 2)
        with pytest.raises(InvalidParameterError):
            stream.shard(0, 2, policy="modulo")


class TestSpaceAccounting:
    def test_format_bits_units(self):
        assert format_bits(100) == "100 bits"
        assert "KiB" in format_bits(8 * 4096)
        assert "MiB" in format_bits(8 * 4 * 1024 * 1024)

    def test_naive_storage(self):
        assert naive_storage_bits(100, 10, 2) == 1000
        assert naive_storage_bits(100, 10, 4) == 2000

    def test_per_subset_summaries(self):
        assert per_subset_summaries(10, 3) == 120
        with pytest.raises(InvalidParameterError):
            per_subset_summaries(10, 0)

    def test_compare_space(self):
        comparison = compare_space(
            summary_bits=500, n_rows=100, n_columns=10, query_size=3
        )
        assert comparison.fraction_of_naive == pytest.approx(0.5)
        assert comparison.saves_space
        assert comparison.all_subsets == 120

    def test_compare_space_defaults_to_power_set(self):
        comparison = compare_space(summary_bits=10, n_rows=1, n_columns=5)
        assert comparison.all_subsets == 32

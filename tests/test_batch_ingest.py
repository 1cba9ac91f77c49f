"""Property tests for the vectorized batch-ingest pipeline.

The contract that makes ``observe_rows`` a pure fast path: for the same
seed, feeding a stream row by row and block by block — under *any* block
split — must leave an estimator in an equivalent state.  For the sampling
summaries the equivalence is bit-exact (the block kernels consume the RNG at
the same bit-stream positions as the per-row path), so these tests compare
raw sampler state, not just query answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AlphaNetEstimator,
    ColumnQuery,
    Coordinator,
    Dataset,
    ExactBaseline,
    RowStream,
    SketchPlan,
    UniformSampleEstimator,
)
from repro.coding.words import project_word, word_to_index
from repro.errors import EstimationError, InvalidParameterError
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch
from repro.sketches.reservoir import (
    ReservoirSampler,
    WithReplacementSampler,
)
from repro.streaming.stream import shard_assignment, shard_assignment_block

D = 8
DATA = Dataset.random(n_rows=700, n_columns=D, alphabet_size=3, seed=21)
STREAM = RowStream(DATA)
QUERY = ColumnQuery.of([0, 2, 5], D)


def _blocks(array: np.ndarray, splits: list[int]) -> list[np.ndarray]:
    """Cut ``array`` into blocks at the given (sorted) row offsets."""
    bounds = [0] + sorted(set(s for s in splits if 0 < s < len(array))) + [len(array)]
    return [array[a:b] for a, b in zip(bounds, bounds[1:])]


# -- sampler kernels: bit-identical to the per-item path --------------------------


@settings(max_examples=20, deadline=None)
@given(
    n_items=st.integers(min_value=0, max_value=120),
    capacity=st.integers(min_value=1, max_value=20),
    splits=st.lists(st.integers(min_value=1, max_value=119), max_size=5),
    seed=st.integers(min_value=0, max_value=50),
)
def test_reservoir_block_kernel_is_bit_identical(n_items, capacity, splits, seed):
    rows = np.arange(n_items * 3, dtype=np.int64).reshape(n_items, 3)
    row_fed = ReservoirSampler(capacity=capacity, seed=seed)
    for row in rows:
        row_fed.update(tuple(int(v) for v in row))
    block_fed = ReservoirSampler(capacity=capacity, seed=seed)
    for block in _blocks(rows, splits):
        block_fed.update_block(block)
    assert block_fed.sample() == row_fed.sample()
    assert block_fed.items_processed == row_fed.items_processed


@settings(max_examples=20, deadline=None)
@given(
    n_items=st.integers(min_value=0, max_value=80),
    draws=st.integers(min_value=1, max_value=12),
    splits=st.lists(st.integers(min_value=1, max_value=79), max_size=4),
    seed=st.integers(min_value=0, max_value=50),
)
def test_with_replacement_block_kernel_is_bit_identical(n_items, draws, splits, seed):
    rows = np.arange(n_items * 2, dtype=np.int64).reshape(n_items, 2)
    row_fed = WithReplacementSampler(draws=draws, seed=seed)
    for row in rows:
        row_fed.update(tuple(int(v) for v in row))
    block_fed = WithReplacementSampler(draws=draws, seed=seed)
    for block in _blocks(rows, splits):
        block_fed.update_block(block)
    assert block_fed.sample() == row_fed.sample()
    assert block_fed.items_processed == row_fed.items_processed


def test_with_replacement_block_kernel_chunks_large_blocks():
    """A block bigger than the kernel's element budget is processed in
    chunks without breaking RNG-stream equivalence."""
    draws = 4
    rows = np.arange(60 * 2, dtype=np.int64).reshape(60, 2)
    row_fed = WithReplacementSampler(draws=draws, seed=9)
    for row in rows:
        row_fed.update(tuple(int(v) for v in row))
    block_fed = WithReplacementSampler(draws=draws, seed=9)
    block_fed._BLOCK_ELEMENT_BUDGET = 7 * draws  # force several chunks
    block_fed.update_block(rows)
    assert block_fed.sample() == row_fed.sample()


# -- estimator-level equivalence --------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(splits=st.lists(st.integers(min_value=1, max_value=699), max_size=6))
def test_exact_baseline_batch_equals_per_row(splits):
    per_row = ExactBaseline(n_columns=D, alphabet_size=3).observe(STREAM)
    batch = ExactBaseline(n_columns=D, alphabet_size=3)
    for block in _blocks(DATA.to_array(), splits):
        batch.observe_rows(block)
    assert batch.rows_observed == per_row.rows_observed
    for p in (0, 1, 2):
        assert batch.estimate_fp(QUERY, p) == per_row.estimate_fp(QUERY, p)
    assert batch.heavy_hitters(QUERY, phi=0.05) == per_row.heavy_hitters(
        QUERY, phi=0.05
    )
    pattern = (0, 1, 2)
    assert batch.estimate_frequency(QUERY, pattern) == per_row.estimate_frequency(
        QUERY, pattern
    )


def test_exact_baseline_interleaves_rows_and_blocks_in_order():
    rows = DATA.to_array()
    mixed = ExactBaseline(n_columns=D, alphabet_size=3)
    mixed.observe_row(tuple(int(v) for v in rows[0]))
    mixed.observe_rows(rows[1:400])
    mixed.observe_row(tuple(int(v) for v in rows[400]))
    mixed.observe_rows(rows[401:])
    assert mixed.to_dataset().to_array().tolist() == rows.tolist()


@pytest.mark.parametrize("with_replacement", [False, True])
def test_uniform_sample_batch_has_identical_sample(with_replacement):
    factory = lambda: UniformSampleEstimator(  # noqa: E731
        n_columns=D,
        sample_size=48,
        alphabet_size=3,
        with_replacement=with_replacement,
        seed=11,
    )
    per_row = factory().observe(STREAM)
    batch = factory()
    for _, block in STREAM.iter_batches(97):
        batch.observe_rows(block)
    assert batch._sampler.sample() == per_row._sampler.sample()
    assert batch.rows_observed == per_row.rows_observed
    pattern = (0, 1, 2)
    assert batch.estimate_frequency(QUERY, pattern) == per_row.estimate_frequency(
        QUERY, pattern
    )


def test_alpha_net_batch_equals_per_row():
    factory = lambda: AlphaNetEstimator(  # noqa: E731
        n_columns=D,
        alpha=0.3,
        plan=SketchPlan.default_f0(epsilon=0.3, seed=5),
        alphabet_size=3,
    )
    per_row = factory().observe(STREAM)
    batch = factory()
    for _, block in STREAM.iter_batches(128):
        batch.observe_rows(block)
    for columns in ([0, 2, 5], [1, 3], [0, 1, 2, 3, 4]):
        query = ColumnQuery.of(columns, D)
        assert batch.estimate_fp(query, 0) == per_row.estimate_fp(query, 0)


def _referee_plan() -> SketchPlan:
    return SketchPlan(
        distinct_factory=lambda index: KMVSketch(k=24, seed=40 + index),
        point_factory=lambda index: CountMinSketch(width=31, depth=4, seed=40 + index),
    )


@pytest.mark.parametrize("path", ["rows", "blocks", "one-row-blocks"])
def test_alpha_net_members_equal_standalone_sketches_fed_canonical_keys(path):
    """The canonical-key referee: member i's slices of the KMV and
    Count-Min banks equal, array for array, standalone sketches with the
    same seeds fed Remark 1's index of every row's pattern on member i,
    row by row."""
    estimator = AlphaNetEstimator(
        n_columns=D, alpha=0.3, plan=_referee_plan(), alphabet_size=3
    )
    rows = DATA.to_array()
    if path == "rows":
        for row in rows.tolist():
            estimator.observe_row(row)
    elif path == "blocks":
        for _, block in STREAM.iter_batches(128):
            estimator.observe_rows(block)
    else:
        for row in rows:
            estimator.observe_rows(row[np.newaxis, :])
    plan = _referee_plan()
    distinct, point = estimator._distinct, estimator._point
    for index, member in enumerate(estimator._members):
        kmv, countmin = plan.distinct_factory(index), plan.point_factory(index)
        for row in rows.tolist():
            key = word_to_index(project_word(row, member.columns), 3)
            kmv.update(key)
            countmin.update(key)
        occupied = distinct.occupancy[index]
        assert np.array_equal(distinct.coefficients[index], kmv._coefficients[0])
        assert np.array_equal(distinct.minima[index, :occupied], kmv._minima), member
        assert np.array_equal(point.coefficients[index], countmin._coefficients)
        assert np.array_equal(point.table[index], countmin._table), member
        assert distinct.estimate(index) == kmv.estimate()


# -- observe_rows validation and version counter ----------------------------------


def test_observe_rows_validates_block_shape_and_dtype():
    estimator = ExactBaseline(n_columns=D)
    with pytest.raises(EstimationError):
        estimator.observe_rows(np.zeros(D, dtype=np.int64))  # 1-D
    with pytest.raises(EstimationError):
        estimator.observe_rows(np.zeros((3, D + 1), dtype=np.int64))  # width
    with pytest.raises(EstimationError):
        estimator.observe_rows(np.zeros((3, D), dtype=np.float64))  # dtype
    estimator.observe_rows(np.zeros((0, D), dtype=np.int64))  # empty is a no-op
    assert estimator.rows_observed == 0


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ExactBaseline(n_columns=D, alphabet_size=3),
        lambda: UniformSampleEstimator(D, sample_size=8, alphabet_size=3, seed=1),
        lambda: AlphaNetEstimator(
            D, alpha=0.3, plan=SketchPlan.default_f0(seed=5), alphabet_size=3
        ),
    ],
    ids=["exact", "usample", "alpha-net"],
)
def test_observe_refuses_symbols_outside_the_alphabet(factory):
    """A row block or a single row holding a symbol outside [0, Q), or a
    row symbol that is not an integer, is refused before anything changes."""
    estimator = factory()
    for symbol in (3, -1):
        block = np.zeros((4, D), dtype=np.int64)
        block[2, 5] = symbol
        with pytest.raises(EstimationError, match="outside the alphabet"):
            estimator.observe_rows(block)
        with pytest.raises(EstimationError, match="outside the alphabet"):
            estimator.observe_row(tuple(block[2].tolist()))
    with pytest.raises(EstimationError, match="not an integer"):
        estimator.observe_row((0.7,) + (0,) * (D - 1))
    assert estimator.rows_observed == 0 and estimator.version == 0


def test_observe_dispatches_ndarray_to_observe_rows():
    estimator = ExactBaseline(n_columns=D, alphabet_size=3)
    estimator.observe(DATA.to_array())
    assert estimator.rows_observed == DATA.n_rows


def test_version_counter_increases_on_every_mutation():
    estimator = ExactBaseline(n_columns=D, alphabet_size=3)
    assert estimator.version == 0
    estimator.observe_row((0,) * D)
    after_row = estimator.version
    assert after_row > 0
    estimator.observe_rows(np.zeros((5, D), dtype=np.int64))
    after_block = estimator.version
    assert after_block > after_row
    other = ExactBaseline(n_columns=D, alphabet_size=3)
    other.observe_row((1,) * D)
    estimator.merge(other)
    assert estimator.version > after_block


# -- block-wise shard assignment --------------------------------------------------


@pytest.mark.parametrize("policy", ["round_robin", "hash"])
def test_shard_assignment_block_matches_per_row(policy):
    block = DATA.to_array()[:200]
    start = 137
    vectorized = shard_assignment_block(start, block, 5, policy, hash_seed=3)
    reference = [
        shard_assignment(start + i, tuple(int(v) for v in row), 5, policy, 3)
        for i, row in enumerate(block)
    ]
    assert vectorized.tolist() == reference


# -- coordinator batch pipeline ---------------------------------------------------


@pytest.mark.parametrize("policy", ["round_robin", "hash"])
@pytest.mark.parametrize("n_shards", [1, 3])
def test_coordinator_batch_path_equals_row_path(policy, n_shards):
    row_path = Coordinator(
        lambda: ExactBaseline(n_columns=D, alphabet_size=3),
        n_shards=n_shards,
        policy=policy,
        backend="serial",
    )
    row_report = row_path.ingest(STREAM)
    block_path = Coordinator(
        lambda: ExactBaseline(n_columns=D, alphabet_size=3),
        n_shards=n_shards,
        policy=policy,
        backend="serial",
        batch_size=96,
    )
    report = block_path.ingest(STREAM)
    assert report.rows_total == DATA.n_rows
    assert report.rows_per_shard == row_report.rows_per_shard
    for p in (0, 1, 2):
        assert block_path.merged_estimator.estimate_fp(
            QUERY, p
        ) == row_path.merged_estimator.estimate_fp(QUERY, p)


def test_coordinator_batch_process_backend_matches_serial():
    factory = lambda: AlphaNetEstimator(  # noqa: E731
        n_columns=D,
        alpha=0.3,
        plan=SketchPlan.default_f0(epsilon=0.3, seed=5),
        alphabet_size=3,
    )
    parallel = Coordinator(factory, n_shards=2, backend="processes", batch_size=128)
    serial = Coordinator(factory, n_shards=2, backend="serial", batch_size=128)
    parallel.ingest(STREAM)
    serial.ingest(STREAM)
    assert parallel.merged_estimator.estimate_fp(QUERY, 0) == (
        serial.merged_estimator.estimate_fp(QUERY, 0)
    )


def test_coordinator_batch_sampler_is_bit_identical_to_row_path():
    """Round-robin + serial: each shard sees the same substream in the same
    order under both paths, so the seeded shard samplers, and the merge
    that folds them together, end up identical: sample and RNG state."""
    factory = lambda: UniformSampleEstimator(  # noqa: E731
        n_columns=D, sample_size=32, alphabet_size=3, seed=4
    )
    row_path = Coordinator(factory, n_shards=2, backend="serial")
    block_path = Coordinator(factory, n_shards=2, backend="serial", batch_size=64)
    row_path.ingest(STREAM)
    block_path.ingest(STREAM)
    row_state = row_path.merged_estimator._sampler.state_dict()
    block_state = block_path.merged_estimator._sampler.state_dict()
    assert len(row_state["reservoir"]) == 32
    assert row_state["items_processed"] == DATA.n_rows
    assert row_state == block_state


def test_coordinator_validates_batch_size():
    with pytest.raises(InvalidParameterError):
        Coordinator(lambda: ExactBaseline(n_columns=D), batch_size=0)

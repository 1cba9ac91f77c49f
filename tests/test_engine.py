"""Tests for the sharded engine: partitioning, coordination, serving.

The load-bearing property is acceptance-criterion #3 of the engine design:
a :class:`~repro.engine.coordinator.Coordinator` with ``N >= 2`` shards must
produce estimates equal (deterministic summaries) or statistically
equivalent (randomized summaries with shared seeds) to single-shard
ingestion of the same stream.
"""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro import (
    AlphaNetEstimator,
    ColumnQuery,
    Coordinator,
    Dataset,
    EstimationError,
    ExactBaseline,
    InvalidParameterError,
    QueryRequest,
    QueryService,
    RowStream,
    SketchPlan,
    StreamPartitioner,
    UniformSampleEstimator,
    telemetry,
)
from repro.engine import service as service_module

D = 8
DATA = Dataset.random(n_rows=600, n_columns=D, seed=4)
STREAM = RowStream(DATA)
QUERY = ColumnQuery.of([0, 3, 6], D)


def _alpha_net_factory() -> AlphaNetEstimator:
    return AlphaNetEstimator(
        n_columns=D, alpha=0.3, plan=SketchPlan.default_f0(epsilon=0.3, seed=9)
    )


# -- partitioning ---------------------------------------------------------------


def _routed(partitioner: StreamPartitioner, stream: RowStream) -> list[list]:
    """Each shard's rows, in routed order, as lists of row tuples."""
    buckets: list[list] = [[] for _ in range(partitioner.n_shards)]
    for shard, rows in partitioner.route(stream, 64):
        buckets[shard].extend(tuple(row) for row in rows.tolist())
    return buckets


@pytest.mark.parametrize("policy", ["round_robin", "hash"])
def test_partition_is_exact_cover(policy: str) -> None:
    partitioner = StreamPartitioner(n_shards=4, policy=policy)
    buckets = _routed(partitioner, STREAM)
    assert len(buckets) == 4
    merged = [row for bucket in buckets for row in bucket]
    assert sorted(merged) == sorted(STREAM)


def test_round_robin_balances_exactly() -> None:
    buckets = _routed(StreamPartitioner(n_shards=4, policy="round_robin"), STREAM)
    assert [len(bucket) for bucket in buckets] == [150, 150, 150, 150]


def test_hash_policy_is_content_addressed() -> None:
    """Hash placement ignores arrival order: a shuffled replay lands rows
    on exactly the same shards."""
    partitioner = StreamPartitioner(n_shards=4, policy="hash", hash_seed=2)
    original = _routed(partitioner, STREAM)
    shuffled = _routed(partitioner, STREAM.shuffled(seed=13))
    assert [sorted(bucket) for bucket in original] == [
        sorted(bucket) for bucket in shuffled
    ]


@pytest.mark.parametrize("hash_seed", [0, 9])
@pytest.mark.parametrize("n_shards", [2, 3, 5, 8])
def test_hash_policy_spreads_distinct_rows(n_shards: int, hash_seed: int) -> None:
    """Every shard receives a fair share of the 4,096 distinct binary rows of
    width 12, and another seed places them differently."""
    rows = (np.arange(2**12)[:, np.newaxis] >> np.arange(12)) & 1
    placements = StreamPartitioner(
        n_shards=n_shards, policy="hash", hash_seed=hash_seed
    ).assign_block(0, rows)
    sizes = np.bincount(placements, minlength=n_shards)
    fair = rows.shape[0] / n_shards
    assert 0.8 * fair < sizes.min() and sizes.max() < 1.2 * fair
    reseeded = StreamPartitioner(
        n_shards=n_shards, policy="hash", hash_seed=hash_seed + 1
    ).assign_block(0, rows)
    assert not np.array_equal(placements, reseeded)


def test_lazy_substreams_match_routed_blocks() -> None:
    partitioner = StreamPartitioner(n_shards=3, policy="hash", hash_seed=5)
    assert [
        list(STREAM.shard(index, 3, policy="hash", hash_seed=5))
        for index in range(3)
    ] == _routed(partitioner, STREAM)


def test_route_yields_sub_blocks_in_stream_order() -> None:
    """One ``(shard, rows)`` pair per non-empty shard of each block, block
    by block and in shard order within a block."""
    partitioner = StreamPartitioner(n_shards=3, policy="round_robin")
    routed = list(partitioner.route(STREAM, 100))
    assert [shard for shard, _ in routed] == [0, 1, 2] * 6
    assert all(rows.dtype == np.int64 for _, rows in routed)
    first = DATA.to_array()[:100]
    for shard in range(3):
        assert np.array_equal(routed[shard][1], first[shard::3])


def test_partitioner_validation() -> None:
    with pytest.raises(InvalidParameterError):
        StreamPartitioner(n_shards=0)
    with pytest.raises(InvalidParameterError):
        StreamPartitioner(n_shards=2, policy="range")
    with pytest.raises(InvalidParameterError):
        STREAM.shard(3, 3)
    with pytest.raises(InvalidParameterError):
        STREAM.shard(0, 2, policy="range")


# -- coordinator equivalence ----------------------------------------------------


@pytest.mark.parametrize("policy", ["round_robin", "hash"])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_exact_baseline_equals_single_node(policy: str, n_shards: int) -> None:
    coordinator = Coordinator(
        lambda: ExactBaseline(n_columns=D),
        n_shards=n_shards,
        policy=policy,
        backend="serial",
    )
    report = coordinator.ingest(STREAM)
    single = ExactBaseline(n_columns=D).observe(STREAM)
    assert report.rows_total == 600
    assert sum(report.rows_per_shard) == 600
    merged = coordinator.merged_estimator
    assert merged.rows_observed == single.rows_observed
    for p in (0, 1, 2):
        assert merged.estimate_fp(QUERY, p) == single.estimate_fp(QUERY, p)
    assert merged.heavy_hitters(QUERY, phi=0.05) == single.heavy_hitters(
        QUERY, phi=0.05
    )


def test_sharded_alpha_net_equals_single_node() -> None:
    """Lossless sketch merges make sharded == single-node, bit for bit."""
    coordinator = Coordinator(
        _alpha_net_factory, n_shards=4, policy="round_robin", backend="serial"
    )
    coordinator.ingest(STREAM)
    single = _alpha_net_factory().observe(STREAM)
    for columns in ([0, 3, 6], [1, 2], [0, 1, 2, 3, 4]):
        query = ColumnQuery.of(columns, D)
        assert coordinator.merged_estimator.estimate_fp(
            query, 0
        ) == single.estimate_fp(query, 0)


def test_process_backend_matches_serial_backend() -> None:
    parallel = Coordinator(_alpha_net_factory, n_shards=2, backend="processes")
    serial = Coordinator(_alpha_net_factory, n_shards=2, backend="serial")
    report = parallel.ingest(STREAM)
    serial.ingest(STREAM)
    assert report.backend == "processes"
    assert parallel.merged_estimator.estimate_fp(QUERY, 0) == (
        serial.merged_estimator.estimate_fp(QUERY, 0)
    )


def test_sharded_uniform_sample_is_statistically_equivalent() -> None:
    """Randomized summary: the sharded estimate obeys the single-node
    accuracy guarantee against the exact answer."""
    coordinator = Coordinator(
        lambda: UniformSampleEstimator(n_columns=D, sample_size=150, seed=6),
        n_shards=4,
        backend="serial",
    )
    coordinator.ingest(STREAM)
    merged = coordinator.merged_estimator
    assert merged.rows_observed == 600
    exact = ExactBaseline(n_columns=D).observe(STREAM)
    pattern = (0, 1, 1)
    assert abs(
        merged.estimate_frequency(QUERY, pattern)
        - exact.estimate_frequency(QUERY, pattern)
    ) <= 3 * merged.additive_error_bound()


def test_incremental_ingest_accumulates() -> None:
    coordinator = Coordinator(
        lambda: ExactBaseline(n_columns=D), n_shards=2, backend="serial"
    )
    half = 300
    rows = list(STREAM)
    coordinator.ingest(RowStream.from_rows(rows[:half], D))
    coordinator.ingest(RowStream.from_rows(rows[half:], D))
    single = ExactBaseline(n_columns=D).observe(STREAM)
    assert coordinator.merged_estimator.rows_observed == 600
    assert coordinator.merged_estimator.estimate_fp(QUERY, 2) == single.estimate_fp(
        QUERY, 2
    )


def test_coordinator_guards() -> None:
    with pytest.raises(InvalidParameterError):
        Coordinator(lambda: ExactBaseline(n_columns=D), backend="threads")
    coordinator = Coordinator(lambda: ExactBaseline(n_columns=D), n_shards=2)
    with pytest.raises(EstimationError):
        coordinator.merged_estimator


def test_unmergeable_estimator_cannot_be_sharded() -> None:
    from repro.core.estimator import ProjectedFrequencyEstimator

    class Opaque(ProjectedFrequencyEstimator):
        def _observe(self, row) -> None:
            pass

        def size_in_bits(self) -> int:
            return 0

    coordinator = Coordinator(
        lambda: Opaque(n_columns=D), n_shards=2, backend="serial"
    )
    with pytest.raises(EstimationError):
        coordinator.ingest(STREAM)

    # One shard needs no merge for a single batch, but a second batch would
    # have to merge into the first — refused up front, before any ingestion.
    single = Coordinator(lambda: Opaque(n_columns=D), n_shards=1, backend="serial")
    single.ingest(STREAM)
    with pytest.raises(EstimationError):
        single.ingest(STREAM)


# -- query service --------------------------------------------------------------


def _service(cache_size: int = 64) -> QueryService:
    coordinator = Coordinator(
        lambda: ExactBaseline(n_columns=D), n_shards=2, backend="serial"
    )
    coordinator.ingest(STREAM)
    return coordinator.query_service(cache_size=cache_size)


def test_service_answers_match_estimator() -> None:
    service = _service()
    direct = ExactBaseline(n_columns=D).observe(STREAM)
    assert service.estimate_fp(QUERY, 0) == direct.estimate_fp(QUERY, 0)
    pattern = (1, 1, 0)
    assert service.estimate_frequency(QUERY, pattern) == direct.estimate_frequency(
        QUERY, pattern
    )
    assert service.heavy_hitters(QUERY, phi=0.05) == direct.heavy_hitters(
        QUERY, phi=0.05
    )


def test_service_caches_repeat_queries() -> None:
    service = _service()
    first = service.estimate_fp(QUERY, 2)
    second = service.estimate_fp(QUERY, 2)
    assert first == second
    info = service.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert info.hit_rate == 0.5
    # Latency is recorded for the miss only.
    assert service.stats()["fp"].count == 1


def test_service_batch_queries_and_stats() -> None:
    service = _service()
    queries = [ColumnQuery.of(cols, D) for cols in ([0], [1, 2], [3, 4, 5])]
    answers = service.batch_estimate_fp(queries, p=0)
    assert len(answers) == 3
    assert service.stats()["fp"].count == 3
    repeats = service.batch_estimate_fp(queries, p=0)
    assert repeats == answers
    assert service.cache_info().hits == 3


def test_service_cache_eviction_and_disable() -> None:
    service = _service(cache_size=2)
    queries = [ColumnQuery.of([c], D) for c in range(4)]
    for query in queries:
        service.estimate_fp(query, 0)
    assert service.cache_info().size == 2
    uncached = _service(cache_size=0)
    uncached.estimate_fp(QUERY, 0)
    uncached.estimate_fp(QUERY, 0)
    assert uncached.cache_info().hits == 0
    with pytest.raises(InvalidParameterError):
        QueryService(ExactBaseline(n_columns=D), cache_size=-1)


def test_service_heavy_hitter_cache_returns_copies() -> None:
    service = _service()
    report = service.heavy_hitters(QUERY, phi=0.05)
    report.clear()
    assert service.heavy_hitters(QUERY, phi=0.05) != {}


def test_service_invalidate_clears_cache() -> None:
    service = _service()
    service.estimate_fp(QUERY, 0)
    service.invalidate()
    assert service.cache_info().size == 0
    service.estimate_fp(QUERY, 0)
    assert service.cache_info().misses == 2


def test_service_auto_invalidates_after_later_ingest() -> None:
    """Regression: a service created before a later Coordinator.ingest used
    to keep serving answers cached against the smaller summary, because the
    ingest merged into the shared estimator in place without the service
    noticing.  The estimator version check must force a recompute."""
    coordinator = Coordinator(
        lambda: ExactBaseline(n_columns=D), n_shards=2, backend="serial"
    )
    rows = list(STREAM)
    coordinator.ingest(RowStream.from_rows(rows[:200], D))
    service = coordinator.query_service()
    assert service.estimate_fp(QUERY, 1) == 200.0
    coordinator.ingest(RowStream.from_rows(rows[200:], D))
    # Same query again: must reflect the merged data, not the cached answer.
    assert service.estimate_fp(QUERY, 1) == 600.0
    single = ExactBaseline(n_columns=D).observe(STREAM)
    for p in (0, 2):
        assert service.estimate_fp(QUERY, p) == single.estimate_fp(QUERY, p)
    assert service.heavy_hitters(QUERY, phi=0.05) == single.heavy_hitters(
        QUERY, phi=0.05
    )


def test_service_recomputes_after_the_estimator_is_restored() -> None:
    """Restoring other state into a served estimator is a mutation: it bumps
    the version, so the service drops answers cached before the restore."""
    rows = DATA.to_array()
    served = ExactBaseline(n_columns=D).observe(rows[:200])
    other = ExactBaseline(n_columns=D).observe(rows[:50])
    service = QueryService(served)
    assert service.estimate_fp(QUERY, 1) == 200.0
    served.load_state_dict(other.state_dict())
    assert served.estimate_fp(QUERY, 1) == 50.0
    assert service.estimate_fp(QUERY, 1) == 50.0


def test_service_cache_still_hits_between_ingests() -> None:
    """The version check only drops the cache when the summary actually
    mutated; repeat queries in a quiet period still hit."""
    service = _service()
    service.estimate_fp(QUERY, 0)
    service.estimate_fp(QUERY, 0)
    info = service.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# -- queries built for another dimension -------------------------------------------

FOREIGN_DATA = Dataset.random(n_rows=200, n_columns=6, seed=2)
QUERY_D6 = ColumnQuery.of([0, 3], 6)
#: The same columns, built for d = 9: the cache key and the frequency
#: grouping see only columns, so this query must be refused before either.
QUERY_D9 = ColumnQuery.of([0, 3], 9)
FOREIGN = "query dimension 9 does not match estimator dimension 6"

_SCALAR_ENTRY_POINTS = {
    "estimate_fp": lambda service, query: service.estimate_fp(query, 0),
    "estimate_frequency": lambda service, query: service.estimate_frequency(
        query, (0, 1)
    ),
    "heavy_hitters": lambda service, query: service.heavy_hitters(query, phi=0.2),
}


def _foreign_service(cache_size: int = 1024) -> QueryService:
    estimator = ExactBaseline(n_columns=6).observe(FOREIGN_DATA)
    return QueryService(estimator, cache_size=cache_size)


@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRY_POINTS))
def test_service_refuses_a_query_of_another_dimension_after_its_twin(entry) -> None:
    """A cached answer for the d = 6 query is never served for the d = 9 one."""
    service = _foreign_service()
    ask = _SCALAR_ENTRY_POINTS[entry]
    ask(service, QUERY_D6)
    with pytest.raises(EstimationError, match=FOREIGN):
        ask(service, QUERY_D9)
    assert service.cache_info().hits == 0


def test_answer_block_refuses_a_cached_query_of_another_dimension() -> None:
    service = _foreign_service()
    service.answer_block([QueryRequest.fp(QUERY_D6, 0)])
    with pytest.raises(EstimationError, match=FOREIGN):
        service.answer_block([QueryRequest.fp(QUERY_D9, 0)])
    assert service.cache_info().hits == 0


def test_uncached_batch_refuses_a_query_of_another_dimension() -> None:
    """Frequency misses group by columns, so without the check the d = 9
    request was answered under the d = 6 one."""
    service = _foreign_service(cache_size=0)
    with pytest.raises(EstimationError, match=FOREIGN):
        service.answer_block(
            [
                QueryRequest.frequency(QUERY_D6, (0, 1)),
                QueryRequest.frequency(QUERY_D9, (0, 1)),
            ]
        )
    assert service.cache_info().misses == 0


def test_latency_recorder_percentiles(monkeypatch) -> None:
    """The service's latency histogram: exact count/total/mean/min/max, and
    p50/p95 as bucket bounds never below the exact nearest-rank value."""
    service = _service()
    assert set(service.stats()) == {"cache"}  # no kind before its first miss
    durations = (0.01, 0.02, 0.03, 0.04, 0.10)
    ticks = iter(
        [tick for start, d in enumerate(durations) for tick in (start, start + d)]
    )
    monkeypatch.setattr(
        service_module, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
    )
    for column in range(len(durations)):
        service.estimate_fp(ColumnQuery.of([column], D), 0)
    summary = service.stats()["fp"]
    assert summary.count == 5
    assert summary.total_seconds == pytest.approx(0.20)
    assert summary.mean_seconds == pytest.approx(0.04)
    assert summary.min_seconds == pytest.approx(0.01)
    assert summary.max_seconds == pytest.approx(0.10)
    # p50's exact value is 0.03; its log-scale bucket ends at 2^15 us.
    assert summary.p50_seconds == pytest.approx(2**15 * 1e-6)
    # p95's bucket ends above the largest sample, so it is capped there.
    assert summary.p95_seconds == summary.max_seconds
    assert (
        summary.min_seconds
        <= summary.p50_seconds
        <= summary.p95_seconds
        <= summary.max_seconds
    )


class _ConstantEstimator(ExactBaseline):
    """An estimator whose answers cost nothing, so only serving state shows."""

    def estimate_frequency_block(self, query, patterns) -> np.ndarray:
        return np.ones(len(patterns))


def test_serving_memory_is_bounded() -> None:
    """20,000 uncached answers with telemetry on and no tracer installed
    leave no per-answer state behind."""
    service = QueryService(_ConstantEstimator(n_columns=D), cache_size=0)
    pattern = (1, 0, 1)
    was_enabled = telemetry.enabled()
    telemetry.enable()
    try:
        assert telemetry.get_tracer() is None
        with telemetry.scoped_registry():
            service.estimate_frequency(QUERY, pattern)  # creates every series
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(20_000):
                    service.estimate_frequency(QUERY, pattern)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
    finally:
        if not was_enabled:
            telemetry.disable()
    assert service.stats()["frequency"].count == 20_001
    assert grown < 64 * 1024

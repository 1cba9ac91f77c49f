"""E12 — Sharded engine: ingest throughput and batch-query latency.

Measures the engine's two hot paths:

* ingest throughput (rows/sec) at 1, 2, 4 and 8 shards, serial vs process
  workers;
* batch-query latency (mean / p95 per query) through the
  :class:`~repro.engine.service.QueryService`, cold cache vs warm cache.

Correctness is asserted unconditionally: every shard count must answer
queries identically to the single-shard summary (the default sketch plan
merges losslessly).  The wall-clock speedup assertion is gated on the
machine actually having more than one usable core — process parallelism
cannot beat serial ingest on a single-core container, and pretending
otherwise would make the benchmark flaky rather than informative.
"""

from __future__ import annotations

import os
import time

from _bench_utils import emit, render_table
from repro import ColumnQuery, Coordinator, RowStream
from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.workloads.synthetic import zipfian_rows

N_ROWS, N_COLUMNS = 1_500, 10
SHARD_COUNTS = (1, 2, 4, 8)
QUERIES = [
    ColumnQuery.of(columns, N_COLUMNS)
    for columns in ([0, 3, 7], [1, 2, 4], [0, 1, 2, 3, 4], [5, 8], [2, 6, 9], [1, 9])
]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _factory() -> AlphaNetEstimator:
    return AlphaNetEstimator(
        n_columns=N_COLUMNS, alpha=0.25, plan=SketchPlan.default_f0(epsilon=0.3, seed=4)
    )


def test_sharded_ingest_throughput(benchmark):
    """Rows/sec at 1..8 shards, each against single-shard serial ingest."""
    stream = RowStream(
        zipfian_rows(
            n_rows=N_ROWS,
            n_columns=N_COLUMNS,
            distinct_patterns=250,
            exponent=1.2,
            seed=9,
        )
    )

    def run_sweep():
        results = []
        for n_shards in SHARD_COUNTS:
            coordinator = Coordinator(
                _factory,
                n_shards=n_shards,
                policy="round_robin",
                backend="serial" if n_shards == 1 else "processes",
            )
            started = time.perf_counter()
            report = coordinator.ingest(stream)
            wall = time.perf_counter() - started
            answer = coordinator.merged_estimator.estimate_fp(QUERIES[0], 0)
            results.append((f"engine x{n_shards}", report.backend, wall, answer))
        return results

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    serial_wall = next(w for name, _, w, _ in results if name == "engine x1")
    emit(
        f"Ingest of {N_ROWS} x {N_COLUMNS} rows into an alpha-net summary "
        f"({_usable_cores()} usable core(s))",
        render_table(
            ["configuration", "backend", "wall seconds", "rows/sec", "speedup"],
            [
                (
                    name,
                    backend,
                    round(wall, 2),
                    round(N_ROWS / wall),
                    f"{serial_wall / wall:.2f}x",
                )
                for name, backend, wall, _ in results
            ],
        ),
    )

    # Sharded == single-shard, exactly, for every shard count.
    answers = {answer for _, _, _, answer in results}
    assert len(answers) == 1
    # Parallel ingest must beat single-shard serial ingest whenever the
    # hardware can physically run workers concurrently.
    if _usable_cores() >= 2:
        parallel_wall = next(w for name, _, w, _ in results if name == "engine x4")
        assert parallel_wall < serial_wall, (
            f"4-shard parallel ingest ({parallel_wall:.2f}s) should beat "
            f"serial ingest ({serial_wall:.2f}s) on {_usable_cores()} cores"
        )


def test_batch_query_latency(benchmark):
    """Per-query service latency, cold vs warm cache, at 4 shards."""
    stream = RowStream(
        zipfian_rows(
            n_rows=N_ROWS,
            n_columns=N_COLUMNS,
            distinct_patterns=250,
            exponent=1.2,
            seed=9,
        )
    )
    coordinator = Coordinator(_factory, n_shards=4, backend="serial")
    coordinator.ingest(stream)

    def serve_batches():
        service = coordinator.query_service(cache_size=512)
        cold_started = time.perf_counter()
        cold = service.batch_estimate_fp(QUERIES, p=0)
        cold_seconds = time.perf_counter() - cold_started
        warm_started = time.perf_counter()
        warm = service.batch_estimate_fp(QUERIES, p=0)
        warm_seconds = time.perf_counter() - warm_started
        return service, cold, warm, cold_seconds, warm_seconds

    service, cold, warm, cold_seconds, warm_seconds = benchmark.pedantic(
        serve_batches, rounds=1, iterations=1
    )
    stats = service.stats()["fp"]
    info = service.cache_info()
    emit(
        f"Batch of {len(QUERIES)} F0 queries through the QueryService",
        render_table(
            ["pass", "batch seconds", "per-query mean", "per-query p95"],
            [
                ("cold cache", f"{cold_seconds:.5f}", f"{stats.mean_seconds * 1e6:.0f} us",
                 f"{stats.p95_seconds * 1e6:.0f} us"),
                ("warm cache", f"{warm_seconds:.5f}", "cache hit", "cache hit"),
            ],
        ),
    )
    assert cold == warm
    assert info.hits == len(QUERIES)
    assert info.misses == len(QUERIES)
    assert stats.count == len(QUERIES)
    # A warm batch never touches the summary, so it must not be slower by
    # more than noise; typically it is orders of magnitude faster.
    assert warm_seconds <= cold_seconds * 2

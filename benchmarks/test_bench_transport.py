"""E15 — Transport backends: segmented ingest on every backend.

The ``processes`` backend pays a full worker-pool spawn plus an estimator
snapshot round trip on *every* ``ingest()`` call; the ``sockets`` backend
keeps its shard-server connections open across calls, so repeated ingest
segments pay only row-block shipping plus one snapshot per segment.  This
benchmark replays the same Zipf stream in segments through every backend
— ``serial``, ``processes`` and a ``sockets`` loopback — and records the
total wall time across the segments with the machine's usable cores.

Only what physics supports is asserted: every backend must answer the
probe queries identically (the KMV + Count-Min plan merges losslessly
and the sockets backend replays the serial blocking exactly), the worker
backends must account the bytes they ship, and the serial backend ships
none.  Which backend is fastest depends on the cores available; the
numbers are recorded, not gated.  Results can be written to
``BENCH_transport.json`` with ``--record-bench`` / ``REPRO_RECORD_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from _bench_utils import emit, render_table
from repro import ColumnQuery, Coordinator, RowStream
from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.engine.transport import SocketShardClient, spawn_local_servers

N_SEGMENTS = 6
ROWS_PER_SEGMENT = 2_000
N_COLUMNS = 10
N_SHARDS = 2
BATCH_SIZE = 1_024
QUERIES = [
    ColumnQuery.of(columns, N_COLUMNS)
    for columns in ([0, 3, 7], [1, 2, 4], [0, 1, 2, 3, 4])
]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _factory() -> AlphaNetEstimator:
    return AlphaNetEstimator(
        n_columns=N_COLUMNS,
        alpha=0.25,
        plan=SketchPlan.default_f0(epsilon=0.3, seed=21),
    )


def _segments() -> list[RowStream]:
    from repro.workloads.synthetic import zipfian_rows

    return [
        RowStream(
            zipfian_rows(
                n_rows=ROWS_PER_SEGMENT,
                n_columns=N_COLUMNS,
                distinct_patterns=400,
                exponent=1.2,
                seed=100 + index,
            )
        )
        for index in range(N_SEGMENTS)
    ]


def _run_backend(backend: str, segments, addresses=None):
    """Total wall seconds across all segments, probe answers, bytes shipped."""
    coordinator = Coordinator(
        _factory,
        n_shards=N_SHARDS,
        backend=backend,
        batch_size=BATCH_SIZE,
        worker_addresses=addresses,
    )
    try:
        started = time.perf_counter()
        bytes_shipped = 0
        for segment in segments:
            report = coordinator.ingest(segment)
            bytes_shipped += sum(report.bytes_shipped_per_shard)
        wall = time.perf_counter() - started
        answers = tuple(
            coordinator.merged_estimator.estimate_fp(query, 0) for query in QUERIES
        )
        return wall, answers, bytes_shipped
    finally:
        coordinator.close()


def test_transport_backend_throughput(benchmark, record_bench, bench_metadata):
    """Segmented ingest through every backend; identical answers."""
    segments = _segments()
    total_rows = N_SEGMENTS * ROWS_PER_SEGMENT

    def run_sweep():
        results = {}
        for backend in ("serial", "processes"):
            results[backend] = _run_backend(backend, segments)
        addresses, processes = spawn_local_servers(N_SHARDS)
        try:
            results["sockets"] = _run_backend("sockets", segments, addresses)
        finally:
            for address in addresses:
                try:
                    SocketShardClient(address).shutdown_server()
                except Exception:
                    pass
            for process in processes:
                process.join(timeout=5)
        return results

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    process_wall = results["processes"][0]
    emit(
        f"Segmented ingest: {N_SEGMENTS} x {ROWS_PER_SEGMENT:,} rows, "
        f"{N_SHARDS} shards, batch_size={BATCH_SIZE} "
        f"({_usable_cores()} usable core(s))",
        render_table(
            ["backend", "wall seconds", "rows/sec", "vs processes", "bytes shipped"],
            [
                (
                    backend,
                    f"{wall:.2f}",
                    f"{total_rows / wall:,.0f}",
                    f"{process_wall / wall:.2f}x",
                    f"{shipped:,}",
                )
                for backend, (wall, _, shipped) in results.items()
            ],
        ),
    )

    # Every backend must answer the probe queries identically.
    answer_sets = {answers for _, answers, _ in results.values()}
    assert len(answer_sets) == 1, f"backends disagree: {answer_sets}"
    # Worker-backed ingests must account the bytes that crossed the boundary.
    for backend in ("processes", "sockets"):
        assert results[backend][2] > 0, f"{backend} shipped no bytes"
    assert results["serial"][2] == 0

    if record_bench:
        record = {
            "meta": bench_metadata,
            "n_segments": N_SEGMENTS,
            "rows_per_segment": ROWS_PER_SEGMENT,
            "n_columns": N_COLUMNS,
            "n_shards": N_SHARDS,
            "batch_size": BATCH_SIZE,
            "usable_cores": _usable_cores(),
            "wall_seconds": {
                backend: wall for backend, (wall, _, _) in results.items()
            },
            "bytes_shipped": {
                backend: shipped for backend, (_, _, shipped) in results.items()
            },
        }
        out_path = Path(__file__).resolve().parent.parent / "BENCH_transport.json"
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded perf trajectory -> {out_path}")

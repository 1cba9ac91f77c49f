"""E14 — Alpha-net ingest: counted block kernels vs the per-row loop.

The α-net estimator pays the paper's inherent per-row cost — one sketch
update per net member per row — which made it the slowest ingest path in the
repository even after PR 2 vectorized the samplers.  This benchmark measures
the tentpole of the vectorized sketch-ingest subsystem on a Zipf-distributed
stream: the same estimator (KMV distinct sketches + Count-Min point sketches
per member), same seeds, ingesting the same rows through

* the per-row path — every row projects onto every member and every sketch
  hashes the pattern tuple item by item through BLAKE2b;
* the block path — ``observe_rows`` projects each member once per block,
  collapses the projection to ``(unique pattern, count)`` pairs, and feeds
  the sketches' counted ``update_block`` scatter kernels.

Both paths produce bit-identical summaries for this plan (Count-Min's
integer counters and KMV's sorted minima are functions of the rows seen,
not of their order), which is asserted — the throughput ratio is a pure
fast-path measurement.  The acceptance floor is a conservative >= 3x (a
2-core x86-64 host measures 58-86x); results can be written to
``BENCH_alpha_ingest.json`` at the repo root with ``--record-bench`` or
``REPRO_RECORD_BENCH=1`` so the perf trajectory is recorded run over run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _bench_utils import emit, render_table
from repro import AlphaNetEstimator, ColumnQuery, RowStream, SketchPlan
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch
from repro.workloads.synthetic import zipfian_rows

N_ROWS, N_COLUMNS = 4_000, 10
ALPHA = 0.25
BATCH_SIZE = 2_048
DISTINCT_PATTERNS = 512
SPEEDUP_FLOOR = 3.0
QUERIES = [(0, 2, 5, 7), (1, 3), (0, 1, 2, 3, 4)]

STREAM = RowStream(
    zipfian_rows(
        n_rows=N_ROWS,
        n_columns=N_COLUMNS,
        distinct_patterns=DISTINCT_PATTERNS,
        exponent=1.1,
        seed=33,
    )
)


def _estimator() -> AlphaNetEstimator:
    plan = SketchPlan(
        distinct_factory=lambda index: KMVSketch.from_epsilon(0.25, seed=3 + index),
        point_factory=lambda index: CountMinSketch.from_error(0.05, seed=3 + index),
        seed=3,
    )
    return AlphaNetEstimator(n_columns=N_COLUMNS, alpha=ALPHA, plan=plan)


def _assert_identical(per_row: AlphaNetEstimator, block: AlphaNetEstimator) -> None:
    """KMV + Count-Min state depends on the rows only: block ingest is bit-identical."""
    assert per_row.rows_observed == block.rows_observed == N_ROWS
    assert block.to_bytes() == per_row.to_bytes()
    for columns in QUERIES:
        query = ColumnQuery.of(columns, N_COLUMNS)
        assert block.estimate_fp(query, 0) == per_row.estimate_fp(query, 0)
        pattern = tuple(0 for _ in query.columns)
        assert block.estimate_frequency(query, pattern) == per_row.estimate_frequency(
            query, pattern
        )


def test_alpha_net_block_ingest_throughput(benchmark, record_bench, bench_metadata):
    """Rows/sec of block vs per-row alpha-net ingest; block must be >= 3x."""

    def run_comparison():
        per_row = _estimator()
        started = time.perf_counter()
        for row in STREAM:
            per_row.observe_row(row)
        row_seconds = time.perf_counter() - started

        block = _estimator()
        started = time.perf_counter()
        for _, chunk in STREAM.iter_batches(BATCH_SIZE):
            block.observe_rows(chunk)
        block_seconds = time.perf_counter() - started

        _assert_identical(per_row, block)
        return per_row.member_count, row_seconds, block_seconds

    member_count, row_seconds, block_seconds = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    speedup = row_seconds / block_seconds
    emit(
        f"Alpha-net ingest of {N_ROWS:,} x {N_COLUMNS} rows "
        f"(alpha={ALPHA}, {member_count} members, KMV+CountMin plan, "
        f"batch_size={BATCH_SIZE})",
        render_table(
            ["path", "rows/sec", "member-updates/sec", "speedup"],
            [
                (
                    "per-row",
                    f"{N_ROWS / row_seconds:,.0f}",
                    f"{N_ROWS * member_count / row_seconds:,.0f}",
                    "1.0x",
                ),
                (
                    "block (update_block)",
                    f"{N_ROWS / block_seconds:,.0f}",
                    f"{N_ROWS * member_count / block_seconds:,.0f}",
                    f"{speedup:.1f}x",
                ),
            ],
        ),
    )

    if record_bench:
        record = {
            "meta": bench_metadata,
            "n_rows": N_ROWS,
            "n_columns": N_COLUMNS,
            "alpha": ALPHA,
            "member_count": member_count,
            "batch_size": BATCH_SIZE,
            "distinct_patterns": DISTINCT_PATTERNS,
            "plan": "kmv+countmin",
            "per_row_rows_per_sec": N_ROWS / row_seconds,
            "block_rows_per_sec": N_ROWS / block_seconds,
            "speedup": speedup,
        }
        out_path = Path(__file__).resolve().parent.parent / "BENCH_alpha_ingest.json"
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded perf trajectory -> {out_path}")

    assert speedup >= SPEEDUP_FLOOR, (
        f"alpha-net block ingest only {speedup:.1f}x faster than per-row "
        f"(floor is {SPEEDUP_FLOOR}x)"
    )

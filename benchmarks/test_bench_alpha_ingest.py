"""E14 — Alpha-net ingest: 2,048-row blocks vs one-row blocks on the bank.

The α-net estimator pays the paper's inherent per-row cost — one sketch
update per net member per row — which made it the slowest ingest path in the
repository even after PR 2 vectorized the samplers.  This benchmark measures
the sketch bank on a Zipf-distributed stream: the same estimator (a KMV
bank and a Count-Min bank over every member), same seeds, ingesting the
stream through

* the per-row path — ``observe_row``, a one-row block on the bank: every
  row is keyed on every member, and each family hashes that row's
  distinct ``(member, key)`` pairs;
* the block path — ``observe_rows`` keys every row on every member with one
  place-value product per block, reduces the keys to distinct
  ``(member, key, count)`` triples with one sort, and scatters them into
  each bank once.

The two paths are compared by rows/s.  The per-row path costs the same
per row all along the stream, so it is timed on the first
``PER_ROW_ROWS`` rows only; the block path is timed on all ``N_ROWS``.
Both paths produce bit-identical summaries for this plan (Count-Min's
integer counters and KMV's sorted minima are functions of the rows seen,
not of their order), which is asserted on the prefix the per-row path
ingests — the throughput ratio is a pure fast-path measurement.  The
acceptance floor is a conservative >= 3x (``BENCH_alpha_ingest.json``
holds the last figure recorded on a 2-core x86-64 host); results can be
written to ``BENCH_alpha_ingest.json`` at the repo root with
``--record-bench`` or ``REPRO_RECORD_BENCH=1`` so the perf trajectory is
recorded run over run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from _bench_utils import emit, render_table
from repro import AlphaNetEstimator, ColumnQuery, RowStream, SketchPlan
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch
from repro.workloads.synthetic import zipfian_rows

N_ROWS, N_COLUMNS = 4_000, 10
#: Rows the per-row path ingests (about 2,000 rows/s on a 2-core host).
PER_ROW_ROWS = 500
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
    assert per_row.rows_observed == block.rows_observed == PER_ROW_ROWS
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
        prefix = STREAM.take(PER_ROW_ROWS)
        per_row = _estimator()
        started = time.perf_counter()
        for row in prefix:
            per_row.observe_row(row)
        row_seconds = time.perf_counter() - started

        block = _estimator()
        started = time.perf_counter()
        for _, chunk in STREAM.iter_batches(BATCH_SIZE):
            block.observe_rows(chunk)
        block_seconds = time.perf_counter() - started

        prefix_block = _estimator()
        prefix_block.observe_rows(np.array(prefix, dtype=np.int64))
        _assert_identical(per_row, prefix_block)
        return per_row.member_count, row_seconds, block_seconds

    member_count, row_seconds, block_seconds = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    row_rate, block_rate = PER_ROW_ROWS / row_seconds, N_ROWS / block_seconds
    speedup = block_rate / row_rate
    emit(
        f"Alpha-net ingest of {N_COLUMNS}-column rows, per-row path on the "
        f"first {PER_ROW_ROWS:,} and block path on all {N_ROWS:,} "
        f"(alpha={ALPHA}, {member_count} members, KMV+CountMin plan, "
        f"batch_size={BATCH_SIZE})",
        render_table(
            ["path", "rows/sec", "member-updates/sec", "speedup"],
            [
                (
                    "per-row",
                    f"{row_rate:,.0f}",
                    f"{row_rate * member_count:,.0f}",
                    "1.0x",
                ),
                (
                    "block (banks)",
                    f"{block_rate:,.0f}",
                    f"{block_rate * member_count:,.0f}",
                    f"{speedup:.1f}x",
                ),
            ],
        ),
    )

    if record_bench:
        record = {
            "meta": bench_metadata,
            "n_rows": N_ROWS,
            "per_row_rows": PER_ROW_ROWS,
            "n_columns": N_COLUMNS,
            "alpha": ALPHA,
            "member_count": member_count,
            "batch_size": BATCH_SIZE,
            "distinct_patterns": DISTINCT_PATTERNS,
            "plan": "kmv+countmin",
            "per_row_rows_per_sec": row_rate,
            "block_rows_per_sec": block_rate,
            "speedup": speedup,
        }
        out_path = Path(__file__).resolve().parent.parent / "BENCH_alpha_ingest.json"
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded perf trajectory -> {out_path}")

    assert speedup >= SPEEDUP_FLOOR, (
        f"alpha-net block ingest only {speedup:.1f}x faster than per-row "
        f"(floor is {SPEEDUP_FLOOR}x)"
    )

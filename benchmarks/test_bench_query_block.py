"""E15 — Batch query kernels: ``estimate_block`` vs the per-item loop.

PR 5 vectorized the ingest half of the sketch pipeline; the query half
still answered one item at a time — every point query re-keyed its pattern
tuple through BLAKE2b and walked the table rows in python.  This benchmark
measures the batch query kernels on a sketch built from a Zipf-distributed
stream: the same Count-Min summary (same seed, same ``update_block``
ingest) answering the same mixed batch of point queries and the same
whole-table heavy-hitter candidate filter through

* the per-item path — ``estimate(item)`` per query and the base
  per-candidate ``heavy_hitters`` loop;
* the block path — one ``estimate_block`` gather (the batch serialises
  once, each row hashes it in one ``evaluate_block`` pass) and the
  vectorized candidate filter built on top of it.

Both paths are bit-identical here (Count-Min takes integer minima), which
is asserted — the ratio is a pure fast-path measurement.  Each path's time
is the best of ``REPEATS`` interleaved runs: the block path takes tens of
milliseconds, so in a single run one stall on a shared machine moves the
ratio by a whole factor.  The acceptance floor is a conservative >= 3x; results can be written to
``BENCH_query_block.json`` at the repo root with ``--record-bench`` or
``REPRO_RECORD_BENCH=1`` so the perf trajectory is recorded run over run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from _bench_utils import emit, render_table
from repro.sketches.base import PointQuerySketch
from repro.sketches.countmin import CountMinSketch
from repro.workloads.synthetic import zipfian_rows

N_ROWS, N_COLUMNS = 50_000, 4
ALPHABET_SIZE = 8
DISTINCT_PATTERNS = 2_048
N_QUERIES = 4_096
THRESHOLD = N_ROWS * 0.005
SPEEDUP_FLOOR = 3.0
REPEATS = 5

STREAM = zipfian_rows(
    n_rows=N_ROWS,
    n_columns=N_COLUMNS,
    alphabet_size=ALPHABET_SIZE,
    distinct_patterns=DISTINCT_PATTERNS,
    exponent=1.1,
    seed=33,
).to_array()

# A mixed batch: mostly catalogue patterns plus symbols one past the
# alphabet, so never-observed items flow through the same kernels.
QUERY_BLOCK = np.random.default_rng(91).integers(
    0, ALPHABET_SIZE + 1, size=(N_QUERIES, N_COLUMNS), dtype=np.int64
)
QUERY_ITEMS = [tuple(row) for row in QUERY_BLOCK.tolist()]


def _best_of(*paths):
    """Each path's best wall seconds over ``REPEATS`` rounds, and its answers.

    The paths take turns within every round, so a stall on the machine
    reaches both alike instead of whichever happened to be running.
    """
    best = [float("inf")] * len(paths)
    answers = [None] * len(paths)
    for _ in range(REPEATS):
        for index, path in enumerate(paths):
            started = time.perf_counter()
            answers[index] = path()
            best[index] = min(best[index], time.perf_counter() - started)
    return best, answers


def test_query_block_throughput(benchmark, record_bench, bench_metadata):
    """Point queries/sec of block vs per-item answering; block must be >= 3x."""
    sketch = CountMinSketch(width=272, depth=5, seed=7)
    sketch.update_block(STREAM)

    def scalar_path():
        estimates = np.array([sketch.estimate(item) for item in QUERY_ITEMS])
        return estimates, PointQuerySketch.heavy_hitters(sketch, QUERY_ITEMS, THRESHOLD)

    def block_path():
        return sketch.estimate_block(QUERY_BLOCK), sketch.heavy_hitters(
            QUERY_BLOCK, THRESHOLD
        )

    def run_comparison():
        (scalar_seconds, block_seconds), answers = _best_of(scalar_path, block_path)
        (scalar_estimates, scalar_report), (block_estimates, block_report) = answers
        assert np.array_equal(scalar_estimates, block_estimates)
        assert scalar_report == block_report
        assert list(scalar_report) == list(block_report)  # candidate order too
        return scalar_seconds, block_seconds, len(block_report)

    scalar_seconds, block_seconds, n_heavy = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    # Each path answers the full batch twice: once as point queries, once
    # inside the candidate filter.
    n_answers = 2 * N_QUERIES
    speedup = scalar_seconds / block_seconds
    emit(
        f"Batch query of {N_QUERIES:,} patterns against CountMin "
        f"built from {N_ROWS:,} Zipf rows "
        f"(threshold={THRESHOLD:,.0f}, {n_heavy} heavy hitters)",
        render_table(
            ["path", "queries/sec", "speedup"],
            [
                ("per-item (estimate)", f"{n_answers / scalar_seconds:,.0f}", "1.0x"),
                (
                    "block (estimate_block)",
                    f"{n_answers / block_seconds:,.0f}",
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
            "alphabet_size": ALPHABET_SIZE,
            "distinct_patterns": DISTINCT_PATTERNS,
            "n_queries": N_QUERIES,
            "threshold": THRESHOLD,
            "sketches": "countmin",
            "per_item_queries_per_sec": n_answers / scalar_seconds,
            "block_queries_per_sec": n_answers / block_seconds,
            "speedup": speedup,
        }
        out_path = Path(__file__).resolve().parent.parent / "BENCH_query_block.json"
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded perf trajectory -> {out_path}")

    assert speedup >= SPEEDUP_FLOOR, (
        f"batch queries only {speedup:.1f}x faster than per-item "
        f"(floor is {SPEEDUP_FLOOR}x)"
    )

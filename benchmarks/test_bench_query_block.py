"""E15 — Batch query kernels: ``estimate_block`` vs the per-key loop.

This benchmark measures the batch query kernel on a sketch built from a
Zipf-distributed stream: the same Count-Min summary (same seed, same
``update_block`` ingest) answering the same mixed batch of point queries
through

* the per-key path — one ``estimate(key)`` call per query, each a one-key
  ``estimate_block`` call;
* the block path — one ``estimate_block`` gather over the whole batch (one
  broadcast hash pass over every row, one gather, one ``np.min``).

Each query's key is its pattern's index (Remark 1).  Both paths are
bit-identical here (Count-Min takes integer minima), which is asserted,
together with the keys at or above the heavy-hitter threshold — the ratio
is a pure fast-path measurement.  Each path's time is the best of
``REPEATS`` interleaved runs: the block path takes about a millisecond, so
in a single run one stall on a shared machine moves the ratio by a whole
factor.  The acceptance floor is a conservative >= 3x; results can be
written to ``BENCH_query_block.json`` at the repo root with
``--record-bench`` or ``REPRO_RECORD_BENCH=1`` so the perf trajectory is
recorded run over run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from _bench_utils import emit, render_table
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
# alphabet, so never-observed keys flow through the same kernels.
QUERY_BLOCK = np.random.default_rng(91).integers(
    0, ALPHABET_SIZE + 1, size=(N_QUERIES, N_COLUMNS), dtype=np.int64
)
#: A pattern's key: its index over symbols [0, ALPHABET_SIZE + 1).
PLACES = (ALPHABET_SIZE + 1) ** np.arange(N_COLUMNS - 1, -1, -1)
STREAM_KEYS = STREAM @ PLACES
QUERY_KEYS = QUERY_BLOCK @ PLACES
QUERY_ITEMS = QUERY_KEYS.tolist()


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
    """Point queries/sec of block vs per-key answering; block must be >= 3x."""
    sketch = CountMinSketch(width=272, depth=5, seed=7)
    sketch.update_block(STREAM_KEYS)

    def scalar_path():
        return np.array([sketch.estimate(key) for key in QUERY_ITEMS])

    def block_path():
        return sketch.estimate_block(QUERY_KEYS)

    def run_comparison():
        (scalar_seconds, block_seconds), answers = _best_of(scalar_path, block_path)
        scalar_estimates, block_estimates = answers
        assert np.array_equal(scalar_estimates, block_estimates)
        heavy = QUERY_KEYS[block_estimates >= THRESHOLD]
        assert heavy.tolist() == [
            key for key in QUERY_ITEMS if sketch.estimate(key) >= THRESHOLD
        ]
        return scalar_seconds, block_seconds, len(heavy)

    scalar_seconds, block_seconds, n_heavy = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    n_answers = N_QUERIES
    speedup = scalar_seconds / block_seconds
    emit(
        f"Batch query of {N_QUERIES:,} patterns against CountMin "
        f"built from {N_ROWS:,} Zipf rows "
        f"(threshold={THRESHOLD:,.0f}, {n_heavy} queries at or above it)",
        render_table(
            ["path", "queries/sec", "speedup"],
            [
                ("per-key (estimate)", f"{n_answers / scalar_seconds:,.0f}", "1.0x"),
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

"""E11 — Sketch substrate micro-benchmarks.

Section 6 only needs *some* β-approximate sketch per net member; this module
measures the accuracy, space, and update throughput of the sketch substrate
so the choice of default (KMV for F0, Count-Min for point queries, p-stable
for moments) is documented with numbers.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import emit, render_table
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch
from repro.sketches.stable_lp import StableLpSketch

N_DISTINCT = 20_000


def test_distinct_sketch_accuracy_and_space(benchmark):
    """F0 sketches: relative error and structural space at ~1% target error."""

    def run_comparison():
        factories = {
            "KMV(eps=0.05)": KMVSketch.from_epsilon(0.05, seed=1),
        }
        rows = []
        for name, sketch in factories.items():
            for value in range(N_DISTINCT):
                sketch.update(value)
            estimate = sketch.estimate()
            rows.append(
                (
                    name,
                    estimate,
                    abs(estimate - N_DISTINCT) / N_DISTINCT,
                    sketch.size_in_bits() // 8,
                )
            )
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit(
        f"F0 sketches on a stream of {N_DISTINCT} distinct items",
        render_table(["sketch", "estimate", "relative error", "bytes"], rows),
    )
    for name, estimate, error, size in rows:
        assert error < 0.15


def test_point_query_sketch_error_profile(benchmark):
    """Point-query sketches: signed error against exact counts on a Zipf stream."""
    rng = np.random.default_rng(2)
    ranks = np.arange(1, 301, dtype=float)
    probabilities = ranks**-1.2
    probabilities /= probabilities.sum()
    stream = rng.choice(300, size=30_000, p=probabilities)
    exact: dict[int, int] = {}
    for item in stream:
        exact[int(item)] = exact.get(int(item), 0) + 1

    def run_comparison():
        sketches = {
            "CountMin": CountMinSketch.from_error(0.002, 0.01, seed=3),
        }
        rows = []
        for name, sketch in sketches.items():
            for item in stream:
                sketch.update(int(item))
            top = sorted(exact, key=exact.get, reverse=True)[:20]
            signed_errors = [sketch.estimate(item) - exact[item] for item in top]
            rows.append(
                (
                    name,
                    float(np.mean(signed_errors)),
                    float(np.max(np.abs(signed_errors))),
                    sketch.size_in_bits() // 8,
                )
            )
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit(
        "Point-query sketches on a 30k-update Zipf(1.2) stream (top-20 items)",
        render_table(["sketch", "mean signed error", "max |error|", "bytes"], rows),
    )
    by_name = {row[0]: row for row in rows}
    # Count-Min over-estimates.
    assert by_name["CountMin"][1] >= 0
    for name, mean_err, max_err, size in rows:
        assert max_err <= 0.05 * len(stream)


def test_moment_sketch_accuracy(benchmark):
    """F_p sketches: relative error of p-stable (p=0.5, 1, 2)."""
    rng = np.random.default_rng(4)
    counts = {item: int(rng.integers(1, 60)) + (400 if item < 4 else 0) for item in range(60)}

    def run_comparison():
        rows = []
        for p in (0.5, 1.0, 2.0):
            sketch = StableLpSketch(p=p, width=256, depth=3, seed=5)
            for item, count in counts.items():
                sketch.update(item, count)
            truth = sum(c**p for c in counts.values())
            rows.append(
                (f"stable p={p}", sketch.estimate(), abs(sketch.estimate() - truth) / truth)
            )
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit(
        "Frequency-moment sketches on a skewed 60-item frequency vector",
        render_table(["sketch", "estimate", "relative error"], rows),
    )
    for name, estimate, error in rows:
        assert error < 0.5


def test_kmv_update_throughput(benchmark):
    """Raw update throughput of the default F0 sketch (items/second)."""
    sketch = KMVSketch(k=1024, seed=6)
    items = list(range(5000))

    def update_batch():
        for item in items:
            sketch.update(item)

    benchmark(update_batch)
    assert sketch.items_processed >= 5000


def test_countmin_update_throughput(benchmark):
    """Raw update throughput of the default point-query sketch."""
    sketch = CountMinSketch(width=512, depth=4, seed=7)
    items = list(range(2000))

    def update_batch():
        for item in items:
            sketch.update(item)

    benchmark(update_batch)
    assert sketch.items_processed >= 2000

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an
empirical companion to one of its theorems) and prints it in a diffable
ASCII layout.  ``pytest benchmarks/ --benchmark-only -s`` shows the tables;
docs/experiments.md quotes them.
"""

from __future__ import annotations

import os

import pytest

from _bench_utils import emit, run_metadata
from repro.analysis.reporting import render_series, render_table


def pytest_addoption(parser):
    """Add ``--record-bench``: opt into rewriting the BENCH_*.json records."""
    parser.addoption(
        "--record-bench",
        action="store_true",
        default=False,
        help=(
            "rewrite the repo-root BENCH_*.json perf records for this run "
            "(equivalent to setting REPRO_RECORD_BENCH=1); off by default so "
            "routine runs do not produce noisy no-op diffs"
        ),
    )


@pytest.fixture(scope="session")
def record_bench(request) -> bool:
    """Whether this run should rewrite the BENCH_*.json perf records."""
    return bool(
        request.config.getoption("--record-bench")
        or os.environ.get("REPRO_RECORD_BENCH")
    )


@pytest.fixture(scope="session")
def bench_metadata() -> dict:
    """One provenance stamp per session for every BENCH_*.json writer."""
    return run_metadata()


@pytest.fixture(scope="session")
def reporting():
    """Expose the rendering helpers to benchmark modules as a mapping."""
    return {"render_table": render_table, "render_series": render_series, "emit": emit}

"""Tests for repro.telemetry: registry, spans, exporters and instrumentation."""

from __future__ import annotations

import json
import math

import pytest

from repro import UniformSampleEstimator, telemetry
from repro.cli import main as cli_main
from repro.core.dataset import ColumnQuery, Dataset
from repro.engine.coordinator import Coordinator
from repro.engine.service import QueryService
from repro.errors import InvalidParameterError
from repro.experiments import RunParams, run_experiment
from repro.streaming.stream import RowStream
from repro.telemetry import (
    MetricsRegistry,
    SIZE_BUCKETS,
    Tracer,
    render_prometheus,
    render_span_tree,
    validate_telemetry_section,
    validate_trace_payload,
)


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Every test sees enabled telemetry with a fresh registry and tracer."""
    was_enabled = telemetry.enabled()
    telemetry.enable()
    with telemetry.scoped_registry():
        with telemetry.scoped_tracer():
            yield
    if not was_enabled:
        telemetry.disable()


# -- registry ---------------------------------------------------------------------


def test_counter_labels_and_series():
    registry = MetricsRegistry()
    counter = registry.counter("repro_rows_total", "rows")
    counter.inc(3, shard="0")
    counter.inc(shard="0")
    counter.inc(5, shard="1")
    assert counter.value(shard="0") == 4
    assert counter.value(shard="1") == 5
    assert counter.value(shard="9") == 0


def test_metric_name_validation():
    registry = MetricsRegistry()
    with pytest.raises(InvalidParameterError):
        registry.counter("bad-name")


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("repro_thing")
    with pytest.raises(InvalidParameterError):
        registry.gauge("repro_thing")


def test_histogram_bucket_boundaries_are_inclusive_upper_bounds():
    """A value equal to a bound lands in that bound's bucket (``le`` semantics)."""
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_sizes", buckets=(1.0, 2.0, 4.0, 8.0)
    )
    histogram.observe(1.0)  # == first bound -> bucket 0
    histogram.observe(1.5)  # -> bucket 1 (le=2)
    histogram.observe(4.0)  # == third bound -> bucket 2
    histogram.observe(100.0)  # above every bound -> +Inf bucket
    series = histogram.snapshot()
    assert list(series.bucket_counts) == [1, 1, 1, 0, 1]
    assert series.count == 4
    assert series.min == 1.0
    assert series.max == 100.0


def test_histogram_quantile_has_bucket_resolution():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_times", buckets=(0.001, 0.01, 0.1))
    for _ in range(99):
        histogram.observe(0.005)
    histogram.observe(0.05)
    assert histogram.quantile(0.5) == 0.01
    assert histogram.quantile(1.0) == 0.1
    assert math.isnan(registry.histogram("repro_empty").quantile(0.5))


def test_registry_merge_across_simulated_worker_registries():
    """Shard workers record into their own registry; the coordinator merges."""
    coordinator_side = MetricsRegistry()
    coordinator_side.counter("repro_rows_total").inc(10, shard="0")
    worker_states = []
    for shard in (1, 2):
        worker = MetricsRegistry()
        worker.counter("repro_rows_total").inc(10 * shard, shard=str(shard))
        worker.histogram("repro_block_rows", buckets=SIZE_BUCKETS).observe(
            64, count=shard
        )
        worker_states.append(worker.state_dict())
    for state in worker_states:
        coordinator_side.merge_state(state)
    counter = coordinator_side.counter("repro_rows_total")
    assert counter.value(shard="0") == 10
    assert counter.value(shard="1") == 10
    assert counter.value(shard="2") == 20
    merged = coordinator_side.histogram(
        "repro_block_rows", buckets=SIZE_BUCKETS
    ).snapshot()
    assert merged.count == 3  # count=1 from worker 1, count=2 from worker 2
    assert merged.total == 3 * 64


def test_registry_state_dict_round_trip():
    registry = MetricsRegistry()
    registry.counter("repro_c", "help").inc(2, k="v")
    registry.gauge("repro_g").set(1.5)
    registry.histogram("repro_h", buckets=(1.0, 2.0)).observe(1.2)
    clone = MetricsRegistry.from_state_dict(registry.state_dict())
    assert clone.state_dict() == registry.state_dict()


def test_gauge_merge_keeps_maximum():
    left, right = MetricsRegistry(), MetricsRegistry()
    left.gauge("repro_peak_bits").set(100, estimator="E")
    right.gauge("repro_peak_bits").set(250, estimator="E")
    left.merge_state(right.state_dict())
    assert left.gauge("repro_peak_bits").value(estimator="E") == 250


# -- prometheus golden ------------------------------------------------------------


def test_prometheus_exposition_golden():
    registry = MetricsRegistry()
    registry.counter("repro_rows_total", "rows ingested").inc(7, shard="0")
    registry.gauge("repro_skew", "partition skew").set(1.25)
    registry.histogram("repro_lat", "latency", buckets=(0.1, 1.0)).observe(0.5)
    expected = "\n".join(
        [
            "# HELP repro_lat latency",
            "# TYPE repro_lat histogram",
            'repro_lat_bucket{le="0.1"} 0',
            'repro_lat_bucket{le="1"} 1',
            'repro_lat_bucket{le="+Inf"} 1',
            "repro_lat_sum 0.5",
            "repro_lat_count 1",
            "# HELP repro_rows_total rows ingested",
            "# TYPE repro_rows_total counter",
            'repro_rows_total{shard="0"} 7',
            "# HELP repro_skew partition skew",
            "# TYPE repro_skew gauge",
            "repro_skew 1.25",
            "",
        ]
    )
    assert render_prometheus(registry) == expected


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("repro_c").inc(1, path='a"b\\c')
    assert 'path="a\\"b\\\\c"' in render_prometheus(registry)


# -- spans ------------------------------------------------------------------------


def test_span_nesting_and_ordering():
    tracer = Tracer()
    with tracer.span("outer", phase="test"):
        with tracer.span("inner.first"):
            pass
        with tracer.span("inner.second"):
            pass
    payload = tracer.to_dict()
    assert validate_trace_payload(payload) == []
    names = [entry["name"] for entry in payload["spans"]]
    # to_dict() sorts by start time: parent first, children in open order.
    assert names == ["outer", "inner.first", "inner.second"]
    outer, first, second = payload["spans"]
    assert outer["parent_id"] is None
    assert first["parent_id"] == outer["span_id"]
    assert second["parent_id"] == outer["span_id"]
    assert first["start_seconds"] <= second["start_seconds"]
    assert outer["attrs"] == {"phase": "test"}


def test_span_records_exception_and_reraises():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    (record,) = tracer.spans
    assert record.attrs["error"] == "ValueError"


def test_chrome_trace_export_shape():
    tracer = Tracer()
    with tracer.span("work", items=2):
        pass
    chrome = tracer.to_chrome()
    (event,) = chrome["traceEvents"]
    assert event["ph"] == "X"
    assert event["name"] == "work"
    assert event["dur"] >= 0
    assert event["args"] == {"items": 2}


def test_render_span_tree_indents_children():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    tree = render_span_tree(tracer)
    lines = tree.splitlines()
    assert lines[0].startswith("parent")
    assert lines[1].startswith("  child")


# -- disabled mode ----------------------------------------------------------------


def test_disabled_mode_records_nothing():
    telemetry.disable()
    try:
        assert isinstance(telemetry.get_registry(), telemetry.NullRegistry)
        metric = telemetry.get_registry().counter("repro_x")
        metric.inc(5)
        assert metric.value() == 0
        with telemetry.span("invisible"):
            pass
        assert telemetry.get_tracer().spans == []
        estimator = UniformSampleEstimator(n_columns=3, sample_size=8, seed=0)
        estimator.observe(Dataset.random(n_rows=32, n_columns=3, seed=0))
    finally:
        telemetry.enable()
    # Nothing leaked into the re-enabled default registry either.
    assert telemetry.get_registry().collect() == []


def test_disabled_mode_shares_one_null_metric():
    """The off switch compiles to one shared no-op object — no allocation."""
    telemetry.disable()
    try:
        registry = telemetry.get_registry()
        assert registry.counter("repro_a") is registry.histogram("repro_b")
        assert registry is telemetry.get_registry()
    finally:
        telemetry.enable()


# -- instrumented paths -----------------------------------------------------------


def _engine(n_shards: int = 2) -> Coordinator:
    return Coordinator(
        lambda: UniformSampleEstimator(n_columns=4, sample_size=32, seed=3),
        n_shards=n_shards,
        backend="serial",
    )


def test_ingest_records_metrics_and_spans():
    engine = _engine()
    report = engine.ingest(RowStream(Dataset.random(n_rows=120, n_columns=4, seed=1)))
    registry = telemetry.get_registry()
    assert (
        registry.counter("repro_ingest_rows_total").value(
            backend="serial", policy="round_robin"
        )
        == report.rows_total
    )
    assert registry.counter("repro_merge_total").value() == 1
    skew = registry.gauge("repro_partition_skew_ratio").value(policy="round_robin")
    assert skew >= 1.0
    names = [record.name for record in telemetry.get_tracer().spans]
    assert "coordinator.merge" in names
    assert "coordinator.ingest" in names


def test_query_service_cache_counters_and_invalidation():
    engine = _engine()
    data = Dataset.random(n_rows=100, n_columns=4, seed=2)
    engine.ingest(RowStream(data))
    service = engine.query_service(cache_size=16)
    query = ColumnQuery.of([0, 2], 4)
    service.estimate_fp(query, 0)
    service.estimate_fp(query, 0)
    info = service.cache_info()
    assert (info.hits, info.misses, info.invalidations) == (1, 1, 0)
    # More data merges in -> the summary version moves -> the next query
    # flushes the stale cache and counts one invalidation.
    engine.ingest(RowStream(Dataset.random(n_rows=50, n_columns=4, seed=5)))
    service.estimate_fp(query, 0)
    stats = service.stats()
    assert stats["cache"].invalidations == 1
    assert (stats["cache"].hits, stats["cache"].misses) == (1, 2)
    assert stats["fp"].count == 2
    registry = telemetry.get_registry()
    assert registry.counter("repro_query_cache_hits_total").value(kind="fp") == 1
    assert registry.counter("repro_query_cache_misses_total").value(kind="fp") == 2
    assert (
        registry.counter("repro_query_cache_invalidations_total").value(
            reason="stale"
        )
        == 1
    )
    # Scalar queries are one-entry batches, but only answer_block records
    # the batch metrics and span: one service.query span per miss.
    assert registry.counter("repro_query_batch_total").value() == 0
    names = [record.name for record in telemetry.get_tracer().spans]
    assert "service.answer_block" not in names
    assert names.count("service.query") == 2


def test_manual_invalidate_counts():
    estimator = UniformSampleEstimator(n_columns=4, sample_size=32, seed=3)
    estimator.observe(Dataset.random(n_rows=40, n_columns=4, seed=4))
    service = QueryService(estimator)
    service.invalidate()
    assert service.cache_info().invalidations == 1
    registry = telemetry.get_registry()
    assert (
        registry.counter("repro_query_cache_invalidations_total").value(
            reason="manual"
        )
        == 1
    )


def test_process_backend_ships_worker_registries_back():
    engine = Coordinator(
        lambda: UniformSampleEstimator(n_columns=4, sample_size=32, seed=3),
        n_shards=2,
        backend="processes",
        batch_size=64,  # block ingest: the instrumented kernel path
    )
    report = engine.ingest(
        RowStream(Dataset.random(n_rows=200, n_columns=4, seed=6))
    )
    registry = telemetry.get_registry()
    blocks = registry.counter("repro_ingest_blocks_total").value(
        estimator="UniformSampleEstimator"
    )
    # The block counters are recorded inside the worker processes; their
    # registries ship back with the estimator snapshots and merge here.
    assert blocks >= 2
    assert report.rows_total == 200


def test_process_backend_feeds_unbatched_streams_as_blocks():
    """``batch_size=None`` still ships one ndarray per shard: each worker
    makes one ``observe_rows`` call, never per-row ``observe_row`` calls,
    and the merged summary answers as the serial per-row ingest does."""

    def factory():
        return UniformSampleEstimator(n_columns=4, sample_size=32, seed=3)

    stream = RowStream(Dataset.random(n_rows=200, n_columns=4, seed=6))
    engine = Coordinator(factory, n_shards=3, backend="processes")
    report = engine.ingest(stream)
    blocks = telemetry.get_registry().counter("repro_ingest_blocks_total").value(
        estimator="UniformSampleEstimator"
    )
    assert blocks == engine.n_shards
    assert report.rows_total == 200
    serial = Coordinator(factory, n_shards=3, backend="serial")
    serial.ingest(stream)
    for columns in ([0, 2], [1, 3], [0, 1, 2]):
        query = ColumnQuery.of(columns, 4)
        pattern = (0,) * len(columns)
        assert engine.merged_estimator.estimate_frequency(query, pattern) == (
            serial.merged_estimator.estimate_frequency(query, pattern)
        )
        assert engine.merged_estimator.estimate_fp(query, 0) == (
            serial.merged_estimator.estimate_fp(query, 0)
        )


def test_checkpoint_save_load_metrics_and_spans(tmp_path):
    engine = _engine()
    engine.ingest(RowStream(Dataset.random(n_rows=80, n_columns=4, seed=7)))
    path = tmp_path / "engine.ckpt"
    info = engine.save_checkpoint(path)
    QueryService.from_checkpoint(str(path))
    registry = telemetry.get_registry()
    assert (
        registry.counter("repro_checkpoint_bytes_total").value(op="save")
        == info.n_bytes
    )
    assert (
        registry.counter("repro_checkpoint_bytes_total").value(op="load")
        == info.n_bytes
    )
    names = [record.name for record in telemetry.get_tracer().spans]
    assert "checkpoint.save" in names
    assert "checkpoint.load" in names


# -- runner + CLI -----------------------------------------------------------------


def test_runner_emits_schema_valid_telemetry_section():
    result = run_experiment("usample-accuracy", RunParams(quick=True))
    section = result.to_dict()["telemetry"]
    assert validate_telemetry_section(section) == []
    assert section["ingest"]["sessions"] > 0
    assert section["ingest"]["rows_total"] > 0
    assert section["queries"]["count"] > 0
    assert section["peak_summary_bits"] > 0


def test_analytic_scenario_telemetry_section_is_valid_and_empty():
    result = run_experiment("figure1", RunParams(quick=True))
    section = result.to_dict()["telemetry"]
    assert validate_telemetry_section(section) == []
    assert section["ingest"]["sessions"] == 0
    assert section["peak_summary_bits"] == 0


def test_cli_trace_and_metrics_artifacts(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.prom"
    code = cli_main(
        [
            "run",
            "usample-accuracy",
            "--quick",
            "--out",
            str(tmp_path / "results"),
            "--trace",
            str(trace_path),
            "--metrics",
            str(metrics_path),
        ]
    )
    assert code == 0
    payload = json.loads(trace_path.read_text())
    assert validate_trace_payload(payload) == []
    names = {entry["name"] for entry in payload["spans"]}
    assert {
        "experiment.run",
        "coordinator.ingest",
        "coordinator.merge",
        "service.query",
    } <= names
    exposition = metrics_path.read_text()
    assert "# TYPE repro_ingest_rows_total counter" in exposition
    capsys.readouterr()


def test_cli_stats_renders_telemetry_table(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert cli_main(["run", "figure1", "--quick", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert cli_main(["stats", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "figure1" in printed
    assert "rows/s" in printed

"""Timed rounds of a workload through the engine's public API.

One round is the whole pipeline a user drives: ``Coordinator.ingest`` for
every segment (on the stream workload, one ``answer_block`` on a held live
service after each), the handoff (``save_checkpoint`` then
``QueryService.from_checkpoint``), then ``answer_block`` calls on the
restored service.  A run replays the same seeded inputs round after round.

Telemetry is off in plain rounds.  A traced round turns it on in a scoped
registry and tracer, wraps a ``bench.*`` span around every public call, and
keeps the engine's own spans beneath them; :func:`layer_metrics` turns the
traced rounds into the per-layer numbers and the self-time table.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field

from repro import IngestReport, QueryService, StreamPartitioner, telemetry
from repro.engine import DegradedAnswer
from repro.engine.transport import SocketShardClient, spawn_local_servers
from repro.errors import TransportError

from bench_inputs import N_SHARDS, Guarantee, Inputs, Workload, build_coordinator

#: Largest share of ``pipeline_s`` a traced run may leave unattributed, and
#: the largest relative gap allowed between a layer's time and the
#: independent timer it is checked against.
TRACE_TOLERANCE = 0.05

#: Coordinator constructions timed before every plain round for ``setup_s``.
SETUP_REPEATS = 25

UNATTRIBUTED = "unattributed"

#: Layer of each engine span.  ``bench.*`` spans (the round and the public
#: calls it wraps) are the benchmark's own: their self time is time inside
#: a public call that no engine span covers, and stays unattributed.  The
#: two names without a span of their own are carved out of a span's self
#: time from independent timers (see :func:`layer_metrics`).
SPAN_LAYERS = {
    "coordinator.ingest": "engine.coordinator",
    "coordinator.merge": "engine.coordinator",
    "transport.roundtrip": "engine.transport",
    "transport.exchange": "engine.transport",
    "resilience.recover": "engine.resilience",
    "checkpoint.save": "engine.checkpoint",
    "checkpoint.load": "engine.checkpoint",
    "service.answer_block": "engine.service",
    "service.query": "engine.service",
    "core.construct": "core",
}


@contextlib.contextmanager
def loopback_servers(count: int):
    """Fork ``count`` loopback shard servers; yield their addresses.

    Every server is asked to shut down on exit, and any that has not ended
    within ten seconds is terminated.  A server that is already gone makes
    the shutdown request raise ``TransportError`` (the client dials with
    retries); that is ignored so the remaining servers are still stopped.
    """
    addresses, processes = spawn_local_servers(count)
    try:
        yield addresses
    finally:
        for address in addresses:
            try:
                SocketShardClient(address).shutdown_server()
            except (TransportError, ConnectionError, OSError):
                pass
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join()


def time_setup(
    workload: Workload,
    backend: str | None = None,
    worker_addresses: list[str] | None = None,
    repeats: int = SETUP_REPEATS,
) -> float:
    """Median seconds to build the workload's Coordinator, ready to ingest.

    Times the construction, plus whatever the backend starts up front; no
    backend spawns or dials workers before the first ``ingest`` today, so
    that part is empty.  ``close()`` runs outside the timing.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        coordinator = build_coordinator(workload, None, backend, worker_addresses)
        samples.append(time.perf_counter() - started)
        coordinator.close()
    return statistics.median(samples)


class _TimedFactory:
    """The workload's estimator factory, with the seconds spent inside it."""

    def __init__(self, factory) -> None:
        self._factory = factory
        self.seconds = 0.0

    def __call__(self):
        started = time.perf_counter()
        try:
            return self._factory()
        finally:
            self.seconds += time.perf_counter() - started


@dataclass
class Round:
    """What one round measured, answered and counted."""

    pipeline_s: float = math.nan
    ingest_s: list[float] = field(default_factory=list)
    reports: list[IngestReport] = field(default_factory=list)
    save_s: float = math.nan
    load_s: float = math.nan
    answer_s: list[float] = field(default_factory=list)
    #: Answers in request order: stream blocks first, then query blocks.
    answers: list = field(default_factory=list)
    #: The live merged summary's answers to the query blocks (if asked for).
    live_answers: list = field(default_factory=list)
    summary_bytes: int = 0
    construct_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    error: str | None = None

    @property
    def complete(self) -> bool:
        return self.error is None


def _call(result: Round, name: str, weight: int, fn, *args):
    """Run one public call under a ``bench.*`` span; ``(value, seconds)``.

    ``weight`` is how many operations the call stands for (its requests,
    for ``answer_block``); all of them fail if the call raises.
    """
    result.attempted += weight
    try:
        with telemetry.span(name):
            started = time.perf_counter()
            value = fn(*args)
            elapsed = time.perf_counter() - started
    except Exception:
        result.failed += weight
        raise
    return value, elapsed


def run_round(
    workload: Workload,
    inputs: Inputs,
    checkpoint_path: str,
    backend: str | None = None,
    worker_addresses: list[str] | None = None,
    check_live: bool = False,
) -> Round:
    """One pass of the pipeline; a failure ends the round and is counted."""
    result = Round()
    factory = _TimedFactory(workload.factory)
    coordinator = build_coordinator(workload, factory, backend, worker_addresses)
    try:
        with telemetry.span("bench.round", workload=workload.name):
            started = time.perf_counter()
            live = None
            for index, stream in enumerate(inputs.streams):
                report, seconds = _call(
                    result, "bench.ingest", 1, coordinator.ingest, stream
                )
                result.reports.append(report)
                result.ingest_s.append(seconds)
                if inputs.stream_blocks:
                    if live is None:
                        with telemetry.span("bench.query_service"):
                            live = coordinator.query_service()
                    block = inputs.stream_blocks[index]
                    answers, seconds = _call(
                        result, "bench.answer_block", len(block),
                        live.answer_block, block,
                    )
                    result.answers.extend(answers)
                    result.answer_s.append(seconds)
            info, result.save_s = _call(
                result, "bench.checkpoint_save", 1,
                coordinator.save_checkpoint, checkpoint_path,
            )
            restored, result.load_s = _call(
                result, "bench.checkpoint_load", 1,
                QueryService.from_checkpoint, checkpoint_path,
            )
            for block in inputs.query_blocks:
                answers, seconds = _call(
                    result, "bench.answer_block", len(block),
                    restored.answer_block, block,
                )
                result.answers.extend(answers)
                result.answer_s.append(seconds)
            result.pipeline_s = time.perf_counter() - started
        result.summary_bytes = info.n_bytes
        result.construct_s = factory.seconds
        if check_live:
            service = coordinator.query_service()
            for block in inputs.query_blocks:
                result.live_answers.extend(service.answer_block(block))
    except Exception as error:  # counted against the run, reported, not raised
        if result.failed == 0:  # raised outside a counted call
            result.attempted += 1
            result.failed += 1
        result.error = f"{type(error).__name__}: {error}"
    finally:
        coordinator.close()
    return result


def answer_ok(value) -> bool:
    """A full-coverage, finite answer (heavy-hitter reports: every value)."""
    if isinstance(value, DegradedAnswer):
        return False
    if isinstance(value, dict):
        return all(math.isfinite(estimate) for estimate in value.values())
    return math.isfinite(value)


def replay_partition(workload: Workload, inputs: Inputs) -> tuple[float, int]:
    """Seconds and blocks of the Coordinator's routing, replayed alone.

    Walks every segment through ``iter_batches`` + ``assign_block`` and the
    per-shard split exactly as ``Coordinator.ingest`` does at the
    workload's ``batch_size`` (the partition work has no span of its own).
    """
    partitioner = StreamPartitioner(N_SHARDS, "round_robin")
    blocks = 0
    started = time.perf_counter()
    for stream in inputs.streams:
        for start, block in stream.iter_batches(workload.batch_size):
            assignment = partitioner.assign_block(start, block)
            for shard in range(partitioner.n_shards):
                _ = block[assignment == shard]
            blocks += 1
    return time.perf_counter() - started, blocks


# -- traced rounds ---------------------------------------------------------------


def layer_of(span_name: str) -> str:
    """The layer a span's self time belongs to."""
    if span_name.startswith("bench."):
        return UNATTRIBUTED
    return SPAN_LAYERS.get(span_name, span_name.split(".")[0])


def layer_totals(per_span: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer, from self seconds per span name."""
    per_layer: dict[str, float] = {}
    for name, seconds in per_span.items():
        per_layer[layer_of(name)] = per_layer.get(layer_of(name), 0.0) + seconds
    return per_layer


def self_times(spans) -> dict[str, float]:
    """Self seconds per span name, over the spans under ``bench.round`` roots.

    A span's self time is its duration minus its children's; summed over a
    round's span tree it equals the root's duration exactly.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] = (
                children.get(span.parent_id, 0.0) + span.duration_seconds
            )

    def root_of(span):
        while span.parent_id is not None and span.parent_id in by_id:
            span = by_id[span.parent_id]
        return span

    per_span: dict[str, float] = {}
    for span in spans:
        if root_of(span).name == "bench.round":
            own = span.duration_seconds - children.get(span.span_id, 0.0)
            per_span[span.name] = per_span.get(span.name, 0.0) + own
    return per_span


def span_totals(spans) -> dict[str, float]:
    """Summed duration per span name."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_seconds
    return totals


class AnswerCheck:
    """Checks each round's answers as it ends and keeps only the tallies.

    An answer is bad when it is degraded or non-finite, or differs from the
    warm-up round's answer to the same request.  The warm-up round's
    restored answers are themselves compared with the live merged summary's.
    ``expected`` holds ``(request, exact answer, rows observed)`` per answer.
    """

    def __init__(self, warmup: Round, expected: list, guarantee: Guarantee) -> None:
        offset = len(warmup.answers) - len(warmup.live_answers)
        self._reference = (
            warmup.answers[:offset] + warmup.live_answers if warmup.complete else []
        )
        self._expected = expected
        self._guarantee = guarantee
        self.bad = 0
        self.checked = 0
        self.within = 0

    def add(self, rnd: Round) -> None:
        """Tally ``rnd``'s answers, then drop them from the round."""
        if rnd.complete:
            for answer, wanted, (request, exact, rows) in zip(
                rnd.answers, self._reference, self._expected
            ):
                if not answer_ok(answer) or answer != wanted:
                    self.bad += 1
                elif exact is not None and self._guarantee.checks(request):
                    self.checked += 1
                    self.within += self._guarantee.holds(answer, exact, rows)
        # Answers kept for the whole run would make the collector's full
        # passes slower round after round, inside the timed calls.
        rnd.answers = []
        rnd.live_answers = []


def _histogram_total(registry, name: str, **labels) -> float:
    histogram = registry.histogram(name)
    if labels:
        return histogram.snapshot(**labels).total
    return sum(state.total for _, state in histogram.series())


def _counter_total(registry, name: str) -> float:
    return sum(value for _, value in registry.counter(name).series())


def layer_metrics(
    traced: list[Round],
    plain: list[Round],
    registry,
    tracer,
    partition: list[tuple[float, int]],
) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Per-layer metrics (per traced round), self times, check failures.

    Returns ``(metrics, per_span, problems)``.  ``per_span`` holds the self
    seconds of every span name, with two names carved out of the spans that
    hold them by timers the tracer does not see: ``core.construct`` (the
    benchmark's factory timer) out of ``bench.ingest``, and
    ``transport.exchange`` (the transport roundtrip histogram, where no
    ``transport.roundtrip`` span records the exchange, as on the processes
    backend) out of ``coordinator.ingest``.

    Self times sum to the traced rounds' ``pipeline_s`` by construction, so
    that sum checks nothing.  ``problems`` instead lists unattributed time
    above :data:`TRACE_TOLERANCE` of ``pipeline_s``, a carve-out larger
    than the self time it comes from, merge spans that disagree with the
    engine's ``merge_seconds``, and per-ingest shard times (timed in the
    workers) longer than the ingest call that waited for them.
    """
    n = len(traced)
    reports = [report for rnd in traced for report in rnd.reports]
    ingest_wall = sum(sum(rnd.ingest_s) for rnd in traced)
    rows = sum(report.rows_total for report in reports)
    shard_s = sum(sum(report.shard_seconds) for report in reports)
    answer_s = sum(sum(rnd.answer_s) for rnd in traced)
    pipeline_s = sum(rnd.pipeline_s for rnd in traced)
    construct_s = sum(rnd.construct_s for rnd in traced)
    hits = _counter_total(registry, "repro_query_cache_hits_total")
    misses = _counter_total(registry, "repro_query_cache_misses_total")
    roundtrip_s = _histogram_total(registry, "repro_transport_roundtrip_seconds")
    totals = span_totals(tracer.spans)
    per_span = self_times(tracer.spans)
    carve_outs = (
        ("core.construct", "bench.ingest", construct_s),
        (
            "transport.exchange",
            "coordinator.ingest",
            max(0.0, roundtrip_s - totals.get("transport.roundtrip", 0.0)),
        ),
    )
    problems = []
    for name, source, seconds in carve_outs:
        if seconds > per_span.get(source, 0.0) * (1.0 + TRACE_TOLERANCE):
            problems.append(
                f"{name} ({seconds:.4f} s) exceeds the self time of {source} "
                f"({per_span.get(source, 0.0):.4f} s) it is carved from"
            )
        if seconds:
            per_span[source] = per_span.get(source, 0.0) - seconds
            per_span[name] = seconds
    merge_spans = totals.get("coordinator.merge", 0.0)
    merge_s = sum(report.merge_seconds for report in reports)
    if abs(merge_spans - merge_s) > TRACE_TOLERANCE * max(merge_spans, merge_s):
        problems.append(
            f"coordinator.merge spans total {merge_spans:.4f} s but "
            f"merge_seconds sum to {merge_s:.4f} s"
        )
    busiest = sum(max(report.shard_seconds) for report in reports)
    if busiest > ingest_wall * (1.0 + TRACE_TOLERANCE):
        problems.append(
            f"the busiest shard of each ingest took {busiest:.4f} s in all, "
            f"longer than the {ingest_wall:.4f} s of ingest calls waiting on it"
        )
    unattributed = layer_totals(per_span).get(UNATTRIBUTED, 0.0)
    miss_s: dict[str, float] = {}
    for span in tracer.spans:
        if span.name == "service.query":
            kind = str(span.attrs.get("kind"))
            miss_s[kind] = miss_s.get(kind, 0.0) + span.duration_seconds
    metrics = {
        "partition.busy_s": sum(seconds for seconds, _ in partition) / n,
        "partition.blocks": sum(blocks for _, blocks in partition) / n,
        "partition.skew": max(
            max(report.rows_per_shard) * report.n_shards / report.rows_total
            for report in reports
        ),
        "transport.roundtrip_frac": ratio(roundtrip_s, ingest_wall),
        "transport.bytes_per_row": ratio(
            sum(sum(report.bytes_shipped_per_shard) for report in reports), rows
        ),
        "transport.blocks": _counter_total(
            registry, "repro_transport_blocks_total"
        ) / n,
        "transport.retries": sum(report.retries for report in reports) / n,
        "transport.recoveries": sum(report.recoveries for report in reports) / n,
        "core.observe_rows_s": shard_s / n,
        "core.shard_busy_max_s": busiest / n,
        "core.parallel_eff": ratio(
            shard_s, sum(
                report.n_shards * wall
                for rnd in traced
                for report, wall in zip(rnd.reports, rnd.ingest_s)
            ),
        ),
        "core.construct_s": construct_s / n,
        "sketches.update_block_frac.distinct": ratio(_histogram_total(
            registry, "repro_sketch_update_block_seconds", family="distinct"
        ), shard_s),
        "sketches.update_block_frac.point": ratio(_histogram_total(
            registry, "repro_sketch_update_block_seconds", family="point"
        ), shard_s),
        "coordinator.merge_s": merge_s / n,
        "checkpoint.save_s": sum(rnd.save_s for rnd in traced) / n,
        "checkpoint.load_s": sum(rnd.load_s for rnd in traced) / n,
        "service.answer_block_s": answer_s / n,
        "service.hit_ratio": ratio(hits, hits + misses),
        "service.misses": misses / n,
        "service.invalidations": _counter_total(
            registry, "repro_query_cache_invalidations_total"
        ) / n,
        "service.miss_frac.frequency": ratio(miss_s.get("frequency", 0.0), answer_s),
        "service.miss_frac.fp": ratio(miss_s.get("fp", 0.0), answer_s),
        "service.miss_frac.heavy_hitters": ratio(
            miss_s.get("heavy_hitters", 0.0), answer_s
        ),
        "telemetry.overhead_frac": (
            statistics.median(rnd.pipeline_s for rnd in traced)
            / statistics.median(rnd.pipeline_s for rnd in plain)
            - 1.0
        ),
        "trace.unattributed_frac": ratio(unattributed, pipeline_s),
    }
    if metrics["trace.unattributed_frac"] > TRACE_TOLERANCE:
        problems.append(
            f"unattributed time is {metrics['trace.unattributed_frac']:.2%} of "
            f"pipeline_s (tolerance {TRACE_TOLERANCE:.0%})"
        )
    return metrics, per_span, problems


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0

"""Execute an :class:`~repro.experiments.specs.ExperimentSpec`.

:func:`run_experiment` is the single execution path behind the CLI, the
benchmarks and the examples: resolve the spec, apply the CLI overrides to
its engine config, hand the scenario body a :class:`RunContext`, and check
the recorded metrics against the spec's declared metric set before packing
everything into an :class:`ExperimentResult`.

Engine scenarios ingest through the sharded engine —
:meth:`RunContext.ingest` builds a
:class:`~repro.engine.coordinator.Coordinator` from the (overridden)
:class:`~repro.experiments.specs.EngineConfig`, and
:meth:`RunContext.service` serves the scenario's queries from the merged
summary through a :class:`~repro.engine.service.QueryService`.

Example::

    >>> from repro.experiments import RunParams, run_experiment
    >>> result = run_experiment("figure1", RunParams(quick=True))
    >>> 10 <= result.metrics["approximation_at_quarter_space"] < 100
    True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator

from .. import telemetry as _telemetry
from ..core.dataset import Dataset
from ..engine.coordinator import Coordinator, IngestReport
from ..engine.service import QueryService
from ..errors import EstimationError, InvalidParameterError, SnapshotError
from ..streaming.stream import RowStream
from .checkpointing import CheckpointReader, CheckpointWriter
from .registry import get_scenario
from .specs import (
    EngineConfig,
    EstimatorSpec,
    ExperimentSpec,
    ResultTable,
    RunParams,
    ScenarioOutput,
)

__all__ = ["EngineSession", "ExperimentResult", "RunContext", "run_experiment"]

#: Version tag stamped into every JSON result payload.  ``@2`` added the
#: required ``telemetry`` section (``repro/telemetry@1``).
RESULT_SCHEMA = "repro/experiment-result@2"

#: Sentinel distinguishing "no override" from an explicit ``batch_size=None``.
_UNSET = object()


@dataclass(frozen=True)
class EngineSession:
    """One estimator's trip through the engine: coordinator, service, report."""

    estimator_name: str
    coordinator: Coordinator
    service: QueryService
    ingest_report: IngestReport


@dataclass(frozen=True)
class RunContext:
    """Everything a scenario body may draw on while running.

    The context carries the resolved spec, the run parameters and the
    override-applied engine config, and provides the helpers that route all
    data movement through the engine (Coordinator + QueryService) so every
    scenario exercises the same ingest/serve path the production layer uses.

    When the run is a checkpointing build phase (``checkpoints`` set), every
    engine session is additionally saved into the bundle; when it is a
    restored query phase (``restore`` set), :meth:`ingest` skips the stream
    entirely and replays the saved engine states and ingest reports.
    """

    spec: ExperimentSpec
    params: RunParams
    engine: EngineConfig | None
    checkpoints: CheckpointWriter | None = None
    restore: CheckpointReader | None = None
    _session_ids: Iterator[int] = field(default_factory=count, repr=False)
    #: Every :class:`EngineSession` this run created, in creation order —
    #: the raw material for the result's ``telemetry`` section.
    sessions: list[EngineSession] = field(default_factory=list, repr=False)

    def dataset(self) -> Dataset:
        """Generate the scenario's dataset from its workload spec."""
        if self.spec.workload is None:
            raise EstimationError(
                f"scenario {self.spec.name!r} declares no workload"
            )
        return self.spec.workload.build(self.params)

    def queries(self, dataset: Dataset):
        """Generate the scenario's query workload for ``dataset``."""
        if self.spec.queries is None:
            raise EstimationError(
                f"scenario {self.spec.name!r} declares no query workload"
            )
        return list(self.spec.queries.build(dataset, self.params))

    def estimator_grid(self) -> tuple[EstimatorSpec, ...]:
        """The estimator factory grid declared by the spec."""
        return self.spec.estimators

    def ingest(
        self,
        estimator: EstimatorSpec,
        dataset: Dataset,
        n_shards: int | None = None,
        batch_size: object = _UNSET,
    ) -> EngineSession:
        """Run ``dataset`` through the engine into ``estimator``'s summary.

        Builds a :class:`~repro.engine.coordinator.Coordinator` from the
        scenario's engine config (with any ``--shards`` / ``--batch-size``
        overrides already applied), ingests the stream, and returns the
        coordinator together with a cache-backed
        :class:`~repro.engine.service.QueryService` over the merged summary.
        Sweep scenarios may override ``n_shards`` / ``batch_size`` per call
        (``batch_size=None`` explicitly selects per-row ingest on ``serial``).

        In a restored run (``--from-checkpoint``) the stream is never
        touched: the saved engine state and its recorded ingest report are
        replayed, so query results must match the build phase exactly.
        """
        if self.engine is None:
            raise EstimationError(
                f"scenario {self.spec.name!r} is analytic; it has no engine"
            )
        key = f"{next(self._session_ids):03d}-{estimator.name}"
        if self.restore is not None:
            coordinator, report = self.restore.next_session(key)
            service = coordinator.query_service(cache_size=self.engine.cache_size)
            session = EngineSession(
                estimator_name=estimator.name,
                coordinator=coordinator,
                service=service,
                ingest_report=report,
            )
            self.sessions.append(session)
            return session
        coordinator = Coordinator(
            lambda: estimator.build(self.params),
            n_shards=self.engine.n_shards if n_shards is None else n_shards,
            policy=self.engine.policy,
            backend=self.engine.backend,
            batch_size=self.engine.batch_size
            if batch_size is _UNSET
            else batch_size,  # type: ignore[arg-type]
            worker_addresses=self.engine.worker_addresses,
            resilience=self.engine.resilience,
        )
        report = coordinator.ingest(RowStream(dataset))
        # Release socket connections now: serving needs only the merged
        # summary, and sweep scenarios would otherwise pile up one
        # connection pool per grid point.  A body that ingests again
        # through the same coordinator just pays one reconnect.
        coordinator.close()
        service = coordinator.query_service(cache_size=self.engine.cache_size)
        if self.checkpoints is not None:
            self.checkpoints.record(key, estimator.name, coordinator, report)
        session = EngineSession(
            estimator_name=estimator.name,
            coordinator=coordinator,
            service=service,
            ingest_report=report,
        )
        self.sessions.append(session)
        return session


@dataclass(frozen=True)
class ExperimentResult:
    """The complete, serialisable outcome of one experiment run."""

    scenario: str
    title: str
    paper_ref: str
    description: str
    params: RunParams
    engine: EngineConfig | None
    metrics: dict[str, float]
    tables: tuple[ResultTable, ...]
    wall_seconds: float
    #: One entry per saved engine session when the run checkpointed: pairs
    #: the checkpoint's bytes on disk with the summary's structural
    #: ``size_in_bits()`` accounting.  Empty for ordinary runs.
    checkpoints: tuple[dict, ...] = ()
    #: The ``repro/telemetry@1`` section: per-phase wall time, ingest
    #: throughput, cache accounting and the peak summary size (see
    #: :func:`repro.telemetry.validate_telemetry_section`).
    telemetry: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON payload ``python -m repro run`` writes to disk."""
        payload = {
            "schema": RESULT_SCHEMA,
            "scenario": self.scenario,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "description": self.description,
            "params": self.params.to_dict(),
            "engine": self.engine.to_dict() if self.engine else None,
            "metrics": dict(self.metrics),
            "tables": [table.to_dict() for table in self.tables],
            "wall_seconds": self.wall_seconds,
            "telemetry": dict(self.telemetry),
        }
        if self.checkpoints:
            payload["checkpoints"] = [dict(entry) for entry in self.checkpoints]
        return payload


def _telemetry_section(context: RunContext) -> dict:
    """Build the result's ``repro/telemetry@1`` section from the run's sessions.

    Computed from the :class:`~repro.engine.coordinator.IngestReport` and
    :class:`~repro.engine.service.QueryService` accounting every session
    carries, so the section is present (with the same shape) whether the
    metrics registry is enabled or not — ``enabled`` records which mode the
    run used.
    """
    sessions = tuple(context.sessions)
    reports = [session.ingest_report for session in sessions]
    ingest_seconds = float(sum(report.wall_seconds for report in reports))
    merge_seconds = float(sum(report.merge_seconds for report in reports))
    rows_total = int(sum(report.rows_total for report in reports))
    hits = misses = invalidations = 0
    query_seconds = 0.0
    kinds: dict[str, int] = {}
    peak_summary_bits = 0
    for session in sessions:
        info = session.service.cache_info()
        hits += info.hits
        misses += info.misses
        invalidations += info.invalidations
        for kind, summary in session.service.stats().items():
            if kind == "cache":
                continue
            kinds[kind] = kinds.get(kind, 0) + summary.count
            query_seconds += summary.total_seconds
        merged = session.coordinator.merged_estimator
        if merged is not None:
            peak_summary_bits = max(peak_summary_bits, merged.size_in_bits())
    lookups = hits + misses
    return {
        "schema": _telemetry.TELEMETRY_SCHEMA,
        "enabled": _telemetry.enabled(),
        "phases": {
            "ingest_seconds": ingest_seconds,
            "merge_seconds": merge_seconds,
            "query_seconds": query_seconds,
        },
        "ingest": {
            "sessions": len(sessions),
            "rows_total": rows_total,
            "rows_per_second": (
                rows_total / ingest_seconds if ingest_seconds > 0 else 0.0
            ),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "invalidations": invalidations,
            "hit_rate": hits / lookups if lookups else 0.0,
        },
        "queries": {
            "count": sum(kinds.values()),
            "kinds": dict(sorted(kinds.items())),
        },
        "transport": {
            "bytes_shipped": int(
                sum(
                    sum(report.bytes_shipped_per_shard)
                    for report in reports
                )
            ),
            "backends": sorted({report.backend for report in reports}),
        },
        "peak_summary_bits": peak_summary_bits,
    }


def run_experiment(
    scenario: str | ExperimentSpec, params: RunParams | None = None
) -> ExperimentResult:
    """Run one scenario and return its result.

    Parameters
    ----------
    scenario:
        A registered scenario name (``"figure1"``) or an
        :class:`~repro.experiments.specs.ExperimentSpec` value.
    params:
        Seed/quick/engine overrides; defaults to ``RunParams()``.

    The recorded metric keys are checked against ``spec.metrics`` exactly —
    a scenario that records more, fewer or renamed metrics fails loudly
    instead of silently drifting away from its declaration.
    """
    spec = scenario if isinstance(scenario, ExperimentSpec) else get_scenario(scenario)
    spec.validate()
    params = (params or RunParams()).validate()
    engine = spec.engine.with_overrides(params) if spec.engine is not None else None
    writer = (
        CheckpointWriter(params.checkpoint_to, spec.name, params)
        if params.checkpoint_to is not None
        else None
    )
    reader = (
        CheckpointReader(params.from_checkpoint, spec.name, params)
        if params.from_checkpoint is not None
        else None
    )
    context = RunContext(
        spec=spec, params=params, engine=engine, checkpoints=writer, restore=reader
    )
    started = time.perf_counter()
    with _telemetry.span(
        "experiment.run", scenario=spec.name, quick=params.quick
    ):
        output = spec.run(context)
    wall_seconds = time.perf_counter() - started
    if writer is not None:
        writer.finalise()
    if reader is not None and reader.remaining():
        # A replay that consumed only a prefix of the recorded sessions is
        # not the run the bundle captured — fail instead of silently
        # reporting results that skipped recorded engine state.
        raise SnapshotError(
            f"restored run of {spec.name!r} left {reader.remaining()} "
            "recorded engine session(s) unconsumed; the bundle does not "
            "match this scenario version"
        )
    if not isinstance(output, ScenarioOutput):
        raise InvalidParameterError(
            f"scenario {spec.name!r} returned {type(output).__name__}, "
            "expected ScenarioOutput"
        )
    recorded = set(output.metrics)
    declared = set(spec.metrics)
    if recorded != declared:
        missing = sorted(declared - recorded)
        extra = sorted(recorded - declared)
        raise InvalidParameterError(
            f"scenario {spec.name!r} metrics drifted from the declaration: "
            f"missing {missing}, undeclared {extra}"
        )
    tables = tuple(table.validate() for table in output.tables)
    return ExperimentResult(
        scenario=spec.name,
        title=spec.title,
        paper_ref=spec.paper_ref,
        description=spec.description,
        params=params,
        engine=engine,
        metrics={name: float(output.metrics[name]) for name in spec.metrics},
        tables=tables,
        wall_seconds=wall_seconds,
        checkpoints=tuple(writer.sessions) if writer is not None else (),
        telemetry=_telemetry_section(context),
    )

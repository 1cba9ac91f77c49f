"""The engine coordinator: partition, parallel ingest, merge.

:class:`Coordinator` turns the single-node observe-then-query protocol into
a sharded one:

1. a :class:`~repro.engine.partition.StreamPartitioner` routes the input
   stream to ``n_shards`` shards, one ``(shard, rows)`` sub-block at a time
   (:meth:`~repro.engine.partition.StreamPartitioner.route`, the routing
   loop every backend shares);
2. each shard's rows feed a fresh estimator replica — serially, in
   per-call worker processes, or on socket shard workers (in every
   parallel mode only the estimator's *compact snapshot state* — the
   :mod:`repro.persistence` wire format, no timing fields — crosses the
   process boundary, and one function adopts what the workers send back;
   see :mod:`repro.engine.transport`);
3. the per-shard summaries are folded into shard 0's replica through the
   estimator-level ``merge()`` protocol, yielding one summary of the whole
   stream, which is folded into the summary of earlier ``ingest()`` calls.
   The replicas are then dropped: only the merged summary outlives the call.

Because every partition policy produces disjoint substreams whose union is
the input, and because merging is lossless for the default sketch plans,
the merged summary answers queries exactly as a single-node summary of the
same stream would (identically for deterministic summaries, in distribution
for sampling-based ones).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .. import persistence, telemetry
from ..core.estimator import ProjectedFrequencyEstimator
from ..errors import (
    EstimationError,
    InvalidParameterError,
    SnapshotError,
    TransportError,
)
from ..streaming.stream import RowStream
from . import checkpoint as checkpoint_io
from .partition import StreamPartitioner
from .resilience import ResilienceConfig
from .service import QueryService
from .transport import DEFAULT_TRANSPORT_BLOCK_ROWS, SocketWorkerPool

__all__ = ["Coordinator", "IngestReport", "INGEST_BACKENDS"]

#: Supported ingest execution backends: ``serial`` in-process,
#: ``processes`` in a per-call local worker pool, and ``sockets`` on shard
#: servers over the framed ``repro/transport@2`` protocol.
INGEST_BACKENDS = ("serial", "processes", "sockets")


def _ingest_estimator_state(payload: bytes, rows: np.ndarray) -> dict:
    """Worker entry point: restore compact estimator state, ingest, ship back.

    ``payload`` is the estimator's snapshot byte payload and ``rows`` the
    shard's one ``(m, d)`` block, fed through a single ``observe_rows``
    call; no estimator object ever crosses the process boundary.  Returns
    the entry shape of :meth:`~repro.engine.transport.SocketWorkerPool.collect`:
    ``rows``, ``seconds``, the updated snapshot ``payload`` and
    ``metrics``, the worker's *own* telemetry registry (recorded fresh, so
    a forked parent's history is never double counted) for the coordinator
    to merge, or ``None`` when telemetry is off.
    """
    estimator = persistence.from_bytes(bytes(payload))
    with telemetry.scoped_registry() as worker_registry:
        started = time.perf_counter()
        estimator.observe_rows(rows)
        elapsed = time.perf_counter() - started
    return {
        "rows": int(rows.shape[0]),
        "seconds": elapsed,
        "payload": estimator.to_bytes(),
        "metrics": worker_registry.state_dict() if telemetry.enabled() else None,
    }


@dataclass(frozen=True)
class IngestReport:
    """Timings and row accounting for one :meth:`Coordinator.ingest` call.

    Example::

        >>> report = IngestReport(
        ...     n_shards=2, backend="serial", policy="round_robin",
        ...     rows_total=100, rows_per_shard=(50, 50), wall_seconds=0.5,
        ...     shard_seconds=(0.2, 0.2), merge_seconds=0.01,
        ... )
        >>> report.rows_per_second
        200.0
    """

    n_shards: int
    backend: str
    policy: str
    rows_total: int
    rows_per_shard: tuple[int, ...]
    wall_seconds: float
    shard_seconds: tuple[float, ...]
    merge_seconds: float
    #: Transport bytes that crossed the process boundary per shard (state
    #: and rows out plus snapshot bytes back).  Zeros under the serial
    #: backend (and whenever ``n_shards == 1`` short-circuits to it); under
    #: ``processes`` the snapshot bytes both ways plus the raw bytes of the
    #: shard's one row block (pickle framing not counted); exact frame
    #: accounting under ``sockets``.  Empty for reports predating the
    #: transport layer.
    bytes_shipped_per_shard: tuple[int, ...] = ()
    #: Shards given up on after recovery exhaustion (``on_exhausted:
    #: degrade``), as of this ingest.  Empty on healthy runs and on
    #: backends without supervised workers.
    shards_lost: tuple[int, ...] = ()
    #: Rows routed to lost shards this ingest — shipped before the loss or
    #: dropped after it — that the merged summary does not cover.
    rows_dropped: int = 0
    #: Fraction of this ingest's routed rows the merged summary covers
    #: (``1.0`` on healthy runs).
    coverage: float = 1.0
    #: Transport RPC retries charged during this ingest.
    retries: int = 0
    #: Worker recoveries (respawn/reconnect/reassign) during this ingest.
    recoveries: int = 0

    @property
    def rows_per_second(self) -> float:
        """End-to-end ingest throughput (partition + ingest + merge)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.rows_total / self.wall_seconds


class Coordinator:
    """Sharded ingest plus a merged summary serving late-arriving queries.

    Parameters
    ----------
    estimator_factory:
        Zero-argument factory producing a fresh estimator replica per shard.
        Replicas of randomized summaries should share seeds so that sharded
        and single-node ingestion are comparable run to run.
    n_shards:
        Number of estimator replicas (and of worker processes under the
        ``"processes"`` backend, of shard-server connections under
        ``"sockets"``).
    policy:
        Shard assignment policy, see
        :data:`~repro.engine.partition.PARTITION_POLICIES`.
    backend:
        ``"processes"`` ingests shards in per-call parallel worker
        processes; ``"sockets"`` drives shard servers (``python -m repro
        worker``, or loopback ones from
        :func:`~repro.engine.transport.spawn_local_servers`) at
        ``worker_addresses`` over the framed ``repro/transport@2``
        protocol, keeping the connections open across ``ingest()`` calls
        and shipping estimator snapshot bytes back only at merge time;
        ``"serial"`` ingests shards one after another in-process (useful
        as a baseline and wherever multiprocessing is unavailable).  The
        sockets backend replays the serial backend's exact per-batch
        ``observe_rows`` sequence, so its merged summary is bit-identical
        to a serial ingest of the same stream.  Both worker backends ship
        estimator snapshot bytes only, so they refuse estimators that are
        not snapshottable.
    hash_seed:
        Seed for the ``"hash"`` partition policy.
    worker_addresses:
        ``"host:port"`` strings, one per shard, naming the remote shard
        servers of the ``"sockets"`` backend; unused otherwise.  Checked at
        ingest time so checkpoint restores can rebuild a sockets
        coordinator before the serving tier knows its worker fleet.
    batch_size:
        Rows travel the engine as ``(m, d)`` ndarray blocks of at most this
        many rows: :meth:`~repro.engine.partition.StreamPartitioner.route`
        reads the stream in
        :meth:`~repro.streaming.stream.RowStream.iter_batches` blocks, places
        each with one vectorized assignment, and shards ingest through the
        estimators' :meth:`observe_rows` fast path (``serial`` and
        ``sockets`` once per routed sub-block, each ``processes`` worker
        once on its shard's concatenated rows).  Sketch-backed estimators
        carry each block all the way down to the sketches' counted
        ``update_block`` scatter kernels, so batch ingest is the blessed
        path for the α-net estimator in particular.  ``None`` routes
        :data:`~repro.engine.transport.DEFAULT_TRANSPORT_BLOCK_ROWS`-row
        blocks on the worker backends and keeps ``serial`` (and any
        one-shard coordinator) row at a time, the engine's only per-row
        path.  Block and per-row ingest produce identical summaries for
        identical seeds, with one carve-out for sketch plans:
        float-accumulating moment sketches may differ in the last ulp; see
        docs/architecture.md.
    resilience:
        A :class:`~repro.engine.resilience.ResilienceConfig` (or its
        ``to_dict`` form) governing transport retries, per-RPC deadlines
        and worker recovery under the ``sockets`` backend; defaults to
        bounded reconnect recovery.  See docs/robustness.md.

    Coordinators support the context-manager protocol (``with
    Coordinator(...) as engine:``), which closes any open shard-server
    connections on exit, as :meth:`close` does.

    Example::

        >>> from repro import Coordinator, Dataset, ExactBaseline, RowStream
        >>> data = Dataset.random(n_rows=100, n_columns=6, seed=1)
        >>> engine = Coordinator(
        ...     lambda: ExactBaseline(n_columns=6), n_shards=2, backend="serial"
        ... )
        >>> report = engine.ingest(RowStream(data))
        >>> report.rows_total
        100
        >>> engine.merged_estimator.rows_observed
        100
    """

    def __init__(
        self,
        estimator_factory: Callable[[], ProjectedFrequencyEstimator],
        n_shards: int = 4,
        policy: str = "round_robin",
        backend: str = "processes",
        hash_seed: int = 0,
        batch_size: int | None = None,
        worker_addresses: Sequence[str] | None = None,
        resilience: ResilienceConfig | dict | None = None,
    ) -> None:
        if backend not in INGEST_BACKENDS:
            raise InvalidParameterError(
                f"unknown ingest backend {backend!r}; expected one of "
                f"{INGEST_BACKENDS}"
            )
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self._factory = estimator_factory
        self._partitioner = StreamPartitioner(n_shards, policy, hash_seed)
        self._backend = backend
        self._batch_size = batch_size
        self._worker_addresses = (
            tuple(str(address) for address in worker_addresses)
            if worker_addresses
            else None
        )
        if resilience is None:
            self._resilience = ResilienceConfig()
        elif isinstance(resilience, ResilienceConfig):
            self._resilience = resilience
        else:
            self._resilience = ResilienceConfig.from_dict(resilience)
        self._resilience.validate()
        self._socket_pool: SocketWorkerPool | None = None
        self._merged: ProjectedFrequencyEstimator | None = None
        self._rows_covered = 0
        self._rows_lost = 0

    # -- structure ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of estimator replicas per ingest."""
        return self._partitioner.n_shards

    @property
    def backend(self) -> str:
        """The configured ingest backend."""
        return self._backend

    @property
    def batch_size(self) -> int | None:
        """Block size of the batch ingest path (``None`` = row at a time)."""
        return self._batch_size

    @property
    def worker_addresses(self) -> tuple[str, ...] | None:
        """Remote shard-server addresses of the ``"sockets"`` backend."""
        return self._worker_addresses

    @property
    def resilience(self) -> ResilienceConfig:
        """The retry/deadline/recovery policy bundle in force."""
        return self._resilience

    @property
    def coverage(self) -> float:
        """Fraction of all routed rows the merged summary covers.

        ``1.0`` until a shard is lost to recovery exhaustion under
        ``on_exhausted: degrade``; afterwards the row-weighted fraction
        the surviving shards actually ingested.  Query services built by
        :meth:`query_service` annotate their answers with this.
        """
        total = self._rows_covered + self._rows_lost
        return 1.0 if total == 0 else self._rows_covered / total

    @property
    def merged_estimator(self) -> ProjectedFrequencyEstimator:
        """The merged summary of every stream ingested so far."""
        if self._merged is None:
            raise EstimationError("nothing ingested yet; call ingest() first")
        return self._merged

    # -- ingest ------------------------------------------------------------------

    def ingest(self, stream: RowStream) -> IngestReport:
        """Partition ``stream``, ingest the shards, and merge the summaries.

        Repeated calls accumulate: each batch's merged summary is folded
        into the summary of all earlier batches, so the engine can ingest an
        unbounded sequence of stream segments.  Each call starts fresh
        replicas from the factory and keeps none of them afterwards; the
        returned report carries their row counts and timings.

        The serial backend consumes the routed sub-blocks (or rows) as they
        arrive, in a single pass with ``O(summary + block)`` memory,
        honouring the streaming model.  The processes backend materialises
        each shard's rows as one ndarray, because a worker receives its
        whole input in one call; the sockets backend streams sub-blocks,
        but unless recovery is ``fail-fast`` its supervisor buffers this
        call's blocks for replay.
        """
        started = time.perf_counter()
        estimators = [self._factory() for _ in range(self.n_shards)]
        # Anything that will need a merge later — multiple replicas now, or
        # folding this batch into previously ingested ones — must be
        # mergeable, and saying so before ingesting beats failing after.
        if (self.n_shards > 1 or self._merged is not None) and (
            not estimators[0].is_mergeable
        ):
            raise EstimationError(
                f"{type(estimators[0]).__name__} is not mergeable; it "
                "cannot be sharded or ingested incrementally"
            )
        with telemetry.span(
            "coordinator.ingest",
            backend=self._backend,
            policy=self._partitioner.policy,
            n_shards=self.n_shards,
        ) as ingest_span:
            resilience_info = {
                "shards_lost": (), "rows_dropped": 0,
                "retries": 0, "recoveries": 0,
            }
            if self._backend == "serial" or self.n_shards == 1:
                results = self._ingest_serial(estimators, stream)
            elif self._backend == "sockets":
                results, resilience_info = self._ingest_transport(
                    estimators, stream
                )
            else:
                results = self._ingest_in_processes(estimators, stream)
            with telemetry.span("coordinator.merge", n_shards=self.n_shards):
                merge_started = time.perf_counter()
                # The replicas die with this call, so shard 0's is folded
                # into in place rather than copied first.
                merged = estimators[0]
                for estimator in estimators[1:]:
                    merged.merge(estimator)
                if self._merged is not None:
                    self._merged.merge(merged)
                else:
                    self._merged = merged
                merge_seconds = time.perf_counter() - merge_started
            rows_per_shard = tuple(int(result["rows"]) for result in results)
            rows_total = sum(rows_per_shard)
            rows_dropped = int(resilience_info["rows_dropped"])
            rows_routed = rows_total + rows_dropped
            self._rows_covered += rows_total
            self._rows_lost += rows_dropped
            ingest_span.set(rows=rows_total)
            report = IngestReport(
                n_shards=self.n_shards,
                backend=self._backend,
                policy=self._partitioner.policy,
                rows_total=rows_total,
                rows_per_shard=rows_per_shard,
                wall_seconds=time.perf_counter() - started,
                shard_seconds=tuple(
                    float(result["seconds"]) for result in results
                ),
                merge_seconds=merge_seconds,
                bytes_shipped_per_shard=tuple(
                    int(result["bytes_sent"]) + int(result["bytes_received"])
                    for result in results
                ),
                shards_lost=tuple(resilience_info["shards_lost"]),
                rows_dropped=rows_dropped,
                coverage=(
                    1.0 if rows_routed == 0 else rows_total / rows_routed
                ),
                retries=int(resilience_info["retries"]),
                recoveries=int(resilience_info["recoveries"]),
            )
        if telemetry.enabled():
            self._record_ingest_metrics(report)
        return report

    def _record_ingest_metrics(self, report: IngestReport) -> None:
        """Account one finished ingest in the process-global registry.

        Counters for rows/merges, histograms for wall/merge/per-shard
        seconds, and the partition-skew gauge (max over mean rows per
        shard — 1.0 is perfectly balanced) the ROADMAP's scale-out work
        will watch.  One call per ingest, so the cost is independent of
        the stream length.
        """
        registry = telemetry.get_registry()
        registry.counter(
            "repro_ingest_rows_total", "rows routed through Coordinator.ingest"
        ).inc(report.rows_total, backend=report.backend, policy=report.policy)
        registry.histogram(
            "repro_ingest_seconds", "wall seconds per Coordinator.ingest call"
        ).observe(report.wall_seconds, backend=report.backend)
        registry.counter(
            "repro_merge_total", "per-shard summary merges folded by ingest"
        ).inc(max(0, report.n_shards - 1))
        registry.histogram(
            "repro_merge_seconds", "wall seconds merging shard summaries"
        ).observe(report.merge_seconds)
        shard_histogram = registry.histogram(
            "repro_shard_ingest_seconds", "wall seconds of shard ingest work"
        )
        for shard_index, seconds in enumerate(report.shard_seconds):
            shard_histogram.observe(seconds, shard=str(shard_index))
        if report.rows_total:
            mean_rows = report.rows_total / report.n_shards
            registry.gauge(
                "repro_partition_skew_ratio",
                "max/mean rows per shard of the last ingest (1.0 = balanced)",
            ).set(max(report.rows_per_shard) / mean_rows, policy=report.policy)
        if self._merged is not None:
            registry.gauge(
                "repro_summary_size_bits",
                "structural size of the merged summary",
            ).set(
                self._merged.size_in_bits(),
                estimator=type(self._merged).__name__,
            )

    def _ingest_serial(
        self, estimators: list[ProjectedFrequencyEstimator], stream: RowStream
    ) -> list[dict]:
        """Feed every replica in this process; one result entry per shard.

        With ``batch_size`` set each routed sub-block goes through
        ``observe_rows``; with ``batch_size=None`` the stream is dispatched
        row by row through ``observe_row``, the engine's only per-row path.
        Nothing crosses a process boundary, so no bytes are shipped.
        """
        results = [
            {"rows": 0, "seconds": 0.0, "bytes_sent": 0, "bytes_received": 0}
            for _ in estimators
        ]
        if self._batch_size is None:
            for index, row in enumerate(stream):
                shard = self._partitioner.assign(index, row)
                row_started = time.perf_counter()
                estimators[shard].observe_row(row)
                results[shard]["seconds"] += time.perf_counter() - row_started
                results[shard]["rows"] += 1
            return results
        for shard, rows in self._partitioner.route(stream, self._batch_size):
            block_started = time.perf_counter()
            estimators[shard].observe_rows(rows)
            results[shard]["seconds"] += time.perf_counter() - block_started
            results[shard]["rows"] += int(rows.shape[0])
        return results

    def _pristine_payloads(
        self, estimators: list[ProjectedFrequencyEstimator]
    ) -> list[bytes]:
        """Each fresh replica as snapshot bytes: all a worker receives.

        Both worker backends ship estimator snapshot bytes only, never a
        pickled estimator, so an estimator that cannot encode itself (no
        ``state_dict`` contract, or a nested component outside the
        snapshot registry) is refused here, before any worker starts.
        """
        try:
            return [estimator.to_bytes() for estimator in estimators]
        except SnapshotError as error:
            raise EstimationError(
                f"{type(estimators[0]).__name__} is not snapshottable "
                f"({error}); the '{self._backend}' backend ships estimator "
                "snapshot bytes only (see repro.engine.transport)"
            ) from error

    def _adopt_worker_results(
        self,
        estimators: list[ProjectedFrequencyEstimator],
        results: list[dict],
        routed: list[int],
        started: float,
    ) -> dict:
        """Install what the workers sent back, for both worker backends.

        ``results`` holds one :meth:`SocketWorkerPool.collect` entry per
        shard, and ``routed`` the rows this process routed to each shard.
        Each live entry's snapshot ``payload`` is decoded, type-checked,
        checked to have observed exactly its shard's routed rows (a stale
        or short payload is refused before anything merges) and replaces
        that shard's replica, and its worker ``metrics`` registry is merged
        into this process's, so block and kernel metrics survive the
        process boundary.  A shard lost to recovery exhaustion keeps its
        fresh (empty) replica, so the merge folds in an identity and only
        survivors contribute.  Records the exchange, timed from
        ``started``, in the transport metrics and returns its
        ``bytes_sent`` / ``bytes_received`` / ``blocks`` totals.
        """
        registry = telemetry.get_registry()
        totals = {"bytes_sent": 0, "bytes_received": 0, "blocks": 0}
        for index, result in enumerate(results):
            if not result.get("lost"):
                estimator = persistence.from_bytes(bytes(result["payload"]))
                if not isinstance(estimator, ProjectedFrequencyEstimator):
                    raise EstimationError(
                        "worker returned a non-estimator payload of type "
                        f"{type(estimator).__name__}"
                    )
                if estimator.rows_observed != routed[index]:
                    raise EstimationError(
                        f"shard {index} worker returned a summary of "
                        f"{estimator.rows_observed} rows for the "
                        f"{routed[index]} rows routed to it under the "
                        f"'{self._backend}' backend"
                    )
                estimators[index] = estimator
                if result["metrics"] is not None and telemetry.enabled():
                    registry.merge_state(result["metrics"])
            for key in totals:
                totals[key] += int(result[key])
        if not telemetry.enabled():
            return totals
        byte_counter = registry.counter(
            "repro_transport_bytes_total",
            "bytes crossing the coordinator/worker transport boundary",
        )
        byte_counter.inc(
            totals["bytes_sent"], backend=self._backend, direction="to_worker"
        )
        byte_counter.inc(
            totals["bytes_received"],
            backend=self._backend,
            direction="to_coordinator",
        )
        registry.counter(
            "repro_transport_blocks_total",
            "row blocks shipped to shard workers",
        ).inc(totals["blocks"], backend=self._backend)
        registry.histogram(
            "repro_transport_roundtrip_seconds",
            "wall seconds of one transport exchange (blocks out, snapshots back)",
        ).observe(time.perf_counter() - started, backend=self._backend)
        return totals

    def _ingest_transport(
        self, estimators: list[ProjectedFrequencyEstimator], stream: RowStream
    ) -> tuple[list[dict], dict]:
        """Stream routed sub-blocks to socket shard workers.

        The stream is routed once in
        :data:`~repro.engine.transport.DEFAULT_TRANSPORT_BLOCK_ROWS` blocks
        (or ``batch_size`` blocks when set) and each shard's sub-block is
        shipped as its own ``ingest_block`` frame.  Workers therefore
        replay the serial backend's exact ``observe_rows`` call sequence,
        which is what makes the merged summary bit-identical to a serial
        ingest.  Snapshot bytes cross the boundary only once, at the
        collect barrier.  Any failure before the barrier returns closes the
        pool, so rows already shipped never leak into the next ingest.
        """
        block_rows = self._batch_size or DEFAULT_TRANSPORT_BLOCK_ROWS
        started = time.perf_counter()
        # Supervisor counters accumulate over the (persistent) pool's
        # lifetime; snapshot them up front so the report carries this
        # ingest's deltas.  A pool built fresh below starts from zero.
        existing_pool = self._socket_pool
        base_retries = existing_pool.supervisor.retries if existing_pool else 0
        base_recoveries = (
            existing_pool.supervisor.recoveries if existing_pool else 0
        )
        with telemetry.span(
            "transport.roundtrip",
            backend=self._backend,
            n_shards=self.n_shards,
        ) as roundtrip_span:
            routed = [0] * self.n_shards
            try:
                pool = self._transport_pool(estimators)
                for shard, rows in self._partitioner.route(stream, block_rows):
                    pool.send_block(shard, rows)
                    routed[shard] += int(rows.shape[0])
                results = pool.collect()
            except (TransportError, ConnectionError, OSError) as error:
                self.close()
                raise EstimationError(
                    f"transport failure under the '{self._backend}' backend "
                    f"({type(error).__name__}: {error}); workers were shut "
                    "down and will be re-established on the next ingest() call"
                ) from error
            except BaseException:
                # The workers and the supervisor's replay buffers hold this
                # ingest's blocks; drop the pool so the next ingest() starts
                # from a clean one.
                self.close()
                raise
            roundtrip_span.set(
                **self._adopt_worker_results(estimators, results, routed, started)
            )
        resilience_info = {
            "shards_lost": pool.supervisor.lost_shards,
            "rows_dropped": sum(
                int(result["rows_dropped"]) for result in results
            ),
            "retries": pool.supervisor.retries - base_retries,
            "recoveries": pool.supervisor.recoveries - base_recoveries,
        }
        return results, resilience_info

    def _transport_pool(
        self, estimators: list[ProjectedFrequencyEstimator]
    ) -> SocketWorkerPool:
        """The live worker pool, connecting lazily.

        The pool persists across ``ingest()`` calls and is (re)built here
        from the current replicas' pristine snapshot bytes when absent,
        including after a worker failure tore the previous pool down.
        """
        if self._socket_pool is None:
            payloads = self._pristine_payloads(estimators)
            addresses = self._worker_addresses
            if not addresses:
                raise InvalidParameterError(
                    "backend 'sockets' needs worker_addresses (one "
                    "'host:port' per shard); start workers with "
                    "`python -m repro worker`"
                )
            if len(addresses) != self.n_shards:
                raise InvalidParameterError(
                    f"backend 'sockets' needs one worker address per shard: "
                    f"got {len(addresses)} address(es) for {self.n_shards} "
                    "shard(s)"
                )
            self._socket_pool = SocketWorkerPool(
                addresses, payloads, resilience=self._resilience
            )
        return self._socket_pool

    def _ingest_in_processes(
        self, estimators: list[ProjectedFrequencyEstimator], stream: RowStream
    ) -> list[dict]:
        """Ingest each shard's rows as one ndarray in a per-call process pool.

        The stream is routed in ``batch_size`` blocks (or
        :data:`~repro.engine.transport.DEFAULT_TRANSPORT_BLOCK_ROWS` ones)
        and each shard's sub-blocks are concatenated.  Workers receive only
        the replica's compact snapshot bytes from :meth:`_pristine_payloads`
        plus that one block, and hand the updated state back through
        :func:`_ingest_estimator_state`.  Each entry also carries the bytes
        that crossed the pool boundary (state and rows out, state back).
        """
        payloads = self._pristine_payloads(estimators)
        parts: list[list[np.ndarray]] = [[] for _ in estimators]
        block_rows = self._batch_size or DEFAULT_TRANSPORT_BLOCK_ROWS
        for shard, rows in self._partitioner.route(stream, block_rows):
            parts[shard].append(rows)
        blocks = [
            np.vstack(part)
            if part
            else np.empty((0, stream.n_columns), dtype=np.int64)
            for part in parts
        ]
        # Drop the sub-blocks before forking: otherwise this process holds
        # every row twice while the pool runs, and each worker inherits both.
        del parts
        # Fork (where available) shares the parent's loaded modules and is
        # dramatically cheaper to start than spawn.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        started = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=self.n_shards, mp_context=context
        ) as pool:
            futures = [
                pool.submit(_ingest_estimator_state, payload, block)
                for payload, block in zip(payloads, blocks)
            ]
            results = []
            for shard_index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as error:
                    raise EstimationError(
                        f"shard {shard_index} worker died mid-ingest under "
                        f"the '{self._backend}' backend (BrokenProcessPool); "
                        "the pool was abandoned and the next ingest() call "
                        "starts a fresh one"
                    ) from error
        for payload, block, result in zip(payloads, blocks, results):
            result["bytes_sent"] = len(payload) + int(block.nbytes)
            result["bytes_received"] = len(result["payload"])
            result["blocks"] = 1
        self._adopt_worker_results(
            estimators, results, [int(block.shape[0]) for block in blocks], started
        )
        return results

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close the sockets backend's shard-server connections, if any.

        Idempotent and safe on every backend; the serial and per-call
        process backends hold no persistent resources.  A closed
        coordinator remains fully usable — the next :meth:`ingest` call
        simply reconnects a fresh worker pool.
        """
        if self._socket_pool is not None:
            self._socket_pool.close()
            self._socket_pool = None

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- persistence -------------------------------------------------------------

    def save_checkpoint(self, path: str | Path) -> "checkpoint_io.CheckpointInfo":
        """Persist the merged summary + config manifest to ``path``.

        The file is a :data:`~repro.persistence.CHECKPOINT_FORMAT` payload
        (see :mod:`repro.engine.checkpoint`), replaced atomically; a query tier
        restores it with :meth:`load_checkpoint` or
        :meth:`~repro.engine.service.QueryService.from_checkpoint` in any
        later process without re-ingesting the stream.
        """
        return checkpoint_io.save_checkpoint(self, path)

    @classmethod
    def load_checkpoint(
        cls, path: str | Path, estimator_factory: Callable[
            [], ProjectedFrequencyEstimator
        ] | None = None,
    ) -> "Coordinator":
        """Rebuild a coordinator (merged summary, config) from ``path``.

        ``estimator_factory`` is only required to ingest *more* data after
        restoring — serving queries from the restored merged summary needs
        nothing beyond the file.
        """
        return checkpoint_io.load_checkpoint(path, estimator_factory)

    # -- serving -----------------------------------------------------------------

    def query_service(self, cache_size: int = 1024) -> QueryService:
        """A query-serving front end over the merged summary.

        Carries the coordinator's current :attr:`coverage`, so a summary
        degraded by lost shards serves coverage-annotated answers instead
        of silently under-counting.
        """
        return QueryService(
            self.merged_estimator,
            cache_size=cache_size,
            coverage=self.coverage,
        )

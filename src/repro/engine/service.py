"""Query-serving front end: batch queries, result cache, latency stats.

:class:`QueryService` wraps a (merged) estimator behind the three query
methods of the paper's model — ``F_p`` moments, point frequencies, and heavy
hitters — and adds the serving-side machinery a query tier needs:

* an LRU result cache keyed by the query content and pinned to the
  estimator's mutation :attr:`~repro.core.estimator.ProjectedFrequencyEstimator.version`
  (merging more data into the summary bumps the version, so a later
  :meth:`~repro.engine.coordinator.Coordinator.ingest` automatically
  invalidates every cached answer — :meth:`invalidate` remains as a manual
  override);
* per-query-kind latency accounting in one fixed-bucket
  :class:`~repro.telemetry.Histogram`, fed only by cache misses so that
  the numbers reflect actual summary work, and bounded in size however
  many queries the service answers;
* batch entry points that answer many queries in one call.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from .. import telemetry
from ..coding.words import Word
from ..core.dataset import ColumnQuery
from ..core.estimator import ProjectedFrequencyEstimator, pattern_words
from ..errors import InvalidParameterError
from .resilience import DegradedAnswer

__all__ = ["CacheInfo", "LatencySummary", "QueryRequest", "QueryService"]

_LATENCY_METRIC = "repro_query_latency_seconds"
_LATENCY_HELP = "Latency of one uncached query against the summary."


@dataclass(frozen=True)
class LatencySummary:
    """One query kind's uncached-answer latencies, as :meth:`QueryService.stats`
    reports them.

    ``count``, ``total_seconds``, ``mean_seconds``, ``min_seconds`` and
    ``max_seconds`` are exact.  ``p50_seconds`` and ``p95_seconds`` come
    from the service's fixed log-scale buckets: the upper bound of the
    bucket holding the nearest-rank percentile, capped at ``max_seconds``.
    That bound is never below the exact percentile and lies in the same
    factor-of-two bucket, and ``min <= p50 <= p95 <= max`` always holds.
    """

    count: int
    total_seconds: float
    mean_seconds: float
    min_seconds: float
    max_seconds: float
    p50_seconds: float
    p95_seconds: float


def _latency_histogram() -> telemetry.Histogram:
    """A fresh per-service latency histogram, kept out of any registry."""
    return telemetry.Histogram(_LATENCY_METRIC, _LATENCY_HELP)


def _latency_summary(histogram: telemetry.Histogram, kind: str) -> LatencySummary:
    """Summarise one recorded ``kind`` series of ``histogram``."""
    series = histogram.snapshot(kind=kind)
    return LatencySummary(
        count=series.count,
        total_seconds=series.total,
        mean_seconds=series.total / series.count,
        min_seconds=series.min,
        max_seconds=series.max,
        p50_seconds=min(histogram.quantile(0.5, kind=kind), series.max),
        p95_seconds=min(histogram.quantile(0.95, kind=kind), series.max),
    )


@dataclass(frozen=True)
class QueryRequest:
    """One entry of a heterogeneous :meth:`QueryService.answer_block` batch.

    ``kind`` selects the query method (``"fp"``, ``"frequency"`` or
    ``"heavy_hitters"``) and the matching parameter fields must be set; the
    classmethod constructors below build well-formed requests.  The scalar
    entry points build theirs with them, so a request and its scalar twin
    share one cache entry.
    """

    kind: str
    query: ColumnQuery
    p: float | None = None
    pattern: Word | None = None
    phi: float | None = None

    @classmethod
    def fp(cls, query: ColumnQuery, p: float) -> "QueryRequest":
        """An ``F_p`` moment request, twin of :meth:`QueryService.estimate_fp`."""
        return cls(kind="fp", query=query, p=float(p))

    @classmethod
    def frequency(cls, query: ColumnQuery, pattern: Word) -> "QueryRequest":
        """A point-frequency request, twin of
        :meth:`QueryService.estimate_frequency`."""
        (word,) = pattern_words([pattern])
        return cls(kind="frequency", query=query, pattern=word)

    @classmethod
    def heavy_hitters(
        cls, query: ColumnQuery, phi: float, p: float = 1.0
    ) -> "QueryRequest":
        """A heavy-hitter request, twin of :meth:`QueryService.heavy_hitters`."""
        return cls(kind="heavy_hitters", query=query, phi=float(phi), p=float(p))


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss/invalidation accounting of the service's LRU result cache."""

    hits: int
    misses: int
    size: int
    capacity: int
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the cache.

        Example::

            >>> CacheInfo(hits=3, misses=1, size=4, capacity=16).hit_rate
            0.75
        """
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryService:
    """Serve batch queries from a summary with caching and stats.

    Cached results carry the estimator
    :attr:`~repro.core.estimator.ProjectedFrequencyEstimator.version` they
    were computed at: every mutation or merge of the underlying summary (for
    example a later :meth:`~repro.engine.coordinator.Coordinator.ingest`
    folding a new batch into the merged estimator this service wraps) bumps
    that version, and the next query drops the entire cache before serving.
    A service created before more data arrived can therefore never return a
    stale answer.

    Parameters
    ----------
    estimator:
        The summary to answer from (typically
        :attr:`~repro.engine.coordinator.Coordinator.merged_estimator`).
    cache_size:
        Capacity of the LRU result cache; ``0`` disables caching.
    coverage:
        Fraction of the ingested rows the summary actually covers
        (``1.0`` = everything).  A coordinator that lost shards to
        recovery exhaustion under ``on_exhausted: degrade`` passes its
        row-weighted coverage here, and every answer the service returns
        is then wrapped in a
        :class:`~repro.engine.resilience.DegradedAnswer` carrying that
        fraction — degradation is visible in the type, never silent.

    Example::

        >>> from repro import ColumnQuery, Dataset, ExactBaseline, QueryService
        >>> data = Dataset.random(n_rows=200, n_columns=6, seed=2)
        >>> service = QueryService(ExactBaseline(n_columns=6).observe(data))
        >>> query = ColumnQuery.of([0, 3], 6)
        >>> service.estimate_fp(query, 0) == service.estimate_fp(query, 0)
        True
        >>> service.cache_info().hits
        1
    """

    def __init__(
        self,
        estimator: ProjectedFrequencyEstimator,
        cache_size: int = 1024,
        coverage: float = 1.0,
    ) -> None:
        if cache_size < 0:
            raise InvalidParameterError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if not 0.0 < coverage <= 1.0:
            raise InvalidParameterError(
                f"coverage must be in (0, 1], got {coverage}"
            )
        self._coverage = float(coverage)
        self._estimator = estimator
        self._cache_size = int(cache_size)
        self._cache: OrderedDict[Hashable, object] = OrderedDict()
        self._cache_version = estimator.version
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._latency = _latency_histogram()

    @property
    def estimator(self) -> ProjectedFrequencyEstimator:
        """The summary this service answers from."""
        return self._estimator

    @property
    def coverage(self) -> float:
        """Row-weighted fraction of the stream this summary covers."""
        return self._coverage

    @property
    def degraded(self) -> bool:
        """True when answers are served from a partial (lost-shard) summary."""
        return self._coverage < 1.0

    def _annotate(self, kind: str, value):
        """Wrap ``value`` in a :class:`DegradedAnswer` when serving degraded.

        The cache stores raw values (so a service whose coverage improves
        or worsens never resurrects stale annotations); the wrapper is
        applied at return time, once per answered query.
        """
        if self._coverage >= 1.0:
            return value
        if telemetry.enabled():
            telemetry.get_registry().counter(
                "repro_resilience_degraded_queries_total",
                "Queries answered from a partial summary (lost shards).",
            ).inc(kind=kind)
        return DegradedAnswer(value, self._coverage)

    @classmethod
    def from_checkpoint(
        cls, path: str, cache_size: int = 1024
    ) -> "QueryService":
        """Build a service directly from an engine checkpoint file.

        The warm-start path for a serving tier: restore the merged summary
        written by :meth:`~repro.engine.coordinator.Coordinator.save_checkpoint`
        and serve queries from it — no coordinator, no re-ingest, no access
        to the original stream.

        Example::

            >>> import tempfile, os
            >>> from repro import Coordinator, Dataset, ExactBaseline, RowStream
            >>> from repro.engine.service import QueryService
            >>> engine = Coordinator(
            ...     lambda: ExactBaseline(n_columns=4), n_shards=1, backend="serial"
            ... )
            >>> _ = engine.ingest(RowStream(Dataset.random(50, 4, seed=8)))
            >>> path = os.path.join(tempfile.mkdtemp(), "warm.ckpt")
            >>> _ = engine.save_checkpoint(path)
            >>> QueryService.from_checkpoint(path).estimator.rows_observed
            50
        """
        from .checkpoint import _load_merged  # deferred: import cycle

        estimator, config = _load_merged(path)
        # A checkpoint of a degraded coordinator records its coverage; a
        # service restored from it keeps annotating answers.
        return cls(
            estimator,
            cache_size=cache_size,
            coverage=float(config.get("coverage", 1.0)),
        )

    def __getstate__(self) -> dict:
        """Pickle support that never serializes transient serving state.

        The LRU result cache, the latency histogram and the hit/miss
        counters are per-process serving artefacts, not summary state; a
        service that crosses a process boundary arrives cold (regression-
        tested in ``tests/test_persistence.py``).
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_latency"] = _latency_histogram()
        state["_hits"] = 0
        state["_misses"] = 0
        state["_invalidations"] = 0
        return state

    # -- cache plumbing ----------------------------------------------------------

    def _flush_if_stale(self) -> None:
        """Drop the cache if the summary mutated since it was filled.

        Rows observed, a batch merged in or a state restored bump the
        estimator version, so every cached answer computed at an older
        version is stale.
        """
        current_version = self._estimator.version
        if current_version != self._cache_version:
            self._cache.clear()
            self._cache_version = current_version
            self._invalidations += 1
            if telemetry.enabled():
                telemetry.get_registry().counter(
                    "repro_query_cache_invalidations_total",
                    "Cache flushes (manual or stale summary version).",
                ).inc(reason="stale")

    def _record_hit(self, kind: str) -> None:
        self._hits += 1
        if telemetry.enabled():
            telemetry.get_registry().counter(
                "repro_query_cache_hits_total",
                "Queries answered from the result cache.",
            ).inc(kind=kind)

    def _finish_miss(
        self, kind: str, cache_key: Hashable, value: object, elapsed: float
    ) -> None:
        """Account for one computed answer and insert it into the cache."""
        self._misses += 1
        self._latency.observe(elapsed, kind=kind)
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter(
                "repro_query_cache_misses_total",
                "Queries that had to be computed from the summary.",
            ).inc(kind=kind)
            registry.histogram(_LATENCY_METRIC, _LATENCY_HELP).observe(
                elapsed, kind=kind
            )
        if self._cache_size:
            self._cache[cache_key] = value
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every cached result (call after merging in more data)."""
        self._cache.clear()
        self._invalidations += 1
        if telemetry.enabled():
            telemetry.get_registry().counter(
                "repro_query_cache_invalidations_total",
                "Cache flushes (manual or stale summary version).",
            ).inc(reason="manual")

    def cache_info(self) -> CacheInfo:
        """Current hit/miss/invalidation accounting of the result cache."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self._cache),
            capacity=self._cache_size,
            invalidations=self._invalidations,
        )

    def stats(self) -> dict[str, LatencySummary | CacheInfo]:
        """Per-query-kind latency summaries plus the ``"cache"`` accounting.

        Latency entries (cache misses only) are one :class:`LatencySummary`
        per query kind answered so far, built from the service's
        fixed-bucket histogram, and the ``"cache"`` key carries the
        :class:`CacheInfo` counters so callers get hits/misses/invalidations
        from the same snapshot.

        Example::

            >>> from repro import Dataset, ExactBaseline, QueryService
            >>> service = QueryService(
            ...     ExactBaseline(n_columns=4).observe(Dataset.random(20, 4, seed=1))
            ... )
            >>> service.stats()["cache"].misses
            0
        """
        summaries: dict[str, LatencySummary | CacheInfo] = {}
        for labels, _ in self._latency.series():
            kind = dict(labels)["kind"]
            summaries[kind] = _latency_summary(self._latency, kind)
        summaries["cache"] = self.cache_info()
        return summaries

    # -- single queries ----------------------------------------------------------

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        """Serve ``F_p(A, C)`` for one query."""
        return self._answer_one(QueryRequest.fp(query, p))

    def estimate_frequency(self, query: ColumnQuery, pattern: Word) -> float:
        """Serve a projected point-frequency estimate for one query."""
        return self._answer_one(QueryRequest.frequency(query, pattern))

    def heavy_hitters(
        self, query: ColumnQuery, phi: float, p: float = 1.0
    ) -> dict[Word, float]:
        """Serve the ``φ``-heavy hitters of one projection."""
        return self._answer_one(QueryRequest.heavy_hitters(query, phi, p))

    def _answer_one(self, request: QueryRequest) -> Any:
        """Serve one request as a one-entry batch, without the batch
        metrics and span that :meth:`answer_block` records."""
        key = self._request_key(request)
        self._flush_if_stale()
        return self._hand_out(request, self._answer_batch([request], [key])[0])

    def _hand_out(self, request: QueryRequest, value: Any) -> Any:
        """Copy a heavy-hitter report, so callers cannot mutate a cached or
        batch-shared value, and annotate an answer from a partial summary."""
        if request.kind == "heavy_hitters":
            value = dict(value)
        return self._annotate(request.kind, value)

    # -- batch queries -----------------------------------------------------------

    def _request_key(self, request: QueryRequest) -> tuple:
        """The ``(kind, key)`` cache key of ``request``, validated upfront.

        Every entry point keys its requests here, so a query built for
        another dimension is refused before the cache could answer it.
        """
        self._estimator._check_query(request.query)
        if request.kind == "fp":
            if request.p is None:
                raise InvalidParameterError("an 'fp' request must set p")
            return ("fp", (request.query.columns, float(request.p)))
        if request.kind == "frequency":
            if request.pattern is None:
                raise InvalidParameterError(
                    "a 'frequency' request must set a pattern"
                )
            return (
                "frequency",
                (request.query.columns, tuple(request.pattern)),
            )
        if request.kind == "heavy_hitters":
            if request.phi is None:
                raise InvalidParameterError(
                    "a 'heavy_hitters' request must set phi"
                )
            p = 1.0 if request.p is None else float(request.p)
            return (
                "heavy_hitters",
                (request.query.columns, float(request.phi), p),
            )
        raise InvalidParameterError(
            f"unknown query kind {request.kind!r}; expected 'fp', 'frequency' "
            f"or 'heavy_hitters'"
        )

    def answer_block(self, requests: Iterable[QueryRequest]) -> list:
        """Answer a heterogeneous batch of queries in one call.

        Entry ``i`` of the returned list equals what ``requests[i]``'s scalar
        twin (:meth:`estimate_fp` / :meth:`estimate_frequency` /
        :meth:`heavy_hitters`) would return: each scalar call is a one-entry
        batch through the same core.  Cache semantics are per entry: every
        entry whose key is already cached counts a hit, duplicates of an
        earlier entry in the same batch count hits exactly as a scalar
        replay would (when caching is enabled), and every first occurrence
        counts a miss, feeds the latency histogram, and lands in the
        cache.  Point-frequency
        misses sharing one column query answer through a single vectorized
        :meth:`~repro.core.estimator.ProjectedFrequencyEstimator.
        estimate_frequency_block` pass (their recorded latency is the pass
        split evenly across them); ``fp`` and heavy-hitter misses compute
        individually.  One documented divergence from a scalar replay: the
        grouped computes insert into the LRU in group order rather than
        request order, so *which* entries survive a capacity overflow within
        one batch can differ — never whether an answer is correct or fresh.
        """
        batch = list(requests)
        keys = [self._request_key(request) for request in batch]
        self._flush_if_stale()
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter(
                "repro_query_batch_total",
                "Heterogeneous query batches answered via answer_block.",
            ).inc()
            registry.histogram(
                "repro_query_batch_size",
                "Requests per answer_block batch.",
                buckets=telemetry.SIZE_BUCKETS,
            ).observe(len(batch))
        with telemetry.span("service.answer_block", size=len(batch)):
            values = self._answer_batch(batch, keys)
        return [
            self._hand_out(request, value) for request, value in zip(batch, values)
        ]

    def _answer_batch(self, batch: list[QueryRequest], keys: list[tuple]) -> list:
        values: list = [None] * len(batch)
        first_miss: dict[tuple, int] = {}
        duplicates: list[tuple[int, int]] = []
        misses: list[int] = []
        for index, (request, key) in enumerate(zip(batch, keys)):
            if self._cache_size and key in self._cache:
                self._record_hit(request.kind)
                self._cache.move_to_end(key)
                values[index] = self._cache[key]
            elif self._cache_size and key in first_miss:
                # Duplicate of an earlier miss in this batch: one compute,
                # one cache fill, so a scalar replay would hit here too.
                self._record_hit(request.kind)
                duplicates.append((index, first_miss[key]))
            else:
                first_miss.setdefault(key, index)
                misses.append(index)
        frequency_groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for index in misses:
            request = batch[index]
            if request.kind == "frequency":
                # Every query has the estimator's dimension (_request_key),
                # so its columns identify it.
                frequency_groups.setdefault(request.query.columns, []).append(index)
                continue
            with telemetry.span("service.query", kind=request.kind):
                started = time.perf_counter()
                if request.kind == "fp":
                    value: object = float(
                        self._estimator.estimate_fp(request.query, request.p)
                    )
                else:
                    p = 1.0 if request.p is None else float(request.p)
                    value = dict(
                        self._estimator.heavy_hitters(request.query, request.phi, p)
                    )
                elapsed = time.perf_counter() - started
            self._finish_miss(request.kind, keys[index], value, elapsed)
            values[index] = value
        for indices in frequency_groups.values():
            query = batch[indices[0]].query
            patterns = [batch[index].pattern for index in indices]
            with telemetry.span("service.query", kind="frequency"):
                started = time.perf_counter()
                estimates = self._estimator.estimate_frequency_block(query, patterns)
                elapsed = time.perf_counter() - started
            per_entry = elapsed / len(indices)
            for index, estimate in zip(indices, estimates):
                value = float(estimate)
                self._finish_miss("frequency", keys[index], value, per_entry)
                values[index] = value
        for index, source in duplicates:
            values[index] = values[source]
        return values

    def batch_estimate_fp(
        self, queries: Sequence[ColumnQuery], p: float
    ) -> list[float]:
        """Serve ``F_p`` for a batch of queries."""
        return [self.estimate_fp(query, p) for query in queries]

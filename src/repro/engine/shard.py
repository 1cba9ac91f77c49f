"""A shard: one estimator replica bound to one substream.

Shards are the unit of parallelism in the engine.  Each
:meth:`~repro.engine.coordinator.Coordinator.ingest` call builds one shard
per replica and drops them all once their summaries are merged, so no
shard outlives that call.  A shard owns a fresh estimator and ingests only
the rows its partition policy assigned to it.  Shards stay in the
coordinator's process: the ``processes`` and ``sockets`` backends send
workers the replica's snapshot bytes only, and the shard adopts the
summary a worker sends back.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from ..coding.words import Word
from ..core.estimator import ProjectedFrequencyEstimator
from ..errors import InvalidParameterError

__all__ = ["Shard"]


class Shard:
    """One estimator replica plus ingest bookkeeping.

    Parameters
    ----------
    shard_id:
        Position of this shard among one ingest's replicas.
    estimator:
        The fresh estimator replica this shard feeds.  It must be mergeable
        (``estimator.is_mergeable``) for the coordinator to combine shard
        summaries later.

    Example::

        >>> from repro import ExactBaseline, Shard
        >>> shard = Shard(0, ExactBaseline(n_columns=3))
        >>> shard.ingest([(0, 1, 0), (1, 1, 1)]).rows_ingested
        2
    """

    def __init__(self, shard_id: int, estimator: ProjectedFrequencyEstimator) -> None:
        if shard_id < 0:
            raise InvalidParameterError(f"shard_id must be >= 0, got {shard_id}")
        self._shard_id = int(shard_id)
        self._estimator = estimator
        self._rows_ingested = 0
        self._ingest_seconds = 0.0

    @property
    def shard_id(self) -> int:
        """Position of this shard among one ingest's replicas."""
        return self._shard_id

    @property
    def estimator(self) -> ProjectedFrequencyEstimator:
        """The estimator replica this shard maintains."""
        return self._estimator

    @property
    def rows_ingested(self) -> int:
        """Rows absorbed by this shard so far."""
        return self._rows_ingested

    @property
    def ingest_seconds(self) -> float:
        """Cumulative wall-clock time spent inside :meth:`ingest`."""
        return self._ingest_seconds

    def ingest(self, rows: Iterable[Word]) -> "Shard":
        """Feed ``rows`` to this shard's estimator replica."""
        started = time.perf_counter()
        for row in rows:
            self._estimator.observe_row(row)
            self._rows_ingested += 1
        self._ingest_seconds += time.perf_counter() - started
        return self

    def ingest_block(self, block: np.ndarray) -> "Shard":
        """Feed a whole ``(m, d)`` block through the estimator's batch path."""
        started = time.perf_counter()
        self._estimator.observe_rows(block)
        self._rows_ingested += int(np.asarray(block).shape[0])
        self._ingest_seconds += time.perf_counter() - started
        return self

    def ingest_row(self, row: Word) -> None:
        """Feed a single row (the coordinator's streaming dispatch path)."""
        started = time.perf_counter()
        self._estimator.observe_row(row)
        self._rows_ingested += 1
        self._ingest_seconds += time.perf_counter() - started

    def adopt(
        self,
        estimator: ProjectedFrequencyEstimator,
        rows_ingested: int,
        ingest_seconds: float,
    ) -> "Shard":
        """Install the updated summary a worker process handed back.

        The coordinator's process backend ships only compact estimator
        state to workers (never whole shards); this is the merge-back half
        of that protocol, folding the worker's row count and wall-clock into
        this shard's accounting.
        """
        self._estimator = estimator
        self._rows_ingested += int(rows_ingested)
        self._ingest_seconds += float(ingest_seconds)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Shard(id={self._shard_id}, rows={self._rows_ingested}, "
            f"estimator={type(self._estimator).__name__})"
        )

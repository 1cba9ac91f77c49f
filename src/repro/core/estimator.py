"""Estimator interface shared by every projected-frequency summary.

The computational model of Section 2 has two phases: during the *observation
phase* rows of ``A`` stream past and the estimator builds its summary; during
the *query phase* a column query ``C`` (unknown while observing) arrives and
statistics of the projected frequency vector must be answered from the
summary alone.  :class:`ProjectedFrequencyEstimator` encodes exactly that
contract, plus structural space accounting so benchmarks can compare
summaries against the paper's space bounds.
"""

from __future__ import annotations

import abc
import time
from typing import Iterable

import numpy as np

from .. import persistence, telemetry
from ..coding.words import Word
from ..errors import EstimationError, InvalidParameterError, SnapshotError
from .dataset import ColumnQuery, Dataset

__all__ = ["ProjectedFrequencyEstimator", "pattern_words"]


def pattern_words(patterns: object) -> list[Word]:
    """Normalise a batch of query patterns to a list of symbol tuples.

    Accepts an ``(m, k)`` integer ndarray (each row one pattern) or any
    iterable of words; the returned tuples are the keys every
    ``estimate_frequency_block`` looks its patterns up by.  A symbol that
    is not an integer is refused, never truncated.
    """
    if isinstance(patterns, np.ndarray):
        if patterns.ndim != 2:
            raise EstimationError(
                f"a pattern block must be 2-D, got {patterns.ndim} dimension(s)"
            )
        if patterns.size and not np.issubdtype(patterns.dtype, np.integer):
            raise EstimationError(
                f"a pattern block must hold integers, got dtype {patterns.dtype}"
            )
        return [tuple(row) for row in patterns.tolist()]
    return [_integer_symbols(pattern, "pattern") for pattern in patterns]


def _integer_symbols(word: Iterable[object], what: str) -> Word:
    """``word`` as a tuple of Python ints, refusing any non-integer symbol."""
    symbols = tuple(word)
    for symbol in symbols:
        if not isinstance(symbol, (int, np.integer)):
            raise EstimationError(f"{what} symbol {symbol!r} is not an integer")
    return tuple(int(symbol) for symbol in symbols)


class ProjectedFrequencyEstimator(abc.ABC):
    """Base class for summaries supporting projected frequency queries.

    Subclasses implement :meth:`observe_row` (the streaming phase) and any of
    the query methods they support, point frequencies through
    :meth:`estimate_frequency_block` alone; unsupported queries raise
    :class:`~repro.errors.EstimationError` by default, so callers can probe
    capabilities with ``try/except`` or check :meth:`supports`.
    """

    def __init__(self, n_columns: int, alphabet_size: int = 2) -> None:
        self._n_columns = int(n_columns)
        self._alphabet_size = int(alphabet_size)
        self._rows_observed = 0
        self._version = 0

    @property
    def n_columns(self) -> int:
        """Dimensionality ``d`` of the rows this estimator expects."""
        return self._n_columns

    @property
    def alphabet_size(self) -> int:
        """Alphabet size ``Q`` of the rows this estimator expects."""
        return self._alphabet_size

    @property
    def rows_observed(self) -> int:
        """Number of rows absorbed during the observation phase."""
        return self._rows_observed

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter of this summary.

        Incremented by every :meth:`observe_row`, :meth:`observe_rows`,
        :meth:`merge` and :meth:`load_state_dict`.  Serving tiers (see
        :class:`~repro.engine.service.QueryService`) compare it against the
        version a result cache was filled at, so answers computed before a
        later ingest or restore can never be served as fresh.  Like the
        cache, it is serving state: :meth:`state_dict` does not carry it.
        """
        return self._version

    # -- observation phase ----------------------------------------------------

    def _observe(self, row: Word) -> None:
        """Absorb one row (already validated): by default a one-row
        :meth:`_observe_block`.

        A subclass overrides this hook, :meth:`_observe_block`, or both;
        each default calls the other.
        """
        self._observe_block(np.array([row], dtype=np.int64))

    def observe_row(self, row: Word) -> None:
        """Absorb one row of the stream; every symbol must be an integer in
        ``[0, Q)``."""
        if len(row) != self._n_columns:
            raise EstimationError(
                f"row of length {len(row)} fed to an estimator expecting "
                f"{self._n_columns} columns"
            )
        word = _integer_symbols(row, "row")
        for symbol in word:
            self._check_symbol(symbol, "row")
        self._rows_observed += 1
        self._version += 1
        self._observe(word)

    def _observe_block(self, block: np.ndarray) -> None:
        """Absorb one validated ``(m, d)`` block (hook for subclasses).

        The default implementation replays the block through the per-row
        :meth:`_observe` hook, so an estimator that defines only that hook
        accepts blocks; subclasses with genuinely vectorized kernels
        override this.
        """
        for row in block.tolist():
            self._observe(tuple(row))

    def observe_rows(self, rows: np.ndarray) -> "ProjectedFrequencyEstimator":
        """Absorb a whole block of rows given as an ``(m, d)`` integer array.

        The batch counterpart of :meth:`observe_row` — and the blessed fast
        path through :meth:`~repro.engine.coordinator.Coordinator` batch
        ingest: the block is validated once (shape, dtype and the alphabet
        ``[0, Q)``) instead of once per row, and estimators with a
        vectorized :meth:`_observe_block` override skip the per-row Python
        loop entirely.  Sketch-backed summaries route each block onward
        through the sketches' counted ``update_block`` kernels (key →
        dedup → hash → scatter), so the full chain
        ``observe_rows → _observe_block → update_block`` never touches a
        per-item Python loop on the hot path.  Feeding the same rows through
        :meth:`observe_row` and :meth:`observe_rows` produces identical
        summaries (including for randomized summaries, given the same seed),
        with one documented carve-out for sketch-plan estimators:
        float-accumulating moment sketches may differ in the last ulp
        (counted batches reorder their additions).  See
        ``docs/architecture.md``, *Batch ingest and vectorized kernels*.
        """
        block = np.asarray(rows)
        if block.ndim != 2:
            raise EstimationError(
                f"observe_rows expects a 2-D block, got {block.ndim} dimension(s)"
            )
        if block.shape[1] != self._n_columns:
            raise EstimationError(
                f"block of width {block.shape[1]} fed to an estimator expecting "
                f"{self._n_columns} columns"
            )
        if not np.issubdtype(block.dtype, np.integer):
            raise EstimationError(
                f"observe_rows expects an integer block, got dtype {block.dtype}"
            )
        if block.shape[0] == 0:
            return self
        self._check_symbol(int(block.min()), "row")
        self._check_symbol(int(block.max()), "row")
        self._rows_observed += int(block.shape[0])
        self._version += 1
        block = block.astype(np.int64, copy=False)
        if not telemetry.enabled():
            self._observe_block(block)
            return self
        # Block-granular instrumentation: one timing + three metric updates
        # per ingested block, never per row (see docs/observability.md for
        # the overhead accounting).
        started = time.perf_counter()
        self._observe_block(block)
        elapsed = time.perf_counter() - started
        registry = telemetry.get_registry()
        estimator = type(self).__name__
        registry.counter(
            "repro_ingest_blocks_total", "ndarray blocks absorbed via observe_rows"
        ).inc(estimator=estimator)
        registry.counter(
            "repro_ingest_block_bytes_total", "raw bytes of absorbed blocks"
        ).inc(block.nbytes, estimator=estimator)
        registry.histogram(
            "repro_ingest_block_rows",
            "rows per absorbed block",
            buckets=telemetry.SIZE_BUCKETS,
        ).observe(block.shape[0], estimator=estimator)
        registry.histogram(
            "repro_observe_rows_seconds",
            "wall seconds per observe_rows block",
        ).observe(elapsed, estimator=estimator)
        return self

    def observe(self, rows: Iterable[Word] | Dataset) -> "ProjectedFrequencyEstimator":
        """Absorb every row of ``rows`` (a dataset, array, or iterable of words).

        Array and dataset inputs take the :meth:`observe_rows` batch path
        (identical summaries, vectorized kernels); other iterables stream
        row by row.
        """
        if isinstance(rows, np.ndarray):
            return self.observe_rows(rows)
        if isinstance(rows, Dataset):
            return self.observe_rows(rows.to_array())
        for row in rows:
            self.observe_row(row)
        return self

    # -- merge protocol --------------------------------------------------------

    def _merge_summaries(self, other: "ProjectedFrequencyEstimator") -> None:
        """Fold ``other``'s summary state into ``self`` (hook for subclasses).

        Implementations may assume ``other`` is the same concrete type with a
        matching ``n_columns``/``alphabet_size`` (checked by :meth:`merge`)
        and must not touch ``_rows_observed`` — the caller accounts for it.
        They refuse before changing anything; sketch lists merge through
        :func:`~repro.sketches.base.merge_all`.
        """
        raise EstimationError(
            f"{type(self).__name__} does not support merging"
        )

    @property
    def is_mergeable(self) -> bool:
        """Whether this estimator participates in the merge protocol.

        The capability flag shard coordinators check before attempting a
        distributed merge; ``True`` iff the subclass overrides
        :meth:`_merge_summaries`.
        """
        return (
            type(self)._merge_summaries
            is not ProjectedFrequencyEstimator._merge_summaries
        )

    def merge(self, other: "ProjectedFrequencyEstimator") -> "ProjectedFrequencyEstimator":
        """Fold ``other`` into ``self`` so the result summarises both streams.

        Mergeability is what turns a single-node summary into a sharded one:
        each shard observes a substream independently and the union summary
        is recovered by merging, mirroring the sketch-level ``merge()``
        contract of :class:`~repro.sketches.base.MergeableSketch`.

        A refused merge changes nothing: every check, down to each sketch
        pair's :meth:`~repro.sketches.base.MergeableSketch.check_mergeable`,
        runs before the first sketch is merged.

        Raises
        ------
        EstimationError
            If this estimator type does not support merging.
        InvalidParameterError
            If ``other`` is a different concrete type or its configuration
            (dimension, alphabet, summary parameters) is incompatible.
        """
        if type(other) is not type(self):
            raise InvalidParameterError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other.n_columns != self.n_columns:
            raise InvalidParameterError(
                f"cannot merge estimators over {other.n_columns} and "
                f"{self.n_columns} columns"
            )
        if other.alphabet_size != self.alphabet_size:
            raise InvalidParameterError(
                f"cannot merge estimators over alphabets of size "
                f"{other.alphabet_size} and {self.alphabet_size}"
            )
        self._merge_summaries(other)
        self._rows_observed += other.rows_observed
        self._version += 1
        return self

    # -- persistence ------------------------------------------------------------

    def _summary_state(self) -> dict:
        """Subclass hook: the estimator-specific half of :meth:`state_dict`."""
        raise SnapshotError(
            f"{type(self).__name__} does not support snapshot serialization"
        )

    def _load_summary_state(self, summary: dict) -> None:
        """Subclass hook: restore the estimator-specific state.

        Called by :meth:`load_state_dict` after the base fields
        (``n_columns``, ``alphabet_size`` and ``rows_observed``, which
        rebuilt structures and their checks may depend on) are in place.
        Implementations must assign their fields directly — never route
        through ``__init__``, which would clobber the base accounting.
        """
        raise SnapshotError(
            f"{type(self).__name__} does not support snapshot serialization"
        )

    @property
    def is_snapshottable(self) -> bool:
        """Whether this estimator implements the ``state_dict`` contract.

        ``True`` iff the subclass overrides :meth:`_summary_state` — the
        capability flag the engine checks before shipping compact state to
        worker processes or writing checkpoints.
        """
        return (
            type(self)._summary_state
            is not ProjectedFrequencyEstimator._summary_state
        )

    def state_dict(self) -> dict:
        """The complete persistent state of this summary as plain containers.

        Includes the stream accounting (``rows_observed``) and, via
        :meth:`_summary_state`, every sampler/sketch underneath — RNG state
        included, so a restored estimator continues ingesting
        *bit-identically* to the original under the same input.  The
        :attr:`version` counter is serving state and is left out.
        """
        return {
            "n_columns": self._n_columns,
            "alphabet_size": self._alphabet_size,
            "rows_observed": self._rows_observed,
            "summary": self._summary_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore this estimator in place from a :meth:`state_dict` value.

        A restore is a mutation: it bumps :attr:`version`, so a service
        caching answers over this estimator recomputes them.
        """
        persistence.require_keys(
            state,
            ("n_columns", "alphabet_size", "rows_observed", "summary"),
            type(self).__name__,
        )
        self._n_columns = int(state["n_columns"])
        self._alphabet_size = int(state["alphabet_size"])
        self._rows_observed = int(state["rows_observed"])
        self._load_summary_state(state["summary"])
        self._version += 1

    @classmethod
    def from_state_dict(cls, state: dict) -> "ProjectedFrequencyEstimator":
        """Construct a fresh estimator directly from a :meth:`state_dict` value."""
        estimator = cls.__new__(cls)
        estimator._version = 0
        estimator.load_state_dict(state)
        return estimator

    def to_bytes(self) -> bytes:
        """Frame this summary as a :data:`~repro.persistence.SNAPSHOT_FORMAT` payload.

        The wire format of the persistence layer (see
        :mod:`repro.persistence`): self-describing, schema-checked, and
        readable back through the generic :meth:`from_bytes` without knowing
        the concrete estimator type.
        """
        return persistence.to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProjectedFrequencyEstimator":
        """Restore an estimator from :meth:`to_bytes` output.

        Generic over the snapshot type registry: calling it on the base
        class accepts any registered estimator; calling it on a subclass
        additionally type-checks the result.
        """
        estimator = persistence.from_bytes(data)
        if not isinstance(estimator, cls):
            raise SnapshotError(
                f"payload holds a {type(estimator).__name__}, not a "
                f"{cls.__name__}"
            )
        return estimator

    # -- query phase -----------------------------------------------------------

    def _check_query(self, query: ColumnQuery) -> None:
        """Refuse a query built for another dimension.

        Every query entry point calls this first, before any shortcut, so
        a foreign query fails the same way on every estimator instead of
        being answered (or escaping as an ``IndexError``).
        """
        if query.dimension != self._n_columns:
            raise EstimationError(
                f"query dimension {query.dimension} does not match estimator "
                f"dimension {self._n_columns}"
            )

    def _check_symbol(self, symbol: int, what: str) -> None:
        """Refuse a symbol outside the alphabet ``[0, Q)``."""
        if not 0 <= symbol < self._alphabet_size:
            raise EstimationError(
                f"{what} symbol {symbol} is outside the alphabet "
                f"[0, {self._alphabet_size})"
            )

    def _check_patterns(self, query: ColumnQuery, patterns: Iterable[Word]) -> None:
        """Refuse a pattern whose length is not the query's size, or that
        holds a symbol outside the alphabet.

        Every ``estimate_frequency_block`` calls this after
        :meth:`_check_query`, so such a pattern fails on every estimator
        instead of being counted as absent (or, on the α-net, aliasing
        another pattern's key).
        """
        for pattern in patterns:
            if len(pattern) != len(query):
                raise EstimationError(
                    f"pattern length {len(pattern)} does not match query size "
                    f"{len(query)}"
                )
            for symbol in pattern:
                self._check_symbol(symbol, "pattern")

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        """Estimate the projected moment ``F_p(A, C)``."""
        raise EstimationError(
            f"{type(self).__name__} does not support F_p estimation"
        )

    def estimate_frequency(self, query: ColumnQuery, pattern: Word) -> float:
        """Estimate the frequency of ``pattern`` among the projected rows:
        a one-pattern call into the only point-query kernel,
        :meth:`estimate_frequency_block`."""
        return float(self.estimate_frequency_block(query, (pattern,))[0])

    def estimate_frequency_block(self, query: ColumnQuery, patterns) -> np.ndarray:
        """Batch point-frequency queries over one column query.

        Returns one float64 estimate per pattern; ``patterns`` is an
        ``(m, k)`` integer ndarray or an iterable of words (see
        :func:`pattern_words`).  Estimators that answer point frequencies
        override this one method; the base class raises
        :class:`~repro.errors.EstimationError`.
        """
        raise EstimationError(
            f"{type(self).__name__} does not support point frequency estimation"
        )

    def heavy_hitters(
        self, query: ColumnQuery, phi: float, p: float = 1.0
    ) -> dict[Word, float]:
        """Report (approximate) ``φ``-``ℓ_p`` heavy hitters of the projection."""
        raise EstimationError(
            f"{type(self).__name__} does not support heavy hitters"
        )

    def supports(self, capability: str) -> bool:
        """Whether this estimator overrides the named query method."""
        if capability == "estimate_frequency":  # answered by its kernel
            capability = "estimate_frequency_block"
        base_method = getattr(ProjectedFrequencyEstimator, capability, None)
        own_method = getattr(type(self), capability, None)
        if base_method is None or own_method is None:
            return False
        return own_method is not base_method

    # -- accounting --------------------------------------------------------------

    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Structural space usage of the summary, in bits."""

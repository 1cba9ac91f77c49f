"""The exact baseline discussed in Section 3.1.

:class:`ExactBaseline` retains the entire input (``Θ(n d)`` space, where
``n`` may itself be exponential in ``d``) and answers every query exactly.
It implements the same estimator interface as the real algorithms so the
benchmarks can report their space and accuracy side by side.
"""

from __future__ import annotations

import math

import numpy as np

from ..coding.words import Word
from ..errors import EstimationError, SnapshotError
from ..persistence import require_keys, snapshottable
from .dataset import ColumnQuery, Dataset
from .estimator import ProjectedFrequencyEstimator, pattern_words
from .frequency import FrequencyVector

__all__ = ["ExactBaseline"]


@snapshottable("estimator.exact")
class ExactBaseline(ProjectedFrequencyEstimator):
    """Store every row; answer any projected query exactly.

    This is the ``Θ(n d)`` upper bound mentioned in Section 3.1 — always
    correct, never small.
    """

    def __init__(self, n_columns: int, alphabet_size: int = 2) -> None:
        super().__init__(n_columns=n_columns, alphabet_size=alphabet_size)
        # Rows are stored as a list of (m, d) int64 segments: per-row
        # observations accumulate in a tuple buffer that is flushed into a
        # segment on demand, while block observations append whole segments.
        self._segments: list[np.ndarray] = []
        self._buffer: list[Word] = []

    def _observe(self, row: Word) -> None:
        self._buffer.append(row)

    def _observe_block(self, block: np.ndarray) -> None:
        self._flush_buffer()
        self._segments.append(np.array(block, dtype=np.int64))

    def _flush_buffer(self) -> None:
        if self._buffer:
            self._segments.append(np.array(self._buffer, dtype=np.int64))
            self._buffer = []

    def _materialise(self) -> np.ndarray:
        """All stored rows as one (n, d) array, consolidated in stream order."""
        self._flush_buffer()
        if not self._segments:
            return np.empty((0, self.n_columns), dtype=np.int64)
        if len(self._segments) > 1:
            self._segments = [np.vstack(self._segments)]
        return self._segments[0]

    def _merge_summaries(self, other: "ProjectedFrequencyEstimator") -> None:
        """Concatenate the stored rows (trivially exact under merging)."""
        assert isinstance(other, ExactBaseline)
        self._flush_buffer()
        other_rows = other._materialise()
        if other_rows.shape[0]:
            self._segments.append(other_rows.copy())

    def _summary_state(self) -> dict:
        """The stored rows, consolidated into one ``(n, d)`` array."""
        return {"rows": self._materialise().copy()}

    def _load_summary_state(self, summary: dict) -> None:
        """Adopt the stored rows as a single consolidated segment."""
        require_keys(summary, ("rows",), "ExactBaseline")
        rows = np.asarray(summary["rows"], dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self._n_columns:
            raise SnapshotError(
                f"ExactBaseline state rows have shape {rows.shape}, expected "
                f"(n, {self._n_columns})"
            )
        self._segments = [rows.copy()] if rows.shape[0] else []
        self._buffer = []

    def _frequencies(self, query: ColumnQuery) -> FrequencyVector:
        self._check_query(query)
        projected = self._materialise()[:, list(query.columns)]
        return FrequencyVector.from_rows(projected, self.alphabet_size)

    def frequencies(self, query: ColumnQuery) -> FrequencyVector:
        """The exact projected frequency vector (public accessor)."""
        return self._frequencies(query)

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        return self._frequencies(query).frequency_moment(p)

    def estimate_frequency_block(self, query: ColumnQuery, patterns) -> np.ndarray:
        """Exact pattern frequencies from one projection pass.

        The projected frequency vector is built once per call and every
        pattern reads its exact integer count from it.
        """
        self._check_query(query)
        words = pattern_words(patterns)
        self._check_patterns(query, words)
        if not words:
            return np.zeros(0, dtype=np.float64)
        frequencies = self._frequencies(query)
        return np.array(
            [float(frequencies.frequency(word)) for word in words],
            dtype=np.float64,
        )

    def heavy_hitters(
        self, query: ColumnQuery, phi: float, p: float = 1.0
    ) -> dict[Word, float]:
        return {
            pattern: float(count)
            for pattern, count in self._frequencies(query).heavy_hitters(phi, p).items()
        }

    def to_dataset(self) -> Dataset:
        """Materialise the stored rows as a :class:`~repro.core.dataset.Dataset`."""
        rows = self._materialise()
        if rows.shape[0] == 0:
            raise EstimationError("no rows observed")
        return Dataset(rows.copy(), alphabet_size=self.alphabet_size)

    def size_in_bits(self) -> int:
        stored = sum(segment.shape[0] for segment in self._segments) + len(self._buffer)
        bits_per_symbol = max(1, math.ceil(math.log2(self.alphabet_size)))
        return stored * self.n_columns * bits_per_symbol

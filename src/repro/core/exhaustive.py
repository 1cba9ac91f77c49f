"""Naïve baselines discussed in Section 3.1.

Two trivial strategies bracket the interesting regime:

* :class:`ExactBaseline` — retain the entire input (``Θ(n d)`` space, where
  ``n`` may itself be exponential in ``d``) and answer every query exactly.
* :class:`AllSubsetsBaseline` — when the query size ``t = |C|`` is known in
  advance, maintain one summary per subset of size ``t`` (``Ω(d^t)``
  summaries) or, in the fully general form, per *every* subset (``2^d``
  summaries).  This is the strawman the α-net approach of Section 6 improves
  on.

Both implement the same estimator interface as the real algorithms so the
benchmarks can report their space and accuracy side by side.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from ..coding.words import Word, project_word
from ..errors import EstimationError, InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from ..sketches.base import DistinctCountSketch, merge_all
from ..sketches.kmv import KMVSketch
from .dataset import ColumnQuery, Dataset
from .estimator import ProjectedFrequencyEstimator, pattern_words
from .frequency import FrequencyVector

__all__ = ["ExactBaseline", "AllSubsetsBaseline"]


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

    def estimate_frequency(self, query: ColumnQuery, pattern: Word) -> float:
        self._check_query(query)
        self._check_patterns(query, (pattern,))
        return float(self._frequencies(query).frequency(pattern))

    def estimate_frequency_block(self, query: ColumnQuery, patterns) -> np.ndarray:
        """Batch exact pattern frequencies from one projection pass.

        The scalar path re-projects and re-counts all stored rows for every
        pattern; the block path builds the projected frequency vector once
        and answers every pattern from it — the same exact integer counts,
        so entry ``i`` is bit-identical to
        ``estimate_frequency(query, patterns[i])``.
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


@snapshottable("estimator.all_subsets")
class AllSubsetsBaseline(ProjectedFrequencyEstimator):
    """Keep one distinct-count sketch per column subset of the allowed sizes.

    Parameters
    ----------
    n_columns:
        Dimensionality ``d``.
    subset_sizes:
        The query sizes ``t`` to materialise.  ``None`` means every size
        ``1..d`` (the full ``2^d`` strawman) — guarded by
        ``max_subsets``.
    sketch_factory:
        Factory producing a fresh distinct-count sketch per subset; defaults
        to a small KMV sketch.
    alphabet_size:
        Alphabet ``Q``.
    max_subsets:
        Guard against accidentally materialising an astronomically large
        family of summaries.
    """

    def __init__(
        self,
        n_columns: int,
        subset_sizes: Iterable[int] | None = None,
        sketch_factory: Callable[[int], DistinctCountSketch] | None = None,
        alphabet_size: int = 2,
        max_subsets: int = 50_000,
    ) -> None:
        super().__init__(n_columns=n_columns, alphabet_size=alphabet_size)
        if subset_sizes is None:
            sizes = list(range(1, n_columns + 1))
        else:
            sizes = sorted(set(int(size) for size in subset_sizes))
            for size in sizes:
                if not 1 <= size <= n_columns:
                    raise InvalidParameterError(
                        f"subset size {size} outside [1, {n_columns}]"
                    )
        total = sum(math.comb(n_columns, size) for size in sizes)
        if total > max_subsets:
            raise InvalidParameterError(
                f"materialising {total} subsets exceeds the guard of {max_subsets}"
            )
        if sketch_factory is None:
            sketch_factory = lambda index: KMVSketch(k=64, seed=index)  # noqa: E731
        self._sizes: tuple[int, ...] = tuple(sizes)
        self._subsets: list[ColumnQuery] = []
        for size in sizes:
            for columns in combinations(range(n_columns), size):
                self._subsets.append(ColumnQuery.of(columns, n_columns))
        self._sketches: list[DistinctCountSketch] = [
            sketch_factory(index) for index in range(len(self._subsets))
        ]
        self._subset_index = {
            subset.columns: index for index, subset in enumerate(self._subsets)
        }

    @property
    def subset_count(self) -> int:
        """Number of materialised subsets (and sketches)."""
        return len(self._subsets)

    def _observe(self, row: Word) -> None:
        for index, subset in enumerate(self._subsets):
            self._sketches[index].update(project_word(row, subset.columns))

    def _merge_summaries(self, other: "ProjectedFrequencyEstimator") -> None:
        """Merge the per-subset sketches pairwise, all of them or none."""
        assert isinstance(other, AllSubsetsBaseline)
        if other._subset_index != self._subset_index:
            raise InvalidParameterError(
                "all-subsets baselines must materialise the same subsets to "
                "be merged"
            )
        merge_all(zip(self._sketches, other._sketches))

    def _summary_state(self) -> dict:
        """Materialised subset sizes plus every per-subset sketch.

        The subsets themselves re-enumerate deterministically from the
        sizes, so only the sizes and the sketches travel.
        """
        return {
            "sizes": list(self._sizes),
            "sketches": list(self._sketches),
        }

    def _load_summary_state(self, summary: dict) -> None:
        """Re-enumerate the subsets from the sizes and adopt the sketches."""
        require_keys(summary, ("sizes", "sketches"), "AllSubsetsBaseline")
        sizes = [int(size) for size in summary["sizes"]]
        for size in sizes:
            if not 1 <= size <= self._n_columns:
                raise SnapshotError(
                    f"AllSubsetsBaseline state holds subset size {size} "
                    f"outside [1, {self._n_columns}]"
                )
        self._sizes = tuple(sizes)
        self._subsets = []
        for size in sizes:
            for columns in combinations(range(self._n_columns), size):
                self._subsets.append(ColumnQuery.of(columns, self._n_columns))
        sketches = list(summary["sketches"])
        if len(sketches) != len(self._subsets):
            raise SnapshotError(
                f"AllSubsetsBaseline state holds {len(sketches)} sketches "
                f"for {len(self._subsets)} subsets"
            )
        self._sketches = sketches
        self._subset_index = {
            subset.columns: index for index, subset in enumerate(self._subsets)
        }

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        self._check_query(query)
        if p == 1:
            return float(self.rows_observed)
        if p != 0:
            raise EstimationError(
                "AllSubsetsBaseline keeps distinct-count sketches only (p = 0)"
            )
        index = self._subset_index.get(query.columns)
        if index is None:
            raise EstimationError(
                f"query {query.columns} was not one of the materialised subsets"
            )
        return float(self._sketches[index].estimate())

    def size_in_bits(self) -> int:
        return (
            sum(sketch.size_in_bits() for sketch in self._sketches)
            + self.subset_count * self.n_columns
        )

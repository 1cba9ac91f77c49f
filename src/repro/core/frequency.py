"""Frequency vectors and exact reference solvers.

The frequency vector ``f = f(A, C)`` has one entry per pattern
``w ∈ [Q]^{|C|}`` counting how many projected rows equal ``w`` (Section 2).
Because the dense vector has length ``Q^{|C|}`` it is stored sparsely: only
patterns that occur are kept.  The class exposes exact computations of every
statistic the paper studies —

* ``F_p`` moments (``F_0`` = distinct patterns, ``F_1`` = number of rows),
* ``ℓ_p`` norms of ``f``,
* ``φ``-``ℓ_p`` heavy hitters,
* point frequencies and the ``ℓ_p`` sampling distribution —

and serves as the ground truth against which every estimator and every
hard-instance separation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..coding.words import Word, word_to_index
from ..errors import InvalidParameterError, QueryError
from ..sketches.base import collapse_block
from .dataset import ColumnQuery, Dataset

__all__ = ["FrequencyVector", "exact_fp", "exact_heavy_hitters"]


@dataclass(frozen=True)
class FrequencyVector:
    """Sparse frequency vector of projected row patterns.

    Attributes
    ----------
    counts:
        Mapping from pattern (a word over ``[Q]^{|C|}``) to its frequency.
    alphabet_size:
        The alphabet ``Q`` patterns are drawn from.
    pattern_length:
        The projected dimension ``|C|``.
    """

    counts: Mapping[Word, int]
    alphabet_size: int
    pattern_length: int

    @classmethod
    def from_rows(cls, rows: np.ndarray, alphabet_size: int) -> "FrequencyVector":
        """Count an ``(n, k)`` integer block of projected rows.

        The one projected-count path of the library: the block collapses
        through :func:`~repro.sketches.base.collapse_block`, so patterns are
        keyed in ``np.unique``'s lexicographic order, whatever order the rows
        arrived in.
        """
        block = np.asarray(rows)
        if block.ndim != 2 or not np.issubdtype(block.dtype, np.integer):
            raise InvalidParameterError(
                f"FrequencyVector.from_rows expects a 2-D integer block, got "
                f"{block.ndim} dimension(s) of dtype {block.dtype}"
            )
        unique, counts = collapse_block(block)
        return cls(
            counts=dict(zip(map(tuple, unique.tolist()), counts.tolist())),
            alphabet_size=int(alphabet_size),
            pattern_length=int(block.shape[1]),
        )

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, query: ColumnQuery | Iterable[int]
    ) -> "FrequencyVector":
        """Compute the exact frequency vector ``f(A, C)``."""
        projected = dataset.project(query)
        return cls.from_rows(projected.to_array(), dataset.alphabet_size)

    @classmethod
    def from_counts(
        cls, counts: Mapping[Word, int], alphabet_size: int, pattern_length: int
    ) -> "FrequencyVector":
        """Build a frequency vector directly from a pattern → count mapping."""
        for pattern, count in counts.items():
            if len(pattern) != pattern_length:
                raise InvalidParameterError(
                    f"pattern {pattern} does not have length {pattern_length}"
                )
            if count < 0:
                raise InvalidParameterError(
                    f"pattern {pattern} has negative count {count}"
                )
        return cls(
            counts={tuple(p): int(c) for p, c in counts.items() if c > 0},
            alphabet_size=int(alphabet_size),
            pattern_length=int(pattern_length),
        )

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise InvalidParameterError(
                f"alphabet_size must be >= 2, got {self.alphabet_size}"
            )
        if self.pattern_length < 0:
            raise InvalidParameterError(
                f"pattern_length must be non-negative, got {self.pattern_length}"
            )

    # -- basic accessors ----------------------------------------------------

    @property
    def domain_size(self) -> int:
        """Length of the dense vector, ``Q^{|C|}``."""
        return self.alphabet_size**self.pattern_length

    def frequency(self, pattern: Word) -> int:
        """Exact frequency ``f_{e(pattern)}`` (0 for unobserved patterns)."""
        return int(self.counts.get(tuple(pattern), 0))

    def pattern_index(self, pattern: Word) -> int:
        """The index ``e(pattern)`` of Remark 1."""
        return word_to_index(pattern, self.alphabet_size)

    def observed_patterns(self) -> Iterator[Word]:
        """Iterate over patterns with non-zero frequency."""
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    # -- norms and moments ---------------------------------------------------

    def total_rows(self) -> int:
        """``F_1`` — the number of projected rows (independent of ``C``)."""
        return int(sum(self.counts.values()))

    def distinct_patterns(self) -> int:
        """``F_0`` — the number of distinct projected patterns."""
        return len(self.counts)

    def frequency_moment(self, p: float) -> float:
        """``F_p = Σ_i f_i^p`` (with the convention ``F_0`` = distinct count)."""
        if p < 0:
            raise InvalidParameterError(f"p must be non-negative, got {p}")
        if p == 0:
            return float(self.distinct_patterns())
        values = np.array(list(self.counts.values()), dtype=np.float64)
        return float(np.sum(values**p))

    def lp_norm(self, p: float) -> float:
        """``‖f‖_p = (Σ_i f_i^p)^{1/p}`` for ``p > 0`` (``p = 0`` gives ``F_0``)."""
        if p < 0:
            raise InvalidParameterError(f"p must be non-negative, got {p}")
        if p == 0:
            return float(self.distinct_patterns())
        return float(self.frequency_moment(p) ** (1.0 / p))

    # -- heavy hitters and sampling -------------------------------------------

    def heavy_hitters(self, phi: float, p: float = 1.0) -> dict[Word, int]:
        """Exact ``φ``-``ℓ_p`` heavy hitters: patterns with ``f_i ≥ φ ‖f‖_p``."""
        if not 0 < phi < 1:
            raise InvalidParameterError(f"phi must be in (0, 1), got {phi}")
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        threshold = phi * self.lp_norm(p)
        return {
            pattern: count
            for pattern, count in self.counts.items()
            if count >= threshold
        }

    def relative_frequency(self, pattern: Word, p: float = 1.0) -> float:
        """``f_i / ‖f‖_p`` — the quantity all the projected problems hinge on."""
        norm = self.lp_norm(p)
        if norm == 0:
            return 0.0
        return self.frequency(pattern) / norm

    def lp_sampling_distribution(self, p: float) -> dict[Word, float]:
        """The target ``ℓ_p`` sampling distribution ``f_i^p / F_p``."""
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        total = self.frequency_moment(p)
        if total == 0:
            return {}
        return {
            pattern: (count**p) / total for pattern, count in self.counts.items()
        }

    # -- comparisons -----------------------------------------------------------

    def approximation_ratio(self, estimate: float, p: float) -> float:
        """Multiplicative error of ``estimate`` against the true ``F_p``.

        Returns ``max(estimate / truth, truth / estimate)`` so a perfect
        estimate scores 1.0; an estimate of zero for a non-zero truth (or
        vice versa) scores ``inf``.
        """
        truth = self.frequency_moment(p)
        if truth == 0 and estimate == 0:
            return 1.0
        if truth == 0 or estimate <= 0:
            return float("inf")
        return max(estimate / truth, truth / estimate)

    def to_dense(self, max_domain: int = 1 << 20) -> np.ndarray:
        """Materialise the dense frequency vector of length ``Q^{|C|}``.

        Guarded by ``max_domain`` because the dense vector is exponentially
        large in the query size; intended for tests on small instances.
        """
        if self.domain_size > max_domain:
            raise QueryError(
                f"dense frequency vector of length {self.domain_size} exceeds the "
                f"guard of {max_domain}; use the sparse interface instead"
            )
        dense = np.zeros(self.domain_size, dtype=np.int64)
        for pattern, count in self.counts.items():
            dense[self.pattern_index(pattern)] = count
        return dense


def exact_fp(dataset: Dataset, query: ColumnQuery | Iterable[int], p: float) -> float:
    """Convenience wrapper: the exact projected moment ``F_p(A, C)``."""
    return FrequencyVector.from_dataset(dataset, query).frequency_moment(p)


def exact_heavy_hitters(
    dataset: Dataset, query: ColumnQuery | Iterable[int], phi: float, p: float = 1.0
) -> dict[Word, int]:
    """Convenience wrapper: the exact ``φ``-``ℓ_p`` heavy hitters of ``A^C``."""
    return FrequencyVector.from_dataset(dataset, query).heavy_hitters(phi, p)

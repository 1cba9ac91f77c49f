"""The uniform-sampling estimator ``uSample`` (Theorem 5.1, Corollary 5.2).

The positive result of Section 5.1: keep a uniform sample of ``t`` complete
rows (taken *before* the column query is known — uniform sampling does not
depend on ``C`` in any way), and when a query ``(C, b)`` arrives project the
sampled rows onto ``C``, count how many equal the pattern ``b``, and rescale
by ``n / t``.  A sample of ``t = O(ε^{-2} log(1/δ))`` rows guarantees

``|f̂_{e(b)} - f_{e(b)}| ≤ ε ‖f‖_1``   with probability at least ``1 - δ``,

and since ``‖f‖_1 ≤ ‖f‖_p`` for ``0 < p < 1`` the same sample gives the
``ℓ_p`` guarantee of Corollary 5.2.  The same summary also answers projected
``ℓ_p`` heavy hitters for ``p ≤ 1``: estimate the frequency of every pattern
present in the (projected) sample and report those above the threshold.
"""

from __future__ import annotations

import math

import numpy as np

from ..coding.words import Word
from ..errors import EstimationError, InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from ..sketches.reservoir import ReservoirSampler, WithReplacementSampler
from .dataset import ColumnQuery
from .estimator import ProjectedFrequencyEstimator, pattern_words
from .frequency import FrequencyVector

__all__ = ["UniformSampleEstimator", "sample_size_for"]


def sample_size_for(epsilon: float, delta: float = 0.05) -> int:
    """Sample size ``t = O(ε^{-2} log(1/δ))`` from the Chernoff bound of Thm 5.1."""
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return max(8, math.ceil(math.log(2.0 / delta) / (epsilon * epsilon)))


@snapshottable("estimator.uniform_sample")
class UniformSampleEstimator(ProjectedFrequencyEstimator):
    """Row-sampling summary answering projected point queries and heavy hitters.

    Parameters
    ----------
    n_columns:
        Dimensionality ``d`` of the rows.
    sample_size:
        Number of rows retained (``t``); use :func:`sample_size_for` to size
        it from an ``(epsilon, delta)`` target.
    alphabet_size:
        Alphabet ``Q`` of the data.
    with_replacement:
        Whether to draw the ``t`` rows with replacement (the paper's
        analysis) or keep a reservoir sample without replacement (slightly
        lower variance in practice).  Ablated in the uSample benchmark.
    seed:
        Random seed for the sampler.
    """

    def __init__(
        self,
        n_columns: int,
        sample_size: int,
        alphabet_size: int = 2,
        with_replacement: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__(n_columns=n_columns, alphabet_size=alphabet_size)
        if sample_size < 1:
            raise InvalidParameterError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self._sample_size = int(sample_size)
        self._with_replacement = bool(with_replacement)
        if self._with_replacement:
            self._sampler: WithReplacementSampler[Word] | ReservoirSampler[Word] = (
                WithReplacementSampler(draws=self._sample_size, seed=seed)
            )
        else:
            self._sampler = ReservoirSampler(capacity=self._sample_size, seed=seed)
        self._sample_rows_at: tuple[int, np.ndarray] | None = None

    @classmethod
    def from_accuracy(
        cls,
        n_columns: int,
        epsilon: float,
        delta: float = 0.05,
        alphabet_size: int = 2,
        with_replacement: bool = False,
        seed: int = 0,
    ) -> "UniformSampleEstimator":
        """Size the sample from an ``(epsilon, delta)`` accuracy target."""
        return cls(
            n_columns=n_columns,
            sample_size=sample_size_for(epsilon, delta),
            alphabet_size=alphabet_size,
            with_replacement=with_replacement,
            seed=seed,
        )

    @property
    def sample_size(self) -> int:
        """Configured number of retained rows ``t``."""
        return self._sample_size

    @property
    def with_replacement(self) -> bool:
        """Whether sampling is with replacement."""
        return self._with_replacement

    def _observe(self, row: Word) -> None:
        self._sampler.update(row)

    def _observe_block(self, block) -> None:
        """Feed a whole block through the sampler's vectorized kernel.

        The kernels consume the RNG exactly as the per-row path does, so a
        block-fed estimator holds the same sample as a row-fed one with the
        same seed.
        """
        self._sampler.update_block(block)

    def _merge_summaries(self, other: "ProjectedFrequencyEstimator") -> None:
        """Merge by subsampling the two row samples (Theorem 5.1 is oblivious
        to *which* uniform sample is kept, so the merged summary retains the
        full accuracy guarantee for the concatenated stream)."""
        assert isinstance(other, UniformSampleEstimator)
        # The sampler refuses another sample size or replacement mode.
        self._sampler.merge(other._sampler)  # type: ignore[arg-type]

    # -- persistence ------------------------------------------------------------

    def _summary_state(self) -> dict:
        """Sample-size configuration plus the sampler (a nested snapshot)."""
        return {
            "sample_size": self._sample_size,
            "with_replacement": self._with_replacement,
            "sampler": self._sampler,
        }

    def _load_summary_state(self, summary: dict) -> None:
        """Adopt the restored sampler (RNG state and retained rows included).

        The sampler must be of the configured kind and size and have seen
        exactly ``rows_observed`` rows, since the ``n / t`` scale of every
        answer reads ``rows_observed``.
        """
        require_keys(
            summary,
            ("sample_size", "with_replacement", "sampler"),
            "UniformSampleEstimator",
        )
        self._sample_size = int(summary["sample_size"])
        self._with_replacement = bool(summary["with_replacement"])
        sampler = summary["sampler"]
        expected = (
            WithReplacementSampler if self._with_replacement else ReservoirSampler
        )
        if not isinstance(sampler, expected):
            raise SnapshotError(
                f"UniformSampleEstimator state holds a "
                f"{type(sampler).__name__}, expected {expected.__name__}"
            )
        size = sampler.draws if self._with_replacement else sampler.capacity
        if size != self._sample_size:
            raise SnapshotError(
                f"UniformSampleEstimator state holds a sampler of size {size} "
                f"for sample_size = {self._sample_size}"
            )
        if sampler.items_processed != self._rows_observed:
            raise SnapshotError(
                f"UniformSampleEstimator state holds a sampler that saw "
                f"{sampler.items_processed} rows for rows_observed = "
                f"{self._rows_observed}"
            )
        self._sampler = sampler
        self._sample_rows_at = None

    # -- queries -----------------------------------------------------------------

    def _sample_rows(self) -> np.ndarray:
        """The sampled rows as one ``(t, d)`` ``int64`` array.

        Derived from the sampler and never persisted.  It is rebuilt when
        :attr:`version` has moved since it was built, and observe, merge and
        ``load_state_dict`` all move it, so every query reads the current
        sample.
        """
        if self._sample_rows_at is None or self._sample_rows_at[0] != self.version:
            rows = np.array(self._sampler.sample(), dtype=np.int64)
            self._sample_rows_at = (self.version, rows.reshape(-1, self.n_columns))
        return self._sample_rows_at[1]

    def _scale_factor(self) -> float:
        """The rescaling ``1 / α = n / t`` of the paper's estimator."""
        retained = self._sample_rows().shape[0]
        if not retained:
            raise EstimationError("no rows observed; cannot answer queries")
        return self.rows_observed / retained

    def sample_frequencies(self, query: ColumnQuery) -> FrequencyVector:
        """Frequency vector of the *sampled* rows projected onto ``query``.

        The sample's ``(t, d)`` array projects onto ``query`` with one
        column slice and counts through
        :func:`~repro.sketches.base.collapse_block`.  A with-replacement
        sample may hold one row several times; every draw counts.
        """
        self._check_query(query)
        return FrequencyVector.from_rows(
            self._sample_rows()[:, list(query.columns)], self.alphabet_size
        )

    def estimate_frequency_block(self, query: ColumnQuery, patterns) -> np.ndarray:
        """Estimate each ``f_{e(pattern)}(A, C)`` as ``(n / t) ×`` its sample count.

        The sample projects onto ``query`` once per call and every pattern
        looks its count up in the resulting frequency vector.  Theorem 5.1
        bounds each answer's error by ``ε · n`` with probability ``1 − δ``,
        whatever the query.
        """
        self._check_query(query)
        words = pattern_words(patterns)
        self._check_patterns(query, words)
        if not words:
            return np.zeros(0, dtype=np.float64)
        frequencies = self.sample_frequencies(query)
        scale = self._scale_factor()
        return np.array(
            [frequencies.frequency(word) * scale for word in words],
            dtype=np.float64,
        )

    def heavy_hitters(
        self, query: ColumnQuery, phi: float, p: float = 1.0
    ) -> dict[Word, float]:
        """Report patterns whose estimated frequency reaches ``φ ‖f‖_p``.

        For ``p = 1`` the norm ``‖f‖_1 = n`` is known exactly.  For
        ``0 < p < 1`` the norm is lower-bounded by ``n`` (``‖f‖_p ≥ ‖f‖_1``),
        and the sample is used to estimate it; thresholds computed this way
        preserve the recall guarantee because over-estimating the threshold is
        impossible when the norm estimate is itself conservative.
        """
        self._check_query(query)
        if not 0 < phi < 1:
            raise InvalidParameterError(f"phi must be in (0, 1), got {phi}")
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        if p > 1:
            raise EstimationError(
                "the uniform-sample estimator only supports heavy hitters for "
                "0 < p <= 1 (Theorem 5.3 shows p > 1 requires exponential space)"
            )
        sample_frequencies = self.sample_frequencies(query)
        scale = self._scale_factor()
        if p == 1.0:
            norm = float(self.rows_observed)
        else:
            # Estimate ||f||_p from the rescaled sample counts.
            norm = (
                sum(
                    (count * scale) ** p
                    for count in sample_frequencies.counts.values()
                )
                ** (1.0 / p)
            )
        threshold = phi * norm
        report: dict[Word, float] = {}
        for pattern, count in sample_frequencies.counts.items():
            estimate = count * scale
            if estimate >= threshold:
                report[pattern] = estimate
        return report

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        """Plug-in ``F_p`` estimate from the rescaled sample frequencies.

        This is *not* covered by the guarantees of Theorem 5.1 (and Theorem
        5.4 shows no small-space summary can be); it is provided as the
        natural plug-in heuristic so benchmarks can show exactly where and
        how it fails.
        """
        self._check_query(query)
        if p < 0:
            raise InvalidParameterError(f"p must be non-negative, got {p}")
        if p == 1:
            return float(self.rows_observed)
        sample_frequencies = self.sample_frequencies(query)
        scale = self._scale_factor()
        if p == 0:
            # Distinct patterns in the sample is a lower bound on F_0.
            return float(sample_frequencies.distinct_patterns())
        return float(
            sum((count * scale) ** p for count in sample_frequencies.counts.values())
        )

    def additive_error_bound(self, epsilon: float | None = None) -> float:
        """The additive error ``ε ‖f‖_1 = ε n`` promised by Theorem 5.1."""
        retained = self._sample_rows().shape[0]
        if not retained:
            raise EstimationError("no rows observed; cannot bound the error")
        if epsilon is None:
            epsilon = math.sqrt(math.log(2.0 / 0.05) / retained)
        return epsilon * self.rows_observed

    def size_in_bits(self) -> int:
        bits_per_symbol = max(1, math.ceil(math.log2(self.alphabet_size)))
        row_bits = self.n_columns * bits_per_symbol
        return self._sample_size * row_bits + 4 * 64

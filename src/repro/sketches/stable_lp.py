"""Indyk-style p-stable sketch for ``F_p`` / ``ℓ_p`` norm estimation, ``0 < p <= 2``.

The sketch maintains ``width x depth`` counters, each an inner product of the
frequency vector with i.i.d. draws from a p-stable distribution (Cauchy for
``p = 1``, Gaussian for ``p = 2``, Chambers–Mallows–Stuck generation for
general ``p``).  By p-stability each counter is distributed as
``||f||_p * X`` with ``X`` p-stable, so the median of ``|counter|`` values,
normalised by the median of the absolute p-stable distribution, estimates
``||f||_p`` (and hence ``F_p = ||f||_p^p``) to within ``(1 ± epsilon)`` using
``O(1/epsilon^2)`` counters.

The per-key stable draws are generated *on demand*: row ``i`` seeds the
draws of key ``x`` with its hash ``(a_i·x + b_i) mod p`` (see
:mod:`repro.sketches.hashing`), so the sketch stays sub-linear in the
domain size: no random matrix over the ``Q^{|C|}`` pattern domain is ever
materialised.
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

from ..errors import InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from .base import FrequencyMomentSketch, validate_counts
from .hashing import (
    MERSENNE_PRIME_61,
    as_key,
    as_key_block,
    field_hash,
    hash_coefficients,
)

__all__ = ["StableLpSketch", "sample_p_stable", "median_of_absolute_stable"]


def sample_p_stable(p: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` samples from a standard symmetric p-stable distribution.

    Uses the Chambers–Mallows–Stuck method; for ``p = 2`` the output is
    Gaussian (scaled by ``sqrt(2)`` to match the stability convention) and for
    ``p = 1`` it is standard Cauchy.
    """
    if not 0 < p <= 2:
        raise InvalidParameterError(f"p must be in (0, 2], got {p}")
    # Exact parameter dispatch: callers pass p = 2.0 / 1.0 literally to
    # select the closed-form Gaussian/Cauchy branches.
    if p == 2.0:  # repro: noqa[KER002]
        return rng.normal(0.0, math.sqrt(2.0), size=size)
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    if p == 1.0:  # repro: noqa[KER002] — exact parameter dispatch
        return np.tan(theta)
    numerator = np.sin(p * theta)
    denominator = np.power(np.cos(theta), 1.0 / p)
    correction = np.power(np.cos(theta * (1.0 - p)) / w, (1.0 - p) / p)
    return (numerator / denominator) * correction


@functools.lru_cache(maxsize=16)
def median_of_absolute_stable(p: float, samples: int = 200_001, seed: int = 7) -> float:
    """Estimate the median of ``|X|`` for ``X`` standard p-stable.

    The scaling constant needed to de-bias the median estimator has no closed
    form for general ``p``; a one-off Monte-Carlo estimate (deterministic via
    the fixed seed) is accurate to well under a percent.  It is cached, so
    the sketches of an α-net share one estimate instead of each drawing
    200,001 samples.
    """
    if p == 1.0:  # repro: noqa[KER002] — median of |Cauchy| is exactly 1
        return 1.0
    rng = np.random.default_rng(seed)
    draws = np.abs(sample_p_stable(p, rng, samples))
    return float(np.median(draws))


@snapshottable("sketch.stable_lp")
class StableLpSketch(FrequencyMomentSketch[int]):
    """Median-of-p-stable-projections estimator of ``||f||_p`` and ``F_p``.

    Parameters
    ----------
    p:
        Norm order in ``(0, 2]``.
    width:
        Number of counters per row (controls accuracy, ``O(1/epsilon^2)``).
    depth:
        Number of independent rows combined by a median of medians.
    seed:
        Hash seed; sketches must share all parameters to be mergeable.
    """

    _merge_config = ("p", "width", "depth", "seed")

    def __init__(
        self, p: float, width: int = 128, depth: int = 3, seed: int = 0
    ) -> None:
        if not 0 < p <= 2:
            raise InvalidParameterError(f"p must be in (0, 2], got {p}")
        if width < 4:
            raise InvalidParameterError(f"width must be >= 4, got {width}")
        if depth < 1:
            raise InvalidParameterError(f"depth must be >= 1, got {depth}")
        self.p = float(p)
        self._width = int(width)
        self._depth = int(depth)
        self._seed = int(seed)
        self._coefficients = hash_coefficients(self._seed, self._depth)
        self._counters = np.zeros((self._depth, self._width), dtype=np.float64)
        self._scale = median_of_absolute_stable(self.p)
        self._items_processed = 0

    @classmethod
    def from_error(
        cls, p: float, epsilon: float, delta: float = 0.05, seed: int = 0
    ) -> "StableLpSketch":
        """Construct a sketch with roughly ``(1 ± epsilon)`` accuracy."""
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        width = max(16, math.ceil(12.0 / (epsilon * epsilon)))
        depth = max(1, math.ceil(2 * math.log(1.0 / delta)))
        return cls(p=p, width=width, depth=depth, seed=seed)

    @property
    def width(self) -> int:
        """Counters per row."""
        return self._width

    @property
    def depth(self) -> int:
        """Number of rows."""
        return self._depth

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def update(self, key: int, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        key = as_key(key)
        self._items_processed += count
        for row, (a, b) in enumerate(self._coefficients.tolist()):
            rng = np.random.default_rng((a * key + b) % MERSENNE_PRIME_61)
            self._counters[row] += count * sample_p_stable(self.p, rng, self._width)

    #: Batch rows accumulated per ``np.add.accumulate`` pass; bounds the
    #: temporary to ``(budget + 1) x width`` floats without changing the
    #: (strictly sequential) addition order.
    _BLOCK_ROW_BUDGET = 4096

    def update_block(self, keys, counts=None) -> None:
        """Counted batch update, bit-identical to the per-key loop.

        The expensive work — one ``default_rng`` and one
        Chambers–Mallows–Stuck draw per (key, sketch row) — is deduplicated
        to the *unique* keys of the batch.  The float additions, whose
        rounding depends on order, are **not** reordered: the scaled draws
        accumulate through ``np.add.accumulate`` (strictly sequential, the
        counter row seeded as the first operand), so the final counters match
        ``for key, count in zip(keys, counts): update(key, count)`` to the
        last bit.  Note that collapsing duplicates *before* calling (as the
        α-net ingest path does) is a semantic choice: ``update(x, 2)`` and
        ``update(x); update(x)`` differ in float rounding, though never in
        the estimator's guarantees.
        """
        keys = as_key_block(keys)
        multiplicities = validate_counts(keys.shape[0], counts)
        if keys.shape[0] == 0:
            return
        self._items_processed += int(multiplicities.sum())
        unique, inverse = np.unique(keys, return_inverse=True)
        scale = multiplicities.astype(np.float64)[:, np.newaxis]
        for row, item_seeds in enumerate(field_hash(self._coefficients, unique)):
            draws = np.empty((unique.shape[0], self._width), dtype=np.float64)
            for index, item_seed in enumerate(item_seeds.tolist()):
                rng = np.random.default_rng(item_seed)
                draws[index] = sample_p_stable(self.p, rng, self._width)
            scaled = scale * draws[inverse]
            for start in range(0, scaled.shape[0], self._BLOCK_ROW_BUDGET):
                chunk = scaled[start : start + self._BLOCK_ROW_BUDGET]
                ledger = np.vstack([self._counters[row : row + 1], chunk])
                self._counters[row] = np.add.accumulate(ledger, axis=0)[-1]

    def merge(self, other: "StableLpSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._counters += other._counters

    def state_dict(self) -> dict:
        """Configuration plus the projection counters.

        The hash coefficients and the de-bias scale are deterministic
        functions of the configuration, so ``load_state_dict`` re-derives
        them instead of shipping them over the wire.
        """
        return {
            "p": self.p,
            "width": self._width,
            "depth": self._depth,
            "seed": self._seed,
            "counters": self._counters.copy(),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Re-derive hashing/scale from the config and restore the counters.

        A sketch holds finite ``(depth, width)`` counters and a
        non-negative ``items_processed``; any other state is refused.
        """
        require_keys(
            state,
            ("p", "width", "depth", "seed", "counters", "items_processed"),
            "StableLpSketch",
        )
        self.__init__(  # type: ignore[misc]
            p=float(state["p"]),
            width=int(state["width"]),
            depth=int(state["depth"]),
            seed=int(state["seed"]),
        )
        counters = np.asarray(state["counters"], dtype=np.float64)
        items_processed = int(state["items_processed"])
        if (
            counters.shape != self._counters.shape
            or not bool(np.isfinite(counters).all())
            or items_processed < 0
        ):
            raise SnapshotError(
                f"StableLpSketch: 'counters' must be a finite "
                f"({self._depth}, {self._width}) array and items_processed "
                f"non-negative, got shape {counters.shape} and {items_processed}"
            )
        self._counters = counters.copy()
        self._items_processed = items_processed

    def norm_estimate(self) -> float:
        """Return the estimated ``ℓ_p`` norm ``||f||_p`` of the frequency vector."""
        row_medians = [
            float(statistics.median(np.abs(self._counters[row]).tolist()))
            for row in range(self._depth)
        ]
        return float(statistics.median(row_medians)) / self._scale

    def estimate(self) -> float:
        """Return the estimated frequency moment ``F_p = ||f||_p^p``."""
        return self.norm_estimate() ** self.p

    def size_in_bits(self) -> int:
        return 64 * self._width * self._depth + 4 * 64

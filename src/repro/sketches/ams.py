"""AMS (Alon–Matias–Szegedy) sketch for the second frequency moment ``F_2``.

The "tug-of-war" sketch maintains ``width x depth`` counters, each the inner
product of the frequency vector with a vector of 4-wise independent random
signs.  Squaring a counter gives an unbiased estimate of ``F_2``; averaging
within a row and taking the median across rows yields a
``(1 ± epsilon)``-approximation with probability ``1 - delta`` when
``width = O(1/epsilon^2)`` and ``depth = O(log 1/delta)``.

The paper's Section 5.3 studies projected ``F_p`` estimation; this sketch is
the classical ``p = 2`` building block used by the α-net estimator and the
baselines in those experiments.
"""

from __future__ import annotations

import math
import statistics
from typing import Hashable

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import FrequencyMomentSketch, as_item_block, as_query_block, collapse_block
from .hashing import HashFamily, encode_pattern_block

__all__ = ["AMSSketch"]


@snapshottable("sketch.ams")
class AMSSketch(FrequencyMomentSketch[Hashable]):
    """Tug-of-war ``F_2`` estimator.

    Parameters
    ----------
    width:
        Number of independent sign-counters averaged within each row.
    depth:
        Number of rows whose averages are combined by a median.
    seed:
        Seed of the hash family; sketches must share a seed, width and depth
        to be mergeable.
    """

    p = 2.0
    _merge_config = ("width", "depth", "seed")

    def __init__(self, width: int = 64, depth: int = 5, seed: int = 0) -> None:
        if width < 1:
            raise InvalidParameterError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise InvalidParameterError(f"depth must be >= 1, got {depth}")
        self._width = int(width)
        self._depth = int(depth)
        self._seed = int(seed)
        family = HashFamily(seed)
        self._sign_hashes = [
            [family.polynomial(independence=4) for _ in range(self._width)]
            for _ in range(self._depth)
        ]
        self._counters = np.zeros((self._depth, self._width), dtype=np.int64)
        self._items_processed = 0

    @classmethod
    def from_error(
        cls, epsilon: float, delta: float = 0.05, seed: int = 0
    ) -> "AMSSketch":
        """Construct a sketch with a ``(1 ± epsilon)`` guarantee w.p. ``1 - delta``."""
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        width = max(8, math.ceil(8.0 / (epsilon * epsilon)))
        depth = max(1, math.ceil(4 * math.log(1.0 / delta)))
        return cls(width=width, depth=depth, seed=seed)

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
        """Hash-family seed."""
        return self._seed

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        for row in range(self._depth):
            row_hashes = self._sign_hashes[row]
            for column in range(self._width):
                self._counters[row, column] += row_hashes[column].sign(item) * count

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        Each of the ``depth x width`` sign hashes evaluates the unique
        patterns in one vectorized pass (its own key hashing included, since
        every 4-wise polynomial carries its own seed), and the signed counts
        sum into the integer counters — commutative, so the final state
        matches sequential :meth:`update` calls exactly.
        """
        block = as_item_block(items)
        if block is None:
            return super().update_block(items, counts)
        unique, multiplicities = collapse_block(block, counts)
        if unique.shape[0] == 0:
            return
        self._items_processed += int(multiplicities.sum())
        encoded = encode_pattern_block(unique)
        for row in range(self._depth):
            row_hashes = self._sign_hashes[row]
            for column in range(self._width):
                sign_hash = row_hashes[column]
                signs = sign_hash.sign_block(encoded.hash64(sign_hash.seed))
                self._counters[row, column] += int((signs * multiplicities).sum())

    def merge(self, other: "AMSSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._counters += other._counters

    def state_dict(self) -> dict:
        """Configuration plus the sign counters (hashes re-derive from seed)."""
        return {
            "width": self._width,
            "depth": self._depth,
            "seed": self._seed,
            "counters": self._counters.copy(),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Rebuild the sign hashes from the seed and restore the counters."""
        require_keys(
            state,
            ("width", "depth", "seed", "counters", "items_processed"),
            "AMSSketch",
        )
        self.__init__(  # type: ignore[misc]
            width=int(state["width"]),
            depth=int(state["depth"]),
            seed=int(state["seed"]),
        )
        self._counters = np.asarray(state["counters"], dtype=np.int64).copy()
        self._items_processed = int(state["items_processed"])

    def estimate(self) -> float:
        """Return the estimated ``F_2`` of the observed stream."""
        squared = self._counters.astype(np.float64) ** 2
        row_means = np.mean(squared, axis=1)
        return float(statistics.median(row_means.tolist()))

    def estimate_point(self, item: Hashable) -> float:
        """Unbiased point-frequency estimate of ``item``.

        Each counter is the inner product of the frequency vector with the
        row's sign vector, so ``sign(item) * counter`` is an unbiased
        frequency estimate; averaging within a row and taking the median
        across rows tightens it exactly as for ``F_2``.
        """
        row_estimates = []
        for row in range(self._depth):
            row_hashes = self._sign_hashes[row]
            total = sum(
                row_hashes[column].sign(item) * int(self._counters[row, column])
                for column in range(self._width)
            )
            row_estimates.append(total / self._width)
        return float(statistics.median(row_estimates))

    def estimate_block(self, items) -> np.ndarray:
        """Batch point queries matching per-item :meth:`estimate_point` calls.

        Per row the batch evaluates every sign hash in one ``sign_block``
        pass and reduces via an integer matrix product with the row's
        counters, then ``np.median`` combines the rows.  Bit-identical to the
        scalar path while the signed row totals stay within ``int64`` and the
        division results within float64's exact-integer range (|total| <
        2^53) — always true for the counter magnitudes these sketches hold in
        practice.
        """
        sequence, block = as_query_block(items)
        if block is None:
            return np.array(
                [self.estimate_point(item) for item in sequence], dtype=np.float64
            )
        if block.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        encoded = encode_pattern_block(block)
        row_estimates = np.empty((self._depth, block.shape[0]), dtype=np.float64)
        for row in range(self._depth):
            row_hashes = self._sign_hashes[row]
            signs = np.empty((self._width, block.shape[0]), dtype=np.int64)
            for column in range(self._width):
                sign_hash = row_hashes[column]
                signs[column] = sign_hash.sign_block(encoded.hash64(sign_hash.seed))
            totals = self._counters[row] @ signs
            row_estimates[row] = totals / self._width
        return np.median(row_estimates, axis=0)

    def size_in_bits(self) -> int:
        return 64 * self._width * self._depth + 4 * 64 * self._width * self._depth

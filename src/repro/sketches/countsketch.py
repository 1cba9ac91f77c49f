"""Count-Sketch for point frequency queries with ``ℓ_2`` error guarantees.

Count-Sketch (Charikar, Chen, Farach-Colton) resembles Count-Min but pairs
each row hash with a random sign and answers point queries by the *median*
of the signed counters.  The resulting estimate is unbiased and its error is
bounded in terms of the ``ℓ_2`` norm of the frequency vector rather than
``F_1``, which makes it the natural building block for ``ℓ_2`` heavy hitters.
"""

from __future__ import annotations

import math
import statistics
from typing import Hashable, Iterable

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import PointQuerySketch, as_item_block, as_query_block, collapse_block
from .hashing import HashFamily, encode_pattern_block

__all__ = ["CountSketch"]


@snapshottable("sketch.countsketch")
class CountSketch(PointQuerySketch[Hashable]):
    """Count-Sketch with median-of-rows point queries.

    Parameters
    ----------
    width:
        Number of counters per row.
    depth:
        Number of independent rows; should be odd so the median is a single
        counter value.
    seed:
        Seed of the hash family; sketches must share a seed, width and depth
        to be mergeable.
    """

    _merge_config = ("width", "depth", "seed")

    def __init__(self, width: int = 256, depth: int = 5, seed: int = 0) -> None:
        if width < 2:
            raise InvalidParameterError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise InvalidParameterError(f"depth must be >= 1, got {depth}")
        self._width = int(width)
        self._depth = int(depth)
        self._seed = int(seed)
        family = HashFamily(seed)
        self._bucket_hashes = [
            family.polynomial(independence=2, range_size=self._width)
            for _ in range(self._depth)
        ]
        self._sign_hashes = [
            family.polynomial(independence=4) for _ in range(self._depth)
        ]
        self._table = np.zeros((self._depth, self._width), dtype=np.int64)
        self._items_processed = 0

    @classmethod
    def from_error(
        cls, epsilon: float, delta: float = 0.01, seed: int = 0
    ) -> "CountSketch":
        """Construct a sketch guaranteeing additive error ``epsilon * ||f||_2``."""
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        width = math.ceil(3.0 / (epsilon * epsilon))
        depth = max(1, math.ceil(math.log(1.0 / delta)))
        if depth % 2 == 0:
            depth += 1
        return cls(width=width, depth=depth, seed=seed)

    @property
    def width(self) -> int:
        """Number of counters per row."""
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
        if not isinstance(item, Hashable):
            raise InvalidParameterError(
                f"CountSketch items must be hashable, got {type(item).__name__}; "
                f"feed ndarray rows through update_block instead"
            )
        self._items_processed += count
        for row in range(self._depth):
            bucket = self._bucket_hashes[row](item)
            sign = self._sign_hashes[row].sign(item)
            self._table[row, bucket] += sign * count

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        Per sketch row the unique patterns are hashed once for the bucket
        hash and once for the sign hash, and the signed counts land via one
        ``np.add.at`` scatter — commutative integer additions, so the final
        table matches sequential :meth:`update` calls exactly.
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
            bucket_hash = self._bucket_hashes[row]
            sign_hash = self._sign_hashes[row]
            buckets = bucket_hash.evaluate_block(encoded.hash64(bucket_hash.seed))
            signs = sign_hash.sign_block(encoded.hash64(sign_hash.seed))
            np.add.at(
                self._table[row], buckets.astype(np.intp), signs * multiplicities
            )

    def merge(self, other: "CountSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._table += other._table

    def state_dict(self) -> dict:
        """Configuration plus the counter table (hashes re-derive from seed)."""
        return {
            "width": self._width,
            "depth": self._depth,
            "seed": self._seed,
            "table": self._table.copy(),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Rebuild the hash rows from the seed and restore the counters."""
        require_keys(
            state,
            ("width", "depth", "seed", "table", "items_processed"),
            "CountSketch",
        )
        self.__init__(  # type: ignore[misc]
            width=int(state["width"]),
            depth=int(state["depth"]),
            seed=int(state["seed"]),
        )
        self._table = np.asarray(state["table"], dtype=np.int64).copy()
        self._items_processed = int(state["items_processed"])

    def estimate(self, item: Hashable) -> float:
        """Return the (unbiased) estimate of the frequency of ``item``."""
        estimates = []
        for row in range(self._depth):
            bucket = self._bucket_hashes[row](item)
            sign = self._sign_hashes[row].sign(item)
            estimates.append(sign * self._table[row, bucket])
        return float(statistics.median(estimates))

    def estimate_block(self, items) -> np.ndarray:
        """Batch point queries via one signed gather + ``np.median`` per slab.

        Per sketch row the batch hashes once for buckets and once for signs,
        the signed counters gather into a ``(depth, m)`` slab, and
        ``np.median`` reduces across rows.  Bit-identical to per-item
        :meth:`estimate` calls for odd ``depth`` (the default, and what
        :meth:`from_error` always constructs); for even depths the two
        median-of-two-middle-values averages agree to the last ulp.
        """
        sequence, block = as_query_block(items)
        if block is None:
            return super().estimate_block(sequence)
        if block.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        encoded = encode_pattern_block(block)
        slab = np.empty((self._depth, block.shape[0]), dtype=np.int64)
        for row in range(self._depth):
            bucket_hash = self._bucket_hashes[row]
            sign_hash = self._sign_hashes[row]
            buckets = bucket_hash.evaluate_block(encoded.hash64(bucket_hash.seed))
            signs = sign_hash.sign_block(encoded.hash64(sign_hash.seed))
            slab[row] = signs * self._table[row, buckets.astype(np.intp)]
        return np.median(slab, axis=0)

    def heavy_hitters(
        self, candidates: Iterable[Hashable], threshold: float
    ) -> dict[Hashable, float]:
        """Return candidates whose estimated frequency reaches ``threshold``.

        Whole-table candidate filter: one :meth:`estimate_block` pass plus a
        threshold mask, matching the scalar per-candidate loop key for key
        and estimate for estimate (candidate order preserved).  Candidates
        that cannot pack into a pattern block fall back to that loop.
        """
        sequence, block = as_query_block(candidates)
        if block is None:
            return super().heavy_hitters(sequence, threshold)
        report: dict[Hashable, float] = {}
        estimates = self.estimate_block(block)
        for candidate, estimate in zip(sequence, estimates.tolist()):
            if estimate >= threshold:
                report[candidate] = estimate
        return report

    def l2_estimate(self) -> float:
        """Estimate ``||f||_2`` as the median over rows of the row norms.

        Each row of the table is a random-sign projection of the frequency
        vector, so its squared norm is an unbiased estimator of ``F_2``.
        """
        row_norms = np.sqrt(np.sum(self._table.astype(np.float64) ** 2, axis=1))
        return float(np.median(row_norms))

    def size_in_bits(self) -> int:
        return 64 * self._width * self._depth + 4 * 64 * self._depth + 3 * 64

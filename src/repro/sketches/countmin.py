"""Count-Min sketch for point frequency queries.

The Count-Min sketch (Cormode & Muthukrishnan) keeps a ``depth x width``
array of counters; each of the ``depth`` rows hashes integer keys into
``width`` buckets with its own 2-universal function
``((a·x + b) mod p) mod width``, and a point query returns the minimum
counter over the rows.  With ``width = ceil(e / epsilon)``
and ``depth = ceil(ln(1 / delta))`` the estimate ``f̂_i`` satisfies
``f_i <= f̂_i <= f_i + epsilon * F_1`` with probability at least ``1 - delta``.

Within this reproduction Count-Min sketches are the default point-query
summary stored per column subset by the α-net estimator, and a
baseline against which the uniform-sample estimator of Theorem 5.1 is
compared in the benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from .base import PointQuerySketch, validate_counts
from .hashing import (
    MERSENNE_PRIME_61,
    as_key,
    as_key_block,
    field_hash,
    hash_coefficients,
)

__all__ = ["CountMinSketch"]


@snapshottable("sketch.countmin")
class CountMinSketch(PointQuerySketch[int]):
    """Count-Min sketch with conservative ``min`` point queries.

    Parameters
    ----------
    width:
        Number of counters per row.
    depth:
        Number of independent rows.
    seed:
        Seed of the ``(depth, 2)`` hash coefficient table; sketches must
        share a seed, width and depth to be mergeable.
    """

    _merge_config = ("width", "depth", "seed")

    def __init__(self, width: int = 272, depth: int = 5, seed: int = 0) -> None:
        if width < 2:
            raise InvalidParameterError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise InvalidParameterError(f"depth must be >= 1, got {depth}")
        self._width = int(width)
        self._depth = int(depth)
        self._seed = int(seed)
        self._coefficients = hash_coefficients(self._seed, self._depth)
        self._table = np.zeros((self._depth, self._width), dtype=np.int64)
        self._items_processed = 0

    @classmethod
    def from_error(
        cls, epsilon: float, delta: float = 0.01, seed: int = 0
    ) -> "CountMinSketch":
        """Construct a sketch guaranteeing additive error ``epsilon * F_1``."""
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        width = math.ceil(math.e / epsilon)
        depth = max(1, math.ceil(math.log(1.0 / delta)))
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

    def _buckets(self, keys: np.ndarray) -> np.ndarray:
        """``(depth, m)`` bucket of every validated key in every row."""
        return (
            field_hash(self._coefficients, keys) % np.uint64(self._width)
        ).astype(np.intp)

    def update(self, key: int, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        key = as_key(key)
        self._items_processed += count
        for row, (a, b) in enumerate(self._coefficients.tolist()):
            self._table[row, (a * key + b) % MERSENNE_PRIME_61 % self._width] += count

    def update_block(self, keys, counts=None) -> None:
        """Counted batch update, bit-identical to the per-key loop.

        One broadcast pass hashes every key in every row, and one
        ``np.add.at`` scatter adds the counts into the table.  ``np.add.at``
        sums repeated keys exactly, so the input needs no deduplication and
        the table matches sequential :meth:`update` calls.
        """
        keys = as_key_block(keys)
        multiplicities = validate_counts(keys.shape[0], counts)
        self._items_processed += int(multiplicities.sum())
        rows = np.arange(self._depth)[:, np.newaxis]
        np.add.at(self._table, (rows, self._buckets(keys)), multiplicities)

    def merge(self, other: "CountMinSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._table += other._table

    def state_dict(self) -> dict:
        """Configuration plus the counter table (coefficients re-derive from seed)."""
        return {
            "width": self._width,
            "depth": self._depth,
            "seed": self._seed,
            "table": self._table.copy(),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Rebuild the coefficient table from the seed and restore the counters.

        Every update adds its count once to each row, so a table some
        sketch could hold is ``(depth, width)``, non-negative, and has rows
        that each sum to ``items_processed``; any other table is refused.
        """
        require_keys(
            state,
            ("width", "depth", "seed", "table", "items_processed"),
            "CountMinSketch",
        )
        self.__init__(  # type: ignore[misc]
            width=int(state["width"]),
            depth=int(state["depth"]),
            seed=int(state["seed"]),
        )
        table = np.asarray(state["table"], dtype=np.int64)
        items_processed = int(state["items_processed"])
        if (
            table.shape != self._table.shape
            or bool((table < 0).any())
            or bool((table.sum(axis=1) != items_processed).any())
        ):
            raise SnapshotError(
                f"CountMinSketch: 'table' must be a non-negative "
                f"({self._depth}, {self._width}) array whose rows each sum to "
                f"items_processed = {items_processed}"
            )
        self._table = table.copy()
        self._items_processed = items_processed

    def estimate_block(self, keys) -> np.ndarray:
        """Batch point queries: the minimum counter over the rows, per key.

        One broadcast pass gives every key's bucket in every row, and the
        counters gather into a ``(depth, m)`` slab reduced by ``np.min``.
        """
        keys = as_key_block(keys, caller="estimate_block")
        rows = np.arange(self._depth)[:, np.newaxis]
        return self._table[rows, self._buckets(keys)].min(axis=0).astype(np.float64)

    def additive_error_bound(self, delta: float = 0.01) -> float:
        """Additive error guaranteed with probability ``1 - delta`` for ``F_1`` mass."""
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        return math.e / self._width * self._items_processed

    def size_in_bits(self) -> int:
        return 64 * self._width * self._depth + 2 * 64 * self._depth + 3 * 64

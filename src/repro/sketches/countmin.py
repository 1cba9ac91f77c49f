"""Count-Min sketch for point frequency queries and heavy hitters.

The Count-Min sketch (Cormode & Muthukrishnan) keeps a ``depth x width``
array of counters; each of the ``depth`` rows hashes items into ``width``
buckets with an independent 2-universal hash function, and a point query
returns the minimum counter over the rows.  With ``width = ceil(e / epsilon)``
and ``depth = ceil(ln(1 / delta))`` the estimate ``f̂_i`` satisfies
``f_i <= f̂_i <= f_i + epsilon * F_1`` with probability at least ``1 - delta``.

Within this reproduction Count-Min sketches are the default point-query and
heavy-hitter summary stored per column subset by the α-net estimator, and a
baseline against which the uniform-sample estimator of Theorem 5.1 is
compared in the benchmarks.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable

import numpy as np

from ..errors import InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from .base import PointQuerySketch, as_item_block, as_query_block, collapse_block
from .hashing import HashFamily, encode_pattern_block

__all__ = ["CountMinSketch"]


@snapshottable("sketch.countmin")
class CountMinSketch(PointQuerySketch[Hashable]):
    """Count-Min sketch with conservative ``min`` point queries.

    Parameters
    ----------
    width:
        Number of counters per row.
    depth:
        Number of independent rows.
    seed:
        Seed of the hash family; sketches must share a seed, width and depth
        to be mergeable.
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
        family = HashFamily(seed)
        self._hashes = [
            family.polynomial(independence=2, range_size=self._width)
            for _ in range(self._depth)
        ]
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

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        if not isinstance(item, Hashable):
            raise InvalidParameterError(
                f"CountMinSketch items must be hashable, got {type(item).__name__}; "
                f"feed ndarray rows through update_block instead"
            )
        self._items_processed += count
        for row, hash_function in enumerate(self._hashes):
            self._table[row, hash_function(item)] += count

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        Duplicate rows collapse into one ``(pattern, count)`` pair, each row
        of the sketch hashes the unique patterns in a single
        :func:`~repro.sketches.hashing.stable_hash64_patterns` pass, and the
        counters absorb the whole batch through one ``np.add.at`` scatter per
        row — commutative integer additions, so the final table matches
        sequential :meth:`update` calls exactly.
        """
        block = as_item_block(items)
        if block is None:
            return super().update_block(items, counts)
        unique, multiplicities = collapse_block(block, counts)
        if unique.shape[0] == 0:
            return
        self._items_processed += int(multiplicities.sum())
        encoded = encode_pattern_block(unique)
        for row, hash_function in enumerate(self._hashes):
            buckets = hash_function.evaluate_block(encoded.hash64(hash_function.seed))
            np.add.at(self._table[row], buckets.astype(np.intp), multiplicities)

    def merge(self, other: "CountMinSketch") -> None:
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
        """Rebuild the hash rows from the seed and restore the counters.

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

    def estimate(self, item: Hashable) -> float:
        """Return the (over-)estimate of the frequency of ``item``."""
        return float(
            min(
                self._table[row, hash_function(item)]
                for row, hash_function in enumerate(self._hashes)
            )
        )

    def estimate_block(self, items) -> np.ndarray:
        """Batch point queries, bit-identical to per-item :meth:`estimate` calls.

        The whole batch serialises once (:func:`~repro.sketches.hashing.
        encode_pattern_block`), each sketch row hashes it in one
        ``evaluate_block`` pass, and the counters gather into a
        ``(depth, m)`` slab reduced by ``np.min`` — the same integer minima
        the scalar path takes one item at a time.
        """
        sequence, block = as_query_block(items)
        if block is None:
            return super().estimate_block(sequence)
        if block.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        encoded = encode_pattern_block(block)
        slab = np.empty((self._depth, block.shape[0]), dtype=np.int64)
        for row, hash_function in enumerate(self._hashes):
            buckets = hash_function.evaluate_block(encoded.hash64(hash_function.seed))
            slab[row] = self._table[row, buckets.astype(np.intp)]
        return slab.min(axis=0).astype(np.float64)

    def heavy_hitters(
        self, candidates: Iterable[Hashable], threshold: float
    ) -> dict[Hashable, float]:
        """Return candidates whose estimated frequency reaches ``threshold``.

        Whole-table candidate filter: the candidate set answers through one
        :meth:`estimate_block` pass and a threshold mask, reporting exactly
        the (key, estimate) pairs — in candidate order — that the scalar
        per-candidate loop would.  Candidates that cannot pack into a
        pattern block fall back to that loop.
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

    def additive_error_bound(self, delta: float = 0.01) -> float:
        """Additive error guaranteed with probability ``1 - delta`` for ``F_1`` mass."""
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        return math.e / self._width * self._items_processed

    def size_in_bits(self) -> int:
        return 64 * self._width * self._depth + 2 * 64 * self._depth + 3 * 64

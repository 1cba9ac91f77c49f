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
from .base import PointQuerySketch, SketchBank, integer_array, validate_counts
from .hashing import (
    MERSENNE_PRIME_61,
    as_key,
    as_key_block,
    field_hash,
    hash_coefficients,
    pair_hash,
)

__all__ = ["CountMinSketch", "CountMinBank"]


def _buckets(coefficients: np.ndarray, keys: np.ndarray, width: int) -> np.ndarray:
    """``(depth, m)`` bucket of every validated key in every row."""
    return (field_hash(coefficients, keys) % np.uint64(width)).astype(np.intp)


def _smallest_counters(
    coefficients: np.ndarray, table: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Point answers from one ``(depth, width)`` table: each validated
    key's smallest counter over the rows.

    One broadcast pass gives every key's bucket in every row, and the
    counters gather into a ``(depth, m)`` slab reduced by ``np.min``.
    """
    rows = np.arange(table.shape[0])[:, np.newaxis]
    buckets = _buckets(coefficients, keys, table.shape[1])
    return table[rows, buckets].min(axis=0).astype(np.float64)


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
        self._coefficient_table: np.ndarray | None = None
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

    @property
    def _coefficients(self) -> np.ndarray:
        """The ``(depth, 2)`` table of ``(a_i, b_i)``, derived from the seed
        on first use: a sketch that a bank only stacks never needs it."""
        if self._coefficient_table is None:
            self._coefficient_table = hash_coefficients(self._seed, self._depth)
        return self._coefficient_table

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
        buckets = _buckets(self._coefficients, keys, self._width)
        np.add.at(self._table, (rows, buckets), multiplicities)

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
        """Batch point queries: the minimum counter over the rows, per key."""
        keys = as_key_block(keys, caller="estimate_block")
        return _smallest_counters(self._coefficients, self._table, keys)

    def additive_error_bound(self, delta: float = 0.01) -> float:
        """Additive error guaranteed with probability ``1 - delta`` for ``F_1`` mass."""
        if not 0 < delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        return math.e / self._width * self._items_processed

    def size_in_bits(self) -> int:
        return 64 * self._width * self._depth + 2 * 64 * self._depth + 3 * 64


class CountMinBank(SketchBank):
    """The Count-Min sketches of many seeds, sharing ``(depth, width)``,
    as one ``(members, depth, width)`` counter array.

    Member ``i`` hashes with the ``(depth, 2)`` slice ``i`` of the
    ``(members, depth, 2)`` ``coefficients`` and equals
    ``CountMinSketch(width, depth, seeds[i])`` fed member ``i``'s keys.
    """

    sketch_class = CountMinSketch
    _bank_config = ("width", "depth")

    def __init__(self, seeds: np.ndarray, width: int, depth: int) -> None:
        super().__init__(seeds)
        self.width = int(width)
        self.depth = int(depth)
        self.coefficients = hash_coefficients(self.seeds, self.depth)
        self.table = np.zeros((self.members, self.depth, self.width), dtype=np.int64)

    def update(self, members: np.ndarray, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` for ``(member, key)`` pairs: one bucket pass over
        every pair and row, then one scatter into the table."""
        hashes = pair_hash(
            self.coefficients[members], keys.astype(np.uint64)[:, np.newaxis]
        )
        buckets = (hashes % np.uint64(self.width)).astype(np.intp)
        np.add.at(
            self.table,
            (members[:, np.newaxis], np.arange(self.depth), buckets),
            counts[:, np.newaxis],
        )

    def merge(self, other: "CountMinBank") -> None:
        """Fold ``other`` in: an array add."""
        self.check_mergeable(other)
        self.table += other.table

    def estimate_block(self, member: int, keys) -> np.ndarray:
        """Member ``member``'s point queries, as
        :meth:`CountMinSketch.estimate_block` answers them."""
        keys = as_key_block(keys, caller="estimate_block")
        return _smallest_counters(self.coefficients[member], self.table[member], keys)

    def state_dict(self, rows: int) -> dict:
        """``(depth, width)``, the seeds as gaps, and the counters in the
        narrowest unsigned dtype that holds ``rows``, the most any counter
        of a bank that saw ``rows`` keys per member can hold."""
        return {
            **self._base_state(),
            "counters": self.table.astype(np.min_scalar_type(rows)),
        }

    @classmethod
    def from_state_dict(cls, state: dict, members: int, rows: int) -> "CountMinBank":
        """Restore a bank of ``members`` sketches that each saw ``rows`` keys.

        Every key adds its count once to each row, so every counter row of
        every member sums to ``rows``; a wrong shape, a negative counter or
        any other sum is refused.
        """
        require_keys(state, ("width", "depth", "seed_gaps", "counters"), "CountMinBank")
        width, depth = int(state["width"]), int(state["depth"])
        if width < 2 or depth < 1:
            raise SnapshotError(
                f"CountMinBank: needs width >= 2 and depth >= 1, got "
                f"({depth}, {width})"
            )
        bank = cls(cls._restored_seeds(state, members, "CountMinBank"), width, depth)
        counters = integer_array(
            state["counters"], bank.table.shape, "CountMinBank: 'counters'"
        )
        if counters.size and int(counters.max()) > rows or bool(
            (counters.sum(axis=2, dtype=np.int64) != rows).any()
        ):
            raise SnapshotError(
                f"CountMinBank: every member's counter rows must each sum to "
                f"the {rows} rows observed"
            )
        bank.table = counters.astype(np.int64)
        return bank

"""K-Minimum Values (KMV) distinct-count sketch.

The KMV sketch hashes every item to the unit interval and keeps only the
``k`` smallest hash values seen.  If ``v_k`` is the ``k``-th smallest value
then ``(k - 1) / v_k`` is an unbiased estimator of the number of distinct
items, with relative standard error roughly ``1 / sqrt(k - 2)``.

Choosing ``k = O(1 / epsilon^2)`` therefore gives a ``(1 ± epsilon)``
approximation with constant probability, which is exactly the kind of
*β-approximate sketch* the α-net meta-algorithm of Section 6 stores per
column subset (the paper cites the optimal Kane–Nelson–Woodruff sketch; KMV
achieves the same guarantee with slightly larger constants and is the default
F0 sketch of this reproduction — see DESIGN.md, substitutions).
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Iterator

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import DistinctCountSketch, as_item_block, collapse_block
from .hashing import hash_to_unit_interval, stable_hash64_patterns

__all__ = ["KMVSketch", "kmv_size_for_epsilon"]


def kmv_size_for_epsilon(epsilon: float, delta: float = 0.05) -> int:
    """Return a value of ``k`` giving a ``(1 ± epsilon)`` estimate w.p. ``1 - delta``.

    The bound follows from Chebyshev plus median amplification folded into a
    single constant; it is intentionally conservative.
    """
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return max(8, math.ceil(4.0 / (epsilon * epsilon) * math.log(2.0 / delta)))


@snapshottable("sketch.kmv")
class KMVSketch(DistinctCountSketch[Hashable]):
    """Distinct-count estimator keeping the ``k`` minimum hash values.

    Parameters
    ----------
    k:
        Number of minimum hash values retained.  Larger ``k`` means better
        accuracy and more space; the relative error is about
        ``1 / sqrt(k - 2)``.
    seed:
        Hash seed; two sketches must share a seed to be mergeable.
    """

    _merge_config = ("k", "seed")

    def __init__(self, k: int = 256, seed: int = 0) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        self._k = int(k)
        self._seed = int(seed)
        # Max-heap (negated values) of the k smallest hashes seen so far.
        self._heap: list[float] = []
        self._members: set[float] = set()
        self._items_processed = 0

    @classmethod
    def from_epsilon(cls, epsilon: float, delta: float = 0.05, seed: int = 0) -> "KMVSketch":
        """Construct a sketch sized for a ``(1 ± epsilon)`` guarantee."""
        return cls(k=kmv_size_for_epsilon(epsilon, delta), seed=seed)

    @property
    def k(self) -> int:
        """Number of minimum values retained."""
        return self._k

    @property
    def seed(self) -> int:
        """Hash seed of this sketch."""
        return self._seed

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def _insert_value(self, value: float) -> None:
        if value in self._members:
            return
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, -value)
            self._members.add(value)
            return
        current_max = -self._heap[0]
        if value < current_max:
            heapq.heapreplace(self._heap, -value)
            self._members.discard(current_max)
            self._members.add(value)

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        self._insert_value(hash_to_unit_interval(item, self._seed))

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        Duplicates collapse before hashing (re-inserting a value already
        seen is always a no-op, even after an eviction, because an evicted
        value can never fall below the shrinking heap maximum again), and the
        unique hash values replay through :meth:`_insert_value` in
        first-occurrence order so the heap layout — part of the persisted
        state — matches sequential :meth:`update` calls exactly.
        """
        block = as_item_block(items)
        if block is None:
            return super().update_block(items, counts)
        unique, multiplicities = collapse_block(block, counts)
        if unique.shape[0] == 0:
            return
        self._items_processed += int(multiplicities.sum())
        keys = stable_hash64_patterns(unique, self._seed)
        # uint64 -> float64 rounds exactly as Python's int/float division.
        values = keys.astype(np.float64) / float(1 << 64)
        for value in values.tolist():
            self._insert_value(value)

    def merge(self, other: "KMVSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        for negated in other._heap:
            self._insert_value(-negated)

    def state_dict(self) -> dict:
        """Configuration plus the retained minimum hash values."""
        return {
            "k": self._k,
            "seed": self._seed,
            "heap": list(self._heap),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the heap (and its membership index) exactly."""
        require_keys(state, ("k", "seed", "heap", "items_processed"), "KMVSketch")
        self.__init__(k=int(state["k"]), seed=int(state["seed"]))  # type: ignore[misc]
        self._heap = [float(value) for value in state["heap"]]
        self._members = {-value for value in self._heap}
        self._items_processed = int(state["items_processed"])

    def minimum_values(self) -> Iterator[float]:
        """Yield the retained minimum hash values in ascending order."""
        return iter(sorted(-value for value in self._heap))

    def estimate(self) -> float:
        """Return the estimated number of distinct items."""
        retained = len(self._heap)
        if retained == 0:
            return 0.0
        if retained < self._k:
            # Fewer than k distinct hashes seen: the sketch is exact.
            return float(retained)
        kth_minimum = -self._heap[0]
        if kth_minimum <= 0.0:
            return float(retained)
        return (self._k - 1) / kth_minimum

    def relative_standard_error(self) -> float:
        """Theoretical relative standard error of :meth:`estimate`."""
        return 1.0 / math.sqrt(max(self._k - 2, 1))

    def size_in_bits(self) -> int:
        # k stored hash values at 64 bits each plus bookkeeping words.
        return 64 * self._k + 3 * 64

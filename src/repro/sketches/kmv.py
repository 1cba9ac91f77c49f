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
F0 sketch of this reproduction — see docs/architecture.md, *Substitution:
KMV for the Kane–Nelson–Woodruff F0 sketch*).
"""

from __future__ import annotations

import bisect
import math
from typing import Hashable, Iterator

import numpy as np

from ..errors import InvalidParameterError, SnapshotError
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
        # The k smallest distinct hashes seen so far, ascending.
        self._minima = np.empty(0, dtype=np.float64)
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

    def _absorb(self, values: np.ndarray) -> None:
        """Keep the ``k`` smallest distinct values of the minima and ``values``."""
        self._minima = np.union1d(self._minima, values)[: self._k]

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        value = hash_to_unit_interval(item, self._seed)
        left = bisect.bisect_left(self._minima, value)
        # Above every one of k minima, or already retained (its left and
        # right insertion points differ): nothing changes.
        if left == self._k or left < bisect.bisect_right(self._minima, value, left):
            return
        self._absorb(np.array([value]))

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        Duplicates collapse before hashing, and the unique hash values join
        the minima in one union-then-truncate.  The retained minima are the
        ``k`` smallest distinct hashes of everything seen, whatever the
        order, so the state equals sequential :meth:`update` calls.
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
        self._absorb(keys.astype(np.float64) / float(1 << 64))

    def merge(self, other: "KMVSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._absorb(other._minima)

    def state_dict(self) -> dict:
        """Configuration plus the retained minimum hash values, ascending."""
        return {
            "k": self._k,
            "seed": self._seed,
            "minima": self._minima.copy(),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the minima, refusing any that no sketch could hold."""
        require_keys(state, ("k", "seed", "minima", "items_processed"), "KMVSketch")
        self.__init__(k=int(state["k"]), seed=int(state["seed"]))  # type: ignore[misc]
        minima = np.asarray(state["minima"], dtype=np.float64)
        if (
            minima.ndim != 1
            or minima.shape[0] > self._k
            or not bool(np.all(np.diff(minima) > 0))
        ):
            raise SnapshotError(
                f"KMVSketch: 'minima' must be a strictly increasing 1-D array "
                f"of at most k = {self._k} values"
            )
        self._minima = minima.copy()
        self._items_processed = int(state["items_processed"])

    def minimum_values(self) -> Iterator[float]:
        """Yield the retained minimum hash values in ascending order."""
        return iter(self._minima.tolist())

    def estimate(self) -> float:
        """Return the estimated number of distinct items."""
        retained = self._minima.shape[0]
        if retained == 0:
            return 0.0
        if retained < self._k:
            # Fewer than k distinct hashes seen: the sketch is exact.
            return float(retained)
        kth_minimum = float(self._minima[-1])
        if kth_minimum <= 0.0:
            return float(retained)
        return (self._k - 1) / kth_minimum

    def relative_standard_error(self) -> float:
        """Theoretical relative standard error of :meth:`estimate`."""
        return 1.0 / math.sqrt(max(self._k - 2, 1))

    def size_in_bits(self) -> int:
        # k stored hash values at 64 bits each plus bookkeeping words.
        return 64 * self._k + 3 * 64

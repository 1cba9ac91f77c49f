"""K-Minimum Values (KMV) distinct-count sketch.

The KMV sketch hashes every integer key with one seeded
``h(x) = (a·x + b) mod p`` (``p = 2^61 - 1``, ``a ≠ 0``) and keeps only the
``k`` smallest hash values seen.  If ``v_k`` is the ``k``-th smallest value
then ``(k - 1) / (v_k / p)`` estimates the number of distinct keys, with
relative standard error roughly ``1 / sqrt(k - 2)``.  ``h`` is a bijection
on ``[0, p)``, so below ``k`` distinct keys the count is exact.

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
from typing import Iterator

import numpy as np

from ..errors import InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from .base import DistinctCountSketch, validate_counts
from .hashing import (
    MERSENNE_PRIME_61,
    as_key,
    as_key_block,
    field_hash,
    hash_coefficients,
)

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
class KMVSketch(DistinctCountSketch[int]):
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
        self._coefficients = hash_coefficients(self._seed, 1)
        # The k smallest distinct hashes seen so far, ascending.
        self._minima = np.empty(0, dtype=np.uint64)
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

    def update(self, key: int, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        key = as_key(key)
        self._items_processed += count
        ((a, b),) = self._coefficients.tolist()
        value = (a * key + b) % MERSENNE_PRIME_61
        left = bisect.bisect_left(self._minima, value)
        # Above every one of k minima, or already retained (its left and
        # right insertion points differ): nothing changes.
        if left == self._k or left < bisect.bisect_right(self._minima, value, left):
            return
        self._absorb(np.array([value], dtype=np.uint64))

    def update_block(self, keys, counts=None) -> None:
        """Counted batch update, bit-identical to the per-key loop.

        The keys hash in one pass and join the minima in one
        union-then-truncate, which drops repeated hashes.  The retained
        minima are the ``k`` smallest distinct hashes of everything seen,
        whatever the order, so the state equals sequential :meth:`update`
        calls.
        """
        keys = as_key_block(keys)
        multiplicities = validate_counts(keys.shape[0], counts)
        self._items_processed += int(multiplicities.sum())
        self._absorb(field_hash(self._coefficients, keys)[0])

    def merge(self, other: "KMVSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._absorb(other._minima)

    def state_dict(self) -> dict:
        """Configuration plus the retained minimum hash values, as gaps.

        ``minima_gaps`` holds the smallest hash, then each next one's
        distance from the one before.  The gaps of a linear hash over
        nearby keys repeat, so they compress to about a quarter of the
        hashes themselves.
        """
        return {
            "k": self._k,
            "seed": self._seed,
            "minima_gaps": np.diff(self._minima, prepend=np.uint64(0)),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the minima, refusing any that no sketch could hold.

        A sketch holds at most ``k`` distinct hashes in ``[0, p)``, in
        ascending order, and at least as many updates as retained hashes.
        """
        require_keys(
            state, ("k", "seed", "minima_gaps", "items_processed"), "KMVSketch"
        )
        self.__init__(k=int(state["k"]), seed=int(state["seed"]))  # type: ignore[misc]
        gaps = np.asarray(state["minima_gaps"])
        minima = np.cumsum(gaps) if gaps.ndim == 1 else gaps
        if not (
            minima.ndim == 1
            and minima.shape[0] <= self._k
            and bool(np.all(minima[1:] > minima[:-1]))
            and (
                minima.size == 0
                or np.issubdtype(minima.dtype, np.integer)
                and 0 <= int(minima[0])
                and int(minima[-1]) < MERSENNE_PRIME_61
            )
        ):
            raise SnapshotError(
                f"KMVSketch: 'minima_gaps' must add up to a strictly increasing "
                f"1-D array of at most k = {self._k} integer hashes in "
                "[0, 2^61 - 1)"
            )
        items_processed = int(state["items_processed"])
        if items_processed < minima.shape[0]:
            raise SnapshotError(
                f"KMVSketch: items_processed = {items_processed} is below the "
                f"{minima.shape[0]} retained hashes"
            )
        self._minima = minima.astype(np.uint64)
        self._items_processed = items_processed

    def minimum_values(self) -> Iterator[int]:
        """Yield the retained minimum hash values in ascending order."""
        return iter(self._minima.tolist())

    def estimate(self) -> float:
        """Return the estimated number of distinct keys."""
        retained = self._minima.shape[0]
        if retained < self._k:
            # Fewer than k distinct hashes seen: distinct keys never share a
            # hash, so the count is exact.
            return float(retained)
        return (self._k - 1) * MERSENNE_PRIME_61 / float(self._minima[-1])

    def relative_standard_error(self) -> float:
        """Theoretical relative standard error of :meth:`estimate`."""
        return 1.0 / math.sqrt(max(self._k - 2, 1))

    def size_in_bits(self) -> int:
        # k stored hash values at 64 bits each plus bookkeeping words.
        return 64 * self._k + 3 * 64

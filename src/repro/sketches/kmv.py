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
from .base import DistinctCountSketch, SketchBank, integer_array, validate_counts
from .hashing import (
    MERSENNE_PRIME_61,
    as_key,
    as_key_block,
    field_hash,
    hash_coefficients,
    pair_hash,
)

__all__ = ["KMVSketch", "KMVBank", "kmv_size_for_epsilon"]


def _distinct_estimate(k: int, minima: np.ndarray) -> float:
    """The distinct-count estimate from ascending retained ``minima``."""
    if minima.shape[0] < k:
        # Fewer than k distinct hashes seen: distinct keys never share a
        # hash, so the count is exact.
        return float(minima.shape[0])
    return (k - 1) * MERSENNE_PRIME_61 / float(minima[k - 1])


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
        self._coefficient_table: np.ndarray | None = None
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

    @property
    def _coefficients(self) -> np.ndarray:
        """The ``(1, 2)`` table of ``(a, b)``, derived from the seed on
        first use: a sketch that a bank only stacks never needs it."""
        if self._coefficient_table is None:
            self._coefficient_table = hash_coefficients(self._seed, 1)
        return self._coefficient_table

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
        return _distinct_estimate(self._k, self._minima)

    def relative_standard_error(self) -> float:
        """Theoretical relative standard error of :meth:`estimate`."""
        return 1.0 / math.sqrt(max(self._k - 2, 1))

    def size_in_bits(self) -> int:
        # k stored hash values at 64 bits each plus bookkeeping words.
        return 64 * self._k + 3 * 64


#: A KMV bank's unoccupied slot: above every hash in ``[0, p)``.
_EMPTY = np.uint64(np.iinfo(np.uint64).max)


class KMVBank(SketchBank):
    """The KMV sketches of many seeds, sharing ``k``, as one array.

    ``minima`` is ``(members, k)``: member ``i`` keeps its ascending
    minima in ``minima[i, :occupancy[i]]`` and :data:`_EMPTY` in the other
    slots, and hashes with row ``i`` of the ``(members, 2)``
    ``coefficients``.  Member ``i`` equals ``KMVSketch(k, seeds[i])`` fed
    member ``i``'s keys.
    """

    sketch_class = KMVSketch
    _bank_config = ("k",)

    def __init__(self, seeds: np.ndarray, k: int) -> None:
        super().__init__(seeds)
        self.k = int(k)
        self.coefficients = hash_coefficients(self.seeds, 1)[:, 0]
        self.minima = np.full((self.members, self.k), _EMPTY, dtype=np.uint64)
        self.occupancy = np.zeros(self.members, dtype=np.int64)

    def update(self, members: np.ndarray, keys: np.ndarray) -> None:
        """Absorb distinct ``(member, key)`` pairs, members ascending.

        Every pair hashes in one pass.  A hash at or above its member's
        ``k``-th minimum cannot be retained, so only the others reach the
        per-member union, which keeps a one-row block cheap.
        """
        hashes = pair_hash(self.coefficients[members], keys.astype(np.uint64))
        kept = hashes < self.minima[members, -1]
        self._absorb(members[kept], hashes[kept])

    def _absorb(self, members: np.ndarray, values: np.ndarray) -> None:
        """Fold ``(member, hash)`` pairs, members ascending, into the minima."""
        if members.size == 0:
            return
        touched, firsts, counts = np.unique(
            members, return_index=True, return_counts=True
        )
        pending = np.full(
            (touched.shape[0], int(counts.max())), _EMPTY, dtype=np.uint64
        )
        pending[
            np.repeat(np.arange(touched.shape[0]), counts),
            np.arange(members.shape[0]) - np.repeat(firsts, counts),
        ] = values
        self._keep_smallest(touched, np.hstack([self.minima[touched], pending]))

    def _keep_smallest(self, rows: np.ndarray | slice, candidates: np.ndarray) -> None:
        """Set members ``rows`` to the ``k`` smallest distinct values of
        each row of ``candidates``."""
        candidates.sort(axis=1)
        tail = candidates[:, 1:]
        tail[tail == candidates[:, :-1]] = _EMPTY
        candidates.sort(axis=1)
        self.minima[rows] = candidates[:, : self.k]
        self.occupancy[rows] = np.count_nonzero(
            candidates[:, : self.k] != _EMPTY, axis=1
        )

    def merge(self, other: "KMVBank") -> None:
        """Fold ``other`` in: per member, the ``k`` smallest distinct hashes
        of both."""
        self.check_mergeable(other)
        self._keep_smallest(slice(None), np.hstack([self.minima, other.minima]))

    def estimate(self, member: int) -> float:
        """Member ``member``'s distinct-count estimate, as
        :meth:`KMVSketch.estimate` gives it."""
        return _distinct_estimate(
            self.k, self.minima[member, : self.occupancy[member]]
        )

    def state_dict(self) -> dict:
        """``k``, the seeds as gaps, the occupancies, and the occupied
        minima as per-member gaps, member after member."""
        occupied = np.arange(self.k) < self.occupancy[:, np.newaxis]
        gaps = np.diff(self.minima, axis=1, prepend=np.uint64(0))
        return {
            **self._base_state(),
            "occupancy": self.occupancy.astype(np.min_scalar_type(self.k)),
            "minima_gaps": gaps[occupied],
        }

    @classmethod
    def from_state_dict(cls, state: dict, members: int, rows: int) -> "KMVBank":
        """Restore a bank of ``members`` sketches that each saw ``rows`` keys.

        Refuses a wrong shape, an occupancy above ``k`` or ``rows``, and
        minima that are not strictly increasing or not below ``p``.
        """
        require_keys(state, ("k", "seed_gaps", "occupancy", "minima_gaps"), "KMVBank")
        k = int(state["k"])
        if k < 2:
            raise SnapshotError(f"KMVBank: k must be >= 2, got {k}")
        bank = cls(cls._restored_seeds(state, members, "KMVBank"), k)
        occupancy = integer_array(
            state["occupancy"], (members,), "KMVBank: 'occupancy'"
        )
        if members and int(occupancy.max()) > min(k, rows):
            raise SnapshotError(
                f"KMVBank: an occupancy of {int(occupancy.max())} exceeds k = {k} "
                f"or the {rows} rows observed"
            )
        occupied = np.arange(k) < occupancy[:, np.newaxis]
        gaps = integer_array(
            state["minima_gaps"],
            (int(np.count_nonzero(occupied)),),
            "KMVBank: 'minima_gaps'",
        )
        if gaps.size and int(gaps.max()) >= MERSENNE_PRIME_61:
            raise SnapshotError("KMVBank: a minima gap is not below 2^61 - 1")
        minima = np.zeros((members, k), dtype=np.uint64)
        minima[occupied] = gaps
        # Gaps below p wrap at most once per step, so a wrap shows as a
        # decrease.
        minima = np.cumsum(minima, axis=1, dtype=np.uint64)
        if bool((occupied[:, 1:] & (minima[:, 1:] <= minima[:, :-1])).any()) or (
            gaps.size and int(minima[occupied].max()) >= MERSENNE_PRIME_61
        ):
            raise SnapshotError(
                "KMVBank: every member's minima must be strictly increasing "
                "hashes in [0, 2^61 - 1)"
            )
        minima[~occupied] = _EMPTY
        bank.minima = minima
        bank.occupancy = occupancy.astype(np.int64)
        return bank

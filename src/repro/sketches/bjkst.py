"""BJKST distinct-elements sketch (Bar-Yossef, Jayram, Kumar, Sivakumar, Trevisan).

The BJKST algorithm maintains a sample of hashed items at a geometrically
decreasing sampling level: an item is retained only if its hash value has at
least ``level`` trailing zero bits, and the level is increased (halving the
retained set in expectation) whenever the buffer overflows its capacity of
``O(1 / epsilon^2)`` entries.  The estimate is ``|buffer| * 2^level``.

Compared with KMV the BJKST sketch has the same asymptotic guarantees but a
different failure profile, which makes it a useful second implementation for
the sketch-ablation benchmarks behind the α-net estimator.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import DistinctCountSketch, as_item_block, collapse_block
from .hashing import stable_hash64, stable_hash64_patterns, trailing_zeros64

__all__ = ["BJKSTSketch"]

_MAX_LEVEL = 64


def _trailing_zeros(value: int) -> int:
    """Number of trailing zero bits of ``value`` (64 for zero)."""
    if value == 0:
        return _MAX_LEVEL
    return (value & -value).bit_length() - 1


@snapshottable("sketch.bjkst")
class BJKSTSketch(DistinctCountSketch[Hashable]):
    """Distinct-count estimator based on adaptive subsampling of hash values.

    Parameters
    ----------
    capacity:
        Maximum number of retained hash values before the sampling level is
        increased.  A capacity of ``c / epsilon^2`` yields a
        ``(1 ± epsilon)`` approximation with constant probability.
    seed:
        Hash seed; two sketches must share a seed to be mergeable.
    """

    _merge_config = ("capacity", "seed")

    def __init__(self, capacity: int = 576, seed: int = 0) -> None:
        if capacity < 4:
            raise InvalidParameterError(f"capacity must be >= 4, got {capacity}")
        self._capacity = int(capacity)
        self._seed = int(seed)
        self._level = 0
        self._buffer: set[int] = set()
        self._items_processed = 0

    @classmethod
    def from_epsilon(cls, epsilon: float, seed: int = 0) -> "BJKSTSketch":
        """Construct a sketch sized for a ``(1 ± epsilon)`` guarantee."""
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        return cls(capacity=max(16, math.ceil(36.0 / (epsilon * epsilon))), seed=seed)

    @property
    def capacity(self) -> int:
        """Maximum number of retained hash values."""
        return self._capacity

    @property
    def level(self) -> int:
        """Current subsampling level (items kept with probability ``2^-level``)."""
        return self._level

    @property
    def seed(self) -> int:
        """Hash seed of this sketch."""
        return self._seed

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def _shrink(self) -> None:
        """Increase the sampling level until the buffer fits its capacity."""
        while len(self._buffer) > self._capacity and self._level < _MAX_LEVEL:
            self._level += 1
            self._buffer = {
                hashed
                for hashed in self._buffer
                if _trailing_zeros(hashed) >= self._level
            }

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        hashed = stable_hash64(item, self._seed)
        if _trailing_zeros(hashed) >= self._level:
            self._buffer.add(hashed)
            if len(self._buffer) > self._capacity:
                self._shrink()

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        The final ``(level, buffer)`` of BJKST depends only on the *set* of
        hash values presented, not their order: the level always settles at
        the smallest ``L`` for which at most ``capacity`` seen hashes keep
        ``L`` trailing zeros, and the buffer is exactly those hashes.  So the
        kernel hashes the unique patterns once, bulk-adds the ones eligible
        at the current level, and shrinks — landing in the same state as
        sequential :meth:`update` calls.
        """
        block = as_item_block(items)
        if block is None:
            return super().update_block(items, counts)
        unique, multiplicities = collapse_block(block, counts)
        if unique.shape[0] == 0:
            return
        self._items_processed += int(multiplicities.sum())
        keys = stable_hash64_patterns(unique, self._seed)
        eligible = keys[trailing_zeros64(keys) >= self._level]
        self._buffer.update(int(key) for key in eligible.tolist())
        if len(self._buffer) > self._capacity:
            self._shrink()

    def merge(self, other: "BJKSTSketch") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        self._level = max(self._level, other._level)
        merged = {
            hashed
            for hashed in self._buffer | other._buffer
            if _trailing_zeros(hashed) >= self._level
        }
        self._buffer = merged
        self._shrink()

    def state_dict(self) -> dict:
        """Configuration, sampling level and the retained hash values."""
        return {
            "capacity": self._capacity,
            "seed": self._seed,
            "level": self._level,
            "buffer": set(self._buffer),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the level and buffer exactly."""
        require_keys(
            state,
            ("capacity", "seed", "level", "buffer", "items_processed"),
            "BJKSTSketch",
        )
        self.__init__(  # type: ignore[misc]
            capacity=int(state["capacity"]), seed=int(state["seed"])
        )
        self._level = int(state["level"])
        self._buffer = {int(value) for value in state["buffer"]}
        self._items_processed = int(state["items_processed"])

    def estimate(self) -> float:
        """Return the estimated number of distinct items."""
        return float(len(self._buffer)) * (2.0 ** self._level)

    def size_in_bits(self) -> int:
        return 64 * self._capacity + 4 * 64

"""HyperLogLog distinct-count sketch.

HyperLogLog partitions the hash space into ``m = 2^precision`` registers and
records, per register, the longest run of leading zero bits observed.  The
harmonic mean of the register values yields an estimate of the number of
distinct items with relative standard error ``~1.04 / sqrt(m)``.

The implementation follows Flajolet et al. (2007) with the standard small-
and large-range corrections (linear counting below ``2.5 m`` and the 32-bit
wrap correction is unnecessary here because hashing is 64-bit).  It is used
as an alternative F0 sketch behind the α-net estimator and in the sketch
ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import DistinctCountSketch, as_item_block, collapse_block
from .hashing import bit_length64, stable_hash64, stable_hash64_patterns

__all__ = ["HyperLogLog"]


def _alpha(m: int) -> float:
    """Bias-correction constant for ``m`` registers."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


@snapshottable("sketch.hyperloglog")
class HyperLogLog(DistinctCountSketch[Hashable]):
    """Distinct-count estimator with ``2^precision`` one-byte registers.

    Parameters
    ----------
    precision:
        Number of index bits ``b``; the sketch keeps ``m = 2^b`` registers.
        Valid range is ``4 <= precision <= 18``.
    seed:
        Hash seed; two sketches must share a seed to be mergeable.
    """

    _merge_config = ("precision", "seed")

    def __init__(self, precision: int = 12, seed: int = 0) -> None:
        if not 4 <= precision <= 18:
            raise InvalidParameterError(
                f"precision must be in [4, 18], got {precision}"
            )
        self._precision = int(precision)
        self._m = 1 << self._precision
        self._seed = int(seed)
        self._registers = np.zeros(self._m, dtype=np.uint8)
        self._items_processed = 0

    @classmethod
    def from_epsilon(cls, epsilon: float, seed: int = 0) -> "HyperLogLog":
        """Construct a sketch whose standard error is at most ``epsilon``."""
        if not 0 < epsilon < 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        m_needed = (1.04 / epsilon) ** 2
        precision = max(4, min(18, math.ceil(math.log2(m_needed))))
        return cls(precision=precision, seed=seed)

    @property
    def precision(self) -> int:
        """Number of index bits."""
        return self._precision

    @property
    def register_count(self) -> int:
        """Number of registers ``m``."""
        return self._m

    @property
    def seed(self) -> int:
        """Hash seed of this sketch."""
        return self._seed

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        hashed = stable_hash64(item, self._seed)
        register_index = hashed >> (64 - self._precision)
        remainder = (hashed << self._precision) & ((1 << 64) - 1)
        # Rank = position of the leftmost 1-bit in the remaining 64 - b bits.
        if remainder == 0:
            rank = 64 - self._precision + 1
        else:
            rank = 64 - remainder.bit_length() + 1
        if rank > self._registers[register_index]:
            self._registers[register_index] = rank

    def update_block(self, items, counts=None) -> None:
        """Counted batch update, bit-identical to the per-item loop.

        The unique patterns hash in one pass, leading-zero ranks come from a
        vectorized bit-length, and the registers absorb the batch through a
        single ``np.maximum.at`` scatter — an idempotent, commutative max, so
        the final registers match sequential :meth:`update` calls exactly
        (multiplicities only feed the stream accounting).
        """
        block = as_item_block(items)
        if block is None:
            return super().update_block(items, counts)
        unique, multiplicities = collapse_block(block, counts)
        if unique.shape[0] == 0:
            return
        self._items_processed += int(multiplicities.sum())
        keys = stable_hash64_patterns(unique, self._seed)
        register_indices = (keys >> np.uint64(64 - self._precision)).astype(np.intp)
        remainders = keys << np.uint64(self._precision)
        ranks = np.where(
            remainders == np.uint64(0),
            np.int64(64 - self._precision + 1),
            64 - bit_length64(remainders) + 1,
        ).astype(np.uint8)
        np.maximum.at(self._registers, register_indices, ranks)

    def merge(self, other: "HyperLogLog") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        np.maximum(self._registers, other._registers, out=self._registers)

    def state_dict(self) -> dict:
        """Configuration plus the register array."""
        return {
            "precision": self._precision,
            "seed": self._seed,
            "registers": self._registers.copy(),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the registers exactly."""
        require_keys(
            state,
            ("precision", "seed", "registers", "items_processed"),
            "HyperLogLog",
        )
        self.__init__(  # type: ignore[misc]
            precision=int(state["precision"]), seed=int(state["seed"])
        )
        self._registers = np.asarray(state["registers"], dtype=np.uint8).copy()
        self._items_processed = int(state["items_processed"])

    def estimate(self) -> float:
        """Return the estimated number of distinct items."""
        registers = self._registers.astype(np.float64)
        raw = _alpha(self._m) * self._m * self._m / np.sum(np.power(2.0, -registers))
        zero_registers = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * self._m and zero_registers > 0:
            # Small-range correction: fall back to linear counting.
            return self._m * math.log(self._m / zero_registers)
        return float(raw)

    def relative_standard_error(self) -> float:
        """Theoretical relative standard error of :meth:`estimate`."""
        return 1.04 / math.sqrt(self._m)

    def size_in_bits(self) -> int:
        # One byte per register plus bookkeeping words.
        return 8 * self._m + 3 * 64

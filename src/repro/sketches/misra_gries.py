"""Misra–Gries deterministic heavy-hitters summary.

The Misra–Gries algorithm keeps at most ``k`` (item, counter) pairs.  Every
item with true frequency above ``F_1 / (k + 1)`` is guaranteed to survive in
the summary, and each retained counter under-estimates the true frequency by
at most ``F_1 / (k + 1)``.  Because it is deterministic and tracks its own
candidate set it provides a convenient exact-recall baseline for the
``ℓ_1`` heavy-hitters experiments (the projected problem the uniform-sample
estimator of Theorem 5.1 solves for ``p <= 1``).
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import PointQuerySketch, as_query_block

__all__ = ["MisraGries"]


@snapshottable("sketch.misra_gries")
class MisraGries(PointQuerySketch[Hashable]):  # repro: noqa[PRO004]
    """Deterministic frequent-items summary with ``k`` counters.

    Parameters
    ----------
    k:
        Number of counters; guarantees additive error at most
        ``F_1 / (k + 1)`` on every frequency estimate.

    Notes
    -----
    Misra–Gries is *order-dependent*: which items survive the decrement
    phases depends on arrival order, so there is no counted scatter kernel
    that reproduces the sequential state.  ``update_block`` therefore keeps
    the inherited per-item fallback — it replays the batch through
    :meth:`update` in the given order.  Feeding a deduplicated
    ``(pattern, count)`` batch (as the α-net block path does) is *answer-
    equivalent* rather than bit-identical: every estimate still respects the
    ``F_1 / (k + 1)`` error bound and every true heavy hitter above the
    threshold is still reported.
    """

    _merge_config = ("k",)

    def __init__(self, k: int = 100) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self._k = int(k)
        self._counters: dict[Hashable, int] = {}
        self._items_processed = 0

    @property
    def k(self) -> int:
        """Number of counters."""
        return self._k

    @property
    def items_processed(self) -> int:
        return self._items_processed

    @property
    def tracked_items(self) -> dict[Hashable, int]:
        """A copy of the current (item, counter) map."""
        return dict(self._counters)

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        if item in self._counters:
            self._counters[item] += count
            return
        if len(self._counters) < self._k:
            self._counters[item] = count
            return
        # Decrement phase: reduce every counter by the smallest amount that
        # frees a slot (batched so that bulk updates stay efficient).
        decrement = min(count, min(self._counters.values()))
        remaining = count - decrement
        for tracked in list(self._counters):
            self._counters[tracked] -= decrement
            if self._counters[tracked] <= 0:
                del self._counters[tracked]
        if remaining > 0 and len(self._counters) < self._k:
            self._counters[item] = remaining

    def merge(self, other: "MisraGries") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        combined = dict(self._counters)
        for item, count in other._counters.items():
            combined[item] = combined.get(item, 0) + count
        if len(combined) > self._k:
            # Keep the k largest counters, subtracting the (k+1)-st value,
            # which preserves the Misra-Gries error guarantee under merges.
            ordered = sorted(combined.items(), key=lambda pair: pair[1], reverse=True)
            cutoff = ordered[self._k][1]
            combined = {
                item: count - cutoff
                for item, count in ordered[: self._k]
                if count - cutoff > 0
            }
        self._counters = combined

    def state_dict(self) -> dict:
        """Counter budget plus the tracked (item, counter) map."""
        return {
            "k": self._k,
            "counters": dict(self._counters),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the tracked counters exactly."""
        require_keys(state, ("k", "counters", "items_processed"), "MisraGries")
        self.__init__(k=int(state["k"]))  # type: ignore[misc]
        self._counters = {
            item: int(count) for item, count in state["counters"].items()
        }
        self._items_processed = int(state["items_processed"])

    def estimate(self, item: Hashable) -> float:
        """Return the (under-)estimate of the frequency of ``item``."""
        return float(self._counters.get(item, 0))

    def estimate_block(self, items) -> np.ndarray:
        """Batch point queries, bit-identical to per-item :meth:`estimate`.

        The summary is a plain counter dictionary, so the batch path is the
        same exact lookups; :func:`~repro.sketches.base.as_query_block` only
        normalises ndarray batches to the tuple keys the counters use.
        """
        sequence, _ = as_query_block(items)
        return np.array(
            [float(self._counters.get(item, 0)) for item in sequence],
            dtype=np.float64,
        )

    def error_bound(self) -> float:
        """Maximum possible under-estimation of any frequency."""
        return self._items_processed / (self._k + 1)

    def heavy_hitters(
        self, candidates: Iterable[Hashable] | None = None, threshold: float = 0.0
    ) -> dict[Hashable, float]:
        """Return tracked items whose counter reaches ``threshold``.

        Unlike hash-based sketches the candidate set is optional because the
        summary already tracks candidates; passing one restricts the report.
        """
        allowed = None if candidates is None else set(candidates)
        return {
            item: float(count)
            for item, count in self._counters.items()
            if count >= threshold and (allowed is None or item in allowed)
        }

    def size_in_bits(self) -> int:
        # Each slot stores an item id (64-bit hash surrogate) and a counter.
        return 2 * 64 * self._k + 2 * 64

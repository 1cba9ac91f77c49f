"""SpaceSaving heavy-hitters summary.

SpaceSaving (Metwally, Agrawal, El Abbadi) keeps ``k`` (item, counter, error)
triples.  When a new item arrives and the summary is full, the item with the
minimum counter is evicted and the newcomer inherits its counter — so
counters *over*-estimate true frequencies by at most the inherited error.
Every item with frequency above ``F_1 / k`` is guaranteed to be tracked.

SpaceSaving complements :class:`repro.sketches.misra_gries.MisraGries` (which
under-estimates) in the heavy-hitter ablation benchmarks.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple

import numpy as np

from ..errors import InvalidParameterError
from ..persistence import require_keys, snapshottable
from .base import PointQuerySketch, as_query_block

__all__ = ["SpaceSaving", "TrackedCount"]


class TrackedCount(NamedTuple):
    """A tracked item with its counter and maximum possible over-count."""

    item: Hashable
    count: int
    error: int

    @property
    def guaranteed_count(self) -> int:
        """A lower bound on the item's true frequency."""
        return self.count - self.error


@snapshottable("sketch.space_saving")
class SpaceSaving(PointQuerySketch[Hashable]):  # repro: noqa[PRO004]
    """Frequent-items summary with ``k`` counters and over-estimate semantics.

    Parameters
    ----------
    k:
        Number of counters; guarantees additive error at most ``F_1 / k`` on
        every tracked item and recall of every item above that threshold.

    Notes
    -----
    SpaceSaving is *order-dependent*: which item inherits the minimum
    counter depends on arrival order, so there is no counted scatter kernel
    that reproduces the sequential state.  ``update_block`` therefore keeps
    the inherited per-item fallback — it replays the batch through
    :meth:`update` in the given order.  Feeding a deduplicated
    ``(pattern, count)`` batch (as the α-net block path does) is *answer-
    equivalent* rather than bit-identical: tracked counters still
    over-estimate by at most ``F_1 / k`` and every item above that threshold
    is still tracked.
    """

    _merge_config = ("k",)

    def __init__(self, k: int = 100) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self._k = int(k)
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
        self._items_processed = 0

    @property
    def k(self) -> int:
        """Number of counters."""
        return self._k

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def tracked(self) -> list[TrackedCount]:
        """Return the tracked items sorted by decreasing counter."""
        return sorted(
            (
                TrackedCount(item, self._counts[item], self._errors[item])
                for item in self._counts
            ),
            key=lambda entry: entry.count,
            reverse=True,
        )

    def update(self, item: Hashable, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self._items_processed += count
        if item in self._counts:
            self._counts[item] += count
            return
        if len(self._counts) < self._k:
            self._counts[item] = count
            self._errors[item] = 0
            return
        victim = min(self._counts, key=self._counts.get)
        victim_count = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[item] = victim_count + count
        self._errors[item] = victim_count

    def merge(self, other: "SpaceSaving") -> None:
        self.check_mergeable(other)
        self._items_processed += other._items_processed
        combined_counts = dict(self._counts)
        combined_errors = dict(self._errors)
        for item, count in other._counts.items():
            combined_counts[item] = combined_counts.get(item, 0) + count
            combined_errors[item] = combined_errors.get(item, 0) + other._errors[item]
        if len(combined_counts) > self._k:
            ordered = sorted(
                combined_counts.items(), key=lambda pair: pair[1], reverse=True
            )
            kept = ordered[: self._k]
            combined_counts = dict(kept)
            combined_errors = {item: combined_errors[item] for item, _ in kept}
        self._counts = combined_counts
        self._errors = combined_errors

    def state_dict(self) -> dict:
        """Counter budget plus the tracked counts and over-count errors."""
        return {
            "k": self._k,
            "counts": dict(self._counts),
            "errors": dict(self._errors),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the tracked (count, error) triples exactly."""
        require_keys(
            state, ("k", "counts", "errors", "items_processed"), "SpaceSaving"
        )
        self.__init__(k=int(state["k"]))  # type: ignore[misc]
        self._counts = {item: int(count) for item, count in state["counts"].items()}
        self._errors = {item: int(count) for item, count in state["errors"].items()}
        self._items_processed = int(state["items_processed"])

    def estimate(self, item: Hashable) -> float:
        """Return the (over-)estimate of the frequency of ``item``."""
        return float(self._counts.get(item, 0))

    def estimate_block(self, items) -> np.ndarray:
        """Batch point queries, bit-identical to per-item :meth:`estimate`.

        The summary is a plain counter dictionary, so the batch path is the
        same exact lookups; :func:`~repro.sketches.base.as_query_block` only
        normalises ndarray batches to the tuple keys the counters use.
        """
        sequence, _ = as_query_block(items)
        return np.array(
            [float(self._counts.get(item, 0)) for item in sequence],
            dtype=np.float64,
        )

    def guaranteed_frequency(self, item: Hashable) -> float:
        """Return a lower bound on the frequency of ``item``."""
        if item not in self._counts:
            return 0.0
        return float(self._counts[item] - self._errors[item])

    def error_bound(self) -> float:
        """Maximum possible over-estimation of any tracked frequency."""
        return self._items_processed / self._k

    def heavy_hitters(
        self, candidates: Iterable[Hashable] | None = None, threshold: float = 0.0
    ) -> dict[Hashable, float]:
        """Return tracked items whose counter reaches ``threshold``."""
        allowed = None if candidates is None else set(candidates)
        return {
            item: float(count)
            for item, count in self._counts.items()
            if count >= threshold and (allowed is None or item in allowed)
        }

    def size_in_bits(self) -> int:
        # Each slot stores an item id, a counter and an error term.
        return 3 * 64 * self._k + 2 * 64

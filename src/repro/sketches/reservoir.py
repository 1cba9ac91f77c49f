"""Reservoir sampling of rows, without and with replacement.

Uniform row sampling is the workhorse of the paper's positive results:
Theorem 5.1 / Corollary 5.2 show that a uniform sample of
``O(epsilon^-2 log(1/delta))`` rows, taken *before* the column query is
known, suffices for projected ``ℓ_p`` frequency estimation and heavy hitters
when ``0 < p <= 1``.  Two samplers are provided:

* :class:`ReservoirSampler` — classical Algorithm R giving a uniform sample
  *without* replacement of fixed size ``t``.
* :class:`WithReplacementSampler` — ``t`` independent uniform draws (what the
  paper's uSample analysis literally assumes), implemented with one
  reservoir per slot.

Both samplers are deterministic functions of their seed.

Every sampler also provides an :meth:`update_block` kernel that absorbs a
whole block of items in a handful of vectorized RNG draws.  The kernels are
written so that, for the same seed, feeding a stream item by item through
``update`` and block by block through ``update_block`` leaves the sampler in
*bit-identical* state (NumPy's ``Generator`` draws array outputs from the
same bit-stream positions as the equivalent sequence of scalar draws), which
is what lets the engine's batch ingest path be a pure fast path rather than
a semantically different one.
"""

from __future__ import annotations

from typing import Generic, Iterator, Sequence, TypeVar

import numpy as np

from ..errors import InvalidParameterError, SnapshotError
from ..persistence import (
    require_keys,
    rng_from_state,
    rng_state_dict,
    snapshottable,
)
from .base import MergeableSketch, validate_counts

__all__ = ["ReservoirSampler", "WithReplacementSampler"]

RowT = TypeVar("RowT")


def _materialise_item(items: "Sequence[RowT] | np.ndarray", index: int):
    """Item at ``index``, converted to a hashable word when ``items`` is an array.

    Block kernels receive either a plain sequence of items or an ``(m, d)``
    ndarray of rows; retained ndarray rows are stored as tuples of Python
    ints so that block-fed and row-fed samplers hold identical samples.
    """
    item = items[index]
    if isinstance(item, np.ndarray):
        return tuple(item.tolist())
    return item


def _repeat_counted(items: "Sequence[RowT] | np.ndarray", counts: object):
    """``items`` with item ``i`` repeated ``counts[i]`` times.

    A sampler's state depends on every single arrival, so a counted batch
    is fed as the stream it stands for: the same state ``update(item,
    count)`` per item leaves.  ``None`` means one occurrence per item.
    """
    if counts is None:
        return items
    repeats = validate_counts(len(items), counts)
    if isinstance(items, np.ndarray):
        return np.repeat(items, repeats, axis=0)
    return [
        item for item, count in zip(items, repeats.tolist()) for _ in range(count)
    ]


@snapshottable("sketch.reservoir")
class ReservoirSampler(MergeableSketch[RowT], Generic[RowT]):
    """Uniform sample without replacement of fixed capacity.

    Parameters
    ----------
    capacity:
        Number of rows retained (``t`` in the paper's notation).
    seed:
        Seed of the random number generator used for replacement decisions.
    """

    _merge_config = ("capacity",)

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._reservoir: list[RowT] = []
        self._items_processed = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained rows."""
        return self._capacity

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def update(self, item: RowT, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        for _ in range(count):
            self._items_processed += 1
            if len(self._reservoir) < self._capacity:
                self._reservoir.append(item)
                continue
            position = int(self._rng.integers(0, self._items_processed))
            if position < self._capacity:
                self._reservoir[position] = item

    def update_block(
        self, items: "Sequence[RowT] | np.ndarray", counts=None
    ) -> None:
        """Absorb a whole block of items with one vectorized position draw.

        While the reservoir is filling, items are appended without consuming
        randomness (as in :meth:`update`); for the rest of the block all the
        replacement positions are drawn in a single ``integers`` call and
        only the accepted items — an ``O(t log(n'/n))`` handful, the
        Vitter-style skip set — touch Python-level state.  Bit-identical to
        feeding the block through :meth:`update` item by item, with
        ``counts`` (optional) repeating each item that many times.
        """
        items = _repeat_counted(items, counts)
        total = len(items)
        if total == 0:
            return
        fill = min(max(self._capacity - len(self._reservoir), 0), total)
        for index in range(fill):
            self._reservoir.append(_materialise_item(items, index))
        if fill < total:
            # Item at local index fill + j is the (items_processed + fill +
            # j + 1)-th stream item; update() draws integers(0, count) for it.
            highs = np.arange(
                self._items_processed + fill + 1,
                self._items_processed + total + 1,
                dtype=np.int64,
            )
            positions = self._rng.integers(0, highs)
            for j in np.nonzero(positions < self._capacity)[0]:
                self._reservoir[int(positions[j])] = _materialise_item(
                    items, fill + int(j)
                )
        self._items_processed += total

    def merge(self, other: "ReservoirSampler[RowT]") -> None:
        """Fold ``other`` into ``self`` so the reservoir samples both streams.

        A uniform ``t``-subset of the union stream decomposes exactly as:
        draw the number of survivors from the first stream as
        ``k ~ Hypergeometric(n_1, n_2, t)``, then take ``k`` items uniformly
        without replacement from the first reservoir and ``t - k`` from the
        second.  Because each reservoir is itself a uniform sample of its
        stream, the composition gives every element of the union inclusion
        probability exactly ``t / (n_1 + n_2)`` — unlike the earlier
        weight-rescaling loop, which over-represented the shorter stream.
        """
        self.check_mergeable(other)
        ours, theirs = list(self._reservoir), list(other._reservoir)
        n_ours, n_theirs = self._items_processed, other._items_processed
        self._items_processed += other._items_processed
        if len(ours) + len(theirs) <= self._capacity:
            self._reservoir = ours + theirs
            return
        take_ours = int(self._rng.hypergeometric(n_ours, n_theirs, self._capacity))
        take_ours = min(take_ours, len(ours))
        take_theirs = min(self._capacity - take_ours, len(theirs))
        pick_ours = self._rng.choice(len(ours), size=take_ours, replace=False)
        pick_theirs = self._rng.choice(len(theirs), size=take_theirs, replace=False)
        self._reservoir = [ours[int(i)] for i in pick_ours] + [
            theirs[int(j)] for j in pick_theirs
        ]

    def state_dict(self) -> dict:
        """Capacity, RNG state, retained rows and stream length."""
        return {
            "capacity": self._capacity,
            "rng": rng_state_dict(self._rng),
            "reservoir": list(self._reservoir),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore sample and RNG so further updates are bit-identical.

        A sampler retains at most ``capacity`` rows and at most one per
        item processed; any other state is refused.
        """
        require_keys(
            state,
            ("capacity", "rng", "reservoir", "items_processed"),
            "ReservoirSampler",
        )
        self.__init__(capacity=int(state["capacity"]))  # type: ignore[misc]
        reservoir = list(state["reservoir"])
        items_processed = int(state["items_processed"])
        if not len(reservoir) <= min(self._capacity, items_processed):
            raise SnapshotError(
                f"ReservoirSampler: {len(reservoir)} retained rows exceed the "
                f"capacity {self._capacity} or the {items_processed} items "
                "processed"
            )
        self._rng = rng_from_state(state["rng"])
        self._reservoir = reservoir
        self._items_processed = items_processed

    def sample(self) -> list[RowT]:
        """Return a copy of the current sample."""
        return list(self._reservoir)

    def __len__(self) -> int:
        return len(self._reservoir)

    def __iter__(self) -> Iterator[RowT]:
        return iter(self._reservoir)

    def size_in_bits(self) -> int:
        # Row payload widths vary; account 64 bits per retained reference
        # plus the generator state.  Callers that need exact payload space
        # multiply by the row width themselves.
        return 64 * self._capacity + 5 * 64


@snapshottable("sketch.with_replacement")
class WithReplacementSampler(MergeableSketch[RowT], Generic[RowT]):
    """``t`` independent uniform draws from the stream (with replacement).

    Implemented as ``t`` independent single-slot reservoirs, which yields
    exactly the distribution of ``t`` i.i.d. uniform indices over the stream
    regardless of its length.
    """

    _merge_config = ("draws",)

    def __init__(self, draws: int, seed: int = 0) -> None:
        if draws < 1:
            raise InvalidParameterError(f"draws must be >= 1, got {draws}")
        self._draws = int(draws)
        self._rng = np.random.default_rng(seed)
        self._slots: list[RowT | None] = [None] * self._draws
        self._items_processed = 0

    @property
    def draws(self) -> int:
        """Number of independent draws."""
        return self._draws

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def update(self, item: RowT, count: int = 1) -> None:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        for _ in range(count):
            self._items_processed += 1
            # Each slot independently keeps the current item with
            # probability 1/n, preserving uniformity over the prefix.
            accept = self._rng.random(self._draws) < (1.0 / self._items_processed)
            for slot_index in np.nonzero(accept)[0]:
                self._slots[int(slot_index)] = item

    #: Cap on the acceptance-matrix size one kernel invocation materialises;
    #: larger blocks are processed in stream-order chunks (the RNG stream is
    #: unaffected because array draws fill sequentially).
    _BLOCK_ELEMENT_BUDGET = 1 << 22

    def update_block(
        self, items: "Sequence[RowT] | np.ndarray", counts=None
    ) -> None:
        """Absorb a block via one acceptance-matrix pass per slot assignment.

        Draws the same ``m × t`` uniforms :meth:`update` would, but in one
        ``random`` call, then resolves every slot to the last item that
        accepted it — a single reverse ``argmax`` instead of ``m`` Python
        iterations.  Bit-identical to the per-item path for the same seed,
        with ``counts`` (optional) repeating each item that many times.
        """
        items = _repeat_counted(items, counts)
        total = len(items)
        if total == 0:
            return
        chunk = max(1, self._BLOCK_ELEMENT_BUDGET // self._draws)
        offset = 0
        while offset < total:
            size = min(chunk, total - offset)
            counts = np.arange(
                self._items_processed + 1,
                self._items_processed + size + 1,
                dtype=np.float64,
            )
            accept = self._rng.random((size, self._draws)) < (1.0 / counts)[:, None]
            hit = accept.any(axis=0)
            last = size - 1 - np.argmax(accept[::-1, :], axis=0)
            for slot_index in np.nonzero(hit)[0]:
                self._slots[int(slot_index)] = _materialise_item(
                    items, offset + int(last[slot_index])
                )
            self._items_processed += size
            offset += size

    def merge(self, other: "WithReplacementSampler[RowT]") -> None:
        """Fold ``other`` into ``self``, slot by slot.

        Each slot independently keeps its own draw with probability
        ``n_1 / (n_1 + n_2)`` and adopts ``other``'s draw otherwise, which is
        exactly the distribution of one uniform draw from the concatenated
        stream (slots are independent single-slot reservoirs).
        """
        self.check_mergeable(other)
        total = self._items_processed + other._items_processed
        if other._items_processed == 0:
            return
        if self._items_processed == 0:
            self._slots = list(other._slots)
            self._items_processed = total
            return
        adopt = self._rng.random(self._draws) < (other._items_processed / total)
        for slot_index in np.nonzero(adopt)[0]:
            self._slots[int(slot_index)] = other._slots[int(slot_index)]
        self._items_processed = total

    def state_dict(self) -> dict:
        """Draw count, RNG state, slot contents and stream length."""
        return {
            "draws": self._draws,
            "rng": rng_state_dict(self._rng),
            "slots": list(self._slots),
            "items_processed": self._items_processed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore slots and RNG so further updates are bit-identical.

        A sampler holds one slot per draw, none filled before the first
        item, and a non-negative item count; any other state is refused.
        """
        require_keys(
            state,
            ("draws", "rng", "slots", "items_processed"),
            "WithReplacementSampler",
        )
        self.__init__(draws=int(state["draws"]))  # type: ignore[misc]
        slots = list(state["slots"])
        items_processed = int(state["items_processed"])
        if len(slots) != self._draws:
            raise SnapshotError(
                f"WithReplacementSampler: {len(slots)} slots for "
                f"{self._draws} draws"
            )
        if items_processed < 0 or (
            items_processed == 0 and any(slot is not None for slot in slots)
        ):
            raise SnapshotError(
                f"WithReplacementSampler: filled slots or a negative count "
                f"with items_processed = {items_processed}"
            )
        self._rng = rng_from_state(state["rng"])
        self._slots = slots
        self._items_processed = items_processed

    def sample(self) -> list[RowT]:
        """Return the ``t`` draws (empty list if no data has been observed)."""
        if self._items_processed == 0:
            return []
        return [slot for slot in self._slots if slot is not None]

    def __len__(self) -> int:
        return 0 if self._items_processed == 0 else self._draws

    def __iter__(self) -> Iterator[RowT]:
        return iter(self.sample())

    def size_in_bits(self) -> int:
        return 64 * self._draws + 5 * 64

"""Common interfaces for streaming sketches.

The α-net meta-algorithm of Section 6 (Algorithm 1 in the paper) is agnostic
to the concrete sketch it stores for each column subset in the net: it only
needs a *β-approximate sketch* that can be updated with the member's
projected patterns and queried once the column query arrives.  The hashed
sketches name each pattern by one integer key (Remark 1's index ``e(w)``,
see :mod:`repro.sketches.hashing`).  These abstract base classes pin down
that contract so sketches, estimators, and benchmarks can be mixed freely.

Three sketch flavours are distinguished:

* :class:`DistinctCountSketch` — estimates ``F_0``, the number of distinct
  items observed.
* :class:`FrequencyMomentSketch` — estimates ``F_p = sum_i f_i^p`` for some
  fixed ``p``.
* :class:`PointQuerySketch` — estimates individual item frequencies ``f_i``.

Each sketch also reports an estimate of its own memory footprint in bits via
:meth:`Sketch.size_in_bits`, which the benchmarks use for space accounting.
"""

from __future__ import annotations

import abc
import math
from typing import Generic, Iterable, TypeVar

import numpy as np

from .. import persistence
from ..errors import InvalidParameterError, SnapshotError

__all__ = [
    "Sketch",
    "MergeableSketch",
    "DistinctCountSketch",
    "FrequencyMomentSketch",
    "PointQuerySketch",
    "validate_counts",
    "collapse_block",
    "merge_all",
    "SketchBank",
    "integer_array",
]

ItemT = TypeVar("ItemT")


def validate_counts(n_items: int, counts: object) -> np.ndarray:
    """Validate per-item multiplicities for ``update_block``.

    ``None`` means one occurrence per item.  Anything else must be a 1-D
    array-like of positive integers with one entry per item, mirroring the
    ``count >= 1`` contract of the scalar :meth:`Sketch.update`.
    """
    if counts is None:
        return np.ones(n_items, dtype=np.int64)
    array = np.asarray(counts)
    if array.ndim != 1:
        raise InvalidParameterError(
            f"counts must be 1-D, got {array.ndim} dimension(s)"
        )
    if array.shape[0] != n_items:
        raise InvalidParameterError(
            f"counts has {array.shape[0]} entries for {n_items} items"
        )
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise InvalidParameterError(
            f"counts must be integers, got dtype {array.dtype}"
        )
    array = array.astype(np.int64, copy=False)
    if array.size and int(array.min()) < 1:
        raise InvalidParameterError(
            f"counts must all be >= 1, got minimum {int(array.min())}"
        )
    return array


#: Largest radix product :func:`collapse_block` packs into one ``int64`` code.
_MAX_PACKED_PATTERNS = 1 << 62


def _pattern_codes(block: np.ndarray) -> np.ndarray | None:
    """One ``int64`` code per row of a non-empty ``(m, w)`` block.

    Column ``j`` is offset by its minimum and weighted by the big-endian
    place value ``prod(radix[j+1:])``, with ``radix = max - min + 1`` taken
    from the block itself.  The codes are injective on the block and
    ascend in the rows' lexicographic order, so they sort and deduplicate
    exactly as the rows do.  For binary rows whose columns each take both
    symbols the code is Remark 1's index ``e(w)``.  Returns ``None`` when
    the radix product, computed in exact Python ints, exceeds ``2^62``, or
    when the block's dtype does not fit ``int64``.
    """
    if not np.can_cast(block.dtype, np.int64):
        return None
    # One contiguous row per column: the reductions and the product below
    # run along memory instead of striding across it.
    columns = np.ascontiguousarray(block.T, dtype=np.int64)
    lows = columns.min(axis=1)
    radices = [
        high - low + 1 for low, high in zip(lows.tolist(), columns.max(axis=1).tolist())
    ]
    if math.prod(radices) > _MAX_PACKED_PATTERNS:
        return None
    places = [1] * len(radices)
    for column in range(len(radices) - 2, -1, -1):
        places[column] = places[column + 1] * radices[column + 1]
    return np.array(places, dtype=np.int64) @ (columns - lows[:, np.newaxis])


def collapse_block(
    block: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate the rows of ``block``, summing their multiplicities.

    Returns ``(unique_rows, summed_counts)`` with the unique rows in
    ``np.unique``'s lexicographic order, so the result is a function of the
    block's multiset of rows, whatever order they arrived in.

    Each row is packed into one ``int64`` pattern code (see
    :func:`_pattern_codes`) and the codes are deduplicated.  A block whose
    radix product exceeds ``2^62``, or whose dtype does not fit ``int64``,
    falls back to ``np.unique(block, axis=0)``.  Both paths give the same
    rows, order and sums.
    """
    counts = validate_counts(block.shape[0], counts)
    if block.shape[0] == 0:
        return block, counts
    codes = _pattern_codes(block)
    if codes is None:
        unique, inverse = np.unique(block, axis=0, return_inverse=True)
    else:
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        unique = block[first]
    summed = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(summed, inverse, counts)
    return unique, summed


class Sketch(abc.ABC, Generic[ItemT]):
    """A one-pass streaming summary of a multiset of items."""

    @abc.abstractmethod
    def update(self, item: ItemT, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item``.

        ``count`` must be a positive integer; the sketches in this package
        model insertion-only streams, matching the paper's model where the
        input array ``A`` only ever gains rows.
        """

    @abc.abstractmethod
    def update_block(self, items, counts=None) -> None:
        """Record a batch of items with optional per-item multiplicities.

        ``counts`` (optional) gives one positive multiplicity per item.  The
        contract: ``update_block(items, counts)`` leaves the sketch in the
        same state as ``for item, count in zip(items, counts):
        update(item, count)``.  The hashed sketches take a 1-D integer key
        array (see :func:`~repro.sketches.hashing.as_key_block`); the
        samplers take a sequence of items or an ``(m, d)`` block of rows.
        """

    # -- persistence ------------------------------------------------------------

    def state_dict(self) -> dict:
        """The complete persistent state of this sketch as plain containers.

        The contract behind :mod:`repro.persistence`: configuration,
        counters, retained items *and RNG state* — everything needed for a
        restored sketch to answer every query identically and to continue
        absorbing the stream bit-identically to the original.  Transient
        serving state (caches, timings) is never part of it.
        """
        raise SnapshotError(
            f"{type(self).__name__} does not implement state_dict()"
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore this sketch in place from a :meth:`state_dict` value.

        Implementations schema-check ``state`` (via
        :func:`repro.persistence.require_keys`) and rebuild any derived
        structures (hash functions) deterministically from the stored
        configuration.
        """
        raise SnapshotError(
            f"{type(self).__name__} does not implement load_state_dict()"
        )

    @classmethod
    def from_state_dict(cls, state: dict) -> "Sketch[ItemT]":
        """Construct a fresh instance directly from a :meth:`state_dict` value."""
        sketch = cls.__new__(cls)
        sketch.load_state_dict(state)
        return sketch

    def to_bytes(self) -> bytes:
        """Frame this sketch as a :data:`~repro.persistence.SNAPSHOT_FORMAT` payload."""
        return persistence.to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch[ItemT]":
        """Restore a sketch from :meth:`to_bytes` output (type-checked)."""
        sketch = persistence.from_bytes(data)
        if not isinstance(sketch, cls):
            raise SnapshotError(
                f"payload holds a {type(sketch).__name__}, not a {cls.__name__}"
            )
        return sketch

    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Upper bound on the memory footprint of this summary, in bits.

        The accounting is structural (number of counters times their width)
        rather than a measurement of the Python object graph, so it reflects
        the space complexity a C implementation would achieve and is directly
        comparable to the paper's space bounds.
        """

    @property
    @abc.abstractmethod
    def items_processed(self) -> int:
        """Total number of stream updates absorbed so far (with multiplicity)."""


class MergeableSketch(Sketch[ItemT]):
    """A sketch whose summaries for two streams can be combined.

    Mergeability is what lets the α-net estimator build its per-member
    sketches in a single pass over distributed data.  The
    merge must be an *idempotent-free* union: the result must summarise the
    concatenation of the two input streams.

    A merge is all or nothing.  :meth:`check_mergeable` is the one place a
    merge refuses, and every :meth:`merge` calls it before changing
    anything, so a refused merge leaves ``self`` unchanged.
    """

    #: Names of the properties two sketches must agree on to merge, stated
    #: once per class (``("width", "depth", "seed")`` for Count-Min).
    _merge_config: tuple[str, ...]

    def check_mergeable(self, other: object) -> None:
        """Raise unless :meth:`merge` can fold ``other`` into ``self``.

        Changes nothing.  ``other`` must be an instance of the same class
        with the same merge configuration.

        Raises
        ------
        InvalidParameterError
            If ``other`` is of another class or differs in configuration.
        """
        name = type(self).__name__
        if type(other) is not type(self):
            raise InvalidParameterError(
                f"cannot merge a {type(other).__name__} into a {name}"
            )
        for field in self._merge_config:
            ours, theirs = getattr(self, field), getattr(other, field)
            if ours != theirs:
                raise InvalidParameterError(
                    f"{name} summaries must share {', '.join(self._merge_config)} "
                    f"to be merged ({field}: {ours} != {theirs})"
                )

    @abc.abstractmethod
    def merge(self, other: "MergeableSketch[ItemT]") -> None:
        """Fold ``other`` into ``self`` in place.

        Implementations call :meth:`check_mergeable` first and refuse
        nothing after it.

        Raises
        ------
        InvalidParameterError
            If the two sketches are structurally incompatible (another
            class, or different widths, seeds or parameters).
        """


def merge_all(pairs: Iterable[tuple[MergeableSketch, MergeableSketch]]) -> None:
    """Fold every ``(target, source)`` pair in place, or none of them.

    Every pair passes :meth:`MergeableSketch.check_mergeable` before the
    first merge, so a refusal anywhere leaves every target unchanged.  The
    estimators that hold one sketch per column subset merge through this
    without copying their sketches first.
    """
    pairs = list(pairs)
    for target, source in pairs:
        target.check_mergeable(source)
    for target, source in pairs:
        target.merge(source)


class DistinctCountSketch(MergeableSketch[ItemT]):
    """Sketch estimating the number of distinct items (``F_0``)."""

    @abc.abstractmethod
    def estimate(self) -> float:
        """Return the estimated number of distinct items observed."""


class FrequencyMomentSketch(MergeableSketch[ItemT]):
    """Sketch estimating a frequency moment ``F_p``."""

    #: The moment order this sketch estimates.
    p: float

    @abc.abstractmethod
    def estimate(self) -> float:
        """Return the estimated value of ``F_p``."""


class PointQuerySketch(MergeableSketch[ItemT]):
    """Sketch supporting per-item frequency estimates."""

    def estimate(self, key: int) -> float:
        """Estimate the frequency of ``key``: a one-key :meth:`estimate_block` call."""
        return float(self.estimate_block(np.array([key]))[0])

    @abc.abstractmethod
    def estimate_block(self, keys) -> np.ndarray:
        """Batch point queries: entry ``i`` estimates the frequency of ``keys[i]``.

        ``keys`` is a 1-D integer key array; the result is ``float64``.
        """


class SketchBank:
    """One sketch per member, all of one class and configuration, held as
    stacked arrays with a leading member axis.

    Member ``i`` equals a standalone :attr:`sketch_class` sketch of the
    bank's configuration seeded with ``seeds[i]`` and fed member ``i``'s
    keys; the α-net keeps one bank per hashed family instead of one
    object per net member.  A bank is not a snapshot type of its own: its
    :meth:`state_dict` is plain arrays inside the owner's state, and the
    owner supplies the row count its restore checks against.
    """

    #: The standalone sketch class every member equals.
    sketch_class: type
    #: Names of the configuration every member shares, as properties of
    #: :attr:`sketch_class` and constructor arguments of the bank.
    _bank_config: tuple[str, ...]

    def __init__(self, seeds: np.ndarray) -> None:
        #: ``uint64`` seed of every member, taken mod ``2^64``.
        self.seeds = np.asarray(seeds, dtype=np.uint64)

    @classmethod
    def stack(cls, sketches: Iterable[Sketch]) -> "SketchBank":
        """The bank of ``sketches``, read for their configuration and seeds.

        Raises
        ------
        InvalidParameterError
            Unless there is at least one sketch, every sketch is exactly a
            :attr:`sketch_class` and empty, and all share the bank's
            configuration; seeds may differ.
        """
        sketches = list(sketches)
        name = cls.sketch_class.__name__
        if not sketches:
            raise InvalidParameterError(f"a {cls.__name__} needs at least one {name}")
        config = {
            field: getattr(sketches[0], field, None) for field in cls._bank_config
        }
        for sketch in sketches:
            if type(sketch) is not cls.sketch_class:
                raise InvalidParameterError(
                    f"a {cls.__name__} stacks {name} sketches only, got a "
                    f"{type(sketch).__name__}"
                )
            for field, value in config.items():
                if getattr(sketch, field) != value:
                    raise InvalidParameterError(
                        f"a {cls.__name__} stacks {name} sketches that share "
                        f"{', '.join(cls._bank_config)} ({field}: "
                        f"{getattr(sketch, field)} != {value})"
                    )
            if sketch.items_processed:
                raise InvalidParameterError(
                    f"a {cls.__name__} stacks empty {name} sketches only, got "
                    f"one that saw {sketch.items_processed} items"
                )
        seeds = [sketch.seed % (1 << 64) for sketch in sketches]  # type: ignore
        return cls(np.array(seeds, dtype=np.uint64), **config)

    @property
    def members(self) -> int:
        """Number of stacked sketches."""
        return self.seeds.shape[0]

    def config(self) -> dict:
        """The shared configuration, by name."""
        return {field: getattr(self, field) for field in self._bank_config}

    def check_mergeable(self, other: object) -> None:
        """Raise unless ``other`` is a bank of the same class, configuration
        and member seeds.  Changes nothing."""
        name = type(self).__name__
        if type(other) is not type(self):
            raise InvalidParameterError(
                f"cannot merge a {type(other).__name__} into a {name}"
            )
        if other.config() != self.config() or not np.array_equal(
            other.seeds, self.seeds
        ):
            raise InvalidParameterError(
                f"{name} summaries must share {', '.join(self._bank_config)} "
                "and every member's seed to be merged"
            )

    def size_in_bits(self) -> int:
        """The structural size of as many standalone sketches."""
        return self.members * self.sketch_class(**self.config()).size_in_bits()

    def _base_state(self) -> dict:
        """The configuration plus the seeds as gaps, which repeat for the
        consecutive seeds a sketch plan hands out."""
        return {
            **self.config(),
            "seed_gaps": np.diff(self.seeds, prepend=np.uint64(0)),
        }

    @staticmethod
    def _restored_seeds(state: dict, members: int, context: str) -> np.ndarray:
        """The seeds of a :meth:`_base_state`, refusing a wrong shape."""
        gaps = integer_array(state["seed_gaps"], (members,), f"{context}: 'seed_gaps'")
        return np.cumsum(gaps.astype(np.uint64), dtype=np.uint64)


def integer_array(value: object, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``value`` as a non-negative integer ndarray of exactly ``shape``.

    Raises :class:`~repro.errors.SnapshotError` naming ``what`` otherwise.
    """
    array = np.asarray(value)
    if array.shape != shape or (
        array.size and not np.issubdtype(array.dtype, np.integer)
    ):
        raise SnapshotError(
            f"{what} must be an integer array of shape {shape}, got "
            f"{array.dtype} of shape {array.shape}"
        )
    if array.size and int(array.min()) < 0:
        raise SnapshotError(f"{what} holds a negative entry {int(array.min())}")
    return array

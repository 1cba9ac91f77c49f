"""Row-stream abstraction.

The paper's computational model receives the array ``A`` as a stream of rows
too large to hold in memory.  :class:`RowStream` wraps any row source (an
in-memory dataset, a generator, a file of encoded rows) behind a uniform
iteration interface with replay support, chunking, deterministic shuffling
and on-the-fly transformations, so estimators and benchmarks never need to
care where the rows come from.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..coding.words import Word
from ..core.dataset import Dataset
from ..errors import DimensionError, InvalidParameterError
from ..sketches.hashing import fingerprint_row, fingerprint_rows

__all__ = [
    "RowStream",
    "SHARD_POLICIES",
    "shard_assignment",
    "shard_assignment_block",
]

#: Shard-assignment policies understood by :meth:`RowStream.shard` and the
#: engine's :class:`~repro.engine.partition.StreamPartitioner`.
SHARD_POLICIES = ("round_robin", "hash")


def shard_assignment(
    index: int, row: Word, n_shards: int, policy: str, hash_seed: int = 0
) -> int:
    """Shard id for the row at stream position ``index`` under ``policy``.

    The single definition both the lazy substreams and the engine's
    partitioner route through, so the two can never disagree on placement.
    The ``"hash"`` policy places a row by its seeded Horner fingerprint in
    ``GF(2^61 - 1)`` (:func:`~repro.sketches.hashing.fingerprint_row`).
    """
    if policy == "round_robin":
        return index % n_shards
    if policy == "hash":
        return fingerprint_row(row, hash_seed) % n_shards
    raise InvalidParameterError(
        f"unknown shard policy {policy!r}; expected one of {SHARD_POLICIES}"
    )


def shard_assignment_block(
    start_index: int,
    block: np.ndarray,
    n_shards: int,
    policy: str,
    hash_seed: int = 0,
) -> np.ndarray:
    """Shard ids for a whole ``(m, d)`` block starting at stream position
    ``start_index``, as an ``int64`` array.

    Vectorized counterpart of :func:`shard_assignment`: entry ``i`` equals
    ``shard_assignment(start_index + i, tuple(block[i]), ...)`` for both
    policies, so block-wise and row-wise routing can never disagree on
    placement.
    """
    block = np.asarray(block)
    if policy == "round_robin":
        return (
            start_index + np.arange(block.shape[0], dtype=np.int64)
        ) % n_shards
    if policy == "hash":
        fingerprints = fingerprint_rows(block, hash_seed)
        return (fingerprints % np.uint64(n_shards)).astype(np.int64)
    raise InvalidParameterError(
        f"unknown shard policy {policy!r}; expected one of {SHARD_POLICIES}"
    )


class RowStream:
    """A replayable stream of rows (words over ``[Q]^d``).

    Parameters
    ----------
    source:
        Either a :class:`~repro.core.dataset.Dataset` or a callable returning
        a fresh iterator of rows each time it is invoked (so the stream can
        be replayed).
    n_columns:
        Row width; inferred from the dataset when one is given.
    alphabet_size:
        Alphabet size ``Q``; inferred from the dataset when one is given.
    """

    def __init__(
        self,
        source: Dataset | Callable[[], Iterable[Word]],
        n_columns: int | None = None,
        alphabet_size: int | None = None,
    ) -> None:
        self._dataset: Dataset | None = None
        if isinstance(source, Dataset):
            self._dataset = source
            self._factory: Callable[[], Iterable[Word]] = source.iter_rows
            self._n_columns = source.n_columns
            self._alphabet_size = source.alphabet_size
        else:
            if n_columns is None or alphabet_size is None:
                raise InvalidParameterError(
                    "n_columns and alphabet_size are required for generator sources"
                )
            self._factory = source
            self._n_columns = int(n_columns)
            self._alphabet_size = int(alphabet_size)
        if self._n_columns < 1:
            raise DimensionError(f"n_columns must be >= 1, got {self._n_columns}")
        if self._alphabet_size < 2:
            raise InvalidParameterError(
                f"alphabet_size must be >= 2, got {self._alphabet_size}"
            )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Word], n_columns: int, alphabet_size: int = 2
    ) -> "RowStream":
        """A stream replaying an in-memory list of rows."""
        materialised = [tuple(int(s) for s in row) for row in rows]
        return cls(lambda: iter(materialised), n_columns, alphabet_size)

    @property
    def n_columns(self) -> int:
        """Row width ``d``."""
        return self._n_columns

    @property
    def alphabet_size(self) -> int:
        """Alphabet size ``Q``."""
        return self._alphabet_size

    def __iter__(self) -> Iterator[Word]:
        for row in self._factory():
            if len(row) != self._n_columns:
                raise DimensionError(
                    f"stream produced a row of length {len(row)}, expected "
                    f"{self._n_columns}"
                )
            yield tuple(int(symbol) for symbol in row)

    def take(self, count: int) -> list[Word]:
        """Materialise the first ``count`` rows."""
        if count < 0:
            raise InvalidParameterError(f"count must be non-negative, got {count}")
        rows = []
        for row in self:
            if len(rows) >= count:
                break
            rows.append(row)
        return rows

    def count(self) -> int:
        """Number of rows in one full replay of the stream."""
        return sum(1 for _ in self)

    def chunks(self, chunk_size: int) -> Iterator[list[Word]]:
        """Yield the stream in chunks of at most ``chunk_size`` rows."""
        if chunk_size < 1:
            raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        buffer: list[Word] = []
        for row in self:
            buffer.append(row)
            if len(buffer) == chunk_size:
                yield buffer
                buffer = []
        if buffer:
            yield buffer

    def iter_batches(self, batch_size: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield the stream as ``(start_index, block)`` ndarray chunks.

        ``block`` is an ``(m, d)`` int64 array of at most ``batch_size`` rows
        and ``start_index`` is the stream position of its first row (what
        position-dependent shard policies need to route whole blocks).  For
        dataset-backed streams the blocks are zero-copy views into the
        dataset's storage; generator-backed streams are buffered and
        converted one block at a time.  Concatenating the blocks reproduces
        the stream exactly.
        """
        if batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
        start = 0
        if self._dataset is not None:
            for block in self._dataset.iter_row_blocks(batch_size):
                yield start, block
                start += int(block.shape[0])
            return
        buffer: list[Word] = []
        for row in self:
            buffer.append(row)
            if len(buffer) == batch_size:
                yield start, np.array(buffer, dtype=np.int64)
                start += len(buffer)
                buffer = []
        if buffer:
            yield start, np.array(buffer, dtype=np.int64)

    def shuffled(self, seed: int = 0) -> "RowStream":
        """A stream replaying the same rows in a deterministic shuffled order.

        Materialises the rows; intended for robustness experiments on row
        order (the paper's lower bounds are order-insensitive).
        """
        rows = list(self)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(rows))
        shuffled_rows = [rows[int(index)] for index in order]
        return RowStream.from_rows(shuffled_rows, self._n_columns, self._alphabet_size)

    def shard(
        self,
        shard_index: int,
        n_shards: int,
        policy: str = "round_robin",
        hash_seed: int = 0,
    ) -> "RowStream":
        """The substream of rows assigned to one of ``n_shards`` shards.

        Two assignment policies are supported: ``"round_robin"`` assigns row
        ``i`` to shard ``i mod n_shards`` (perfectly balanced, order
        dependent) and ``"hash"`` assigns each row by a seeded fingerprint of
        its content (order independent, so replicated ingest pipelines agree on
        placement).  The ``n_shards`` substreams partition this stream: every
        row appears in exactly one of them.
        """
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
        if not 0 <= shard_index < n_shards:
            raise InvalidParameterError(
                f"shard_index must be in [0, {n_shards}), got {shard_index}"
            )
        if policy not in SHARD_POLICIES:
            raise InvalidParameterError(
                f"unknown shard policy {policy!r}; expected one of {SHARD_POLICIES}"
            )
        factory = lambda: (  # noqa: E731
            row
            for index, row in enumerate(self)
            if shard_assignment(index, row, n_shards, policy, hash_seed)
            == shard_index
        )
        return RowStream(factory, self._n_columns, self._alphabet_size)

    def map_rows(self, transform: Callable[[Word], Word], n_columns: int | None = None,
                 alphabet_size: int | None = None) -> "RowStream":
        """A stream applying ``transform`` to every row on the fly.

        ``n_columns`` / ``alphabet_size`` declare the transformed geometry
        when it differs from the source's; only ``None`` means "unchanged"
        (explicit values — including invalid ones — are always honoured, and
        validated).  The transform's output width is checked against the
        declared width on the first row of every replay.
        """
        width = self._n_columns if n_columns is None else int(n_columns)
        alphabet = self._alphabet_size if alphabet_size is None else int(alphabet_size)

        def mapped() -> Iterator[Word]:
            checked = False
            for row in self:
                out = transform(row)
                if not checked:
                    if len(out) != width:
                        raise DimensionError(
                            f"map_rows transform produced a row of length "
                            f"{len(out)}, but the mapped stream declares "
                            f"{width} columns"
                        )
                    checked = True
                yield out

        return RowStream(mapped, n_columns=width, alphabet_size=alphabet)

    def to_dataset(self) -> Dataset:
        """Materialise the stream as a :class:`~repro.core.dataset.Dataset`."""
        return Dataset.from_words(list(self), alphabet_size=self._alphabet_size)

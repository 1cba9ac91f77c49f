"""Stream partitioning: route one row stream to per-shard sub-blocks.

The first stage of the sharded engine.  A :class:`StreamPartitioner` assigns
every row of a :class:`~repro.streaming.stream.RowStream` to exactly one of
``n_shards`` shards under one of two policies:

* ``"round_robin"`` — row ``i`` goes to shard ``i mod n_shards``.  Perfectly
  balanced and cheap, but placement depends on arrival order, so it models a
  load balancer spraying traffic.
* ``"hash"`` — each row is placed by a seeded fingerprint of its content
  in ``GF(2^61 - 1)``.  Placement is order independent (two ingest
  pipelines replaying the same rows in different orders agree on every
  assignment), which is what content-addressed routing in a distributed
  ingest tier needs.

Both policies are *partitions*: the substreams are disjoint and their union
is the input stream, which is exactly the precondition under which merging
per-shard summaries recovers the single-node summary.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..coding.words import Word
from ..errors import InvalidParameterError
from ..streaming.stream import (
    SHARD_POLICIES,
    RowStream,
    shard_assignment,
    shard_assignment_block,
)

__all__ = ["PARTITION_POLICIES", "StreamPartitioner"]

#: Supported shard-assignment policies (one definition, shared with
#: :meth:`~repro.streaming.stream.RowStream.shard`).
PARTITION_POLICIES = SHARD_POLICIES


class StreamPartitioner:
    """Assign rows of a stream to shards under a fixed policy.

    Parameters
    ----------
    n_shards:
        Number of shards to partition into.
    policy:
        One of :data:`PARTITION_POLICIES`.
    hash_seed:
        Seed of the content hash used by the ``"hash"`` policy, so distinct
        partitioners (for example for re-sharding experiments) can be made
        independent.

    Example::

        >>> from repro import StreamPartitioner
        >>> partitioner = StreamPartitioner(n_shards=3, policy="round_robin")
        >>> [partitioner.assign(i, (0, 1)) for i in range(5)]
        [0, 1, 2, 0, 1]
    """

    def __init__(
        self, n_shards: int, policy: str = "round_robin", hash_seed: int = 0
    ) -> None:
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
        if policy not in PARTITION_POLICIES:
            raise InvalidParameterError(
                f"unknown partition policy {policy!r}; expected one of "
                f"{PARTITION_POLICIES}"
            )
        self._n_shards = int(n_shards)
        self._policy = policy
        self._hash_seed = int(hash_seed)

    @property
    def n_shards(self) -> int:
        """Number of shards rows are assigned to."""
        return self._n_shards

    @property
    def policy(self) -> str:
        """The configured assignment policy."""
        return self._policy

    @property
    def hash_seed(self) -> int:
        """Seed of the content hash behind the ``"hash"`` policy."""
        return self._hash_seed

    def assign(self, index: int, row: Word) -> int:
        """Shard id for the row at stream position ``index``."""
        return shard_assignment(
            index, row, self._n_shards, self._policy, self._hash_seed
        )

    def assign_block(self, start_index: int, block: np.ndarray) -> np.ndarray:
        """Shard ids for a whole block starting at ``start_index`` (vectorized).

        Row ``i`` of the result equals ``assign(start_index + i, block[i])``,
        so block-wise and row-wise ingest place every row identically.
        """
        return shard_assignment_block(
            start_index, block, self._n_shards, self._policy, self._hash_seed
        )

    def route(
        self, stream: RowStream, block_rows: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(shard, rows)`` sub-blocks of ``stream`` in stream order.

        The engine's one routing loop: the stream is read in
        :meth:`~repro.streaming.stream.RowStream.iter_batches` blocks of at
        most ``block_rows`` rows, each block is placed with one
        :meth:`assign_block` call and split with one mask per shard, and
        every non-empty sub-block is yielded, block by block and in shard
        order within a block.  Concatenating one shard's sub-blocks gives
        exactly the rows :meth:`~repro.streaming.stream.RowStream.shard`
        replays for it.

        Example::

            >>> from repro import Dataset, RowStream, StreamPartitioner
            >>> stream = RowStream(Dataset.random(n_rows=5, n_columns=2, seed=0))
            >>> partitioner = StreamPartitioner(n_shards=2)
            >>> [(shard, len(rows)) for shard, rows in partitioner.route(stream, 4)]
            [(0, 2), (1, 2), (0, 1)]
        """
        for start, block in stream.iter_batches(block_rows):
            assignment = self.assign_block(start, block)
            for shard in range(self._n_shards):
                rows = block[assignment == shard]
                if rows.shape[0]:
                    yield shard, rows

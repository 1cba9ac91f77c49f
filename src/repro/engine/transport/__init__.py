"""Worker transport: the frame codec and socket shard workers.

The transport layer behind ``Coordinator(backend="sockets")``.  Two
pieces:

* :mod:`~repro.engine.transport.frames` — the ``repro/transport@2`` frame
  codec every coordinator/worker exchange uses (nothing is pickled);
* :mod:`~repro.engine.transport.sockets` — the shard worker behind a TCP
  server (``python -m repro worker``), the coordinator-side client, and
  the supervised :class:`SocketWorkerPool` that drives one client per
  shard.

Workers replay the serial backend's exact per-batch ``observe_rows`` call
sequence, so merged summaries are bit-identical to a serial ingest.
"""

from .frames import MESSAGE_TYPES, TRANSPORT_SCHEMA, decode_frame, encode_frame
from .sockets import (
    DEFAULT_TRANSPORT_BLOCK_ROWS,
    ShardServer,
    SocketShardClient,
    SocketWorkerPool,
    parse_address,
    run_worker,
    spawn_local_servers,
)
from .worker import ShardWorkerState

__all__ = [
    "DEFAULT_TRANSPORT_BLOCK_ROWS",
    "MESSAGE_TYPES",
    "ShardServer",
    "ShardWorkerState",
    "SocketShardClient",
    "SocketWorkerPool",
    "TRANSPORT_SCHEMA",
    "decode_frame",
    "encode_frame",
    "parse_address",
    "run_worker",
    "spawn_local_servers",
]

"""The socket shard protocol: shard workers behind ``repro/transport@2``.

A :class:`ShardServer` (``python -m repro worker``) is an :mod:`asyncio`
TCP server that answers framed transport messages with a
:class:`~repro.engine.transport.worker.ShardWorkerState` per connection;
a :class:`SocketShardClient` is the coordinator-side peer that drives one
shard; a :class:`SocketWorkerPool` holds one client per shard and is the
engine's supervised worker pool.  On the wire each frame gains an outer
``u32`` length prefix; row blocks travel inline as ndarray bytes,
pipelined without per-block acks — the ``snapshot`` reply is the barrier,
and the worker rejects any gap in the block sequence numbers, so a lost
frame is a dead connection rather than silently missing rows.  Workers
return persistence snapshot bytes for merging, never pickled objects.

Failure handling: connects go through the
:class:`~repro.engine.resilience.RetryPolicy`-bounded
:func:`~repro.engine.resilience.connect_with_retry`, every RPC carries a
:class:`~repro.engine.resilience.DeadlinePolicy` socket timeout, and a
dead connection is reconnected — to the same address under ``respawn``
recovery, or to a *surviving* worker address under ``reassign`` (each
server connection owns an isolated ``ShardWorkerState``, so one server
can host several shards) — then reloaded from the shard's basis snapshot
(its pristine replica) and replayed every block of the current segment,
keeping recovered ingest bit-identical to serial.

:func:`spawn_local_servers` binds loopback listeners on ephemeral ports
and starts one server process on each — the harness behind the
socket-loopback differential tests, the transport benchmarks and local
crash-recovery runs.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket

import numpy as np

from ...errors import EstimationError, TransportError
from ..resilience import ResilienceConfig, WorkerSupervisor, connect_with_retry
from .frames import (
    apply_send_faults,
    decode_frame,
    encode_frame,
    frame_length_prefix,
    split_length_prefix,
)
from .worker import ShardWorkerState

__all__ = [
    "DEFAULT_TRANSPORT_BLOCK_ROWS",
    "ShardServer",
    "SocketShardClient",
    "SocketWorkerPool",
    "parse_address",
    "run_worker",
    "spawn_local_servers",
]

#: Transport block size used when the coordinator has no ``batch_size``.
DEFAULT_TRANSPORT_BLOCK_ROWS = 4096

#: Failures that mean "this shard's worker (or its link) is gone".
_CLIENT_ERRORS = (TransportError, ConnectionError, EOFError, OSError)


class _WorkerReportedError(TransportError):
    """The worker answered an ``error`` frame: the estimator itself failed.

    Distinguished from link failures because replaying the same rows into
    a fresh worker would fail identically — the supervisor must not burn
    recoveries on it.
    """


def parse_address(address) -> tuple[str, int]:
    """Normalise ``"host:port"`` strings or ``(host, port)`` pairs."""
    if isinstance(address, str):
        host, separator, port_text = address.rpartition(":")
        if not separator or not host:
            raise TransportError(
                f"worker address {address!r} is not of the form host:port"
            )
        try:
            return host, int(port_text)
        except ValueError:
            raise TransportError(
                f"worker address {address!r} has a non-numeric port"
            )
    host, port = address
    return str(host), int(port)


# -- server ----------------------------------------------------------------------


class ShardServer:
    """An asyncio TCP shard server speaking ``repro/transport@2``.

    Serves the listening socket it is given; the caller binds it, so the
    caller knows the port before any client dials.  Each connection gets
    its own :class:`ShardWorkerState`, so one server process serves one
    shard per connection — a coordinator normally opens one per shard,
    and shard *reassignment* after a worker loss may point a second
    connection at a surviving server.  A ``shutdown`` frame with
    ``scope="server"`` stops the whole server and closes the listener —
    how CI tears its loopback workers down.
    """

    def __init__(self, listener: socket.socket) -> None:
        self._listener = listener
        self._stop: asyncio.Event | None = None

    async def _handle_connection(self, reader, writer) -> None:
        state = ShardWorkerState()
        try:
            while True:
                try:
                    prefix = await reader.readexactly(4)
                    frame = await reader.readexactly(split_length_prefix(prefix))
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    header, payload = decode_frame(frame)
                except TransportError:
                    # A corrupted frame leaves this connection's stream
                    # position unknowable; drop the connection and let the
                    # client-side supervisor reconnect and replay.
                    break
                try:
                    reply = state.handle(header, payload)
                except TransportError:
                    # Protocol-integrity failures (truncated payloads,
                    # messages out of order) are connection-fatal: the
                    # client-side supervisor reconnects and replays.
                    break
                if reply is not None:
                    out = encode_frame(reply[0], reply[1])
                    writer.write(frame_length_prefix(out) + out)
                    await writer.drain()
                if header.get("type") == "shutdown":
                    if header.get("scope") == "server" and self._stop is not None:
                        self._stop.set()
                    break
        finally:
            state.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve(self) -> None:
        """Serve until a server-scoped shutdown frame arrives."""
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, sock=self._listener
        )
        async with server:
            await self._stop.wait()


def run_worker(listener: socket.socket) -> None:
    """Serve shards on ``listener`` until shut down (``repro worker``)."""
    asyncio.run(ShardServer(listener).serve())


def spawn_local_servers(count: int, host: str = "127.0.0.1"):
    """Start ``count`` loopback shard server processes on ephemeral ports.

    Each listener is bound here, so its port is known before the child
    starts; the child inherits the listening socket and serves it.
    Returns ``(addresses, processes)`` where ``addresses`` are
    ``"host:port"`` strings ready for ``Coordinator(worker_addresses=...)``.
    Stop them with :meth:`SocketShardClient.shutdown_server` per address
    (or terminate the processes).
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    addresses: list[str] = []
    processes = []
    for _ in range(count):
        # Closing the parent's copy once the child holds its own matters:
        # a listener left open here would queue reconnects to a crashed
        # server instead of refusing them, stalling recovery.
        with socket.create_server((host, 0)) as listener:
            port = listener.getsockname()[1]
            process = context.Process(
                target=run_worker,
                args=(listener,),
                daemon=True,
                name="repro-shard-server",
            )
            process.start()
        addresses.append(f"{host}:{port}")
        processes.append(process)
    return addresses, processes


# -- client ----------------------------------------------------------------------


class SocketShardClient:
    """Coordinator-side peer driving one remote shard over TCP.

    Blocks are pipelined without per-block acks, with TCP as the flow
    control, and :meth:`snapshot` is the barrier that proves every block
    was ingested.  All traffic is framed; nothing is pickled.  The initial
    connect is retried per the pool's
    :class:`~repro.engine.resilience.RetryPolicy`, so a worker started a
    moment after the coordinator no longer loses the race, and every RPC
    runs under a :class:`~repro.engine.resilience.DeadlinePolicy` socket
    timeout.
    """

    backend_name = "sockets"

    def __init__(
        self,
        address,
        resilience: ResilienceConfig | None = None,
        shard_index: int | None = None,
        supervisor: WorkerSupervisor | None = None,
    ) -> None:
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self.shard_index = shard_index
        self._resilience = (resilience or ResilienceConfig()).validate()
        self._sock = connect_with_retry(
            host, port, self._resilience, shard=shard_index,
            backend=self.backend_name, supervisor=supervisor,
        )
        self._sock.settimeout(self._resilience.deadlines.ingest)
        self.blocks = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        header, _ = self._request({"type": "hello"})
        if header.get("type") != "hello":
            raise TransportError(
                f"worker at {self.address} answered {header.get('type')!r} "
                "to the hello handshake"
            )

    def _send_frame(self, frame: bytes, fault_hook: bool = False) -> None:
        if fault_hook:
            mangled = apply_send_faults(frame, self.shard_index, self.frames_sent)
            self.frames_sent += 1
            if mangled is None:
                return  # dropped by the fault plan, like a lost packet
            frame = mangled
        self._sock.sendall(frame_length_prefix(frame) + frame)
        self.bytes_sent += len(frame) + 4

    def _recv_exact(self, n_bytes: int) -> bytes:
        chunks = []
        remaining = n_bytes
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ConnectionResetError(
                    f"worker at {self.address} closed the connection"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_frame(self) -> tuple[dict, bytes]:
        length = split_length_prefix(self._recv_exact(4))
        frame = self._recv_exact(length)
        self.bytes_received += length + 4
        header, payload = decode_frame(frame)
        if header.get("type") == "error":
            raise _WorkerReportedError(
                f"worker at {self.address} reported: {header.get('message')}"
            )
        return header, payload

    def _request(self, header: dict, payload: bytes = b"") -> tuple[dict, bytes]:
        self._send_frame(encode_frame(header, payload))
        return self._recv_frame()

    def load(
        self, shard_index: int, basis_payload: bytes, basis_seq: int = -1
    ) -> None:
        """Install the shard's estimator snapshot on the worker.

        ``basis_seq`` is the last block sequence number the snapshot
        already covers; the worker expects the next block to follow it.
        """
        header, _ = self._request(
            {"type": "load", "shard": shard_index, "seq": basis_seq},
            bytes(basis_payload),
        )
        if header.get("type") != "ok":
            raise TransportError(
                f"worker at {self.address} answered {header.get('type')!r} "
                "to a load request"
            )

    def send_block(self, shard_index: int, block: np.ndarray, seq: int) -> None:
        """Ship one row block inline (pipelined, no per-block ack).

        ``seq`` must follow the previous block's sequence number (or the
        basis ``seq`` of the last :meth:`load`); sequence numbers keep
        counting across snapshots.
        """
        contiguous = np.ascontiguousarray(block)
        header = {
            "type": "ingest_block",
            "shard": shard_index,
            "seq": seq,
            "shape": list(contiguous.shape),
            "dtype": np.dtype(contiguous.dtype).str,
        }
        self._send_frame(
            encode_frame(header, contiguous.tobytes()), fault_hook=True
        )
        self.blocks += 1

    def request_snapshot(self) -> None:
        """Send the snapshot barrier without waiting for the reply."""
        self._send_frame(encode_frame({"type": "snapshot"}), fault_hook=True)

    def read_snapshot(self) -> dict:
        """Receive the ``snapshot_state`` reply for :meth:`request_snapshot`."""
        previous = self._sock.gettimeout()
        self._sock.settimeout(self._resilience.deadlines.snapshot)
        try:
            header, payload = self._recv_frame()
        finally:
            self._sock.settimeout(previous)
        if header.get("type") != "snapshot_state":
            raise TransportError(
                f"worker at {self.address} answered {header.get('type')!r} "
                "to a snapshot request"
            )
        result = {
            "rows": int(header.get("rows", 0)),
            "seconds": float(header.get("seconds", 0.0)),
            "payload": payload,
            "metrics": header.get("metrics"),
            "blocks": self.blocks,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }
        self.blocks = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        return result

    def snapshot(self) -> dict:
        """Barrier + merge: the worker's summary snapshot and accounting.

        Returns one :meth:`SocketWorkerPool.collect` entry (without the
        pool's ``lost`` / ``rows_dropped`` fields); transport counters
        reset afterwards.
        """
        self.request_snapshot()
        return self.read_snapshot()

    def shutdown_server(self) -> None:
        """Stop the *whole server* behind this connection (CI teardown)."""
        try:
            self._request({"type": "shutdown", "scope": "server"})
        except (TransportError, ConnectionError, OSError):
            pass
        self.close()

    def close(self) -> None:
        """Close this connection, ending the worker-side session."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class SocketWorkerPool:
    """One persistent :class:`SocketShardClient` per shard, supervised.

    The coordinator-facing surface is ``send_block`` / ``collect`` /
    ``close``.  Connections persist across ``Coordinator.ingest`` calls;
    after every ``collect`` each worker resets itself to its pristine
    replica.  A :class:`~repro.engine.resilience.WorkerSupervisor`
    governs failures: reconnect (or reassign to a surviving address),
    reload the basis snapshot, replay the current segment's blocks.  Under
    ``fail-fast`` recovery a failed worker or dropped connection surfaces
    as :class:`~repro.errors.EstimationError` naming the shard index and
    backend, after which the pool has closed every connection so the
    owning coordinator can reconnect on its next ingest call.  When
    recoveries run out under ``on_exhausted="degrade"`` the shard is
    marked lost: its rows are dropped (and counted), and ``collect``
    reports the loss so the coordinator can serve coverage-annotated
    answers instead of failing.  The last live shard is never marked
    lost; its exhaustion fails like ``fail-fast``.
    """

    backend_name = "sockets"

    def __init__(
        self,
        addresses,
        pristine_payloads: list[bytes],
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if len(addresses) != len(pristine_payloads):
            raise TransportError(
                f"{len(addresses)} worker address(es) for "
                f"{len(pristine_payloads)} shard(s); need exactly one each"
            )
        self.supervisor = WorkerSupervisor(
            self.backend_name,
            [bytes(payload) for payload in pristine_payloads],
            resilience,
        )
        self._resilience = self.supervisor.resilience
        self._addresses = [
            "{}:{}".format(*parse_address(address)) for address in addresses
        ]
        self._clients: list[SocketShardClient] = []
        self._closed = False
        for index, payload in enumerate(pristine_payloads):
            try:
                client = SocketShardClient(
                    self._addresses[index],
                    resilience=self._resilience,
                    shard_index=index,
                    supervisor=self.supervisor,
                )
                self._clients.append(client)
                client.load(index, bytes(payload))
            except _CLIENT_ERRORS as error:
                self._fail(index, error)

    @property
    def n_workers(self) -> int:
        """Number of connected shard workers."""
        return len(self._clients)

    def _fail(self, shard_index: int, error: BaseException) -> None:
        self.close()
        raise EstimationError(
            f"shard {shard_index} worker failed mid-ingest under the "
            f"'{self.backend_name}' backend ({type(error).__name__}: {error});"
            " the connections were closed and will be re-established on the "
            "next ingest() call"
        ) from error

    # -- supervision -------------------------------------------------------------

    def _dial(self, shard_index: int) -> SocketShardClient:
        """Connect shard ``shard_index`` somewhere per the recovery mode."""
        candidates = [self._addresses[shard_index]]
        if self._resilience.recovery.mode == "reassign":
            # A surviving server can host a second shard: each connection
            # gets its own isolated ShardWorkerState.
            for other, address in enumerate(self._addresses):
                if (
                    other != shard_index
                    and not self.supervisor.shard(other).lost
                    and address not in candidates
                ):
                    candidates.append(address)
        last_error: BaseException | None = None
        for address in candidates:
            try:
                return SocketShardClient(
                    address, resilience=self._resilience,
                    shard_index=shard_index, supervisor=self.supervisor,
                )
            except _CLIENT_ERRORS as error:
                last_error = error
        raise TransportError(
            f"no reachable worker address for shard {shard_index} "
            f"(tried {', '.join(candidates)}; last: "
            f"{type(last_error).__name__}: {last_error})"
        )

    def _reconnect(self, shard_index: int) -> None:
        """Re-establish the shard's session: dial, load basis, replay."""
        shard = self.supervisor.shard(shard_index)
        old = self._clients[shard_index]
        old.close()
        client = self._dial(shard_index)
        # Transport accounting survives the connection: replayed bytes are
        # genuinely re-shipped and stack on top of the earlier counts.
        client.blocks = old.blocks
        client.bytes_sent += old.bytes_sent
        client.bytes_received += old.bytes_received
        self._clients[shard_index] = client
        client.load(shard_index, shard.basis, shard.basis_seq)
        for seq, block in shard.replay_blocks():
            client.send_block(shard_index, block, seq)

    def _handle_transport_failure(
        self, shard_index: int, error: BaseException
    ) -> bool:
        """Recover ``shard_index`` per policy; True when healthy again."""
        if isinstance(error, _WorkerReportedError):
            # The estimator failed, not the link: replay would fail
            # identically, so surface it like the fail-fast path does.
            self._fail(shard_index, error)
        last_error = error
        while self.supervisor.may_recover(shard_index):
            with self.supervisor.begin_recovery(shard_index):
                try:
                    self._reconnect(shard_index)
                    return True
                except _CLIENT_ERRORS as retry_error:
                    last_error = retry_error
        shard = self.supervisor.shard(shard_index)
        if shard.tracking and self.supervisor.may_degrade():
            self._clients[shard_index].close()
            shard.mark_lost()
            return False
        self._fail(shard_index, last_error)

    # -- the ingest protocol -----------------------------------------------------

    def send_block(self, shard_index: int, block: np.ndarray) -> None:
        """Ship one row block to ``shard_index``'s remote worker."""
        shard = self.supervisor.shard(shard_index)
        if shard.lost:
            shard.record_dropped(int(block.shape[0]))
            return
        contiguous = np.ascontiguousarray(block)
        seq = shard.assign_seq()
        shard.record_send(seq, contiguous)
        try:
            self._clients[shard_index].send_block(shard_index, contiguous, seq)
        except _CLIENT_ERRORS as error:
            # A successful reconnect already replayed this block (recorded
            # above); a degraded shard silently absorbs it.
            self._handle_transport_failure(shard_index, error)

    def _lost_entry(self, shard_index: int) -> dict:
        client = self._clients[shard_index]
        shard = self.supervisor.shard(shard_index)
        entry = {
            "rows": 0,
            "seconds": 0.0,
            "payload": None,
            "metrics": None,
            "lost": True,
            "rows_dropped": shard.drain_dropped(),
            "blocks": client.blocks,
            "bytes_sent": client.bytes_sent,
            "bytes_received": client.bytes_received,
        }
        client.blocks = 0
        client.bytes_sent = 0
        client.bytes_received = 0
        return entry

    def _collect_one(self, shard_index: int) -> dict:
        """Full snapshot round trip for one shard, with recovery."""
        shard = self.supervisor.shard(shard_index)
        if shard.lost:
            return self._lost_entry(shard_index)
        try:
            result = self._clients[shard_index].snapshot()
        except _CLIENT_ERRORS as error:
            self._handle_transport_failure(shard_index, error)
            # Either recovered (snapshot again) or lost (the recursion
            # lands in the lost branch); bounded by max_recoveries.
            return self._collect_one(shard_index)
        shard.after_collect()
        result["lost"] = False
        result["rows_dropped"] = 0
        return result

    def collect(self) -> list[dict]:
        """Snapshot every worker; returns one result dict per shard.

        Each entry carries ``rows``, ``seconds``, the summary's snapshot
        ``payload`` bytes, the worker's ``metrics`` registry state (or
        ``None``), the ``bytes_sent`` / ``bytes_received`` / ``blocks``
        transport accounting since the previous collect, plus the
        resilience fields ``lost`` and ``rows_dropped``.  Snapshot
        requests are pipelined across shards so the workers serialize
        their summaries concurrently; the replies are gathered (and
        failures recovered) in shard order.
        """
        requested: list[bool] = []
        for index, client in enumerate(self._clients):
            if self.supervisor.shard(index).lost:
                requested.append(False)
                continue
            try:
                client.request_snapshot()
                requested.append(True)
            except _CLIENT_ERRORS as error:
                self._handle_transport_failure(index, error)
                requested.append(False)
        results = []
        for index in range(len(self._clients)):
            if not requested[index]:
                results.append(self._collect_one(index))
                continue
            try:
                result = self._clients[index].read_snapshot()
            except _CLIENT_ERRORS as error:
                self._handle_transport_failure(index, error)
                results.append(self._collect_one(index))
                continue
            self.supervisor.shard(index).after_collect()
            result["lost"] = False
            result["rows_dropped"] = 0
            results.append(result)
        return results

    def close(self) -> None:
        """Close every connection (servers stay up); safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for client in self._clients:
            client.close()

"""Tests for the transport layer: frames and the socket worker pool.

The load-bearing property is the transport contract of the sockets
backend: it replays exactly the ``observe_rows`` call sequence of the
serial backend, so the merged summary comes back **byte-identical**
(``to_bytes()``-equal) to serial ingestion of the same stream — across
estimator families, repeated ingests and checkpoint/restore mid-stream.
The fault half pins the failure contract: a dead worker or lost frame
either recovers bit-identically or surfaces as
:class:`~repro.errors.EstimationError` naming the shard and backend, and
the coordinator stays usable afterwards.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import struct

import numpy as np
import pytest

from repro import (
    AlphaNetEstimator,
    ColumnQuery,
    Coordinator,
    Dataset,
    EstimationError,
    ExactBaseline,
    InvalidParameterError,
    RowStream,
    SketchPlan,
    UniformSampleEstimator,
)
from repro.engine.resilience import FaultPlan, FaultRule, installed_fault_plan
from repro.engine.transport import (
    MESSAGE_TYPES,
    TRANSPORT_SCHEMA,
    ShardWorkerState,
    SocketShardClient,
    decode_frame,
    encode_frame,
    spawn_local_servers,
)
from repro.errors import DimensionError, TransportError

D = 6
DATA = Dataset.random(n_rows=500, n_columns=D, seed=11)
MORE = Dataset.random(n_rows=300, n_columns=D, seed=12)
QUERY = ColumnQuery.of([0, 2, 4], D)


def _exact_factory() -> ExactBaseline:
    return ExactBaseline(n_columns=D)


def _usample_factory() -> UniformSampleEstimator:
    return UniformSampleEstimator(n_columns=D, sample_size=64, seed=7)


def _alpha_factory() -> AlphaNetEstimator:
    return AlphaNetEstimator(
        n_columns=D, alpha=0.4, plan=SketchPlan.default_f0(epsilon=0.4, seed=3)
    )


FAMILIES = {
    "exact": _exact_factory,
    "usample": _usample_factory,
    "alpha": _alpha_factory,
}


def _shutdown_servers(addresses, processes) -> None:
    for address in addresses:
        try:
            SocketShardClient(address).shutdown_server()
        except (TransportError, ConnectionError, OSError):
            pass
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - teardown hardening
            process.terminate()


@pytest.fixture(scope="module")
def loopback_workers():
    """Two forked loopback shard servers, shut down after the module."""
    addresses, processes = spawn_local_servers(2)
    yield addresses
    _shutdown_servers(addresses, processes)


def _merged_bytes(factory, backend: str, streams, addresses=None, **kwargs) -> bytes:
    coordinator = Coordinator(
        factory,
        n_shards=2,
        backend=backend,
        worker_addresses=addresses,
        # Pin the serial arm to the same blocking as the transport arms:
        # the estimator `version` counter counts observe *calls*, so
        # bit-identity is defined at equal batch_size.
        batch_size=kwargs.pop("batch_size", 256),
        **kwargs,
    )
    try:
        for stream in streams:
            coordinator.ingest(stream)
        return coordinator.merged_estimator.to_bytes()
    finally:
        coordinator.close()


# -- frame codec ----------------------------------------------------------------


def test_frame_roundtrip_preserves_header_and_payload() -> None:
    frame = encode_frame({"type": "load", "shard": 3}, b"\x00snapshot\xff")
    header, payload = decode_frame(frame)
    assert header["type"] == "load"
    assert header["shard"] == 3
    assert header["v"] == "repro/transport@2"
    assert payload == b"\x00snapshot\xff"


def test_frame_rejects_unknown_type_and_bad_version() -> None:
    with pytest.raises(TransportError, match="unknown transport message type"):
        encode_frame({"type": "teleport"})
    frame = bytearray(encode_frame({"type": "ok"}))
    # Forge a frame claiming a different protocol version.
    forged = frame.replace(b"repro/transport@2", b"repro/transport@9")
    with pytest.raises(TransportError, match="version mismatch"):
        decode_frame(bytes(forged))


def test_frame_rejects_truncation() -> None:
    frame = encode_frame({"type": "snapshot"})
    with pytest.raises(TransportError, match="truncated"):
        decode_frame(frame[:2])
    with pytest.raises(TransportError, match="truncated"):
        decode_frame(frame[:-3])


@pytest.mark.parametrize(
    "header", [b"[1, 2]", b'"x"', b"42", b"null"],
    ids=["list", "str", "int", "null"],
)
def test_frame_rejects_a_header_that_is_not_an_object(header: bytes) -> None:
    # Valid JSON of the wrong shape must fail as a protocol error, which
    # both the worker loop and the pool's recovery path catch.
    with pytest.raises(TransportError, match="must be a JSON object"):
        decode_frame(struct.pack("!I", len(header)) + header)


def test_transport_vocabulary_is_fixed() -> None:
    # Changing the vocabulary is an incompatible change: bump the version.
    assert TRANSPORT_SCHEMA == "repro/transport@2"
    assert MESSAGE_TYPES == (
        "hello", "load", "ingest_block", "snapshot", "snapshot_state",
        "shutdown", "ok", "error",
    )


def test_frame_from_a_version_1_peer_is_refused() -> None:
    frame = encode_frame({"type": "hello"})
    old = frame.replace(b"repro/transport@2", b"repro/transport@1")
    with pytest.raises(
        TransportError, match="repro/transport@1.*repro/transport@2"
    ):
        decode_frame(old)


# -- worker: block sequence check -------------------------------------------------


def _block(seq: int | None) -> tuple[dict, bytes]:
    rows = np.ones((2, D), dtype=np.int64)
    header = {
        "type": "ingest_block",
        "shard": 0,
        "shape": list(rows.shape),
        "dtype": rows.dtype.str,
    }
    if seq is not None:
        header["seq"] = seq
    return header, rows.tobytes()


def _loaded_worker() -> ShardWorkerState:
    """A worker after a bare ``hello`` and a ``load`` from sequence -1."""
    state = ShardWorkerState()
    reply, _ = state.handle({"type": "hello"}, b"")
    assert reply["type"] == "hello"
    reply, _ = state.handle(
        {"type": "load", "shard": 0}, _exact_factory().to_bytes()
    )
    assert reply["type"] == "ok"
    return state


def test_worker_rejects_a_gap_in_the_block_sequence() -> None:
    state = _loaded_worker()
    state.handle(*_block(0))
    with pytest.raises(TransportError, match="seq 2 does not follow seq 0"):
        state.handle(*_block(2))
    state.close()


def test_worker_rejects_a_block_without_a_sequence_number() -> None:
    state = _loaded_worker()
    with pytest.raises(TransportError, match="seq None does not follow"):
        state.handle(*_block(None))
    state.close()


# -- differential harness: sockets ----------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_socket_backend_is_bit_identical_to_serial(
    family: str, loopback_workers
) -> None:
    factory = FAMILIES[family]
    serial = _merged_bytes(factory, "serial", [RowStream(DATA)])
    remote = _merged_bytes(
        factory, "sockets", [RowStream(DATA)], addresses=loopback_workers
    )
    assert remote == serial


def test_socket_repeated_ingest_matches_serial(loopback_workers) -> None:
    streams = [RowStream(DATA), RowStream(MORE)]
    serial = _merged_bytes(_alpha_factory, "serial", streams)
    remote = _merged_bytes(
        _alpha_factory, "sockets", streams, addresses=loopback_workers
    )
    assert remote == serial


def test_socket_checkpoint_restore_mid_stream_matches_serial(
    loopback_workers, tmp_path
) -> None:
    """Ingest, checkpoint, restore, continue ingesting — still bit-identical."""
    serial = _merged_bytes(_usample_factory, "serial", [RowStream(DATA), RowStream(MORE)])
    coordinator = Coordinator(
        _usample_factory, n_shards=2, backend="sockets", batch_size=256,
        worker_addresses=loopback_workers,
    )
    try:
        coordinator.ingest(RowStream(DATA))
        path = tmp_path / "mid.ckpt"
        coordinator.save_checkpoint(path)
    finally:
        coordinator.close()
    restored = Coordinator.load_checkpoint(path, _usample_factory)
    try:
        assert restored.backend == "sockets"
        restored.ingest(RowStream(MORE))
        assert restored.merged_estimator.to_bytes() == serial
    finally:
        restored.close()


def test_socket_pool_persists_across_ingests(loopback_workers) -> None:
    coordinator = Coordinator(
        _exact_factory, n_shards=2, backend="sockets",
        worker_addresses=loopback_workers,
    )
    try:
        coordinator.ingest(RowStream(DATA))
        pool = coordinator._socket_pool
        assert pool is not None
        clients = list(pool._clients)
        coordinator.ingest(RowStream(MORE))
        assert coordinator._socket_pool is pool
        assert pool._clients == clients
    finally:
        coordinator.close()
    assert coordinator._socket_pool is None


def test_socket_stream_failure_does_not_leak_rows_into_the_next_ingest(
    loopback_workers,
) -> None:
    """A stream that fails mid-ingest leaves nothing behind: the blocks it
    already shipped die with the pool instead of joining the next ingest."""

    def rows(width_of_eighth: int):
        return lambda: (
            (0,) * (width_of_eighth if index == 7 else 3) for index in range(10)
        )

    coordinator = Coordinator(
        lambda: ExactBaseline(n_columns=3), n_shards=2, backend="sockets",
        batch_size=2, worker_addresses=loopback_workers,
    )
    try:
        with pytest.raises(DimensionError):
            coordinator.ingest(RowStream(rows(2), n_columns=3, alphabet_size=2))
        assert coordinator._socket_pool is None
        report = coordinator.ingest(
            RowStream(rows(3), n_columns=3, alphabet_size=2)
        )
    finally:
        coordinator.close()
    assert report.rows_total == 10
    assert coordinator.merged_estimator.rows_observed == 10


def test_socket_bytes_shipped_accounting(loopback_workers) -> None:
    coordinator = Coordinator(
        _exact_factory,
        n_shards=2,
        backend="sockets",
        worker_addresses=loopback_workers,
    )
    try:
        report = coordinator.ingest(RowStream(DATA))
    finally:
        coordinator.close()
    assert len(report.bytes_shipped_per_shard) == 2
    # Socket blocks travel inline, so the framed bytes dominate the row
    # bytes (each shard ships about half the int64 table).
    row_bytes_per_shard = DATA.n_rows * D * 8 // 2
    assert all(
        shipped > row_bytes_per_shard // 2
        for shipped in report.bytes_shipped_per_shard
    )


def test_spawn_local_servers_under_the_spawn_start_method(monkeypatch) -> None:
    """Without fork the child inherits the listener itself, and the parent
    keeps no copy: once the server exits its port refuses connects."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    (address,), (process,) = spawn_local_servers(1)
    try:
        SocketShardClient(address).shutdown_server()  # hello, then stop
        process.join(timeout=30)
        assert not process.is_alive()
    finally:
        if process.is_alive():  # pragma: no cover - teardown hardening
            process.terminate()
    host, port = address.rsplit(":", 1)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=5).close()


def test_socket_backend_requires_matching_addresses() -> None:
    with pytest.raises(InvalidParameterError, match="worker_addresses"):
        Coordinator(_exact_factory, n_shards=2, backend="sockets").ingest(
            RowStream(DATA)
        )
    coordinator = Coordinator(
        _exact_factory,
        n_shards=2,
        backend="sockets",
        worker_addresses=("127.0.0.1:1",),
    )
    with pytest.raises(InvalidParameterError, match="one worker address per shard"):
        coordinator.ingest(RowStream(DATA))


# -- fault injection ------------------------------------------------------------


def _exit_mid_ingest(payload, rows):  # pragma: no cover - runs in a worker
    os._exit(3)


def test_process_backend_wraps_broken_pool(monkeypatch) -> None:
    from repro.engine import coordinator as coordinator_module

    monkeypatch.setattr(
        coordinator_module, "_ingest_estimator_state", _exit_mid_ingest
    )
    coordinator = Coordinator(_exact_factory, n_shards=2, backend="processes")
    with pytest.raises(EstimationError, match=r"'processes' backend"):
        coordinator.ingest(RowStream(DATA))


def test_socket_truncated_frame_mid_payload_recovers(loopback_workers) -> None:
    """A frame cut off mid-payload kills the connection, not the run.

    The server drops the mangled connection; the client-side supervisor
    reconnects (the server survives), reloads the basis and replays, so
    the merged bytes still equal serial.
    """
    serial = _merged_bytes(
        _exact_factory, "serial", [RowStream(DATA)], batch_size=64
    )
    plan = FaultPlan([FaultRule(action="truncate", shard=0, frame=3)])
    with installed_fault_plan(plan):
        coordinator = Coordinator(
            _exact_factory,
            n_shards=2,
            backend="sockets",
            worker_addresses=loopback_workers,
            batch_size=64,
            resilience={"retry": {"max_attempts": 2, "base_delay": 0.01}},
        )
        try:
            report = coordinator.ingest(RowStream(DATA))
            assert report.recoveries >= 1
            assert report.shards_lost == ()
            assert coordinator.merged_estimator.to_bytes() == serial
        finally:
            coordinator.close()


def test_socket_corrupted_header_recovers(loopback_workers) -> None:
    """Flipped header-JSON bytes surface as a decode error server-side."""
    serial = _merged_bytes(
        _exact_factory, "serial", [RowStream(DATA)], batch_size=64
    )
    plan = FaultPlan([FaultRule(action="corrupt", shard=1, frame=2)])
    with installed_fault_plan(plan):
        coordinator = Coordinator(
            _exact_factory,
            n_shards=2,
            backend="sockets",
            worker_addresses=loopback_workers,
            batch_size=64,
            resilience={"retry": {"max_attempts": 2, "base_delay": 0.01}},
        )
        try:
            report = coordinator.ingest(RowStream(DATA))
            assert report.recoveries >= 1
            assert coordinator.merged_estimator.to_bytes() == serial
        finally:
            coordinator.close()


def test_socket_worker_hang_past_deadline_recovers(tmp_path) -> None:
    """A server sleeping past its deadlines loses the shard to a survivor."""
    serial = _merged_bytes(
        _exact_factory, "serial", [RowStream(DATA)], batch_size=64
    )
    plan = FaultPlan(
        [FaultRule(action="hang", shard=1, after_blocks=2, seconds=2.0)],
        state_dir=str(tmp_path),
    )
    with installed_fault_plan(plan):
        # Servers forked here inherit the installed plan.
        addresses, processes = spawn_local_servers(2)
        coordinator = Coordinator(
            _exact_factory,
            n_shards=2,
            backend="sockets",
            worker_addresses=addresses,
            batch_size=64,
            resilience={
                "deadlines": {"ingest": 0.5, "snapshot": 0.5},
                "recovery": {"mode": "reassign"},
            },
        )
        try:
            report = coordinator.ingest(RowStream(DATA))
            assert report.recoveries >= 1
            assert coordinator.merged_estimator.to_bytes() == serial
        finally:
            coordinator.close()
            _shutdown_servers(addresses, processes)


def test_socket_dropped_frame_breaks_connection_and_recovers(
    loopback_workers,
) -> None:
    """A silently dropped block leaves a gap in the sequence numbers; the
    worker drops the connection, which becomes a recovery instead of an
    undercounted summary."""
    serial = _merged_bytes(
        _exact_factory, "serial", [RowStream(DATA)], batch_size=64
    )
    plan = FaultPlan([FaultRule(action="drop", shard=0, frame=2)])
    with installed_fault_plan(plan):
        coordinator = Coordinator(
            _exact_factory,
            n_shards=2,
            backend="sockets",
            worker_addresses=loopback_workers,
            batch_size=64,
        )
        try:
            report = coordinator.ingest(RowStream(DATA))
            assert report.recoveries >= 1
            assert report.rows_total == DATA.n_rows
            assert coordinator.merged_estimator.to_bytes() == serial
        finally:
            coordinator.close()


def test_socket_dropped_frame_fail_fast_raises_and_coordinator_recovers(
    loopback_workers,
) -> None:
    """Under fail-fast a lost block is a precise error, not missing rows,
    and the coordinator reconnects on its next ingest."""
    plan = FaultPlan([FaultRule(action="drop", shard=0, frame=2)])
    coordinator = Coordinator(
        _exact_factory,
        n_shards=2,
        backend="sockets",
        worker_addresses=loopback_workers,
        batch_size=64,
        resilience={"recovery": {"mode": "fail-fast"}},
    )
    try:
        with installed_fault_plan(plan):
            with pytest.raises(
                EstimationError, match=r"shard 0 .*'sockets'"
            ) as excinfo:
                coordinator.ingest(RowStream(DATA))
        assert not isinstance(excinfo.value, TransportError)
        # The broken pool was torn down; the next ingest reconnects.
        assert coordinator._socket_pool is None
        coordinator.ingest(RowStream(DATA))
        coordinator.ingest(RowStream(MORE))
        expected = _merged_bytes(
            _exact_factory, "serial", [RowStream(DATA), RowStream(MORE)],
            batch_size=64,
        )
        assert coordinator.merged_estimator.to_bytes() == expected
    finally:
        coordinator.close()


def test_socket_disconnect_mid_ingest_fail_fast_raises(tmp_path) -> None:
    """Under fail-fast, a mid-ingest disconnect is a precise error."""
    plan = FaultPlan(
        [FaultRule(action="crash", shard=1, after_blocks=1)],
        state_dir=str(tmp_path),
    )
    with installed_fault_plan(plan):
        # Servers forked here inherit the installed plan.
        addresses, processes = spawn_local_servers(2)
        coordinator = Coordinator(
            _exact_factory,
            n_shards=2,
            backend="sockets",
            worker_addresses=addresses,
            batch_size=64,
            resilience={"recovery": {"mode": "fail-fast"}},
        )
        try:
            with pytest.raises(EstimationError, match=r"shard 1 .*'sockets'"):
                coordinator.ingest(RowStream(DATA))
        finally:
            coordinator.close()
            _shutdown_servers(addresses, processes)


@pytest.mark.parametrize("backend", ["processes", "sockets"])
def test_worker_results_short_of_their_routed_rows_are_refused(
    backend: str, monkeypatch
) -> None:
    """A worker whose summary saw fewer rows than were routed to its shard
    is refused before anything merges, on both worker backends."""
    observe_rows = ExactBaseline.observe_rows

    def drop_last_row(self, rows):
        return observe_rows(self, rows[:-1])

    # Workers forked after this point ingest one row short per block.
    monkeypatch.setattr(ExactBaseline, "observe_rows", drop_last_row)
    addresses, processes = (
        spawn_local_servers(2) if backend == "sockets" else (None, [])
    )
    coordinator = Coordinator(
        _exact_factory,
        n_shards=2,
        backend=backend,
        batch_size=64,
        worker_addresses=addresses,
    )
    try:
        with pytest.raises(EstimationError, match="rows routed to it"):
            coordinator.ingest(RowStream(DATA))
        with pytest.raises(EstimationError, match="nothing ingested"):
            coordinator.merged_estimator
    finally:
        coordinator.close()
        if addresses:
            _shutdown_servers(addresses, processes)


@pytest.mark.parametrize("backend", ["processes", "sockets"])
def test_transport_rejects_unsnapshottable_estimators(backend: str) -> None:
    from repro.core.estimator import ProjectedFrequencyEstimator

    class Opaque(ProjectedFrequencyEstimator):
        def _observe(self, row) -> None:
            pass

        def size_in_bits(self) -> int:
            return 0

        def _merge_summaries(self, other) -> None:
            pass

    # No worker_addresses: the refusal comes before any worker is dialed.
    coordinator = Coordinator(
        lambda: Opaque(n_columns=D), n_shards=2, backend=backend
    )
    with pytest.raises(EstimationError, match="snapshot bytes"):
        coordinator.ingest(RowStream(DATA))

"""The shard worker: one estimator behind a frame-message loop.

:class:`ShardWorkerState` is the per-connection half of a socket shard
server (:mod:`repro.engine.transport.sockets`): the server decodes
frames, this object answers them.  Its contract is the
snapshot-bytes-only protocol:

* ``load`` installs the shard's estimator from persistence snapshot bytes
  (:func:`repro.persistence.from_bytes`), caches the *pristine* payload
  and records the block sequence number the loaded basis already covers;
* ``ingest_block`` feeds one inline row block through ``observe_rows``;
  a block whose ``seq`` does not directly follow the previous one means
  a frame was lost in transit, which is connection-fatal so the client
  replays from its basis;
* ``snapshot`` ships the updated summary back as snapshot bytes (plus row
  count, ingest seconds and the worker's telemetry registry state) and
  resets the estimator to the cached pristine payload, giving every
  coordinator ``ingest()`` call a fresh replica without re-shipping one.

No estimator, shard or row list is ever pickled across the boundary.
"""

from __future__ import annotations

import time

import numpy as np

from ... import persistence, telemetry
from ...errors import TransportError
from ..resilience import faults as _faults

__all__ = ["ShardWorkerState"]


class ShardWorkerState:
    """One shard's estimator plus the frame-message handler.

    Example::

        >>> from repro import ExactBaseline
        >>> from repro.engine.transport.frames import decode_frame, encode_frame
        >>> state = ShardWorkerState()
        >>> header, _ = state.handle({"type": "hello"}, b"")
        >>> header["type"]
        'hello'
    """

    def __init__(self) -> None:
        self._estimator = None
        self._pristine: bytes | None = None
        self._shard_index: int | None = None
        self._rows = 0
        self._seconds = 0.0
        self._last_seq = -1
        self._blocks_handled = 0
        self._registry_scope = None
        self._registry = None
        self._rescope_registry()

    def _rescope_registry(self) -> None:
        """Swap in a fresh scoped registry so each ingest ships only its own.

        A forked worker inherits the parent's process-global registry;
        recording into a scope of our own (and re-scoping after every
        snapshot) is what keeps the coordinator's ``merge_state`` from
        double-counting history.
        """
        if self._registry_scope is not None:
            self._registry_scope.__exit__(None, None, None)
            self._registry_scope = None
            self._registry = None
        if telemetry.enabled():
            self._registry_scope = telemetry.scoped_registry()
            self._registry = self._registry_scope.__enter__()

    # -- message handlers --------------------------------------------------------

    def handle(self, header: dict, payload: bytes) -> tuple[dict, bytes] | None:
        """Answer one decoded frame; returns ``(reply_header, reply_payload)``.

        ``ingest_block`` frames return ``None`` (the pipelined socket path
        treats the eventual ``snapshot`` reply as the barrier); every other
        message produces a reply.  Handler failures are reported as
        ``error`` frames rather than killing the loop.
        """
        message_type = header.get("type")
        try:
            if message_type == "hello":
                # decode_frame already refused any other protocol version.
                return {"type": "hello"}, b""
            if message_type == "load":
                return self._handle_load(header, payload)
            if message_type == "ingest_block":
                return self._handle_block(header, payload)
            if message_type == "snapshot":
                return self._handle_snapshot()
            if message_type == "shutdown":
                self.close()
                return {"type": "ok"}, b""
            raise TransportError(
                f"worker cannot handle message type {message_type!r}"
            )
        except TransportError:
            raise
        except Exception as error:  # estimator failures travel as frames
            return {
                "type": "error",
                "message": f"{type(error).__name__}: {error}",
            }, b""

    def _handle_load(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        self._pristine = bytes(payload)
        self._estimator = persistence.from_bytes(self._pristine)
        self._shard_index = header.get("shard")
        self._rows = 0
        self._seconds = 0.0
        # A reload during recovery resumes mid-stream: the basis already
        # covers every block up to this sequence number.
        self._last_seq = int(header.get("seq", -1))
        self._rescope_registry()
        return {"type": "ok", "shard": self._shard_index}, b""

    def _handle_block(
        self, header: dict, payload: bytes
    ) -> tuple[dict, bytes] | None:
        if self._estimator is None:
            raise TransportError("ingest_block before load: no estimator loaded")
        seq = header.get("seq")
        if type(seq) is not int or seq != self._last_seq + 1:
            # Blocks are pipelined without per-block acks, so a frame lost
            # in transit shows up only as a gap in the sequence.  Raise
            # TransportError (connection-fatal) so the client-side
            # supervisor reloads the basis and replays the missing block.
            raise TransportError(
                f"ingest_block seq {seq!r} does not follow seq "
                f"{self._last_seq}; a block was lost in transit"
            )
        plan = _faults.active_fault_plan()
        if plan is not None and self._shard_index is not None:
            # crash/hang rules fire here, before the block lands, so a
            # recovered worker replays this very block deterministically.
            plan.on_block(self._shard_index, self._blocks_handled)
        dtype = np.dtype(header["dtype"])
        shape = tuple(header["shape"])
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if len(payload) != expected:
            # A frame truncated in transit decodes fine when the header
            # JSON survives; the size mismatch is the only tell.  Raise
            # TransportError (connection-fatal) instead of an error
            # frame: replaying the block into a fresh session succeeds,
            # unlike a genuine estimator failure.
            raise TransportError(
                f"ingest_block payload is {len(payload)} byte(s) but "
                f"shape {list(shape)} of {dtype.str} needs {expected}; "
                "the frame was truncated in transit"
            )
        block = np.frombuffer(payload, dtype=dtype).reshape(shape)
        # frombuffer views are read-only; estimators may retain rows.
        block = np.array(block, copy=True)
        started = time.perf_counter()
        self._estimator.observe_rows(block)
        self._seconds += time.perf_counter() - started
        self._rows += int(block.shape[0])
        self._blocks_handled += 1
        self._last_seq = seq
        return None

    def _handle_snapshot(self) -> tuple[dict, bytes]:
        if self._estimator is None or self._pristine is None:
            raise TransportError("snapshot before load: no estimator loaded")
        summary = self._estimator.to_bytes()
        worker_metrics = (
            self._registry.state_dict() if self._registry is not None else None
        )
        reply = {
            "type": "snapshot_state",
            "shard": self._shard_index,
            "rows": self._rows,
            "seconds": self._seconds,
            "metrics": worker_metrics,
        }
        # Reset to the pristine replica locally: the next coordinator
        # ingest() starts from a fresh estimator without re-shipping one.
        # Sequence numbers keep counting across ingests, so _last_seq
        # survives the reset.
        self._estimator = persistence.from_bytes(self._pristine)
        self._rows = 0
        self._seconds = 0.0
        self._rescope_registry()
        return reply, summary

    def close(self) -> None:
        """Release the scoped registry."""
        if self._registry_scope is not None:
            self._registry_scope.__exit__(None, None, None)
            self._registry_scope = None
            self._registry = None

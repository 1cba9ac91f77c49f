"""The ``repro/transport@2`` frame codec.

Every message between a coordinator and a shard worker is one *frame*::

    u32 header_len | header JSON (UTF-8) | payload bytes

The header is a small JSON object carrying the message ``type`` (one of
:data:`MESSAGE_TYPES`), the protocol version tag ``v`` and per-message
fields (shard index, block sequence number and geometry, worker
accounting).  The payload is raw bytes: estimator snapshot bytes for
``load`` / ``snapshot_state``, row-block bytes for an ``ingest_block``,
empty otherwise.

Nothing in a frame is ever pickled.  Socket streams add an outer ``u32``
frame-length prefix via :func:`frame_length_prefix` /
:func:`split_length_prefix`.
"""

from __future__ import annotations

import json
import struct

from ...errors import TransportError
from ..resilience import faults as _faults

__all__ = [
    "TRANSPORT_SCHEMA",
    "MESSAGE_TYPES",
    "encode_frame",
    "decode_frame",
    "frame_length_prefix",
    "split_length_prefix",
    "apply_send_faults",
]

#: Version tag carried by every frame header; bumped on incompatible change.
TRANSPORT_SCHEMA = "repro/transport@2"

#: The protocol vocabulary.  Requests: ``hello`` (version handshake),
#: ``load`` (install pristine estimator snapshot bytes), ``ingest_block``
#: (one row block; only a failure is answered), ``snapshot`` (ship summary
#: state back and reset to pristine), ``shutdown``.  Replies: ``hello``,
#: ``ok``, ``snapshot_state``, ``error``.
MESSAGE_TYPES = (
    "hello",
    "load",
    "ingest_block",
    "snapshot",
    "snapshot_state",
    "shutdown",
    "ok",
    "error",
)

_HEADER_LEN = struct.Struct("!I")


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one message as ``u32 header_len | header JSON | payload``.

    The version tag and a validated ``type`` are stamped into the header
    here, so every frame on the wire is well-formed by construction.
    """
    message_type = header.get("type")
    if message_type not in MESSAGE_TYPES:
        raise TransportError(
            f"unknown transport message type {message_type!r}; expected one "
            f"of {MESSAGE_TYPES}"
        )
    tagged = dict(header)
    tagged["v"] = TRANSPORT_SCHEMA
    encoded = json.dumps(tagged, sort_keys=True).encode("utf-8")
    return _HEADER_LEN.pack(len(encoded)) + encoded + bytes(payload)


def decode_frame(frame: bytes) -> tuple[dict, bytes]:
    """Split one frame back into ``(header, payload)``, checking the version."""
    if len(frame) < _HEADER_LEN.size:
        raise TransportError(
            f"truncated transport frame: {len(frame)} byte(s), need at least "
            f"{_HEADER_LEN.size}"
        )
    (header_len,) = _HEADER_LEN.unpack_from(frame)
    end = _HEADER_LEN.size + header_len
    if len(frame) < end:
        raise TransportError(
            f"truncated transport frame: header claims {header_len} bytes "
            f"but only {len(frame) - _HEADER_LEN.size} follow"
        )
    try:
        header = json.loads(frame[_HEADER_LEN.size:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"unreadable transport frame header: {error}")
    if not isinstance(header, dict):
        raise TransportError(
            "transport frame header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    version = header.get("v")
    if version != TRANSPORT_SCHEMA:
        raise TransportError(
            f"transport version mismatch: peer speaks {version!r}, this "
            f"process speaks {TRANSPORT_SCHEMA!r}"
        )
    if header.get("type") not in MESSAGE_TYPES:
        raise TransportError(
            f"unknown transport message type {header.get('type')!r}"
        )
    return header, frame[end:]


def apply_send_faults(
    frame: bytes, shard: int | None = None, frame_index: int = 0
) -> bytes | None:
    """Offer one outbound frame to the active :class:`FaultPlan`, if any.

    The socket clients route every block and snapshot-request frame
    through this hook before it touches the socket, which is what makes the
    ``delay`` / ``drop`` / ``truncate`` / ``corrupt`` fault rules land at
    a real protocol boundary.  Returns the frame (mangled or not), or
    ``None`` when a ``drop`` rule ate it.  With no plan installed this is
    one module-global read.
    """
    plan = _faults.active_fault_plan()
    if plan is None:
        return frame
    return plan.mangle_frame(shard, frame_index, frame)


def frame_length_prefix(frame: bytes) -> bytes:
    """The outer ``u32`` length prefix socket streams add before a frame."""
    return _HEADER_LEN.pack(len(frame))


def split_length_prefix(prefix: bytes) -> int:
    """Decode the outer ``u32`` frame length read from a socket stream."""
    (length,) = _HEADER_LEN.unpack(prefix)
    return length

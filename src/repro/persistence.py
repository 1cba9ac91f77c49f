"""Versioned serialization of summaries: snapshots every layer can speak.

The paper's computational model is explicitly two-phase: an observation
phase builds a summary, and an *arbitrarily later* query phase answers
column queries from the summary alone.  For the query phase to be
arbitrarily later — in another process, on another machine, after the
building process is long gone — summaries need a wire format.  This module
is that format, shared by every layer of the stack:

* **sketches and estimators** implement ``state_dict()`` /
  ``load_state_dict()`` (plain-container state, RNG state included, so a
  restored summary continues ingesting *bit-identically*) and register a
  stable type tag with :func:`snapshottable`;
* :func:`to_bytes` frames any registered object as a self-describing,
  schema-checked payload tagged :data:`SNAPSHOT_FORMAT`, and
  :func:`from_bytes` reconstructs it generically through the tag → class
  registry — callers never need to know the concrete type in advance;
* the engine builds its checkpoint files (:data:`CHECKPOINT_FORMAT`, see
  :mod:`repro.engine.checkpoint`) out of the same envelope and value
  encoding, so one validator (:func:`validate_envelope`) covers both.

Wire format (:data:`SNAPSHOT_FORMAT`): a fixed magic prefix
(:data:`SNAPSHOT_MAGIC`) followed by zlib-compressed, sorted-key JSON of an
*envelope* ``{"format": ..., "type": <registered tag>, "state": <encoded
state dict>}``.  Values that JSON cannot express natively travel as tagged
objects (``{"__kind__": "tuple" | "set" | "map" | "bytes" | "ndarray" |
"snapshot", ...}``); nested summaries (a sampler inside an estimator, the
per-member moment sketches inside an α-net estimator) are encoded
recursively as ``"snapshot"`` values, while the α-net's sketch banks travel
as plain arrays.  Compatibility policy: the format
tag is bumped on any breaking change and :func:`from_bytes` refuses
payloads with an unknown tag — there is no silent best-effort decoding.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import Callable, Iterable

import numpy as np

from .errors import SnapshotError

__all__ = [
    "SNAPSHOT_FORMAT",
    "CHECKPOINT_FORMAT",
    "SNAPSHOT_MAGIC",
    "snapshottable",
    "snapshot_tag",
    "resolve_tag",
    "registered_tags",
    "encode_state",
    "decode_state",
    "to_bytes",
    "from_bytes",
    "dump_envelope",
    "load_envelope",
    "validate_envelope",
    "rng_state_dict",
    "rng_from_state",
    "require_keys",
]

#: Format tag of a single serialized estimator or sketch.  ``@1`` persisted
#: the estimator ``version`` counter and KMV's heap in arrival order, ``@2``
#: held sketches that hashed serialised tuples through BLAKE2b, and ``@3``
#: sketches whose hash coefficients came from a per-seed ``default_rng``
#: and an α-net holding one nested snapshot per member sketch; all are
#: refused, since restoring an ``@3`` sketch under today's coefficients
#: would mix two hash functions.
SNAPSHOT_FORMAT = "repro/estimator-snapshot@4"

#: Format tag of an engine checkpoint (config manifest + merged summary).
#: ``@1`` also carried the last ingest's per-shard replicas, and ``@2``,
#: ``@3`` and ``@4`` held ``@1``, ``@2`` and ``@3`` summaries; all are
#: refused.
CHECKPOINT_FORMAT = "repro/engine-checkpoint@5"

#: Magic prefix identifying every file/payload written by this module.
SNAPSHOT_MAGIC = b"REPRO-SNAPSHOT\x00"

#: Envelope formats :func:`load_envelope` accepts.
_KNOWN_FORMATS = (SNAPSHOT_FORMAT, CHECKPOINT_FORMAT)

#: The exact top-level keys of a :data:`CHECKPOINT_FORMAT` envelope.
_CHECKPOINT_KEYS = ("config", "format", "merged")

_CLASS_BY_TAG: dict[str, type] = {}
_TAG_BY_CLASS: dict[type, str] = {}

_KIND_KEY = "__kind__"


# -- type registry --------------------------------------------------------------


def snapshottable(tag: str) -> Callable[[type], type]:
    """Class decorator registering ``tag`` as the class's wire-format type tag.

    The decorated class must implement ``state_dict()`` and the
    ``from_state_dict()`` classmethod (both provided by the sketch and
    estimator base classes).  Tags are part of the wire format: once
    released they must never be renamed or reused for a different class.

    Example::

        >>> from repro.persistence import snapshot_tag
        >>> from repro.sketches.kmv import KMVSketch
        >>> snapshot_tag(KMVSketch)
        'sketch.kmv'
    """

    def register(cls: type) -> type:
        if tag in _CLASS_BY_TAG and _CLASS_BY_TAG[tag] is not cls:
            raise SnapshotError(
                f"snapshot tag {tag!r} is already registered to "
                f"{_CLASS_BY_TAG[tag].__name__}"
            )
        _CLASS_BY_TAG[tag] = cls
        _TAG_BY_CLASS[cls] = tag
        return cls

    return register


def snapshot_tag(obj: object) -> str:
    """The registered type tag of ``obj`` (an instance or a class)."""
    cls = obj if isinstance(obj, type) else type(obj)
    try:
        return _TAG_BY_CLASS[cls]
    except KeyError:
        raise SnapshotError(
            f"{cls.__name__} is not registered with the snapshot registry; "
            "decorate it with @snapshottable(tag)"
        ) from None


def resolve_tag(tag: str) -> type:
    """The class registered under ``tag``; raises on unknown tags."""
    _ensure_registered()
    try:
        return _CLASS_BY_TAG[tag]
    except KeyError:
        raise SnapshotError(
            f"unknown snapshot type tag {tag!r}; "
            f"known tags: {registered_tags()}"
        ) from None


def registered_tags() -> list[str]:
    """Every registered type tag, sorted."""
    _ensure_registered()
    return sorted(_CLASS_BY_TAG)


def _ensure_registered() -> None:
    """Import the modules whose classes self-register, exactly once.

    Decoding is generic over the registry, so ``from_bytes`` must work even
    when the caller imported only :mod:`repro.persistence`; the imports are
    deferred to avoid a cycle (those modules import this one).
    """
    from . import core  # noqa: F401  (import for registration side effect)
    from . import sketches  # noqa: F401


# -- RNG state ------------------------------------------------------------------


def rng_state_dict(rng: np.random.Generator) -> dict:
    """JSON-able state of a NumPy ``Generator`` (captured for bit-identical resume)."""
    state = rng.bit_generator.state
    return json.loads(json.dumps(state))  # deep copy with plain containers


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a ``Generator`` whose stream continues exactly where ``state`` left off."""
    if not isinstance(state, dict) or "bit_generator" not in state:
        raise SnapshotError(f"malformed RNG state: {state!r}")
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"cannot restore RNG state: {error}") from error
    return rng


# -- state dict helpers ---------------------------------------------------------


def require_keys(state: object, keys: Iterable[str], context: str) -> dict:
    """Schema-check ``state``: a dict with exactly ``keys``; returns it typed.

    Used by every ``load_state_dict`` implementation so a truncated,
    corrupted or future-versioned state fails loudly with the offending
    context instead of surfacing as an ``AttributeError`` later.
    """
    expected = set(keys)
    if not isinstance(state, dict):
        raise SnapshotError(
            f"{context}: state must be a dict, got {type(state).__name__}"
        )
    actual = set(state)
    if actual != expected:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        raise SnapshotError(
            f"{context}: state keys drifted from the schema: "
            f"missing {missing}, unexpected {extra}"
        )
    return state


# -- value encoding -------------------------------------------------------------


def encode_state(value: object) -> object:
    """Encode one state value into JSON-able form.

    Plain JSON scalars pass through; tuples, sets, byte strings, ndarrays,
    non-string-keyed mappings and registered summary objects travel as
    ``{"__kind__": ...}`` tagged objects.  Rejects anything else — the wire
    format is a closed vocabulary, not a pickle.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, bytes):
        return {_KIND_KEY: "bytes", "data": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {_KIND_KEY: "tuple", "items": [encode_state(item) for item in value]}
    if isinstance(value, list):
        return [encode_state(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = sorted(value, key=repr)
        return {_KIND_KEY: "set", "items": [encode_state(item) for item in items]}
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return {
            _KIND_KEY: "ndarray",
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii"),
        }
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and _KIND_KEY not in value:
            return {key: encode_state(item) for key, item in value.items()}
        return {
            _KIND_KEY: "map",
            "items": [
                [encode_state(key), encode_state(item)]
                for key, item in value.items()
            ],
        }
    if type(value) in _TAG_BY_CLASS:
        return {
            _KIND_KEY: "snapshot",
            "type": _TAG_BY_CLASS[type(value)],
            "state": encode_state(value.state_dict()),  # type: ignore[attr-defined]
        }
    raise SnapshotError(
        f"cannot encode a value of type {type(value).__name__} into the "
        "snapshot wire format"
    )


def decode_state(value: object) -> object:
    """Invert :func:`encode_state` (reconstructing nested summaries via the registry)."""
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    if not isinstance(value, dict):
        return value
    kind = value.get(_KIND_KEY)
    if kind is None:
        return {key: decode_state(item) for key, item in value.items()}
    if kind == "bytes":
        return base64.b64decode(value["data"])
    if kind == "tuple":
        return tuple(decode_state(item) for item in value["items"])
    if kind == "set":
        return {decode_state(item) for item in value["items"]}
    if kind == "ndarray":
        raw = base64.b64decode(value["data"])
        array = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
        return array.reshape(tuple(value["shape"])).copy()
    if kind == "map":
        return {
            decode_state(key): decode_state(item) for key, item in value["items"]
        }
    if kind == "snapshot":
        cls = resolve_tag(value["type"])
        return cls.from_state_dict(decode_state(value["state"]))  # type: ignore[attr-defined]
    raise SnapshotError(f"unknown encoded value kind {kind!r}")


# -- framing --------------------------------------------------------------------


def dump_envelope(envelope: dict) -> bytes:
    """Serialise an envelope dict: magic prefix + zlib-compressed sorted JSON."""
    problems = validate_envelope(envelope)
    if problems:
        raise SnapshotError(
            "refusing to write an invalid envelope: " + "; ".join(problems)
        )
    payload = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return SNAPSHOT_MAGIC + zlib.compress(payload.encode("utf-8"))


def load_envelope(data: bytes) -> dict:
    """Parse and schema-check a byte payload back into an envelope dict."""
    if not isinstance(data, (bytes, bytearray)):
        raise SnapshotError(
            f"expected a byte payload, got {type(data).__name__}"
        )
    if not bytes(data).startswith(SNAPSHOT_MAGIC):
        raise SnapshotError(
            "payload does not start with the repro snapshot magic; "
            "not a snapshot/checkpoint file"
        )
    try:
        payload = zlib.decompress(bytes(data)[len(SNAPSHOT_MAGIC):])
        envelope = json.loads(payload.decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotError(f"corrupt snapshot payload: {error}") from error
    problems = validate_envelope(envelope)
    if problems:
        raise SnapshotError("invalid snapshot envelope: " + "; ".join(problems))
    return envelope


def validate_envelope(envelope: object) -> list[str]:
    """Structural schema check of an envelope; returns human-readable problems.

    Shared by :func:`load_envelope`, the engine checkpoint reader, and
    ``python -m repro lint`` on an artifact path (rule ART001) — an empty
    list means the envelope is schema-valid for its declared format.
    """
    problems: list[str] = []
    if not isinstance(envelope, dict):
        return [f"envelope must be an object, got {type(envelope).__name__}"]
    fmt = envelope.get("format")
    if fmt not in _KNOWN_FORMATS:
        return [f"format must be one of {_KNOWN_FORMATS}, got {fmt!r}"]
    if fmt == SNAPSHOT_FORMAT:
        if not isinstance(envelope.get("type"), str) or not envelope.get("type"):
            problems.append("'type' must be a non-empty string tag")
        if not isinstance(envelope.get("state"), dict):
            problems.append("'state' must be an object")
        return problems
    # CHECKPOINT_FORMAT
    if sorted(envelope) != list(_CHECKPOINT_KEYS):
        problems.append(
            f"a checkpoint holds exactly the keys {list(_CHECKPOINT_KEYS)}, "
            f"got {sorted(envelope)}"
        )
    config = envelope.get("config")
    if not isinstance(config, dict):
        problems.append("'config' must be an object")
    else:
        for key in ("n_shards", "hash_seed"):
            if not isinstance(config.get(key), int):
                problems.append(f"'config.{key}' must be an integer")
        for key in ("policy", "backend"):
            if not isinstance(config.get(key), str):
                problems.append(f"'config.{key}' must be a string")
        if config.get("batch_size") is not None and not isinstance(
            config.get("batch_size"), int
        ):
            problems.append("'config.batch_size' must be an integer or null")
    merged = envelope.get("merged")
    if merged is not None and not _looks_like_snapshot_value(merged):
        problems.append("'merged' must be null or an encoded snapshot value")
    return problems


def _looks_like_snapshot_value(value: object) -> bool:
    """Whether ``value`` is an encoded ``{"__kind__": "snapshot"}`` object."""
    return (
        isinstance(value, dict)
        and value.get(_KIND_KEY) == "snapshot"
        and isinstance(value.get("type"), str)
        and isinstance(value.get("state"), (dict, list))
    )


def to_bytes(obj: object) -> bytes:
    """Serialise one registered summary object into a framed byte payload.

    Example::

        >>> from repro.persistence import from_bytes, to_bytes
        >>> from repro.sketches.kmv import KMVSketch
        >>> sketch = KMVSketch(k=8, seed=3)
        >>> sketch.update_block([11, 12, 13])
        >>> restored = from_bytes(to_bytes(sketch))
        >>> restored.estimate() == sketch.estimate()
        True
    """
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "type": snapshot_tag(obj),
        "state": encode_state(obj.state_dict()),  # type: ignore[attr-defined]
    }
    return dump_envelope(envelope)


def from_bytes(data: bytes) -> object:
    """Reconstruct a summary object from :func:`to_bytes` output.

    Fully generic: the envelope's type tag selects the class through the
    registry, so callers need not know what kind of summary the bytes hold.
    """
    envelope = load_envelope(data)
    if envelope["format"] != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"expected a {SNAPSHOT_FORMAT!r} payload, got "
            f"{envelope['format']!r} (use repro.engine.checkpoint for "
            "engine checkpoints)"
        )
    cls = resolve_tag(envelope["type"])
    return cls.from_state_dict(decode_state(envelope["state"]))  # type: ignore[attr-defined]

"""Hash function families used by the streaming sketches.

Every sketch in :mod:`repro.sketches` consumes *hashable items* (bytes,
strings, ints or tuples thereof).  The families implemented here provide the
independence guarantees the classical analyses require:

* :class:`PolynomialHash` — k-wise independent hashing by evaluating a random
  degree ``k-1`` polynomial over the Mersenne prime ``2^61 - 1``.  Count-Min
  draws one pairwise-independent function per row from a
  :class:`HashFamily`.
* :func:`stable_hash64` — a deterministic, seed-able 64-bit hash of arbitrary
  Python objects, used to map items into the integer domain the families
  operate on.  KMV hashes items to the unit interval through it, and
  StableLp seeds each item's stable draws with it.

All families are deterministic functions of their seed, which keeps every
experiment in the repository reproducible.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "MERSENNE_PRIME_61",
    "stable_hash64",
    "stable_hash64_patterns",
    "EncodedPatternBlock",
    "encode_pattern_block",
    "hash_to_unit_interval",
    "PolynomialHash",
    "HashFamily",
]

#: The Mersenne prime :math:`2^{61} - 1` used for polynomial hashing.
MERSENNE_PRIME_61 = (1 << 61) - 1

_MASK64 = (1 << 64) - 1


def _item_to_bytes(item: object) -> bytes:
    """Serialise ``item`` into a canonical byte string.

    Integers, strings, bytes and (nested) tuples of those are supported; any
    other object falls back to ``repr`` which is stable within a process and
    adequate for test data.
    """
    if isinstance(item, bytes):
        return b"b" + item
    if isinstance(item, str):
        return b"s" + item.encode("utf-8")
    if isinstance(item, (int, np.integer)):
        return b"i" + int(item).to_bytes(16, "little", signed=True)
    if isinstance(item, tuple):
        parts = [b"t", len(item).to_bytes(4, "little")]
        for element in item:
            encoded = _item_to_bytes(element)
            parts.append(len(encoded).to_bytes(4, "little"))
            parts.append(encoded)
        return b"".join(parts)
    return b"r" + repr(item).encode("utf-8")


def stable_hash64(item: object, seed: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``item`` for the given ``seed``.

    The hash is derived from BLAKE2b, so distinct seeds give effectively
    independent hash functions.  This function is the single entry point
    through which arbitrary Python items are reduced to integers before the
    structured families below are applied.
    """
    digest = hashlib.blake2b(
        _item_to_bytes(item), digest_size=8, key=seed.to_bytes(8, "little", signed=False)
    ).digest()
    return struct.unpack("<Q", digest)[0]


def hash_to_unit_interval(item: object, seed: int = 0) -> float:
    """Hash ``item`` to a float uniformly distributed in ``[0, 1)``."""
    return stable_hash64(item, seed) / float(1 << 64)


class EncodedPatternBlock:
    """The seed-independent half of :func:`stable_hash64_patterns`.

    Serialising an ``(m, w)`` integer block into per-row byte payloads
    depends only on the block, not on the hash seed — but sketches with
    several internal hash functions (the Count-Min rows, the StableLp row
    seeds) need the *digest* under many different seeds.  Encoding once
    and calling :meth:`hash64` per seed avoids rebuilding the identical
    serialisation for every seed on the hot ingest path.
    """

    __slots__ = ("_payloads",)

    def __init__(self, payloads: list[bytes]) -> None:
        self._payloads = payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def hash64(self, seed: int = 0) -> np.ndarray:
        """Keyed BLAKE2b digests of every encoded row, as ``uint64`` keys.

        Entry ``i`` equals ``stable_hash64(tuple(block[i]), seed)`` for the
        block this encoding was built from.  Keyed BLAKE2b compresses the
        key as a block of its own, so the keyed state is built once and
        copied per payload, and the digests decode in one pass.
        """
        keyed = hashlib.blake2b(
            digest_size=8, key=int(seed).to_bytes(8, "little", signed=False)
        )
        digests = []
        for payload in self._payloads:
            state = keyed.copy()
            state.update(payload)
            digests.append(state.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


def encode_pattern_block(block: np.ndarray) -> EncodedPatternBlock:
    """Serialise an ``(m, w)`` integer block into per-row hash payloads.

    Each row encodes exactly as :func:`stable_hash64` serialises the
    corresponding tuple of Python ints, built for the whole block in a few
    NumPy passes.  The returned :class:`EncodedPatternBlock` digests the
    rows under any number of seeds without re-serialising.
    """
    block = np.asarray(block)
    if block.ndim != 2:
        raise InvalidParameterError(
            f"encode_pattern_block expects a 2-D block, got {block.ndim} dimension(s)"
        )
    if not np.issubdtype(block.dtype, np.integer):
        raise InvalidParameterError(
            f"encode_pattern_block expects an integer block, got dtype {block.dtype}"
        )
    n_rows, n_columns = block.shape
    if n_rows == 0:
        return EncodedPatternBlock([])
    prefix = b"t" + n_columns.to_bytes(4, "little")
    # Per element, _item_to_bytes emits a 21-byte record: the length prefix
    # (17, little-endian, 4 bytes), the b"i" tag, and the value as a 16-byte
    # little-endian signed integer (low 8 bytes from int64 two's complement,
    # high 8 bytes sign-filled).
    records = np.zeros((n_rows, n_columns, 21), dtype=np.uint8)
    records[:, :, 0] = 17
    records[:, :, 4] = ord("i")
    values = np.ascontiguousarray(block, dtype="<i8")
    records[:, :, 5:13] = values.view(np.uint8).reshape(n_rows, n_columns, 8)
    records[:, :, 13:21] = np.where(values < 0, 0xFF, 0).astype(np.uint8)[:, :, None]
    bodies = records.reshape(n_rows, n_columns * 21)
    return EncodedPatternBlock(
        [prefix + bodies[index].tobytes() for index in range(n_rows)]
    )


def stable_hash64_patterns(block: np.ndarray, seed: int = 0) -> np.ndarray:
    """Row-wise :func:`stable_hash64` over an ``(m, w)`` integer pattern block.

    Returns a ``uint64`` array where entry ``i`` equals
    ``stable_hash64(tuple(block[i]), seed)`` — the per-row serialisation is
    built for the whole block in a few NumPy passes (see
    :func:`encode_pattern_block`), leaving only the (mandatory) one BLAKE2b
    digest per row.  This is the block-hashing entry point of the vectorized
    sketch-ingest path: a sketch's ``update_block`` hashes a block of
    projected patterns with each of its internal seeds exactly as the scalar
    ``update`` path would hash the corresponding tuples, so the structured
    families below can consume the resulting keys through their
    ``evaluate_block`` kernels without changing a single output bucket.
    """
    return encode_pattern_block(block).hash64(seed)


def _as_uint64(values: np.ndarray) -> np.ndarray:
    """Validate a 1-D ``uint64`` key array (the output of the block hashers)."""
    keys = np.asarray(values)
    if keys.ndim != 1:
        raise InvalidParameterError(
            f"evaluate_block expects a 1-D key array, got {keys.ndim} dimension(s)"
        )
    if keys.dtype != np.uint64:
        raise InvalidParameterError(
            f"evaluate_block expects uint64 keys, got dtype {keys.dtype}"
        )
    return keys


def _mulmod_mersenne61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``(a * b) mod (2^61 - 1)`` for ``uint64`` operands ``< 2^61``.

    The 122-bit product never materialises: both operands split into 32-bit
    halves, and the three partial products are folded with the identity
    ``2^61 ≡ 1 (mod p)`` so every intermediate stays below ``2^63``.
    """
    mask32 = np.uint64(0xFFFFFFFF)
    mersenne = np.uint64(MERSENNE_PRIME_61)
    a_hi, a_lo = a >> np.uint64(32), a & mask32
    b_hi, b_lo = b >> np.uint64(32), b & mask32
    # a*b = hi*2^64 + mid*2^32 + lo with 2^64 ≡ 8 and 2^32 folded below.
    hi = a_hi * b_hi  # < 2^58
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^62
    lo = a_lo * b_lo  # < 2^64, exact in uint64
    # mid*2^32 = (mid >> 29)*2^61 + (mid & (2^29-1))*2^32 ≡ (mid >> 29) + ...
    mid_folded = (mid >> np.uint64(29)) + ((mid & np.uint64(0x1FFFFFFF)) << np.uint64(32))
    lo_folded = (lo >> np.uint64(61)) + (lo & mersenne)
    total = (hi << np.uint64(3)) + mid_folded + lo_folded  # < 2^63
    total = (total >> np.uint64(61)) + (total & mersenne)
    return np.where(total >= mersenne, total - mersenne, total)


def _addmod_mersenne61(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """Vectorized ``(a + b) mod (2^61 - 1)`` for operands already ``< 2^61 - 1``."""
    mersenne = np.uint64(MERSENNE_PRIME_61)
    total = a + b
    return np.where(total >= mersenne, total - mersenne, total)


@dataclass
class PolynomialHash:
    """k-wise independent hashing over the Mersenne prime ``2^61 - 1``.

    Evaluates a random polynomial of degree ``independence - 1`` at the key.
    With ``independence = 2`` this is the classical Carter–Wegman universal
    family, the pairwise independence Count-Min's bound needs.

    Parameters
    ----------
    independence:
        Level of independence ``k >= 2``.
    range_size:
        Output range ``[0, range_size)``.  Defaults to the full prime field.
    seed:
        Seed controlling the polynomial coefficients.
    """

    independence: int = 2
    range_size: int | None = None
    seed: int = 0
    _coefficients: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.independence < 2:
            raise InvalidParameterError(
                f"independence must be >= 2, got {self.independence}"
            )
        if self.range_size is not None and self.range_size < 1:
            raise InvalidParameterError(
                f"range_size must be positive, got {self.range_size}"
            )
        rng = np.random.default_rng(self.seed)
        coefficients = [
            int(rng.integers(1, MERSENNE_PRIME_61))
        ]  # leading coefficient non-zero
        coefficients.extend(
            int(rng.integers(0, MERSENNE_PRIME_61))
            for _ in range(self.independence - 1)
        )
        self._coefficients = tuple(coefficients)

    def field_value(self, item: object) -> int:
        """Evaluate the polynomial at ``item`` in the field ``GF(2^61 - 1)``."""
        key = stable_hash64(item, self.seed) % MERSENNE_PRIME_61
        value = 0
        for coefficient in self._coefficients:
            value = (value * key + coefficient) % MERSENNE_PRIME_61
        return value

    def __call__(self, item: object) -> int:
        value = self.field_value(item)
        if self.range_size is None:
            return value
        return value % self.range_size

    def field_value_block(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`field_value` over pre-hashed ``uint64`` keys.

        ``keys`` must come from :func:`stable_hash64_patterns` called with
        *this* function's seed.  Horner evaluation runs entirely in ``uint64``
        via split-multiply reduction modulo the Mersenne prime, so entry
        ``i`` equals the scalar ``field_value`` of the corresponding item.
        """
        keys = _as_uint64(keys) % np.uint64(MERSENNE_PRIME_61)
        # The scalar loop's first step maps 0 to the leading coefficient.
        leading, *rest = self._coefficients
        value = np.full(len(keys), leading, dtype=np.uint64)
        for coefficient in rest:
            value = _addmod_mersenne61(
                _mulmod_mersenne61(value, keys), np.uint64(coefficient)
            )
        return value

    def evaluate_block(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized ``__call__`` over pre-hashed ``uint64`` keys."""
        value = self.field_value_block(keys)
        if self.range_size is None:
            return value
        return value % np.uint64(self.range_size)


class HashFamily:
    """Factory producing independent hash functions from a master seed.

    Sketches that need several independent hash functions (for example one
    per CountMin row) draw them from a single :class:`HashFamily` so that the
    whole sketch remains a deterministic function of one seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._counter = 0

    @property
    def seed(self) -> int:
        """The master seed of this family."""
        return self._seed

    def _next_seed(self) -> int:
        self._counter += 1
        return stable_hash64(("family", self._seed, self._counter)) & _MASK64

    def polynomial(
        self, independence: int = 2, range_size: int | None = None
    ) -> PolynomialHash:
        """Draw a fresh :class:`PolynomialHash`."""
        return PolynomialHash(
            independence=independence, range_size=range_size, seed=self._next_seed()
        )

    def draw_seeds(self, count: int) -> list[int]:
        """Draw ``count`` independent integer seeds."""
        if count < 0:
            raise InvalidParameterError(f"count must be non-negative, got {count}")
        return [self._next_seed() for _ in range(count)]

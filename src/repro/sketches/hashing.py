"""Seeded Mersenne-61 hashing of integer keys.

Every hashed sketch in :mod:`repro.sketches` takes integer keys in
``[0, p)``, ``p = 2^61 - 1``.  The α-net names each projected pattern ``w``
by Remark 1's index ``e(w)``, so a sketch never sees a tuple.  Sketch row
``i`` hashes a key ``x`` with its own Carter–Wegman function
``h_i(x) = (a_i·x + b_i) mod p``, ``a_i ≠ 0``:

* the family is 2-wise independent, the independence Count-Min's bound
  needs for its buckets ``h_i(x) mod width`` and the KMV analysis needs for
  its hashes;
* with ``a_i ≠ 0`` each ``h_i`` is a bijection on ``[0, p)``, so distinct
  keys never share a hash;
* StableLp seeds each (key, row) draw with ``h_i(x)``.

The partitioner's ``"hash"`` policy fingerprints whole rows with the same
field arithmetic (:func:`fingerprint_rows`).

:func:`hash_coefficients` derives a sketch's ``(rows, 2)`` table of
``(a_i, b_i)`` from its seed, or the tables of a whole bank of seeds, in
one counter-based pass; :func:`field_hash` evaluates every row over a key
block in one broadcast pass, and the scalar ``update`` paths compute the
same values with Python ints.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "MERSENNE_PRIME_61",
    "as_key",
    "as_key_block",
    "field_hash",
    "fingerprint_row",
    "fingerprint_rows",
    "hash_coefficients",
    "pair_hash",
]

#: The Mersenne prime :math:`2^{61} - 1`, the field every key is hashed in.
MERSENNE_PRIME_61 = (1 << 61) - 1


def as_key(key: object) -> int:
    """Validate one key for a scalar ``update``: an integer in ``[0, p)``."""
    if not isinstance(key, (int, np.integer)) or not 0 <= key < MERSENNE_PRIME_61:
        raise InvalidParameterError(
            f"a sketch key must be an integer in [0, 2^61 - 1), got "
            f"{type(key).__name__} {key!r}"
        )
    return int(key)


def as_key_block(keys: object, caller: str = "update_block") -> np.ndarray:
    """Validate a 1-D integer key array in ``[0, p)``; return it as ``uint64``.

    ``caller`` only names the entry point in error messages.
    """
    array = np.asarray(keys)
    if array.ndim != 1:
        raise InvalidParameterError(
            f"{caller} expects a 1-D key array, got {array.ndim} dimension(s)"
        )
    if array.size == 0:
        return array.astype(np.uint64)
    if not np.issubdtype(array.dtype, np.integer):
        raise InvalidParameterError(
            f"{caller} expects integer keys, got dtype {array.dtype}"
        )
    if int(array.min()) < 0 or int(array.max()) >= MERSENNE_PRIME_61:
        raise InvalidParameterError(
            f"{caller} expects keys in [0, 2^61 - 1), got "
            f"[{int(array.min())}, {int(array.max())}]"
        )
    return array.astype(np.uint64, copy=False)


#: SplitMix64's Weyl increment, ``2^64`` over the golden ratio (odd).
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(words: np.ndarray) -> np.ndarray:
    """SplitMix64's output finalizer on every ``uint64`` word (wrapping)."""
    words = (words ^ (words >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    words = (words ^ (words >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return words ^ (words >> np.uint64(31))


def hash_coefficients(seeds: int | np.ndarray, rows: int) -> np.ndarray:
    """The ``(a_i, b_i)`` table of one seed, or of every seed in an array.

    One integer seed gives a ``(rows, 2)`` ``uint64`` table, and a 1-D
    integer array of ``n`` seeds the ``(n, rows, 2)`` stack of the same
    tables, so a bank member's table equals its standalone sketch's.
    Each seed is taken mod ``2^64``.

    The derivation is counter-based: with ``s = mix(seed)``, word ``j`` of
    a seed is ``mix(s + (j + 1)·γ)``, SplitMix64's ``j``-th output
    (``mix`` its finalizer, ``γ`` its increment).  Row ``i`` takes words
    ``2i`` and ``2i + 1`` and maps them to ``a_i ∈ [1, p)`` and
    ``b_i ∈ [0, p)`` by reduction.  Carter–Wegman needs only uniformly
    drawn ``(a_i, b_i)``; each reduction of a uniform 64-bit word is
    within statistical distance ``2^-60`` of uniform on its range.
    """
    if np.ndim(seeds) == 0:
        words = np.array([int(seeds) % (1 << 64)], dtype=np.uint64)
        return hash_coefficients(words, rows)[0]
    words = np.asarray(seeds)
    if words.ndim != 1 or not np.issubdtype(words.dtype, np.integer):
        raise InvalidParameterError(
            f"seeds must be an integer or a 1-D integer array, got dtype "
            f"{words.dtype} with {words.ndim} dimension(s)"
        )
    counters = np.arange(1, 2 * rows + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    draws = _splitmix64(
        _splitmix64(words.astype(np.uint64))[:, np.newaxis] + counters
    ).reshape(words.shape[0], rows, 2)
    draws[..., 0] %= np.uint64(MERSENNE_PRIME_61 - 1)
    draws[..., 0] += np.uint64(1)
    draws[..., 1] %= np.uint64(MERSENNE_PRIME_61)
    return draws


def field_hash(coefficients: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``(rows, m)`` ``uint64`` array: entry ``(i, j)`` is ``h_i(keys[j])``.

    ``keys`` is a validated ``uint64`` block (:func:`as_key_block`).
    """
    return pair_hash(coefficients[:, np.newaxis, :], keys)


def pair_hash(coefficients: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``(a·x + b) mod p`` with ``a = coefficients[..., 0]`` and
    ``b = coefficients[..., 1]`` broadcast against the ``uint64`` ``keys``.

    A sketch bank gathers one coefficient row per (member, key) pair and
    hashes every pair in one pass.
    """
    products = _mulmod_mersenne61(coefficients[..., 0], keys)
    return _addmod_mersenne61(products, coefficients[..., 1])


@functools.lru_cache(maxsize=64)
def _fingerprint_coefficients(seed: int) -> tuple[int, int]:
    """The ``(a, b)`` pair of the row fingerprint seeded by ``seed``."""
    ((a, b),) = hash_coefficients(seed, 1).tolist()
    return a, b


def fingerprint_row(row: Sequence[int], seed: int = 0) -> int:
    """Horner fingerprint of one row of integer symbols in ``GF(2^61 - 1)``.

    Starting from ``b``, each symbol ``x`` maps the value ``h`` to
    ``(h·a + x) mod p``, with ``(a, b)`` drawn from ``seed``
    (:func:`hash_coefficients`).
    """
    a, fingerprint = _fingerprint_coefficients(seed)
    for symbol in row:
        fingerprint = (fingerprint * a + int(symbol)) % MERSENNE_PRIME_61
    return fingerprint


def fingerprint_rows(block: np.ndarray, seed: int = 0) -> np.ndarray:
    """:func:`fingerprint_row` of every row of an ``(m, d)`` integer block."""
    a, b = _fingerprint_coefficients(seed)
    symbols = np.mod(block, MERSENNE_PRIME_61).astype(np.uint64)
    fingerprints = np.full(block.shape[0], b, dtype=np.uint64)
    for column in symbols.T:
        fingerprints = _addmod_mersenne61(
            _mulmod_mersenne61(fingerprints, np.uint64(a)), column
        )
    return fingerprints


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


def _addmod_mersenne61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``(a + b) mod (2^61 - 1)`` for operands already ``< 2^61 - 1``."""
    mersenne = np.uint64(MERSENNE_PRIME_61)
    total = a + b
    return np.where(total >= mersenne, total - mersenne, total)

"""Tests for the seeded Mersenne-61 key hashing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.sketches import CountMinSketch, KMVSketch, StableLpSketch
from repro.sketches.hashing import (
    MERSENNE_PRIME_61,
    _mulmod_mersenne61,
    as_key,
    as_key_block,
    field_hash,
    fingerprint_row,
    fingerprint_rows,
    hash_coefficients,
)

P = MERSENNE_PRIME_61


def _reference(coefficients: np.ndarray, keys) -> list[list[int]]:
    """``(a·x + b) mod p`` per row and key in unbounded Python ints."""
    return [[(a * key + b) % P for key in keys] for a, b in coefficients.tolist()]


class TestCoefficients:
    def test_deterministic_for_same_seed(self):
        assert np.array_equal(hash_coefficients(7, 5), hash_coefficients(7, 5))

    def test_different_seeds_differ(self):
        assert not np.array_equal(hash_coefficients(1, 5), hash_coefficients(2, 5))

    def test_coefficients_lie_in_the_field_with_a_nonzero_slope(self):
        table = hash_coefficients(3, 64)
        assert table.shape == (64, 2) and table.dtype == np.uint64
        assert all(1 <= a < P and 0 <= b < P for a, b in table.tolist())


# --------------------------------------------------------------------------
# Field arithmetic at the key range's edges
#
# The scalar update paths compute (a·x + b) mod p with unbounded Python
# ints; the block kernels compute it in uint64 through split-multiply
# reduction.  Any uint64 wraparound or Mersenne-fold bug shows up as a
# mismatch at these keys.
# --------------------------------------------------------------------------

BOUNDARY_KEYS = [0, 1, 2, 2**32 - 1, 2**32, 2**60, P - 2, P - 1]

HASH_SEEDS = [0, 1, 7, 1234]

#: Every sketch that hashes keys, by seed.
HASHED_SKETCHES = {
    "countmin": lambda seed: CountMinSketch(width=97, depth=3, seed=seed),
    "kmv": lambda seed: KMVSketch(k=4, seed=seed),
    "stable-lp": lambda seed: StableLpSketch(p=1.0, width=8, depth=2, seed=seed),
}


class TestBoundaryKeys:
    @pytest.mark.parametrize("seed", HASH_SEEDS)
    def test_field_hash_matches_scalar_at_boundary_keys(self, seed):
        coefficients = hash_coefficients(seed, 4)
        keys = as_key_block(BOUNDARY_KEYS)
        assert field_hash(coefficients, keys).tolist() == _reference(
            coefficients, BOUNDARY_KEYS
        )

    def test_mersenne_multiples_fold_to_zero(self):
        # A product with p (or 0) as a factor is the field's zero element.
        others = np.array([0, 1, 5, 2**32 + 3, P - 1, P], dtype=np.uint64)
        prime = np.full(others.shape, P, dtype=np.uint64)
        assert _mulmod_mersenne61(prime, others).tolist() == [0] * len(others)
        assert _mulmod_mersenne61(others, prime).tolist() == [0] * len(others)
        zero = np.zeros(others.shape, dtype=np.uint64)
        assert _mulmod_mersenne61(others, zero).tolist() == [0] * len(others)

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_field_hash_fuzz(self, keys, seed):
        coefficients = hash_coefficients(seed, 3)
        assert field_hash(coefficients, as_key_block(keys)).tolist() == _reference(
            coefficients, keys
        )

    @pytest.mark.parametrize("name", sorted(HASHED_SKETCHES))
    @pytest.mark.parametrize("seed", HASH_SEEDS)
    def test_sketch_block_update_matches_scalar_at_boundary_keys(self, seed, name):
        # Keys 0, 1 and p - 1 reach the same state through update_block as
        # through the Python-int scalar update, whatever the coefficients.
        factory = HASHED_SKETCHES[name]
        keys = [0, 1, P - 1]
        scalar, block = factory(seed), factory(seed)
        for key in keys:
            scalar.update(key)
        block.update_block(np.array(keys, dtype=np.uint64))
        for name, value in scalar.state_dict().items():
            assert np.array_equal(block.state_dict()[name], value), name

    @pytest.mark.parametrize("seed", HASH_SEEDS)
    @pytest.mark.parametrize("width", [2, 97, 65_537])
    def test_countmin_buckets_match_the_field_reference(self, width, seed):
        # Row i adds each key's count at ((a_i·x + b_i) mod p) mod width;
        # the reference table is built from the coefficients in Python ints.
        sketch = CountMinSketch(width=width, depth=3, seed=seed)
        counts = np.arange(1, len(BOUNDARY_KEYS) + 1)
        sketch.update_block(as_key_block(BOUNDARY_KEYS), counts)
        coefficients = hash_coefficients(seed, 3)
        expected = np.zeros((3, width), dtype=np.int64)
        for row, hashes in enumerate(_reference(coefficients, BOUNDARY_KEYS)):
            for value, count in zip(hashes, counts.tolist()):
                expected[row, value % width] += count
        assert np.array_equal(sketch.state_dict()["table"], expected)

    @pytest.mark.parametrize("seed", HASH_SEEDS)
    def test_kmv_keeps_the_smallest_field_hashes(self, seed):
        # KMV retains the k smallest of (a·x + b) mod p over distinct keys.
        coefficients = hash_coefficients(seed, 1)
        (hashes,) = _reference(coefficients, BOUNDARY_KEYS)
        for k in (2, 5, len(BOUNDARY_KEYS) + 1):
            sketch = KMVSketch(k=k, seed=seed)
            sketch.update_block(as_key_block(BOUNDARY_KEYS * 2))
            assert list(sketch.minimum_values()) == sorted(hashes)[:k]

    def test_block_kernels_reject_bad_key_arrays(self):
        sketch = CountMinSketch(width=256, depth=2, seed=0)
        with pytest.raises(InvalidParameterError, match="1-D"):
            sketch.update_block(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InvalidParameterError, match="integer keys"):
            sketch.update_block(np.zeros(4, dtype=np.float64))
        with pytest.raises(InvalidParameterError, match="integer keys"):
            sketch.estimate_block(np.array(["a", "b"]))
        with pytest.raises(InvalidParameterError, match=r"\[0, 2\^61 - 1\)"):
            sketch.update_block(np.array([3, -1], dtype=np.int64))
        with pytest.raises(InvalidParameterError, match=r"\[0, 2\^61 - 1\)"):
            sketch.estimate_block(np.array([P], dtype=np.uint64))
        with pytest.raises(InvalidParameterError, match=r"\[0, 2\^61 - 1\)"):
            as_key(P)
        with pytest.raises(InvalidParameterError, match=r"\[0, 2\^61 - 1\)"):
            as_key("a")
        assert sketch.items_processed == 0
        assert as_key_block([]).shape == (0,)


@settings(max_examples=25, deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=30),
    width=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_row_fingerprints_match_scalar(n_rows, width, seed):
    """The partitioner's block fingerprints equal the per-row Horner loop,
    negative and int64-extreme symbols included."""
    rng = np.random.default_rng(seed)
    extremes = np.iinfo(np.int64)
    block = rng.integers(extremes.min, extremes.max, size=(n_rows, width), endpoint=True)
    assert fingerprint_rows(block, seed).tolist() == [
        fingerprint_row(row, seed) for row in block.tolist()
    ]


# --------------------------------------------------------------------------
# Every hashed sketch refuses what is not a key, before its state changes
# --------------------------------------------------------------------------

BAD_KEY_BLOCKS = {
    "2-D": np.zeros((2, 2), dtype=np.int64),
    "float": np.array([0.0, 1.5]),
    "strings": np.array(["a", "b"]),
    "negative": np.array([3, -1], dtype=np.int64),
    "prime": np.array([0, P], dtype=np.uint64),
    "uint64-top": np.array([2**64 - 1], dtype=np.uint64),
}

BAD_SCALAR_KEYS = {
    "float": 1.5,
    "string": "a",
    "tuple": (1, 2),
    "ndarray": np.array([1, 2, 3]),
    "negative": -1,
    "prime": P,
}


def _fed(name: str):
    """A hashed sketch that has already seen a few keys."""
    sketch = HASHED_SKETCHES[name](3)
    sketch.update_block(np.array([5, 9, 5, P - 1], dtype=np.uint64))
    return sketch


def _assert_unchanged(sketch, name: str) -> None:
    want, got = _fed(name).state_dict(), sketch.state_dict()
    assert want.keys() == got.keys()
    for field in want:
        assert np.array_equal(want[field], got[field]), field


@pytest.mark.parametrize("name", sorted(HASHED_SKETCHES))
@pytest.mark.parametrize("case", sorted(BAD_KEY_BLOCKS))
def test_hashed_sketches_refuse_malformed_key_blocks(case, name):
    sketch = _fed(name)
    with pytest.raises(InvalidParameterError, match="update_block expects"):
        sketch.update_block(BAD_KEY_BLOCKS[case])
    _assert_unchanged(sketch, name)


@pytest.mark.parametrize("name", sorted(HASHED_SKETCHES))
@pytest.mark.parametrize("case", sorted(BAD_SCALAR_KEYS))
def test_hashed_sketches_refuse_malformed_scalar_keys(case, name):
    sketch = _fed(name)
    with pytest.raises(InvalidParameterError, match=r"integer in \[0, 2\^61 - 1\)"):
        sketch.update(BAD_SCALAR_KEYS[case])
    _assert_unchanged(sketch, name)

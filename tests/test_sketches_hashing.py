"""Tests for the hash-function families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.sketches.hashing import (
    MERSENNE_PRIME_61,
    HashFamily,
    PolynomialHash,
    hash_to_unit_interval,
    stable_hash64,
    stable_hash64_patterns,
)


class TestStableHash:
    def test_deterministic_for_same_seed(self):
        assert stable_hash64("item", 7) == stable_hash64("item", 7)

    def test_different_seeds_differ(self):
        assert stable_hash64("item", 1) != stable_hash64("item", 2)

    def test_distinct_types_do_not_collide_trivially(self):
        assert stable_hash64("1") != stable_hash64(1)
        assert stable_hash64((1, 2)) != stable_hash64((2, 1))

    def test_nested_tuples_supported(self):
        assert isinstance(stable_hash64(((1, "a"), (0, 1, 0))), int)

    def test_unit_interval_range(self):
        values = [hash_to_unit_interval(i, seed=3) for i in range(200)]
        assert all(0 <= v < 1 for v in values)
        # Roughly uniform: the mean of 200 uniform draws is near 1/2.
        assert 0.35 < sum(values) / len(values) < 0.65


class TestPolynomialHash:
    def test_range_restriction(self):
        h = PolynomialHash(independence=2, range_size=97, seed=2)
        assert all(0 <= h(i) < 97 for i in range(300))

    def test_independence_validation(self):
        with pytest.raises(InvalidParameterError):
            PolynomialHash(independence=1)

    def test_deterministic(self):
        a = PolynomialHash(independence=3, range_size=50, seed=4)
        b = PolynomialHash(independence=3, range_size=50, seed=4)
        assert [a(i) for i in range(20)] == [b(i) for i in range(20)]


class TestHashFamily:
    def test_draws_are_independent_functions(self):
        family = HashFamily(seed=42)
        first = family.polynomial(range_size=1000)
        second = family.polynomial(range_size=1000)
        outputs_first = [first(i) for i in range(50)]
        outputs_second = [second(i) for i in range(50)]
        assert outputs_first != outputs_second

    def test_same_master_seed_reproduces_the_family(self):
        one = HashFamily(seed=3)
        two = HashFamily(seed=3)
        assert [one.polynomial(range_size=64)(i) for i in range(20)] == [
            two.polynomial(range_size=64)(i) for i in range(20)
        ]

    def test_draw_seeds(self):
        family = HashFamily(seed=1)
        seeds = family.draw_seeds(5)
        assert len(seeds) == len(set(seeds)) == 5
        with pytest.raises(InvalidParameterError):
            family.draw_seeds(-1)


# --------------------------------------------------------------------------
# uint64-boundary fuzzing of the block kernels
#
# The scalar ``__call__`` paths first key items through BLAKE2b
# (``stable_hash64``), so boundary *keys* cannot be reached from items.
# These tests inject raw uint64 keys straight into ``evaluate_block`` /
# ``field_value_block`` and compare against unbounded
# python-int reference arithmetic rebuilt from each instance's parameters.
# Any uint64 wraparound, signed-cast, or Mersenne-fold bug in the numpy
# kernels shows up as a mismatch at these keys.
# --------------------------------------------------------------------------

BOUNDARY_KEYS = [
    0,
    1,
    2,
    2**61 - 2,
    2**61 - 1,  # the Mersenne prime itself: folds to 0 in GF(2^61 - 1)
    2**61,
    2**62,
    2**63 - 1,  # int64 max: one past it flips the sign bit
    2**63,
    2**63 + 1,
    2**64 - 2,
    2**64 - 1,
]

HASH_SEEDS = [0, 1, 7, 1234]


def _field_value_reference(h: PolynomialHash, key: int) -> int:
    key %= MERSENNE_PRIME_61
    value = 0
    for coefficient in h._coefficients:
        value = (value * key + coefficient) % MERSENNE_PRIME_61
    return value


def _keys_array(keys) -> np.ndarray:
    return np.array(list(keys), dtype=np.uint64)


class TestBoundaryKeys:
    @pytest.mark.parametrize("seed", HASH_SEEDS)
    @pytest.mark.parametrize("independence", [2, 4])
    def test_polynomial_field_value_block_at_boundaries(self, seed, independence):
        h = PolynomialHash(independence=independence, seed=seed)
        block = h.field_value_block(_keys_array(BOUNDARY_KEYS))
        expected = [_field_value_reference(h, key) for key in BOUNDARY_KEYS]
        assert block.tolist() == expected

    @pytest.mark.parametrize("seed", HASH_SEEDS)
    @pytest.mark.parametrize("range_size", [2, 97, 2**31])
    def test_polynomial_evaluate_block_at_boundaries(self, seed, range_size):
        h = PolynomialHash(independence=3, range_size=range_size, seed=seed)
        block = h.evaluate_block(_keys_array(BOUNDARY_KEYS))
        expected = [
            _field_value_reference(h, key) % range_size for key in BOUNDARY_KEYS
        ]
        assert block.tolist() == expected

    def test_mersenne_multiples_fold_to_zero(self):
        # Keys that are multiples of 2^61 - 1 reduce to the zero element,
        # so the polynomial collapses to its constant coefficient.
        h = PolynomialHash(independence=5, seed=3)
        multiples = [0, MERSENNE_PRIME_61, 2 * MERSENNE_PRIME_61, 8 * MERSENNE_PRIME_61]
        block = h.field_value_block(_keys_array(multiples))
        assert block.tolist() == [h._coefficients[-1]] * len(multiples)

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_polynomial_fuzz(self, keys, seed):
        h = PolynomialHash(independence=3, range_size=101, seed=seed)
        array = _keys_array(keys)
        values = [_field_value_reference(h, key) for key in keys]
        assert h.field_value_block(array).tolist() == values
        assert h.evaluate_block(array).tolist() == [v % 101 for v in values]

    @pytest.mark.parametrize("seed", HASH_SEEDS)
    def test_item_level_block_matches_scalar_calls(self, seed):
        # End to end: packing items into a block, keying it through
        # stable_hash64_patterns, and evaluating the block kernels must
        # reproduce the scalar __call__ results item by item.
        rng = np.random.default_rng(seed)
        block = rng.integers(0, 50, size=(64, 3), dtype=np.int64)
        items = [tuple(row) for row in block.tolist()]
        poly = PolynomialHash(independence=4, range_size=127, seed=seed + 1)
        poly_keys = stable_hash64_patterns(block, poly.seed)
        assert poly.evaluate_block(poly_keys).tolist() == [
            poly(item) for item in items
        ]

    def test_block_kernels_reject_bad_key_arrays(self):
        h = PolynomialHash(independence=2, range_size=256, seed=0)
        with pytest.raises(InvalidParameterError, match="1-D"):
            h.evaluate_block(np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(InvalidParameterError, match="uint64"):
            h.evaluate_block(np.zeros(4, dtype=np.int64))

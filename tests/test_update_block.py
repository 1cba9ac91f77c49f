"""Property tests for the counted ``update_block`` sketch kernels.

The contract behind the vectorized ingest path: for every sketch,
``update_block(items, counts)`` must leave the summary in the same state as
the sequential loop ``for item, count in zip(items, counts): update(item,
count)``.  For every sketch (Count-Min, KMV, StableLp, fed integer keys)
and the reservoir samplers (fed rows) the equivalence is *bit-identical* —
asserted here on the full ``state_dict()``, across random seeds,
duplicate-heavy blocks, empty blocks and explicit multiplicities.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.sketches import (
    CountMinSketch,
    KMVSketch,
    ReservoirSampler,
    StableLpSketch,
    WithReplacementSampler,
    collapse_block,
)
from repro.sketches.base import _pattern_codes

# Small widths/depths keep the exhaustive per-item reference loops fast; the
# kernels themselves are parameter-independent.  The variants cover the
# other branches a kernel takes: a single Count-Min row, a KMV whose k
# exceeds every block's distinct count (it never evicts), and the Gaussian
# (p = 2) and general (p = 0.5) stable samplers beside the Cauchy one.
ORDER_INDEPENDENT = {
    "countmin": lambda seed: CountMinSketch(width=29, depth=3, seed=seed),
    "countmin-depth1": lambda seed: CountMinSketch(width=13, depth=1, seed=seed),
    "kmv": lambda seed: KMVSketch(k=12, seed=seed),
    "kmv-unsaturated": lambda seed: KMVSketch(k=512, seed=seed),
    "stable-lp": lambda seed: StableLpSketch(p=1.0, width=12, depth=2, seed=seed),
    "stable-lp-p2": lambda seed: StableLpSketch(p=2.0, width=12, depth=2, seed=seed),
    "stable-lp-p0.5": lambda seed: StableLpSketch(p=0.5, width=12, depth=2, seed=seed),
}

#: The samplers' kernels replay their stream in the given order, so they are
#: bit-identical to the sequential loop but not to a collapsed batch.
SAMPLERS = {
    "reservoir": lambda seed: ReservoirSampler(capacity=7, seed=seed),
    "with-replacement": lambda seed: WithReplacementSampler(draws=5, seed=seed),
}
BIT_IDENTICAL = {**ORDER_INDEPENDENT, **SAMPLERS}


def assert_state_dicts_equal(expected: dict, actual: dict, context: str) -> None:
    """Exact (bit-level) equality of two ``state_dict`` values."""
    assert expected.keys() == actual.keys(), context
    for key in expected:
        want, got = expected[key], actual[key]
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), f"{context}: {key} type"
            assert want.dtype == got.dtype, f"{context}: {key} dtype"
            assert np.array_equal(want, got), f"{context}: {key} values"
        else:
            assert type(want) is type(got), f"{context}: {key} type"
            assert want == got, f"{context}: {key} values"


def _sequential_reference(factory, seed, items, counts):
    sketch = factory(seed)
    effective = [1] * len(items) if counts is None else list(counts)
    for item, count in zip(items.tolist(), effective):
        sketch.update(tuple(item) if items.ndim == 2 else item, int(count))
    return sketch


def _batch(name, rng, n_items, value_span, width=3):
    """``n_items`` integer keys for a hashed sketch, or rows for a sampler,
    with ``value_span`` distinct values per key column."""
    if name in SAMPLERS:
        return rng.integers(-value_span, value_span, size=(n_items, width))
    return rng.integers(0, 2 * value_span, size=n_items)


# -- order-independent kernels and samplers: bit-identical to the sequential loop --


@pytest.mark.parametrize("name", sorted(BIT_IDENTICAL))
@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    n_items=st.integers(min_value=0, max_value=60),
    value_span=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=1000),
    with_counts=st.booleans(),
)
def test_update_block_is_bit_identical(name, data, n_items, value_span, seed, with_counts):
    """``update_block`` ≡ sequential ``update`` on the same (item, count) batch.

    ``value_span`` small relative to ``n_items`` makes blocks duplicate-heavy,
    exercising the ``np.unique`` collapse; ``n_items = 0`` exercises empty
    blocks.
    """
    factory = BIT_IDENTICAL[name]
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10_000)))
    block = _batch(name, rng, n_items, value_span)
    counts = (
        rng.integers(1, 5, size=n_items, dtype=np.int64) if with_counts else None
    )
    reference = _sequential_reference(factory, seed, block, counts)
    batched = factory(seed)
    batched.update_block(block, counts)
    assert_state_dicts_equal(
        reference.state_dict(),
        batched.state_dict(),
        f"{name} seed={seed} n={n_items}",
    )
    assert batched.items_processed == reference.items_processed


@pytest.mark.parametrize("name", sorted(BIT_IDENTICAL))
def test_update_block_split_points_do_not_matter(name):
    """Any chunking of the same stream lands in the same state (integer
    sketches) / answers identically (StableLp float counters are only
    guaranteed bitwise-stable for identical chunkings)."""
    factory = BIT_IDENTICAL[name]
    rng = np.random.default_rng(7)
    block = rng.integers(0, 9, size=(120, 4))
    if name not in SAMPLERS:
        block = block @ 9 ** np.arange(4)
    whole = factory(5)
    whole.update_block(block)
    chunked = factory(5)
    for start, stop in ((0, 13), (13, 14), (14, 90), (90, 120)):
        chunked.update_block(block[start:stop])
    if name.startswith("stable-lp"):
        assert np.allclose(
            whole.state_dict()["counters"], chunked.state_dict()["counters"]
        )
        assert whole.items_processed == chunked.items_processed
    else:
        assert_state_dicts_equal(
            whole.state_dict(), chunked.state_dict(), f"{name} chunked"
        )


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(ORDER_INDEPENDENT) if not n.startswith("stable-lp")],
)
def test_update_block_accepts_pre_collapsed_batches(name):
    """Deduplicated counted batches (the α-net path) are bit-identical too
    for the integer-state sketches — counted scatter commutes exactly."""
    factory = ORDER_INDEPENDENT[name]
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 6**3, size=80)
    reference = _sequential_reference(factory, 11, keys, None)
    unique, counts = np.unique(keys, return_counts=True)
    assert unique.shape[0] < keys.shape[0]  # the workload is duplicate-heavy
    collapsed = factory(11)
    collapsed.update_block(unique, counts)
    assert_state_dicts_equal(
        reference.state_dict(), collapsed.state_dict(), f"{name} collapsed"
    )


def test_update_block_validates_input():
    sketch = CountMinSketch(width=17, depth=2, seed=1)
    with pytest.raises(InvalidParameterError):
        sketch.update_block(np.zeros((4, 2), dtype=np.int64))  # 2-D
    with pytest.raises(InvalidParameterError):
        sketch.update_block(np.zeros(3, dtype=np.float64))  # dtype
    with pytest.raises(InvalidParameterError):
        sketch.update_block(np.zeros(3, dtype=np.int64), counts=[1, 2])  # length
    with pytest.raises(InvalidParameterError):
        sketch.update_block(np.zeros(3, dtype=np.int64), counts=[1, 0, 2])  # < 1
    with pytest.raises(InvalidParameterError):
        sketch.update_block(
            np.zeros(2, dtype=np.int64), counts=np.array([[1], [2]])
        )  # 2-D counts
    sketch.update_block(np.zeros(0, dtype=np.int64))  # empty block is a no-op
    assert sketch.items_processed == 0


def test_update_block_rejects_unrepresentable_uint64():
    """Keys at or above 2^61 - 1 name no field element and are refused,
    whatever their dtype; in-range uint64 keys update like Python ints."""
    sketch = CountMinSketch(width=17, depth=2, seed=1)
    with pytest.raises(InvalidParameterError, match="2\\^61"):
        sketch.update_block(np.array([2**63 + 5], dtype=np.uint64))
    with pytest.raises(InvalidParameterError, match="2\\^61"):
        sketch.update_block(np.array([2**61 - 1], dtype=np.int64))
    keys = np.array([7, 2**40, 7, 2**61 - 2], dtype=np.uint64)
    reference = CountMinSketch(width=17, depth=2, seed=1)
    for key in keys.tolist():
        reference.update(key)
    sketch.update_block(keys)
    assert_state_dicts_equal(reference.state_dict(), sketch.state_dict(), "uint64")


# -- scalar key check ---------------------------------------------------------------


@pytest.mark.parametrize("factory", [CountMinSketch])
def test_point_sketches_reject_unhashable_items(factory):
    """ndarray rows slipping through the integer-key hint raise a clear
    error naming the offending type instead of a bare ``TypeError``."""
    sketch = factory(width=17, depth=2, seed=0)
    with pytest.raises(InvalidParameterError, match="ndarray"):
        sketch.update(np.array([1, 2, 3]))


# -- projected-count kernel ---------------------------------------------------------


def test_collapse_block_gives_a_shuffled_block_the_same_keys_in_the_same_order():
    block = np.array([[2, 2], [0, 1], [2, 2], [0, 0], [0, 1], [2, 2]], dtype=np.int64)
    weights = np.array([1, 2, 3, 4, 5, 6])
    unique, counts = collapse_block(block)
    assert unique.tolist() == [[0, 0], [0, 1], [2, 2]]
    assert counts.tolist() == [1, 2, 3]
    weighted, summed = collapse_block(block, weights)
    assert weighted.tolist() == [[0, 0], [0, 1], [2, 2]]
    assert summed.tolist() == [4, 7, 10]
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(block.shape[0])
        shuffled, shuffled_sums = collapse_block(block[order], weights[order])
        assert shuffled.tolist() == weighted.tolist()
        assert shuffled_sums.tolist() == summed.tolist()


_INT64 = np.iinfo(np.int64)

#: Seeded blocks for the packed-code kernel, by the case each exercises.
#: The int64-extreme blocks have a radix product above 2^62 and must take
#: the ``np.unique(axis=0)`` fallback; every other block is packed.
COLLAPSE_BLOCKS = {
    "negative": lambda rng: rng.integers(-7, 3, size=(300, 4)),
    "constant-column": lambda rng: np.column_stack(
        [rng.integers(0, 3, size=(200, 2)), np.full(200, -5), rng.integers(0, 2, 200)]
    ),
    "width-0": lambda rng: np.zeros((25, 0), dtype=np.int64),
    "width-1": lambda rng: rng.integers(-2, 6, size=(100, 1)),
    "width-10": lambda rng: rng.integers(0, 2, size=(1024, 10)),
    "int64-extremes": lambda rng: np.array(
        [[_INT64.min, 0], [_INT64.max, 1], [_INT64.min, 0], [5, 1]]
    ),
    "int64-extremes-random": lambda rng: rng.integers(
        _INT64.min, _INT64.max, size=(200, 3), endpoint=True
    ),
}


@pytest.mark.parametrize("counted", [False, True], ids=["unit", "counted"])
@pytest.mark.parametrize("name", list(COLLAPSE_BLOCKS))
def test_collapse_block_matches_the_structured_reference(name, counted):
    """Packed codes give np.unique(axis=0)'s rows, order and summed counts."""
    rng = np.random.default_rng(31)
    block = np.asarray(COLLAPSE_BLOCKS[name](rng), dtype=np.int64)
    counts = rng.integers(1, 9, size=block.shape[0]) if counted else None
    assert (_pattern_codes(block) is None) == name.startswith("int64-extremes")
    expected, inverse = np.unique(block, axis=0, return_inverse=True)
    expected_sums = np.zeros(expected.shape[0], dtype=np.int64)
    np.add.at(expected_sums, inverse, 1 if counts is None else counts)
    unique, sums = collapse_block(block, counts)
    assert unique.dtype == expected.dtype
    assert unique.shape == expected.shape
    assert unique.tolist() == expected.tolist()
    assert sums.tolist() == expected_sums.tolist()

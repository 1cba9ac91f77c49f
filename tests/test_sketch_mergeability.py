"""Property tests for sketch mergeability.

For every mergeable sketch in :mod:`repro.sketches` these tests pin down the
contract the sharded engine relies on: merging summaries of two streams must
answer like summarising the concatenated stream (every merge here is
lossless: linear sketches and hash-state unions), and the samplers must
merge into uniform samples of the union.  Merging structurally incompatible
configurations must raise, and leave the target's state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.sketches.base import MergeableSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch
from repro.sketches.reservoir import (
    ReservoirSampler,
    WithReplacementSampler,
)
from repro.sketches.stable_lp import StableLpSketch

# Two overlapping multisets of keys with skew, so merges see shared and
# disjoint keys; HOT is the heavy key.
HOT = 99
STREAM_ONE = [i % 23 for i in range(180)] + [HOT] * 40
STREAM_TWO = [i % 31 for i in range(160)] + [HOT] * 25
UNION = STREAM_ONE + STREAM_TWO
EXACT_COUNTS: dict[int, int] = {}
for _item in UNION:
    EXACT_COUNTS[_item] = EXACT_COUNTS.get(_item, 0) + 1


@dataclass(frozen=True)
class MergeCase:
    """One sketch family's merge contract."""

    name: str
    make: Callable[[], MergeableSketch]
    #: Factories whose products must refuse to merge with ``make()``'s.
    incompatible: tuple[Callable[[], MergeableSketch], ...] = field(default=())


CASES = [
    MergeCase(
        "kmv",
        lambda: KMVSketch(k=48, seed=1),
        incompatible=(lambda: KMVSketch(k=24, seed=1), lambda: KMVSketch(k=48, seed=2)),
    ),
    MergeCase(
        "count-min",
        lambda: CountMinSketch(width=128, depth=4, seed=1),
        incompatible=(
            lambda: CountMinSketch(width=64, depth=4, seed=1),
            lambda: CountMinSketch(width=128, depth=4, seed=2),
        ),
    ),
    MergeCase(
        "stable-lp",
        lambda: StableLpSketch(p=1.5, width=24, depth=3, seed=1),
        incompatible=(
            lambda: StableLpSketch(p=1.0, width=24, depth=3, seed=1),
            lambda: StableLpSketch(p=1.5, width=24, depth=3, seed=2),
        ),
    ),
    # k above the union's 32 distinct items: the merge keeps every hash.
    MergeCase(
        "kmv-unsaturated",
        lambda: KMVSketch(k=256, seed=1),
        incompatible=(lambda: KMVSketch(k=128, seed=1), lambda: KMVSketch(k=256, seed=3)),
    ),
    MergeCase(
        "count-min-depth1",
        lambda: CountMinSketch(width=16, depth=1, seed=1),
        incompatible=(
            lambda: CountMinSketch(width=16, depth=2, seed=1),
            lambda: CountMinSketch(width=16, depth=1, seed=3),
        ),
    ),
    MergeCase(
        "stable-lp-cauchy",
        lambda: StableLpSketch(p=1.0, width=24, depth=3, seed=1),
        incompatible=(
            lambda: StableLpSketch(p=1.0, width=12, depth=3, seed=1),
            lambda: StableLpSketch(p=1.0, width=24, depth=2, seed=1),
        ),
    ),
    MergeCase(
        "stable-lp-gaussian",
        lambda: StableLpSketch(p=2.0, width=24, depth=3, seed=1),
        incompatible=(
            lambda: StableLpSketch(p=1.5, width=24, depth=3, seed=1),
            lambda: StableLpSketch(p=2.0, width=24, depth=3, seed=3),
        ),
    ),
    MergeCase(
        "stable-lp-p0.5",
        lambda: StableLpSketch(p=0.5, width=24, depth=3, seed=1),
        incompatible=(
            lambda: StableLpSketch(p=2.0, width=24, depth=3, seed=1),
            lambda: StableLpSketch(p=0.5, width=24, depth=4, seed=1),
        ),
    ),
]


def _feed(sketch: MergeableSketch, items) -> None:
    """One ``update`` per item, in order."""
    for item in items:
        sketch.update(item)


def _state(sketch: MergeableSketch) -> dict:
    """``state_dict()`` with arrays as lists, so two states compare with ``==``."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in sketch.state_dict().items()
    }


def _answers(sketch: MergeableSketch) -> list[float]:
    """The sketch's estimates, in a form comparable across instances."""
    if isinstance(sketch, CountMinSketch):
        return [float(sketch.estimate(item)) for item in sorted(EXACT_COUNTS)]
    return [float(sketch.estimate())]


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_merge_matches_union_stream(case: MergeCase) -> None:
    first, second, union = case.make(), case.make(), case.make()
    _feed(first, STREAM_ONE)
    _feed(second, STREAM_TWO)
    _feed(union, UNION)

    first.merge(second)
    assert first.items_processed == union.items_processed == len(UNION)
    # Equal up to float summation order (counter merges add in a
    # different order than streaming the union).
    assert _answers(first) == pytest.approx(_answers(union), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_merge_incompatible_configs_raise(case: MergeCase) -> None:
    for make_other in case.incompatible:
        sketch, other = case.make(), make_other()
        _feed(sketch, STREAM_ONE)
        _feed(other, STREAM_TWO)
        before = _state(sketch)
        with pytest.raises(InvalidParameterError):
            sketch.merge(other)
        assert _state(sketch) == before


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_merge_rejects_foreign_sketch_type(case: MergeCase) -> None:
    sketch = case.make()
    _feed(sketch, STREAM_ONE)
    foreign: MergeableSketch = (
        KMVSketch(k=8, seed=0)
        if not isinstance(sketch, KMVSketch)
        else CountMinSketch(width=8, depth=2, seed=0)
    )
    _feed(foreign, STREAM_TWO)
    before = _state(sketch)
    with pytest.raises(InvalidParameterError):
        sketch.merge(foreign)  # type: ignore[arg-type]
    assert _state(sketch) == before


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(st.integers(min_value=0, max_value=40), max_size=120),
    split=st.integers(min_value=0, max_value=120),
)
def test_linear_sketch_merge_is_split_invariant(items: list[int], split: int) -> None:
    """Splitting a stream anywhere and merging gives the very same Count-Min."""
    split = min(split, len(items))
    left, right = CountMinSketch(width=32, depth=3, seed=9), CountMinSketch(
        width=32, depth=3, seed=9
    )
    whole = CountMinSketch(width=32, depth=3, seed=9)
    _feed(left, items[:split])
    _feed(right, items[split:])
    _feed(whole, items)
    left.merge(right)
    assert left.items_processed == whole.items_processed
    assert all(left.estimate(item) == whole.estimate(item) for item in set(items))


def test_kmv_state_does_not_depend_on_arrival_or_merge_order() -> None:
    """Serial, reversed, a<-b and b<-a builds of one stream hold one state."""
    rows = np.random.default_rng(7).integers(0, 40, size=(3_000, 3))
    items = (rows @ [40 * 40, 40, 1]).tolist()

    def build(stream: list) -> KMVSketch:
        sketch = KMVSketch(k=64, seed=5)
        _feed(sketch, stream)
        return sketch

    a_into_b = build(items[:1_700])
    a_into_b.merge(build(items[1_700:]))
    b_into_a = build(items[1_700:])
    b_into_a.merge(build(items[:1_700]))
    sketches = (build(items), build(items[::-1]), a_into_b, b_into_a)
    states = [_state(sketch) for sketch in sketches]
    assert all(state == states[0] for state in states[1:])
    assert len(list(sketches[0].minimum_values())) == 64


# -- sampler merges (the substrate of the uniform-sample estimator) -------------


def test_reservoir_merge_respects_capacity_and_membership() -> None:
    first = ReservoirSampler[int](capacity=32, seed=1)
    second = ReservoirSampler[int](capacity=32, seed=2)
    _feed(first, range(100))
    _feed(second, range(100, 250))
    first.merge(second)
    assert first.items_processed == 250
    merged = first.sample()
    assert len(merged) == 32
    assert set(merged) <= set(range(250))


def test_reservoir_merge_small_streams_concatenates() -> None:
    first = ReservoirSampler[int](capacity=32, seed=1)
    second = ReservoirSampler[int](capacity=32, seed=2)
    _feed(first, range(10))
    _feed(second, range(10, 15))
    first.merge(second)
    assert sorted(first.sample()) == list(range(15))


def test_reservoir_merge_is_statistically_uniform() -> None:
    """Inclusion frequency of each half of the union is near t/(n1+n2)."""
    hits = 0
    trials = 200
    for seed in range(trials):
        first = ReservoirSampler[int](capacity=10, seed=seed)
        second = ReservoirSampler[int](capacity=10, seed=1000 + seed)
        _feed(first, range(50))
        _feed(second, range(50, 100))
        first.merge(second)
        hits += sum(1 for item in first.sample() if item < 50)
    # E[hits per trial] = 5; allow a generous band around it.
    assert 4.0 < hits / trials < 6.0


def test_reservoir_merge_is_uniform_over_unequal_streams() -> None:
    """Per-element inclusion probability after merging unequal-length
    streams is ``t / (n1 + n2)``, element by element.

    This is the statistical guard on the merge implementation: the earlier
    weight-rescaling loop passed the aggregate 50/50 check above but gave
    elements of the *shorter* stream ~18% too much inclusion mass on a
    18/42 split.  The hypergeometric split must keep every element within
    binomial noise of the uniform rate, and the first-stream share within
    noise of ``n1 / (n1 + n2)``.
    """
    capacity, n_first, n_second = 6, 18, 42
    total = n_first + n_second
    trials = 3000
    inclusion = [0] * total
    from_first = 0
    for trial in range(trials):
        first = ReservoirSampler[int](capacity=capacity, seed=2 * trial + 1)
        second = ReservoirSampler[int](capacity=capacity, seed=2 * trial + 2)
        _feed(first, range(n_first))
        _feed(second, range(n_first, total))
        first.merge(second)
        sample = first.sample()
        assert len(sample) == capacity
        for item in sample:
            inclusion[item] += 1
            if item < n_first:
                from_first += 1
    expected = capacity / total
    # Per-element frequencies: each is Binomial(trials, p)/trials with
    # sigma ~ 0.0055 here; a 5-sigma band catches the old bias (which
    # pushed short-stream elements ~4 sigma high *systematically*) while
    # keeping the false-alarm rate over 60 elements negligible.
    sigma = (expected * (1 - expected) / trials) ** 0.5
    for element, count in enumerate(inclusion):
        frequency = count / trials
        assert abs(frequency - expected) < 5 * sigma, (
            f"element {element}: inclusion {frequency:.4f} vs expected "
            f"{expected:.4f} (tolerance {5 * sigma:.4f})"
        )
    # The first stream's share of the merged sample: E = n1/(n1+n2), and a
    # chi-square-style z-test on the aggregate count.
    share = from_first / (trials * capacity)
    share_sigma = (
        (n_first / total) * (n_second / total) / (trials * capacity)
    ) ** 0.5
    assert abs(share - n_first / total) < 5 * share_sigma, (
        f"stream-1 share {share:.4f} vs expected {n_first / total:.4f}"
    )


def test_with_replacement_merge_draw_distribution() -> None:
    first = WithReplacementSampler[int](draws=16, seed=3)
    second = WithReplacementSampler[int](draws=16, seed=4)
    _feed(first, range(30))
    _feed(second, range(30, 90))
    first.merge(second)
    assert first.items_processed == 90
    merged = first.sample()
    assert len(merged) == 16
    assert set(merged) <= set(range(90))


def test_with_replacement_merge_with_empty_side() -> None:
    first = WithReplacementSampler[int](draws=8, seed=3)
    second = WithReplacementSampler[int](draws=8, seed=4)
    _feed(second, range(20))
    first.merge(second)
    assert first.items_processed == 20
    assert len(first.sample()) == 8


@pytest.mark.parametrize(
    "make_one, make_other",
    [
        (
            lambda: ReservoirSampler[int](capacity=8, seed=0),
            lambda: ReservoirSampler[int](capacity=4, seed=0),
        ),
        (
            lambda: WithReplacementSampler[int](draws=8, seed=0),
            lambda: WithReplacementSampler[int](draws=4, seed=0),
        ),
        (
            lambda: ReservoirSampler[int](capacity=8, seed=0),
            lambda: WithReplacementSampler[int](draws=8, seed=0),
        ),
    ],
)
def test_sampler_merge_incompatibilities_raise(make_one, make_other) -> None:
    one, other = make_one(), make_other()
    _feed(one, range(10))
    _feed(other, range(10))
    before = _state(one)
    with pytest.raises(InvalidParameterError):
        one.merge(other)
    assert _state(one) == before

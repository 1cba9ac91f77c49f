"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.entropy import binary_entropy, exact_net_size, net_size_bound
from repro.coding.alphabet import AlphabetReduction
from repro.coding.star import star, star_size
from repro.coding.words import (
    index_to_word,
    intersection_size,
    project_word,
    support,
    weight,
    word_to_index,
)
from repro.core.dataset import ColumnQuery, Dataset
from repro.core.frequency import FrequencyVector
from repro.core.rounding import AlphaNet
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

binary_words = st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple)
small_alphabets = st.integers(min_value=2, max_value=5)


@st.composite
def datasets(draw):
    """Small random datasets with an accompanying valid column query."""
    n_columns = draw(st.integers(2, 6))
    n_rows = draw(st.integers(1, 40))
    alphabet = draw(st.integers(2, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, alphabet - 1), min_size=n_columns, max_size=n_columns),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    columns = draw(
        st.sets(st.integers(0, n_columns - 1), min_size=1, max_size=n_columns)
    )
    dataset = Dataset(np.array(rows), alphabet_size=alphabet)
    return dataset, ColumnQuery.of(columns, n_columns)


# ---------------------------------------------------------------------------
# Word / coding invariants
# ---------------------------------------------------------------------------


class TestWordProperties:
    @given(binary_words)
    def test_weight_equals_support_size(self, word):
        assert weight(word) == len(support(word))

    @given(binary_words, binary_words)
    def test_intersection_is_symmetric_and_bounded(self, first, second):
        if len(first) != len(second):
            return
        forward = intersection_size(first, second)
        assert forward == intersection_size(second, first)
        assert forward <= min(weight(first), weight(second))

    @given(st.integers(0, 2**12 - 1), st.integers(2, 4))
    def test_index_word_roundtrip(self, index, alphabet):
        length = 6
        index = index % (alphabet**length)
        word = index_to_word(index, length, alphabet)
        assert word_to_index(word, alphabet) == index

    @given(binary_words, small_alphabets)
    def test_star_size_matches_enumeration(self, word, alphabet):
        if weight(word) > 6:  # keep enumeration small
            return
        children = list(star(word, alphabet))
        assert len(children) == star_size(word, alphabet)
        assert len(set(children)) == len(children)
        assert all(support(child) <= support(word) for child in children)

    @given(st.integers(2, 30), st.integers(2, 5))
    def test_alphabet_reduction_roundtrip(self, source, target):
        if target > source:
            return
        reduction = AlphabetReduction(source_size=source, target_size=target)
        for symbol in range(source):
            assert reduction.decode_symbol(reduction.encode_symbol(symbol)) == symbol


# ---------------------------------------------------------------------------
# Frequency-vector invariants
# ---------------------------------------------------------------------------


class TestFrequencyProperties:
    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_f1_equals_row_count_for_any_projection(self, data):
        dataset, query = data
        frequencies = FrequencyVector.from_dataset(dataset, query)
        assert frequencies.total_rows() == dataset.n_rows

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_f0_bounds(self, data):
        dataset, query = data
        frequencies = FrequencyVector.from_dataset(dataset, query)
        f0 = frequencies.distinct_patterns()
        assert 1 <= f0 <= min(dataset.n_rows, frequencies.domain_size)

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_moment_monotonicity_in_p(self, data):
        # For integer counts, F_p is non-decreasing in p (each f_i >= 1).
        dataset, query = data
        frequencies = FrequencyVector.from_dataset(dataset, query)
        assert frequencies.frequency_moment(0.5) <= frequencies.frequency_moment(1)
        assert frequencies.frequency_moment(1) <= frequencies.frequency_moment(2)

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_projection_onto_subset_never_increases_f0(self, data):
        dataset, query = data
        full = FrequencyVector.from_dataset(
            dataset, ColumnQuery.all_columns(dataset.n_columns)
        )
        projected = FrequencyVector.from_dataset(dataset, query)
        assert projected.distinct_patterns() <= full.distinct_patterns()

    @settings(max_examples=40, deadline=None)
    @given(datasets(), st.floats(0.3, 3.0))
    def test_sampling_distribution_is_a_distribution(self, data, p):
        dataset, query = data
        frequencies = FrequencyVector.from_dataset(dataset, query)
        distribution = frequencies.lp_sampling_distribution(p)
        assert all(probability >= 0 for probability in distribution.values())
        assert sum(distribution.values()) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(datasets(), st.floats(0.05, 0.9))
    def test_heavy_hitters_contain_every_mandatory_pattern(self, data, phi):
        dataset, query = data
        frequencies = FrequencyVector.from_dataset(dataset, query)
        heavy = frequencies.heavy_hitters(phi, p=1.0)
        threshold = phi * frequencies.lp_norm(1)
        for pattern, count in frequencies.counts.items():
            if count >= threshold:
                assert pattern in heavy


# ---------------------------------------------------------------------------
# Net / entropy invariants
# ---------------------------------------------------------------------------


class TestNetProperties:
    @given(st.floats(0.01, 0.99))
    def test_entropy_bounds(self, x):
        value = binary_entropy(x)
        assert 0 <= value <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 16), st.floats(0.05, 0.45))
    def test_net_size_bound_dominates_exact(self, d, alpha):
        assert exact_net_size(d, alpha) <= net_size_bound(d, alpha) * 1.0001

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 14), st.floats(0.05, 0.45), st.integers(1, 14))
    def test_rounded_queries_are_net_members_with_bounded_cost(self, d, alpha, size):
        size = min(size, d)
        net = AlphaNet(d=d, alpha=alpha)
        query = ColumnQuery.of(range(size), d)
        rounded = net.round_query(query)
        assert net.contains(rounded)
        if net.low_size >= 1:
            # The Lemma 6.4 rounding-cost bound |C Δ C'| <= alpha*d applies in
            # the non-degenerate regime where the lower band is non-empty.
            assert query.symmetric_difference_size(rounded) <= math.ceil(alpha * d) + 1
        else:
            # Degenerate band (alpha*d too large for this d): rounding must
            # still land in the net, by growing to the upper band.
            assert len(rounded) >= net.high_size


# ---------------------------------------------------------------------------
# Sketch invariants
# ---------------------------------------------------------------------------


class TestSketchProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    def test_kmv_is_exact_below_capacity(self, items):
        sketch = KMVSketch(k=512, seed=0)
        for item in items:
            sketch.update(item)
        assert sketch.estimate() == pytest.approx(len(set(items)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=300),
        st.lists(st.integers(0, 200), min_size=1, max_size=300),
    )
    def test_kmv_merge_commutes(self, left_items, right_items):
        a = KMVSketch(k=64, seed=1)
        b = KMVSketch(k=64, seed=1)
        c = KMVSketch(k=64, seed=1)
        d = KMVSketch(k=64, seed=1)
        for item in left_items:
            a.update(item)
            c.update(item)
        for item in right_items:
            b.update(item)
            d.update(item)
        a.merge(b)
        d.merge(c)
        assert a.estimate() == pytest.approx(d.estimate())

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=400), st.integers(2, 40))
    def test_countmin_error_invariant(self, items, width):
        """Whatever collides, a Count-Min answer lies in [count, F1]."""
        sketch = CountMinSketch(width=width, depth=3, seed=0)
        exact: dict[int, int] = {}
        for item in items:
            sketch.update(item)
            exact[item] = exact.get(item, 0) + 1
        for item, count in exact.items():
            estimate = sketch.estimate(item)
            assert count <= estimate <= len(items)

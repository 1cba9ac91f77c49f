"""Tests for the α-net estimator (Algorithm 1) and the exact baseline."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.core.dataset import ColumnQuery, Dataset
from repro.core.exhaustive import ExactBaseline
from repro.core.frequency import FrequencyVector
from repro.errors import EstimationError, InvalidParameterError
from repro.sketches.kmv import KMVSketch


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    return Dataset.random(n_rows=400, n_columns=8, alphabet_size=2, seed=21)


@pytest.fixture(scope="module")
def f0_estimator(dataset) -> AlphaNetEstimator:
    estimator = AlphaNetEstimator(
        n_columns=8, alpha=0.25, plan=SketchPlan.default_f0(epsilon=0.2, seed=9)
    )
    estimator.observe(dataset)
    return estimator


class TestAlphaNetEstimatorStructure:
    def test_member_count_obeys_lemma_6_2(self, f0_estimator):
        assert f0_estimator.member_count <= f0_estimator.net.size_bound()
        assert f0_estimator.member_count < 2**8

    def test_requires_at_least_one_factory(self):
        with pytest.raises(InvalidParameterError):
            AlphaNetEstimator(n_columns=6, alpha=0.2, plan=SketchPlan())

    def test_net_guard(self):
        with pytest.raises(Exception):
            AlphaNetEstimator(
                n_columns=18,
                alpha=0.05,
                plan=SketchPlan.default_f0(),
                max_net_members=100,
            )

    def test_refuses_a_net_whose_keys_exceed_the_prime(self):
        # Every member's patterns need keys below 2^61 - 1: with Q = 2^20 a
        # 3-column member has 2^60 patterns, a 4-column one 2^80.
        net = AlphaNetEstimator(
            n_columns=3, alpha=0.3, plan=SketchPlan.default_f0(), alphabet_size=2**20
        )
        assert max(len(member) for member in net._members) == 3
        with pytest.raises(InvalidParameterError, match="2\\^61 - 1"):
            AlphaNetEstimator(
                n_columns=4, alpha=0.3, plan=SketchPlan.default_f0(), alphabet_size=2**20
            )

    def test_guarantee_combines_beta_and_distortion(self, f0_estimator):
        guarantee = f0_estimator.guarantee(p=0, beta=1.2)
        assert guarantee.approximation_factor == pytest.approx(
            1.2 * f0_estimator.net.distortion(0)
        )
        assert guarantee.sketch_count == f0_estimator.member_count
        assert guarantee.sketch_count <= guarantee.sketch_count_bound


class TestAlphaNetF0Queries:
    def test_in_net_query_is_answered_within_sketch_error(self, dataset, f0_estimator):
        query = ColumnQuery.of([0, 1], 8)  # size 2 = low band, in the net
        assert f0_estimator.net.contains(query)
        exact = FrequencyVector.from_dataset(dataset, query).distinct_patterns()
        estimate = f0_estimator.estimate_fp(query, 0)
        assert abs(estimate - exact) / exact < 0.5

    def test_out_of_net_query_respects_theorem_6_5(self, dataset, f0_estimator):
        query = ColumnQuery.of([0, 2, 4, 6], 8)  # size 4 = mid band, rounded
        assert not f0_estimator.net.contains(query)
        exact = FrequencyVector.from_dataset(dataset, query).distinct_patterns()
        estimate = f0_estimator.estimate_fp(query, 0)
        allowed = 1.5 * f0_estimator.net.distortion(0)  # beta * r(alpha, F0)
        ratio = max(estimate / exact, exact / estimate)
        assert ratio <= allowed

    def test_rounded_query_is_a_net_member(self, f0_estimator):
        query = ColumnQuery.of([1, 3, 5, 7], 8)
        rounded = f0_estimator.rounded_query(query)
        assert f0_estimator.net.contains(rounded)

    def test_f1_query_is_exact_row_count(self, dataset, f0_estimator):
        assert f0_estimator.estimate_fp(ColumnQuery.of([0, 1, 2], 8), 1) == float(
            dataset.n_rows
        )

    def test_moment_query_without_moment_sketches_fails(self, f0_estimator):
        with pytest.raises(EstimationError):
            f0_estimator.estimate_fp(ColumnQuery.of([0, 1], 8), 2)

    def test_dimension_mismatch_rejected(self, f0_estimator):
        with pytest.raises(EstimationError):
            f0_estimator.estimate_fp(ColumnQuery.of([0], 5), 0)


class TestAlphaNetMomentAndPointQueries:
    def test_f2_estimation_with_stable_sketches(self, dataset):
        estimator = AlphaNetEstimator(
            n_columns=8,
            alpha=0.25,
            plan=SketchPlan.default_fp(p=2.0, epsilon=0.3, seed=4),
        )
        # A smaller stream keeps the stable-sketch updates fast.
        subset = Dataset(dataset.to_array()[:150], alphabet_size=2)
        estimator.observe(subset)
        query = ColumnQuery.of([0, 1], 8)
        exact = FrequencyVector.from_dataset(subset, query).frequency_moment(2)
        estimate = estimator.estimate_fp(query, 2)
        assert max(estimate / exact, exact / estimate) < 2.0

    def test_point_query_with_countmin_plan(self, dataset):
        estimator = AlphaNetEstimator(
            n_columns=8, alpha=0.25, plan=SketchPlan.default_point(epsilon=0.02, seed=5)
        )
        estimator.observe(dataset)
        query = ColumnQuery.of([0, 1], 8)
        exact = FrequencyVector.from_dataset(dataset, query)
        pattern = max(exact.counts, key=exact.counts.get)
        estimate = estimator.estimate_frequency(query, pattern)
        assert estimate >= exact.frequency(pattern)  # CountMin overestimates
        assert estimate <= exact.frequency(pattern) + 0.1 * dataset.n_rows

    def test_heavy_hitters_without_tracking_sketch_fails(self, dataset):
        estimator = AlphaNetEstimator(
            n_columns=8, alpha=0.25, plan=SketchPlan.default_point(epsilon=0.05)
        )
        estimator.observe(Dataset(dataset.to_array()[:50], alphabet_size=2))
        with pytest.raises(EstimationError):
            estimator.heavy_hitters(ColumnQuery.of([0, 1], 8), phi=0.2)


class TestNeighbourRuleAblation:
    def test_rules_produce_valid_but_different_roundings(self, dataset):
        shrink = AlphaNetEstimator(
            n_columns=8,
            alpha=0.25,
            plan=SketchPlan.default_f0(epsilon=0.3),
            neighbour_rule="shrink",
        )
        grow = AlphaNetEstimator(
            n_columns=8,
            alpha=0.25,
            plan=SketchPlan.default_f0(epsilon=0.3),
            neighbour_rule="grow",
        )
        query = ColumnQuery.of([0, 2, 4, 6], 8)
        assert len(shrink.rounded_query(query)) < len(query) < len(
            grow.rounded_query(query)
        )


def _exact_f0_net(d: int, alphabet_size: int, rule: str = "nearest") -> AlphaNetEstimator:
    # A KMV sketch below its capacity counts distinct items exactly (beta = 1).
    return AlphaNetEstimator(
        n_columns=d,
        alpha=0.25,
        plan=SketchPlan(distinct_factory=lambda index: KMVSketch(k=1024, seed=index)),
        alphabet_size=alphabet_size,
        neighbour_rule=rule,
    )


def _every_pattern_on(columns: list[int], d: int, alphabet_size: int) -> Dataset:
    """One row per pattern of ``columns``, zero in every other column."""
    patterns = list(itertools.product(range(alphabet_size), repeat=len(columns)))
    rows = np.zeros((len(patterns), d), dtype=np.int64)
    rows[:, columns] = patterns
    return Dataset(rows, alphabet_size=alphabet_size)


class TestTheoremSixFiveGuarantee:
    """The reported factor covers the net's real worst rounding."""

    def test_integer_band_edges_cost_a_third_column(self):
        # d = 10, alpha = 0.25: the bands end at 2 and 8 columns, so a
        # 5-column query rounds to 2 columns, 3 > alpha * d = 2.5 away.
        estimator = _exact_f0_net(d=10, alphabet_size=2)
        estimator.observe(_every_pattern_on([0, 1, 2, 3, 4], d=10, alphabet_size=2))
        query = ColumnQuery.of(range(5), 10)
        estimate = estimator.estimate_fp(query, 0)
        assert (estimate, 2**5) == (4.0, 32)
        guarantee = estimator.guarantee(p=0, beta=1.0)
        assert guarantee.distortion == 8.0
        assert 32 / estimate <= guarantee.approximation_factor

    @pytest.mark.parametrize("rule", ["shrink", "grow"])
    def test_one_sided_rules_report_their_longer_rounding(self, rule):
        estimator = _exact_f0_net(d=10, alphabet_size=2, rule=rule)
        assert estimator.guarantee(p=0, beta=1.0).distortion == 32.0

    def test_qary_columns_merge_q_patterns_each(self):
        # Q = 4, d = 8, alpha = 0.25: a 4-column query drops 2 columns, and
        # each dropped column merges 4 patterns into one.
        estimator = _exact_f0_net(d=8, alphabet_size=4)
        estimator.observe(_every_pattern_on([0, 1, 2, 3], d=8, alphabet_size=4))
        estimate = estimator.estimate_fp(ColumnQuery.of(range(4), 8), 0)
        assert (estimate, 4**4) == (16.0, 256)
        assert 256 / estimate <= estimator.guarantee(p=0, beta=1.0).approximation_factor


class TestExactBaseline:
    def test_answers_every_query_exactly(self, dataset):
        baseline = ExactBaseline(n_columns=8)
        baseline.observe(dataset)
        query = ColumnQuery.of([1, 4, 6], 8)
        exact = FrequencyVector.from_dataset(dataset, query)
        assert baseline.estimate_fp(query, 0) == exact.distinct_patterns()
        assert baseline.estimate_fp(query, 2) == exact.frequency_moment(2)
        pattern = next(iter(exact.counts))
        assert baseline.estimate_frequency(query, pattern) == exact.frequency(pattern)
        assert baseline.heavy_hitters(query, phi=0.2) == {
            k: float(v) for k, v in exact.heavy_hitters(0.2).items()
        }

    def test_space_grows_linearly_with_rows(self, dataset):
        baseline = ExactBaseline(n_columns=8)
        baseline.observe(dataset)
        assert baseline.size_in_bits() == dataset.n_rows * 8

    def test_round_trip_to_dataset(self, dataset):
        baseline = ExactBaseline(n_columns=8)
        baseline.observe(dataset)
        assert baseline.to_dataset().shape == dataset.shape

    def test_empty_baseline_cannot_materialise(self):
        with pytest.raises(EstimationError):
            ExactBaseline(n_columns=4).to_dataset()

"""End-to-end integration tests spanning multiple subsystems.

Each test exercises a realistic pipeline: generate a workload, stream it into
one or more estimators, issue late-arriving projection queries, and check the
answers against the exact reference and the paper's guarantees.
"""

from __future__ import annotations

import pytest

from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.core.dataset import ColumnQuery, Dataset
from repro.core.exhaustive import ExactBaseline
from repro.core.frequency import FrequencyVector
from repro.core.problems import FrequencyEstimation, HeavyHitters
from repro.core.uniform_sample import UniformSampleEstimator
from repro.lowerbounds.f0_instance import build_f0_instance
from repro.lowerbounds.hh_instance import build_heavy_hitter_instance
from repro.lowerbounds.separation import measure_separation
from repro.streaming.memory import compare_space
from repro.streaming.stream import RowStream
from repro.workloads.bias import demographic_dataset
from repro.workloads.linkability import quasi_identifier_dataset, uniqueness_profile
from repro.workloads.queries import random_queries
from repro.workloads.synthetic import zipfian_rows


class TestBiasAuditPipeline:
    """The 'Bias and Diversity' motivating scenario, end to end."""

    def test_usample_finds_the_planted_overrepresented_group(self):
        data, truth = demographic_dataset(n_rows=4000, bias_strength=0.3, seed=1)
        estimator = UniformSampleEstimator.from_accuracy(
            n_columns=data.n_columns,
            epsilon=0.05,
            delta=0.01,
            alphabet_size=data.alphabet_size,
            seed=1,
        )
        estimator.observe(data)

        biased_columns = tuple(truth.overrepresented_group)
        query = ColumnQuery.of(truth.column_indices(biased_columns), data.n_columns)
        pattern = truth.group_pattern(biased_columns)

        # Point-query accuracy (Theorem 5.1 guarantee, with slack for delta).
        exact = FrequencyVector.from_dataset(data, query)
        estimate = estimator.estimate_frequency(query, pattern)
        assert abs(estimate - exact.frequency(pattern)) <= 3 * 0.05 * data.n_rows

        # Heavy-hitter report contains the planted group.
        report = estimator.heavy_hitters(query, phi=0.15, p=1.0)
        assert pattern in report

        # The formal problem object accepts the report.
        problem = HeavyHitters(phi=0.15, p=1.0, slack=3.0)
        assert problem.is_acceptable(report, exact)

        # And the summary is far smaller than the raw data.
        comparison = compare_space(
            estimator.size_in_bits(),
            data.n_rows,
            data.n_columns,
            data.alphabet_size,
        )
        assert comparison.saves_space


class TestLinkabilityPipeline:
    """The 'Privacy and Linkability' motivating scenario, end to end."""

    def test_alpha_net_estimates_distinct_combinations_for_late_queries(self):
        data, schema = quasi_identifier_dataset(n_rows=1200, seed=2)
        # Binarise the identifier columns (value parity) so the estimator's
        # alphabet stays binary and the net stays small.
        reduced = Dataset(data.to_array() % 2, alphabet_size=2)
        d = reduced.n_columns
        estimator = AlphaNetEstimator(
            n_columns=d, alpha=0.25, plan=SketchPlan.default_f0(epsilon=0.2, seed=2)
        )
        estimator.observe(reduced)
        for query in random_queries(d=d, query_size=2, count=4, seed=3):
            exact = uniqueness_profile(reduced, query).distinct_combinations
            estimate = estimator.estimate_fp(query, 0)
            guarantee = estimator.guarantee(p=0, beta=1.5).approximation_factor
            assert estimate / exact <= guarantee
            assert exact / max(estimate, 1e-9) <= guarantee


class TestRunnerComparisonPipeline:
    def test_space_accuracy_ordering_between_estimators(self):
        data = zipfian_rows(1500, 8, distinct_patterns=30, exponent=1.4, seed=4)
        exact = ExactBaseline(n_columns=8).observe(RowStream(data))
        alpha_net = AlphaNetEstimator(
            n_columns=8,
            alpha=0.25,
            plan=SketchPlan.default_f0(epsilon=0.25, seed=5),
        ).observe(RowStream(data))
        queries = random_queries(d=8, query_size=2, count=3, seed=6)

        def worst_multiplicative_error(estimator) -> float:
            errors = []
            for query in queries:
                truth = exact.estimate_fp(query, 0)
                estimate = estimator.estimate_fp(query, 0)
                errors.append(max(estimate / truth, truth / estimate))
            return max(errors)

        # The exact baseline is error-free; the alpha-net answer is within its
        # Theorem 6.5 guarantee but uses bounded space per query subset.
        assert worst_multiplicative_error(exact) == pytest.approx(1.0)
        assert worst_multiplicative_error(alpha_net) <= 1.5 * 2 ** (0.25 * 8)


class TestLowerBoundProtocolPipeline:
    def test_f0_sketch_cannot_cheat_the_reduction_without_space(self):
        """A small uniform row sample fails the Theorem 4.1 distinguishing task.

        This is the operational content of the lower bound: an estimator
        whose size does not grow with ``|C|`` answers the membership question
        essentially at chance, while the exact (full-space) answer always
        decides it.
        """

        def exact_statistic(membership: bool, seed: int) -> float:
            instance = build_f0_instance(
                d=10, k=3, alphabet_size=5, membership=membership, code_size=40, seed=seed
            )
            return instance.exact_f0()

        exact_summary = measure_separation(exact_statistic, trials=3)
        assert exact_summary.separable()

        def sampled_statistic(membership: bool, seed: int) -> float:
            instance = build_f0_instance(
                d=10, k=3, alphabet_size=5, membership=membership, code_size=40, seed=seed
            )
            estimator = UniformSampleEstimator(
                n_columns=10, sample_size=32, alphabet_size=5, seed=seed
            )
            estimator.observe(instance.dataset)
            return estimator.estimate_fp(instance.query, 0)

        sampled_summary = measure_separation(sampled_statistic, trials=3)
        # The tiny sample's distinct-count plug-in estimate collapses the gap
        # far below the true Q/k separation.
        assert sampled_summary.mean_gap < exact_summary.mean_gap

    def test_heavy_hitter_instance_defeats_small_sample_but_not_exact(self):
        exact_decisions = []
        for membership in (True, False):
            instance = build_heavy_hitter_instance(
                d=30, epsilon=0.3, gamma=0.05, p=2.0, membership=membership, seed=7
            )
            exact_decisions.append(instance.is_zero_pattern_heavy() is membership)
        assert all(exact_decisions)


class TestProblemSpecsAgainstEstimators:
    def test_frequency_estimation_problem_accepts_usample_answers(self):
        data = zipfian_rows(3000, 9, distinct_patterns=25, exponent=1.3, seed=8)
        estimator = UniformSampleEstimator.from_accuracy(
            n_columns=9, epsilon=0.05, delta=0.02, seed=8
        )
        estimator.observe(data)
        query = ColumnQuery.of([0, 2, 4], 9)
        exact = FrequencyVector.from_dataset(data, query)
        top_pattern = max(exact.counts, key=exact.counts.get)
        problem = FrequencyEstimation(pattern=top_pattern, p=1.0, phi=0.2)
        estimate = estimator.estimate_frequency(query, top_pattern)
        assert problem.is_acceptable(estimate, exact)

"""Tests for the Theorem 5.3 / 5.4 / 5.5 hard instances and their separations."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.lowerbounds.fp_instance import (
    FpHardInstance,
    FpInstanceParameters,
    build_fp_instance,
    equation_5_bound,
)
from repro.lowerbounds.hh_instance import (
    HeavyHitterHardInstance,
    HeavyHitterInstanceParameters,
    build_heavy_hitter_instance,
)
from repro.lowerbounds.sampling_instance import build_sampling_instance

# Shared parameters that realise the separations at laptop scale.
D = 30
EPSILON = 0.3
GAMMA = 0.05


class TestHeavyHitterInstance:
    @pytest.mark.parametrize("membership", [True, False])
    def test_zero_pattern_heaviness_tracks_membership(self, membership):
        instance = build_heavy_hitter_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=membership, seed=0
        )
        assert instance.answer is membership
        assert instance.is_zero_pattern_heavy() is membership
        assert instance.separation_holds()

    def test_zero_pattern_frequency_bounds(self):
        member = build_heavy_hitter_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=True, seed=1
        )
        non_member = build_heavy_hitter_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=False, seed=1
        )
        params = member.parameters
        assert member.zero_pattern_frequency() >= params.zero_pattern_count_if_member
        assert non_member.zero_pattern_frequency() <= (
            params.zero_pattern_count_if_not_member(len(non_member.code))
        )

    def test_ones_block_is_present(self):
        instance = build_heavy_hitter_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=1.5, membership=False, seed=2
        )
        ones_row = (1,) * D
        count = sum(1 for row in instance.dataset.iter_rows() if row == ones_row)
        assert count >= instance.parameters.ones_block_copies

    def test_query_is_the_complement_of_bobs_support(self):
        instance = build_heavy_hitter_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=True, seed=3
        )
        bob = instance.index_instance.bob_word
        support = {i for i, s in enumerate(bob) if s}
        assert set(instance.query.columns) == set(range(D)) - support

    def test_decision_rule_from_report(self):
        instance = build_heavy_hitter_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=True, seed=4
        )
        assert instance.decide_from_report({instance.zero_pattern}) is True
        assert instance.decide_from_report(set()) is False

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            HeavyHitterInstanceParameters(d=D, epsilon=0.4, gamma=GAMMA, p=2.0)
        with pytest.raises(InvalidParameterError):
            HeavyHitterInstanceParameters(d=D, epsilon=EPSILON, gamma=0.2, p=2.0)
        with pytest.raises(InvalidParameterError):
            HeavyHitterInstanceParameters(d=D, epsilon=EPSILON, gamma=GAMMA, p=1.0)


class TestFpInstance:
    @pytest.mark.parametrize("membership", [True, False])
    def test_small_p_fp_value_decides_membership(self, membership):
        instance = build_fp_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=membership, seed=0
        )
        assert isinstance(instance, FpHardInstance)
        decided = instance.decide_from_estimate(instance.exact_fp())
        assert decided is membership

    def test_small_p_gap_is_a_constant_factor(self):
        member_values = []
        non_member_values = []
        for seed in range(3):
            member_values.append(
                build_fp_instance(
                    d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=True, seed=seed
                ).exact_fp()
            )
            non_member_values.append(
                build_fp_instance(
                    d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=False, seed=seed
                ).exact_fp()
            )
        assert min(member_values) > 2.0 * max(non_member_values)

    def test_member_branch_meets_theoretical_floor(self):
        instance = build_fp_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=True, seed=1
        )
        assert instance.exact_fp() >= instance.parameters.fp_if_member

    def test_large_p_branch_reuses_theorem_5_3_instance(self):
        instance = build_fp_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=True, seed=2
        )
        assert isinstance(instance, HeavyHitterHardInstance)

    def test_large_p_fp_gap(self):
        member = build_fp_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=True, seed=3
        )
        non_member = build_fp_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=False, seed=3
        )
        fp_member = member.frequencies().frequency_moment(2.0)
        fp_non_member = non_member.frequencies().frequency_moment(2.0)
        assert fp_member > 1.3 * fp_non_member

    def test_equation_5_bound_positive_and_monotone_in_code_size(self):
        small = equation_5_bound(D, EPSILON, 0.14, 0.5, code_size=4)
        large = equation_5_bound(D, EPSILON, 0.14, 0.5, code_size=16)
        assert 0 < small < large

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            FpInstanceParameters(d=D, epsilon=EPSILON, gamma=GAMMA, p=1.5)
        with pytest.raises(InvalidParameterError):
            build_fp_instance(
                d=D, epsilon=EPSILON, gamma=GAMMA, p=1.0, membership=True
            )


class TestSamplingInstance:
    @pytest.mark.parametrize("p", [0.5, 2.0])
    @pytest.mark.parametrize("membership", [True, False])
    def test_witness_mass_decides_membership(self, p, membership):
        instance = build_sampling_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=p, membership=membership, seed=0
        )
        assert instance.answer is membership
        assert instance.separation_holds()

    def test_small_p_witnesses_have_zero_mass_without_membership(self):
        instance = build_sampling_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=False, seed=1
        )
        assert instance.witness_mass() == 0.0

    def test_small_p_witnesses_carry_constant_mass_with_membership(self):
        instance = build_sampling_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=True, seed=1
        )
        assert instance.witness_mass() >= 0.1

    def test_decision_from_draws(self):
        instance = build_sampling_instance(
            d=D, epsilon=EPSILON, gamma=GAMMA, p=0.5, membership=True, seed=2
        )
        witness = next(iter(instance.witness_patterns))
        non_witness = (0,) * len(instance.query)
        assert instance.decide_from_draws([witness] * 5 + [non_witness] * 5) is True
        assert instance.decide_from_draws([non_witness] * 10) is False
        assert instance.decide_from_draws([]) is False

    def test_empirical_sampling_from_exact_distribution_decides(self):
        for membership in (True, False):
            instance = build_sampling_instance(
                d=D, epsilon=EPSILON, gamma=GAMMA, p=2.0, membership=membership, seed=3
            )
            empirical = instance.frequencies().lp_sampling_distribution(2.0)
            assert instance.decide_from_empirical(empirical) is membership

    def test_invalid_p(self):
        with pytest.raises(InvalidParameterError):
            build_sampling_instance(
                d=D, epsilon=EPSILON, gamma=GAMMA, p=1.0, membership=True
            )

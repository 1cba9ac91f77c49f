"""Tests for the estimator-level merge protocol.

The engine's correctness rests on ``estimator.merge`` being equivalent to
having observed the concatenated stream on a single node.  These tests check
that equivalence per estimator family, the capability flag, and the
incompatibility diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AlphaNetEstimator,
    ColumnQuery,
    Coordinator,
    Dataset,
    EstimationError,
    ExactBaseline,
    InvalidParameterError,
    RowStream,
    SketchPlan,
    UniformSampleEstimator,
)
from repro.core.estimator import ProjectedFrequencyEstimator
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch

D = 8
FIRST = Dataset.random(n_rows=300, n_columns=D, seed=11)
SECOND = Dataset.random(n_rows=200, n_columns=D, seed=22)
UNION = FIRST.concatenate(SECOND)
QUERY = ColumnQuery.of([0, 2, 5], D)


class _UnmergeableEstimator(ProjectedFrequencyEstimator):
    """Minimal estimator that opts out of the merge protocol."""

    def _observe(self, row):
        pass

    def size_in_bits(self) -> int:
        return 0


def test_capability_flag_reflects_override() -> None:
    assert ExactBaseline(n_columns=D).is_mergeable
    assert UniformSampleEstimator(n_columns=D, sample_size=8).is_mergeable
    assert not _UnmergeableEstimator(n_columns=D).is_mergeable


def test_unmergeable_estimator_raises_estimation_error() -> None:
    one, other = _UnmergeableEstimator(n_columns=D), _UnmergeableEstimator(n_columns=D)
    with pytest.raises(EstimationError):
        one.merge(other)


def test_merge_rejects_type_and_shape_mismatches() -> None:
    exact = ExactBaseline(n_columns=D)
    with pytest.raises(InvalidParameterError):
        exact.merge(UniformSampleEstimator(n_columns=D, sample_size=8))
    with pytest.raises(InvalidParameterError):
        exact.merge(ExactBaseline(n_columns=D + 1))
    with pytest.raises(InvalidParameterError):
        exact.merge(ExactBaseline(n_columns=D, alphabet_size=3))


def test_exact_baseline_merge_equals_union() -> None:
    sharded = ExactBaseline(n_columns=D).observe(FIRST)
    sharded.merge(ExactBaseline(n_columns=D).observe(SECOND))
    single = ExactBaseline(n_columns=D).observe(UNION)
    assert sharded.rows_observed == single.rows_observed == 500
    for p in (0, 1, 2):
        assert sharded.estimate_fp(QUERY, p) == single.estimate_fp(QUERY, p)
    pattern = (0, 1, 0)
    assert sharded.estimate_frequency(QUERY, pattern) == single.estimate_frequency(
        QUERY, pattern
    )
    assert sharded.heavy_hitters(QUERY, phi=0.1) == single.heavy_hitters(QUERY, phi=0.1)


def test_alpha_net_merge_equals_union_exactly() -> None:
    """KMV merges are lossless, so sharded alpha-net F0 answers are identical."""

    def make() -> AlphaNetEstimator:
        return AlphaNetEstimator(
            n_columns=D, alpha=0.25, plan=SketchPlan.default_f0(epsilon=0.3, seed=5)
        )

    sharded = make().observe(FIRST)
    sharded.merge(make().observe(SECOND))
    single = make().observe(UNION)
    assert sharded.rows_observed == single.rows_observed
    for columns in ([0, 2, 5], [1, 3], [0, 1, 2, 3, 4, 5, 6]):
        query = ColumnQuery.of(columns, D)
        assert sharded.estimate_fp(query, 0) == single.estimate_fp(query, 0)


def test_alpha_net_bytes_do_not_depend_on_order_blocking_or_sharding() -> None:
    """A KMV + Count-Min alpha-net is a function of its rows: row by row,
    reversed blocks, and two sharded builds under different partition
    policies and block sizes all write the same bytes."""

    def make() -> AlphaNetEstimator:
        plan = SketchPlan(
            distinct_factory=lambda index: KMVSketch(k=16, seed=7 + index),
            point_factory=lambda index: CountMinSketch(width=64, depth=3, seed=7 + index),
            seed=7,
        )
        return AlphaNetEstimator(n_columns=D, alpha=0.25, plan=plan)

    rows = FIRST.to_array()
    builds = [
        (1, "round_robin", None, rows),
        (1, "round_robin", 256, rows[::-1]),
        (2, "round_robin", 128, rows),
        (3, "hash", 100, rows),
    ]
    payloads = set()
    for n_shards, policy, batch_size, stream in builds:
        engine = Coordinator(
            make, n_shards=n_shards, policy=policy, backend="serial",
            batch_size=batch_size,
        )
        engine.ingest(RowStream(Dataset(stream)))
        payloads.add(engine.merged_estimator.to_bytes())
    assert len(payloads) == 1


def test_alpha_net_merge_point_plan_equals_union() -> None:
    def make() -> AlphaNetEstimator:
        return AlphaNetEstimator(
            n_columns=D, alpha=0.25, plan=SketchPlan.default_point(epsilon=0.05, seed=3)
        )

    sharded = make().observe(FIRST)
    sharded.merge(make().observe(SECOND))
    single = make().observe(UNION)
    pattern = (1, 0, 1)
    assert sharded.estimate_frequency(QUERY, pattern) == single.estimate_frequency(
        QUERY, pattern
    )


def test_alpha_net_merge_incompatible_nets_raise() -> None:
    plan = SketchPlan.default_f0(epsilon=0.3, seed=5)
    base = AlphaNetEstimator(n_columns=D, alpha=0.25, plan=plan)
    other_alpha = AlphaNetEstimator(n_columns=D, alpha=0.125, plan=plan)
    with pytest.raises(InvalidParameterError):
        base.merge(other_alpha)
    # Same net, different sketch families kept.
    moment_plan = AlphaNetEstimator(
        n_columns=D, alpha=0.25, plan=SketchPlan.default_fp(p=1.5, epsilon=0.4, seed=5)
    )
    with pytest.raises(InvalidParameterError):
        base.merge(moment_plan)


def test_alpha_net_failed_merge_leaves_target_unchanged() -> None:
    """A mismatch surfacing in a later sketch family must not leave the
    target partially merged (double-counted distinct sketches)."""

    def make(point_seed: int) -> AlphaNetEstimator:
        plan = SketchPlan(
            distinct_factory=lambda i: KMVSketch.from_epsilon(0.3, seed=5 + i),
            point_factory=lambda i: CountMinSketch.from_error(0.05, seed=point_seed + i),
        )
        return AlphaNetEstimator(n_columns=D, alpha=0.25, plan=plan)

    base = make(point_seed=9).observe(FIRST)
    incompatible = make(point_seed=900).observe(SECOND)
    before = base.to_bytes()
    with pytest.raises(InvalidParameterError):
        base.merge(incompatible)
    assert base.to_bytes() == before
    assert base.rows_observed == 300


def test_uniform_sample_merge_preserves_estimator_contract() -> None:
    def make(seed: int) -> UniformSampleEstimator:
        return UniformSampleEstimator(n_columns=D, sample_size=120, seed=seed)

    sharded = make(1).observe(FIRST)
    sharded.merge(make(2).observe(SECOND))
    assert sharded.rows_observed == 500
    exact = ExactBaseline(n_columns=D).observe(UNION)
    pattern = (0, 0, 0)
    estimate = sharded.estimate_frequency(QUERY, pattern)
    # Theorem 5.1 additive guarantee (generous multiple for one draw).
    assert abs(estimate - exact.estimate_frequency(QUERY, pattern)) <= (
        3 * sharded.additive_error_bound()
    )


def test_uniform_sample_merge_incompatible_configs_raise() -> None:
    base = UniformSampleEstimator(n_columns=D, sample_size=16).observe(FIRST)
    before = base.to_bytes()
    with pytest.raises(InvalidParameterError):
        base.merge(UniformSampleEstimator(n_columns=D, sample_size=32).observe(SECOND))
    with pytest.raises(InvalidParameterError):
        base.merge(
            UniformSampleEstimator(
                n_columns=D, sample_size=16, with_replacement=True
            ).observe(SECOND)
        )
    assert base.to_bytes() == before


def test_merge_returns_self_for_chaining() -> None:
    first = ExactBaseline(n_columns=D).observe(FIRST)
    second = ExactBaseline(n_columns=D).observe(SECOND)
    assert first.merge(second) is first

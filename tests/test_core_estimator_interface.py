"""Tests for the estimator base interface, query checks and capability probing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.core.dataset import ColumnQuery, Dataset
from repro.core.estimator import ProjectedFrequencyEstimator
from repro.core.exhaustive import ExactBaseline
from repro.core.uniform_sample import UniformSampleEstimator
from repro.errors import EstimationError
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch


class _CountOnlyEstimator(ProjectedFrequencyEstimator):
    """Minimal estimator that only tracks the row count (supports F1 only)."""

    def _observe(self, row):
        pass

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        if p != 1:
            raise EstimationError("only F1 is supported")
        return float(self.rows_observed)

    def size_in_bits(self) -> int:
        return 64


class TestEstimatorBase:
    def test_observe_accepts_datasets_and_iterables(self):
        estimator = _CountOnlyEstimator(n_columns=3)
        estimator.observe(Dataset.random(10, 3, seed=0))
        estimator.observe([(0, 1, 0), (1, 1, 1)])
        assert estimator.rows_observed == 12

    def test_observe_returns_self_for_chaining(self):
        estimator = _CountOnlyEstimator(n_columns=2)
        assert estimator.observe([(0, 1)]) is estimator

    def test_row_width_is_validated(self):
        estimator = _CountOnlyEstimator(n_columns=3)
        with pytest.raises(EstimationError):
            estimator.observe_row((0, 1))

    def test_default_query_methods_raise(self):
        estimator = _CountOnlyEstimator(n_columns=2)
        query = ColumnQuery.of([0], 2)
        with pytest.raises(EstimationError):
            estimator.estimate_frequency(query, (0,))
        with pytest.raises(EstimationError, match="point frequency"):
            estimator.estimate_frequency_block(query, [(0,), (1,)])
        with pytest.raises(EstimationError):
            estimator.heavy_hitters(query, phi=0.1)

    def test_supports_reflects_overrides(self):
        count_only = _CountOnlyEstimator(n_columns=2)
        assert count_only.supports("estimate_fp")
        assert not count_only.supports("heavy_hitters")
        assert not count_only.supports("estimate_frequency")
        assert not count_only.supports("not_a_method")

        usample = UniformSampleEstimator(n_columns=4, sample_size=8)
        assert usample.supports("estimate_frequency")
        assert usample.supports("heavy_hitters")

        exact = ExactBaseline(n_columns=4)
        assert exact.supports("estimate_fp")
        assert exact.supports("estimate_frequency")
        assert exact.supports("heavy_hitters")

        # Projected l_p heavy hitters with p > 1 need large space for an
        # arbitrary query (Theorem 5.3), so the α-net offers none.
        alpha_net = AlphaNetEstimator(
            n_columns=4, alpha=0.25, plan=SketchPlan.default_point()
        )
        assert alpha_net.supports("estimate_fp")
        assert alpha_net.supports("estimate_frequency")
        assert not alpha_net.supports("heavy_hitters")


# -- queries built for another dimension ------------------------------------------

FOREIGN_D = 6

_FOREIGN_ESTIMATORS = {
    "exact": lambda: ExactBaseline(n_columns=FOREIGN_D),
    "usample": lambda: UniformSampleEstimator(n_columns=FOREIGN_D, sample_size=32),
    "usample-with-replacement": lambda: UniformSampleEstimator(
        n_columns=FOREIGN_D, sample_size=32, with_replacement=True
    ),
    "alpha-net": lambda: AlphaNetEstimator(
        n_columns=FOREIGN_D,
        alpha=0.25,
        plan=SketchPlan(
            distinct_factory=lambda index: KMVSketch(k=16, seed=index),
            point_factory=lambda index: CountMinSketch(width=32, depth=2, seed=index),
        ),
    ),
}

_ENTRY_POINTS = {
    "estimate_fp_p0": lambda e, q: e.estimate_fp(q, 0),
    "estimate_fp_p1": lambda e, q: e.estimate_fp(q, 1),
    "estimate_frequency": lambda e, q: e.estimate_frequency(q, (0,) * len(q)),
    "estimate_frequency_block": lambda e, q: e.estimate_frequency_block(
        q, np.zeros((2, len(q)), dtype=np.int64)
    ),
    "heavy_hitters": lambda e, q: e.heavy_hitters(q, phi=0.1),
    "frequencies": lambda e, q: e.frequencies(q),
    "sample_frequencies": lambda e, q: e.sample_frequencies(q),
    "rounded_query": lambda e, q: e.rounded_query(q),
}

_FREQUENCY = ("estimate_frequency", "estimate_frequency_block")
_FP = ("estimate_fp_p0", "estimate_fp_p1")

_CASES = [
    (estimator, entry)
    for estimator, entries in (
        ("exact", _FP + _FREQUENCY + ("heavy_hitters", "frequencies")),
        ("usample", _FP + _FREQUENCY + ("heavy_hitters", "sample_frequencies")),
        (
            "usample-with-replacement",
            _FP + _FREQUENCY + ("heavy_hitters", "sample_frequencies"),
        ),
        ("alpha-net", _FP + _FREQUENCY + ("rounded_query",)),
    )
    for entry in entries
]

_FOREIGN_QUERIES = {
    # Columns inside [0, d) but the query was built for d = 10.
    "wrong-dimension": ColumnQuery.of([0, 1], 10),
    # A column the estimator's rows do not have.
    "column-beyond-d": ColumnQuery.of([1, 8], 10),
}


@pytest.mark.parametrize("query_kind", sorted(_FOREIGN_QUERIES))
@pytest.mark.parametrize(
    "estimator_name, entry", _CASES, ids=[f"{e}-{p}" for e, p in _CASES]
)
def test_query_for_another_dimension_is_refused(estimator_name, entry, query_kind):
    estimator = _FOREIGN_ESTIMATORS[estimator_name]()
    estimator.observe(Dataset.random(40, FOREIGN_D, seed=2))
    with pytest.raises(EstimationError, match="dimension"):
        _ENTRY_POINTS[entry](estimator, _FOREIGN_QUERIES[query_kind])


# -- patterns of another length ----------------------------------------------------

_PATTERN_ENTRY_POINTS = {
    "estimate_frequency": lambda e, q: e.estimate_frequency(q, (0, 1, 1)),
    "estimate_frequency_block": lambda e, q: e.estimate_frequency_block(
        q, np.zeros((2, 3), dtype=np.int64)
    ),
}


@pytest.mark.parametrize("entry", sorted(_PATTERN_ENTRY_POINTS))
@pytest.mark.parametrize("estimator_name", sorted(_FOREIGN_ESTIMATORS))
def test_pattern_of_another_length_is_refused(estimator_name, entry):
    estimator = _FOREIGN_ESTIMATORS[estimator_name]()
    estimator.observe(Dataset.random(40, FOREIGN_D, seed=2))
    query = ColumnQuery.of([0, 3], FOREIGN_D)
    with pytest.raises(EstimationError, match="pattern length 3 does not match"):
        _PATTERN_ENTRY_POINTS[entry](estimator, query)

"""E10 — Theorem 6.5 end to end: α-net estimator accuracy and space.

Runs Algorithm 1 with real sketches over a binary workload, sweeps α, and
measures (a) the worst multiplicative error over late-arriving F0 queries
against the exact answer, (b) the number of sketches kept versus the
Lemma 6.2 bound and the naive ``2^d``, and (c) the neighbour-selection
rule ablation.
"""

from __future__ import annotations

from _bench_utils import emit, render_table
from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.core.dataset import Dataset
from repro.core.frequency import FrequencyVector
from repro.workloads.queries import random_queries
from repro.workloads.synthetic import correlated_columns

D = 10
ALPHAS = [0.15, 0.25, 0.35]


def _workload() -> Dataset:
    return correlated_columns(800, D, informative_columns=4, noise=0.05, seed=7)


def _worst_ratio(estimator: AlphaNetEstimator, dataset: Dataset, seed: int) -> float:
    worst = 1.0
    for query in random_queries(D, 5, count=4, seed=seed):
        exact = FrequencyVector.from_dataset(dataset, query).distinct_patterns()
        estimate = max(estimator.estimate_fp(query, 0), 1e-9)
        worst = max(worst, max(estimate / exact, exact / estimate))
    return worst


def test_theorem_6_5_alpha_sweep(benchmark):
    """Accuracy/space trade-off of Algorithm 1 as alpha varies (F0 queries)."""
    dataset = _workload()

    def run_sweep():
        rows = []
        for alpha in ALPHAS:
            estimator = AlphaNetEstimator(
                n_columns=D, alpha=alpha, plan=SketchPlan.default_f0(epsilon=0.2, seed=1)
            )
            estimator.observe(dataset)
            guarantee = estimator.guarantee(p=0, beta=1.5)
            rows.append(
                (
                    alpha,
                    estimator.member_count,
                    guarantee.sketch_count_bound,
                    2**D,
                    _worst_ratio(estimator, dataset, seed=11),
                    guarantee.approximation_factor,
                )
            )
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit(
        "Theorem 6.5 — alpha-net estimator, F0 queries (d=10, beta=1.5)",
        render_table(
            [
                "alpha",
                "sketches kept",
                "Lemma 6.2 bound",
                "naive 2^d",
                "worst measured ratio",
                "guaranteed beta*r(alpha)",
            ],
            rows,
        ),
    )
    for alpha, kept, bound, naive, measured, guaranteed in rows:
        assert kept <= bound
        assert kept < naive
        assert measured <= guaranteed
    # Space shrinks and the guarantee loosens as alpha grows — the trade-off.
    kept_counts = [row[1] for row in rows]
    guarantees = [row[5] for row in rows]
    assert kept_counts == sorted(kept_counts, reverse=True)
    assert guarantees == sorted(guarantees)


def test_neighbour_rule_ablation(benchmark):
    """Ablation: nearest vs shrink vs grow rounding rules."""
    dataset = _workload()

    def run_ablation():
        rows = []
        for rule in ("nearest", "shrink", "grow"):
            estimator = AlphaNetEstimator(
                n_columns=D,
                alpha=0.25,
                plan=SketchPlan.default_f0(epsilon=0.2, seed=2),
                neighbour_rule=rule,
            )
            estimator.observe(dataset)
            rows.append((rule, _worst_ratio(estimator, dataset, seed=17)))
        return rows

    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(
        "Ablation — neighbour selection rule (alpha=0.25, d=10)",
        render_table(["rule", "worst ratio"], rows),
    )
    # All rules respect the worst-case guarantee; 'grow' keeps supersets so it
    # can only over-count, 'shrink' under-counts.
    guarantee = 1.5 * 2 ** (0.25 * D)
    for rule, ratio in rows:
        assert ratio <= guarantee


def test_alpha_net_observe_throughput(benchmark):
    """Per-row update cost of maintaining every net sketch (d=10, alpha=0.25)."""
    dataset = Dataset.random(n_rows=100, n_columns=D, seed=3)
    estimator = AlphaNetEstimator(
        n_columns=D, alpha=0.25, plan=SketchPlan.default_f0(epsilon=0.3, seed=4)
    )

    benchmark(lambda: estimator.observe(dataset))
    assert estimator.rows_observed >= 100

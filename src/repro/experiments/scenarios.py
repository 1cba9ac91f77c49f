"""The registered scenarios: every paper artifact as one runnable spec.

Each function below is the *single* source of truth for one experiment —
the CLI (``python -m repro run <name>``), the benchmark suite
(``benchmarks/test_bench_figure1.py`` etc.) and the ``examples/`` scripts
all execute these specs through
:func:`~repro.experiments.runner.run_experiment`.

Scenario catalogue (see ``docs/experiments.md`` for the full guide):

========================  =====================================================
``figure1``               Figure 1 — α-net space/approximation trade-off curves
``table1``                Table 1 — the four F0 lower-bound constructions
``lb-f0``                 Theorem 4.1 — projected-F0 separation sweep
``usample-accuracy``      Theorem 5.1 — uniform-sample error vs sample size
``alphanet-tradeoff``     Theorem 6.5 — accuracy vs space of Algorithm 1
``ingest-throughput``     Engine — sharding × batching ingest throughput sweep
``subspace-exploration``  Section 1 — recover planted subspaces from one sample
``bias-audit``            Corollary 5.2 — planted-subgroup heavy-hitter recall
========================  =====================================================
"""

from __future__ import annotations

from itertools import combinations

from ..analysis.tradeoff import figure1_curves, tradeoff_at_relative_space
from ..core.alpha_net import AlphaNetEstimator, SketchPlan
from ..core.dataset import ColumnQuery, Dataset
from ..core.exhaustive import ExactBaseline
from ..core.frequency import FrequencyVector
from ..core.uniform_sample import UniformSampleEstimator
from ..engine.transport import DEFAULT_TRANSPORT_BLOCK_ROWS
from ..lowerbounds.f0_instance import F0InstanceParameters, build_f0_instance
from ..lowerbounds.index_problem import index_lower_bound_bits
from ..lowerbounds.separation import measure_separation
from ..lowerbounds.table1 import table1_rows
from ..workloads.bias import DEFAULT_ATTRIBUTES, demographic_dataset
from ..workloads.queries import random_queries
from ..workloads.subspace_cluster import hidden_subspace_dataset
from ..workloads.synthetic import correlated_columns, zipfian_rows
from .registry import register_scenario
from .runner import RunContext
from .specs import (
    EngineConfig,
    EstimatorSpec,
    ExperimentSpec,
    QuerySpec,
    ResultTable,
    RunParams,
    ScenarioOutput,
    WorkloadSpec,
)

__all__ = ["FIGURE1_D", "TABLE1_POINT"]

#: Dimensionality of the Figure 1 curves (the paper plots d = 20).
FIGURE1_D = 20

#: The (d, k, Q, q) point Table 1 is evaluated at, as in the benchmark.
TABLE1_POINT = (20, 4, 20, 2)


def _downsample(indices_len: int, max_points: int = 12) -> list[int]:
    """Evenly spaced indices (always including the last) for series tables."""
    if indices_len <= max_points:
        return list(range(indices_len))
    step = max(1, indices_len // max_points)
    indices = list(range(0, indices_len, step))
    if indices[-1] != indices_len - 1:
        indices.append(indices_len - 1)
    return indices


# ---------------------------------------------------------------------------
# figure1 — the α-net space/approximation trade-off (Figure 1 / Theorem 6.5)
# ---------------------------------------------------------------------------


def _run_figure1(ctx: RunContext) -> ScenarioOutput:
    """Recompute the three Figure 1 panes and the paper's two call-outs."""
    pane = figure1_curves(FIGURE1_D, 99)
    dense = figure1_curves(FIGURE1_D, 400)
    spaces = pane.relative_space()
    factors = pane.approximation_factors()
    alphas = pane.alphas()
    quarter = tradeoff_at_relative_space(dense, 2.0**-2)
    eighth = tradeoff_at_relative_space(dense, 2.0**-8)
    metrics = {
        "relative_space_first": spaces[0],
        "relative_space_last": spaces[-1],
        "relative_space_monotone": float(
            all(a >= b for a, b in zip(spaces, spaces[1:]))
        ),
        "approximation_first": factors[0],
        "approximation_last": factors[-1],
        "approximation_monotone": float(
            all(a <= b for a, b in zip(factors, factors[1:]))
        ),
        "approximation_at_quarter_space": quarter.approximation_factor,
        "approximation_at_eighth_space": eighth.approximation_factor,
        "sketches_at_eighth_space": eighth.sketch_count,
    }
    series_rows = tuple(
        (round(alphas[i], 4), spaces[i], factors[i]) for i in _downsample(len(alphas))
    )
    callout_rows = (
        (2.0**-2, quarter.approximation_factor, quarter.sketch_count),
        (2.0**-8, eighth.approximation_factor, eighth.sketch_count),
    )
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title=f"Figure 1 series (d={FIGURE1_D})",
                headers=("alpha", "relative space", "approximation factor"),
                rows=series_rows,
            ),
            ResultTable(
                title="Paper call-outs (right pane)",
                headers=("relative space", "approximation factor", "summaries kept"),
                rows=callout_rows,
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="figure1",
        title="The Figure 1 space/approximation trade-off",
        paper_ref="Figure 1 / Theorem 6.5",
        description=(
            "Sweeps the net parameter alpha over (0, 1/2) at d = 20 and "
            "records the three Figure 1 panes: relative space "
            "2^{H(1/2-alpha)d}/2^d, approximation factor 2^{alpha d}, and "
            "their trade-off, plus the paper's call-outs at relative space "
            "2^-2 (factor on the order of tens) and 2^-8 (factor on the "
            "order of hundreds from only ~4096 summaries).  Analytic: the "
            "curves are closed-form, so --quick changes nothing."
        ),
        metrics=(
            "relative_space_first",
            "relative_space_last",
            "relative_space_monotone",
            "approximation_first",
            "approximation_last",
            "approximation_monotone",
            "approximation_at_quarter_space",
            "approximation_at_eighth_space",
            "sketches_at_eighth_space",
        ),
        run=_run_figure1,
    )
)


# ---------------------------------------------------------------------------
# table1 — the four F0 lower-bound constructions (Table 1)
# ---------------------------------------------------------------------------


def _run_table1(ctx: RunContext) -> ScenarioOutput:
    """Evaluate Table 1 symbolically and confirm one constructed instance."""
    d, k, big_q, small_q = TABLE1_POINT
    rows = table1_rows(d, k, big_q, small_q)
    by_label = {row.label: row for row in rows}
    member = build_f0_instance(
        d=10, k=3, alphabet_size=5, membership=True, code_size=32, seed=ctx.params.seed
    )
    non_member = build_f0_instance(
        d=10, k=3, alphabet_size=5, membership=False, code_size=32, seed=ctx.params.seed
    )
    gap = member.exact_f0() / max(non_member.exact_f0(), 1e-12)
    metrics = {
        "theorem_4_1_factor": by_label["Theorem 4.1"].approximation_factor,
        "corollary_4_2_factor": by_label["Corollary 4.2"].approximation_factor,
        "corollary_4_3_factor": by_label["Corollary 4.3"].approximation_factor,
        "corollary_4_4_factor": by_label["Corollary 4.4"].approximation_factor,
        "corollary_4_4_columns": by_label["Corollary 4.4"].instance_columns,
        "corollary_4_4_alphabet": by_label["Corollary 4.4"].alphabet,
        "constructed_member_f0": member.exact_f0(),
        "constructed_non_member_f0": non_member.exact_f0(),
        "constructed_gap": gap,
        "constructed_predicted_gap": member.parameters.approximation_factor,
        "separation_holds": float(
            member.separation_holds() and non_member.separation_holds()
        ),
    }
    formula_rows = tuple(
        (
            row.label,
            f"{row.instance_rows:.3e} x {row.instance_columns}",
            row.alphabet,
            row.approximation_factor,
            row.approximation_formula,
        )
        for row in rows
    )
    constructed_rows = (
        (
            "y in T",
            member.dataset.n_rows,
            member.dataset.n_columns,
            member.exact_f0(),
            member.parameters.patterns_if_member,
        ),
        (
            "y not in T",
            non_member.dataset.n_rows,
            non_member.dataset.n_columns,
            non_member.exact_f0(),
            non_member.parameters.patterns_if_not_member,
        ),
    )
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title=f"Table 1 at (d={d}, k={k}, Q={big_q}, q={small_q})",
                headers=(
                    "result",
                    "instance A (rows x cols)",
                    "alphabet",
                    "approx. factor",
                    "formula",
                ),
                rows=formula_rows,
            ),
            ResultTable(
                title="Constructed Theorem 4.1 instance (d=10, k=3, Q=5)",
                headers=("branch", "rows", "cols", "exact F0 on S", "paper bound"),
                rows=constructed_rows,
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="table1",
        title="Table 1 — F0 lower-bound constructions",
        paper_ref="Table 1 / Theorem 4.1, Corollaries 4.2-4.4",
        description=(
            "Evaluates the four rows of Table 1 (instance shape and the "
            "approximation factor each construction rules out) at the "
            "paper's natural parameter point (d=20, k=4, Q=20, q=2), and "
            "actually constructs the Theorem 4.1 instance at laptop-sized "
            "d=10 to confirm the stated shape and the Q/k separation."
        ),
        metrics=(
            "theorem_4_1_factor",
            "corollary_4_2_factor",
            "corollary_4_3_factor",
            "corollary_4_4_factor",
            "corollary_4_4_columns",
            "corollary_4_4_alphabet",
            "constructed_member_f0",
            "constructed_non_member_f0",
            "constructed_gap",
            "constructed_predicted_gap",
            "separation_holds",
        ),
        run=_run_table1,
    )
)


# ---------------------------------------------------------------------------
# lb-f0 — Theorem 4.1 separation sweep over (d, k, Q)
# ---------------------------------------------------------------------------

_LB_F0_SWEEP = ((8, 2, 4), (10, 3, 5), (12, 3, 6), (14, 3, 8))


def _run_lb_f0(ctx: RunContext) -> ScenarioOutput:
    """Measure the realised projected-F0 gap on the hard instances."""
    sweep = _LB_F0_SWEEP[:2] if ctx.params.quick else _LB_F0_SWEEP
    trials = 2 if ctx.params.quick else 3
    seeds = [ctx.params.seed + trial for trial in range(trials)]
    rows = []
    gap_ratios = []
    all_separable = True
    for d, k, q in sweep:
        parameters = F0InstanceParameters(d=d, k=k, alphabet_size=q)

        def statistic(membership: bool, seed: int, d=d, k=k, q=q) -> float:
            instance = build_f0_instance(
                d=d, k=k, alphabet_size=q, membership=membership,
                code_size=32, seed=seed,
            )
            return instance.exact_f0()

        summary = measure_separation(statistic, trials=trials, seeds=seeds)
        gap_ratios.append(summary.mean_gap / parameters.approximation_factor)
        all_separable = all_separable and summary.separable()
        rows.append(
            (
                d,
                k,
                q,
                parameters.approximation_factor,
                round(summary.mean_gap, 3),
                summary.separable(),
                round(index_lower_bound_bits(parameters.code_size), 1),
            )
        )
    metrics = {
        "instances_evaluated": float(len(sweep)),
        "trials_per_branch": float(trials),
        "all_separable": float(all_separable),
        "min_gap_ratio": min(gap_ratios),
        "max_index_bits": max(row[6] for row in rows),
    }
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title="Theorem 4.1 — measured F0 gap vs the Q/k prediction",
                headers=(
                    "d",
                    "k",
                    "Q",
                    "predicted gap Q/k",
                    "measured mean gap",
                    "separable",
                    "Index bound (bits)",
                ),
                rows=tuple(rows),
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="lb-f0",
        title="Theorem 4.1 projected-F0 separation sweep",
        paper_ref="Theorem 4.1 / Section 4",
        description=(
            "Builds the Theorem 4.1 hard instance over a sweep of (d, k, Q) "
            "and measures the realised distinct-count gap between the "
            "'y in T' and 'y not in T' branches.  The paper predicts a gap "
            "of Q/k; the scenario records how close the measured gap comes, "
            "that threshold classification never errs, and that the forced "
            "Index space grows with d.  --quick restricts the sweep to the "
            "two smallest dimensions and two trials per branch."
        ),
        metrics=(
            "instances_evaluated",
            "trials_per_branch",
            "all_separable",
            "min_gap_ratio",
            "max_index_bits",
        ),
        run=_run_lb_f0,
    )
)


# ---------------------------------------------------------------------------
# usample-accuracy — Theorem 5.1 error vs sample size, through the engine
# ---------------------------------------------------------------------------

_USAMPLE_D = 10
_USAMPLE_SIZES = (64, 256, 1024, 4096)


def _usample_workload(params: RunParams) -> Dataset:
    return zipfian_rows(
        n_rows=1_500 if params.quick else 6_000,
        n_columns=_USAMPLE_D,
        distinct_patterns=60,
        exponent=1.3,
        seed=params.seed + 1,
    )


def _usample_grid() -> tuple[EstimatorSpec, ...]:
    def make(sample_size: int) -> EstimatorSpec:
        return EstimatorSpec(
            name=f"usample-t{sample_size}",
            build=lambda params: UniformSampleEstimator(
                n_columns=_USAMPLE_D,
                sample_size=sample_size,
                seed=params.seed + 2,
            ),
            description=f"uniform row sample, t={sample_size}",
        )

    return tuple(make(size) for size in _USAMPLE_SIZES)


def _run_usample_accuracy(ctx: RunContext) -> ScenarioOutput:
    """Worst point-query error vs sample size, served through the engine."""
    dataset = ctx.dataset()
    queries = ctx.queries(dataset)
    grid = ctx.estimator_grid()[:2] if ctx.params.quick else ctx.estimator_grid()
    rows = []
    worst_errors = []
    sample_sizes = []
    for estimator in grid:
        session = ctx.ingest(estimator, dataset)
        worst = 0.0
        for query in queries:
            exact = FrequencyVector.from_dataset(dataset, query)
            for pattern in list(exact.observed_patterns())[:8]:
                estimate = session.service.estimate_frequency(query, pattern)
                worst = max(
                    worst, abs(estimate - exact.frequency(pattern)) / dataset.n_rows
                )
        merged = session.coordinator.merged_estimator
        sample_size = merged.sample_size  # type: ignore[attr-defined]
        sample_sizes.append(sample_size)
        worst_errors.append(worst)
        rows.append(
            (
                sample_size,
                round(worst, 5),
                round((1.0 / sample_size) ** 0.5, 5),
                merged.size_in_bits(),
                round(session.ingest_report.rows_per_second),
            )
        )
    metrics = {
        "sample_sizes_evaluated": float(len(grid)),
        "worst_error_smallest_t": worst_errors[0],
        "worst_error_largest_t": worst_errors[-1],
        "error_decreases": float(worst_errors[-1] <= worst_errors[0]),
        "error_ratio_vs_sqrt_bound": worst_errors[-1]
        / (1.0 / sample_sizes[-1]) ** 0.5,
    }
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title="Theorem 5.1 — worst point-query error vs sample size",
                headers=(
                    "sample size t",
                    "worst |err| / n",
                    "predicted ~1/sqrt(t)",
                    "summary bits",
                    "ingest rows/sec",
                ),
                rows=tuple(rows),
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="usample-accuracy",
        title="Uniform-sample accuracy vs space (Theorem 5.1)",
        paper_ref="Theorem 5.1 / Corollary 5.2",
        description=(
            "Sweeps the uniform-sample size t and measures the worst "
            "additive point-query error (as a fraction of n) over random "
            "late-arriving column queries on a Zipfian workload, serving "
            "every estimate through the sharded engine "
            "(Coordinator -> merge -> QueryService).  The paper predicts "
            "error ~1/sqrt(t) independent of n; the recorded table adds the "
            "summary size in bits, making this the accuracy-vs-space sweep. "
            " --quick shrinks the stream and sweeps only the two smallest t."
        ),
        metrics=(
            "sample_sizes_evaluated",
            "worst_error_smallest_t",
            "worst_error_largest_t",
            "error_decreases",
            "error_ratio_vs_sqrt_bound",
        ),
        run=_run_usample_accuracy,
        engine=EngineConfig(n_shards=2, backend="serial", batch_size=2048),
        workload=WorkloadSpec(
            name="zipfian",
            build=_usample_workload,
            description="Zipf-distributed row catalogue, d=10",
        ),
        estimators=_usample_grid(),
        queries=QuerySpec(
            name="random-4col",
            build=lambda dataset, params: random_queries(
                dataset.n_columns, 4, count=3, seed=params.seed + 3
            ),
            description="three random 4-column projections",
        ),
    )
)


# ---------------------------------------------------------------------------
# alphanet-tradeoff — Theorem 6.5 accuracy vs space, through the engine
# ---------------------------------------------------------------------------

_ALPHANET_D = 10
_ALPHANET_ALPHAS = (0.15, 0.25, 0.35)


def _alphanet_workload(params: RunParams) -> Dataset:
    return correlated_columns(
        n_rows=300 if params.quick else 800,
        n_columns=_ALPHANET_D,
        informative_columns=4,
        noise=0.05,
        seed=params.seed + 7,
    )


def _alphanet_grid() -> tuple[EstimatorSpec, ...]:
    def make(alpha: float) -> EstimatorSpec:
        return EstimatorSpec(
            name=f"alphanet-a{round(alpha * 100)}",
            build=lambda params: AlphaNetEstimator(
                n_columns=_ALPHANET_D,
                alpha=alpha,
                plan=SketchPlan.default_f0(epsilon=0.2, seed=params.seed + 1),
            ),
            description=f"alpha-net of F0 sketches, alpha={alpha}",
        )

    return tuple(make(alpha) for alpha in _ALPHANET_ALPHAS)


def _run_alphanet_tradeoff(ctx: RunContext) -> ScenarioOutput:
    """Worst F0 ratio and sketch count per alpha, served through the engine."""
    dataset = ctx.dataset()
    queries = ctx.queries(dataset)
    metrics: dict[str, float] = {}
    rows = []
    for alpha, estimator in zip(_ALPHANET_ALPHAS, ctx.estimator_grid()):
        session = ctx.ingest(estimator, dataset)
        worst = 1.0
        for query in queries:
            exact = FrequencyVector.from_dataset(dataset, query).distinct_patterns()
            estimate = max(session.service.estimate_fp(query, 0), 1e-9)
            worst = max(worst, max(estimate / exact, exact / estimate))
        merged = session.coordinator.merged_estimator
        guarantee = merged.guarantee(p=0, beta=1.5)  # type: ignore[attr-defined]
        key = f"alpha_{round(alpha * 100)}"
        metrics[f"worst_ratio_{key}"] = worst
        metrics[f"sketch_count_{key}"] = float(
            merged.member_count  # type: ignore[attr-defined]
        )
        rows.append(
            (
                alpha,
                merged.member_count,  # type: ignore[attr-defined]
                round(guarantee.sketch_count_bound, 1),
                2**_ALPHANET_D,
                round(worst, 3),
                round(guarantee.approximation_factor, 3),
                merged.size_in_bits(),
            )
        )
    metrics["guarantee_factor_alpha_25"] = next(
        row[5] for row in rows if row[0] == 0.25
    )
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title="Theorem 6.5 — alpha-net accuracy vs space (F0 queries)",
                headers=(
                    "alpha",
                    "sketches kept",
                    "Lemma 6.2 bound",
                    "naive 2^d",
                    "worst F0 ratio",
                    "guaranteed factor",
                    "summary bits",
                ),
                rows=tuple(rows),
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="alphanet-tradeoff",
        title="Alpha-net accuracy vs space (Theorem 6.5)",
        paper_ref="Algorithm 1 / Theorem 6.5",
        description=(
            "Runs Algorithm 1 with real F0 sketches over a correlated "
            "binary workload for alpha in {0.15, 0.25, 0.35}, ingesting "
            "through the sharded engine and serving F0 queries from the "
            "merged summary.  Records the worst multiplicative error over "
            "late-arriving queries, the number of sketches kept versus the "
            "Lemma 6.2 bound and the naive 2^d, and the summary size — the "
            "empirical counterpart of the figure1 scenario's curves.  "
            "--quick shrinks the workload; the alpha grid stays intact."
        ),
        metrics=(
            "worst_ratio_alpha_15",
            "worst_ratio_alpha_25",
            "worst_ratio_alpha_35",
            "sketch_count_alpha_15",
            "sketch_count_alpha_25",
            "sketch_count_alpha_35",
            "guarantee_factor_alpha_25",
        ),
        run=_run_alphanet_tradeoff,
        engine=EngineConfig(n_shards=2, backend="serial", batch_size=1024),
        workload=WorkloadSpec(
            name="correlated-columns",
            build=_alphanet_workload,
            description="two latent groups, 4 informative columns, d=10",
        ),
        estimators=_alphanet_grid(),
        queries=QuerySpec(
            name="random-5col",
            build=lambda dataset, params: random_queries(
                dataset.n_columns, 5, count=4, seed=params.seed + 11
            ),
            description="four random 5-column projections",
        ),
    )
)


# ---------------------------------------------------------------------------
# ingest-throughput — sharding × batching sweep over the engine
# ---------------------------------------------------------------------------

_THROUGHPUT_D = 10


def _throughput_workload(params: RunParams) -> Dataset:
    return zipfian_rows(
        n_rows=2_000 if params.quick else 12_000,
        n_columns=_THROUGHPUT_D,
        distinct_patterns=250,
        exponent=1.2,
        seed=params.seed + 9,
    )


def _run_ingest_throughput(ctx: RunContext) -> ScenarioOutput:
    """Rows/sec across shard counts × (per-row vs batched) ingest."""
    dataset = ctx.dataset()
    estimator = ctx.estimator_grid()[0]
    assert ctx.engine is not None
    if ctx.params.n_shards is not None:
        shard_counts: tuple[int, ...] = tuple(
            sorted({1, ctx.params.n_shards})
        )
    else:
        shard_counts = (1, 2) if ctx.params.quick else (1, 2, 4)
    # --batch-size 0 resolves to batch_size=None: honour the forced per-row
    # path by dropping the batched arm of the sweep entirely.
    batch = ctx.engine.batch_size
    batch_modes: tuple[int | None, ...] = (None,) if batch is None else (None, batch)
    probe = ColumnQuery.of([0, 3, 7], _THROUGHPUT_D)
    rows = []
    answers = set()
    throughputs = {}
    for n_shards in shard_counts:
        for batch_size in batch_modes:
            session = ctx.ingest(
                estimator, dataset, n_shards=n_shards, batch_size=batch_size
            )
            report = session.ingest_report
            answer = session.service.estimate_fp(probe, 0)
            answers.add(round(answer, 6))
            throughputs[(n_shards, batch_size)] = report.rows_per_second
            if batch_size is not None:
                label: int | str = batch_size
            elif report.backend == "serial" or report.n_shards == 1:
                label = "per-row"
            else:
                # batch_size=None: the worker backends still route
                # default-sized blocks across more than one shard.
                label = f"{DEFAULT_TRANSPORT_BLOCK_ROWS} (default)"
            rows.append(
                (
                    n_shards,
                    label,
                    round(report.wall_seconds, 4),
                    round(report.rows_per_second),
                    round(answer, 1),
                )
            )
    metrics = {
        "configurations_evaluated": float(len(rows)),
        "per_row_rows_per_second": throughputs[(1, None)],
        "best_rows_per_second": max(throughputs.values()),
        "batch_speedup_single_shard": (
            throughputs[(1, batch)] / throughputs[(1, None)]
            if batch is not None
            else 1.0
        ),
        "answers_agree": float(len(answers) == 1),
    }
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title="Engine ingest throughput: shards x batch size",
                headers=(
                    "shards",
                    "batch size",
                    "wall seconds",
                    "rows/sec",
                    "F0 probe answer",
                ),
                rows=tuple(rows),
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="ingest-throughput",
        title="Engine ingest throughput sweep (shards x batching)",
        paper_ref="Engine (PRs 1-2); Section 3.1 exact baseline",
        description=(
            "Streams a Zipfian table into an exact mergeable summary across "
            "a grid of shard counts and ingest modes (per-row vs ndarray "
            "blocks) and records rows/sec for each configuration, plus a "
            "probe query confirming every configuration produces the same "
            "merged summary.  --shards replaces the shard grid with "
            "{1, <shards>}; --batch-size sets the block size; --quick "
            "shrinks the stream."
        ),
        metrics=(
            "configurations_evaluated",
            "per_row_rows_per_second",
            "best_rows_per_second",
            "batch_speedup_single_shard",
            "answers_agree",
        ),
        run=_run_ingest_throughput,
        engine=EngineConfig(n_shards=1, backend="serial", batch_size=2048),
        workload=WorkloadSpec(
            name="zipfian-wide",
            build=_throughput_workload,
            description="Zipfian stream, 250 distinct patterns, d=10",
        ),
        estimators=(
            EstimatorSpec(
                name="exact-baseline",
                build=lambda params: ExactBaseline(n_columns=_THROUGHPUT_D),
                description="store-everything baseline (exact, mergeable)",
            ),
        ),
    )
)


# ---------------------------------------------------------------------------
# subspace-exploration — recover planted subspaces from one summary
# ---------------------------------------------------------------------------


def _subspace_shape(params: RunParams) -> tuple[int, int, int]:
    """(n_rows, n_columns, subspace_size) for the current scale."""
    if params.quick:
        return 1_200, 10, 3
    return 6_000, 14, 4


def _subspace_truth(params: RunParams):
    n_rows, n_columns, subspace_size = _subspace_shape(params)
    return hidden_subspace_dataset(
        n_rows=n_rows,
        n_columns=n_columns,
        subspace_size=subspace_size,
        n_subspaces=2,
        centroids_per_subspace=2,
        noise=0.02,
        seed=params.seed + 11,
    )


def _run_subspace(ctx: RunContext) -> ScenarioOutput:
    """Score every candidate subspace from one uniform sample, via the engine."""
    dataset, planted = _subspace_truth(ctx.params)
    _, n_columns, subspace_size = _subspace_shape(ctx.params)
    session = ctx.ingest(ctx.estimator_grid()[0], dataset)
    service = session.service
    total_rows = float(dataset.n_rows)
    scored = []
    for columns in combinations(range(n_columns), subspace_size):
        query = ColumnQuery.of(columns, n_columns)
        # concentration = F2 * F0 / n^2: 1.0 for flat projections, larger
        # when a few patterns dominate (matches the sample statistic of the
        # original example exactly — the scale factors cancel).
        f2 = service.estimate_fp(query, 2)
        f0 = service.estimate_fp(query, 0)
        score = f2 * f0 / (total_rows**2) if f0 > 0 else 0.0
        scored.append((columns, score))
    scored.sort(key=lambda pair: pair[1], reverse=True)
    planted_sets = [set(p.columns) for p in planted]
    top_rows = tuple(
        (
            str(columns),
            round(score, 3),
            f"{max(len(set(columns) & s) for s in planted_sets)}/{subspace_size}",
        )
        for columns, score in scored[:8]
    )
    recovered = sum(1 for columns, _ in scored[:2] if set(columns) in planted_sets)
    top1_overlap = max(len(set(scored[0][0]) & s) for s in planted_sets)
    metrics = {
        "queries_scored": float(len(scored)),
        "planted_recovered_in_top2": float(recovered),
        "top1_overlap_fraction": top1_overlap / subspace_size,
        "summary_bits": float(
            session.coordinator.merged_estimator.size_in_bits()
        ),
    }
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title="Top-8 subspaces by sampled concentration",
                headers=(
                    "candidate subspace",
                    "concentration score",
                    "overlap with a planted subspace",
                ),
                rows=top_rows,
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="subspace-exploration",
        title="Subspace exploration from one uniform sample",
        paper_ref="Section 1 (motivation) / Theorem 5.1",
        description=(
            "Plants two clustered subspaces in a binary table, keeps a "
            "single uniform row sample through the engine, and scores every "
            "candidate subspace by a concentration statistic answered "
            "entirely by the QueryService (F2 * F0 / n^2 per projection) — "
            "about a thousand projection queries from one pass over the "
            "data.  Records whether the planted subspaces rank top-2.  "
            "--quick shrinks to d=10 and 3-column subspaces."
        ),
        metrics=(
            "queries_scored",
            "planted_recovered_in_top2",
            "top1_overlap_fraction",
            "summary_bits",
        ),
        run=_run_subspace,
        engine=EngineConfig(n_shards=1, backend="serial", batch_size=2048),
        workload=WorkloadSpec(
            name="hidden-subspaces",
            build=lambda params: _subspace_truth(params)[0],
            description="two planted clustered subspaces plus noise",
        ),
        estimators=(
            EstimatorSpec(
                name="usample-explorer",
                build=lambda params: UniformSampleEstimator(
                    n_columns=_subspace_shape(params)[1],
                    sample_size=400 if params.quick else 2_000,
                    seed=params.seed + 5,
                ),
                description="uniform row sample sized for exploration",
            ),
        ),
    )
)


# ---------------------------------------------------------------------------
# bias-audit — planted-subgroup heavy-hitter recall (Corollary 5.2)
# ---------------------------------------------------------------------------

_BIAS_COLUMNS = len(DEFAULT_ATTRIBUTES)
_BIAS_ALPHABET = max(DEFAULT_ATTRIBUTES.values())


def _bias_trial(params: RunParams, trial: int):
    """Dataset + planted ground truth of one bias-audit trial.

    Shared by the scenario body (trials 0..n) and the declared workload
    spec (trial 0), so the spec and the run can never drift apart.
    """
    return demographic_dataset(
        n_rows=1_200 if params.quick else 4_000,
        bias_strength=0.3,
        seed=params.seed + trial,
    )


def _run_bias_audit(ctx: RunContext) -> ScenarioOutput:
    """Heavy-hitter recall of a planted demographic subgroup, via the engine."""
    trials = 2 if ctx.params.quick else 3
    recalled = 0
    planted_fractions = []
    throughputs = []
    rows = []
    for trial in range(trials):
        seed = ctx.params.seed + trial
        dataset, truth = _bias_trial(ctx.params, trial)
        session = ctx.ingest(ctx.estimator_grid()[0], dataset)
        biased = tuple(truth.overrepresented_group)
        query = ColumnQuery.of(truth.column_indices(biased), dataset.n_columns)
        report = session.service.heavy_hitters(query, phi=0.15, p=1.0)
        hit = truth.group_pattern(biased) in report
        recalled += int(hit)
        planted_fractions.append(truth.planted_fraction)
        throughputs.append(session.ingest_report.rows_per_second)
        rows.append(
            (
                seed,
                str(truth.group_pattern(biased)),
                round(truth.planted_fraction, 3),
                len(report),
                hit,
            )
        )
    metrics = {
        "trials": float(trials),
        "recall_fraction": recalled / trials,
        "mean_planted_fraction": sum(planted_fractions) / trials,
        "mean_ingest_rows_per_second": sum(throughputs) / trials,
    }
    return ScenarioOutput(
        metrics=metrics,
        tables=(
            ResultTable(
                title="Corollary 5.2 — planted subgroup recall per trial",
                headers=(
                    "seed",
                    "planted pattern",
                    "planted fraction",
                    "heavy hitters reported",
                    "recalled",
                ),
                rows=tuple(rows),
            ),
        ),
    )


register_scenario(
    ExperimentSpec(
        name="bias-audit",
        title="Bias audit: planted-subgroup heavy-hitter recall",
        paper_ref="Corollary 5.2 / Section 1 (fairness motivation)",
        description=(
            "Generates a demographic table with one over-represented "
            "subgroup, ingests it through the sharded engine into a "
            "uniform-sample summary, and asks the QueryService for the "
            "phi-heavy hitters of the subgroup's projection — the paper's "
            "fairness-audit use case.  Records recall of the planted "
            "pattern across trials.  --quick uses two smaller trials."
        ),
        metrics=(
            "trials",
            "recall_fraction",
            "mean_planted_fraction",
            "mean_ingest_rows_per_second",
        ),
        run=_run_bias_audit,
        engine=EngineConfig(n_shards=2, backend="serial", batch_size=1024),
        workload=WorkloadSpec(
            name="demographic",
            build=lambda params: _bias_trial(params, 0)[0],
            description="categorical demographic table with a planted group",
        ),
        estimators=(
            EstimatorSpec(
                name="usample-auditor",
                build=lambda params: UniformSampleEstimator(
                    n_columns=_BIAS_COLUMNS,
                    sample_size=512 if params.quick else 1_024,
                    alphabet_size=_BIAS_ALPHABET,
                    seed=params.seed,
                ),
                description="uniform sample sized for subgroup auditing",
            ),
        ),
    )
)

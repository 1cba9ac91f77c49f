"""repro — reproduction of *Subspace Exploration: Bounds on Projected Frequency Estimation*.

The package implements, in pure Python, the algorithms, lower-bound
constructions and experimental harness of Cormode, Dickens and Woodruff
(PODS 2021):

* :mod:`repro.core` — the data model (datasets, column queries, frequency
  vectors), the uniform-sampling estimator of Theorem 5.1, the α-net
  set-rounding meta-algorithm of Section 6, and exact baselines.
* :mod:`repro.sketches` — the streaming-sketch substrate (distinct counting,
  frequency moments, heavy hitters, samplers) the estimators build on.
* :mod:`repro.coding` — constant-weight and low-intersection codes plus the
  ``star_Q`` operator behind every lower-bound instance.
* :mod:`repro.lowerbounds` — Index-reduction hard instances for Theorems 4.1,
  5.3, 5.4 and 5.5 together with gap-measurement utilities and Table 1.
* :mod:`repro.streaming`, :mod:`repro.workloads`, :mod:`repro.analysis` —
  stream plumbing, synthetic workloads, and the analytical bound/trade-off
  calculators behind Figure 1.
* :mod:`repro.engine` — the sharded serving layer: stream partitioning,
  parallel shard ingest, summary merging, a cached batch-query service,
  and checkpoint files that let the query phase run in a later process.
* :mod:`repro.persistence` — the versioned snapshot wire format
  (:data:`SNAPSHOT_FORMAT` / :data:`CHECKPOINT_FORMAT`) every estimator
  and sketch speaks through ``state_dict()`` / ``to_bytes()``.
* :mod:`repro.experiments` — the config-driven experiment runner behind
  ``python -m repro``: declarative scenario specs, a named registry, and
  JSON + Markdown result reports (see ``docs/experiments.md``).
* :mod:`repro.telemetry` — dependency-free metrics, tracing spans and
  exporters instrumented through the ingest → merge → query → checkpoint
  path (see ``docs/observability.md``).

Quickstart::

    from repro import Dataset, ColumnQuery, UniformSampleEstimator

    data = Dataset.random(n_rows=10_000, n_columns=12, seed=1)
    estimator = UniformSampleEstimator.from_accuracy(n_columns=12, epsilon=0.05)
    estimator.observe(data)

    query = ColumnQuery.of([0, 3, 7], dimension=12)      # revealed after the data
    estimate = estimator.estimate_frequency(query, (0, 1, 0))
"""

from .core import (
    AlphaNet,
    AlphaNetEstimator,
    ColumnQuery,
    Dataset,
    ExactBaseline,
    FpEstimation,
    FrequencyEstimation,
    FrequencyVector,
    HeavyHitters,
    LpSampling,
    ProjectedFrequencyEstimator,
    SketchPlan,
    UniformSampleEstimator,
    rounding_distortion,
    sample_size_for,
)
from .engine import (
    Coordinator,
    IngestReport,
    QueryRequest,
    QueryService,
    StreamPartitioner,
    load_checkpoint,
    load_merged_estimator,
    save_checkpoint,
)
from .persistence import CHECKPOINT_FORMAT, SNAPSHOT_FORMAT
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    RunParams,
    get_scenario,
    run_experiment,
    scenario_names,
)
from .errors import (
    AlphabetError,
    CodeConstructionError,
    DimensionError,
    EstimationError,
    InvalidParameterError,
    ProtocolError,
    QueryError,
    ReproError,
    SnapshotError,
)
from .streaming import RowStream
from .telemetry import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    render_prometheus,
    render_span_tree,
    span,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaNet",
    "AlphaNetEstimator",
    "AlphabetError",
    "CHECKPOINT_FORMAT",
    "CodeConstructionError",
    "ColumnQuery",
    "Coordinator",
    "Dataset",
    "DimensionError",
    "EstimationError",
    "ExactBaseline",
    "ExperimentResult",
    "ExperimentSpec",
    "IngestReport",
    "FpEstimation",
    "FrequencyEstimation",
    "FrequencyVector",
    "HeavyHitters",
    "InvalidParameterError",
    "LpSampling",
    "MetricsRegistry",
    "ProjectedFrequencyEstimator",
    "ProtocolError",
    "QueryError",
    "QueryRequest",
    "QueryService",
    "ReproError",
    "RowStream",
    "RunParams",
    "SNAPSHOT_FORMAT",
    "SketchPlan",
    "SnapshotError",
    "StreamPartitioner",
    "Tracer",
    "UniformSampleEstimator",
    "__version__",
    "get_registry",
    "get_scenario",
    "get_tracer",
    "load_checkpoint",
    "load_merged_estimator",
    "render_prometheus",
    "render_span_tree",
    "rounding_distortion",
    "run_experiment",
    "sample_size_for",
    "save_checkpoint",
    "scenario_names",
    "span",
]

"""Declarative experiment specifications — the scenario vocabulary.

Every paper artifact the repository reproduces (Figure 1, Table 1, the
lower-bound separations, the accuracy/space and ingest-throughput sweeps)
is described by one :class:`ExperimentSpec`: what data to generate, which
estimator configurations to sweep, which queries to issue, how the engine
should be configured, and which metrics the run must record.  Specs are
frozen dataclasses so a scenario is a *value* — the CLI, the benchmarks and
the examples all execute the same spec through
:func:`~repro.experiments.runner.run_experiment`, keeping one source of
truth per artifact.

Example::

    >>> from repro.experiments import get_scenario
    >>> spec = get_scenario("figure1")
    >>> spec.paper_ref
    'Figure 1 / Theorem 6.5'
    >>> sorted(spec.metrics)[0]
    'approximation_at_eighth_space'
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..core.dataset import ColumnQuery, Dataset
from ..core.estimator import ProjectedFrequencyEstimator
from ..engine.coordinator import INGEST_BACKENDS
from ..engine.partition import PARTITION_POLICIES
from ..engine.resilience import ResilienceConfig
from ..errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import RunContext

__all__ = [
    "EngineConfig",
    "EstimatorSpec",
    "ExperimentSpec",
    "QuerySpec",
    "ResultTable",
    "RunParams",
    "ScenarioOutput",
    "WorkloadSpec",
]

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")


@dataclass(frozen=True)
class RunParams:
    """User-facing knobs of one experiment run (the CLI's override surface).

    Attributes
    ----------
    seed:
        Base random seed; scenarios derive every internal seed from it so
        two runs with the same seed produce identical JSON metrics.
    quick:
        Shrink dataset sizes / sweep grids to CI-smoke scale.  Metric *keys*
        never depend on ``quick``, only the workload scale does.
    n_shards:
        When set, overrides the scenario's engine shard count.
    batch_size:
        When set, overrides the scenario's engine ingest block size
        (``0`` means ``batch_size=None``: per-row ingest on ``serial``,
        the default transport block size on the worker backends).
    backend:
        When set, overrides the scenario's ingest backend (one of
        :data:`~repro.engine.coordinator.INGEST_BACKENDS` — the CLI's
        ``--backend`` flag).
    worker_addresses:
        ``"host:port"`` strings naming remote shard servers; required by
        (and only meaningful for) the ``sockets`` backend.
    checkpoint_to:
        When set, every engine session the scenario runs is saved into a
        checkpoint bundle at this directory (the build phase of
        ``python -m repro checkpoint``).
    from_checkpoint:
        When set, engine sessions are restored from the bundle at this
        directory instead of ingesting — the standalone query phase
        (``python -m repro run --from-checkpoint``).  Mutually exclusive
        with ``checkpoint_to``.
    retry / rpc_timeout / recovery:
        Raw ``--retry`` / ``--rpc-timeout`` / ``--recovery`` CLI specs
        overriding the engine's resilience posture (see
        :meth:`~repro.engine.resilience.ResilienceConfig.with_cli_overrides`
        and docs/robustness.md); ``None`` keeps the scenario's policy.

    Example::

        >>> RunParams(seed=3, quick=True).validate().seed
        3
    """

    seed: int = 0
    quick: bool = False
    n_shards: int | None = None
    batch_size: int | None = None
    backend: str | None = None
    worker_addresses: tuple[str, ...] | None = None
    checkpoint_to: str | None = None
    from_checkpoint: str | None = None
    retry: str | None = None
    rpc_timeout: str | None = None
    recovery: str | None = None

    def validate(self) -> "RunParams":
        """Check the overrides; returns ``self`` so calls chain."""
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.n_shards is not None and self.n_shards < 1:
            raise InvalidParameterError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.batch_size is not None and self.batch_size < 0:
            raise InvalidParameterError(
                f"batch_size must be >= 0, got {self.batch_size}"
            )
        if self.backend is not None and self.backend not in INGEST_BACKENDS:
            raise InvalidParameterError(
                f"unknown ingest backend {self.backend!r}; expected one of "
                f"{INGEST_BACKENDS}"
            )
        if self.checkpoint_to is not None and self.from_checkpoint is not None:
            raise InvalidParameterError(
                "checkpoint_to and from_checkpoint are mutually exclusive; "
                "build a bundle first, then replay from it"
            )
        # Parsing *is* the validation for the resilience specs: a typo in
        # --retry should fail here, not mid-ingest.
        ResilienceConfig().with_cli_overrides(
            retry=self.retry,
            rpc_timeout=self.rpc_timeout,
            recovery=self.recovery,
        )
        return self

    def to_dict(self) -> dict:
        """JSON-able view recorded inside every result payload."""
        return {
            "seed": self.seed,
            "quick": self.quick,
            "n_shards": self.n_shards,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "worker_addresses": (
                None
                if self.worker_addresses is None
                else list(self.worker_addresses)
            ),
            "checkpoint_to": self.checkpoint_to,
            "from_checkpoint": self.from_checkpoint,
            "retry": self.retry,
            "rpc_timeout": self.rpc_timeout,
            "recovery": self.recovery,
        }


@dataclass(frozen=True)
class EngineConfig:
    """How a scenario drives the sharded engine (PRs 1–2).

    The runner builds every :class:`~repro.engine.coordinator.Coordinator`
    from this config, after applying the ``--shards`` / ``--batch-size``
    CLI overrides via :meth:`with_overrides`.

    Example::

        >>> EngineConfig(n_shards=4).with_overrides(RunParams(n_shards=2)).n_shards
        2
    """

    n_shards: int = 1
    policy: str = "round_robin"
    backend: str = "serial"
    batch_size: int | None = None
    cache_size: int = 1024
    worker_addresses: tuple[str, ...] | None = None
    resilience: ResilienceConfig = ResilienceConfig()

    def validate(self) -> "EngineConfig":
        """Check the configuration against the engine's accepted values."""
        if self.n_shards < 1:
            raise InvalidParameterError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.policy not in PARTITION_POLICIES:
            raise InvalidParameterError(
                f"unknown partition policy {self.policy!r}; expected one of "
                f"{PARTITION_POLICIES}"
            )
        if self.backend not in INGEST_BACKENDS:
            raise InvalidParameterError(
                f"unknown ingest backend {self.backend!r}; expected one of "
                f"{INGEST_BACKENDS}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.cache_size < 0:
            raise InvalidParameterError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        self.resilience.validate()
        return self

    def with_overrides(self, params: RunParams) -> "EngineConfig":
        """Apply CLI overrides (``--shards``/``--batch-size``/``--backend``
        plus the ``--retry``/``--rpc-timeout``/``--recovery`` specs)."""
        config = self
        if params.n_shards is not None:
            config = replace(config, n_shards=params.n_shards)
        if params.batch_size is not None:
            config = replace(
                config, batch_size=params.batch_size if params.batch_size else None
            )
        if params.backend is not None:
            config = replace(config, backend=params.backend)
        if params.worker_addresses is not None:
            config = replace(
                config, worker_addresses=tuple(params.worker_addresses)
            )
        if (
            params.retry is not None
            or params.rpc_timeout is not None
            or params.recovery is not None
        ):
            config = replace(
                config,
                resilience=config.resilience.with_cli_overrides(
                    retry=params.retry,
                    rpc_timeout=params.rpc_timeout,
                    recovery=params.recovery,
                ),
            )
        return config.validate()

    def to_dict(self) -> dict:
        """JSON-able view recorded inside every engine-scenario result."""
        return {
            "n_shards": self.n_shards,
            "policy": self.policy,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "cache_size": self.cache_size,
            "worker_addresses": (
                None
                if self.worker_addresses is None
                else list(self.worker_addresses)
            ),
            "resilience": self.resilience.to_dict(),
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """Named dataset generator: ``build(params) -> Dataset``.

    Example::

        >>> from repro.workloads.synthetic import uniform_rows
        >>> spec = WorkloadSpec("tiny", lambda p: uniform_rows(16, 4, seed=p.seed))
        >>> spec.build(RunParams()).n_rows
        16
    """

    name: str
    build: Callable[[RunParams], Dataset]
    description: str = ""


@dataclass(frozen=True)
class EstimatorSpec:
    """One point of the estimator factory grid: ``build(params) -> estimator``.

    The runner turns this into the zero-argument replica factory the
    :class:`~repro.engine.coordinator.Coordinator` expects, so every shard
    gets a fresh, identically seeded replica.

    Example::

        >>> from repro.core.uniform_sample import UniformSampleEstimator
        >>> spec = EstimatorSpec(
        ...     "usample-t64",
        ...     lambda p: UniformSampleEstimator(n_columns=8, sample_size=64, seed=p.seed),
        ... )
        >>> spec.build(RunParams()).sample_size
        64
    """

    name: str
    build: Callable[[RunParams], ProjectedFrequencyEstimator]
    description: str = ""


@dataclass(frozen=True)
class QuerySpec:
    """Named query-workload generator: ``build(dataset, params) -> queries``.

    Example::

        >>> from repro.workloads.queries import random_queries
        >>> spec = QuerySpec("random-4", lambda data, p: random_queries(
        ...     data.n_columns, 4, count=3, seed=p.seed))
        >>> spec.name
        'random-4'
    """

    name: str
    build: Callable[[Dataset, RunParams], Sequence[ColumnQuery]]
    description: str = ""


@dataclass(frozen=True)
class ResultTable:
    """One rendered table of a result (title + headers + rows of cells)."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def validate(self) -> "ResultTable":
        """Check every row matches the header width."""
        if not self.headers:
            raise InvalidParameterError("a result table needs headers")
        for row in self.rows:
            if len(row) != len(self.headers):
                raise InvalidParameterError(
                    f"table {self.title!r}: row has {len(row)} cells but "
                    f"there are {len(self.headers)} headers"
                )
        return self

    def to_dict(self) -> dict:
        """JSON-able view of the table."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }


@dataclass(frozen=True)
class ScenarioOutput:
    """What a scenario body hands back to the runner: metrics + tables."""

    metrics: Mapping[str, float]
    tables: tuple[ResultTable, ...] = ()


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative, runnable reproduction of a paper artifact.

    Attributes
    ----------
    name:
        CLI handle (``python -m repro run <name>``); lower-case kebab case.
    title:
        One-line human title shown by ``python -m repro list``.
    paper_ref:
        The figure/table/theorem of the paper this scenario reproduces.
    description:
        What the scenario measures and how to read the output.
    metrics:
        The exact metric keys the run must record — enforced by the runner,
        so a scenario cannot silently drop or rename a recorded number.
    run:
        Scenario body ``run(ctx) -> ScenarioOutput``; ``ctx`` is a
        :class:`~repro.experiments.runner.RunContext` exposing the workload,
        the estimator grid and the Coordinator/QueryService helpers.
    engine:
        Engine configuration for scenarios that ingest through the sharded
        engine; ``None`` marks an analytic (closed-form) scenario.
    workload / estimators / queries:
        The declarative ingredients the body draws from.

    Example::

        >>> from repro.experiments import get_scenario
        >>> get_scenario("table1").engine is None   # analytic scenario
        True
    """

    name: str
    title: str
    paper_ref: str
    description: str
    metrics: tuple[str, ...]
    run: Callable[["RunContext"], ScenarioOutput]
    engine: EngineConfig | None = None
    workload: WorkloadSpec | None = None
    estimators: tuple[EstimatorSpec, ...] = ()
    queries: QuerySpec | None = None

    @property
    def is_engine_scenario(self) -> bool:
        """Whether runs go through the Coordinator/QueryService path."""
        return self.engine is not None

    def validate(self) -> "ExperimentSpec":
        """Check the spec is complete and internally consistent."""
        if not _NAME_PATTERN.match(self.name):
            raise InvalidParameterError(
                f"scenario name {self.name!r} must be lower-case kebab case"
            )
        for label, value in (
            ("title", self.title),
            ("paper_ref", self.paper_ref),
            ("description", self.description),
        ):
            if not value or not value.strip():
                raise InvalidParameterError(
                    f"scenario {self.name!r} needs a non-empty {label}"
                )
        if not self.metrics:
            raise InvalidParameterError(
                f"scenario {self.name!r} must declare at least one metric"
            )
        if len(set(self.metrics)) != len(self.metrics):
            raise InvalidParameterError(
                f"scenario {self.name!r} declares duplicate metric names"
            )
        if not callable(self.run):
            raise InvalidParameterError(
                f"scenario {self.name!r} needs a callable run body"
            )
        if self.engine is not None:
            self.engine.validate()
            if self.workload is None:
                raise InvalidParameterError(
                    f"engine scenario {self.name!r} needs a workload"
                )
            if not self.estimators:
                raise InvalidParameterError(
                    f"engine scenario {self.name!r} needs an estimator grid"
                )
        return self

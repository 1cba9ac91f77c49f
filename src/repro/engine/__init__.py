"""Sharded, mergeable, parallel ingest + query-serving engine.

The scaling layer on top of the reproduction: route a row stream to shards
(:mod:`~repro.engine.partition`), ingest the shards in parallel into
mergeable estimator replicas (:mod:`~repro.engine.coordinator`), serve
batch queries from the merged summary with caching and latency accounting
(:mod:`~repro.engine.service`), and persist/restore whole engine states
as versioned checkpoint files (:mod:`~repro.engine.checkpoint`) so the
build and query phases can live in different processes.

Failure handling lives in :mod:`~repro.engine.resilience`: retry/backoff
and deadline policies, supervised worker recovery with bit-identical
replay, graceful degradation with coverage-annotated answers, and a
deterministic fault-injection harness.
"""

from .checkpoint import (
    CheckpointInfo,
    load_checkpoint,
    load_merged_estimator,
    save_checkpoint,
)
from .coordinator import INGEST_BACKENDS, Coordinator, IngestReport
from .partition import PARTITION_POLICIES, StreamPartitioner
from .resilience import (
    DeadlinePolicy,
    DegradedAnswer,
    FaultPlan,
    FaultRule,
    RecoveryPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from .service import CacheInfo, LatencySummary, QueryRequest, QueryService

__all__ = [
    "CacheInfo",
    "CheckpointInfo",
    "Coordinator",
    "DeadlinePolicy",
    "DegradedAnswer",
    "FaultPlan",
    "FaultRule",
    "INGEST_BACKENDS",
    "IngestReport",
    "LatencySummary",
    "PARTITION_POLICIES",
    "QueryRequest",
    "QueryService",
    "RecoveryPolicy",
    "ResilienceConfig",
    "RetryPolicy",
    "StreamPartitioner",
    "load_checkpoint",
    "load_merged_estimator",
    "save_checkpoint",
]

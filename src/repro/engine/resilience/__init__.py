"""Failure handling for the transport-backed engine.

The transport substrate (``repro.engine.transport``) moves row blocks and
snapshot bytes between the :class:`~repro.engine.coordinator.Coordinator`
and shard workers; this package decides what happens when that movement
fails.  Failures are treated as expected protocol states, not exceptions:

* :mod:`~repro.engine.resilience.policy` — the three declarative knobs:
  :class:`RetryPolicy` (bounded attempts with seeded exponential backoff),
  :class:`DeadlinePolicy` (per-RPC timeouts) and :class:`RecoveryPolicy`
  (respawn / reassign / fail-fast, degradation on exhaustion), bundled
  into a :class:`ResilienceConfig` that rides ``EngineConfig`` and the
  ``--retry`` / ``--rpc-timeout`` / ``--recovery`` CLI flags.
* :mod:`~repro.engine.resilience.supervisor` — per-shard recovery
  bookkeeping (:class:`ShardSupervisor`: basis snapshot + replay buffer
  of the current segment's blocks) plus the blessed connect path
  (:func:`connect_with_retry`) that lint rule PRO009 requires every
  transport dial to use.
* :mod:`~repro.engine.resilience.degrade` — :class:`DegradedAnswer`, the
  coverage-annotated answer wrapper served when recovery is exhausted
  and the coordinator keeps going on the surviving shards.
* :mod:`~repro.engine.resilience.faults` — :class:`FaultPlan`, the
  seeded, declarative fault-injection harness honored by the transport
  modules (kill after K blocks, corrupt frame M, refuse connect until
  attempt J), so every failure mode is reproducible in tests and CI.

Recovery is bit-identical by construction: a recovered worker is loaded
from its shard's pristine snapshot bytes and replays exactly the blocks
of the current segment, in the original sequence order, so the
estimator observes the same rows in the same order as a serial ingest.
See ``docs/robustness.md``.
"""

from .degrade import DegradedAnswer
from .faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
    active_fault_plan,
    clear_fault_plan,
    install_fault_plan,
    installed_fault_plan,
)
from .policy import (
    DeadlinePolicy,
    EXHAUSTION_ACTIONS,
    RECOVERY_MODES,
    RecoveryPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from .supervisor import ShardSupervisor, WorkerSupervisor, connect_with_retry

__all__ = [
    "DeadlinePolicy",
    "DegradedAnswer",
    "EXHAUSTION_ACTIONS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultRule",
    "RECOVERY_MODES",
    "RecoveryPolicy",
    "ResilienceConfig",
    "RetryPolicy",
    "ShardSupervisor",
    "WorkerSupervisor",
    "active_fault_plan",
    "clear_fault_plan",
    "connect_with_retry",
    "install_fault_plan",
    "installed_fault_plan",
]

"""Tests for repro.engine.resilience: policies, supervision, fault injection.

The load-bearing property is **bit-identical recovery**: a shard worker
killed, hung or cut off mid-ingest is reconnected or reassigned,
reloaded from its basis snapshot and replayed its segment's blocks, after
which the merged summary equals (``to_bytes()``) a clean serial ingest of
the same stream.  The degradation half pins the exhaustion contract:
once the :class:`RecoveryPolicy` is spent with ``on_exhausted="degrade"``
the coordinator reports lost shards and row coverage instead of raising,
and every query answer carries the coverage annotation.

All faults are injected through the seeded, declarative
:class:`FaultPlan` harness — nothing here depends on racing a signal
against the ingest loop.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

from repro import (
    ColumnQuery,
    Coordinator,
    Dataset,
    EstimationError,
    ExactBaseline,
    InvalidParameterError,
    QueryService,
    RowStream,
    UniformSampleEstimator,
)
from repro import persistence, telemetry
from repro.engine.resilience import (
    DeadlinePolicy,
    DegradedAnswer,
    FaultPlan,
    FaultRule,
    RecoveryPolicy,
    ResilienceConfig,
    RetryPolicy,
    ShardSupervisor,
    WorkerSupervisor,
    active_fault_plan,
    installed_fault_plan,
)
from repro.engine.resilience.faults import FAULT_PLAN_ENV
from repro.engine.transport import SocketShardClient, spawn_local_servers
from repro.errors import TransportError

D = 5
DATA = Dataset.random(n_rows=400, n_columns=D, seed=21)
MORE = Dataset.random(n_rows=200, n_columns=D, seed=22)


def _exact_factory() -> ExactBaseline:
    return ExactBaseline(n_columns=D)


def _usample_factory() -> UniformSampleEstimator:
    return UniformSampleEstimator(n_columns=D, sample_size=48, seed=9)


def _serial_bytes(factory, streams, batch_size: int = 64) -> bytes:
    coordinator = Coordinator(
        factory, n_shards=2, backend="serial", batch_size=batch_size
    )
    for stream in streams:
        coordinator.ingest(stream)
    return coordinator.merged_estimator.to_bytes()


def _shutdown_servers(addresses, processes) -> None:
    for address in addresses:
        with contextlib.suppress(TransportError, ConnectionError, OSError):
            SocketShardClient(address).shutdown_server()
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - teardown hardening
            process.terminate()


@contextlib.contextmanager
def _loopback_servers(count: int = 2):
    """Fork loopback shard servers; they inherit any installed fault plan."""
    addresses, processes = spawn_local_servers(count)
    try:
        yield addresses
    finally:
        _shutdown_servers(addresses, processes)


# -- policy parsing and validation ----------------------------------------------


def test_retry_policy_delay_schedule_is_seeded_and_bounded() -> None:
    policy = RetryPolicy(max_attempts=5, base_delay=0.5, max_delay=1.0, seed=7)
    first = list(policy.delays())
    second = list(policy.delays())
    assert first == second  # pure function of the policy fields
    assert len(first) == policy.max_attempts - 1
    assert all(0 < delay <= policy.max_delay for delay in first)
    reseeded = RetryPolicy(max_attempts=5, base_delay=0.5, max_delay=1.0, seed=8)
    assert list(reseeded.delays()) != first
    unjittered = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0)
    assert list(unjittered.delays()) == [0.1, 0.2, 0.4]


def test_retry_policy_parse_and_validate() -> None:
    policy = RetryPolicy.parse("5,base=0.1,jitter=0,seed=7")
    assert policy.max_attempts == 5
    assert policy.base_delay == 0.1
    assert policy.jitter == 0.0
    assert policy.seed == 7
    with pytest.raises(InvalidParameterError, match="max_attempts"):
        RetryPolicy.parse("0")
    with pytest.raises(InvalidParameterError, match="unknown key"):
        RetryPolicy.parse("attempts=3,warp=9")
    with pytest.raises(InvalidParameterError, match="expects int"):
        RetryPolicy.parse("attempts=three")


def test_deadline_policy_parse_bare_number_applies_to_all() -> None:
    deadlines = DeadlinePolicy.parse("30")
    assert (deadlines.connect, deadlines.ingest, deadlines.snapshot) == (
        30.0, 30.0, 30.0,
    )
    split = DeadlinePolicy.parse("connect=5,ingest=60,snapshot=120")
    assert (split.connect, split.ingest, split.snapshot) == (5.0, 60.0, 120.0)
    with pytest.raises(InvalidParameterError, match="must be > 0"):
        DeadlinePolicy.parse("0")


def test_recovery_policy_parse_and_validate() -> None:
    policy = RecoveryPolicy.parse("reassign,max=3,on-exhausted=degrade")
    assert policy.mode == "reassign"
    assert policy.max_recoveries == 3
    assert policy.on_exhausted == "degrade"
    assert not policy.fail_fast
    assert RecoveryPolicy.parse("fail-fast").fail_fast
    with pytest.raises(InvalidParameterError, match="unknown recovery mode"):
        RecoveryPolicy.parse("teleport")
    with pytest.raises(InvalidParameterError, match="on_exhausted"):
        RecoveryPolicy.parse("respawn,on_exhausted=shrug")


def test_checkpoint_written_with_sync_every_still_loads(tmp_path) -> None:
    """``sync_every`` is gone: old checkpoints carrying it still load and
    serve, while the ``--recovery`` grammar rejects it by name."""
    coordinator = Coordinator(
        _exact_factory, n_shards=2, backend="serial", batch_size=64
    )
    coordinator.ingest(RowStream(DATA))
    path = tmp_path / "engine.ckpt"
    coordinator.save_checkpoint(path)
    envelope = persistence.load_envelope(path.read_bytes())
    envelope["config"]["resilience"]["recovery"]["sync_every"] = 2
    path.write_bytes(persistence.dump_envelope(envelope))

    query = ColumnQuery.of([0, 2], D)
    expected = coordinator.merged_estimator.estimate_fp(query, 1)
    restored = Coordinator.load_checkpoint(path, _exact_factory)
    assert restored.resilience == coordinator.resilience
    assert restored.merged_estimator.estimate_fp(query, 1) == expected
    assert QueryService.from_checkpoint(path).estimate_fp(query, 1) == expected
    with pytest.raises(InvalidParameterError, match="known keys: "):
        RecoveryPolicy.parse("reassign,sync_every=2")


def test_resilience_config_round_trip_tolerates_unknown_keys() -> None:
    config = ResilienceConfig().with_cli_overrides(
        retry="4,seed=3", rpc_timeout="45", recovery="reassign,max=1"
    )
    payload = json.loads(json.dumps(config.to_dict()))
    assert ResilienceConfig.from_dict(payload) == config
    # Manifests written by a newer engine may carry extra fields.
    payload["retry"]["hedging"] = 2
    payload["recovery"]["quorum"] = "fancy"
    assert ResilienceConfig.from_dict(payload) == config


# -- fault plan harness ----------------------------------------------------------


def test_fault_rule_validation() -> None:
    with pytest.raises(InvalidParameterError, match="unknown fault action"):
        FaultRule(action="meteor").validate()
    with pytest.raises(InvalidParameterError, match="after_blocks"):
        FaultRule(action="crash").validate()
    with pytest.raises(InvalidParameterError, match="frame index"):
        FaultRule(action="corrupt").validate()
    with pytest.raises(InvalidParameterError, match="until_attempt"):
        FaultRule(action="refuse_connect").validate()


def test_fault_plan_env_round_trip(monkeypatch) -> None:
    plan = FaultPlan(
        [FaultRule(action="crash", shard=1, after_blocks=2)], seed=11
    )
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan.to_dict()))
    resolved = active_fault_plan()
    assert resolved is not None
    assert resolved.seed == 11
    assert resolved.rules == plan.rules
    # An in-process installation takes precedence over the environment.
    override = FaultPlan([FaultRule(action="drop", frame=0)])
    with installed_fault_plan(override):
        assert active_fault_plan() is override
    assert active_fault_plan() is not override


def test_fault_plan_frame_mangling_and_once_latch(tmp_path) -> None:
    frame = bytes(range(64))
    plan = FaultPlan([
        FaultRule(action="drop", shard=0, frame=1),
        FaultRule(action="corrupt", shard=1, frame=0),
        FaultRule(action="truncate", shard=2, frame=0),
    ])
    assert plan.mangle_frame(0, 0, frame) == frame  # frame index mismatch
    assert plan.mangle_frame(0, 1, frame) is None   # drop
    assert plan.mangle_frame(0, 1, frame) == frame  # once-latched
    corrupted = plan.mangle_frame(1, 0, frame)
    assert len(corrupted) == len(frame)
    assert corrupted[:4] == frame[:4]       # u32 length prefix intact
    assert corrupted[4:12] != frame[4:12]   # header JSON broken
    assert len(plan.mangle_frame(2, 0, frame)) == len(frame) // 2
    # state_dir latches survive a new plan instance (a respawned process).
    persisted = dict(plan.to_dict(), state_dir=str(tmp_path))
    first, second = FaultPlan.from_dict(persisted), FaultPlan.from_dict(persisted)
    assert first.mangle_frame(0, 1, frame) is None
    assert second.mangle_frame(0, 1, frame) == frame


def test_fault_plan_connect_refusal_is_attempt_scoped() -> None:
    plan = FaultPlan([
        FaultRule(action="refuse_connect", shard=0, until_attempt=3)
    ])
    assert plan.refuses_connect(0, 1)
    assert plan.refuses_connect(0, 2)
    assert not plan.refuses_connect(0, 3)
    assert not plan.refuses_connect(1, 1)  # other shards unaffected


# -- supervisor bookkeeping ------------------------------------------------------


def _block(n_rows: int) -> np.ndarray:
    return np.ones((n_rows, D), dtype=np.int64)


def test_shard_supervisor_replay_buffer_and_sync() -> None:
    shard = ShardSupervisor(0, b"pristine", ResilienceConfig())
    for rows in (10, 20, 30):
        shard.record_send(shard.assign_seq(), _block(rows))
    assert shard.rows_sent == 60
    assert [seq for seq, _ in shard.replay_blocks()] == [0, 1, 2]
    shard.after_collect()
    assert shard.basis == b"pristine"
    assert shard.basis_seq == 2
    assert shard.replay_blocks() == ()
    assert shard.rows_sent == 0
    assert shard.assign_seq() == 3  # sequence numbers stay monotone


def test_shard_supervisor_mark_lost_folds_sent_rows() -> None:
    shard = ShardSupervisor(1, b"p", ResilienceConfig())
    shard.record_send(shard.assign_seq(), _block(25))
    shard.mark_lost()
    assert shard.lost
    assert shard.replay_blocks() == ()
    shard.record_dropped(15)
    assert shard.drain_dropped() == 40  # 25 shipped-then-lost + 15 routed-after
    assert shard.drain_dropped() == 0


def test_fail_fast_disables_tracking_and_recovery() -> None:
    config = ResilienceConfig(recovery=RecoveryPolicy(mode="fail-fast"))
    supervisor = WorkerSupervisor("sockets", [b"a", b"b"], config)
    shard = supervisor.shard(0)
    shard.record_send(shard.assign_seq(), _block(10))
    assert shard.buffer == []  # zero-overhead path: nothing buffered
    assert not supervisor.may_recover(0)


def test_worker_supervisor_policy_decisions() -> None:
    config = ResilienceConfig(
        recovery=RecoveryPolicy(max_recoveries=1, on_exhausted="degrade")
    )
    supervisor = WorkerSupervisor("sockets", [b"a", b"b"], config)
    assert supervisor.may_recover(1)
    with supervisor.begin_recovery(1):
        pass
    assert not supervisor.may_recover(1)  # budget of 1 is spent
    assert supervisor.may_recover(0)      # per-shard budgets
    assert supervisor.may_degrade()
    assert supervisor.recoveries == 1
    supervisor.shard(1).mark_lost()
    assert supervisor.lost_shards == (1,)
    supervisor.record_retry("connect")
    assert supervisor.retries == 1


# -- degraded answers ------------------------------------------------------------


def test_degraded_answer_contract() -> None:
    answer = DegradedAnswer(value=42.5, coverage=0.5)
    assert float(answer) == 42.5
    assert answer.to_dict() == {"value": 42.5, "coverage": 0.5}
    for coverage in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidParameterError, match="strictly between"):
            DegradedAnswer(value=1.0, coverage=coverage)


def test_query_service_rejects_bad_coverage() -> None:
    estimator = _exact_factory()
    with pytest.raises(InvalidParameterError, match="coverage"):
        QueryService(estimator, coverage=0.0)
    with pytest.raises(InvalidParameterError, match="coverage"):
        QueryService(estimator, coverage=1.5)


# -- end-to-end: socket recovery -------------------------------------------------


def test_socket_crash_after_sync_recovers_bit_identical(tmp_path) -> None:
    """A server killed mid-segment: the survivor reloads the pristine
    basis at its sequence number and replays the segment: same bytes."""
    serial = _serial_bytes(_usample_factory, [RowStream(DATA)])
    plan = FaultPlan(
        [FaultRule(action="crash", shard=1, after_blocks=2)],
        state_dir=str(tmp_path),
    )
    with installed_fault_plan(plan), _loopback_servers() as addresses:
        with Coordinator(
            _usample_factory, n_shards=2, backend="sockets", batch_size=64,
            worker_addresses=addresses,
            resilience={"recovery": {"mode": "reassign"}},
        ) as coordinator:
            report = coordinator.ingest(RowStream(DATA))
            assert report.recoveries >= 1
            assert report.shards_lost == ()
            assert report.coverage == 1.0
            assert coordinator.merged_estimator.to_bytes() == serial


def test_socket_crash_recovery_spans_repeated_ingests(tmp_path) -> None:
    """The reassigned shard keeps serving later segments correctly."""
    streams = [RowStream(DATA), RowStream(MORE)]
    serial = _serial_bytes(_exact_factory, streams)
    plan = FaultPlan(
        [FaultRule(action="crash", shard=0, after_blocks=1)],
        state_dir=str(tmp_path),
    )
    with installed_fault_plan(plan), _loopback_servers() as addresses:
        with Coordinator(
            _exact_factory, n_shards=2, backend="sockets", batch_size=64,
            worker_addresses=addresses,
            # The crashed server stays down: move the shard to the survivor.
            resilience={"recovery": {"mode": "reassign"}},
        ) as coordinator:
            first = coordinator.ingest(RowStream(DATA))
            second = coordinator.ingest(RowStream(MORE))
            assert first.recoveries + second.recoveries == 1
            assert coordinator.merged_estimator.to_bytes() == serial


def test_socket_exhausted_recovery_degrades_with_coverage(tmp_path) -> None:
    """Spent recovery budget + on_exhausted=degrade → partial answers."""
    plan = FaultPlan(
        [FaultRule(action="crash", shard=1, after_blocks=0)],
        state_dir=str(tmp_path),
    )
    with installed_fault_plan(plan), _loopback_servers() as addresses:
        with Coordinator(
            _exact_factory,
            n_shards=2,
            backend="sockets",
            batch_size=64,
            worker_addresses=addresses,
            resilience={
                "recovery": {
                    "max_recoveries": 0, "on_exhausted": "degrade",
                }
            },
        ) as coordinator:
            report = coordinator.ingest(RowStream(DATA))
            assert report.shards_lost == (1,)
            assert report.rows_dropped > 0
            assert report.rows_total + report.rows_dropped == DATA.n_rows
            assert 0.0 < report.coverage < 1.0
            assert coordinator.coverage == pytest.approx(report.coverage)

            service = coordinator.query_service()
            assert service.degraded
            answer = service.estimate_fp(ColumnQuery.of([0, 1], D), 1)
            assert isinstance(answer, DegradedAnswer)
            assert answer.coverage == pytest.approx(report.coverage)
            counter = telemetry.get_registry().counter(
                "repro_resilience_degraded_queries_total"
            )
            assert counter.value(kind="fp") >= 1

            # Coverage survives the checkpoint round trip.
            path = tmp_path / "degraded.ckpt"
            coordinator.save_checkpoint(path)
    restored = QueryService.from_checkpoint(path)
    assert restored.degraded
    assert restored.coverage == pytest.approx(report.coverage)
    assert isinstance(
        restored.estimate_fp(ColumnQuery.of([0, 1], D), 1), DegradedAnswer
    )


def test_exhausting_the_last_live_shard_fails_instead_of_degrading() -> None:
    """Degrading needs a survivor: when every shard's budget runs out the
    ingest fails like on_exhausted=fail, and the next ingest starts over."""
    serial = _serial_bytes(_exact_factory, [RowStream(MORE)])
    # One dropped block per shard: each worker sees a sequence gap and drops
    # its connection.  The servers were forked before the plan, so they stay
    # up and the second ingest reconnects to them.
    plan = FaultPlan([
        FaultRule(action="drop", shard=0, frame=2),
        FaultRule(action="drop", shard=1, frame=2),
    ])
    with _loopback_servers() as addresses:
        with Coordinator(
            _exact_factory, n_shards=2, backend="sockets", batch_size=64,
            worker_addresses=addresses,
            resilience={
                "recovery": {"max_recoveries": 0, "on_exhausted": "degrade"}
            },
        ) as coordinator:
            with installed_fault_plan(plan):
                with pytest.raises(EstimationError, match="'sockets' backend"):
                    coordinator.ingest(RowStream(DATA))
            assert coordinator._socket_pool is None
            assert coordinator.coverage == 1.0
            report = coordinator.ingest(RowStream(MORE))
            assert report.shards_lost == ()
            assert report.coverage == 1.0
            assert coordinator.merged_estimator.to_bytes() == serial


def test_coordinator_close_is_idempotent_and_context_managed() -> None:
    with _loopback_servers() as addresses:
        with Coordinator(
            _exact_factory, n_shards=2, backend="sockets",
            worker_addresses=addresses,
        ) as c:
            c.ingest(RowStream(MORE))
            assert c._socket_pool is not None
        assert c._socket_pool is None
        c.close()  # second close is a no-op, not an error
        c.close()


def test_socket_server_crash_reassigns_to_survivor(tmp_path) -> None:
    """A dead server's shard moves to a surviving address: same bytes."""
    serial = _serial_bytes(_usample_factory, [RowStream(DATA)])
    plan = FaultPlan(
        [FaultRule(action="crash", shard=1, after_blocks=2)],
        state_dir=str(tmp_path),
    )
    with installed_fault_plan(plan):
        # Servers are forked under the installed plan and inherit it.
        addresses, processes = spawn_local_servers(2)
        try:
            with Coordinator(
                _usample_factory,
                n_shards=2,
                backend="sockets",
                worker_addresses=addresses,
                batch_size=64,
                resilience={
                    "retry": {"max_attempts": 2, "base_delay": 0.01},
                    "recovery": {"mode": "reassign"},
                },
            ) as coordinator:
                report = coordinator.ingest(RowStream(DATA))
                assert report.recoveries >= 1
                assert report.shards_lost == ()
                assert coordinator.merged_estimator.to_bytes() == serial
        finally:
            _shutdown_servers(addresses, processes)


def test_socket_connect_refusal_is_retried_and_counted() -> None:
    plan = FaultPlan(
        [FaultRule(action="refuse_connect", shard=0, until_attempt=2)]
    )
    serial = _serial_bytes(_exact_factory, [RowStream(MORE)])
    addresses, processes = spawn_local_servers(2)
    try:
        with installed_fault_plan(plan):
            with Coordinator(
                _exact_factory,
                n_shards=2,
                backend="sockets",
                worker_addresses=addresses,
                batch_size=64,
                resilience={"retry": {"max_attempts": 3, "base_delay": 0.01}},
            ) as coordinator:
                report = coordinator.ingest(RowStream(MORE))
                assert report.retries >= 1
                assert coordinator.merged_estimator.to_bytes() == serial
    finally:
        _shutdown_servers(addresses, processes)


def test_socket_exhausted_connect_names_address() -> None:
    config = ResilienceConfig().with_cli_overrides(
        retry="2,base=0.01,jitter=0", rpc_timeout="connect=0.2"
    )
    with pytest.raises(TransportError, match=r"127\.0\.0\.1:9.*2 attempt"):
        SocketShardClient("127.0.0.1:9", resilience=config, shard_index=0)


# -- checkpoints naming a removed backend -----------------------------------------


def test_checkpoint_naming_removed_backend_serves_but_does_not_rebuild(
    tmp_path,
) -> None:
    """A manifest whose backend no longer exists still serves queries.

    ``QueryService.from_checkpoint`` restores only the merged summary and
    never reads the backend; rebuilding the full engine from the same file
    is refused with an error naming the backend.
    """
    coordinator = Coordinator(
        _exact_factory, n_shards=2, backend="serial", batch_size=64
    )
    coordinator.ingest(RowStream(DATA))
    path = tmp_path / "engine.ckpt"
    coordinator.save_checkpoint(path)
    envelope = persistence.load_envelope(path.read_bytes())
    envelope["config"]["backend"] = "resident"
    path.write_bytes(persistence.dump_envelope(envelope))

    query = ColumnQuery.of([0, 2], D)
    service = QueryService.from_checkpoint(path)
    assert service.estimate_fp(query, 1) == (
        coordinator.merged_estimator.estimate_fp(query, 1)
    )
    with pytest.raises(InvalidParameterError, match="resident"):
        Coordinator.load_checkpoint(path, _exact_factory)

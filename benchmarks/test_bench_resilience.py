"""E16 — Resilience overhead: supervised ingest, clean vs one-kill runs.

Supervision is bookkeeping on the coordinator side: every block sent to a
shard is held in a replay buffer until a snapshot covers it, so a dead
worker can be respawned, reloaded from its basis and replayed — with a
merged summary still byte-identical to the clean run.  This benchmark
quantifies what that costs on the sockets backend, each arm against two
fresh loopback shard servers:

* ``fail-fast`` — supervision off (the zero-overhead pre-resilience path);
* ``reassign (clean)`` — supervision on, no faults: pure buffering overhead;
* ``reassign (one kill)`` — a seeded :class:`FaultPlan` crashes one
  server mid-stream; the wall time includes moving the shard to the
  surviving server and replaying it there.

Correctness is asserted unconditionally: all three arms must produce the
same merged summary bytes, and the killed arm must report exactly the
recoveries the plan injected.  Results can be written to
``BENCH_resilience.json`` with ``--record-bench`` / ``REPRO_RECORD_BENCH=1``.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from _bench_utils import emit, render_table
from repro import Coordinator, RowStream
from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.engine.resilience import FaultPlan, FaultRule, installed_fault_plan
from repro.engine.transport import SocketShardClient, spawn_local_servers

N_ROWS = 6_000
N_COLUMNS = 10
N_SHARDS = 2
BATCH_SIZE = 256
KILL_SHARD = 1
KILL_AFTER_BLOCKS = 4


def _factory() -> AlphaNetEstimator:
    return AlphaNetEstimator(
        n_columns=N_COLUMNS,
        alpha=0.25,
        plan=SketchPlan.default_f0(epsilon=0.3, seed=33),
    )


def _stream() -> RowStream:
    from repro.workloads.synthetic import zipfian_rows

    return RowStream(
        zipfian_rows(
            n_rows=N_ROWS,
            n_columns=N_COLUMNS,
            distinct_patterns=500,
            exponent=1.2,
            seed=321,
        )
    )


def _run(resilience: dict, plan: FaultPlan | None) -> tuple:
    """(wall seconds, merged bytes, recoveries) for one supervised ingest.

    The two loopback servers are forked while ``plan`` is installed, so
    its worker-side crash rule reaches them.
    """
    faults = (
        installed_fault_plan(plan) if plan is not None
        else contextlib.nullcontext()
    )
    with faults:
        addresses, processes = spawn_local_servers(N_SHARDS)
        coordinator = Coordinator(
            _factory,
            n_shards=N_SHARDS,
            backend="sockets",
            batch_size=BATCH_SIZE,
            worker_addresses=addresses,
            resilience=resilience,
        )
        try:
            started = time.perf_counter()
            report = coordinator.ingest(_stream())
            wall = time.perf_counter() - started
            return wall, coordinator.merged_estimator.to_bytes(), report.recoveries
        finally:
            coordinator.close()
            for address in addresses:
                with contextlib.suppress(Exception):
                    SocketShardClient(address).shutdown_server()
            for process in processes:
                process.join(timeout=5)


def test_resilience_overhead(
    benchmark, record_bench, bench_metadata, tmp_path
):
    """Clean vs one-kill supervised ingest; all arms byte-identical."""

    def run_sweep():
        results = {}
        results["fail-fast"] = _run(
            {"recovery": {"mode": "fail-fast"}}, None
        )
        reassign = {"recovery": {"mode": "reassign"}}
        results["reassign-clean"] = _run(reassign, None)
        kill_plan = FaultPlan(
            [
                FaultRule(
                    action="crash",
                    shard=KILL_SHARD,
                    after_blocks=KILL_AFTER_BLOCKS,
                )
            ],
            state_dir=str(tmp_path),
        )
        results["reassign-one-kill"] = _run(reassign, kill_plan)
        return results

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    baseline_wall = results["fail-fast"][0]
    emit(
        f"Supervised sockets ingest: {N_ROWS:,} rows, {N_SHARDS} shards, "
        f"batch_size={BATCH_SIZE}, kill shard {KILL_SHARD} after "
        f"{KILL_AFTER_BLOCKS} blocks",
        render_table(
            ["arm", "wall seconds", "rows/sec", "vs fail-fast", "recoveries"],
            [
                (
                    arm,
                    f"{wall:.3f}",
                    f"{N_ROWS / wall:,.0f}",
                    f"{wall / baseline_wall:.2f}x",
                    str(recoveries),
                )
                for arm, (wall, _, recoveries) in results.items()
            ],
        ),
    )

    # Recovery must be invisible in the answer: all arms byte-identical.
    merged = {arm: payload for arm, (_, payload, _) in results.items()}
    assert merged["reassign-clean"] == merged["fail-fast"]
    assert merged["reassign-one-kill"] == merged["fail-fast"]
    # The killed arm recovered exactly the one injected crash; clean arms
    # recovered nothing.
    assert results["fail-fast"][2] == 0
    assert results["reassign-clean"][2] == 0
    assert results["reassign-one-kill"][2] == 1

    if record_bench:
        record = {
            "meta": bench_metadata,
            "n_rows": N_ROWS,
            "n_columns": N_COLUMNS,
            "n_shards": N_SHARDS,
            "batch_size": BATCH_SIZE,
            "kill_shard": KILL_SHARD,
            "kill_after_blocks": KILL_AFTER_BLOCKS,
            "wall_seconds": {
                arm: wall for arm, (wall, _, _) in results.items()
            },
            "supervision_overhead": (
                results["reassign-clean"][0] / baseline_wall
            ),
            "one_kill_overhead": (
                results["reassign-one-kill"][0] / baseline_wall
            ),
        }
        out_path = (
            Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
        )
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded perf trajectory -> {out_path}")

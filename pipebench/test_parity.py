"""Backend parity: every ingest backend answers each workload identically.

Runs a scaled-down shape of each pipeline workload on the serial,
processes and resident backends and on a two-server sockets loopback, and
asserts identical answers.  Answers are compared, not snapshot bytes: the
merged summary's ``version`` counter counts observe calls, so it differs
between backends that answer the same.  Each round also checks that the
service restored from the checkpoint answers as the live merged summary.

    PYTHONPATH=src python -m pytest pipebench -q
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import telemetry
from repro.engine import INGEST_BACKENDS

from bench_inputs import N_SHARDS, REQUESTS_PER_CALL, WORKLOADS, make_inputs
from bench_pipeline import loopback_servers, run_round

SCALED = {
    "alphanet-build": dict(
        segment_rows=400, segments=2, query_calls=2, pool_size=2 * REQUESTS_PER_CALL
    ),
    "usample-query": dict(segment_rows=5_000, segments=2, query_calls=4),
    "usample-stream": dict(segment_rows=2_000, segments=3),
}


@pytest.fixture(scope="module")
def loopback_addresses():
    """Two forked loopback shard servers, shut down after the module."""
    with loopback_servers(N_SHARDS) as addresses:
        yield addresses


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_backends_answer_identically(name, loopback_addresses, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], **SCALED[name])
    inputs = make_inputs(workload, seed=5)
    answers = {}
    with telemetry.scoped_registry(), telemetry.scoped_tracer():
        for backend in INGEST_BACKENDS:
            result = run_round(
                workload,
                inputs,
                str(tmp_path / f"{backend}.ckpt"),
                backend,
                loopback_addresses if backend == "sockets" else None,
                check_live=True,
            )
            assert result.complete, f"{backend}: {result.error}"
            assert len(result.answers) == inputs.requests
            restored = result.answers[len(result.answers) - len(result.live_answers):]
            assert restored == result.live_answers, backend
            answers[backend] = result.answers
    for backend in INGEST_BACKENDS:
        assert answers[backend] == answers["serial"], f"{backend} differs from serial"

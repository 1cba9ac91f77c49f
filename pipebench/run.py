"""Pipeline benchmark: alpha-net build, uSample query and uSample stream.

Runs one workload through the engine's public API (``Coordinator.ingest``,
``Coordinator.save_checkpoint``, ``QueryService.from_checkpoint``,
``QueryService.answer_block``) for ``--seconds`` seconds, checks every
answer, and prints a metric table followed by one JSON result line::

    python3 pipebench/run.py --workload alphanet-build --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics with telemetry off.
``--trace 1`` alternates plain and traced rounds, reports the per-layer
metrics, prints a self-time table per layer and writes the
``repro/trace@1`` spans under ``.pipebench_out/``; it fails when the layer
self times do not account for ``pipeline_s``.

``BENCHMARK.json`` gates ``alphanet-build`` and ``usample-stream``.
``usample-query`` runs the same way but is not gated: its single-threaded
query loop follows this host's speed swings too closely for the gate's
bounds (see ``CHANGES.md``).

``--backend NAME`` runs the workload on another ingest backend (serial,
processes, resident, or sockets over two loopback shard servers) and
prints the same metrics next to the machine's core count.  It is the
backend sweep; the gated runs leave it unset.

Run it from the root of a checkout: it imports ``src/repro`` and
``benchmarks/_bench_utils.py`` from there and exits with status 1 when
they are missing.  It also exits with status 1, after printing the result
line with ``"correct": false``, when a round fails, an answer is wrong or
a traced run fails its layer checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".pipebench_out"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
try:
    from _bench_utils import run_metadata
    from repro import MetricsRegistry, Tracer, telemetry
    from repro.engine import INGEST_BACKENDS
except ModuleNotFoundError as missing:
    raise SystemExit(
        f"pipebench: {ROOT} is not a checkout of the repository ({missing})"
    ) from None

from bench_inputs import (  # noqa: E402 - needs the repository on sys.path
    N_SHARDS,
    WORKLOADS,
    Guarantee,
    Reference,
    make_inputs,
)
from bench_pipeline import (  # noqa: E402
    AnswerCheck,
    layer_metrics,
    layer_of,
    layer_totals,
    loopback_servers,
    ratio,
    replay_partition,
    run_round,
    time_setup,
)

#: Timed rounds a run makes at least, whatever ``--seconds`` says (traced
#: runs: this many plain and this many traced rounds).
MIN_ROUNDS = 3
#: ``answer_block`` calls a plain run makes at least, so that ten of them
#: lie beyond ``query_batch_p90_ms``.
P90_MIN_CALLS = 100


def _declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if trace else "end_to_end"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=INGEST_BACKENDS, default=None)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, args, workdir: Path) -> int:
    inputs = make_inputs(workload, args.seed)
    expected = Reference(inputs.segments).expected(inputs)
    telemetry.disable()
    checkpoint = str(workdir / "summary.ckpt")
    registry, tracer = MetricsRegistry(), Tracer()
    plain, traced, partition, setup = [], [], [], []
    servers = (
        loopback_servers(N_SHARDS)
        if args.backend == "sockets"
        else contextlib.nullcontext([])
    )

    def one_round(**options):
        # Each round starts from a collected heap, so a full collection left
        # over from the previous round does not land inside this one.
        gc.collect()
        return run_round(
            workload, inputs, checkpoint, args.backend, addresses, **options
        )

    with servers as addresses:
        warmup = one_round(check_live=True)
        check = AnswerCheck(warmup, expected, Guarantee(workload))
        check.add(warmup)
        deadline = time.perf_counter() + args.seconds
        while (
            time.perf_counter() < deadline
            or len(plain) < MIN_ROUNDS
            or (args.trace and len(traced) < MIN_ROUNDS)
            or (not args.trace and len(_latencies(plain)) < P90_MIN_CALLS)
        ):
            if args.trace and len(traced) < len(plain):
                telemetry.enable()
                with telemetry.scoped_registry(registry), telemetry.scoped_tracer(
                    tracer
                ):
                    traced.append(one_round())
                telemetry.disable()
                check.add(traced[-1])
                partition.append(replay_partition(workload, inputs))
            else:
                setup.append(time_setup(workload, args.backend, addresses))
                plain.append(one_round())
                check.add(plain[-1])
        peak_rss_mb = _peak_rss_mb()

    rounds = [warmup] + plain + traced
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    problems = [f"round failed: {rnd.error}" for rnd in rounds if rnd.error]
    failed += check.bad
    if check.bad:
        problems.append(
            f"{check.bad} answer(s) degraded, non-finite or not reproducible"
        )
    timed = [rnd for rnd in plain if rnd.complete]
    _print_provenance(workload, args, next(
        (report.backend for rnd in rounds for report in rnd.reports),
        args.backend or workload.backend or "Coordinator default",
    ))
    if args.trace:
        complete = [rnd for rnd in traced if rnd.complete]
        if not complete or not timed:
            problems.append("no complete traced and plain rounds to compare")
            metrics = {}
        else:
            metrics, per_span, trace_problems = layer_metrics(
                complete, timed, registry, tracer, partition
            )
            problems += trace_problems
            _print_self_times(per_span, sum(rnd.pipeline_s for rnd in complete))
            trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(tracer.to_dict()) + "\n")
            print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = _end_to_end(
            timed, inputs.requests, setup, peak_rss_mb, check, attempted, failed
        )
    units = _declared_units(args.trace)
    if metrics and set(metrics) != set(units):
        problems.append(
            f"reported metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    print(f"{'metric':<38}{'value':>18}  unit")
    for name, value in metrics.items():
        print(f"{name:<38}{value:>18.6g}  {units.get(name, '?')}")
    if not args.trace:
        print(f"{'error_rate':<38}{ratio(failed, attempted):>18.6g}  fraction")
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": value if math.isfinite(value) else 0.0,
                "unit": units.get(name, "?"),
            }
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _latencies(rounds) -> list[float]:
    return [seconds for rnd in rounds for seconds in rnd.answer_s]


def _end_to_end(
    rounds, requests, setup, peak_rss_mb, check, attempted, failed
) -> dict:
    if not rounds:
        return {}
    latencies_ms = sorted(1e3 * seconds for seconds in _latencies(rounds))
    return {
        "setup_s": _fast_decile(setup),
        "pipeline_s": _fast_decile(rnd.pipeline_s for rnd in rounds),
        "ingest_rows_per_s": _fast_decile(
            (
                sum(r.rows_total for r in rnd.reports) / sum(rnd.ingest_s)
                for rnd in rounds
            ),
            rate=True,
        ),
        "handoff_s": _fast_decile(rnd.save_s + rnd.load_s for rnd in rounds),
        "query_answers_per_s": _fast_decile(
            (requests / sum(rnd.answer_s) for rnd in rounds), rate=True
        ),
        "query_batch_p50_ms": statistics.median(latencies_ms),
        "query_batch_p90_ms": statistics.quantiles(
            latencies_ms, n=10, method="inclusive"
        )[8],
        "summary_bytes": float(statistics.median(rnd.summary_bytes for rnd in rounds)),
        "peak_rss_mb": peak_rss_mb,
        "within_bound_frac": ratio(check.within, check.checked),
        "success_rate": 1.0 - ratio(failed, attempted),
    }


def _fast_decile(values, rate: bool = False) -> float:
    """The fast end of the rounds: 10th percentile of times, 90th of rates.

    Interference on a shared host only ever slows a round, and on a 2-vCPU
    VM it comes in regimes of 15-45 s in which pure-Python code runs up to
    twice as slow.  A mean or median over one run moves with how much of
    the run fell in a slow regime; the fast decile of its rounds moves with
    the program's own cost.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[8] if rate else cuts[0]


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def _print_provenance(workload, args, backend: str) -> None:
    provenance = run_metadata()
    provenance.update(
        usable_cores=(
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        workload=workload.name,
        backend=backend,
        n_shards=N_SHARDS,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_commit=_git_commit(),
    )
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(
        f"{workload.name} on backend {backend}: n_shards={N_SHARDS} "
        f"cpu_count={provenance['cpu_count']} "
        f"usable_cores={provenance['usable_cores']}"
    )


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return completed.stdout.strip()


def _print_self_times(per_span: dict[str, float], pipeline_s: float) -> None:
    per_layer = layer_totals(per_span)
    print(f"self time of traced rounds (pipeline_s summed: {pipeline_s:.4f} s)")
    print("core.construct and transport.exchange come from timers outside the "
          "tracer; bench.* rows are time no engine span covers")
    print(f"{'layer':<22}{'span':<26}{'self s':>12}{'share':>9}")
    for layer in sorted(per_layer, key=per_layer.get, reverse=True):
        print(f"{layer:<22}{'(all)':<26}{per_layer[layer]:>12.4f}"
              f"{per_layer[layer] / pipeline_s:>9.1%}")
        for name in sorted(per_span, key=per_span.get, reverse=True):
            if layer_of(name) == layer:
                print(f"{'':<22}{name:<26}{per_span[name]:>12.4f}"
                      f"{per_span[name] / pipeline_s:>9.1%}")


if __name__ == "__main__":
    sys.exit(main())

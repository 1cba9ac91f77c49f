"""``python -m repro``: list, run, checkpoint, report, stats, lint, worker.

Seven subcommands — five over the scenario registry of
:mod:`repro.experiments`, the static analyzer of :mod:`repro.lint`, and
the transport layer's shard-server entry point:

* ``python -m repro list`` — name, paper reference and title of every
  registered scenario;
* ``python -m repro run <scenario>`` — execute one scenario through the
  engine and write ``<out>/<scenario>.json`` (machine-readable) plus
  ``<out>/<scenario>.md`` (rendered report), honouring ``--seed``,
  ``--shards``, ``--batch-size``, ``--backend``, ``--worker`` and
  ``--quick``; with
  ``--from-checkpoint <bundle>`` the ingest phase is skipped and every
  engine session is restored from the bundle instead — the paper's
  "query arbitrarily later" phase, standalone; ``--trace``,
  ``--chrome-trace`` and ``--metrics`` additionally capture the run's
  telemetry (``repro/trace@1`` JSON, Chrome trace events, Prometheus
  text exposition — see ``docs/observability.md``);
* ``python -m repro checkpoint <scenario>`` — the matching build phase:
  run the scenario once, saving every engine session into
  ``<out>/<scenario>.ckpt/`` and recording bytes-on-disk next to the
  structural space accounting in the result JSON;
* ``python -m repro report`` — regenerate every Markdown report from the
  JSON payloads in the output directory and write a ``REPORT.md`` index;
* ``python -m repro stats`` — pretty-print the ``telemetry`` section of
  recorded result JSONs (phase wall times, throughput, cache hit rates);
* ``python -m repro lint`` — run the contract-aware static analyzer of
  :mod:`repro.lint` over the source tree (determinism, kernel-safety,
  worker-protocol and telemetry-convention rules; see
  ``docs/static-analysis.md``) and check any other path given to it as a
  snapshot/checkpoint artifact (``ART001``), with ``--select RULE``,
  ``--list-rules``, ``--explain RULE`` and pretty/JSON output;
* ``python -m repro worker`` — serve shard estimators (one per
  connection) over TCP for the ``sockets`` ingest backend (the
  ``repro/transport@2`` protocol; point a run at it with ``--backend
  sockets --worker host:port``, one ``--worker`` per shard).

Example::

    $ PYTHONPATH=src python -m repro checkpoint figure1 --quick
    $ PYTHONPATH=src python -m repro run figure1 --quick \\
          --trace trace.json --metrics metrics.prom
    $ PYTHONPATH=src python -m repro stats
    $ PYTHONPATH=src python -m repro report
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from pathlib import Path

from . import telemetry
from .analysis.reporting import render_table
from .errors import ReproError
from .experiments import (
    RunParams,
    all_scenarios,
    get_scenario,
    load_result,
    render_index,
    render_markdown,
    run_experiment,
    scenario_names,
    write_result,
)
from .engine.coordinator import INGEST_BACKENDS
from .engine.transport import TRANSPORT_SCHEMA, run_worker
from .experiments.runner import RESULT_SCHEMA

__all__ = ["build_parser", "main"]

DEFAULT_OUT_DIR = "results"


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the paper's experiments: list the registered "
            "scenarios, run one through the sharded engine, and render "
            "Markdown reports from recorded JSON results."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="show every registered scenario")

    def add_run_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "scenario", help=f"one of: {', '.join(scenario_names())}"
        )
        subparser.add_argument(
            "--seed", type=int, default=0, help="base random seed"
        )
        subparser.add_argument(
            "--shards", type=int, default=None,
            help="override the engine shard count",
        )
        subparser.add_argument(
            "--batch-size",
            type=int,
            default=None,
            help=(
                "override the engine ingest block size (0: per-row on "
                "serial, 4096-row blocks on the worker backends)"
            ),
        )
        subparser.add_argument(
            "--backend",
            choices=INGEST_BACKENDS,
            default=None,
            help=(
                "override the engine ingest backend (processes = per-ingest "
                "local worker pool; sockets = shard servers named by "
                "--worker)"
            ),
        )
        subparser.add_argument(
            "--worker",
            action="append",
            default=None,
            metavar="HOST:PORT",
            dest="workers",
            help=(
                "address of a `python -m repro worker` shard server for the "
                "sockets backend (repeat once per shard)"
            ),
        )
        subparser.add_argument(
            "--retry",
            default=None,
            metavar="SPEC",
            help=(
                "transport retry policy, e.g. '5' or "
                "'attempts=5,base=0.1,jitter=0,seed=7' (see docs/robustness.md)"
            ),
        )
        subparser.add_argument(
            "--rpc-timeout",
            default=None,
            metavar="SPEC",
            help=(
                "per-RPC deadlines in seconds, e.g. '30' for all RPCs or "
                "'connect=5,ingest=60,snapshot=120'"
            ),
        )
        subparser.add_argument(
            "--recovery",
            default=None,
            metavar="SPEC",
            help=(
                "worker recovery policy: respawn | reassign | fail-fast, "
                "e.g. 'reassign,max=3,on_exhausted=degrade'"
            ),
        )
        subparser.add_argument(
            "--quick",
            action="store_true",
            help="CI-smoke scale: smaller datasets and sweep grids, same metrics",
        )
        subparser.add_argument(
            "--out",
            default=DEFAULT_OUT_DIR,
            help=f"output directory for JSON + Markdown (default: {DEFAULT_OUT_DIR}/)",
        )
        subparser.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write the run's spans as repro/trace@1 JSON to PATH",
        )
        subparser.add_argument(
            "--chrome-trace",
            default=None,
            metavar="PATH",
            help="write the run's spans as Chrome trace events to PATH",
        )
        subparser.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write the run's metrics as Prometheus text exposition to PATH",
        )

    run = commands.add_parser("run", help="run one scenario and record results")
    add_run_options(run)
    run.add_argument(
        "--from-checkpoint",
        default=None,
        metavar="BUNDLE",
        help=(
            "restore every engine session from this checkpoint bundle "
            "(written by the checkpoint subcommand) instead of ingesting"
        ),
    )

    checkpoint = commands.add_parser(
        "checkpoint",
        help=(
            "run one scenario's build phase, saving every engine session "
            "into <out>/<scenario>.ckpt/ for later --from-checkpoint runs"
        ),
    )
    add_run_options(checkpoint)

    report = commands.add_parser(
        "report", help="re-render Markdown reports from recorded JSON results"
    )
    report.add_argument(
        "--out",
        default=DEFAULT_OUT_DIR,
        help=f"directory holding <scenario>.json files (default: {DEFAULT_OUT_DIR}/)",
    )

    stats = commands.add_parser(
        "stats",
        help="pretty-print the telemetry section of recorded result JSONs",
    )
    stats.add_argument(
        "paths",
        nargs="*",
        help="result JSON files (default: every *.json under --out)",
    )
    stats.add_argument(
        "--out",
        default=DEFAULT_OUT_DIR,
        help=f"directory holding <scenario>.json files (default: {DEFAULT_OUT_DIR}/)",
    )

    lint = commands.add_parser(
        "lint",
        help=(
            "run the contract-aware static analyzer over the source tree "
            "(rule catalogue: docs/static-analysis.md)"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=(
            "files/directories to lint (default: src/repro); a file that is "
            "not .py source, or a checkpoint bundle directory, is checked "
            "as a snapshot artifact (ART001); a directory with neither a .py "
            "file nor a bundle manifest is a usage error"
        ),
    )
    lint.add_argument(
        "--format",
        choices=("pretty", "json"),
        default="pretty",
        help="output format (default: pretty)",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule id (repeatable)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule and exit",
    )
    lint.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print one rule's rationale, example and suppression syntax",
    )

    worker = commands.add_parser(
        "worker",
        help=(
            "serve one shard estimator over TCP for the sockets ingest "
            f"backend ({TRANSPORT_SCHEMA})"
        ),
    )
    worker.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = pick an ephemeral port)",
    )
    return parser


def _cmd_list() -> int:
    rows = [
        (spec.name, spec.paper_ref, "engine" if spec.is_engine_scenario else "analytic", spec.title)
        for spec in all_scenarios()
    ]
    print(
        render_table(
            ["scenario", "reproduces", "kind", "title"],
            rows,
            title=f"{len(rows)} registered scenarios (python -m repro run <scenario>)",
        )
    )
    return 0


def _run_capturing_telemetry(spec, params, args):
    """Run one experiment, honouring the ``--trace``/``--metrics`` capture flags.

    Without capture flags this is a plain :func:`run_experiment` call.  With
    any of them, telemetry is force-enabled for the run (restored after) and
    a fresh scoped tracer + registry record exactly this run; the requested
    artifacts are written before returning.
    """
    if not (args.trace or args.chrome_trace or args.metrics):
        return run_experiment(spec, params)
    was_enabled = telemetry.enabled()
    telemetry.enable()
    try:
        with telemetry.scoped_registry() as registry:
            with telemetry.scoped_tracer() as tracer:
                result = run_experiment(spec, params)
    finally:
        if not was_enabled:
            telemetry.disable()
    for path_text, payload in (
        (args.trace, tracer.to_dict()),
        (args.chrome_trace, tracer.to_chrome()),
    ):
        if path_text is None:
            continue
        path = Path(path_text)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.metrics is not None:
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(telemetry.render_prometheus(registry))
        print(f"wrote {path}")
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_scenario(args.scenario)
    params = RunParams(
        seed=args.seed,
        quick=args.quick,
        n_shards=args.shards,
        batch_size=args.batch_size,
        backend=args.backend,
        worker_addresses=tuple(args.workers) if args.workers else None,
        from_checkpoint=getattr(args, "from_checkpoint", None),
        retry=args.retry,
        rpc_timeout=args.rpc_timeout,
        recovery=args.recovery,
    )
    result = _run_capturing_telemetry(spec, params, args)
    json_path, md_path = write_result(result, args.out)
    print(render_markdown(result.to_dict()))
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    spec = get_scenario(args.scenario)
    bundle_dir = Path(args.out) / f"{args.scenario}.ckpt"
    params = RunParams(
        seed=args.seed,
        quick=args.quick,
        n_shards=args.shards,
        batch_size=args.batch_size,
        backend=args.backend,
        worker_addresses=tuple(args.workers) if args.workers else None,
        checkpoint_to=str(bundle_dir),
        retry=args.retry,
        rpc_timeout=args.rpc_timeout,
        recovery=args.recovery,
    )
    result = _run_capturing_telemetry(spec, params, args)
    json_path, md_path = write_result(result, args.out)
    sessions = result.checkpoints
    total_bytes = sum(entry["bytes_on_disk"] for entry in sessions)
    print(
        f"checkpointed {len(sessions)} engine session(s) "
        f"({total_bytes:,} bytes on disk) into {bundle_dir}/"
    )
    for entry in sessions:
        print(
            f"  {entry['file']}: {entry['bytes_on_disk']:,} bytes on disk, "
            f"{entry['summary_bits']:,} structural bits, "
            f"{entry['rows_total']:,} rows"
        )
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    # The replay line must carry every parameter the bundle was built
    # under — the reader refuses mismatched seed/quick/shards/batch-size.
    replay = ["python -m repro run", args.scenario]
    if args.seed:
        replay.append(f"--seed {args.seed}")
    if args.quick:
        replay.append("--quick")
    if args.shards is not None:
        replay.append(f"--shards {args.shards}")
    if args.batch_size is not None:
        replay.append(f"--batch-size {args.batch_size}")
    if args.backend is not None:
        replay.append(f"--backend {args.backend}")
    for address in args.workers or ():
        replay.append(f"--worker {address}")
    if args.retry is not None:
        replay.append(f"--retry {args.retry}")
    if args.rpc_timeout is not None:
        replay.append(f"--rpc-timeout {args.rpc_timeout}")
    if args.recovery is not None:
        replay.append(f"--recovery {args.recovery}")
    if args.out != DEFAULT_OUT_DIR:
        replay.append(f"--out {args.out}")
    replay.append(f"--from-checkpoint {bundle_dir}")
    print("replay with: " + " ".join(replay))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    json_paths = sorted(out_dir.glob("*.json"))
    if not json_paths:
        print(
            f"no results under {out_dir}/ — run a scenario first, e.g. "
            "python -m repro run figure1",
            file=sys.stderr,
        )
        return 1
    payloads = []
    for json_path in json_paths:
        # Trace/metrics artifacts may share the directory; only JSON files
        # carrying the result schema tag are reports to re-render.
        if json.loads(json_path.read_text()).get("schema") != RESULT_SCHEMA:
            continue
        payload = load_result(json_path)
        payloads.append(payload)
        md_path = out_dir / f"{payload['scenario']}.md"
        md_path.write_text(render_markdown(payload))
        print(f"wrote {md_path}")
    if not payloads:
        print(
            f"no result payloads among {len(json_paths)} JSON file(s) "
            f"under {out_dir}/",
            file=sys.stderr,
        )
        return 1
    index_path = out_dir / "REPORT.md"
    index_path.write_text(render_index(payloads))
    print(f"wrote {index_path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    json_paths = (
        [Path(path) for path in args.paths]
        if args.paths
        else sorted(Path(args.out).glob("*.json"))
    )
    if not json_paths:
        print(
            f"no results under {args.out}/ — run a scenario first, e.g. "
            "python -m repro run figure1",
            file=sys.stderr,
        )
        return 1
    rows = []
    for json_path in json_paths:
        if not args.paths:
            # Globbed directories may also hold trace/metrics artifacts;
            # only explicit paths are required to be result payloads.
            tag = json.loads(Path(json_path).read_text()).get("schema")
            if tag != RESULT_SCHEMA:
                continue
        payload = load_result(json_path)
        section = payload["telemetry"]
        phases = section["phases"]
        cache = section["cache"]
        # Tolerant read: results recorded before the transport layer carry
        # no transport section.
        transport = section.get("transport", {})
        rows.append(
            (
                payload["scenario"],
                section["ingest"]["sessions"],
                f"{section['ingest']['rows_total']:,}",
                f"{section['ingest']['rows_per_second']:,.0f}",
                f"{phases['ingest_seconds']:.3f}",
                f"{phases['merge_seconds']:.3f}",
                f"{phases['query_seconds']:.3f}",
                section["queries"]["count"],
                f"{cache['hits']}/{cache['misses']}"
                f" ({cache['hit_rate']:.0%})",
                f"{transport.get('bytes_shipped', 0):,}",
                f"{section['peak_summary_bits']:,}",
            )
        )
    if not rows:
        print(
            f"no result payloads among {len(json_paths)} JSON file(s)",
            file=sys.stderr,
        )
        return 1
    print(
        render_table(
            [
                "scenario",
                "sessions",
                "rows",
                "rows/s",
                "ingest s",
                "merge s",
                "query s",
                "queries",
                "cache h/m",
                "shipped B",
                "peak bits",
            ],
            rows,
            title=f"telemetry of {len(rows)} recorded run(s)",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from . import lint as lint_pkg

    if args.list_rules:
        for rule in lint_pkg.all_rules():
            kind = "ast" if rule.check is not None else "external"
            print(f"{rule.rule_id}  [{rule.severity:7}] [{kind:8}] {rule.summary}")
        return 0
    if args.explain is not None:
        try:
            rule = lint_pkg.get_rule(args.explain.upper())
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        print(rule.explain())
        return 0
    paths = args.paths or ["src/repro"]
    try:
        report = lint_pkg.run_lint(paths, select=args.select)
    except lint_pkg.LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(lint_pkg.render_findings(report, args.format))
    return lint_pkg.exit_code(report)


def _cmd_worker(args: argparse.Namespace) -> int:
    with socket.create_server((args.host, args.port)) as listener:
        port = listener.getsockname()[1]
        # Flush immediately so wrappers reading our stdout learn the bound
        # (possibly ephemeral) port without waiting for a full buffer.
        print(f"serving shard worker on {args.host}:{port} "
              f"({TRANSPORT_SCHEMA}); stop with a server-scoped shutdown "
              "frame or SIGINT", flush=True)
        try:
            run_worker(listener)
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "lint":
            return _cmd_lint(args)
        return _cmd_report(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

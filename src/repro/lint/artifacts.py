"""Artifact schema gates in the lint finding format (ART001/ART002).

``python -m repro lint`` checks any path that is an artifact rather than
Python source (:func:`is_artifact_path`), and the file decides the check
(:func:`check_artifact_path`): a trace or experiment-result JSON gets the
telemetry validation (``ART002``), and anything else the snapshot /
checkpoint / bundle validation (``ART001``).  Both emit
:class:`~repro.lint.findings.Finding` objects, keeping one finding format
and one exit-code convention across every repro checker.
"""

from __future__ import annotations

import json
from pathlib import Path

from .. import persistence
from .findings import Finding
from .rules import register_external

__all__ = [
    "is_artifact_path",
    "check_snapshot_file",
    "check_bundle_dir",
    "check_artifact_path",
]

register_external(
    "ART001",
    severity="error",
    summary="snapshot/checkpoint artifact fails its schema",
    rationale=(
        "Snapshot and checkpoint files must carry the magic prefix, the\n"
        "zlib+JSON framing, a known envelope schema\n"
        f"({persistence.SNAPSHOT_FORMAT}, or\n"
        f"{persistence.CHECKPOINT_FORMAT} with exactly its format, config\n"
        "and merged keys) and only type tags registered with the live\n"
        "@snapshottable registry; checkpoint bundles additionally need a\n"
        "well-formed manifest.json with resolvable per-session files.\n"
        "A failing artifact cannot be restored by\n"
        "`python -m repro run --from-checkpoint`.  `python -m repro lint`\n"
        "applies this rule to every path that is not .py source."
    ),
    example="a .ckpt file whose payload references an unregistered type tag",
)

register_external(
    "ART002",
    severity="error",
    summary="telemetry artifact fails its schema",
    rationale=(
        "Trace files must match repro/trace@1 (span field types, unique\n"
        "span ids, valid parent references, nested intervals) and result\n"
        "JSONs must carry a valid repro/telemetry@1 section.  An invalid\n"
        "artifact breaks `python -m repro stats` and every trace consumer.\n"
        "`python -m repro lint` applies this rule to a JSON file whose\n"
        "schema tag names a trace or an experiment result."
    ),
    example="a trace JSON missing the schema tag or with orphan parent ids",
)


def _finding(rule: str, path, message: str) -> Finding:
    return Finding(
        path=str(path),
        line=0,
        column=0,
        rule=rule,
        severity="error",
        message=message,
    )


def _referenced_tags(envelope: object) -> set:
    """Every snapshot type tag referenced anywhere in a decoded envelope."""
    tags: set = set()

    def walk(value: object) -> None:
        if isinstance(value, dict):
            if value.get("__kind__") == "snapshot" and isinstance(
                value.get("type"), str
            ):
                tags.add(value["type"])
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    walk(envelope)
    if isinstance(envelope, dict) and isinstance(envelope.get("type"), str):
        tags.add(envelope["type"])
    return tags


def check_snapshot_file(path) -> list:
    """ART001 findings for one snapshot/checkpoint file."""
    path = Path(path)
    try:
        envelope = persistence.load_envelope(path.read_bytes())
    except Exception as error:  # noqa: BLE001 - report, don't crash the gate
        return [_finding("ART001", path, str(error))]
    unknown = _referenced_tags(envelope) - set(persistence.registered_tags())
    return [
        _finding("ART001", path, f"unregistered snapshot type tag {tag!r}")
        for tag in sorted(unknown)
    ]


def check_bundle_dir(path) -> list:
    """ART001 findings for a checkpoint bundle directory.

    The manifest must name the bundle format, the scenario and a list of
    sessions, each with string ``key``/``estimator``/``file`` and integer
    ``bytes_on_disk``/``summary_bits`` fields; every session file is
    checked as a snapshot file.
    """
    from repro.experiments.checkpointing import BUNDLE_FORMAT, MANIFEST_NAME

    manifest_path = Path(path) / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [_finding("ART001", manifest_path, f"unreadable manifest: {error}")]
    if not isinstance(manifest, dict):
        return [_finding("ART001", manifest_path, "manifest must be an object")]
    problems = []
    if manifest.get("format") != BUNDLE_FORMAT:
        problems.append(
            f"format must be {BUNDLE_FORMAT!r}, got {manifest.get('format')!r}"
        )
    if not isinstance(manifest.get("scenario"), str):
        problems.append("'scenario' must be a string")
    sessions = manifest.get("sessions")
    if not isinstance(sessions, list):
        problems.append("'sessions' must be a list")
        sessions = []
    session_findings = []
    for position, entry in enumerate(sessions):
        if not isinstance(entry, dict):
            problems.append(f"session #{position} must be an object")
            continue
        for keys, kind, noun in (
            (("key", "estimator", "file"), str, "a string"),
            (("bytes_on_disk", "summary_bits"), int, "an integer"),
        ):
            problems.extend(
                f"session #{position} '{key}' must be {noun}"
                for key in keys
                if not isinstance(entry.get(key), kind)
            )
        session_file = Path(path) / str(entry.get("file", ""))
        if session_file.is_file():
            session_findings.extend(check_snapshot_file(session_file))
        else:
            problems.append(f"missing session file {session_file}")
    return [
        _finding("ART001", manifest_path, problem) for problem in problems
    ] + session_findings


def is_artifact_path(path) -> bool:
    """Whether ``path`` is an artifact rather than Python source.

    A file that is not ``.py`` source is one, and so is a checkpoint
    bundle directory (one holding ``manifest.json``).
    """
    from repro.experiments.checkpointing import MANIFEST_NAME

    path = Path(path)
    if path.is_dir():
        return (path / MANIFEST_NAME).exists()
    return path.is_file() and path.suffix != ".py"


def check_artifact_path(path) -> list:
    """Findings for one artifact, checked as what its content says it is.

    A JSON file whose ``schema`` tag names a trace or an experiment result
    is checked against ART002 (the trace schema, or the result's telemetry
    section); a bundle directory and any other file against ART001.
    """
    from repro import telemetry
    from repro.experiments.runner import RESULT_SCHEMA

    path = Path(path)
    if path.is_dir():
        return check_bundle_dir(path)
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):  # unreadable, or not JSON
        payload = None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema == telemetry.TRACE_SCHEMA:
        problems = telemetry.validate_trace_payload(payload)
    elif schema == RESULT_SCHEMA:
        problems = telemetry.validate_telemetry_section(payload.get("telemetry"))
    else:
        return check_snapshot_file(path)
    return [_finding("ART002", path, problem) for problem in problems]

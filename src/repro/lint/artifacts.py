"""Artifact schema gates refolded into the lint finding format (ART001/ART002).

The logic of ``tools/check_snapshot_schema.py`` (snapshot / checkpoint /
bundle validation) and ``tools/check_telemetry_schema.py`` (trace and
result-telemetry validation) now emits
:class:`~repro.lint.findings.Finding` objects, keeping one finding format
and one exit-code convention across every repro checker.  The two tools
remain as thin argument-parsing wrappers.

The heavy imports (``repro.persistence``, ``repro.telemetry``,
``repro.experiments``) happen lazily inside the check functions so that
importing :mod:`repro.lint` stays dependency-light for pure AST linting.
"""

from __future__ import annotations

import json
from pathlib import Path

from .findings import Finding
from .rules import register_external

__all__ = [
    "check_snapshot_file",
    "check_bundle_dir",
    "check_snapshot_path",
    "check_trace_file",
    "check_result_file",
]

register_external(
    "ART001",
    severity="error",
    summary="snapshot/checkpoint artifact fails its schema",
    rationale=(
        "Snapshot and checkpoint files must carry the magic prefix, the\n"
        "zlib+JSON framing, a known envelope schema\n"
        "(repro/estimator-snapshot@1, or repro/engine-checkpoint@2 with\n"
        "exactly its format, config and merged keys) and only\n"
        "type tags registered with the live @snapshottable registry;\n"
        "checkpoint bundles additionally need a well-formed manifest.json\n"
        "with resolvable per-session files.  A failing artifact cannot be\n"
        "restored by `python -m repro run --from-checkpoint`."
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
        "JSONs must carry a valid repro/telemetry@1 section; CI additionally\n"
        "requires engine traces to contain the coordinator.ingest /\n"
        "coordinator.merge / service.query spans.  An invalid artifact\n"
        "breaks `python -m repro stats` and every trace consumer."
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
    from repro import persistence

    path = Path(path)
    try:
        envelope = persistence.load_envelope(path.read_bytes())
    except Exception as error:  # noqa: BLE001 - report, don't crash the gate
        return [_finding("ART001", path, str(error))]
    findings = [
        _finding("ART001", path, problem)
        for problem in persistence.validate_envelope(envelope)
    ]
    known = set(persistence.registered_tags())
    for tag in sorted(_referenced_tags(envelope) - known):
        findings.append(
            _finding("ART001", path, f"unregistered snapshot type tag {tag!r}")
        )
    return findings


def check_bundle_dir(path) -> list:
    """ART001 findings for a checkpoint bundle directory."""
    from repro.experiments.checkpointing import BUNDLE_FORMAT, MANIFEST_NAME

    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        return [
            _finding(
                "ART001", path, f"not a checkpoint bundle (no {MANIFEST_NAME})"
            )
        ]
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        return [_finding("ART001", manifest_path, f"invalid JSON: {error}")]
    findings = []
    if manifest.get("format") != BUNDLE_FORMAT:
        findings.append(
            _finding(
                "ART001",
                manifest_path,
                f"format must be {BUNDLE_FORMAT!r}, got "
                f"{manifest.get('format')!r}",
            )
        )
    if not isinstance(manifest.get("scenario"), str):
        findings.append(
            _finding("ART001", manifest_path, "'scenario' must be a string")
        )
    sessions = manifest.get("sessions")
    if not isinstance(sessions, list):
        findings.append(
            _finding("ART001", manifest_path, "'sessions' must be a list")
        )
        return findings
    for position, entry in enumerate(sessions):
        if not isinstance(entry, dict):
            findings.append(
                _finding(
                    "ART001",
                    manifest_path,
                    f"session #{position} must be an object",
                )
            )
            continue
        for key in ("key", "estimator", "file"):
            if not isinstance(entry.get(key), str):
                findings.append(
                    _finding(
                        "ART001",
                        manifest_path,
                        f"session #{position} '{key}' must be a string",
                    )
                )
        for key in ("bytes_on_disk", "summary_bits"):
            if not isinstance(entry.get(key), int):
                findings.append(
                    _finding(
                        "ART001",
                        manifest_path,
                        f"session #{position} '{key}' must be an integer",
                    )
                )
        session_file = path / str(entry.get("file", ""))
        if not session_file.exists():
            findings.append(
                _finding(
                    "ART001",
                    manifest_path,
                    f"missing session file {session_file}",
                )
            )
        else:
            findings.extend(check_snapshot_file(session_file))
    return findings


def check_snapshot_path(path) -> list:
    """Dispatch one path to the file, bundle, or directory-sweep checker."""
    from repro.experiments.checkpointing import MANIFEST_NAME

    path = Path(path)
    if path.is_dir():
        if (path / MANIFEST_NAME).exists():
            return check_bundle_dir(path)
        findings = []
        artifacts = sorted(path.rglob("*.ckpt"))
        for candidate in artifacts:
            if candidate.is_dir():
                findings.extend(check_bundle_dir(candidate))
            else:
                findings.extend(check_snapshot_file(candidate))
        if not findings and not artifacts:
            findings.append(
                _finding("ART001", path, "no *.ckpt artifacts found")
            )
        return findings
    if not path.exists():
        return [_finding("ART001", path, "does not exist")]
    return check_snapshot_file(path)


def _load_json(path: Path) -> tuple:
    if not path.exists():
        return None, [_finding("ART002", path, "does not exist")]
    try:
        return json.loads(path.read_text()), []
    except json.JSONDecodeError as error:
        return None, [_finding("ART002", path, f"invalid JSON: {error}")]


def check_trace_file(path, required_spans=()) -> list:
    """ART002 findings for one ``repro/trace@1`` file."""
    from repro import telemetry

    path = Path(path)
    payload, findings = _load_json(path)
    if payload is None:
        return findings
    findings = [
        _finding("ART002", path, problem)
        for problem in telemetry.validate_trace_payload(payload)
    ]
    if findings:
        return findings
    present = {entry["name"] for entry in payload["spans"]}
    for name in required_spans:
        if name not in present:
            findings.append(
                _finding(
                    "ART002",
                    path,
                    f"required span {name!r} not present (trace has: "
                    f"{', '.join(sorted(present)) or 'no spans'})",
                )
            )
    return findings


def check_result_file(path) -> list:
    """ART002 findings for the telemetry section of one result JSON."""
    from repro import telemetry

    path = Path(path)
    payload, findings = _load_json(path)
    if payload is None:
        return findings
    if not isinstance(payload, dict):
        return [_finding("ART002", path, "result payload must be an object")]
    return [
        _finding("ART002", path, problem)
        for problem in telemetry.validate_telemetry_section(
            payload.get("telemetry")
        )
    ]

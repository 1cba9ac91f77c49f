"""The lint runner: file collection, suppression, baselines, rendering.

This module owns everything between "a list of paths" and "an exit code":

* :func:`iter_python_files` — deterministic file collection (sorted,
  skipping ``__pycache__`` and hidden directories);
* :func:`run_lint` — parse each file once, run every AST rule, check every
  artifact path (a file that is not ``.py`` source, or a checkpoint bundle
  directory) against ``ART001``, apply ``# repro: noqa[RULE]`` line
  suppressions and the optional baseline file, and return a
  :class:`LintReport`;
* :func:`render_findings` — the pretty and JSON renderings shared by
  ``python -m repro lint`` and the ``tools/check_*.py`` wrappers;
* :func:`exit_code` — the one exit-code convention: 0 clean, 1 findings
  (usage errors exit 2 at the CLI layer, see :class:`LintUsageError`).

Unparseable files do not crash the run: they surface as findings of the
``LINT001`` pseudo-rule so a syntax error in one file never hides findings
in the rest of the tree.
"""

from __future__ import annotations

import json
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import artifacts
from .context import ModuleContext, ProjectContext
from .findings import Finding
from .rules import ast_rules, get_rule, register_external

__all__ = [
    "LINT_BASELINE_SCHEMA",
    "LINT_REPORT_SCHEMA",
    "LintReport",
    "LintUsageError",
    "exit_code",
    "iter_python_files",
    "load_baseline",
    "render_findings",
    "run_lint",
    "write_baseline",
]

#: Schema tag of the JSON report (``--format json``).
LINT_REPORT_SCHEMA = "repro/lint-report@1"

#: Schema tag of baseline files (``--write-baseline`` / ``--baseline``).
LINT_BASELINE_SCHEMA = "repro/lint-baseline@1"

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?", re.IGNORECASE)

register_external(
    "LINT001",
    severity="error",
    summary="file could not be parsed",
    rationale=(
        "A file with a syntax error cannot be analysed, so every contract\n"
        "the other rules enforce is unverified there.  The parse failure is\n"
        "reported as a finding (rather than crashing the run) so one broken\n"
        "file never hides findings in the rest of the tree."
    ),
    example="def broken(:  # SyntaxError",
)


class LintUsageError(ValueError):
    """Invalid invocation (bad path, bad baseline, unknown rule) → exit 2."""


@dataclass
class LintReport:
    """The outcome of one lint run.

    Attributes
    ----------
    findings:
        Active findings — not suppressed, not baselined.  Non-empty
        findings mean exit code 1.
    suppressed:
        Findings silenced by a ``# repro: noqa[RULE]`` comment on their
        line.
    baselined:
        Findings matched (by fingerprint, with counting) against the
        baseline file.
    files_checked:
        Number of Python files and artifacts analysed.
    """

    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
    baselined: list = field(default_factory=list)
    files_checked: int = 0

    def to_dict(self) -> dict:
        """The JSON report (``python -m repro lint --format json``)."""
        summary: dict[str, int] = {}
        for finding in self.findings:
            summary[finding.rule] = summary.get(finding.rule, 0) + 1
        return {
            "schema": LINT_REPORT_SCHEMA,
            "files_checked": self.files_checked,
            "findings": [finding.to_dict() for finding in sorted(self.findings)],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "summary": dict(sorted(summary.items())),
        }


_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules", ".venv", "venv"}


def iter_python_files(paths: Sequence, root: Path) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths``, sorted, each exactly once.

    Directories are walked recursively; ``__pycache__``, VCS internals and
    hidden directories are skipped.  A path that does not exist, or a
    directory holding no ``.py`` file, raises :class:`LintUsageError`
    (exit 2) rather than passing a path nothing checked.
    """
    seen = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            candidates: Iterable[Path] = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not any(
                    part in _SKIP_DIRS or part.startswith(".")
                    for part in candidate.relative_to(path).parts
                )
            )
            if not candidates:
                raise LintUsageError(
                    f"no .py file or checkpoint bundle manifest under: {raw}"
                )
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _changed_files(root: Path) -> set | None:
    """Repo-relative paths changed vs HEAD (tracked + untracked).

    Returns ``None`` when git is unavailable or the tree is not a work
    tree — the caller then lints everything rather than failing.
    """
    changed: set = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                command,
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        changed.update(
            line.strip() for line in result.stdout.splitlines() if line.strip()
        )
    return changed


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _line_suppressions(line: str) -> set | None:
    """Rule ids suppressed on this physical line.

    ``None`` means no noqa comment; an empty set means a bare
    ``# repro: noqa`` suppressing every rule on the line.
    """
    match = _NOQA.search(line)
    if match is None:
        return None
    if match.group(1) is None:
        return set()
    return {token.strip().upper() for token in match.group(1).split(",") if token.strip()}


def _is_suppressed(finding: Finding, lines: list) -> bool:
    if not finding.line or finding.line > len(lines):
        return False
    suppressed = _line_suppressions(lines[finding.line - 1])
    if suppressed is None:
        return False
    return not suppressed or finding.rule in suppressed


def load_baseline(path) -> dict:
    """Fingerprint → allowed count from a baseline file.

    Raises :class:`LintUsageError` on a missing file or wrong schema so
    the CLI exits 2 instead of silently linting without the baseline.
    """
    baseline_path = Path(path)
    try:
        payload = json.loads(baseline_path.read_text())
    except FileNotFoundError:
        raise LintUsageError(f"baseline file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise LintUsageError(f"baseline file is not valid JSON: {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != LINT_BASELINE_SCHEMA:
        raise LintUsageError(
            f"baseline file {path} does not declare schema {LINT_BASELINE_SCHEMA!r}"
        )
    counts = payload.get("findings", {})
    if not isinstance(counts, dict):
        raise LintUsageError(f"baseline file {path} has a malformed findings map")
    return {str(key): int(value) for key, value in counts.items()}


def write_baseline(findings: Iterable, path) -> None:
    """Write the baseline that grandfathers exactly ``findings``."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
    payload = {
        "schema": LINT_BASELINE_SCHEMA,
        "findings": dict(sorted(counts.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _apply_baseline(
    findings: list, baseline: dict
) -> tuple[list, list]:
    remaining = dict(baseline)
    active: list = []
    baselined: list = []
    for finding in sorted(findings):
        if remaining.get(finding.fingerprint, 0) > 0:
            remaining[finding.fingerprint] -= 1
            baselined.append(finding)
        else:
            active.append(finding)
    return active, baselined


def run_lint(
    paths: Sequence,
    *,
    root=None,
    select: Sequence | None = None,
    changed_only: bool = False,
    baseline_path=None,
) -> LintReport:
    """Run the AST rules over ``paths`` and return the report.

    What a path is decides how it is checked: a file that is not ``.py``
    source, or a directory holding a checkpoint bundle's manifest, is an
    artifact checked against ``ART001``; any other directory is walked for
    Python files.

    Parameters
    ----------
    paths:
        Files and/or directories to lint (relative paths resolve against
        ``root``).
    root:
        Repository root; defaults to the current working directory.  Paths
        in findings are reported relative to it and the telemetry
        catalogue is read from ``<root>/docs/observability.md``.
    select:
        Optional subset of rule ids to run; unknown ids raise
        :class:`LintUsageError`.  Artifact paths are always checked.
    changed_only:
        Restrict to files changed vs ``git HEAD`` (plus untracked files);
        silently lints everything when git is unavailable.
    baseline_path:
        Optional baseline file; matching findings are reported as
        ``baselined`` instead of active.
    """
    root = Path(root) if root is not None else Path.cwd()
    rules = ast_rules()
    if select is not None:
        wanted = {rule_id.upper() for rule_id in select}
        for rule_id in wanted:
            try:
                get_rule(rule_id)
            except KeyError as exc:
                raise LintUsageError(str(exc.args[0])) from None
        rules = [candidate for candidate in rules if candidate.rule_id in wanted]
    baseline = load_baseline(baseline_path) if baseline_path is not None else {}
    changed = _changed_files(root) if changed_only else None

    project = ProjectContext(root)
    report = LintReport()
    raw_findings: list = []
    sources = []
    for raw in paths:
        path = root / raw  # an absolute ``raw`` replaces ``root``
        if not artifacts.is_artifact_path(path):
            sources.append(raw)
            continue
        report.files_checked += 1
        raw_findings.extend(
            finding.relocated(_relpath(Path(finding.path), root))
            for finding in artifacts.check_snapshot_path(path)
        )
    for path in iter_python_files(sources, root):
        relpath = _relpath(path, root)
        if changed_only and changed is not None and relpath not in changed:
            continue
        report.files_checked += 1
        try:
            module = ModuleContext(path, root)
        except SyntaxError as exc:
            raw_findings.append(
                Finding(
                    path=relpath,
                    line=int(exc.lineno or 0),
                    column=int(exc.offset or 0),
                    rule="LINT001",
                    severity="error",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        for rule in rules:
            for _, node, message in rule.check(module, project):
                line = getattr(node, "lineno", 0) if node is not None else 0
                column = getattr(node, "col_offset", 0) if node is not None else 0
                finding = Finding(
                    path=module.relpath,
                    line=int(line),
                    column=int(column),
                    rule=rule.rule_id,
                    severity=rule.severity,
                    message=message,
                )
                if _is_suppressed(finding, module.lines):
                    report.suppressed.append(finding)
                else:
                    raw_findings.append(finding)

    active, baselined = _apply_baseline(raw_findings, baseline)
    report.findings = active
    report.baselined = baselined
    return report


def render_findings(report: LintReport, fmt: str = "pretty") -> str:
    """Render a report as ``pretty`` text or the ``json`` document."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt != "pretty":
        raise LintUsageError(f"unknown format {fmt!r}; choose 'pretty' or 'json'")
    lines = [str(finding) for finding in sorted(report.findings)]
    noun = "file" if report.files_checked == 1 else "files"
    tail = (
        f"{len(report.findings)} finding(s) in {report.files_checked} {noun}"
    )
    extras = []
    if report.suppressed:
        extras.append(f"{len(report.suppressed)} suppressed")
    if report.baselined:
        extras.append(f"{len(report.baselined)} baselined")
    if extras:
        tail += f" ({', '.join(extras)})"
    lines.append(tail)
    return "\n".join(lines)


def exit_code(report: LintReport) -> int:
    """The shared convention: 0 when no active findings, 1 otherwise."""
    return 1 if report.findings else 0

"""The lint runner: file collection, suppression, rendering.

This module owns everything between "a list of paths" and "an exit code":

* :func:`iter_python_files` — deterministic file collection (sorted,
  skipping ``__pycache__`` and hidden directories);
* :func:`run_lint` — parse each file once, run every AST rule, check every
  artifact path (a file that is not ``.py`` source, or a checkpoint bundle
  directory) against ``ART001``, apply ``# repro: noqa[RULE]`` line
  suppressions, and return a :class:`LintReport`;
* :func:`render_findings` — the pretty and JSON renderings of
  ``python -m repro lint``;
* :func:`exit_code` — the one exit-code convention: 0 clean, 1 findings
  (usage errors exit 2 at the CLI layer, see :class:`LintUsageError`).

Unparseable files do not crash the run: they surface as findings of the
``LINT001`` pseudo-rule so a syntax error in one file never hides findings
in the rest of the tree.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import artifacts
from .context import ModuleContext, ProjectContext
from .findings import Finding
from .rules import ast_rules, get_rule, register_external

__all__ = [
    "LINT_REPORT_SCHEMA",
    "LintReport",
    "LintUsageError",
    "exit_code",
    "iter_python_files",
    "render_findings",
    "run_lint",
]

#: Schema tag of the JSON report (``--format json``).  ``@1`` also
#: carried a ``baselined`` count.
LINT_REPORT_SCHEMA = "repro/lint-report@2"

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
    """Invalid invocation (bad path, unknown rule) → exit 2."""


@dataclass
class LintReport:
    """The outcome of one lint run.

    Attributes
    ----------
    findings:
        Active findings — not suppressed.  Non-empty findings mean exit
        code 1.
    suppressed:
        Findings silenced by a ``# repro: noqa[RULE]`` comment on their
        line.
    files_checked:
        Number of Python files and artifacts analysed.
    """

    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
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


def run_lint(
    paths: Sequence,
    *,
    root=None,
    select: Sequence | None = None,
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

    project = ProjectContext(root)
    report = LintReport()
    sources = []
    for raw in paths:
        path = root / raw  # an absolute ``raw`` replaces ``root``
        if not artifacts.is_artifact_path(path):
            sources.append(raw)
            continue
        report.files_checked += 1
        report.findings.extend(
            finding.relocated(_relpath(Path(finding.path), root))
            for finding in artifacts.check_artifact_path(path)
        )
    for path in iter_python_files(sources, root):
        relpath = _relpath(path, root)
        report.files_checked += 1
        try:
            module = ModuleContext(path, root)
        except SyntaxError as exc:
            report.findings.append(
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
                    report.findings.append(finding)
    report.findings.sort()
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
    if report.suppressed:
        tail += f" ({len(report.suppressed)} suppressed)"
    lines.append(tail)
    return "\n".join(lines)


def exit_code(report: LintReport) -> int:
    """The shared convention: 0 when no active findings, 1 otherwise."""
    return 1 if report.findings else 0

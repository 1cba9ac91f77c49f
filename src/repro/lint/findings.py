"""The one finding format every repro checker speaks.

A :class:`Finding` is one problem at one location: the rule that fired, its
severity, a repo-root-relative path, a 1-based line (0 for whole-file or
artifact findings) and a human-readable message.  The AST rule engine, the
docs gate and the artifact schema gates all emit this type, so there is a
single rendering and a single exit-code convention across ``python -m
repro lint`` and the ``tools/check_*.py`` wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities, most severe first.  Every severity fails the
#: gate — the distinction is informational (an ``error`` breaks a contract
#: outright, a ``warning`` flags a risky construction).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    Attributes
    ----------
    path:
        Repo-root-relative POSIX path of the offending file (or artifact).
    line:
        1-based line number; 0 when the finding concerns the whole file.
    column:
        0-based column offset; 0 when not applicable.
    rule:
        Identifier of the rule that fired, e.g. ``"DET001"``.
    severity:
        One of :data:`SEVERITIES`.
    message:
        Human-readable description of the specific violation.
    """

    path: str
    line: int
    column: int
    rule: str
    severity: str
    message: str

    def __str__(self) -> str:
        location = f"{self.path}:{self.line}:{self.column}" if self.line else self.path
        return f"{location}: {self.rule} [{self.severity}] {self.message}"

    def to_dict(self) -> dict:
        """JSON-able view (the ``findings`` entries of the JSON report)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        """Inverse of :meth:`to_dict`."""
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            column=int(payload["column"]),
            rule=str(payload["rule"]),
            severity=str(payload["severity"]),
            message=str(payload["message"]),
        )

    def relocated(self, path: str) -> "Finding":
        """The same finding reported against a different path string."""
        return replace(self, path=path)

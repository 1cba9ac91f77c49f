"""Rule registry: identifiers, severities, rationale, and check functions.

A rule is registered with the :func:`rule` decorator::

    @rule(
        "DET001",
        severity="error",
        summary="unseeded random number generator in library code",
        rationale="...why the contract exists...",
        example="rng = np.random.default_rng()   # no seed",
    )
    def check_unseeded_rng(module, project):
        yield module, node, "message"

Check functions receive a :class:`~repro.lint.context.ModuleContext` and a
:class:`~repro.lint.context.ProjectContext` and yield
``(module, node_or_None, message)`` triples; the engine turns those into
:class:`~repro.lint.findings.Finding` objects, applies ``# repro:
noqa[RULE]`` suppressions, and renders the report.

Rules that are *not* AST rules (the docs and artifact gates refolded from
``tools/check_*.py``) register with ``check=None`` so they appear in
``--list-rules`` / ``--explain`` and share the severity table, but are
driven by their own entry points (:mod:`repro.lint.docs_check`,
:mod:`repro.lint.artifacts`) rather than the per-file AST walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .findings import SEVERITIES

__all__ = ["Rule", "rule", "all_rules", "get_rule", "rule_ids", "ast_rules"]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    Attributes
    ----------
    rule_id:
        Stable identifier (``DET001`` … ``TEL003``, ``DOC*``, ``ART*``).
    severity:
        Default severity of findings from this rule.
    summary:
        One-line description shown by ``--list-rules``.
    rationale:
        Why the contract exists — shown by ``--explain``.
    example:
        A minimal offending snippet — shown by ``--explain``.
    check:
        The AST check function, or ``None`` for externally-driven rules.
    """

    rule_id: str
    severity: str
    summary: str
    rationale: str
    example: str = ""
    check: Callable | None = field(default=None, compare=False)

    def explain(self) -> str:
        """Multi-line description for ``python -m repro lint --explain``."""
        parts = [f"{self.rule_id} [{self.severity}] {self.summary}", ""]
        parts.append(self.rationale.strip())
        if self.example:
            parts += ["", "Example of a violation:", ""]
            parts += [f"    {line}" for line in self.example.strip().splitlines()]
        parts += [
            "",
            f"Suppress a single occurrence with `# repro: noqa[{self.rule_id}]`",
            "on the offending line.",
        ]
        return "\n".join(parts)


_REGISTRY: dict[str, Rule] = {}


def rule(
    rule_id: str,
    *,
    severity: str,
    summary: str,
    rationale: str,
    example: str = "",
):
    """Class-decorator-style registrar for rule check functions."""
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r} for rule {rule_id}")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")

    def register(check: Callable | None) -> Callable | None:
        _REGISTRY[rule_id] = Rule(
            rule_id=rule_id,
            severity=severity,
            summary=summary,
            rationale=rationale,
            example=example,
            check=check,
        )
        return check

    return register


def register_external(
    rule_id: str,
    *,
    severity: str,
    summary: str,
    rationale: str,
    example: str = "",
) -> None:
    """Register a rule with no AST check (docs / artifact gates)."""
    rule(
        rule_id,
        severity=severity,
        summary=summary,
        rationale=rationale,
        example=example,
    )(None)


def _load_rule_modules() -> None:
    # Importing the family modules populates the registry as a side effect;
    # deferred so ``rules`` itself has no circular imports.
    from . import artifacts  # noqa: F401
    from . import conventions  # noqa: F401
    from . import determinism  # noqa: F401
    from . import docs_check  # noqa: F401
    from . import kernel_safety  # noqa: F401
    from . import protocol  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by identifier."""
    _load_rule_modules()
    return [new_rule for _, new_rule in sorted(_REGISTRY.items())]


def ast_rules() -> list[Rule]:
    """The subset of rules driven by the per-file AST walk."""
    return [candidate for candidate in all_rules() if candidate.check is not None]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id; raises ``KeyError`` with the known ids."""
    _load_rule_modules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}") from None


def rule_ids() -> list[str]:
    """Sorted identifiers of every registered rule."""
    _load_rule_modules()
    return sorted(_REGISTRY)

"""repro.lint — contract-aware static analysis for the repro codebase.

Six PRs of growth left the repository's correctness resting on unwritten
cross-module contracts: every sketch must speak the ``update_block`` /
``merge`` / ``state_dict`` protocol and register with ``@snapshottable``,
kernels must not mix ``uint64`` and ``int64`` arithmetic (NumPy silently
upcasts the pair to ``float64``), library code must never draw from an
unseeded RNG or read the wall clock outside the telemetry layer, and every
metric or span name must match the catalogue in ``docs/observability.md``.
This package turns those contracts into executable rules.

It is a dependency-free (stdlib ``ast`` + ``importlib``) analyzer:

* :mod:`repro.lint.findings` — the one finding format shared by every
  checker (the AST rules, the docs gate, the artifact schema gates);
* :mod:`repro.lint.rules` — the rule registry with per-rule severity,
  rationale and examples (``python -m repro lint --list-rules``);
* :mod:`repro.lint.determinism`, :mod:`repro.lint.kernel_safety`,
  :mod:`repro.lint.protocol`, :mod:`repro.lint.conventions` — the four
  rule families;
* :mod:`repro.lint.engine` — the runner: file collection,
  ``# repro: noqa[RULE]`` suppressions, baseline files, pretty/JSON
  reports, ``--changed-only`` support and the shared exit-code
  convention (0 clean, 1 findings, 2 usage error);
* :mod:`repro.lint.docs_check` and :mod:`repro.lint.artifacts` — the
  docs gate ``tests/test_docs.py`` runs, the snapshot checks the runner
  applies to artifact paths, and the checkers behind
  ``tools/check_telemetry_schema.py``, emitting the same findings.

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from .engine import (
    LINT_BASELINE_SCHEMA,
    LINT_REPORT_SCHEMA,
    LintReport,
    LintUsageError,
    exit_code,
    iter_python_files,
    load_baseline,
    render_findings,
    run_lint,
    write_baseline,
)
from .findings import SEVERITIES, Finding
from .rules import Rule, all_rules, get_rule, rule_ids

__all__ = [
    "LINT_BASELINE_SCHEMA",
    "LINT_REPORT_SCHEMA",
    "Finding",
    "SEVERITIES",
    "LintReport",
    "LintUsageError",
    "Rule",
    "all_rules",
    "get_rule",
    "rule_ids",
    "run_lint",
    "iter_python_files",
    "render_findings",
    "exit_code",
    "load_baseline",
    "write_baseline",
]

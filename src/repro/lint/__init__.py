"""repro.lint — contract-aware static analysis for the repro codebase.

The repository's correctness rests on cross-module contracts that no type
checker sees: kernels must not mix ``uint64`` and ``int64`` arithmetic
(NumPy silently upcasts the pair to ``float64``), library code must never
draw from an unseeded RNG or read the wall clock outside the telemetry
layer, engine workers receive snapshot bytes rather than pickled objects,
and every metric or span name must match the catalogue in
``docs/observability.md``.  This package turns those contracts into
executable rules over the source text.  The class contracts (every sketch
and estimator registers with ``@snapshottable`` and defines its own
``state_dict``, ``merge``, ``update_block`` and the like) are checked on
the live classes by ``tests/test_persistence.py`` instead.

It is a dependency-free (stdlib ``ast`` + ``importlib``) analyzer:

* :mod:`repro.lint.findings` — the one finding format shared by every
  checker (the AST rules, the docs gate, the artifact schema gates);
* :mod:`repro.lint.rules` — the rule registry with per-rule severity,
  rationale and examples (``python -m repro lint --list-rules``);
* :mod:`repro.lint.determinism`, :mod:`repro.lint.kernel_safety`,
  :mod:`repro.lint.protocol`, :mod:`repro.lint.conventions` — the four
  rule families;
* :mod:`repro.lint.engine` — the runner: file collection,
  ``# repro: noqa[RULE]`` suppressions, pretty/JSON reports and the
  shared exit-code convention (0 clean, 1 findings, 2 usage error);
* :mod:`repro.lint.docs_check` and :mod:`repro.lint.artifacts` — the
  docs gate ``tests/test_docs.py`` runs, and the snapshot, trace and
  result checks the runner applies to artifact paths, emitting the same
  findings.

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from .engine import (
    LINT_REPORT_SCHEMA,
    LintReport,
    LintUsageError,
    exit_code,
    iter_python_files,
    render_findings,
    run_lint,
)
from .findings import SEVERITIES, Finding
from .rules import Rule, all_rules, get_rule, rule_ids

__all__ = [
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
]

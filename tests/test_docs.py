"""The docs gate, run as part of the suite: links resolve, symbols documented."""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

import pytest

from repro.lint import SEVERITIES, rule_ids
from repro.lint.docs_check import (
    check_docstrings,
    check_markdown_links,
    missing_docstrings_in_file,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules whose docstring examples must stay executable.
DOCTEST_MODULES = (
    "repro.engine.coordinator",
    "repro.engine.partition",
    "repro.engine.service",
    "repro.experiments",
    "repro.experiments.registry",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.specs",
    "repro.telemetry",
    "repro.telemetry.export",
    "repro.telemetry.registry",
    "repro.telemetry.trace",
)


def test_markdown_links_resolve():
    assert check_markdown_links(REPO_ROOT) == []


def test_public_engine_and_experiments_symbols_have_docstrings():
    assert check_docstrings(REPO_ROOT) == []


def test_rule_catalogue_lists_exactly_the_registered_rules():
    """Each rule row with a severity in docs/static-analysis.md names a
    registered rule, once, and every registered rule has such a row."""
    catalogue = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    severity = "|".join(SEVERITIES)
    documented = re.findall(
        rf"^\| `([A-Z]+[0-9]+)` \| (?:{severity}) \|", catalogue, re.MULTILINE
    )
    assert sorted(documented) == rule_ids()


def test_docs_tree_exists():
    for name in ("architecture.md", "experiments.md", "api.md", "observability.md"):
        assert (REPO_ROOT / "docs" / name).exists()


def test_link_checker_catches_broken_links(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("see [missing](docs/missing.md)\n")
    problems = check_markdown_links(tmp_path)
    assert len(problems) == 1
    assert "missing.md" in problems[0].message


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_docstring_examples_execute(module_name):
    """The engine/experiments docstring examples actually run (not just exist)."""
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its docstring examples"
    assert result.failed == 0


def test_docstring_checker_catches_undocumented_symbols(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text('"""Module docstring."""\n\ndef public():\n    pass\n')
    problems = missing_docstrings_in_file(bad, tmp_path)
    assert len(problems) == 1
    assert "public" in problems[0].message

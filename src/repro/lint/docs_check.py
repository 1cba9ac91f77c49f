"""Documentation gate in the lint finding format (DOC001/DOC002).

The intra-repo Markdown link check and the public-docstring audit emit
:class:`~repro.lint.findings.Finding` objects, so the docs gate shares the
rule catalogue and rendering with every other checker.
``tests/test_docs.py`` calls these functions directly and is what CI runs
as the docs gate.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .findings import Finding
from .rules import register_external

__all__ = [
    "MARKDOWN_FILES",
    "MARKDOWN_GLOBS",
    "DOCSTRING_TREES",
    "DOCSTRING_FILES",
    "check_markdown_links",
    "check_docstrings",
    "missing_docstrings_in_file",
]

#: Markdown files whose relative links must resolve.
MARKDOWN_FILES = ("README.md", "CHANGES.md", "ROADMAP.md")
MARKDOWN_GLOBS = ("docs/*.md",)

#: Python trees whose public symbols must all carry docstrings.
DOCSTRING_TREES = (
    "src/repro/engine",
    "src/repro/experiments",
    "src/repro/telemetry",
    "src/repro/lint",
)
DOCSTRING_FILES = ("src/repro/cli.py", "src/repro/__main__.py")

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

register_external(
    "DOC001",
    severity="error",
    summary="broken intra-repo Markdown link",
    rationale=(
        "Every relative link in README.md, CHANGES.md, ROADMAP.md and\n"
        "docs/*.md must resolve to an existing file; a dead link usually\n"
        "means a doc was moved without updating its referrers.  External\n"
        "http(s)/mailto links and pure #fragment links are skipped."
    ),
    example="[the guide](docs/no-such-file.md)",
)

register_external(
    "DOC002",
    severity="error",
    summary="public symbol without a docstring",
    rationale=(
        "Public modules, classes, functions and methods in the audited\n"
        "trees (engine, experiments, telemetry, lint, the CLI) must carry\n"
        "docstrings — the docs gate is what keeps the API reference\n"
        "honest.  Names starting with `_` are exempt."
    ),
    example="def public_helper():\n    return 1  # no docstring",
)


def _rel(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def iter_markdown_files(root: Path) -> list:
    """The Markdown files the link check covers (existing ones only)."""
    paths = [root / name for name in MARKDOWN_FILES if (root / name).exists()]
    for pattern in MARKDOWN_GLOBS:
        paths.extend(sorted(root.glob(pattern)))
    return paths


def check_markdown_links(root) -> list:
    """One DOC001 finding per broken relative Markdown link."""
    root = Path(root)
    findings = []
    for md_path in iter_markdown_files(root):
        for line_number, line in enumerate(
            md_path.read_text().splitlines(), start=1
        ):
            for target in _LINK_PATTERN.findall(line):
                if target.startswith(_EXTERNAL_PREFIXES):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:  # pure fragment link within the same file
                    continue
                resolved = (md_path.parent / path_part).resolve()
                if not resolved.exists():
                    findings.append(
                        Finding(
                            path=_rel(md_path, root),
                            line=line_number,
                            column=0,
                            rule="DOC001",
                            severity="error",
                            message=f"broken link -> {target}",
                        )
                    )
    return findings


def missing_docstrings_in_file(py_path, root) -> list:
    """One DOC002 finding per public symbol without a docstring."""
    py_path, root = Path(py_path), Path(root)
    tree = ast.parse(py_path.read_text(), filename=str(py_path))
    rel = _rel(py_path, root)
    findings = []
    if ast.get_docstring(tree) is None:
        findings.append(
            Finding(
                path=rel,
                line=1,
                column=0,
                rule="DOC002",
                severity="error",
                message="module has no docstring",
            )
        )

    def walk(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if child.name.startswith("_"):
                    continue
                qualified = f"{owner}{child.name}"
                if ast.get_docstring(child) is None:
                    kind = "class" if isinstance(child, ast.ClassDef) else "function"
                    findings.append(
                        Finding(
                            path=rel,
                            line=child.lineno,
                            column=child.col_offset,
                            rule="DOC002",
                            severity="error",
                            message=(
                                f"public {kind} {qualified!r} has no docstring"
                            ),
                        )
                    )
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qualified}.")

    walk(tree, "")
    return findings


def check_docstrings(root) -> list:
    """DOC002 findings across every audited tree and file."""
    root = Path(root)
    py_paths = []
    for tree in DOCSTRING_TREES:
        py_paths.extend(sorted((root / tree).glob("*.py")))
    py_paths.extend(root / name for name in DOCSTRING_FILES)
    findings = []
    for py_path in py_paths:
        if py_path.exists():
            findings.extend(missing_docstrings_in_file(py_path, root))
    return findings

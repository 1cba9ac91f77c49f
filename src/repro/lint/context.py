"""Shared analysis context: parsed modules, import resolution, dtype inference.

Rules never touch the filesystem or re-parse source themselves; they receive

* a :class:`ModuleContext` — one parsed file with its AST, source lines,
  import-alias table and scope iterator, plus helpers to resolve dotted
  names (``np.random.default_rng`` → ``numpy.random.default_rng``) through
  the file's imports;
* a :class:`ProjectContext` — repo-level facts shared across files, most
  importantly the metric/span catalogue parsed from
  ``docs/observability.md`` (cached once per run).

The dtype inference here is deliberately a *heuristic*: it tracks explicit
``dtype=`` keywords, ``astype`` casts and ``np.uint64(...)`` scalar
wrappers through local assignments and ``self.<attr>`` assignments within
one file.  It never guesses — an expression without an explicit declared
dtype infers to ``None`` and the kernel-safety rules stay silent, so the
rules only fire where the code states conflicting intentions.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

__all__ = [
    "ModuleContext",
    "ProjectContext",
    "NUMPY_DTYPES",
    "infer_dtype",
    "dtype_from_annotation",
    "collect_local_dtypes",
    "collect_attribute_dtypes",
    "iter_scope_nodes",
    "iter_scope_statements",
]

#: Dtype names the inference recognises (as ``np.<name>`` or strings).
NUMPY_DTYPES = {
    "uint8",
    "uint16",
    "uint32",
    "uint64",
    "int8",
    "int16",
    "int32",
    "int64",
    "intp",
    "float16",
    "float32",
    "float64",
    "bool_",
}

#: NumPy array-protocol dtype strings (``"<i8"``) → canonical names.
_DTYPE_STRINGS = {
    "i1": "int8",
    "i2": "int16",
    "i4": "int32",
    "i8": "int64",
    "u1": "uint8",
    "u2": "uint16",
    "u4": "uint32",
    "u8": "uint64",
    "f4": "float32",
    "f8": "float64",
}

#: numpy constructors whose ``dtype=`` keyword declares the result dtype.
_ARRAY_CTORS = {
    "zeros",
    "ones",
    "empty",
    "full",
    "arange",
    "asarray",
    "array",
    "ascontiguousarray",
    "frombuffer",
    "fromiter",
}

#: numpy ``*_like`` constructors that inherit the first argument's dtype.
_LIKE_CTORS = {"zeros_like", "ones_like", "empty_like", "full_like"}


class ModuleContext:
    """One parsed Python file plus the lookup tables rules share.

    Parameters
    ----------
    path:
        Absolute path of the file.
    root:
        Project root every reported path is made relative to.
    """

    def __init__(self, path: Path, root: Path) -> None:
        self.path = Path(path)
        self.root = Path(root)
        self.source = self.path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(self.path))
        try:
            rel = self.path.resolve().relative_to(self.root.resolve())
        except ValueError:
            rel = self.path
        self.relpath = rel.as_posix()
        self.imports = _collect_import_aliases(self.tree)
        self._attribute_dtypes: dict[str, str] | None = None

    @property
    def library_rel(self) -> str | None:
        """Path relative to ``src/repro`` when the file is library code.

        ``None`` for files outside the package (tests, fixtures, tools) —
        path-scoped exemptions (e.g. the telemetry carve-out of the
        wall-clock rule) only ever apply to library code, so fixture
        snippets always stay in scope.
        """
        marker = "src/repro/"
        if marker in self.relpath:
            return self.relpath.split(marker, 1)[1]
        return None

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with import aliases expanded.

        ``np.random.default_rng`` resolves to
        ``"numpy.random.default_rng"`` under ``import numpy as np``;
        expressions that are not plain attribute chains resolve to ``None``.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(self.imports.get(current.id, current.id))
        return ".".join(reversed(parts))

    def scopes(self) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
        """Yield ``(scope_node, body)`` for the module and every function.

        Nested functions are yielded as their own scopes; statements inside
        them are not revisited as part of the enclosing scope's walk (see
        :func:`iter_scope_statements`).
        """
        yield self.tree, self.tree.body
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, node.body

    def attribute_dtypes(self) -> dict[str, str]:
        """``self.<attr>`` → declared dtype, collected across the file."""
        if self._attribute_dtypes is None:
            # Seed with an empty map first: collection itself infers dtypes
            # and may consult self-attribute references, which must not
            # re-enter collection.
            self._attribute_dtypes = {}
            self._attribute_dtypes = collect_attribute_dtypes(self.tree, self)
        return self._attribute_dtypes


def iter_scope_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Pre-order walk of a scope's nodes, skipping nested def/class bodies.

    Each node is visited exactly once, in source order, so a scope-local
    analysis (dtype tracking, set-name tracking) never double-counts a
    statement and never leaks into a nested function's namespace.
    """
    stack: list[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def iter_scope_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of :func:`iter_scope_nodes`, in source order."""
    for node in iter_scope_nodes(body):
        if isinstance(node, ast.stmt):
            yield node


def _collect_import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map every bound name to the dotted module/object path it refers to."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.split(".", 1)[0]
                target = name.name if name.asname else name.name.split(".", 1)[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom):
            # Relative imports keep just the tail (``from .. import
            # telemetry`` binds ``telemetry`` → ``telemetry``): rules match
            # on suffixes, so package-internal names stay recognisable
            # without knowing the absolute package path.
            module = node.module or ""
            for name in node.names:
                if name.name == "*":
                    continue
                bound = name.asname or name.name
                aliases[bound] = f"{module}.{name.name}" if module else name.name
    return aliases


def dtype_from_annotation(node: ast.AST, module: ModuleContext) -> str | None:
    """The dtype named by a ``dtype=``-style expression, if recognisable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.lstrip("<>=|")
        return _DTYPE_STRINGS.get(text, text if text in NUMPY_DTYPES else None)
    resolved = module.resolve(node)
    if resolved is None:
        return None
    tail = resolved.rsplit(".", 1)[-1]
    if tail in NUMPY_DTYPES and resolved.startswith(("numpy.", "np.")):
        return tail
    if tail in NUMPY_DTYPES and resolved == tail:
        return tail
    return None


def _call_dtype(
    node: ast.Call, module: ModuleContext, local_dtypes: dict[str, str]
) -> str | None:
    resolved = module.resolve(node.func)
    if resolved is not None and resolved.startswith("numpy."):
        tail = resolved.rsplit(".", 1)[-1]
        if tail in NUMPY_DTYPES:
            return tail
        if tail in _ARRAY_CTORS or tail in _LIKE_CTORS:
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    return dtype_from_annotation(keyword.value, module)
            if tail in _LIKE_CTORS and node.args:
                return infer_dtype(node.args[0], module, local_dtypes)
            return None
    if isinstance(node.func, ast.Attribute):
        if node.func.attr in ("astype", "view") and node.args:
            return dtype_from_annotation(node.args[0], module)
    return None


def infer_dtype(
    node: ast.AST, module: ModuleContext, local_dtypes: dict[str, str]
) -> str | None:
    """Best-effort dtype of an expression; ``None`` when undeclared.

    Only *explicitly declared* dtypes propagate: ``dtype=`` keywords,
    ``astype``/``view`` casts, ``np.uint64(...)`` scalar wrappers, local
    names assigned from such expressions, and ``self.<attr>`` names
    assigned that way anywhere in the file.  Mixed-dtype binary operations
    infer to ``None`` — the kernel-safety rule reports them instead.
    """
    if isinstance(node, ast.Call):
        return _call_dtype(node, module, local_dtypes)
    if isinstance(node, ast.Name):
        return local_dtypes.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return module.attribute_dtypes().get(node.attr)
        return None
    if isinstance(node, ast.Subscript):
        return infer_dtype(node.value, module, local_dtypes)
    if isinstance(node, ast.UnaryOp):
        return infer_dtype(node.operand, module, local_dtypes)
    if isinstance(node, ast.BinOp):
        left = infer_dtype(node.left, module, local_dtypes)
        right = infer_dtype(node.right, module, local_dtypes)
        if isinstance(node.op, ast.Div):
            return "float64"
        if left == right:
            return left
        if left is None or right is None:
            return left or right
        return None
    if isinstance(node, ast.IfExp):
        return infer_dtype(node.body, module, local_dtypes)
    return None


def collect_local_dtypes(
    body: list[ast.stmt], module: ModuleContext
) -> dict[str, str]:
    """Name → declared dtype for plain assignments within one scope."""
    dtypes: dict[str, str] = {}
    for statement in iter_scope_statements(body):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        elif isinstance(statement, ast.AugAssign):
            continue
        if value is None:
            continue
        inferred = infer_dtype(value, module, dtypes)
        if inferred is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                dtypes[target.id] = inferred
    return dtypes


def collect_attribute_dtypes(
    tree: ast.Module, module: ModuleContext
) -> dict[str, str]:
    """``self.<attr>`` → declared dtype across every method in the file."""
    dtypes: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                inferred = infer_dtype(value, module, {})
                if inferred is not None:
                    dtypes.setdefault(target.attr, inferred)
    return dtypes


class ProjectContext:
    """Repo-level facts shared by every rule during one lint run."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._catalogue: tuple[dict[str, frozenset[str]], frozenset[str]] | None = None

    @property
    def observability_doc(self) -> Path:
        """Location of the metric/span catalogue document."""
        return self.root / "docs" / "observability.md"

    def _parse_catalogue(self) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
        metrics: dict[str, frozenset[str]] = {}
        spans: set[str] = set()
        doc = self.observability_doc
        if not doc.exists():
            return metrics, frozenset()
        in_span_section = False
        span_pattern = re.compile(r"`([a-z0-9_]+\.[a-z0-9_]+)`")
        for line in doc.read_text().splitlines():
            if line.startswith("## "):
                in_span_section = line.strip().lower() == "## span naming"
            stripped = line.strip()
            if stripped.startswith("|"):
                cells = [cell.strip() for cell in stripped.strip("|").split("|")]
                if len(cells) >= 3:
                    name_match = re.fullmatch(r"`(repro_[a-z0-9_]+)`", cells[0])
                    if name_match:
                        label_cell = cells[2].split("(", 1)[0]
                        labels = frozenset(re.findall(r"`([a-z0-9_]+)`", label_cell))
                        metrics[name_match.group(1)] = labels
            if in_span_section:
                spans.update(span_pattern.findall(line))
        return metrics, frozenset(spans)

    @property
    def metric_catalogue(self) -> dict[str, frozenset[str]]:
        """Metric name → allowed label set, from ``docs/observability.md``.

        Empty when the document is absent (the telemetry rules then skip
        catalogue membership checks rather than failing on every metric).
        """
        if self._catalogue is None:
            self._catalogue = self._parse_catalogue()
        return self._catalogue[0]

    @property
    def span_catalogue(self) -> frozenset[str]:
        """Documented span names (``component.op``)."""
        if self._catalogue is None:
            self._catalogue = self._parse_catalogue()
        return self._catalogue[1]

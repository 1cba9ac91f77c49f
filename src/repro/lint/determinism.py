"""Determinism rules (DET001–DET004).

The repro engine promises bit-identical reruns: experiments seed every RNG
explicitly, snapshots restore byte-identical state, and the checkpoint CI
gate diffs restored runs field by field.  A single unseeded draw, a global
``seed()`` call mutating shared RNG state, a wall-clock read in a result
path, or iteration over an unordered ``set`` in a merge kernel silently
breaks that promise.  These rules catch all four at lint time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import ModuleContext, ProjectContext, iter_scope_nodes
from .rules import rule

__all__ = []

#: Module-level numpy.random draw functions (legacy global-state API).
_NP_GLOBAL_DRAWS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "poisson",
    "exponential",
    "binomial",
    "bytes",
}

#: stdlib ``random`` module draw functions (module-level global state).
_STDLIB_DRAWS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "getrandbits",
    "randbytes",
}

#: Wall-clock reads that make outputs depend on when the run happened.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Functions whose bodies are order-sensitive merge/kernel paths (DET004).
_ORDERED_PATHS = {"merge", "_merge_summaries", "update_block", "_observe_block"}


def _call_name(module: ModuleContext, node: ast.Call) -> str | None:
    return module.resolve(node.func)


@rule(
    "DET001",
    severity="error",
    summary="unseeded random number generator in library code",
    rationale=(
        "Library code must only draw randomness from an explicitly seeded\n"
        "generator: `np.random.default_rng(seed)` or `random.Random(seed)`\n"
        "threaded in from the experiment configuration.  An unseeded\n"
        "constructor or a module-level draw (`np.random.randint`,\n"
        "`random.random`, ...) makes reruns non-reproducible and breaks the\n"
        "checkpoint restore gate, which diffs restored runs field by field."
    ),
    example="rng = np.random.default_rng()  # no seed argument",
)
def check_unseeded_rng(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag unseeded RNG constructors and global-state draw calls."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(module, node)
        if name is None:
            continue
        if name in ("numpy.random.default_rng", "numpy.random.Generator"):
            if not node.args and not node.keywords:
                yield module, node, (
                    "np.random.default_rng() called without a seed; thread an "
                    "explicit seed through from the experiment config"
                )
        elif name == "random.Random":
            if not node.args and not node.keywords:
                yield module, node, (
                    "random.Random() constructed without a seed; pass an "
                    "explicit seed"
                )
        elif name.startswith("numpy.random."):
            tail = name.rsplit(".", 1)[-1]
            if tail in _NP_GLOBAL_DRAWS:
                yield module, node, (
                    f"module-level np.random.{tail}() draws from hidden global "
                    "RNG state; use a seeded np.random.default_rng(seed) "
                    "Generator instead"
                )
        elif name.startswith("random."):
            tail = name.rsplit(".", 1)[-1]
            if tail in _STDLIB_DRAWS:
                yield module, node, (
                    f"stdlib random.{tail}() draws from hidden global RNG "
                    "state; use a seeded random.Random(seed) instance instead"
                )


@rule(
    "DET002",
    severity="error",
    summary="global RNG state seeded in place",
    rationale=(
        "`np.random.seed()` / `random.seed()` mutate process-global RNG\n"
        "state, so the draw sequence depends on everything else the process\n"
        "has run — imports, other experiments, test ordering.  Seeding must\n"
        "happen by constructing a private generator\n"
        "(`np.random.default_rng(seed)`), never by mutating the global one."
    ),
    example="np.random.seed(42)",
)
def check_global_seed(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag ``np.random.seed`` / ``random.seed`` calls."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(module, node)
        if name in ("numpy.random.seed", "random.seed"):
            short = "np.random.seed" if name.startswith("numpy") else "random.seed"
            yield module, node, (
                f"{short}() mutates process-global RNG state; construct a "
                "private seeded generator instead"
            )


@rule(
    "DET003",
    severity="error",
    summary="wall-clock read outside the telemetry layer",
    rationale=(
        "`time.time()` / `datetime.now()` make results depend on when the\n"
        "run happened, which breaks byte-identical restore.  Wall-clock\n"
        "reads belong only to the telemetry layer (trace timestamps) and\n"
        "benchmark harnesses; durations in library code use the monotonic\n"
        "`time.perf_counter()`, which these rules deliberately allow."
    ),
    example="started = time.time()",
)
def check_wall_clock(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag wall-clock calls outside telemetry/benchmark paths."""
    library = module.library_rel
    if library is not None and library.startswith("telemetry/"):
        return
    if "benchmarks/" in module.relpath or module.relpath.startswith("benchmarks"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(module, node)
        if name in _WALL_CLOCK:
            yield module, node, (
                f"{name}() reads the wall clock outside telemetry/; use "
                "time.perf_counter() for durations or record timestamps via "
                "the telemetry layer"
            )


def _is_set_expression(node: ast.AST, set_names: set) -> bool:
    if isinstance(node, ast.SetComp) or isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expression(func.value, set_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left, set_names) or _is_set_expression(
            node.right, set_names
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


@rule(
    "DET004",
    severity="warning",
    summary="iteration over an unordered set in a merge/kernel path",
    rationale=(
        "Python `set` iteration order is hash-seed dependent across\n"
        "processes.  Inside order-sensitive paths — `merge`,\n"
        "`_merge_summaries`, `update_block`, `_observe_block` — iterating a\n"
        "bare set (in a `for` loop or comprehension) makes tie-breaking and\n"
        "floating-point accumulation order differ between the coordinator\n"
        "and its worker processes.  Iterate `sorted(the_set)` instead;\n"
        "membership tests (`x in s`) remain fine."
    ),
    example=(
        "def merge(self, other):\n"
        "    for key in self._keys | other._keys:  # unordered\n"
        "        ..."
    ),
)
def check_set_iteration(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag ``for``/comprehension iteration over bare sets in merge paths."""
    for scope, body in module.scopes():
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if scope.name not in _ORDERED_PATHS:
            continue
        set_names: set = set()
        for node in iter_scope_nodes(body):
            if isinstance(node, ast.Assign) and _is_set_expression(
                node.value, set_names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
        iter_sources: list[tuple[ast.AST, ast.AST]] = []
        for node in iter_scope_nodes(body):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_sources.append((node, node.iter))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    iter_sources.append((node, generator.iter))
        for anchor, source in iter_sources:
            if _is_set_expression(source, set_names):
                yield module, anchor, (
                    f"iteration over an unordered set inside {scope.name}(); "
                    "set iteration order varies across processes — iterate "
                    "sorted(...) instead"
                )

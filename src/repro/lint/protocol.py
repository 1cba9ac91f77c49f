"""Protocol-completeness rules (PRO001–PRO007 and PRO009).

The engine composes sketches and estimators through duck-typed protocols:
checkpointing calls ``state_dict``/``load_state_dict`` and looks the class
up in the ``@snapshottable`` registry, sharded ingest calls
``update_block`` and ``merge``, and process-pool workers receive compact
snapshot *bytes* — never pickled live objects.  A subclass that forgets a
method inherits a base-class fallback that either raises at checkpoint
time or silently degrades to a per-item loop; these rules make the
omission a lint failure instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import ModuleContext, ProjectContext
from .rules import rule

__all__ = []

#: Sketch protocol bases; deriving from one makes PRO001/PRO002 apply.
_SKETCH_BASES = {
    "Sketch",
    "MergeableSketch",
    "DistinctCountSketch",
    "FrequencyMomentSketch",
    "PointQuerySketch",
}

#: Bases that additionally promise ``merge`` + ``update_block``.
_MERGEABLE_BASES = _SKETCH_BASES - {"Sketch"}

_ESTIMATOR_BASE = "ProjectedFrequencyEstimator"
_ESTIMATOR_HOOKS = ("_summary_state", "_load_summary_state", "_merge_summaries")


def _base_names(node: ast.ClassDef, module: ModuleContext) -> set:
    """Last components of the class's base names, unwrapping generics."""
    names = set()
    for base in node.bases:
        target = base
        if isinstance(target, ast.Subscript):  # Sketch[Hashable]
            target = target.value
        resolved = module.resolve(target)
        if resolved is not None:
            names.add(resolved.rsplit(".", 1)[-1])
    return names


def _defined_methods(node: ast.ClassDef) -> set:
    return {
        item.name
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _is_abstract(node: ast.ClassDef, module: ModuleContext) -> bool:
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in item.decorator_list:
            resolved = module.resolve(decorator)
            if resolved is not None and resolved.rsplit(".", 1)[-1] in (
                "abstractmethod",
                "abstractproperty",
            ):
                return True
    return "ABC" in _base_names(node, module)


def _has_snapshottable(node: ast.ClassDef, module: ModuleContext) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        resolved = module.resolve(target)
        if resolved is not None and resolved.rsplit(".", 1)[-1] == "snapshottable":
            return True
    return False


def _protocol_classes(
    module: ModuleContext,
) -> Iterator[tuple[ast.ClassDef, set, bool]]:
    """Concrete classes deriving a protocol base: (node, bases, is_estimator)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        # The protocol bases themselves (and renamed re-exports of them)
        # declare the contract; only their concrete subclasses must
        # implement it.
        if node.name in _SKETCH_BASES or node.name == _ESTIMATOR_BASE:
            continue
        bases = _base_names(node, module)
        is_sketch = bool(bases & _SKETCH_BASES)
        is_estimator = _ESTIMATOR_BASE in bases
        if not (is_sketch or is_estimator):
            continue
        if _is_abstract(node, module):
            continue
        yield node, bases, is_estimator


@rule(
    "PRO001",
    severity="error",
    summary="sketch/estimator subclass missing state_dict/load_state_dict",
    rationale=(
        "Checkpointing serialises every registered component through\n"
        "`state_dict()` / `load_state_dict()`.  The Sketch base raises\n"
        "SnapshotError for both, so a subclass that defines neither works\n"
        "fine until the first `repro checkpoint` run, which then fails at\n"
        "save time.  Every concrete subclass of a sketch protocol base must\n"
        "define both methods in its own body."
    ),
    example=(
        "class BrokenSketch(MergeableSketch):\n"
        "    ...  # no state_dict / load_state_dict"
    ),
)
def check_state_dict(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag concrete protocol subclasses without snapshot methods."""
    for node, bases, is_estimator in _protocol_classes(module):
        if is_estimator and not (bases & _SKETCH_BASES):
            # Estimators implement state_dict on the shared base; their
            # per-class contract is the summary hooks (PRO005).
            continue
        defined = _defined_methods(node)
        missing = [
            name
            for name in ("state_dict", "load_state_dict")
            if name not in defined
        ]
        if missing:
            yield module, node, (
                f"class {node.name} derives a sketch protocol base but does "
                f"not define {', '.join(missing)}; checkpointing will raise "
                "SnapshotError"
            )


@rule(
    "PRO002",
    severity="error",
    summary="sketch/estimator subclass not @snapshottable-registered",
    rationale=(
        "`persistence.from_bytes` resolves the class to restore through the\n"
        "`@snapshottable(tag)` registry.  An unregistered sketch or\n"
        "estimator can be saved (via its state_dict) but never restored —\n"
        "the failure surfaces in a different process, long after the bug\n"
        "was introduced.  Every concrete protocol subclass must carry the\n"
        "decorator."
    ),
    example=(
        "class UnregisteredSketch(MergeableSketch):  # no @snapshottable\n"
        "    def state_dict(self): ..."
    ),
)
def check_snapshottable(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag concrete protocol subclasses without ``@snapshottable``."""
    for node, bases, is_estimator in _protocol_classes(module):
        if not _has_snapshottable(node, module):
            kind = "estimator" if is_estimator else "sketch"
            yield module, node, (
                f"class {node.name} is a concrete {kind} but carries no "
                "@snapshottable(tag) decorator; snapshots of it cannot be "
                "restored"
            )


@rule(
    "PRO003",
    severity="error",
    summary="mergeable sketch subclass missing merge",
    rationale=(
        "The coordinator reduces per-shard sketches with `merge()`; the\n"
        "MergeableSketch base raises NotImplementedError.  A subclass\n"
        "without its own `merge` passes single-shard tests and fails the\n"
        "first multi-shard run."
    ),
    example="class NoMerge(DistinctCountSketch):\n    ...  # no merge",
)
def check_merge(module: ModuleContext, project: ProjectContext) -> Iterator[tuple]:
    """Flag mergeable sketch subclasses without ``merge``."""
    for node, bases, _ in _protocol_classes(module):
        if not (bases & _MERGEABLE_BASES):
            continue
        if "merge" not in _defined_methods(node):
            yield module, node, (
                f"class {node.name} derives a mergeable sketch base but does "
                "not define merge(); multi-shard reduction will raise "
                "NotImplementedError"
            )


@rule(
    "PRO004",
    severity="error",
    summary="mergeable sketch subclass missing update_block",
    rationale=(
        "The vectorized ingest path feeds `update_block(items, counts)`.\n"
        "The base-class fallback is a per-item Python loop, so a missing\n"
        "override silently forfeits the batch-kernel speedup the benchmarks\n"
        "gate on.  Every mergeable sketch in the tree overrides it with a\n"
        "counted kernel that leaves the same state as that loop."
    ),
    example="class SlowSketch(PointQuerySketch):\n    ...  # no update_block",
)
def check_update_block(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag mergeable sketch subclasses without ``update_block``."""
    for node, bases, _ in _protocol_classes(module):
        if not (bases & _MERGEABLE_BASES):
            continue
        if "update_block" not in _defined_methods(node):
            yield module, node, (
                f"class {node.name} derives a mergeable sketch base but does "
                "not define update_block(); ingest falls back to the "
                "per-item loop"
            )


def _estimate_takes_item(node: ast.ClassDef) -> bool:
    """Whether the class defines an ``estimate(self, item, ...)`` method.

    Distinguishes point-query sketches from moment sketches, whose
    ``estimate(self)`` takes no item and has no per-item batch twin.
    """
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name != "estimate":
            continue
        positional = len(item.args.posonlyargs) + len(item.args.args)
        return positional >= 2
    return False


@rule(
    "PRO007",
    severity="error",
    summary="point-query sketch missing estimate_block",
    rationale=(
        "The vectorized query path answers batches through\n"
        "`estimate_block(items)`, the query-side twin of `update_block`.\n"
        "The base-class fallback is a per-item Python loop, so a sketch\n"
        "that defines `estimate(item)` without its own `estimate_block`\n"
        "silently forfeits the batch-kernel speedup the query benchmark\n"
        "gates on.  Sketches whose per-item estimate is already a cheap\n"
        "dictionary lookup may keep the fallback deliberately — suppress\n"
        "with `# repro: noqa[PRO007]` and document why in the class\n"
        "docstring."
    ),
    example=(
        "class SlowQueries(PointQuerySketch):\n"
        "    def estimate(self, item): ...  # no estimate_block"
    ),
)
def check_estimate_block(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag item-estimating sketch subclasses without ``estimate_block``."""
    for node, bases, _ in _protocol_classes(module):
        if not (bases & _SKETCH_BASES):
            continue
        if not _estimate_takes_item(node):
            continue
        if "estimate_block" not in _defined_methods(node):
            yield module, node, (
                f"class {node.name} defines estimate(item) but not "
                "estimate_block(); batch queries fall back to the per-item "
                "loop"
            )


@rule(
    "PRO005",
    severity="error",
    summary="estimator subclass missing summary-state hooks",
    rationale=(
        "ProjectedFrequencyEstimator subclasses plug into checkpointing and\n"
        "distributed merge through `_summary_state` /\n"
        "`_load_summary_state` / `_merge_summaries`.  The base\n"
        "implementations raise, so all three must be defined together —\n"
        "defining a subset leaves snapshots that save but cannot restore."
    ),
    example=(
        "class Partial(ProjectedFrequencyEstimator):\n"
        "    def _summary_state(self): ...  # missing the other two hooks"
    ),
)
def check_estimator_hooks(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag estimator subclasses missing any of the three summary hooks."""
    for node, bases, is_estimator in _protocol_classes(module):
        if not is_estimator:
            continue
        defined = _defined_methods(node)
        missing = [name for name in _ESTIMATOR_HOOKS if name not in defined]
        if missing:
            yield module, node, (
                f"class {node.name} derives {_ESTIMATOR_BASE} but does not "
                f"define {', '.join(missing)}; checkpoint restore and "
                "distributed merge will raise"
            )


#: Object serialisers whose import anywhere in ``engine/`` puts live
#: objects on the wire instead of snapshot bytes (PRO006).
_SERIALIZER_MODULES = {"pickle", "marshal"}


@rule(
    "PRO006",
    severity="error",
    summary="engine worker payload bypasses the snapshot-bytes contract",
    rationale=(
        "Process-pool workers must receive compact snapshot bytes\n"
        "(produced via the persistence layer's `to_bytes`, restored with\n"
        "`from_bytes`), never pickled live objects: pickling an estimator\n"
        "drags its RNG, caches and telemetry handles across the process\n"
        "boundary and couples the wire format to implementation layout.\n"
        "Any use of the `pickle` or `marshal` module inside `engine/` is\n"
        "flagged, and the coordinator's ship/restore pair must keep\n"
        "routing through `to_bytes` / `from_bytes`."
    ),
    example="import pickle  # inside src/repro/engine/",
)
def check_worker_payloads(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag pickle/marshal in engine code and drifted coordinator plumbing."""
    library = module.library_rel
    in_engine = library is None or library.startswith("engine/")
    if not in_engine:
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            roots = [name.name.split(".", 1)[0] for name in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = [(node.module or "").split(".", 1)[0]]
        else:
            continue
        for root in roots:
            if root in _SERIALIZER_MODULES:
                yield module, node, (
                    f"{root} imported in engine code; worker payloads must "
                    "ship snapshot bytes via the persistence layer"
                )
    if library != "engine/coordinator.py":
        return
    required = {
        "_pristine_payloads": (
            "to_bytes",
            "worker payloads must be built with to_bytes (snapshot bytes), "
            "not live estimator objects",
        ),
        "_ingest_estimator_state": (
            "from_bytes",
            "worker-side restore must go through persistence.from_bytes",
        ),
    }
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in required:
            continue
        needle, message = required[node.name]
        mentioned = {
            sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
        } | {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        if needle not in mentioned:
            yield module, node, f"{node.name}() drifted: {message}"


# PRO008 (pickled ``Connection`` traffic in transport code) is retired
# with the pipe it guarded; ``marshal`` moved into PRO006.  Its id is
# never reused.


@rule(
    "PRO009",
    severity="error",
    summary="transport connect bypasses the resilience retry wrapper",
    rationale=(
        "Transport socket connects must go through the blessed wrapper in\n"
        "`engine/resilience/`: `connect_with_retry()` (bounded connect\n"
        "timeout, seeded backoff, retry counters).  A bare\n"
        "`socket.create_connection()` hangs on an unreachable worker for\n"
        "the OS default timeout and retries nothing, so the supervisor\n"
        "never gets to recover the shard."
    ),
    example="socket.create_connection((host, port))  # in engine/transport/",
)
def check_transport_rpc_wrappers(
    module: ModuleContext, project: ProjectContext
) -> Iterator[tuple]:
    """Flag bare socket connects in transport code."""
    library = module.library_rel
    in_transport = library is None or library.startswith("engine/transport")
    if not in_transport:
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "create_connection"
        ):
            yield module, node, (
                "bare socket.create_connection() in transport code; dial "
                "through resilience.connect_with_retry() so connects carry "
                "a bounded timeout, seeded backoff and retry accounting"
            )

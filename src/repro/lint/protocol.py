"""Call-pattern rules of the worker protocol (PRO006 and PRO009).

Process-pool workers receive compact snapshot *bytes*, never pickled live
objects, and transport connects go through the resilience layer's retry
wrapper.  Both are properties of call sites, so they are checked here on
the source text.

The class contracts (``@snapshottable``, ``state_dict`` /
``load_state_dict``, ``merge``, ``update_block``, ``estimate_block`` and
the estimator summary hooks) are checked on the live classes, subclasses
of subclasses included, by
``tests/test_persistence.py::test_every_sketch_and_estimator_class_keeps_its_contract``.
The ids of the AST rules that checked them, PRO001–PRO005 and PRO007, are
retired like PRO008's and never reused.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import ModuleContext, ProjectContext
from .rules import rule

__all__ = []


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

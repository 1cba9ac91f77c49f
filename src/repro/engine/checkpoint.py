"""Engine checkpoints: persist a coordinator's summaries, restore them later.

The paper's two-phase model says a summary, once built, should answer
queries *arbitrarily later* — including from a different process than the
one that observed the stream.  A checkpoint makes that literal: one file
(format tag :data:`~repro.persistence.CHECKPOINT_FORMAT`, built on the
:mod:`repro.persistence` envelope) holding exactly the coordinator's
configuration manifest and the merged summary, serialized through the
estimator's ``state_dict`` contract.  Shard replicas are not in it: each
``ingest()`` starts fresh ones and drops them after the merge, so the
merged summary is all the coordinator's state.  Files in an earlier
format are refused.

Build once, fan out many: a query tier restores the merged summary with
:func:`load_merged_estimator` (or
:meth:`repro.engine.service.QueryService.from_checkpoint`) without ever
touching the raw stream, while :func:`load_checkpoint` rebuilds a full
:class:`~repro.engine.coordinator.Coordinator` that can keep ingesting
exactly where the saved one stopped (bit-identically, since RNG state
travels with the summary).  Saving replaces the file atomically, so a
failed save leaves the previous checkpoint intact.

Example::

    >>> import tempfile, os
    >>> from repro import Coordinator, Dataset, ExactBaseline, RowStream
    >>> from repro.engine.checkpoint import load_merged_estimator
    >>> data = Dataset.random(n_rows=60, n_columns=5, seed=4)
    >>> engine = Coordinator(
    ...     lambda: ExactBaseline(n_columns=5), n_shards=2, backend="serial"
    ... )
    >>> _ = engine.ingest(RowStream(data))
    >>> path = os.path.join(tempfile.mkdtemp(), "engine.ckpt")
    >>> info = engine.save_checkpoint(path)
    >>> load_merged_estimator(path).rows_observed
    60
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .. import persistence, telemetry
from ..core.estimator import ProjectedFrequencyEstimator
from ..errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .coordinator import Coordinator

__all__ = [
    "CheckpointInfo",
    "save_checkpoint",
    "load_checkpoint",
    "load_merged_estimator",
    "read_checkpoint_envelope",
]


@dataclass(frozen=True)
class CheckpointInfo:
    """What one :func:`save_checkpoint` call wrote.

    ``n_bytes`` is the size of the file on disk — the number experiment
    results record next to the structural ``size_in_bits()`` accounting, so
    the wire cost and the paper's space accounting can be compared directly.
    """

    path: str
    n_bytes: int
    n_shards: int
    rows_total: int
    summary_bits: int


def save_checkpoint(coordinator: "Coordinator", path: str | Path) -> CheckpointInfo:
    """Persist ``coordinator``'s merged summary and config to ``path``."""
    merged = coordinator._merged  # noqa: SLF001 - same-package accessor
    started = time.perf_counter()
    with telemetry.span(
        "checkpoint.save", path=str(path), n_shards=coordinator.n_shards
    ) as save_span:
        envelope = {
            "format": persistence.CHECKPOINT_FORMAT,
            "config": {
                "n_shards": coordinator.n_shards,
                "policy": coordinator._partitioner.policy,  # noqa: SLF001
                "backend": coordinator.backend,
                "hash_seed": coordinator._partitioner.hash_seed,  # noqa: SLF001
                "batch_size": coordinator.batch_size,
                "worker_addresses": (
                    None
                    if coordinator.worker_addresses is None
                    else list(coordinator.worker_addresses)
                ),
                "resilience": coordinator.resilience.to_dict(),
                "coverage": coordinator.coverage,
                "rows_covered": coordinator._rows_covered,  # noqa: SLF001
                "rows_lost": coordinator._rows_lost,  # noqa: SLF001
            },
            "merged": None if merged is None else persistence.encode_state(merged),
        }
        data = persistence.dump_envelope(envelope)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Write a sibling, then rename it over the target: a write that
        # fails part-way (a full disk, say) leaves the previous checkpoint
        # loadable, and the partial sibling is removed.
        temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            temporary.write_bytes(data)
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        save_span.set(bytes=len(data))
    _record_checkpoint_metrics("save", len(data), time.perf_counter() - started)
    return CheckpointInfo(
        path=str(target),
        n_bytes=len(data),
        n_shards=coordinator.n_shards,
        rows_total=0 if merged is None else merged.rows_observed,
        summary_bits=0 if merged is None else merged.size_in_bits(),
    )


def _record_checkpoint_metrics(op: str, n_bytes: int, seconds: float) -> None:
    """Record one checkpoint save/load into the default metrics registry."""
    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    registry.counter(
        "repro_checkpoint_total", "Checkpoint operations performed."
    ).inc(op=op)
    registry.counter(
        "repro_checkpoint_bytes_total", "Bytes written or read by checkpoints."
    ).inc(n_bytes, op=op)
    registry.histogram(
        "repro_checkpoint_seconds", "Wall time of one checkpoint operation."
    ).observe(seconds, op=op)


def read_checkpoint_envelope(path: str | Path) -> dict:
    """Load and schema-check a checkpoint file's envelope (no object decoding).

    :func:`load_checkpoint` and :func:`load_merged_estimator` read their
    file through it; it is also the cheap way to get the config manifest
    without paying for summary reconstruction.
    """
    envelope = persistence.load_envelope(Path(path).read_bytes())
    if envelope["format"] != persistence.CHECKPOINT_FORMAT:
        raise SnapshotError(
            f"{path}: expected a {persistence.CHECKPOINT_FORMAT!r} payload, "
            f"got {envelope['format']!r}"
        )
    return envelope


def load_checkpoint(
    path: str | Path, estimator_factory=None
) -> "Coordinator":
    """Rebuild a :class:`~repro.engine.coordinator.Coordinator` from a checkpoint.

    The restored coordinator serves queries immediately
    (``merged_estimator`` / ``query_service()``) and — because every summary
    carries its RNG state — continues ingesting bit-identically to the
    coordinator that was saved.  ``estimator_factory`` is only needed for
    that continued ingestion (checkpoints cannot serialize factories);
    without one, calling :meth:`~repro.engine.coordinator.Coordinator.ingest`
    raises.
    """
    from .coordinator import Coordinator  # deferred: avoid import cycle

    started = time.perf_counter()
    with telemetry.span(
        "checkpoint.load", path=str(path), scope="coordinator"
    ) as load_span:
        envelope = read_checkpoint_envelope(path)
        config = envelope["config"]
        coordinator = Coordinator(
            estimator_factory
            if estimator_factory is not None
            else _missing_factory,
            n_shards=int(config["n_shards"]),
            policy=str(config["policy"]),
            backend=str(config["backend"]),
            hash_seed=int(config["hash_seed"]),
            batch_size=config["batch_size"],
            worker_addresses=config.get("worker_addresses"),
            resilience=config.get("resilience"),
        )
        coordinator._rows_covered = int(  # noqa: SLF001
            config.get("rows_covered", 0)
        )
        coordinator._rows_lost = int(config.get("rows_lost", 0))  # noqa: SLF001
        merged = envelope["merged"]
        if merged is not None:
            estimator = persistence.decode_state(merged)
            if not isinstance(estimator, ProjectedFrequencyEstimator):
                raise SnapshotError(f"{path}: merged summary is not an estimator")
            coordinator._merged = estimator  # noqa: SLF001
        load_span.set(n_shards=coordinator.n_shards)
    _record_checkpoint_metrics(
        "load", Path(path).stat().st_size, time.perf_counter() - started
    )
    return coordinator


def load_merged_estimator(path: str | Path) -> ProjectedFrequencyEstimator:
    """Restore only the merged summary — all a query-serving tier needs."""
    return _load_merged(path)[0]


def _load_merged(
    path: str | Path,
) -> tuple[ProjectedFrequencyEstimator, dict]:
    """Read ``path`` once: the merged summary and the config manifest."""
    started = time.perf_counter()
    with telemetry.span("checkpoint.load", path=str(path), scope="merged"):
        envelope = read_checkpoint_envelope(path)
        merged = envelope["merged"]
        if merged is None:
            raise SnapshotError(
                f"{path}: checkpoint holds no merged summary (nothing was "
                "ingested before saving)"
            )
        estimator = persistence.decode_state(merged)
        if not isinstance(estimator, ProjectedFrequencyEstimator):
            raise SnapshotError(f"{path}: merged summary is not an estimator")
    _record_checkpoint_metrics(
        "load", Path(path).stat().st_size, time.perf_counter() - started
    )
    return estimator, envelope["config"]


def _missing_factory() -> ProjectedFrequencyEstimator:
    """Placeholder factory installed by :func:`load_checkpoint` without one."""
    from ..errors import EstimationError

    raise EstimationError(
        "this coordinator was restored from a checkpoint without an "
        "estimator_factory; pass one to load_checkpoint() to ingest more data"
    )

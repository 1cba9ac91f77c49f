"""Tracing spans: nested, monotonic-clock timed sections of the hot path.

A span is one timed section of work — ``coordinator.ingest``,
``coordinator.merge``, ``service.query`` — opened with the
:func:`span` context manager.  Spans nest: a span opened while another is
active records the outer span as its parent, so a finished trace is a
forest that answers "where did the time go?" for an ingest run, a merge,
a checkpoint restore, or a whole experiment.

Timing is monotonic (``time.perf_counter`` offsets from the tracer's
epoch), so durations are immune to wall-clock steps; the tracer also
records one wall-clock epoch so exported traces can be placed in real
time.  Two export shapes:

* :meth:`Tracer.to_dict` — the ``repro/trace@1`` JSON schema that
  ``python -m repro lint`` validates (rule ``ART002``);
* :meth:`Tracer.to_chrome` — Chrome trace-event format, loadable in
  ``chrome://tracing`` / Perfetto.

:func:`span` records only while a tracer is installed (:func:`scoped_tracer`
or :func:`set_tracer`), so a long-running process that never asked for a
trace keeps no spans.  Without an installed tracer, or when telemetry is
disabled (:func:`repro.telemetry.registry.disable`), :func:`span` yields a
shared no-op handle without touching the clock.

Example::

    >>> tracer = Tracer()
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner", detail="x"):
    ...         pass
    >>> [record.name for record in tracer.spans]
    ['inner', 'outer']
    >>> tracer.spans[0].parent_id == tracer.spans[1].span_id
    True
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import registry as _registry

__all__ = [
    "SpanHandle",
    "SpanRecord",
    "TRACE_SCHEMA",
    "Tracer",
    "get_tracer",
    "scoped_tracer",
    "set_tracer",
    "span",
]

#: Format tag of the JSON trace export.
TRACE_SCHEMA = "repro/trace@1"

#: Attribute value types a span accepts (JSON scalars).
AttrValue = str | int | float | bool


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, lineage, monotonic timing, attributes."""

    span_id: int
    parent_id: int | None
    name: str
    start_seconds: float
    duration_seconds: float
    attrs: dict[str, AttrValue] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The ``repro/trace@1`` JSON shape of this span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "attrs": dict(self.attrs),
        }


class SpanHandle:
    """The live handle :func:`span` yields inside the ``with`` block."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: dict[str, AttrValue]) -> None:
        self.attrs = attrs

    def set(self, **attrs: AttrValue) -> "SpanHandle":
        """Attach attributes to the span while it is running."""
        self.attrs.update(attrs)
        return self


class _NullSpanHandle:
    """Disabled-mode handle: attribute writes vanish."""

    __slots__ = ()

    def set(self, **attrs: AttrValue) -> "_NullSpanHandle":
        """No-op."""
        return self


_NULL_HANDLE = _NullSpanHandle()


@contextmanager
def _null_span() -> Iterator[_NullSpanHandle]:
    yield _NULL_HANDLE


class Tracer:
    """Collect spans for one process (or one scoped run).

    Spans are appended on *exit*, so ``spans`` lists them in completion
    order (children before parents); :meth:`to_dict` re-sorts by start
    time for a stable export.  A tracer's span ids are unique within the
    tracer, and the active-span stack is thread-local, so concurrent
    threads nest correctly without interleaving each other's lineage.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._epoch_perf = time.perf_counter()
        self._epoch_unix = time.time()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: AttrValue) -> Iterator[SpanHandle]:
        """Open a timed span named ``name``; nests under any active span.

        An exception raised inside the block is recorded as an ``error``
        attribute (the exception type name) and re-raised — failed work is
        exactly the work a trace must not lose.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        handle = SpanHandle(dict(attrs))
        started = time.perf_counter()
        try:
            yield handle
        except BaseException as error:
            handle.attrs["error"] = type(error).__name__
            raise
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            record = SpanRecord(
                span_id=span_id,
                parent_id=parent_id,
                name=str(name),
                start_seconds=started - self._epoch_perf,
                duration_seconds=duration,
                attrs=handle.attrs,
            )
            with self._lock:
                self.spans.append(record)

    def reset(self) -> None:
        """Drop every recorded span and re-anchor the epoch."""
        with self._lock:
            self.spans.clear()
            self._epoch_perf = time.perf_counter()
            self._epoch_unix = time.time()
            self._next_id = 0
        self._local = threading.local()

    def to_dict(self) -> dict:
        """The ``repro/trace@1`` export: schema tag, epoch, sorted spans."""
        with self._lock:
            ordered = sorted(
                self.spans, key=lambda record: (record.start_seconds, record.span_id)
            )
            return {
                "schema": TRACE_SCHEMA,
                "epoch_unix_seconds": self._epoch_unix,
                "process_id": os.getpid(),
                "spans": [record.to_dict() for record in ordered],
            }

    def to_chrome(self) -> dict:
        """Chrome trace-event export (open in ``chrome://tracing``/Perfetto).

        Complete events (``"ph": "X"``) with microsecond timestamps
        relative to the tracer epoch; span attributes ride in ``args``.
        """
        pid = os.getpid()
        with self._lock:
            ordered = sorted(
                self.spans, key=lambda record: (record.start_seconds, record.span_id)
            )
            events = [
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": record.start_seconds * 1e6,
                    "dur": record.duration_seconds * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": dict(record.attrs),
                }
                for record in ordered
            ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


_DEFAULT_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer the instrumented hot paths record into.

    ``None`` when no tracer is installed, which is the default: spans are
    then not recorded at all.

    Example::

        >>> get_tracer() is None
        True
    """
    return _DEFAULT_TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` (``None`` stops recording); returns the old one."""
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer
    return previous


@contextmanager
def scoped_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Swap in a fresh (or given) tracer for the duration of a block.

    Example::

        >>> with scoped_tracer() as tracer:
        ...     with tracer.span("work"):
        ...         pass
        >>> len(tracer.spans)
        1
    """
    fresh = tracer if tracer is not None else Tracer()
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


def span(name: str, **attrs: AttrValue):
    """Open a span on the installed tracer (no-op without one or when disabled).

    The one-line instrumentation entry point the engine uses::

        with span("coordinator.ingest", backend="serial") as current:
            ...
            current.set(rows=1024)
    """
    tracer = _DEFAULT_TRACER
    if tracer is None or not _registry.enabled():
        return _null_span()
    return tracer.span(name, **attrs)

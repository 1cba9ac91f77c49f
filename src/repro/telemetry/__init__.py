"""repro.telemetry — metrics, tracing spans, and exporters for the engine.

The dependency-free observability layer the serving stack is instrumented
with (see ``docs/observability.md`` for the metric catalogue and span
naming convention):

* :mod:`repro.telemetry.registry` — labeled :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` metrics in a mergeable
  :class:`MetricsRegistry`, plus the process-global default registry and
  the :func:`enable` / :func:`disable` switch whose off position costs
  one no-op call per instrumented site;
* :mod:`repro.telemetry.trace` — nested :func:`span` context managers
  with monotonic timing, exported as ``repro/trace@1`` JSON or Chrome
  trace-event format;
* :mod:`repro.telemetry.export` — Prometheus text exposition, JSON
  metrics, a span-tree pretty-printer, and the schema validators behind
  ``python -m repro lint``'s trace and result checks (rule ``ART002``).

Instrumented paths: ``Coordinator.ingest`` (rows/blocks/bytes, per-shard
timings, partition skew), estimator ``observe_rows`` blocks, the α-net
``update_block`` kernels, ``merge()``, checkpoint save/load, and the
``QueryService`` cache and latency counters.  Worker processes record
into their own registry and ship it back with their estimator snapshots;
the coordinator merges it into the process-global registry.

Example::

    >>> from repro.telemetry import get_registry, render_prometheus, span
    >>> with span("demo.work", items=3):
    ...     get_registry().counter("demo_items_total").inc(3)
    >>> "demo_items_total" in render_prometheus(get_registry()) or not enabled()
    True
"""

from .export import (
    METRICS_SCHEMA,
    TELEMETRY_SCHEMA,
    metrics_to_dict,
    render_prometheus,
    render_span_tree,
    validate_telemetry_section,
    validate_trace_payload,
)
from .registry import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled,
    get_registry,
    reset,
    scoped_registry,
    set_registry,
)
from .trace import (
    TRACE_SCHEMA,
    SpanRecord,
    Tracer,
    get_tracer,
    scoped_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NullRegistry",
    "SIZE_BUCKETS",
    "SpanRecord",
    "TELEMETRY_SCHEMA",
    "TIME_BUCKETS",
    "TRACE_SCHEMA",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "metrics_to_dict",
    "render_prometheus",
    "render_span_tree",
    "reset",
    "scoped_registry",
    "scoped_tracer",
    "set_registry",
    "set_tracer",
    "span",
    "validate_telemetry_section",
    "validate_trace_payload",
]

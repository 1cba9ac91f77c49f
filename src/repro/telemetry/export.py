"""Exporters and validators for the telemetry layer.

Two renderers over a :class:`~repro.telemetry.registry.MetricsRegistry`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, labeled samples, histogram
  ``_bucket``/``_sum``/``_count`` series with cumulative ``le`` bounds),
  ready to be scraped from a file or served by a future ``repro.server``;
* :func:`metrics_to_dict` — a JSON shape (the registry ``state_dict``
  under a schema tag) for programmatic consumers.

Plus the span-side counterparts: :func:`render_span_tree` pretty-prints a
finished trace as an indented tree, and :func:`validate_trace_payload` /
:func:`validate_telemetry_section` are the schema checks behind
``python -m repro lint``'s trace and result checks (rule ``ART002``).

Example::

    >>> from repro.telemetry import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_rows_total", "rows ingested").inc(3, shard="0")
    >>> print(render_prometheus(registry))
    # HELP repro_rows_total rows ingested
    # TYPE repro_rows_total counter
    repro_rows_total{shard="0"} 3
    <BLANKLINE>
"""

from __future__ import annotations

import math

from .registry import Counter, Gauge, Histogram, MetricsRegistry, NullRegistry
from .trace import TRACE_SCHEMA, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "TELEMETRY_SCHEMA",
    "metrics_to_dict",
    "render_prometheus",
    "render_span_tree",
    "validate_telemetry_section",
    "validate_trace_payload",
]

#: Format tag of the JSON metrics export.
METRICS_SCHEMA = "repro/metrics@1"

#: Format tag of the ``telemetry`` section inside experiment result JSON.
TELEMETRY_SCHEMA = "repro/telemetry@1"


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integral floats print without a dot."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_block(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label(value)}"' for key, value in pairs)
    return "{" + body + "}"


def render_prometheus(registry: MetricsRegistry | NullRegistry) -> str:
    """Render every metric in ``registry`` as Prometheus text exposition."""
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.series():
                lines.append(
                    f"{metric.name}{_label_block(labels)} {_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, series in metric.series():
                cumulative = 0
                for bound, bucket_count in zip(
                    metric.buckets, series.bucket_counts
                ):
                    cumulative += bucket_count
                    bucket_labels = list(labels) + [("le", _format_value(bound))]
                    lines.append(
                        f"{metric.name}_bucket{_label_block(bucket_labels)} "
                        f"{cumulative}"
                    )
                inf_labels = list(labels) + [("le", "+Inf")]
                lines.append(
                    f"{metric.name}_bucket{_label_block(inf_labels)} {series.count}"
                )
                lines.append(
                    f"{metric.name}_sum{_label_block(labels)} "
                    f"{_format_value(series.total)}"
                )
                lines.append(
                    f"{metric.name}_count{_label_block(labels)} {series.count}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def metrics_to_dict(registry: MetricsRegistry | NullRegistry) -> dict:
    """The JSON metrics export: the registry state under a schema tag."""
    return {"schema": METRICS_SCHEMA, **registry.state_dict()}


def render_span_tree(trace: Tracer | dict) -> str:
    """Pretty-print a trace as an indented span tree with durations.

    Accepts a live :class:`~repro.telemetry.trace.Tracer` or an exported
    ``repro/trace@1`` payload.  Spans sort by start time within each
    parent; durations print in the most readable unit.
    """
    payload = trace.to_dict() if isinstance(trace, Tracer) else trace
    spans = payload.get("spans", [])
    children: dict[object, list[dict]] = {}
    for entry in spans:
        children.setdefault(entry.get("parent_id"), []).append(entry)
    for group in children.values():
        group.sort(key=lambda entry: (entry["start_seconds"], entry["span_id"]))

    def duration_text(seconds: float) -> str:
        if seconds >= 1.0:
            return f"{seconds:.2f}s"
        if seconds >= 1e-3:
            return f"{seconds * 1e3:.2f}ms"
        return f"{seconds * 1e6:.0f}us"

    lines: list[str] = []

    def walk(parent_id: object, depth: int) -> None:
        for entry in children.get(parent_id, ()):  # depth-first, start order
            attrs = entry.get("attrs") or {}
            attr_text = (
                " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
                if attrs
                else ""
            )
            lines.append(
                "  " * depth
                + f"{entry['name']}  {duration_text(entry['duration_seconds'])}"
                + attr_text
            )
            walk(entry["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def validate_trace_payload(payload: object) -> list[str]:
    """Check a decoded trace JSON against the ``repro/trace@1`` schema.

    Returns human-readable problems (empty list = valid): the schema tag,
    the span field types, id uniqueness, parent references, and that every
    child span nests inside its parent's time interval.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"trace payload must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"schema must be {TRACE_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("epoch_unix_seconds"), (int, float)):
        problems.append("'epoch_unix_seconds' must be a number")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("'spans' must be a list")
        return problems
    intervals: dict[int, tuple[float, float]] = {}
    for position, entry in enumerate(spans):
        where = f"span #{position}"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        span_id = entry.get("span_id")
        if not isinstance(span_id, int):
            problems.append(f"{where}: 'span_id' must be an integer")
            continue
        if span_id in intervals:
            problems.append(f"{where}: duplicate span_id {span_id}")
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            problems.append(f"{where}: 'name' must be a non-empty string")
        start = entry.get("start_seconds")
        duration = entry.get("duration_seconds")
        if not isinstance(start, (int, float)):
            problems.append(f"{where}: 'start_seconds' must be a number")
            start = 0.0
        if not isinstance(duration, (int, float)) or duration < 0:
            problems.append(f"{where}: 'duration_seconds' must be a number >= 0")
            duration = 0.0
        attrs = entry.get("attrs")
        if not isinstance(attrs, dict):
            problems.append(f"{where}: 'attrs' must be an object")
        else:
            for key, value in attrs.items():
                if not isinstance(key, str) or not isinstance(
                    value, (str, int, float, bool)
                ):
                    problems.append(
                        f"{where}: attr {key!r} must map a string to a JSON "
                        "scalar"
                    )
        intervals[span_id] = (float(start), float(start) + float(duration))
    # Lineage pass, with a small tolerance: parents record their duration a
    # hair after the child context exits, so exact nesting holds up to clock
    # granularity.
    epsilon = 1e-6
    for position, entry in enumerate(spans):
        if not isinstance(entry, dict):
            continue
        parent_id = entry.get("parent_id")
        if parent_id is None:
            continue
        if not isinstance(parent_id, int) or parent_id not in intervals:
            problems.append(
                f"span #{position}: parent_id {parent_id!r} does not "
                "reference a span in this trace"
            )
            continue
        span_id = entry.get("span_id")
        if not isinstance(span_id, int) or span_id not in intervals:
            continue
        child_start, child_end = intervals[span_id]
        parent_start, parent_end = intervals[parent_id]
        if child_start + epsilon < parent_start or child_end > parent_end + epsilon:
            problems.append(
                f"span #{position}: interval [{child_start:.6f}, "
                f"{child_end:.6f}] escapes its parent's [{parent_start:.6f}, "
                f"{parent_end:.6f}]"
            )
    return problems


def validate_telemetry_section(section: object) -> list[str]:
    """Check a result-JSON ``telemetry`` section (``repro/telemetry@1``).

    The shape the experiment runner records: schema tag, enabled flag,
    per-phase wall times, ingest/cache/query accounting, and the peak
    summary size.  Returns human-readable problems; empty list = valid.
    """
    problems: list[str] = []
    if not isinstance(section, dict):
        return [
            f"'telemetry' must be an object, got {type(section).__name__}"
        ]
    if section.get("schema") != TELEMETRY_SCHEMA:
        problems.append(
            f"telemetry schema must be {TELEMETRY_SCHEMA!r}, "
            f"got {section.get('schema')!r}"
        )
    if not isinstance(section.get("enabled"), bool):
        problems.append("'telemetry.enabled' must be a boolean")
    phases = section.get("phases")
    if not isinstance(phases, dict):
        problems.append("'telemetry.phases' must be an object")
    else:
        for key in ("ingest_seconds", "merge_seconds", "query_seconds"):
            value = phases.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"'telemetry.phases.{key}' must be a number >= 0"
                )
    ingest = section.get("ingest")
    if not isinstance(ingest, dict):
        problems.append("'telemetry.ingest' must be an object")
    else:
        for key in ("sessions", "rows_total"):
            if not isinstance(ingest.get(key), int):
                problems.append(f"'telemetry.ingest.{key}' must be an integer")
        if not isinstance(ingest.get("rows_per_second"), (int, float)):
            problems.append("'telemetry.ingest.rows_per_second' must be a number")
    cache = section.get("cache")
    if not isinstance(cache, dict):
        problems.append("'telemetry.cache' must be an object")
    else:
        for key in ("hits", "misses", "invalidations"):
            if not isinstance(cache.get(key), int):
                problems.append(f"'telemetry.cache.{key}' must be an integer")
        if not isinstance(cache.get("hit_rate"), (int, float)):
            problems.append("'telemetry.cache.hit_rate' must be a number")
    queries = section.get("queries")
    if not isinstance(queries, dict):
        problems.append("'telemetry.queries' must be an object")
    else:
        if not isinstance(queries.get("count"), int):
            problems.append("'telemetry.queries.count' must be an integer")
        kinds = queries.get("kinds")
        if not isinstance(kinds, dict) or not all(
            isinstance(k, str) and isinstance(v, int) for k, v in kinds.items()
        ):
            problems.append(
                "'telemetry.queries.kinds' must map kind names to integers"
            )
    transport = section.get("transport")
    if transport is not None:  # optional: sections predate the transport layer
        if not isinstance(transport, dict):
            problems.append("'telemetry.transport' must be an object")
        else:
            bytes_shipped = transport.get("bytes_shipped")
            if not isinstance(bytes_shipped, int) or bytes_shipped < 0:
                problems.append(
                    "'telemetry.transport.bytes_shipped' must be an "
                    "integer >= 0"
                )
            backends = transport.get("backends")
            if not isinstance(backends, list) or not all(
                isinstance(backend, str) for backend in backends
            ):
                problems.append(
                    "'telemetry.transport.backends' must be a list of "
                    "backend names"
                )
    if not isinstance(section.get("peak_summary_bits"), int):
        problems.append("'telemetry.peak_summary_bits' must be an integer")
    return problems

"""Unified telemetry plane: metrics, tracing and the cluster event log.

Three coordinated pieces, all running on the simulated clock:

* :mod:`repro.telemetry.registry` — counters, gauges and mergeable
  fixed-bucket latency histograms (:class:`MetricsRegistry`), with a JSON
  snapshot exporter.  Enabled per shard via
  ``CLAMConfig(telemetry_enabled=True)``; the hot path is untouched when
  disabled.
* :mod:`repro.telemetry.trace` — span tracing (:class:`Tracer`) threaded
  through CLAM -> flash device I/O and ClusterService -> BatchExecutor ->
  CompressionEngine, activated only inside a ``with tracing(tracer):`` block.
* :mod:`repro.telemetry.events` — the always-on :class:`EventLog` of shard
  up/down transitions, hinted-handoff replay, recovery and failure
  injections.

:mod:`repro.telemetry.export` assembles the standard snapshot envelope and
:mod:`repro.telemetry.schema` validates it (``python -m
repro.telemetry.schema FILE``).
"""

from repro.telemetry.events import Event, EventLog
from repro.telemetry.export import SNAPSHOT_SCHEMA_VERSION, build_snapshot, write_snapshot
from repro.telemetry.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    default_latency_buckets,
)
from repro.telemetry.schema import SchemaError, load_schema, validate, validate_snapshot
from repro.telemetry.trace import ACTIVE, Span, Tracer, tracing

__all__ = [
    "ACTIVE",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA_VERSION",
    "SchemaError",
    "Span",
    "Tracer",
    "build_snapshot",
    "default_latency_buckets",
    "load_schema",
    "tracing",
    "validate",
    "validate_snapshot",
    "write_snapshot",
]

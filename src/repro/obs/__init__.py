"""Observability: metrics registry and structured tracing.

Everything in this package is **descriptive, never load-bearing** — the
execution layers emit telemetry into it, and nothing reads telemetry back
to make a decision.  Records, baselines and serial==parallel byte-identity
are unchanged whether telemetry is on or off; tests enforce this.

The package is deliberately outside the semantic fingerprint
(``repro.store.fingerprint.SEMANTIC_PACKAGES``): editing instrumentation
must never invalidate cached run records.
"""

from .registry import (
    METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    TIMER_BUCKETS,
    render_markdown,
    render_prometheus,
    render_text,
    set_enabled,
    telemetry_enabled,
)
from .trace import (
    RECORD_EVENT,
    RECORD_SPAN_END,
    RECORD_SPAN_START,
    TRACE_FORMAT_VERSION,
    TraceSink,
)

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timer",
    "TIMER_BUCKETS",
    "render_markdown",
    "render_prometheus",
    "render_text",
    "set_enabled",
    "telemetry_enabled",
    "RECORD_EVENT",
    "RECORD_SPAN_END",
    "RECORD_SPAN_START",
    "TRACE_FORMAT_VERSION",
    "TraceSink",
]

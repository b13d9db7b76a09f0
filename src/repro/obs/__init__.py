"""Unified telemetry plane: metrics, per-request tracing, and export.

This package answers the operator questions a production deployment
asks — *how much* traffic was served and how, *where* inside a request
the time went, *which* requests were slow and why, and *how* the
system trends over a run — as a dependency-free telemetry substrate
the serving layer records into:

* :mod:`repro.obs.metrics` — named :class:`Counter` / :class:`Gauge` /
  log2-bucketed :class:`Histogram` primitives behind one
  :class:`MetricsRegistry`, plus pull-mode callbacks for state kept
  elsewhere, all under canonical dotted names (``serving.latency``,
  ``serving.requests``, ``cache.candidate.hits``, …);
* :mod:`repro.obs.trace` — a lightweight per-request :class:`Trace` /
  :class:`Span` recorder with stride sampling (~zero cost at the
  default sampling rate) and a bounded slow-request exemplar buffer
  that keeps the full span breakdown of the top-K slowest requests;
* :mod:`repro.obs.export` — a periodic :class:`SnapshotExporter`
  thread writing JSONL time series, a Prometheus-style text exposition
  formatter, and timeline loading/summarising for ``repro
  metrics-dump``.

Nothing in here imports :mod:`repro.serving` (the dependency points the
other way), numpy, or anything beyond the standard library — the plane
stays importable from any layer, kernels included.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import SlowRequestBuffer, Span, Trace, Tracer
from repro.obs.export import (
    SnapshotExporter,
    load_timeline,
    prometheus_snapshot_lines,
    summarise_timeline,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Trace", "Tracer", "SlowRequestBuffer",
    "SnapshotExporter", "prometheus_snapshot_lines",
    "load_timeline", "summarise_timeline",
]

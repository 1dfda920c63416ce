"""One telemetry plane for the whole stack.

``repro.obs`` unifies the per-layer stats surfaces that grew with the
engine — ``io_stats()``, ``plane_stats()``, ``erasure_stats()``,
``replica_read_stats()`` — behind three small pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-boundary latency histograms with deterministic bucket edges, so
  a snapshot of the counting half is bit-stable and gateable exactly
  like the existing I/O counts.  Per-thread accumulation keeps the hot
  path lock-free; ``snapshot()`` aggregates and ``merge()`` folds one
  snapshot into another (worker registries back into the parent).
* :class:`~repro.obs.tracing.Tracer` / :class:`~repro.obs.tracing.Span`
  — request-scoped tracing with trace/parent ids and monotonic timings,
  propagated across the worker pipe (a trace header element on
  worker commands, worker-side child spans for decode/apply/fsync) and
  across the wire (a ``"trace"`` field in the net protocol's request
  headers, echoed in replies).  Opt-in (``EngineConfig.telemetry`` /
  ``REPRO_TRACE=1``); when disabled every call site takes a shared
  no-op fast path.
* :func:`~repro.obs.exposition.to_prometheus` — a dependency-free
  Prometheus-style text rendering of any telemetry snapshot, served by
  ``repro stats`` and the server's ``stats`` verb.
"""

from repro.obs.metrics import DEFAULT_BUCKET_EDGES_MS, MetricsRegistry
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    child_span,
    current_span,
    render_trace,
    run_under,
)
from repro.obs.exposition import to_prometheus

__all__ = [
    "DEFAULT_BUCKET_EDGES_MS",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "child_span",
    "current_span",
    "render_trace",
    "run_under",
    "to_prometheus",
]

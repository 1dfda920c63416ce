"""One telemetry plane for the whole stack.

Every engine keeps its counters in one place, its metrics registry, and
``engine.telemetry()`` reads it as one flat snapshot together with
``engine_io.*`` (the structures' ``io_stats()``, which live with the
structures — in worker processes on the process backend).  Three small
pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters and
  fixed-boundary latency histograms with deterministic bucket edges, so
  a snapshot of the counting half is bit-stable and gateable exactly
  like the I/O counts.  The process engine's ``plane.*``, ``erasure.*``
  and ``replica_reads.*`` counters live here too.  One engine call runs
  at a time, so the registry keeps one counter dict and takes no lock;
  ``snapshot()`` reads it as one flat mapping.
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

"""The unified metrics registry: counters and latency histograms.

Counters and histogram bucket counts are *deterministic* — pure
functions of the operation stream — which is what lets the baseline
gate ``telemetry.*`` metrics at ``--tolerance 0`` next to the I/O
counts.  Only histogram ``sum_ms`` values carry wall clock, and those
are never gated.

A registry belongs to one engine, and every write happens inside one of
its calls.  Engines are not thread-safe, so one thread runs a call at a
time (the server holds the namespace lock around each), and the registry
keeps one counter dict and one histogram dict: a write is two dict
operations and takes no lock.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Tuple, Union

Number = Union[int, float]

#: Fixed histogram boundaries, in milliseconds.  Shared by every
#: histogram in the process so snapshots from different layers merge
#: bucket-by-bucket, and committed so they never drift between runs.
DEFAULT_BUCKET_EDGES_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class _Histogram:
    """A fixed-boundary latency histogram.

    ``edges`` ascend; bucket ``i`` counts values ``<= edges[i]`` that
    exceed every earlier edge, and the last bucket counts the rest.
    """

    __slots__ = ("edges", "buckets", "count", "total_ms")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self.edges = edges
        self.buckets = [0] * (len(edges) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.total_ms = 0.0

    def observe(self, value_ms: float) -> None:
        # The first bucket whose edge is >= the value; NaN compares false
        # against every edge, so it lands in the +Inf bucket, not bucket 0.
        if value_ms == value_ms:
            index = bisect_left(self.edges, value_ms)
        else:
            index = len(self.edges)
        self.buckets[index] += 1
        self.count += 1
        self.total_ms += value_ms


class MetricsRegistry:
    """One engine's metrics: counters and histograms, one flat snapshot.

    The snapshot is one flat ``{name: number}`` mapping.  Histogram
    ``name`` expands to ``name.le_<edge>`` per bucket plus
    ``name.count`` and ``name.sum_ms`` — the bucket counts and
    ``count`` are deterministic, ``sum_ms`` is wall clock.
    """

    def __init__(self,
                 edges: Tuple[float, ...] = DEFAULT_BUCKET_EDGES_MS) -> None:
        self._edges = tuple(edges)
        self._counters: Dict[str, Number] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self.merges = 0  # snapshot folds — deterministic, gateable

    def inc(self, name: str, amount: Number = 1) -> None:
        """Bump a counter (creates it at zero on first touch)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def observe_ms(self, name: str, value_ms: float) -> None:
        """Record one latency observation into ``name``'s histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram(self._edges)
        histogram.observe(value_ms)

    def snapshot(self) -> Dict[str, Number]:
        """Every counter, and every histogram expanded, in one mapping."""
        out: Dict[str, Number] = dict(self._counters)
        for name, histogram in list(self._histograms.items()):
            for edge, count in zip(self._edges, histogram.buckets):
                out["%s.le_%g" % (name, edge)] = count
            out["%s.le_inf" % name] = histogram.buckets[-1]
            out["%s.count" % name] = histogram.count
            out["%s.sum_ms" % name] = round(histogram.total_ms, 3)
        return out

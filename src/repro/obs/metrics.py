"""The unified metrics registry: counters, gauges, latency histograms.

Counters and histogram bucket counts are *deterministic* — pure
functions of the operation stream — which is what lets the baseline
gate ``telemetry.*`` metrics at ``--tolerance 0`` next to the I/O
counts.  Only histogram ``sum_ms`` values (and gauges that record
sizes) carry wall clock, and those are never gated.

Accumulation is per-thread and lock-free: each thread owns a private
cell keyed by its ident, so the hot path is two dict operations with no
lock (atomic under the GIL).  ``snapshot()`` sums across cells;
``merge()`` folds a foreign snapshot (for example a worker process's
registry, shipped back over the pipe) into a dedicated cell so repeated
merges accumulate instead of overwriting.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Optional, Tuple, Union

Number = Union[int, float]

#: Fixed histogram boundaries, in milliseconds.  Shared by every
#: histogram in the process so snapshots from different layers merge
#: bucket-by-bucket, and committed so they never drift between runs.
DEFAULT_BUCKET_EDGES_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: The synthetic cell key ``merge()`` accumulates into — not a real
#: thread ident, so it can never collide with one.
_MERGE_CELL = "merged"


class _Histogram:
    """One thread's view of a fixed-boundary latency histogram.

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


class _Cell:
    """One thread's private accumulation state."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.histograms: Dict[str, _Histogram] = {}


class MetricsRegistry:
    """Process-local metrics: lock-free writes, aggregating snapshots.

    The snapshot is one flat ``{name: number}`` mapping.  Histogram
    ``name`` expands to ``name.le_<edge>`` per bucket plus
    ``name.count`` and ``name.sum_ms`` — the bucket counts and
    ``count`` are deterministic, ``sum_ms`` is wall clock.
    """

    def __init__(self,
                 edges: Tuple[float, ...] = DEFAULT_BUCKET_EDGES_MS) -> None:
        self._edges = tuple(edges)
        self._cells: Dict[object, _Cell] = {}
        self._gauges: Dict[str, Number] = {}
        self._lock = threading.Lock()  # guards cell *creation* only
        self.merges = 0  # merge()/fold count — deterministic, gateable

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #

    def _cell(self) -> _Cell:
        ident = threading.get_ident()
        cell = self._cells.get(ident)
        if cell is None:
            with self._lock:
                cell = self._cells.setdefault(ident, _Cell())
        return cell

    def inc(self, name: str, amount: Number = 1) -> None:
        """Bump a counter (creates it at zero on first touch)."""
        counters = self._cell().counters
        counters[name] = counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: Number) -> None:
        """Set a gauge: last write wins, no per-thread split."""
        self._gauges[name] = value

    def observe_ms(self, name: str, value_ms: float) -> None:
        """Record one latency observation into ``name``'s histogram."""
        histograms = self._cell().histograms
        histogram = histograms.get(name)
        if histogram is None:
            histogram = histograms[name] = _Histogram(self._edges)
        histogram.observe(value_ms)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Number]:
        """Aggregate every thread's cell into one flat mapping."""
        out: Dict[str, Number] = {}
        hists: Dict[str, Tuple[list, int, float]] = {}
        with self._lock:
            cells = list(self._cells.values())
        for cell in cells:
            for name, value in cell.counters.items():
                out[name] = out.get(name, 0) + value
            for name, histogram in cell.histograms.items():
                merged = hists.get(name)
                if merged is None:
                    hists[name] = ([*histogram.buckets], histogram.count,
                                   histogram.total_ms)
                else:
                    buckets, count, total = merged
                    for index, bump in enumerate(histogram.buckets):
                        buckets[index] += bump
                    hists[name] = (buckets, count + histogram.count,
                                   total + histogram.total_ms)
        for name, (buckets, count, total_ms) in hists.items():
            for index, edge in enumerate(self._edges):
                out["%s.le_%g" % (name, edge)] = buckets[index]
            out["%s.le_inf" % name] = buckets[-1]
            out["%s.count" % name] = count
            out["%s.sum_ms" % name] = round(total_ms, 3)
        out.update(self._gauges)
        return out

    def merge(self, snapshot: Dict[str, Number],
              prefix: Optional[str] = None) -> None:
        """Fold a foreign snapshot in, additively, under ``prefix``.

        Used to pull a worker-side registry back into the parent's;
        repeated merges accumulate in a dedicated cell.  ``sum_ms``
        entries add like counters, which is the right semantics for
        histogram tails.
        """
        with self._lock:
            cell = self._cells.setdefault(_MERGE_CELL, _Cell())
        counters = cell.counters
        for name, value in snapshot.items():
            key = "%s.%s" % (prefix, name) if prefix else name
            counters[key] = counters.get(key, 0) + value
        self.merges += 1

    def reset(self) -> None:
        """Drop every cell and gauge (tests and bench reruns)."""
        with self._lock:
            self._cells.clear()
            self._gauges.clear()
            self.merges = 0


"""The :class:`DictionaryEngine` facade: bulk operations, one stats path,
and uniform snapshots.

The engine wraps any :class:`~repro.api.protocol.HIDictionary` (usually built
by name through :meth:`DictionaryEngine.create`) and adds the orchestration
the consumer layers kept re-implementing:

* **Bulk operations** — :meth:`insert_many`, :meth:`delete_many`,
  :meth:`build_from_trace` (replaying a workload trace).
* **One stats path** — :meth:`io_stats` merges the structure's native
  counters with its tracker (when it has one); :meth:`search_io_cost` and
  :meth:`range_io_cost` measure single operations uniformly, clearing the
  simulated cache first so costs are cold-cache comparable across
  accounting styles.
* **Uniform snapshots** — :meth:`snapshot` persists any registered
  structure's :meth:`~repro.api.protocol.HIDictionary.snapshot_slots` to a
  paged file, not just the slot-array structures ``storage/snapshot.py``
  special-cases.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro._rng import RandomLike
from repro.api.protocol import HIDictionary, Pair, insert_pairs
from repro.api.registry import make_dictionary
from repro.memory.stats import IOStats
from repro.obs import MetricsRegistry, Tracer

if TYPE_CHECKING:
    from repro.workloads.generators import Operation

#: The ``io_stats()`` fields folded into telemetry snapshots (as
#: ``engine_io.*``) — the deterministic counting core of
#: :class:`~repro.memory.stats.IOStats`.
_IO_FIELDS = ("reads", "writes", "cache_hits", "element_moves",
              "operations", "total_ios")


class DictionaryEngine:
    """A thin orchestration layer over one dictionary structure."""

    def __init__(self, structure: HIDictionary, *,
                 name: Optional[str] = None) -> None:
        self._structure = structure
        self._name = name or getattr(structure, "registry_name",
                                     type(structure).__name__)
        self._tracker = getattr(structure, "io_tracker", None)
        #: The unified telemetry plane: cheap counters/histograms are
        #: always on; ``tracer`` stays the shared no-op unless telemetry
        #: is enabled (``EngineConfig.telemetry`` / ``REPRO_TRACE=1``).
        self.metrics = MetricsRegistry()
        self.tracer: Tracer = Tracer.from_env()

    @classmethod
    def create(cls, name: str, *,
               block_size: int = 64,
               cache_blocks: int = 0,
               seed: RandomLike = None,
               **extra: object) -> "DictionaryEngine":
        """Build a registered structure by name and wrap it in an engine.

        ``extra`` keyword arguments are structure-specific parameters
        forwarded to :func:`~repro.api.registry.make_dictionary` (e.g.
        ``epsilon`` for ``hi-skiplist``).
        """
        structure = make_dictionary(name, block_size=block_size,
                                    cache_blocks=cache_blocks, seed=seed,
                                    **extra)
        if cls is DictionaryEngine:
            # Sharded structures get their specialised engine (batched bulk
            # ops, shard-aware probes) even when built by registry name.
            from repro.api.sharded import (
                ShardedDictionary,
                ShardedDictionaryEngine,
            )
            if isinstance(structure, ShardedDictionary):
                return ShardedDictionaryEngine(structure)
        return cls(structure)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def structure(self) -> HIDictionary:
        """The wrapped dictionary."""
        return self._structure

    @property
    def name(self) -> str:
        """The registry name (or class name) of the wrapped structure."""
        return self._name

    @property
    def tracker(self):
        """The attached :class:`IOTracker`, or ``None``."""
        return self._tracker

    def io_stats(self) -> IOStats:
        """The merged I/O counters of the structure and its tracker."""
        return self._structure.io_stats()

    def __len__(self) -> int:
        return len(self._structure)

    def __iter__(self) -> Iterator[object]:
        return iter(self._structure)

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def items(self) -> List[Pair]:
        return self._structure.items()

    def check(self) -> None:
        self._structure.check()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release engine-held resources.  Idempotent; a no-op here.

        The in-process engines hold nothing that needs releasing, but the
        process engine owns a worker pool and, when durable, op logs — so
        ``close()`` (and ``with engine: ...``) is part of the uniform
        engine surface, letting consumers shut any engine down without
        probing for the method first.
        """

    def __enter__(self) -> "DictionaryEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dictionary operations
    # ------------------------------------------------------------------ #

    def insert(self, key: object, value: object = None) -> None:
        self._structure.insert(key, value)

    def upsert(self, key: object, value: object = None) -> bool:
        return self._structure.upsert(key, value)

    def delete(self, key: object) -> object:
        return self._structure.delete(key)

    def search(self, key: object) -> object:
        return self._structure.search(key)

    def contains(self, key: object) -> bool:
        return self._structure.contains(key)

    def range_query(self, low: object, high: object) -> List[Pair]:
        """Range query normalised to a plain pair list."""
        return self._structure.range_items(low, high)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    @contextmanager
    def _bulk_op(self, kind: str) -> Iterator[None]:
        """Instrument one bulk call: a counter, a latency histogram, and
        (when tracing is on) a span.  Per *call*, not per key, so the
        disabled fast path costs two clock reads and a dict bump."""
        metrics = self.metrics
        metrics.inc("engine.calls." + kind)
        started = perf_counter()
        try:
            with self.tracer.span("engine." + kind,
                                  tags={"engine": self._name}):
                yield
        finally:
            metrics.observe_ms("engine.latency." + kind,
                               (perf_counter() - started) * 1000.0)

    def telemetry(self) -> Dict[str, object]:
        """One namespaced snapshot of this engine's telemetry.

        The registry (counters and histograms — the process engine's
        ``plane.*``, ``erasure.*`` and ``replica_reads.*`` counters among
        them) plus ``engine_io.*`` from :meth:`io_stats`, whose fold counts
        as a registry merge (``telemetry.snapshot_merges``), and the
        tracer's deterministic ``telemetry.*`` counters.
        """
        snap: Dict[str, object] = self.metrics.snapshot()
        stats = self.io_stats()
        for field in _IO_FIELDS:
            snap["engine_io." + field] = getattr(stats, field)
        self.metrics.merges += 1
        for name, value in self.tracer.snapshot().items():
            snap["telemetry." + name] = value
        snap["telemetry.snapshot_merges"] = self.metrics.merges
        return snap

    # ------------------------------------------------------------------ #
    # Bulk operations
    # ------------------------------------------------------------------ #

    def insert_many(self, entries: Iterable[object]) -> int:
        """Insert keys or (key, value) pairs in input order with one
        structure-level ``insert_many``; return the number inserted."""
        self._structure_method("insert")  # names a protocol gap up front
        with self._bulk_op("insert_many"):
            count = insert_pairs(self._structure, map(self._as_pair, entries))
        self.metrics.inc("engine.keys.insert_many", count)
        return count

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        """Delete every key in order; return their values."""
        delete = self._structure_method("delete")
        with self._bulk_op("delete_many"):
            values = [delete(key) for key in keys]
        self.metrics.inc("engine.keys.delete_many", len(values))
        return values

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        """Membership for every key, in input order.

        The sharded engines override this with shard-grouped (and
        parallel) dispatch; here it completes the uniform bulk surface so
        workloads can be written once against any engine.
        """
        contains = self._structure_method("contains")
        with self._bulk_op("contains_many"):
            flags = [contains(key) for key in keys]
        self.metrics.inc("engine.keys.contains_many", len(flags))
        return flags

    def build_from_trace(self, trace: Sequence[Operation],
                         value_of=None) -> "DictionaryEngine":
        """Replay a workload trace (inserts, deletes, searches); return self."""
        from repro.workloads.generators import OperationKind

        insert = self._structure_method("insert")
        delete = self._structure_method("delete")
        contains = self._structure_method("contains")
        value_of = value_of or (lambda key: key)
        for operation in trace:
            if operation.kind is OperationKind.INSERT:
                insert(operation.key, value_of(operation.key))
            elif operation.kind is OperationKind.DELETE:
                delete(operation.key)
            else:
                contains(operation.key)
        return self

    # ------------------------------------------------------------------ #
    # Uniform I/O measurement
    # ------------------------------------------------------------------ #

    def _structure_method(self, name: str):
        """The structure's ``name`` method, or a uniform configuration error.

        Engines can be handed duck-typed structures directly (not built
        through the registry); when such a structure is missing part of the
        dictionary protocol the failure should be a
        :class:`~repro.errors.ConfigurationError` naming the gap, not a bare
        ``AttributeError`` from deep inside a bulk loop or cost probe.
        """
        method = getattr(self._structure, name, None)
        if not callable(method):
            from repro.errors import ConfigurationError
            raise ConfigurationError(
                "engine structure %s does not implement %s(); build "
                "structures through the registry (make_dictionary) to get "
                "the full HIDictionary surface"
                % (type(self._structure).__name__, name))
        return method

    def _clear_cache(self) -> None:
        # Composite structures (the sharded router) clear all their caches
        # through one hook; plain structures go through their tracker.
        hook = getattr(self._structure, "clear_caches", None)
        if callable(hook):
            hook()
            return
        if self._tracker is not None and self._tracker.cache is not None:
            self._tracker.cache.clear()

    def _stats_objects(self) -> List[IOStats]:
        hook = getattr(self._structure, "stats_objects", None)
        if callable(hook):
            return list(hook())
        objects = []
        own = getattr(self._structure, "stats", None)
        if own is not None:
            objects.append(own)
        if self._tracker is not None:
            objects.append(self._tracker.stats)
        return objects

    @contextmanager
    def _measurement(self) -> Iterator[None]:
        """A cold-cache probe whose I/Os are rolled back afterwards.

        Used by the ``*_io_cost`` helpers so they are pure measurements:
        whatever the probe charges — natively (B-tree, B-treap), through the
        tracker (PMA family), or not at all (the skip lists' cost functions)
        — the cumulative ``io_stats()`` totals are restored, keeping them
        comparable across structures and unpolluted by measurement itself.
        """
        self._clear_cache()
        snapshots = [(stats, stats.snapshot(), list(stats.per_operation))
                     for stats in self._stats_objects()]
        try:
            yield
        finally:
            for stats, snapshot, per_operation in snapshots:
                stats.restore(snapshot)
                stats.per_operation = per_operation

    def search_io_cost(self, key: object) -> int:
        """Cold-cache I/O cost of one search, whatever the accounting style.

        A pure measurement: the probe's I/Os are rolled back from the
        cumulative counters afterwards (see :meth:`_measurement`).
        """
        with self._measurement():
            native = getattr(self._structure, "search_io_cost", None)
            if callable(native):
                return int(native(key))
            before = self.io_stats()
            self._structure.contains(key)
            return self.io_stats().delta(before).total_ios

    def range_io_cost(self, low: object, high: object) -> Tuple[List[Pair], int]:
        """Range result plus its cold-cache I/O cost.

        Like :meth:`search_io_cost`, a pure measurement: the probe's I/Os
        are rolled back from the cumulative counters afterwards.
        """
        range_query = self._structure_method("range_query")
        with self._measurement():
            before = self.io_stats()
            pairs, explicit = HIDictionary.split_range_result(
                range_query(low, high))
            measured = self.io_stats().delta(before).total_ios
            return pairs, (explicit if explicit is not None else measured)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self, path: Optional[str] = None, *,
                 page_size: int = 4096,
                 payload_size: int = 64,
                 shuffle_pages: bool = False,
                 seed: RandomLike = None):
        """Write the structure's slot-level representation to a paged file.

        Works for every registered structure: those with a physical slot
        array persist it gaps and all; the rest persist their canonical
        (key, value) sequence.  Returns ``(paged_file, metadata)`` exactly
        like :func:`repro.storage.snapshot.snapshot_records`.
        """
        from repro.storage.snapshot import snapshot_records
        slots = list(self._structure.snapshot_slots())
        return snapshot_records(slots, page_size=page_size,
                                payload_size=payload_size, path=path,
                                shuffle_pages=shuffle_pages, seed=seed,
                                kind=self._name)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _as_pair(entry: object) -> Pair:
        if isinstance(entry, tuple) and len(entry) == 2:
            return entry
        return entry, None

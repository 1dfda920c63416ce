"""The formal dictionary abstraction every structure in the library speaks.

Historically each consumer layer (CLI, audits, benchmarks, examples) imported
concrete classes and dealt with their construction and accounting quirks
directly.  :class:`HIDictionary` names the surface they all share:

* **Dictionary operations** — ``insert``, ``upsert``, ``delete``, ``search``,
  ``contains``, ``items``, ``range_query``, and ``insert_many`` for a batch.
* **Container protocol** — ``__len__``, ``__iter__`` (keys in increasing
  order), ``__contains__``.
* **Verification** — ``check()`` raises
  :class:`~repro.errors.InvariantViolation` when a structural invariant does
  not hold.
* **Accounting** — :meth:`io_stats` returns one merged
  :class:`~repro.memory.stats.IOStats` view no matter whether the structure
  counts I/Os itself (skip lists, B-tree) or through a shared
  :class:`~repro.memory.tracker.IOTracker` (the PMA family).
* **Serialisation** — :meth:`snapshot_slots` yields the slot-level sequence
  a disk snapshot should persist (gaps included when the structure has a
  physical slot array).
* **Auditing** — :meth:`audit_fingerprint` is the observable the
  weak-history-independence audit compares across equivalent histories.

The concrete dictionaries subclass this ABC directly; the rank-addressed
sparse tables (the PMAs) participate through
:class:`repro.api.adapters.RankKeyedDictionary`.  Construction by name goes
through :mod:`repro.api.registry`, and bulk operations / uniform snapshots
through :class:`repro.api.engine.DictionaryEngine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.memory.stats import IOStats

#: A (key, value) pair as returned by ``items`` and ``range_query``.
Pair = Tuple[object, object]


class HIDictionary(ABC):
    """Abstract base class for every key-addressed dictionary in the library."""

    # ------------------------------------------------------------------ #
    # Abstract dictionary surface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def insert(self, key: object, value: object = None):
        """Insert a new key; raise :class:`~repro.errors.DuplicateKey` if present."""

    @abstractmethod
    def delete(self, key: object) -> object:
        """Remove ``key`` and return its value; raise
        :class:`~repro.errors.KeyNotFound` otherwise."""

    @abstractmethod
    def search(self, key: object) -> object:
        """Value stored under ``key``; raise
        :class:`~repro.errors.KeyNotFound` otherwise."""

    @abstractmethod
    def contains(self, key: object) -> bool:
        """Whether ``key`` is stored (charges the search I/Os)."""

    @abstractmethod
    def items(self) -> List[Pair]:
        """All (key, value) pairs in key order."""

    @abstractmethod
    def range_query(self, low: object, high: object):
        """All pairs with ``low <= key <= high``.

        Implementations either return the pair list directly or a
        ``(pairs, io_cost)`` tuple when they account I/Os inline (the
        external skip lists do).  Callers that need one shape use
        :meth:`range_items` or :meth:`split_range_result`.
        """

    @abstractmethod
    def check(self) -> None:
        """Verify structural invariants; raise
        :class:`~repro.errors.InvariantViolation` on failure."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored keys."""

    @abstractmethod
    def __iter__(self) -> Iterator[object]:
        """Iterate over the keys in increasing order."""

    # ------------------------------------------------------------------ #
    # Default implementations
    # ------------------------------------------------------------------ #

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def upsert(self, key: object, value: object = None) -> bool:
        """Insert or overwrite ``key``; return ``True`` if it already existed.

        The default deletes and re-inserts, which preserves the layout
        distribution of every history-independent structure; subclasses
        override it when they can update in place more cheaply.
        """
        existed = self.contains(key)
        if existed:
            self.delete(key)
        self.insert(key, value)
        return existed

    def insert_many(self, pairs: Iterable[Pair]) -> int:
        """Insert ``(key, value)`` pairs in input order; return how many.

        The batch stops at the first failure (a
        :class:`~repro.errors.DuplicateKey`, say), which propagates with
        the pairs before it applied and none after: exactly the first
        ``len(after) - len(before)`` pairs are in.  The default inserts
        one key at a time; a structure overrides it only where it can link
        a batch with the same result and the same charges (the treaps and
        the HI skip list link an ascending run in one pass).
        """
        insert = self.insert
        count = 0
        for key, value in pairs:
            insert(key, value)
            count += 1
        return count

    def io_stats(self) -> IOStats:
        """One merged view of every I/O counter this structure feeds.

        Combines the structure's own ``stats`` with the stats of an attached
        :class:`~repro.memory.tracker.IOTracker` (the ``io_tracker``
        attribute, set by the registry for tracker-backed structures), so
        consumers never have to know which accounting path a structure uses.
        """
        own = getattr(self, "stats", None)
        merged = own.snapshot() if own is not None else IOStats()
        tracker = getattr(self, "io_tracker", None)
        if tracker is not None:
            merged.merge_transfers(tracker.stats)
        return merged

    def snapshot_slots(self) -> Sequence[object]:
        """The slot-level sequence a disk snapshot of this structure persists.

        Structures with a physical slot array (the PMA family, the external
        skip list's leaf nodes) override this to include their gaps, which is
        what makes the snapshot layout itself history independent.  The
        default is the densely packed (key, value) pairs in key order.
        """
        return self.items()

    def audit_fingerprint(self) -> object:
        """The observable compared by the weak-history-independence audit.

        Defaults to a fingerprint of ``memory_representation()`` when the
        structure exposes one, and to the item sequence otherwise.
        """
        representation = getattr(self, "memory_representation", None)
        if representation is not None:
            from repro.history.representation import representation_fingerprint
            return representation_fingerprint(representation())
        return tuple(self.items())

    def range_items(self, low: object, high: object) -> List[Pair]:
        """``range_query`` normalised to a plain pair list."""
        pairs, _ios = self.split_range_result(self.range_query(low, high))
        return pairs

    @staticmethod
    def split_range_result(result: object) -> Tuple[List[Pair], Optional[int]]:
        """Split a ``range_query`` result into ``(pairs, explicit_io_cost)``.

        ``explicit_io_cost`` is ``None`` for structures that charge their
        range I/Os to ``stats`` only and return just the pair list.
        """
        if (isinstance(result, tuple) and len(result) == 2
                and isinstance(result[1], int)
                and not isinstance(result[1], bool)):
            return list(result[0]), result[1]
        return list(result), None


def insert_pairs(structure: object, pairs: Iterable[Pair]) -> int:
    """``structure.insert_many(pairs)``; a duck-typed structure without
    one takes the per-key loop of :meth:`HIDictionary.insert_many`."""
    insert_many = getattr(structure, "insert_many", None)
    if insert_many is None:
        return HIDictionary.insert_many(structure, pairs)
    return insert_many(pairs)


def audit_fingerprint_of(structure: object) -> object:
    """Audit fingerprint for *any* structure, dictionary or rank-addressed.

    Dispatches to the structure's own :meth:`HIDictionary.audit_fingerprint`
    when it has one and falls back to fingerprinting
    ``memory_representation()`` (the raw PMAs take this path).
    """
    method = getattr(structure, "audit_fingerprint", None)
    if callable(method):
        return method()
    from repro.history.representation import representation_fingerprint
    return representation_fingerprint(structure.memory_representation())


def shard_digest(shard: object) -> str:
    """SHA-256 hex digest of a shard's layout observable: its
    ``audit_fingerprint()`` and its ``snapshot_slots()``.

    For an HI structure it is a pure function of the key set and seed, so
    copies that applied the same operations hash alike.  Anti-entropy
    compares it across a shard's copies, ``repro recover`` prints it, and
    the server's ``digest`` verb serves it.
    """
    import hashlib  # here, so that importing this module loads no hashlib

    observable = (shard.audit_fingerprint(), tuple(shard.snapshot_slots()))
    return hashlib.sha256(repr(observable).encode("utf-8")).hexdigest()

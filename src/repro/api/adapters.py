"""Adapters presenting rank-addressed sparse tables as key-addressed dictionaries.

The packed-memory arrays (:class:`~repro.core.hi_pma.HistoryIndependentPMA`,
:class:`~repro.pma.classic.ClassicPMA`, :class:`~repro.pma.adaptive.AdaptivePMA`)
speak ranks, not keys.  :class:`RankKeyedDictionary` wraps one of them behind
the :class:`~repro.api.protocol.HIDictionary` protocol by keeping a shadow
sorted key list for rank translation — the same bookkeeping the CLI and the
audit replays used to repeat inline — and a side table for the values (the
PMA slots store the bare keys, so the physical layout is exactly what the
direct rank-addressed drivers produce; a snapshot puts each key's value
back into its slot).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Sequence, Tuple

from repro.api.protocol import HIDictionary, Pair
from repro.errors import DuplicateKey, InvariantViolation, KeyNotFound
from repro.memory.stats import IOStats


class RankKeyedDictionary(HIDictionary):
    """Key-addressed facade over a rank-addressed structure.

    Parameters
    ----------
    structure:
        Any rank-addressed sequence exposing ``insert(rank, item)``,
        ``delete(rank)``, ``get(rank)``, ``query(first, last)``, ``check()``
        and ``__len__``.  The PMAs all qualify.
    """

    def __init__(self, structure: object) -> None:
        self._structure = structure
        #: The wrapped structure's tracker (if any), surfaced so the unified
        #: ``io_stats()`` path sees it through the adapter too.
        self.io_tracker = getattr(structure, "io_tracker", None)
        self._shadow: List[object] = []
        self._values = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def raw(self) -> object:
        """The wrapped rank-addressed structure."""
        return self._structure

    @property
    def stats(self) -> IOStats:
        """The wrapped structure's counters (one stats path for consumers)."""
        return self._structure.stats

    def __len__(self) -> int:
        return len(self._shadow)

    def __iter__(self) -> Iterator[object]:
        return iter(list(self._shadow))

    def items(self) -> List[Pair]:
        return [(key, self._values[key]) for key in self._shadow]

    def memory_representation(self) -> Tuple[object, ...]:
        """Delegate to the wrapped structure (the physical layout is its)."""
        return self._structure.memory_representation()

    def snapshot_slots(self) -> Sequence[object]:
        """The wrapped structure's slot array, gaps included, each key's
        slot holding its ``(key, value)`` record (slot order and gaps are
        the layout's, so the image stays a dump of it)."""
        slots = getattr(self._structure, "slots", None)
        if callable(slots):
            values = self._values
            return [None if key is None else (key, values[key])
                    for key in slots()]
        return self.items()

    # ------------------------------------------------------------------ #
    # Dictionary operations
    # ------------------------------------------------------------------ #

    def contains(self, key: object) -> bool:
        rank = bisect.bisect_left(self._shadow, key)
        found = rank < len(self._shadow) and self._shadow[rank] == key
        if self._shadow:
            # Charge the probe to the slot array — a miss still reads the
            # block where the key would live.
            self._structure.get(min(rank, len(self._shadow) - 1))
        return found

    def search(self, key: object) -> object:
        if not self.contains(key):
            raise KeyNotFound(key)
        return self._values[key]

    def insert(self, key: object, value: object = None) -> None:
        rank = bisect.bisect_left(self._shadow, key)
        if rank < len(self._shadow) and self._shadow[rank] == key:
            raise DuplicateKey(key)
        self._structure.insert(rank, key)
        self._shadow.insert(rank, key)
        self._values[key] = value

    def upsert(self, key: object, value: object = None) -> bool:
        rank = bisect.bisect_left(self._shadow, key)
        if rank < len(self._shadow) and self._shadow[rank] == key:
            # Charge the locate probe (as contains does), then overwrite in
            # place: slot positions depend only on occupancy, so rewriting
            # the slot leaves the layout distribution untouched.
            self._structure.get(rank)
            ranked_upsert = getattr(self._structure, "upsert", None)
            if callable(ranked_upsert):
                ranked_upsert(rank, key)
            else:
                self._structure.delete(rank)
                self._structure.insert(rank, key)
            self._values[key] = value
            return True
        self.insert(key, value)
        return False

    def delete(self, key: object) -> object:
        rank = bisect.bisect_left(self._shadow, key)
        if rank >= len(self._shadow) or self._shadow[rank] != key:
            raise KeyNotFound(key)
        self._structure.delete(rank)
        self._shadow.pop(rank)
        return self._values.pop(key)

    def range_query(self, low: object, high: object) -> List[Pair]:
        if high < low or not self._shadow:
            return []
        first = bisect.bisect_left(self._shadow, low)
        last = bisect.bisect_right(self._shadow, high) - 1
        if last < first:
            return []
        keys = self._structure.query(first, last)
        return [(key, self._values[key]) for key in keys]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        self._structure.check()
        stored = getattr(self._structure, "to_list", None)
        if callable(stored) and list(stored()) != self._shadow:
            raise InvariantViolation(
                "rank-addressed contents diverged from the shadow key list")
        if set(self._values) != set(self._shadow):
            raise InvariantViolation("value table diverged from the key list")

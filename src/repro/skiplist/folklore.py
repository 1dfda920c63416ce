"""The folklore B-skip list (promotion probability 1/B).

The folklore way to move a skip list to external memory is to promote each
element with probability ``1/B`` instead of ``1/2``, so that consecutive
unpromoted elements form arrays of expected length ``B`` that fit in a block.
Searches then cost ``O(log_B N)`` I/Os *in expectation*.

Lemma 15 of the paper shows the catch: with high probability there are
``Ω(√(N·B))`` elements whose search costs ``Ω(log(N/B))`` I/Os, because some
arrays grow to length ``Θ(B log N)``.  The high-probability bounds are
therefore no better than running an in-memory skip list on disk.  This class
exists to exhibit that tail empirically (``benchmarks/bench_bskiplist_tail.py``).

The structure is key-addressed and supports search, insert, delete and range
queries; leaf arrays are packed densely into blocks (the folklore variant
keeps no gaps), so a scan of an array of ``n`` keys costs ``⌈n/B⌉`` I/Os.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Tuple

from repro._rng import RandomLike, geometric_level, make_rng
from repro.api.protocol import HIDictionary
from repro.errors import ConfigurationError, DuplicateKey, InvariantViolation, KeyNotFound
from repro.memory.stats import IOStats
from repro.skiplist.levels import FRONT, SkipListLevels


class FolkloreBSkipList(HIDictionary):
    """External-memory skip list with promotion probability ``1/B``."""

    def __init__(self, block_size: int = 64, seed: RandomLike = None,
                 max_level: int = 16) -> None:
        if block_size < 2:
            raise ConfigurationError("block_size must be at least 2, got %r"
                                     % (block_size,))
        self.block_size = block_size
        self.promote_probability = 1.0 / block_size
        self.max_level = max_level
        self._rng = make_rng(seed)
        self._keys: List[object] = []
        self._values = {}
        self._levels = SkipListLevels()
        self.stats = IOStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def __iter__(self) -> Iterator[object]:
        return iter(list(self._keys))

    @property
    def height(self) -> int:
        """Highest non-empty promotion level."""
        return self._levels.height

    def level_of(self, key: object) -> int:
        """Promotion level of ``key`` (0 if never promoted)."""
        return self._levels.level_of(key)

    def items(self) -> List[Tuple[object, object]]:
        """All (key, value) pairs in key order (not I/O-charged)."""
        return [(key, self._values[key]) for key in self._keys]

    def leaf_array_sizes(self) -> List[int]:
        """Sizes of the leaf arrays (runs delimited by promoted elements)."""
        boundaries = self._levels.members(1)
        sizes: List[int] = []
        previous = 0
        for boundary in boundaries:
            position = bisect.bisect_left(self._keys, boundary)
            if position > previous:
                sizes.append(position - previous)
            previous = position
        if len(self._keys) > previous:
            sizes.append(len(self._keys) - previous)
        return sizes

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def contains(self, key: object) -> bool:
        """Whether ``key`` is stored (charges search I/Os)."""
        self.search_io_cost(key, charge=True)
        position = bisect.bisect_left(self._keys, key)
        return position < len(self._keys) and self._keys[position] == key

    def search(self, key: object) -> object:
        """Value stored under ``key``; raises :class:`KeyNotFound` otherwise."""
        if not self.contains(key):
            raise KeyNotFound(key)
        return self._values[key]

    def search_io_cost(self, key: object, charge: bool = False) -> int:
        """I/Os of a search for ``key``.

        One descent through ``S_h .. S_1`` (see
        :meth:`~repro.skiplist.levels.SkipListLevels.locate`) charges
        ``(scanned + B - 1) // B`` blocks per level, ``scanned`` counting
        the element that stops the scan; then the key's dense leaf array of
        ``n`` keys costs ``⌈max(1, n) / B⌉`` blocks.
        """
        upper_ios, leaf_ios = self._search(key)
        if charge:
            self.stats.reads += upper_ios + leaf_ios
        return upper_ios + leaf_ios

    def range_query(self, low: object, high: object) -> Tuple[List[Tuple[object, object]], int]:
        """All pairs with ``low <= key <= high`` plus the I/O cost of the scan."""
        if high < low:
            return [], 0
        ios = self.search_io_cost(low, charge=True)
        first = bisect.bisect_left(self._keys, low)
        last = bisect.bisect_right(self._keys, high)
        selected = self._keys[first:last]
        # Every leaf array touched by the scan starts a new block.
        scan_ios = self._blocks(len(selected)) + self._levels.count_in(1, low, high)
        self.stats.reads += scan_ios
        return [(key, self._values[key]) for key in selected], ios + scan_ios

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def insert(self, key: object, value: object = None) -> int:
        """Insert a new key; returns the I/O cost charged for the operation."""
        position = bisect.bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            raise DuplicateKey(key)
        ios = self.search_io_cost(key, charge=True)
        level = geometric_level(self._rng, self.promote_probability,
                                max_level=self.max_level)
        self._keys.insert(position, key)
        self._values[key] = value
        if level > 0:
            self._levels.add(key, level)
        anchor = self._levels.predecessor(1, key)
        write_ios = self._blocks(max(1, self._leaf_array_length(anchor))) + level
        self.stats.writes += write_ios
        self.stats.operations += 1
        return ios + write_ios

    def upsert(self, key: object, value: object = None) -> bool:
        """Insert or overwrite ``key``; returns ``True`` if it already existed.

        An overwrite costs the search plus one leaf-array rewrite; the key
        layout and promotion levels are untouched.
        """
        position = bisect.bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            upper_ios, leaf_ios = self._search(key)
            self._values[key] = value
            self.stats.reads += upper_ios + leaf_ios
            self.stats.writes += leaf_ios
            self.stats.operations += 1
            return True
        self.insert(key, value)
        return False

    def delete(self, key: object) -> object:
        """Remove ``key`` and return its value; raises :class:`KeyNotFound` otherwise."""
        position = bisect.bisect_left(self._keys, key)
        if position >= len(self._keys) or self._keys[position] != key:
            raise KeyNotFound(key)
        ios = self.search_io_cost(key, charge=True)
        del ios  # the read cost is already charged to stats
        level = self._levels.remove(key)
        self._keys.pop(position)
        value = self._values.pop(key)
        anchor = self._levels.predecessor(1, key)
        write_ios = self._blocks(max(1, self._leaf_array_length(anchor))) + level
        self.stats.writes += write_ios
        self.stats.operations += 1
        return value

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _blocks(self, slots: int) -> int:
        return max(1, (slots + self.block_size - 1) // self.block_size)

    def _search(self, key: object) -> Tuple[int, int]:
        """One descent for ``key``: the upper-level I/Os and its leaf array's I/Os."""
        ios, _node_start, start, _index = self._levels.locate(key, self.block_size)
        return ios, self._blocks(max(1, self._leaf_array_length(start)))

    def _leaf_array_length(self, start: object) -> int:
        """Number of keys in the leaf array starting at ``start`` (or FRONT)."""
        begin = 0 if start is FRONT else bisect.bisect_left(self._keys, start)
        end_key = next(self._levels.members_after(1, start), None)
        if end_key is None:
            end = len(self._keys)
        else:
            end = bisect.bisect_left(self._keys, end_key)
        return max(0, end - begin)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        """Verify ordering and level nesting; raises :class:`InvariantViolation`."""
        if self._keys != sorted(self._keys):
            raise InvariantViolation("leaf keys are not sorted")
        if len(self._keys) != len(self._values):
            raise InvariantViolation("key list and value map disagree")
        try:
            self._levels.check()
        except ValueError as error:
            raise InvariantViolation(str(error)) from error
        for level in range(1, self._levels.height + 1):
            for key in self._levels.members(level):
                if key not in self._values:
                    raise InvariantViolation("promoted key %r is not stored" % (key,))

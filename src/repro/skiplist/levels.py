"""Upper-level membership lists shared by the external skip lists.

An external skip list is a hierarchy of lists ``S_0 ⊇ S_1 ⊇ … ⊇ S_h``; at
level ``i ≥ 1`` the elements are partitioned into arrays delimited by
elements promoted to level ``i + 1`` or above.  Both external variants in
this package (the folklore B-skip list and the history-independent skip
list) need the same navigation machinery over those upper levels: given a
target key, walk down from the top level, and at each level scan rightward
from the current anchor until the target is passed.

:class:`SkipListLevels` stores each ``S_i`` as a sorted list and *computes*
the scans with binary search instead of physically walking the arrays.
:meth:`SkipListLevels.locate` makes the whole descent in one pass over
``S_h .. S_1``.  At each level the scan starts just after the anchor found
one level up, at position ``low``, and stops after the last element
``<= key``, at position ``high``.  It reads ``high - low`` elements plus
the one that proves it can stop, so it costs ``(high - low + B) // B``
block I/Os; the last element it passes is the next level's anchor.  The
level-2 anchor starts the key's leaf node and the level-1 anchor starts its
leaf array.  Every ``S_1`` element between the two starts one array of
that node, so the level-1 scan length ``high - low`` is also the index of
the key's array within its node.

The physical leaf level (where gaps, capacities, and node packing matter)
is kept by the callers themselves.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Tuple


class _FrontSentinel:
    """The unique front-of-list marker, stable across pickling.

    ``FRONT`` is compared by identity (``is``) and used as a dictionary key
    throughout the skip lists, so a plain ``object()`` would break whenever a
    structure crosses a process boundary: unpickling would mint a fresh
    object and orphan every stored reference.  ``__new__`` makes the class a
    singleton and pickle re-calls the class, so identity survives.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_FrontSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_FrontSentinel, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FRONT"


#: Sentinel marking the front of every list (smaller than every key).
FRONT = _FrontSentinel()


class SkipListLevels:
    """Sorted membership lists ``S_1 .. S_h`` with binary-search navigation."""

    def __init__(self) -> None:
        self._levels: List[List[object]] = []
        self._level_of: Dict[object, int] = {}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def __contains__(self, key: object) -> bool:
        return key in self._level_of

    def __len__(self) -> int:
        """Number of keys tracked (i.e. keys with level >= 1)."""
        return len(self._level_of)

    @property
    def height(self) -> int:
        """Highest non-empty level (0 when no key has been promoted)."""
        return len(self._levels)

    def level_of(self, key: object) -> int:
        """The key's level (0 if it was never promoted)."""
        return self._level_of.get(key, 0)

    def members(self, level: int) -> List[object]:
        """The sorted contents of ``S_level`` (level >= 1)."""
        if level < 1 or level > len(self._levels):
            return []
        return list(self._levels[level - 1])

    def add(self, key: object, level: int) -> None:
        """Record that ``key`` has the given level (adds it to ``S_1..S_level``)."""
        if level <= 0:
            return
        if key in self._level_of:
            raise ValueError("key %r is already tracked" % (key,))
        while len(self._levels) < level:
            self._levels.append([])
        for index in range(level):
            bisect.insort(self._levels[index], key)
        self._level_of[key] = level

    def remove(self, key: object) -> int:
        """Remove ``key`` from every level; return the level it had."""
        level = self._level_of.pop(key, 0)
        for index in range(level):
            members = self._levels[index]
            position = bisect.bisect_left(members, key)
            if position < len(members) and members[position] == key:
                members.pop(position)
        while self._levels and not self._levels[-1]:
            self._levels.pop()
        return level

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def predecessor(self, level: int, key: object) -> object:
        """Largest element of ``S_level`` that is ``<= key`` (or :data:`FRONT`)."""
        if level < 1 or level > len(self._levels):
            return FRONT
        members = self._levels[level - 1]
        position = bisect.bisect_right(members, key)
        if position == 0:
            return FRONT
        return members[position - 1]

    def last(self, level: int) -> object:
        """Largest element of ``S_level`` (or :data:`FRONT` when it is empty)."""
        if level < 1 or level > len(self._levels):
            return FRONT
        return self._levels[level - 1][-1]

    def members_after(self, level: int, start: object) -> Iterator[object]:
        """The elements of ``S_level`` above ``start``, in order, read in place.

        ``start`` may be :data:`FRONT`, which yields all of ``S_level``.
        """
        if level < 1 or level > len(self._levels):
            return
        members = self._levels[level - 1]
        position = 0 if start is FRONT else bisect.bisect_right(members, start)
        for index in range(position, len(members)):
            yield members[index]

    def count_in(self, level: int, low: object, high: object) -> int:
        """Number of elements of ``S_level`` in the interval ``(low, high]``."""
        if level < 1 or level > len(self._levels):
            return 0
        members = self._levels[level - 1]
        return max(0, bisect.bisect_right(members, high)
                   - bisect.bisect_right(members, low))

    def locate(self, key: object, block_size: int
               ) -> Tuple[int, object, object, int]:
        """One top-down search for ``key`` through ``S_h .. S_1``.

        Returns ``(ios, node_start, array_start, array_index)``:

        * ``ios`` -- block reads of the scans, ``(high - low + B) // B`` per
          level for a scan from position ``low`` past position ``high - 1``;
        * ``node_start`` -- the level-2 anchor (largest ``S_2`` element
          ``<= key``, or :data:`FRONT`), which starts the key's leaf node;
        * ``array_start`` -- the level-1 anchor, which starts its leaf array;
        * ``array_index`` -- the level-1 scan length ``high - low``: the
          number of ``S_1`` elements in ``(node_start, key]``, which is the
          index of the key's array within its leaf node.
        """
        bisect_right = bisect.bisect_right
        ios = low = high = 0
        anchor = node_start = FRONT
        for members in reversed(self._levels):
            # At the last (level-1) pass this keeps the level-2 anchor.
            node_start = anchor
            low = 0 if anchor is FRONT else bisect_right(members, anchor)
            high = bisect_right(members, key, low)
            ios += (high - low + block_size) // block_size
            if high > low:
                anchor = members[high - 1]
        return ios, node_start, anchor, high - low

    def check(self) -> None:
        """Verify that the levels are nested, sorted, and match the level map."""
        for index, members in enumerate(self._levels):
            if members != sorted(members):
                raise ValueError("level %d is not sorted" % (index + 1,))
            if index > 0:
                upper = set(self._levels[index])
                lower = set(self._levels[index - 1])
                if not upper.issubset(lower):
                    raise ValueError("S_%d is not a subset of S_%d"
                                     % (index + 1, index))
            for key in members:
                if self._level_of.get(key, 0) < index + 1:
                    raise ValueError(
                        "key %r appears in S_%d but its recorded level is %d"
                        % (key, index + 1, self._level_of.get(key, 0)))
        for key, level in self._level_of.items():
            for index in range(level):
                members = self._levels[index]
                position = bisect.bisect_left(members, key)
                if position >= len(members) or members[position] != key:
                    raise ValueError("key %r (level %d) is missing from S_%d"
                                     % (key, level, index + 1))

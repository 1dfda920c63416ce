"""Leaf arrays and leaf nodes of the history-independent external skip list.

At the leaf level the history-independent skip list stores every key.  Keys
between two consecutive once-promoted elements form a *leaf array*; the leaf
arrays between two consecutive twice-promoted elements are packed together
into a *leaf node*, which is what actually occupies consecutive disk blocks
(Figure 3 of the paper).

Leaf arrays keep gaps so that inserts do not always rewrite the whole node.
Their capacities follow Invariant 16: with ``n`` elements and floor
``⌈B^γ⌉``, the capacity is uniform on ``[B^γ, 2B^γ - 1]`` when ``n ≤ B^γ``
and uniform on ``[n, 2n - 1]`` otherwise — exactly the floored WHI capacity
rule of :mod:`repro.core.sizing`.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.core.sizing import WHICapacityRule
from repro.errors import InvariantViolation
from repro.skiplist.levels import FRONT


class LeafArray:
    """One leaf array: a sorted run of keys plus WHI-sized slack capacity."""

    __slots__ = ("start", "keys", "capacity")

    def __init__(self, start: object, keys: List[object], rule: WHICapacityRule) -> None:
        self.start = start
        self.keys = list(keys)
        self.capacity = rule.initial_capacity(len(self.keys))

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        head = "FRONT" if self.start is FRONT else repr(self.start)
        return "LeafArray(start=%s, n=%d, capacity=%d)" % (head, len(self.keys),
                                                           self.capacity)

    def slots(self) -> Tuple[Optional[object], ...]:
        """The array's physical slots: keys first, then gaps up to capacity."""
        return tuple(self.keys) + (None,) * max(0, self.capacity - len(self.keys))

    def insert(self, key: object, rule: WHICapacityRule) -> bool:
        """Insert ``key`` (keeping sorted order); return ``True`` if a resize occurred.

        A key not below the last one is appended, where ``insort`` would
        put it, without the binary search (an ascending run's every key).
        """
        keys = self.keys
        if keys and key < keys[-1]:
            bisect.insort(keys, key)
        else:
            keys.append(key)
        self.capacity, resized = rule.after_insert(len(keys), self.capacity)
        return resized

    def remove(self, key: object, rule: WHICapacityRule) -> bool:
        """Remove ``key``; return ``True`` if a resize occurred."""
        position = bisect.bisect_left(self.keys, key)
        if position >= len(self.keys) or self.keys[position] != key:
            raise InvariantViolation("key %r missing from its leaf array" % (key,))
        self.keys.pop(position)
        self.capacity, resized = rule.after_delete(len(self.keys), self.capacity)
        return resized

    def redraw_capacity(self, rule: WHICapacityRule) -> None:
        """Draw a fresh capacity from the invariant distribution (node rebuild)."""
        self.capacity = rule.initial_capacity(len(self.keys))

    def check(self, floor: int) -> None:
        """Verify sortedness and the Invariant 16 capacity bounds."""
        if self.keys != sorted(self.keys):
            raise InvariantViolation("leaf array keys are not sorted")
        low = max(len(self.keys), floor)
        if not low <= self.capacity <= 2 * low - 1:
            raise InvariantViolation(
                "leaf array capacity %d outside [%d, %d]"
                % (self.capacity, low, 2 * low - 1))


class LeafNode:
    """A run of consecutive leaf arrays stored contiguously on disk."""

    __slots__ = ("start", "arrays")

    def __init__(self, start: object, arrays: List[LeafArray]) -> None:
        self.start = start
        self.arrays = list(arrays)

    def __len__(self) -> int:
        """Number of keys stored in the node."""
        return sum(len(array) for array in self.arrays)

    def __iter__(self) -> Iterator[object]:
        for array in self.arrays:
            yield from array.keys

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        head = "FRONT" if self.start is FRONT else repr(self.start)
        return "LeafNode(start=%s, arrays=%d, keys=%d, slots=%d)" % (
            head, len(self.arrays), len(self), self.total_slots())

    def total_slots(self) -> int:
        """Total physical slots (keys plus gaps) occupied by the node."""
        return sum(array.capacity for array in self.arrays)

    def slots(self) -> Tuple[Optional[object], ...]:
        """The node's physical slots, concatenating its arrays in order."""
        flattened: Tuple[Optional[object], ...] = ()
        for array in self.arrays:
            flattened += array.slots()
        return flattened

    def rebuild(self, rule: WHICapacityRule) -> int:
        """Redraw the capacity of every array (a whole-node rewrite), in
        array order with one :meth:`WHICapacityRule.initial_capacities`
        loop; return the node's new total slots."""
        arrays = self.arrays
        capacities = rule.initial_capacities([len(array.keys)
                                              for array in arrays])
        for array, capacity in zip(arrays, capacities):
            array.capacity = capacity
        return sum(capacities)

    def check(self, floor: int) -> None:
        """Verify ordering across arrays and each array's own invariants."""
        previous_last: Optional[object] = None
        for array in self.arrays:
            array.check(floor)
            if not array.keys:
                continue
            if previous_last is not None and not previous_last < array.keys[0]:
                raise InvariantViolation("leaf arrays overlap or are out of order")
            previous_last = array.keys[-1]

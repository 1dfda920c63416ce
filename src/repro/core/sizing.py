"""Weakly-history-independent array sizing (Section 2.1).

The building block used throughout the paper is the WHI dynamic array of
Hartline et al.: an array holding ``n`` elements whose capacity is a random
variable distributed *uniformly on* ``{n, ..., 2n - 1}``, resized with
probability ``Θ(1/n)`` per update.  Because the capacity distribution depends
only on ``n`` (never on the history of how the array reached ``n`` elements),
the capacity leaks nothing about past operations.

This module implements the *exact* transition kernel that preserves the
uniform distribution with the minimum possible resize probability.  The
derivation (an optimal-transport coupling of the uniform distributions on
``{n, ..., 2n-1}`` and ``{n±1, ..., 2(n±1)-1}``) gives:

Insert (``n → n + 1``)
    * if the capacity fell below ``n + 1`` it must resize;
    * otherwise it resizes voluntarily with probability ``1/(n + 1)``;
    * a resize draws the new capacity uniformly from ``{2n, 2n + 1}``.
    The total resize probability is exactly ``2/(n + 1)``.

Delete (``n → n - 1``)
    * the capacity resizes exactly when it exceeds ``2(n - 1) - 1``
      (probability ``2/n``);
    * the new capacity is ``n - 1`` with probability ``n / (2(n - 1))`` and
      otherwise uniform on ``{n, ..., 2n - 3}``.

Both kernels map the uniform distribution on the old range to the uniform
distribution on the new range; ``tests/test_sizing.py`` verifies this by
pushing the distribution through the kernel symbolically.

The same kernel generalises to the *floored* ranges needed by the skip list's
leaf arrays (Invariant 16): capacities uniform on ``{L, ..., 2L - 1}`` with
``L = max(n, floor)``.

Draws.  The coin of a voluntary or excess resize is one ``random()``; every
uniform choice (a fresh capacity, ``{2n, 2n + 1}``, ``{n, ..., 2n - 3}``)
is :func:`repro._rng.randbelow` on the generator's ``getrandbits``, the
bits and rejection rule ``Random.randint`` and ``Random.choice`` take, so
the capacities and the generator's state are what those methods would
leave.  ``tests/test_sizing.py`` pins the rule draw for draw to a reference
written with ``randint`` and ``choice``, and ``tests/test_rng.py`` pins
``randbelow`` to ``random.Random``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro._rng import RandomLike, make_rng, randbelow
from repro.errors import ConfigurationError, RankError


def capacity_range(count: int, floor: int = 1) -> Tuple[int, int]:
    """Inclusive capacity range ``{L, ..., 2L - 1}`` with ``L = max(count, floor)``.

    An empty array has capacity 0 unless an explicit floor larger than one is
    imposed (the skip list's leaf arrays never shrink below ``B^gamma`` slots,
    so their range stays floored even when momentarily empty).
    """
    if count == 0 and floor <= 1:
        return (0, 0)
    low = max(count, floor)
    return (low, 2 * low - 1)


class WHICapacityRule:
    """Samples and evolves WHI capacities for one logical array.

    The rule object is stateless apart from its random generator; callers keep
    the capacity themselves and feed it back in.  ``floor`` generalises the
    plain dynamic-array rule to the skip list's leaf arrays, whose capacity
    never drops below ``B^γ`` (Invariant 16).
    """

    def __init__(self, seed: RandomLike = None, floor: int = 1) -> None:
        if floor < 0:
            raise ConfigurationError("floor must be non-negative, got %r" % (floor,))
        self._rng = make_rng(seed)
        self.floor = max(1, floor)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def initial_capacity(self, count: int) -> int:
        """Draw a capacity for a freshly built array holding ``count``
        elements (see :meth:`initial_capacities`)."""
        low = count if count > self.floor else self.floor
        if count == 0 and low == 1:
            return 0
        return low + randbelow(self._rng.getrandbits, low)

    def initial_capacities(self, counts: Iterable[int]) -> List[int]:
        """Draw a fresh capacity for each of ``counts``, in order, in one
        loop (a skip-list node rebuild redraws every array of its node):
        uniform on :func:`capacity_range`, which ``randint`` over the range
        draws as ``low + randbelow(low)`` (the range holds ``low`` values);
        the empty floor-1 range draws nothing."""
        floor, getrandbits = self.floor, self._rng.getrandbits
        capacities: List[int] = []
        for count in counts:
            low = count if count > floor else floor
            capacities.append(0 if count == 0 and low == 1
                              else low + randbelow(getrandbits, low))
        return capacities

    def after_insert(self, new_count: int, capacity: int) -> Tuple[int, bool]:
        """Evolve the capacity across an insert that brought the count to ``new_count``.

        Returns ``(new_capacity, resized)``.  ``resized`` is ``True`` whenever
        the caller must physically reallocate (even if the numeric capacity
        happens to coincide with the old one).

        The range floors of :func:`capacity_range` are worked out inline
        (this runs once per skip-list leaf insert): with ``floor > 1`` a
        count at or below the floor keeps the range ``{floor..2floor-1}``;
        with ``floor == 1`` the first insert leaves the empty range
        ``(0, 0)``; any other count moves the range's low end to
        ``new_count``.
        """
        if new_count <= 0:
            raise RankError("new_count must be positive after an insert")
        if capacity <= 0:
            # Nothing allocated yet: draw fresh from the target distribution.
            return self.initial_capacity(new_count), True
        floor = self.floor
        if new_count <= floor and floor > 1:
            # Floored regime: the target distribution did not change.
            return capacity, False
        n = new_count - 1
        if n == 0:
            return self.initial_capacity(new_count), True
        # Regular regime: old range {n..2n-1}, new range {n+1..2n+1}, n >= 1.
        forced = capacity < new_count
        voluntary = self._rng.random() < 1.0 / (n + 1)
        if forced or voluntary:
            # choice((2n, 2n + 1)) is 2n + randbelow(2).
            return 2 * n + randbelow(self._rng.getrandbits, 2), True
        return capacity, False

    def after_delete(self, new_count: int, capacity: int) -> Tuple[int, bool]:
        """Evolve the capacity across a delete that brought the count to ``new_count``.

        As in :meth:`after_insert`, the range floors are worked out inline:
        emptying a floor-1 array leaves the range ``(0, 0)``; a count whose
        old value was at or below the floor keeps ``{floor..2floor-1}``.
        """
        if new_count < 0:
            raise RankError("new_count cannot be negative")
        floor = self.floor
        if new_count == 0 and floor == 1:
            return 0, capacity != 0
        n = new_count + 1
        if n <= floor:
            # Floored regime (or no change in the target range): keep.
            return capacity, False
        # Regular regime: old range {n..2n-1}, new range {n-1..2n-3}, n >= 2.
        if capacity <= 2 * n - 3:
            return capacity, False
        # Forced resize: draw from the excess distribution.
        if self._rng.random() < n / (2.0 * (n - 1)):
            return n - 1, True
        if n == 2:  # the secondary range {n..2n-3} is empty
            return n - 1, True
        # randint(n, 2n - 3) is n + randbelow(n - 2).
        return n + randbelow(self._rng.getrandbits, n - 2), True


class WHIDynamicArray:
    """A weakly-history-independent dynamic array (Section 2.1).

    Elements are stored contiguously at the front of a backing array whose
    capacity follows :class:`WHICapacityRule`; the remaining slots are gaps.
    The memory representation therefore depends only on the stored sequence
    and the capacity, and the capacity depends only on the element count and
    fresh randomness — which is weak history independence.

    The class is used directly for the PMA's small-size fallback (footnote 5
    of the paper) and for the skip list's leaf arrays, and serves as the
    reference implementation audited in ``tests/test_history_audit.py``.
    """

    def __init__(self, seed: RandomLike = None, floor: int = 1) -> None:
        self._rule = WHICapacityRule(seed=seed, floor=floor)
        self._items: List[object] = []
        self._capacity = 0
        self.resizes = 0
        self.element_moves = 0

    # -- inspection ------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, index: int) -> object:
        return self._items[index]

    @property
    def capacity(self) -> int:
        """Current number of slots in the backing array."""
        return self._capacity

    def memory_representation(self) -> Tuple[object, ...]:
        """The backing array contents, including trailing gaps (``None``)."""
        return tuple(self._items) + (None,) * (self._capacity - len(self._items))

    # -- updates ----------------------------------------------------------- #

    def insert(self, index: int, item: object) -> None:
        """Insert ``item`` so that it becomes the ``index``-th element."""
        if not 0 <= index <= len(self._items):
            raise RankError("insert index %r out of range 0..%d"
                            % (index, len(self._items)))
        self._items.insert(index, item)
        # Shifting the suffix plus writing the new element.
        self.element_moves += len(self._items) - index
        self._capacity, resized = self._rule.after_insert(len(self._items),
                                                          self._capacity)
        if resized:
            self._note_resize()

    def append(self, item: object) -> None:
        """Insert ``item`` at the end."""
        self.insert(len(self._items), item)

    def delete(self, index: int) -> object:
        """Remove and return the ``index``-th element."""
        if not 0 <= index < len(self._items):
            raise RankError("delete index %r out of range 0..%d"
                            % (index, len(self._items) - 1))
        item = self._items.pop(index)
        self.element_moves += len(self._items) - index
        self._capacity, resized = self._rule.after_delete(len(self._items),
                                                          self._capacity)
        if resized:
            self._note_resize()
        return item

    def rebuild(self, items: Optional[List[object]] = None) -> None:
        """Replace the contents wholesale and redraw the capacity."""
        if items is not None:
            self._items = list(items)
        self._capacity = self._rule.initial_capacity(len(self._items))
        self._note_resize()

    def _note_resize(self) -> None:
        self.resizes += 1
        self.element_moves += len(self._items)

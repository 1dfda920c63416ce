"""The history-independent external-memory skip list (Section 6, Theorem 3).

The structure keeps the folklore B-skip list's shape but changes two things
so that its bounds hold *with high probability* and its representation is
weakly history independent:

* the promotion probability is ``1/B^γ`` with ``γ = (1 + ε)/2`` instead of
  ``1/B``, which caps every array at ``O(B^γ log N)`` elements whp, so a
  search never scans more than ``O(log_B N)`` blocks;
* at the leaf level, the arrays (runs delimited by once-promoted elements)
  are packed into *leaf nodes* delimited by twice-promoted elements, and each
  leaf array keeps history-independently sized gaps (Invariant 16), so range
  queries still read ``Θ(B)`` useful keys per block and inserts only rewrite
  a whole node when a WHI resize triggers.

Costs (Theorem 3): searches ``O(log_B N)`` I/Os whp; inserts and deletes
``O(log_B N)`` amortized I/Os whp with an ``O(B^ε log N)`` worst case; range
queries returning ``k`` keys ``O(logB N / ε + k/B)`` I/Os whp; ``O(N)``
space.  These are the charges of the model; the CPU work follows them, one
descent per operation, except where a batch starts with keys above the
maximum (an image load, an ascending bulk insert): that run is linked at the
tail in one pass (:meth:`HistoryIndependentSkipList.insert_many`), with one
descent per promotion instead of one per key, and is charged, drawn and laid
out exactly as key-by-key inserts would be.  A key of that run that is not
promoted costs arithmetic and generator calls, not helper calls: the run
kernel (:meth:`HistoryIndependentSkipList._insert_run`) flips its level
coins, appends it to its leaf array, works out the WHI capacity transition
and counts its blocks inline, taking every draw from the same generator
method :meth:`insert` does (a uniform choice from ``getrandbits`` with the
rejection rule of ``Random.randint``, :func:`repro._rng.randbelow`).  A
node rebuild redraws every array of the node in one loop
(:meth:`~repro.core.sizing.WHICapacityRule.initial_capacities`), and a
promotion splits its leaf array with one bisection and two slices.  So the
levels, both generators' states, the layout and the per-key charges are
those of the per-key path, which ``tests/test_hi_skiplist.py`` checks
against a key-by-key twin and ``tests/test_skiplist_golden.py`` pins.

History independence follows because every piece of the representation is a
function of the key set and fresh randomness only: per-key levels are
independent coin flips, keys within arrays are sorted, array capacities
follow Invariant 16, and arrays/nodes are delimited purely by the (random)
levels.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro._rng import (RandomLike, geometric_level, make_rng, randbelow,
                         spawn_rng)
from repro.api.protocol import HIDictionary, Pair
from repro.core.sizing import WHICapacityRule
from repro.errors import (ConfigurationError, DuplicateKey, InvariantViolation,
                          KeyNotFound)
from repro.memory.stats import IOStats
from repro.skiplist.leaf import LeafArray, LeafNode
from repro.skiplist.levels import FRONT, SkipListLevels


class HistoryIndependentSkipList(HIDictionary):
    """Weakly history-independent external-memory skip list.

    Parameters
    ----------
    block_size:
        The DAM block size ``B`` (in keys per block).
    epsilon:
        The trade-off parameter ``ε > 0`` of Theorem 3; the promotion
        probability is ``1/B^γ`` with ``γ = (1 + ε)/2``.  Smaller ``ε`` means
        cheaper worst-case inserts but more expensive medium-size range
        queries.  The theory requires ``γ ≤ 1 − log log B / log B``; values
        above that are accepted (the ablation bench sweeps them) but the
        search bound degrades.
    seed:
        Seed or ``random.Random`` driving promotions and capacity draws.
    """

    def __init__(self, block_size: int = 64, epsilon: float = 0.1,
                 seed: RandomLike = None, max_level: int = 16) -> None:
        if block_size < 2:
            raise ConfigurationError("block_size must be at least 2, got %r"
                                     % (block_size,))
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1), got %r"
                                     % (epsilon,))
        self.block_size = block_size
        self.epsilon = epsilon
        self.gamma = (1.0 + epsilon) / 2.0
        self.promote_probability = 1.0 / (block_size ** self.gamma)
        self.leaf_floor = max(2, math.ceil(block_size ** self.gamma))
        self.max_level = max_level
        self._rng = make_rng(seed)
        self._leaf_rule = WHICapacityRule(seed=spawn_rng(self._rng),
                                          floor=self.leaf_floor)
        self._levels = SkipListLevels()
        self._values: Dict[object, object] = {}
        self._nodes: Dict[object, LeafNode] = {
            FRONT: LeafNode(FRONT, [LeafArray(FRONT, [], self._leaf_rule)])
        }
        self.stats = IOStats()
        self.last_operation_ios = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def __iter__(self) -> Iterator[object]:
        """Iterate over keys in increasing order (not I/O-charged)."""
        for node in self._nodes_in_order():
            yield from node

    @property
    def height(self) -> int:
        """Highest non-empty promotion level."""
        return self._levels.height

    def level_of(self, key: object) -> int:
        """Promotion level of ``key`` (0 if never promoted)."""
        return self._levels.level_of(key)

    def items(self) -> List[Tuple[object, object]]:
        """All (key, value) pairs in key order (not I/O-charged)."""
        return [(key, self._values[key]) for key in self]

    def leaf_node_sizes(self) -> List[int]:
        """Physical slot counts of every leaf node, in key order."""
        return [node.total_slots() for node in self._nodes_in_order()]

    def leaf_array_sizes(self) -> List[int]:
        """Key counts of every leaf array, in key order."""
        sizes: List[int] = []
        for node in self._nodes_in_order():
            sizes.extend(len(array) for array in node.arrays)
        return sizes

    def total_slots(self) -> int:
        """Total physical leaf slots (keys plus gaps): the space bound of Lemma 22."""
        return sum(node.total_slots() for node in self._nodes_in_order())

    def memory_representation(self) -> Tuple[object, ...]:
        """The physical layout inspected by history-independence audits."""
        nodes = tuple(node.slots() for node in self._nodes_in_order())
        levels = tuple(tuple(self._levels.members(level))
                       for level in range(1, self._levels.height + 1))
        return (("leaf_nodes", nodes), ("levels", levels))

    def snapshot_slots(self) -> List[Optional[Pair]]:
        """The concatenated leaf-node slot arrays, gaps included, each key's
        slot holding its ``(key, value)`` record.

        This is the on-disk layout Invariant 16 talks about, slot for slot,
        so persisting it verbatim keeps the snapshot history independent;
        the value rides in its key's slot, so an image loses nothing.
        """
        values = self._values
        slots: List[Optional[Pair]] = []
        for node in self._nodes_in_order():
            for array in node.arrays:
                keys = array.keys
                slots.extend([(key, values[key]) for key in keys])
                slots.extend([None] * (array.capacity - len(keys)))
        return slots

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def contains(self, key: object) -> bool:
        """Whether ``key`` is stored (charges search I/Os)."""
        self.stats.reads += self._find(key)[0]
        return key in self._values

    def search(self, key: object) -> object:
        """Value stored under ``key``; raises :class:`KeyNotFound` otherwise."""
        if not self.contains(key):
            raise KeyNotFound(key)
        return self._values[key]

    def search_io_cost(self, key: object) -> int:
        """I/Os of a search for ``key``.

        One descent through ``S_h .. S_1`` (see
        :meth:`~repro.skiplist.levels.SkipListLevels.locate`) charges
        ``(scanned + B - 1) // B`` blocks per level, ``scanned`` counting
        the element that stops the scan; then the key's leaf array is read
        whole, ``⌈capacity / B⌉`` blocks, gaps included.
        """
        return self._find(key)[0]

    def range_query(self, low: object, high: object
                    ) -> Tuple[List[Tuple[object, object]], int]:
        """All pairs with ``low <= key <= high`` plus the I/O cost charged.

        The cost is the search for ``low`` plus one block per ``B`` physical
        slots scanned plus one extra I/O per leaf-node boundary crossed
        (Lemma 21).
        """
        if high < low:
            return [], 0
        ios, first_node, _index = self._find(low)
        result: List[Tuple[object, object]] = []
        slots_scanned = 0
        boundaries_crossed = 0
        started = False
        done = False
        # Nodes before the search's node hold only keys below ``low``.
        for node in self._nodes_in_order(first_node.start):
            if started:
                boundaries_crossed += 1
            for array in node.arrays:
                if not array.keys:
                    continue
                if array.keys[-1] < low:
                    continue
                if array.keys[0] > high:
                    done = True
                    break
                started = True
                slots_scanned += array.capacity
                for key in array.keys:
                    if low <= key <= high:
                        result.append((key, self._values[key]))
            if done:
                break
        scan_ios = self._blocks(slots_scanned) + boundaries_crossed if result else 0
        self.stats.reads += ios + scan_ios
        return result, ios + scan_ios

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def insert(self, key: object, value: object = None) -> int:
        """Insert a new key; returns the I/O cost charged for the operation."""
        if key in self._values:
            raise DuplicateKey(key)
        read_ios, node, index = self._find(key)
        self.stats.reads += read_ios
        level = geometric_level(self._rng, self.promote_probability,
                                max_level=self.max_level)
        if level == 0:
            array = node.arrays[index]
            resized = array.insert(key, self._leaf_rule)
            if resized:
                write_ios = self._blocks(node.rebuild(self._leaf_rule))
                self.stats.bump("skiplist.node_rebuild")
            else:
                write_ios = self._blocks(array.capacity)
        else:
            write_ios = self._insert_promoted(node, index, key, level)
        self._values[key] = value
        self.stats.writes += write_ios
        self.stats.operations += 1
        self.last_operation_ios = read_ios + write_ios
        return self.last_operation_ios

    def insert_many(self, pairs: Iterable[Pair]) -> int:
        """Insert pairs in input order (see :meth:`HIDictionary.insert_many`):
        the run above the maximum at the head in one pass at the tail
        (:meth:`_insert_run`), the rest one key at a time."""
        before = len(self._values)
        pairs = iter(pairs)
        rest = self._insert_run(pairs)
        if rest is not None:
            self.insert(*rest)
            super().insert_many(pairs)
        return len(self._values) - before

    def _insert_run(self, pairs: Iterator[Pair]) -> Optional[Pair]:
        """Link the longest run at the head of ``pairs`` whose keys each
        exceed the maximum; return the first pair not linked (``None`` once
        ``pairs`` ran out).

        A key above the maximum cannot be a duplicate and lands in the last
        leaf array, and its descent (:meth:`SkipListLevels.locate`) stays
        the same until a promotion changes the levels, so it is computed
        again only then.  Each key draws its level and its capacity
        transitions from the same generators in the same order as
        :meth:`insert`, takes the same node rebuilds and splits, and is
        charged the same reads and writes.  A key that is not above the
        maximum, or does not compare with it, is returned for
        :meth:`insert`.

        The loop is :meth:`insert` written out for a key that is appended:
        the coins of :func:`~repro._rng.geometric_level`, the transition
        of :meth:`WHICapacityRule.after_insert` (its choice of
        ``{2n, 2n + 1}`` is :func:`~repro._rng.randbelow` on the rule's
        ``getrandbits``) and the block counts of :meth:`_blocks` are
        inline.  Only a promotion, a node rebuild and the two rare
        transitions (an array's first key, an unallocated array) call the
        per-key helpers.
        """
        values, stats, block = self._values, self.stats, self.block_size
        rule = self._leaf_rule
        floor, rule_coin, rule_bits = (rule.floor, rule._rng.random,
                                       rule._rng.getrandbits)
        coin, probability, max_level = (self._rng.random,
                                        self.promote_probability,
                                        self.max_level)
        tail = self._nodes[self._levels.last(2)].arrays[-1]
        maximum = tail.keys[-1] if tail.keys else None
        node: Optional[LeafNode] = None
        descent = index = reads = writes = linked = last = 0
        try:
            for pair in pairs:
                key, value = pair
                try:
                    above = not values or key > maximum
                except TypeError:
                    above = False
                if not above:
                    return pair
                values[key] = value
                if node is None:
                    read, node, index = self._find(key)
                    array = node.arrays[index]
                    keys = array.keys
                    descent = read - self._blocks(array.capacity)
                capacity = array.capacity
                read = descent + ((capacity + block - 1) // block or 1)
                level = 0
                while coin() < probability:
                    level += 1
                    if max_level is not None and level >= max_level:
                        level = max_level
                        break
                if level:
                    write = self._insert_promoted(node, index, key, level)
                    node = None
                else:
                    keys.append(key)
                    count = len(keys)
                    if capacity <= 0 or count == 1:
                        capacity, resized = rule.after_insert(count, capacity)
                    elif count <= floor:
                        resized = False
                    else:
                        # The coin is drawn even when the resize is forced.
                        resized = rule_coin() < 1.0 / count \
                            or capacity < count
                        if resized:
                            capacity = 2 * count - 2 + randbelow(rule_bits, 2)
                    array.capacity = capacity
                    if resized:
                        write = node.rebuild(rule)
                        stats.bump("skiplist.node_rebuild")
                    else:
                        write = capacity
                    write = (write + block - 1) // block or 1
                reads += read
                writes += write
                linked += 1
                last = read + write
                maximum = key
            return None
        finally:
            stats.reads += reads
            stats.writes += writes
            stats.operations += linked
            if linked:
                self.last_operation_ios = last

    def upsert(self, key: object, value: object = None) -> bool:
        """Insert or overwrite ``key``; returns ``True`` if it already existed.

        Overwriting only touches the value table (values live alongside their
        keys on the leaf level, so the rewrite costs the search plus one leaf
        array write); the key layout — the history-independent part — is
        untouched.
        """
        if key in self._values:
            read_ios, node, index = self._find(key)
            write_ios = self._blocks(node.arrays[index].capacity)
            self._values[key] = value
            self.stats.reads += read_ios
            self.stats.writes += write_ios
            self.stats.operations += 1
            self.last_operation_ios = read_ios + write_ios
            return True
        self.insert(key, value)
        return False

    def delete(self, key: object) -> object:
        """Remove ``key`` and return its value; raises :class:`KeyNotFound` otherwise."""
        if key not in self._values:
            raise KeyNotFound(key)
        read_ios, node, index = self._find(key)
        self.stats.reads += read_ios
        level = self._levels.level_of(key)
        if level >= 2:
            write_ios = self._delete_node_boundary(key)
        elif level == 1:
            write_ios = self._delete_array_boundary(node, index, key)
        else:
            array = node.arrays[index]
            resized = array.remove(key, self._leaf_rule)
            if resized:
                write_ios = self._blocks(node.rebuild(self._leaf_rule))
                self.stats.bump("skiplist.node_rebuild")
            else:
                write_ios = self._blocks(array.capacity)
        value = self._values.pop(key)
        self.stats.writes += write_ios
        self.stats.operations += 1
        self.last_operation_ios = read_ios + write_ios
        return value

    # ------------------------------------------------------------------ #
    # Promoted inserts and deletes
    # ------------------------------------------------------------------ #

    def _insert_promoted(self, node: LeafNode, index: int,
                         key: object, level: int) -> int:
        """Insert a promoted key: split its leaf array (and node if level >= 2)."""
        array = node.arrays[index]
        # The array is sorted and does not hold ``key``: one bisection
        # splits it where ``key`` goes (at the end, for a run's key).
        keys = array.keys
        split = bisect.bisect_left(keys, key)
        left = LeafArray(array.start, keys[:split], self._leaf_rule)
        right = LeafArray(key, [key] + keys[split:], self._leaf_rule)
        node.arrays[index:index + 1] = [left, right]
        self._levels.add(key, level)
        if level >= 2:
            # The new key starts a fresh leaf node.
            moved = node.arrays[index + 1:]
            node.arrays = node.arrays[:index + 1]
            new_node = LeafNode(key, moved)
            self._nodes[key] = new_node
            self.stats.bump("skiplist.node_split")
            return self._blocks(node.total_slots()) + self._blocks(new_node.total_slots())
        self.stats.bump("skiplist.array_split")
        return self._blocks(node.total_slots())

    def _delete_array_boundary(self, node: LeafNode, index: int,
                               key: object) -> int:
        """Delete a once-promoted key: merge its array into its predecessor."""
        if index == 0 or node.arrays[index].start != key:
            raise InvariantViolation("array boundary %r not found in its node" % (key,))
        self._levels.remove(key)
        previous = node.arrays[index - 1]
        current = node.arrays[index]
        merged_keys = previous.keys + [existing for existing in current.keys
                                       if existing != key]
        merged = LeafArray(previous.start, merged_keys, self._leaf_rule)
        node.arrays[index - 1:index + 1] = [merged]
        self.stats.bump("skiplist.array_merge")
        return self._blocks(node.total_slots())

    def _delete_node_boundary(self, key: object) -> int:
        """Delete a twice-promoted key: merge its node into its predecessor node."""
        node = self._nodes.pop(key)
        self._levels.remove(key)
        predecessor_start = self._levels.predecessor(2, key)
        predecessor = self._nodes[predecessor_start]
        boundary_array = node.arrays[0]
        trailing_arrays = node.arrays[1:]
        previous_array = predecessor.arrays[-1]
        merged_keys = previous_array.keys + [existing for existing in boundary_array.keys
                                             if existing != key]
        merged = LeafArray(previous_array.start, merged_keys, self._leaf_rule)
        predecessor.arrays[-1] = merged
        predecessor.arrays.extend(trailing_arrays)
        self.stats.bump("skiplist.node_merge")
        return self._blocks(predecessor.total_slots())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _blocks(self, slots: int) -> int:
        # At least one block: ``or 1`` covers the empty array without a call.
        return (slots + self.block_size - 1) // self.block_size or 1

    def _find(self, key: object) -> Tuple[int, LeafNode, int]:
        """One search for ``key``: its read I/Os, its leaf node, and the
        index of its leaf array within that node."""
        ios, node_start, array_start, index = self._levels.locate(
            key, self.block_size)
        node = self._nodes.get(node_start)
        if node is None:
            raise InvariantViolation("no leaf node for boundary %r" % (node_start,))
        if index >= len(node.arrays):
            raise InvariantViolation("leaf node %r has no array %d"
                                     % (node_start, index))
        array = node.arrays[index]
        if array.start != array_start:
            raise InvariantViolation(
                "leaf array %d of node %r starts at %r, not at boundary %r"
                % (index, node_start, array.start, array_start))
        return ios + self._blocks(array.capacity), node, index

    def _nodes_in_order(self, start: object = FRONT) -> Iterator[LeafNode]:
        """The leaf nodes in key order, from the one starting at ``start``."""
        yield self._nodes[start]
        for boundary in self._levels.members_after(2, start):
            node = self._nodes.get(boundary)
            if node is not None:
                yield node

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        """Verify every structural invariant; raises :class:`InvariantViolation`."""
        try:
            self._levels.check()
        except ValueError as error:
            raise InvariantViolation(str(error)) from error
        keys: List[object] = []
        for node in self._nodes_in_order():
            node.check(self.leaf_floor)
            keys.extend(node)
        if len(keys) != len(self._values):
            raise InvariantViolation("leaf level stores %d keys, expected %d"
                                     % (len(keys), len(self._values)))
        if keys != sorted(keys):
            raise InvariantViolation("leaf keys are not globally sorted")
        node_boundaries = set(self._levels.members(2))
        stored_boundaries = set(self._nodes) - {FRONT}
        if node_boundaries != stored_boundaries:
            raise InvariantViolation("leaf node boundaries do not match S_2")
        array_boundaries = set(self._levels.members(1))
        seen_boundaries = set()
        for node in self._nodes_in_order():
            for array in node.arrays:
                if array.start is not FRONT:
                    seen_boundaries.add(array.start)
        if array_boundaries != seen_boundaries:
            raise InvariantViolation("leaf array boundaries do not match S_1")

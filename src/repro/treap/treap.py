"""An in-memory treap with key-derived priorities (Aragon and Seidel).

A treap stores key/value pairs in a binary search tree ordered by key whose
nodes additionally satisfy the max-heap property on *priorities*.  When the
priority of a key is a fixed random function of the key itself, the shape of
the tree is a deterministic function of the *set* of stored keys — it does
not depend on the order in which keys were inserted or deleted.  The treap is
therefore *uniquely represented* given its initial randomness, which by the
characterisation of Hartline et al. makes it strongly history independent.

This implementation derives priorities from a salted BLAKE2 hash of the key's
``repr``.  The salt is drawn once at construction (from the structure's seed)
and never changes, so:

* two treaps with the same salt and the same key set have *identical* shapes
  (unique representation), and
* across salts, the shape distribution of a fixed key set is the same no
  matter which operation sequence produced it (history independence).

Every node also stores the height of the subtree it roots.  A subtree's
height is a function of the tree's shape, and the shape depends only on the
key set and the salt, so the stored heights add nothing an observer could
not compute from the keys: the treap stays uniquely represented, and
:meth:`Treap.audit_fingerprint` (the height) is unchanged.  Storing them is
what makes :attr:`Treap.height` ``O(1)``.

The treap is the in-memory baseline for the strongly history-independent
external dictionaries discussed in the paper's related work (Golovin's
B-treap, built in :mod:`repro.btreap`, packs this exact shape into blocks).

Costs: the depth of every node is ``O(log N)`` in expectation over the salt,
so searches, inserts, and deletes take expected ``O(log N)`` comparisons.
An insert or a delete is one iterative walk down from the root and back up
the same path: the rotations and the height repairs all happen on it, and
the repair stops at the first ancestor whose height did not change.  A
batch whose head is a strictly ascending run above the maximum links that
run in one pass over the right spine (:meth:`Treap.insert_run`, the stack
construction of a Cartesian tree): ``O(1)`` amortized per key instead of a
root walk each, ending in the same shape, heights and counters.
Unlike the paper's weakly history-independent structures, no useful *with
high probability* amortized bound is possible here (Observation 1 territory:
strong history independence and high-probability amortized guarantees do not
mix), which the benches demonstrate empirically.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro._rng import RandomLike, make_rng
from repro.api.protocol import HIDictionary, Pair
from repro.errors import DuplicateKey, InvariantViolation, KeyNotFound
from repro.memory.stats import IOStats

PriorityFunction = Callable[[object], int]


class TreapNode:
    """One treap node: a key/value pair, its priority, two children, and the
    height of the subtree it roots (1 for a leaf)."""

    __slots__ = ("key", "value", "priority", "left", "right", "height")

    def __init__(self, key: object, value: object, priority: int) -> None:
        self.key = key
        self.value = value
        self.priority = priority
        self.left: Optional["TreapNode"] = None
        self.right: Optional["TreapNode"] = None
        self.height = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TreapNode(key=%r, priority=%d)" % (self.key, self.priority)


def _restore_height(node: TreapNode) -> int:
    """Recompute ``node.height`` from its children's stored heights."""
    left, right = node.left, node.right
    left_height = 0 if left is None else left.height
    right_height = 0 if right is None else right.height
    node.height = height = 1 + (left_height if left_height > right_height
                                else right_height)
    return height


def salted_priority(salt: bytes, key: object) -> int:
    """Priority of ``key`` under ``salt``: a 64-bit salted hash of ``repr(key)``.

    The hash is keyed (BLAKE2b with the salt as key), so an adversary who does
    not know the salt cannot craft keys with chosen priorities; with the salt
    fixed the priority is a pure function of the key, which is what unique
    representation requires.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), key=salt, digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class SaltedPriority:
    """The default priority function: :func:`salted_priority` under one salt.

    The keyed BLAKE2b state is built once and copied per key, which gives
    the same digests as :func:`salted_priority` without re-keying the hash
    every call.  A named class (not a closure) so treaps are picklable — the
    process-parallel shard backend ships whole structures to worker
    processes; a hash state does not pickle, so it is rebuilt from the salt.
    """

    __slots__ = ("salt", "_keyed")

    def __init__(self, salt: bytes) -> None:
        self.salt = salt
        self._keyed = hashlib.blake2b(key=salt, digest_size=8)

    def __call__(self, key: object) -> int:
        digest = self._keyed.copy()
        digest.update(repr(key).encode("utf-8"))
        return int.from_bytes(digest.digest(), "big")

    def __reduce__(self):
        return SaltedPriority, (self.salt,)


class Treap(HIDictionary):
    """A strongly history-independent in-memory dictionary.

    Parameters
    ----------
    seed:
        Seed (or ``random.Random``) used to draw the priority salt.  Two
        treaps built with the same seed and holding the same keys are
        bit-for-bit identical in shape.
    priority_of:
        Optional override mapping a key to an integer priority.  Supplying a
        deterministic function keeps unique representation; supplying a
        history-dependent one (e.g. insertion counters) deliberately breaks
        it, which the history-audit tests use as a negative control.
    """

    def __init__(self, seed: RandomLike = None,
                 priority_of: Optional[PriorityFunction] = None) -> None:
        rng = make_rng(seed)
        self._salt = rng.getrandbits(128).to_bytes(16, "big")
        self._priority_of = priority_of or SaltedPriority(self._salt)
        self._root: Optional[TreapNode] = None
        self._count = 0
        self.stats = IOStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def __iter__(self) -> Iterator[object]:
        """Iterate over the keys in increasing order."""
        yield from (key for key, _value in self._walk(self._root))

    def items(self) -> List[Tuple[object, object]]:
        """All (key, value) pairs in key order."""
        return list(self._walk(self._root))

    def keys(self) -> List[object]:
        """All keys in increasing order."""
        return [key for key, _value in self._walk(self._root)]

    @property
    def root(self) -> Optional[TreapNode]:
        """The root node (``None`` when empty); exposed for audits and packing."""
        return self._root

    @property
    def height(self) -> int:
        """Length of the longest root-to-leaf path (0 for an empty treap)."""
        return 0 if self._root is None else self._root.height

    def audit_fingerprint(self) -> object:
        """The height: with a fresh salt per trial the full representation
        essentially never repeats, so the audit compares this coarser
        shape statistic instead."""
        return self.height

    def depth_of(self, key: object) -> int:
        """1-indexed depth of ``key`` (the root has depth 1)."""
        node, depth = self.locate(key)
        if node is None:
            raise KeyNotFound(key)
        return depth

    def memory_representation(self) -> Tuple[object, ...]:
        """A canonical encoding of the pointer structure.

        The shape is serialised as a pre-order traversal of ``(key, value)``
        pairs with explicit ``None`` markers for absent children, which is a
        faithful stand-in for the pointer representation an observer would
        see.  Two treaps with the same salt and contents produce identical
        encodings — the unique-representation property audited by the tests.
        """
        encoded: List[object] = []

        def visit(node: Optional[TreapNode]) -> None:
            if node is None:
                encoded.append(None)
                return
            encoded.append((node.key, node.value))
            visit(node.left)
            visit(node.right)

        visit(self._root)
        return tuple(encoded)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def locate(self, key: object) -> Tuple[Optional[TreapNode], int]:
        """The node holding ``key`` (``None`` if absent) and the number of
        nodes the search visited — its depth when found."""
        node = self._root
        visited = 0
        while node is not None:
            visited += 1
            if key == node.key:
                return node, visited
            node = node.left if key < node.key else node.right
        return None, visited

    def contains(self, key: object) -> bool:
        """Whether ``key`` is stored."""
        return self.locate(key)[0] is not None

    def search(self, key: object) -> object:
        """Value stored under ``key``; raises :class:`KeyNotFound` otherwise."""
        node = self.locate(key)[0]
        if node is None:
            raise KeyNotFound(key)
        return node.value

    def search_comparisons(self, key: object) -> int:
        """Number of nodes visited when searching for ``key`` (found or not)."""
        return self.locate(key)[1]

    def minimum(self) -> Tuple[object, object]:
        """The smallest (key, value) pair; raises :class:`KeyNotFound` when empty."""
        if self._root is None:
            raise KeyNotFound("treap is empty")
        node = self._root
        while node.left is not None:
            node = node.left
        return node.key, node.value

    def maximum(self) -> Tuple[object, object]:
        """The largest (key, value) pair; raises :class:`KeyNotFound` when empty."""
        if self._root is None:
            raise KeyNotFound("treap is empty")
        node = self._root
        while node.right is not None:
            node = node.right
        return node.key, node.value

    def successor(self, key: object) -> Optional[Tuple[object, object]]:
        """The smallest stored pair with key strictly greater than ``key``."""
        node = self._root
        best: Optional[TreapNode] = None
        while node is not None:
            if node.key > key:
                best = node
                node = node.left
            else:
                node = node.right
        return None if best is None else (best.key, best.value)

    def predecessor(self, key: object) -> Optional[Tuple[object, object]]:
        """The largest stored pair with key strictly smaller than ``key``."""
        node = self._root
        best: Optional[TreapNode] = None
        while node is not None:
            if node.key < key:
                best = node
                node = node.right
            else:
                node = node.left
        return None if best is None else (best.key, best.value)

    def range_query(self, low: object, high: object) -> List[Tuple[object, object]]:
        """All (key, value) pairs with ``low <= key <= high`` in key order."""
        result: List[Tuple[object, object]] = []
        if self._root is None or high < low:
            return result
        self._range_collect(self._root, low, high, result)
        return result

    def _range_collect(self, node: Optional[TreapNode], low: object, high: object,
                       out: List[Tuple[object, object]]) -> None:
        if node is None:
            return
        if node.key > low:
            self._range_collect(node.left, low, high, out)
        if low <= node.key <= high:
            out.append((node.key, node.value))
        if node.key < high:
            self._range_collect(node.right, low, high, out)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def insert(self, key: object, value: object = None) -> None:
        """Insert a new key; raises :class:`DuplicateKey` if it already exists."""
        if self.insert_walk(key, value)[2]:
            raise DuplicateKey(key)

    def upsert(self, key: object, value: object = None) -> bool:
        """Insert or overwrite ``key``; returns ``True`` if it already existed."""
        return self.insert_walk(key, value, overwrite=True)[2]

    def delete(self, key: object) -> object:
        """Remove ``key`` and return its value; raises :class:`KeyNotFound` otherwise."""
        node = self.delete_walk(key)[1]
        if node is None:
            raise KeyNotFound(key)
        return node.value

    def insert_many(self, pairs: Iterable[Pair]) -> int:
        """Insert pairs in input order (see :meth:`HIDictionary.insert_many`):
        the ascending run at the head in one :meth:`insert_run`, the rest
        one key at a time."""
        before = self._count
        pairs = iter(pairs)
        rest = self.insert_run(pairs)
        if rest is not None:
            self.insert(*rest)
            super().insert_many(pairs)
        return self._count - before

    # ------------------------------------------------------------------ #
    # One-walk updates
    # ------------------------------------------------------------------ #

    def insert_walk(self, key: object, value: object = None,
                    overwrite: bool = False) -> Tuple[int, int, bool]:
        """Insert ``key`` in one root walk; returns ``(visited, depth, existed)``.

        ``visited`` is the number of nodes the descent visited (what
        :meth:`search_comparisons` reported before the call), ``depth`` the
        key's depth afterwards (what :meth:`depth_of` reports after it).  A
        key that is already stored stays where it is, with its value
        overwritten only when ``overwrite`` is set, so ``visited == depth``.
        """
        path: List[TreapNode] = []
        node = self._root
        while node is not None:
            if key == node.key:
                if overwrite:
                    node.value = value
                return len(path) + 1, len(path) + 1, True
            path.append(node)
            node = node.left if key < node.key else node.right
        visited = len(path)
        fresh = TreapNode(key, value, self._priority_of(key))
        # Rotate the new leaf above every ancestor it outranks.  Each rotation
        # hands the ancestor the new node's inner subtree, so the ancestor's
        # children are final and its height can be restored at once.
        while path and path[-1].priority < fresh.priority:
            parent = path.pop()
            if key < parent.key:
                parent.left = fresh.right
                fresh.right = parent
            else:
                parent.right = fresh.left
                fresh.left = parent
            _restore_height(parent)
        rotations = visited - len(path)
        if rotations:
            _restore_height(fresh)
            self.stats.bump("treap.rotation", rotations)
        if not path:
            self._root = fresh
        elif key < path[-1].key:
            path[-1].left = fresh
        else:
            path[-1].right = fresh
        self._restore_heights(path)
        self._count += 1
        self.stats.operations += 1
        return visited, len(path) + 1, False

    def insert_run(self, pairs: Iterator[Pair],
                   stats: Optional[IOStats] = None,
                   levels: int = 1) -> Optional[Pair]:
        """Link the longest strictly ascending run at the head of ``pairs``
        whose keys exceed the maximum in one pass over the right spine;
        return the first pair not linked (``None`` once ``pairs`` ran out).

        A key above the maximum descends the right spine, so the
        ``(visited, depth)`` :meth:`insert_walk` would report for it are the
        spine's length before and after the nodes it outranks are popped,
        and each pop is one of the walk's rotations.  The popped nodes hang
        below the new one as the rotations would leave them, and each
        height is restored once its subtree is final, so the shape, the
        heights and ``treap.rotation`` end as per-key inserts leave them.
        ``stats``, if given, is charged per key what
        :meth:`repro.btreap.BTreap.insert` charges with ``levels`` treap
        levels per block: ``max(1, ⌈visited/levels⌉)`` reads,
        ``⌈depth/levels⌉`` writes and one operation.  The bookkeeping is
        finished even when ``priority_of`` raises; a key of a type the run
        cannot compare is returned, so :meth:`insert_walk` raises its error.
        """
        spine: List[TreapNode] = []
        node = self._root
        while node is not None:
            spine.append(node)
            node = node.right
        push, pop = spine.append, spine.pop
        priority_of = self._priority_of
        length = len(spine)
        linked = rotations = reads = writes = 0
        try:
            for pair in pairs:
                key, value = pair
                if length:
                    try:
                        above = key > spine[-1].key
                    except TypeError:
                        above = False
                    if not above:
                        return pair
                fresh = TreapNode(key, value, priority_of(key))
                reads += -(-length // levels) or 1  # visited == length
                popped = None
                while length and spine[-1].priority < fresh.priority:
                    popped = pop()
                    _restore_height(popped)
                    length -= 1
                    rotations += 1
                fresh.left = popped
                if length:
                    spine[-1].right = fresh
                else:
                    self._root = fresh
                push(fresh)
                length += 1
                writes += -(-length // levels)  # depth == length
                linked += 1
            return None
        finally:
            for node in reversed(spine):
                _restore_height(node)
            self._count += linked
            self.stats.operations += linked
            if rotations:
                self.stats.bump("treap.rotation", rotations)
            if stats is not None:
                stats.reads += reads
                stats.writes += writes
                stats.operations += linked

    def delete_walk(self, key: object) -> Tuple[int, Optional[TreapNode]]:
        """Remove ``key`` in one root walk; returns ``(visited, node)``.

        ``visited`` is the number of nodes the descent visited (the key's
        depth when it was stored); ``node`` is the unlinked node, or
        ``None`` when the key is absent and nothing changed.
        """
        path: List[TreapNode] = []
        node = self._root
        while node is not None:
            if key == node.key:
                break
            path.append(node)
            node = node.left if key < node.key else node.right
        if node is None:
            return len(path), None
        visited = len(path) + 1
        # Rotate the node below its higher-priority child until at most one
        # child is left, then splice it out.  The pivots that rose keep one
        # old subtree each; their heights are restored bottom-up afterwards.
        parent = path[-1] if path else None
        pivots: List[TreapNode] = []
        left, right = node.left, node.right
        while left is not None and right is not None:
            if left.priority > right.priority:
                pivot = left
                node.left = pivot.right
                pivot.right = node
            else:
                pivot = right
                node.right = pivot.left
                pivot.left = node
            self._replace_child(parent, node, pivot)
            parent = pivot
            pivots.append(pivot)
            left, right = node.left, node.right
        self._replace_child(parent, node, right if left is None else left)
        if pivots:
            for pivot in reversed(pivots):
                _restore_height(pivot)
            self.stats.bump("treap.rotation", len(pivots))
        self._restore_heights(path)
        self._count -= 1
        self.stats.operations += 1
        return visited, node

    def _replace_child(self, parent: Optional[TreapNode],
                       old: TreapNode, new: Optional[TreapNode]) -> None:
        """Put ``new`` where ``parent`` holds ``old`` (the root if no parent)."""
        if parent is None:
            self._root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new

    @staticmethod
    def _restore_heights(path: List[TreapNode]) -> None:
        """Restore the heights along a root-first ``path``, bottom-up,
        stopping at the first node whose height did not change — every
        ancestor above it keeps its height too."""
        for node in reversed(path):
            height = node.height
            if _restore_height(node) == height:
                return

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _walk(self, node: Optional[TreapNode]
              ) -> Iterator[Tuple[object, object]]:
        if node is None:
            return
        yield from self._walk(node.left)
        yield node.key, node.value
        yield from self._walk(node.right)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        """Verify the BST and heap invariants and every stored height;
        raises :class:`InvariantViolation`."""
        keys = self.keys()
        if len(keys) != self._count:
            raise InvariantViolation("walk found %d keys, expected %d"
                                     % (len(keys), self._count))
        for previous, current in zip(keys, keys[1:]):
            if not previous < current:
                raise InvariantViolation("keys out of order: %r !< %r"
                                         % (previous, current))
        self._check_subtree(self._root)

    def _check_subtree(self, node: Optional[TreapNode]) -> int:
        """Check the heap order and stored heights below ``node``; returns
        the subtree's height."""
        if node is None:
            return 0
        for child in (node.left, node.right):
            if child is not None and child.priority > node.priority:
                raise InvariantViolation(
                    "heap violation: child %r outranks parent %r"
                    % (child.key, node.key))
        height = 1 + max(self._check_subtree(node.left),
                         self._check_subtree(node.right))
        if node.height != height:
            raise InvariantViolation(
                "node %r stores height %d, its subtree has height %d"
                % (node.key, node.height, height))
        return height

"""A blocked treap in the spirit of Golovin's B-treap.

Golovin's B-treap [Golovin 2009] is a strongly history-independent
external-memory dictionary: it stores the uniquely represented treap shape on
disk, grouped into blocks, so that dictionary operations cost ``O(log_B N)``
I/Os in expectation.  The original construction maintains the grouping with
an intricate incremental algorithm; Golovin himself notes it is "complicated
and difficult to implement", which is what motivated his simpler B-skip list
and, in turn, this paper's weakly history-independent structures.

This module implements the *stratified* variant of the idea, which keeps the
essential properties while staying implementable and auditable:

* Keys receive salted-hash priorities exactly as in :class:`repro.treap.Treap`,
  so the treap shape is a canonical function of the key set and the salt.
* The tree is cut into horizontal strata of ``L = max(1, ⌊log₂(B + 1)⌋)``
  consecutive levels.  The maximal sub-treap rooted at a node whose depth is a
  multiple of ``L`` and truncated after ``L`` levels forms one *block*; it
  contains at most ``2^L − 1 ≤ B`` nodes.  Because the cut depends only on the
  shape, the block decomposition — and hence the entire on-disk
  representation — is canonical, preserving strong history independence.
* A root-to-node path of depth ``d`` crosses ``⌈d / L⌉`` blocks, so with the
  expected ``O(log N)`` treap depth a search costs ``O(log N / log B) =
  O(log_B N)`` expected I/Os, matching Golovin's bound.  The worst-case and
  high-probability behaviour is *not* ``O(log_B N)`` — which is exactly the
  gap (Lemma 15 territory) the paper's HI skip list closes — and the
  comparison bench demonstrates it.
* Because the layout depends only on the key set and the salt, a batch may
  be linked in any way that reaches that shape: :meth:`BTreap.insert_many`
  links a strictly ascending run above the maximum in one pass over the
  treap's right spine (:meth:`repro.treap.Treap.insert_run`), ``O(1)``
  amortized per key rather than a root walk each.

I/O accounting: every operation charges one read per distinct block on the
search path and, for updates, one write per block on the path from the root
to the affected node (rotations only restructure nodes on that path, and a
block is rewritten at most once per operation).  Each operation makes one
root walk of the treap, which reports what the charges need: an insert or
upsert reads the blocks its descent visited and writes the blocks down to
the key's final depth; a delete reads down to the key and writes down to
``max(depth, height)`` — the node rotates down to a leaf before it is
unlinked — where the height afterwards is stored at the root, so the charge
costs ``O(1)`` rather than a walk of the whole tree.  A run linked in one
pass is charged key by key exactly what those inserts would be charged: the
pass knows each key's ``(visited, depth)`` from the spine it keeps.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro._rng import RandomLike
from repro.api.protocol import HIDictionary, Pair
from repro.errors import ConfigurationError, DuplicateKey, InvariantViolation, KeyNotFound
from repro.memory.stats import IOStats
from repro.treap.treap import Treap, TreapNode


class BTreap(HIDictionary):
    """A strongly history-independent external-memory dictionary.

    Parameters
    ----------
    block_size:
        The DAM block size ``B`` (number of key/value pairs per block).
    seed:
        Seed for the priority salt; two B-treaps with the same seed and the
        same contents have identical block layouts.
    """

    def __init__(self, block_size: int = 64, seed: RandomLike = None) -> None:
        if block_size < 2:
            raise ConfigurationError("block_size must be at least 2, got %r"
                                     % (block_size,))
        self.block_size = block_size
        self.levels_per_block = max(1, int(math.floor(math.log2(block_size + 1))))
        self._treap = Treap(seed=seed)
        self.stats = IOStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._treap)

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def __iter__(self) -> Iterator[object]:
        """Iterate over the keys in increasing order (not I/O-charged)."""
        return iter(self._treap)

    def items(self) -> List[Tuple[object, object]]:
        """All (key, value) pairs in key order (not I/O-charged)."""
        return self._treap.items()

    @property
    def height(self) -> int:
        """Height of the underlying treap (number of node levels)."""
        return self._treap.height

    @property
    def block_height(self) -> int:
        """Number of block strata a root-to-deepest-leaf path crosses."""
        height = self._treap.height
        return 0 if height == 0 else math.ceil(height / self.levels_per_block)

    def audit_fingerprint(self) -> object:
        """The treap height (see :meth:`repro.treap.treap.Treap.audit_fingerprint`)."""
        return self.height

    def num_blocks(self) -> int:
        """Number of blocks in the current canonical decomposition."""
        return len(self.block_map())

    def block_map(self) -> Dict[object, List[object]]:
        """The canonical block decomposition: block-root key → keys in the block.

        The decomposition is a pure function of the treap shape, so two
        B-treaps with equal salt and contents return equal maps; the history
        audits rely on this.
        """
        blocks: Dict[object, List[object]] = {}

        def visit(node: Optional[TreapNode], depth: int, block_root: object) -> None:
            if node is None:
                return
            if depth % self.levels_per_block == 0:
                block_root = node.key
                blocks[block_root] = []
            blocks[block_root].append(node.key)
            visit(node.left, depth + 1, block_root)
            visit(node.right, depth + 1, block_root)

        visit(self._treap.root, 0, None)
        for keys in blocks.values():
            keys.sort()
        return blocks

    def memory_representation(self) -> Tuple[object, ...]:
        """Canonical on-disk representation: blocks in key order of their roots."""
        blocks = self.block_map()
        return tuple(
            (root, tuple(keys)) for root, keys in sorted(blocks.items(),
                                                         key=lambda item: item[0])
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def contains(self, key: object) -> bool:
        """Whether ``key`` is stored (charges the search I/Os)."""
        node, visited = self._treap.locate(key)
        self._charge_path_reads(visited)
        return node is not None

    def search(self, key: object) -> object:
        """Value stored under ``key``; raises :class:`KeyNotFound` otherwise."""
        node, visited = self._treap.locate(key)
        self._charge_path_reads(visited)
        if node is None:
            raise KeyNotFound(key)
        return node.value

    def search_io_cost(self, key: object) -> int:
        """Number of read I/Os a search for ``key`` performs."""
        before = self.stats.reads
        self.contains(key)
        return self.stats.reads - before

    def range_query(self, low: object, high: object) -> List[Tuple[object, object]]:
        """All (key, value) pairs with ``low <= key <= high`` in key order.

        Charges one read per distinct block containing a reported pair or
        lying on the search paths to the range endpoints.
        """
        result = self._treap.range_query(low, high)
        blocks = self._blocks_touched_by_range(low, high)
        self.stats.reads += max(1, blocks) if self._treap.root is not None else 0
        return result

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def insert(self, key: object, value: object = None) -> None:
        """Insert a new key; raises :class:`DuplicateKey` if it already exists."""
        visited, depth, existed = self._treap.insert_walk(key, value)
        self._charge_path_reads(visited)
        if existed:
            raise DuplicateKey(key)
        self._charge_path_writes(depth)
        self.stats.operations += 1

    def insert_many(self, pairs: Iterable[Pair]) -> int:
        """Insert pairs in input order (see :meth:`HIDictionary.insert_many`):
        the ascending run at the head in one pass, charged key by key as
        :meth:`insert` charges, the rest one key at a time."""
        before = len(self._treap)
        pairs = iter(pairs)
        rest = self._treap.insert_run(pairs, self.stats, self.levels_per_block)
        if rest is not None:
            self.insert(*rest)
            super().insert_many(pairs)
        return len(self._treap) - before

    def upsert(self, key: object, value: object = None) -> bool:
        """Insert or overwrite ``key``; returns ``True`` if it already existed."""
        visited, depth, existed = self._treap.insert_walk(key, value,
                                                          overwrite=True)
        self._charge_path_reads(visited)
        self._charge_path_writes(depth)
        if not existed:
            self.stats.operations += 1
        return existed

    def delete(self, key: object) -> object:
        """Remove ``key`` and return its value; raises :class:`KeyNotFound` otherwise."""
        depth, node = self._treap.delete_walk(key)
        self._charge_path_reads(depth)
        if node is None:
            raise KeyNotFound(key)
        # Deleting rotates the node down to a leaf before unlinking it, so the
        # modified nodes span the old path extended to the bottom stratum.
        self._charge_path_writes(max(depth, self._treap.height))
        self.stats.operations += 1
        return node.value

    # ------------------------------------------------------------------ #
    # I/O accounting helpers
    # ------------------------------------------------------------------ #

    def blocks_on_path(self, depth: int) -> int:
        """Number of blocks a root-to-depth-``depth`` path crosses (depth 1-indexed)."""
        if depth <= 0:
            return 0
        return -(-depth // self.levels_per_block)

    def _probe_depth(self, key: object) -> int:
        """Depth reached when searching for ``key`` (number of nodes visited)."""
        return self._treap.search_comparisons(key)

    def _charge_path_reads(self, depth: int) -> None:
        # Even probing an empty dictionary reads the (empty) root block.
        self.stats.reads += max(1, self.blocks_on_path(depth))

    def _charge_path_writes(self, depth: int) -> None:
        self.stats.writes += max(1, self.blocks_on_path(depth))

    def _blocks_touched_by_range(self, low: object, high: object) -> int:
        """Count distinct blocks holding keys in ``[low, high]`` plus the endpoints' paths."""
        touched = set()

        def visit(node: Optional[TreapNode], depth: int, block_root: object) -> None:
            if node is None:
                return
            if depth % self.levels_per_block == 0:
                block_root = node.key
            intersects = low <= node.key <= high
            if intersects:
                touched.add(block_root)
            if node.key > low:
                visit(node.left, depth + 1, block_root)
            if node.key < high:
                visit(node.right, depth + 1, block_root)

        visit(self._treap.root, 0, None)
        endpoint_blocks = self.blocks_on_path(self._probe_depth(low)) \
            + self.blocks_on_path(self._probe_depth(high))
        return len(touched) + endpoint_blocks

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        """Verify treap invariants and the block-size bound."""
        self._treap.check()
        for root, keys in self.block_map().items():
            limit = (1 << self.levels_per_block) - 1
            if len(keys) > limit:
                raise InvariantViolation(
                    "block rooted at %r holds %d nodes, stratum limit is %d"
                    % (root, len(keys), limit))
            if limit > self.block_size and len(keys) > self.block_size:
                raise InvariantViolation(
                    "block rooted at %r exceeds the device block size" % (root,))

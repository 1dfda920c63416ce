"""External-memory (DAM / cache-oblivious) cost-model substrate.

The paper states all of its bounds in the disk-access machine (DAM) model of
Aggarwal and Vitter and in the cache-oblivious model of Frigo et al.: data is
moved between an unbounded disk and a memory of ``M`` words in blocks of ``B``
words, and the cost of an algorithm is the number of block transfers (I/Os).

This package provides that model as an instrumentation substrate:

* :class:`BlockDevice` — an addressable array of blocks with read/write
  counters (useful on its own for structures that manage their own blocks,
  e.g. the B-tree baseline).
* :class:`LRUCache` — a set-associative-free, fully associative LRU cache of
  ``M/B`` blocks, used to decide which block touches are free (cache hits)
  and which cost an I/O.
* :class:`IOStats` / :class:`IOTracker` — the interface the data structures
  actually use: they declare which *slot ranges* of which logical arrays they
  touch, and the tracker converts those touches into block-granular I/O
  counts, optionally filtered through an LRU cache.
* :class:`UniformArenaAllocator` — a history-independent block allocator in
  the spirit of Naor–Teague: the placement of live allocations is a uniformly
  random permutation of a contiguous arena, independent of the order in which
  the allocations were made.
"""

from repro._lazy import lazy_exports

__all__ = [
    "IOStats",
    "OperationIOSample",
    "BlockDevice",
    "LRUCache",
    "IOTracker",
    "Allocation",
    "UniformArenaAllocator",
]

# Names import their module on first access: every structure imports
# ``repro.memory.stats``, and most need nothing else from this package.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.stats": ("IOStats", "OperationIOSample"),
    "repro.memory.block_device": ("BlockDevice",),
    "repro.memory.cache": ("LRUCache",),
    "repro.memory.tracker": ("IOTracker",),
    "repro.memory.allocator": ("Allocation", "UniformArenaAllocator"),
})

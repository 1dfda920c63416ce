"""History-independent sparse tables and dictionaries.

A from-scratch reproduction of *"Anti-Persistence on Persistent Storage:
History-Independent Sparse Tables and Dictionaries"* (Bender et al., PODS
2016).  The package provides:

* :class:`~repro.core.hi_pma.HistoryIndependentPMA` — the paper's core
  contribution, a weakly history-independent packed-memory array (Theorem 1).
* :class:`~repro.cobtree.hi_cob_tree.HistoryIndependentCOBTree` — the
  history-independent cache-oblivious B-tree built on the augmented PMA
  (Theorem 2).
* :class:`~repro.skiplist.external.HistoryIndependentSkipList` — the
  history-independent external-memory skip list (Theorem 3), plus the
  folklore B-skip list and the classic in-memory skip list it is compared
  against.
* Baselines (classic PMA, classic B-tree), the DAM-model substrate used to
  count I/Os, history-independence audit tooling, workload generators, and
  the analysis helpers used by the benchmark harness.
* The unified dictionary API (:mod:`repro.api`): the
  :class:`~repro.api.protocol.HIDictionary` protocol, the structure registry
  (:func:`~repro.api.registry.make_dictionary` /
  :func:`~repro.api.registry.register`), and the
  :class:`~repro.api.engine.DictionaryEngine` facade for bulk operations,
  unified I/O stats, and uniform disk snapshots.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "DictionaryEngine",
    "HIDictionary",
    "make_dictionary",
    "register",
    "registry_names",
    "HistoryIndependentPMA",
    "PMAParameters",
    "WHICapacityRule",
    "WHIDynamicArray",
    "CanonicalDynamicArray",
    "IOStats",
    "IOTracker",
    "ClassicPMA",
    "AdaptivePMA",
    "HistoryIndependentCOBTree",
    "BTree",
    "BTreap",
    "Treap",
    "MemorySkipList",
    "FolkloreBSkipList",
    "HistoryIndependentSkipList",
    "DiskImage",
    "PagedFile",
    "snapshot_structure",
    "image_of",
    "__version__",
]

# Each name imports its module on first access, so ``import repro`` (and
# every ``repro.*`` import, which runs this file first) loads no structure.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api": ("DictionaryEngine", "HIDictionary", "make_dictionary",
                  "register", "registry_names"),
    "repro.core.hi_pma": ("HistoryIndependentPMA", "PMAParameters"),
    "repro.core.sizing": ("WHICapacityRule", "WHIDynamicArray"),
    "repro.core.shi_array": ("CanonicalDynamicArray",),
    "repro.memory": ("IOStats", "IOTracker"),
    "repro.pma.classic": ("ClassicPMA",),
    "repro.pma.adaptive": ("AdaptivePMA",),
    "repro.cobtree.hi_cob_tree": ("HistoryIndependentCOBTree",),
    "repro.btree.btree": ("BTree",),
    "repro.btreap.btreap": ("BTreap",),
    "repro.treap.treap": ("Treap",),
    "repro.skiplist.memory": ("MemorySkipList",),
    "repro.skiplist.folklore": ("FolkloreBSkipList",),
    "repro.skiplist.external": ("HistoryIndependentSkipList",),
    "repro.storage": ("DiskImage", "PagedFile", "image_of",
                      "snapshot_structure"),
})

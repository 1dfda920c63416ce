"""Persistent-storage layer: bytes on (simulated or real) disk.

The paper's threat model is an observer who obtains the *disk* — the raw
bytes, including unused buffer space and physical placement — and tries to
learn something the API would not reveal.  The in-memory structures in this
library expose ``memory_representation()``; this package turns those logical
representations into actual byte-level disk images so that the observer story
can be exercised end to end:

* :mod:`repro.storage.encoding` — fixed-width record and page codecs
  (key/value records, gap markers, page headers).
* :mod:`repro.storage.pager` — a page-addressed file abstraction with I/O
  counting; backed either by memory or by a real file on disk.
* :mod:`repro.storage.image` — :class:`DiskImage`, the immutable byte-level
  snapshot an observer inspects, with helpers to scan pages and occupancy.
* :mod:`repro.storage.snapshot` — serialise a PMA / cache-oblivious B-tree /
  skip list into a disk image and load it back, with history-independent
  page placement via :class:`repro.memory.allocator.UniformArenaAllocator`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "GAP_MARKER",
    "RecordCodec",
    "PageCodec",
    "encoded_record_size",
    "PagedFile",
    "DiskImage",
    "SnapshotMetadata",
    "snapshot_records",
    "snapshot_structure",
    "load_records",
    "image_of",
    "file_checksum",
]

# Names import their module on first access, so a store that never writes
# an image or an op log loads none of this package.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.storage.encoding": ("GAP_MARKER", "RecordCodec", "PageCodec",
                               "encoded_record_size"),
    "repro.storage.image": ("DiskImage",),
    "repro.storage.pager": ("PagedFile",),
    "repro.storage.snapshot": ("SnapshotMetadata", "snapshot_records",
                               "snapshot_structure", "load_records",
                               "image_of", "file_checksum"),
})

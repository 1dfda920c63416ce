"""Serialising structures to disk images and loading them back.

A snapshot writes the *slot-level* representation of a structure — the same
array of elements and gaps the structure exposes through ``slots()`` — into a
:class:`repro.storage.pager.PagedFile`, page by page, and returns the
metadata needed to read it back.  Because the slot array of a weakly
history-independent structure already has a history-independent distribution,
writing it out verbatim preserves history independence; the only additional
freedom the storage layer has is *where* on disk the pages land, and the
snapshot offers the uniform-arena placement of
:class:`repro.memory.allocator.UniformArenaAllocator` for that.  A file is
rewritten from empty, so a shorter image never keeps a longer one's tail.

The loaders return the decoded slot list (and the stored values in order), so
a round trip can be checked without trusting the structure that produced the
snapshot — which is also how the forensics example builds its "stolen disk"
scenarios.

This module owns the one shard-image directory format, which
``snapshot_shards``, the durability checkpoints and the erasure audit share:
one page geometry (:data:`PAGE_SIZE`, :data:`PAYLOAD_SIZE`),
:func:`write_image`/:func:`read_image` (one image and its manifest entry),
:func:`load_image` (the one loader of an image into a structure),
:func:`decode_slot` and :func:`write_manifest`/:func:`read_manifest`.

It is also the durable store's one write seam: besides the images, every
atomic file replacement (:func:`replace_file`: the manifest, op-log
compaction) and every release of a file's blocks (:func:`release_files`:
unlinks and truncations) goes through here.  Op-log appends stay on the
log's own handle.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro._rng import RandomLike, make_rng
from repro.errors import ConfigurationError
from repro.failpoints import trip
from repro.storage.encoding import PageCodec
from repro.storage.image import DiskImage
from repro.storage.pager import PagedFile

#: File name of the manifest written next to a directory's shard images.
MANIFEST_NAME = "manifest.json"

#: The page geometry of every shard image: 4 KiB pages of 64-byte payloads.
PAGE_SIZE = 4096
PAYLOAD_SIZE = 64

#: Manifest format version this build writes.  Version 2 added the
#: ``version`` field and per-shard checksums; manifests without one (version
#: 1) still load, newer versions are rejected rather than half-understood.
MANIFEST_VERSION = 2


@dataclass(frozen=True)
class SnapshotMetadata:
    """Everything needed to decode a snapshot written by this module."""

    kind: str
    num_slots: int
    num_pages: int
    page_size: int
    payload_size: int
    page_order: Tuple[int, ...]

    def codec(self) -> PageCodec:
        """The page codec matching this snapshot's geometry."""
        return PageCodec(page_size=self.page_size, payload_size=self.payload_size)


def snapshot_records(slots: Sequence[object],
                     page_size: int = PAGE_SIZE,
                     payload_size: int = PAYLOAD_SIZE,
                     path: Optional[str] = None,
                     shuffle_pages: bool = False,
                     seed: RandomLike = None,
                     kind: str = "records",
                     fsync: bool = False) -> Tuple[PagedFile, SnapshotMetadata]:
    """Write a slot sequence to a paged file in one pass, encoding each
    page just before it is written (one encoded page is held at a time).

    Parameters
    ----------
    slots:
        The slot values (``None`` marks a gap).  Values must be encodable by
        :class:`repro.storage.encoding.RecordCodec`.
    page_size, payload_size:
        Page geometry; ``payload_size`` bounds the encoded size of one slot.
    path:
        Optional file path; omitted means an in-memory paged file.  An
        existing file is emptied first.
    shuffle_pages:
        When ``True`` the logical pages are written to physical positions
        given by a uniformly random permutation (fresh randomness per
        snapshot), modelling history-independent allocation of the pages
        themselves.  The permutation is recorded in the metadata so the
        snapshot can still be decoded in logical order.
    seed:
        Randomness for the page permutation.
    kind:
        Free-form label recorded in the metadata (e.g. ``"hi-pma"``).
    fsync:
        Make a file-backed snapshot durable before returning (through the
        handle that wrote it).
    """
    codec = PageCodec(page_size=page_size, payload_size=payload_size)
    per_page = codec.slots_per_page
    # An empty sequence still makes one (empty) page.
    order = list(range(max(1, -(-len(slots) // per_page))))
    if shuffle_pages:
        make_rng(seed).shuffle(order)
    paged_file = PagedFile(page_size=page_size, path=path)
    paged_file.truncate()  # an older, longer image must leave no tail behind
    paged_file.write_pages(
        ((physical, codec.encode_page(
            slots[logical * per_page:(logical + 1) * per_page]))
         for logical, physical in enumerate(order)), fsync=fsync)
    metadata = SnapshotMetadata(kind=kind,
                                num_slots=len(slots),
                                num_pages=len(order),
                                page_size=page_size,
                                payload_size=payload_size,
                                page_order=tuple(order))
    return paged_file, metadata


def snapshot_structure(structure: object,
                       page_size: int = PAGE_SIZE,
                       payload_size: int = PAYLOAD_SIZE,
                       path: Optional[str] = None,
                       shuffle_pages: bool = False,
                       seed: RandomLike = None) -> Tuple[PagedFile, SnapshotMetadata]:
    """Snapshot any structure exposing ``slots()`` (PMAs, leaf nodes, ...).

    The structure's class name is recorded as the snapshot kind.  Structures
    without a slot array (e.g. the skip list, whose representation is a
    collection of nodes) should snapshot their components individually or use
    :func:`snapshot_records` with a flattened representation.
    """
    slots_method = getattr(structure, "slots", None)
    if not callable(slots_method):
        raise ConfigurationError(
            "%s does not expose slots(); use snapshot_records instead"
            % (type(structure).__name__,))
    return snapshot_records(slots_method(),
                            page_size=page_size,
                            payload_size=payload_size,
                            path=path,
                            shuffle_pages=shuffle_pages,
                            seed=seed,
                            kind=type(structure).__name__)


def load_records(source: Union[PagedFile, DiskImage],
                 metadata: SnapshotMetadata) -> List[object]:
    """Decode a snapshot back into its logical slot list.

    ``source`` may be the paged file returned by the snapshot call or a
    :class:`DiskImage` captured from it (the observer path).  Pages are
    re-ordered according to the metadata's recorded permutation before
    decoding, then truncated to the recorded slot count.
    """
    codec = metadata.codec()
    if isinstance(source, DiskImage):
        physical_pages = list(source.pages())
    else:
        physical_pages = source.read_all()
    if len(physical_pages) < metadata.num_pages:
        raise ConfigurationError("snapshot has %d pages, metadata expects %d"
                                 % (len(physical_pages), metadata.num_pages))
    logical_pages = [physical_pages[metadata.page_order[logical]]
                     for logical in range(metadata.num_pages)]
    slots = codec.unpaginate(logical_pages)
    return slots[:metadata.num_slots]


def image_of(paged_file: PagedFile, metadata: SnapshotMetadata) -> DiskImage:
    """Capture the observer's view of a snapshot (no I/Os charged)."""
    return DiskImage.from_paged_file(paged_file, metadata.codec())


def file_checksum(path: str) -> str:
    """CRC-32 of a snapshot artifact's bytes, as ``"crc32:xxxxxxxx"``.

    Recorded next to each per-shard image in the sharded snapshot (and
    durability) manifests so a restore can reject a corrupt or truncated
    image with a clear error instead of decoding garbage.  CRC-32 matches
    the integrity tier of the op log's frame checksums: this guards against
    storage rot and torn writes, not adversaries.
    """
    crc = 0
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                crc = zlib.crc32(chunk, crc)
    except OSError as error:
        raise ConfigurationError(
            "cannot checksum snapshot artifact %r: %s"
            % (path, error)) from error
    return "crc32:%08x" % crc


def fsync_directory(directory: str) -> None:
    """Make the renames and unlinks in ``directory`` durable (best effort).

    Neither ``os.replace`` nor ``os.unlink`` is durable until the directory
    is synced: a machine crash could resurrect the old entry, which in
    secure durability mode would resurrect deleted keys.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def replace_file(path: str, data: bytes, *, scratch: str,
                 fsync: bool = True, failpoint: Optional[str] = None) -> None:
    """Replace ``path`` with ``data`` atomically: write ``scratch``, fsync
    it, trip ``failpoint`` (a :mod:`repro.failpoints` name), rename it over
    ``path``, fsync the directory.  ``fsync=False`` skips both fsyncs."""
    with open(scratch, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if failpoint is not None:
        trip(failpoint)
    os.replace(scratch, path)
    if fsync:
        fsync_directory(os.path.dirname(os.path.abspath(path)))


def release_files(paths: Sequence[str], *, fsync: bool,
                  size: Optional[int] = None) -> None:
    """Unlink each of ``paths`` that exists, or cut each to ``size`` bytes.

    With ``fsync`` the release is durable on return (a block that came
    back after a machine crash could hold a deleted key): each cut file is
    fsynced, and each directory that lost an entry is fsynced once.
    """
    directories: List[str] = []
    for path in paths:
        if size is not None:
            with open(path, "r+b") as handle:
                handle.truncate(size)
                if fsync:
                    os.fsync(handle.fileno())
            continue
        try:
            os.unlink(path)
        except FileNotFoundError:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if directory not in directories:
            directories.append(directory)
    if fsync:
        for directory in directories:
            fsync_directory(directory)


def write_image(directory: str, file_name: str, slots: Sequence[object], *,
                kind: str, fsync: bool = False) -> Dict[str, object]:
    """Write one shard image (:func:`snapshot_records` in the shard-image
    geometry, from an empty file) into ``directory``; return its manifest
    entry: file name, checksum and the :class:`SnapshotMetadata` fields."""
    path = os.path.join(directory, file_name)
    _paged, metadata = snapshot_records(slots, path=path, kind=kind,
                                        fsync=fsync)
    entry = {"file": file_name, "checksum": file_checksum(path)}
    entry.update(asdict(metadata), page_order=list(metadata.page_order))
    return entry


def read_image(directory: str, entry: Mapping[str, object], index: int,
               verify: bool = True) -> List[object]:
    """Decode the image of ``entry``, the manifest's shard entry ``index``,
    into slots.

    With ``verify`` a recorded checksum must match the file; the erasure
    audit turns it off, because an observer decodes whatever is on disk.
    A malformed entry or a bad image raises
    :class:`~repro.errors.ConfigurationError` naming the entry.
    """
    where = "%s shard entry %d" % (os.path.join(directory, MANIFEST_NAME),
                                   index)
    try:
        metadata = SnapshotMetadata(
            kind=entry["kind"], num_slots=entry["num_slots"],
            num_pages=entry["num_pages"], page_size=entry["page_size"],
            payload_size=entry["payload_size"],
            page_order=tuple(entry["page_order"]))
        path = os.path.join(directory, entry["file"])
    except (KeyError, TypeError) as error:
        raise ConfigurationError("manifest %s is malformed: %r"
                                 % (where, error)) from error
    recorded = entry.get("checksum")
    if verify and recorded is not None:
        actual = file_checksum(path)
        if actual != recorded:
            raise ConfigurationError(
                "shard image %r (manifest %s) is corrupt or truncated: "
                "checksum %s does not match the manifest's %s"
                % (path, where, actual, recorded))
    return load_records(PagedFile(page_size=metadata.page_size, path=path),
                        metadata)


def decode_slot(slot: object) -> Tuple[object, object]:
    """The ``(key, value)`` of a non-gap image slot: pair slots stay pairs,
    a bare key means ``(key, None)`` (every structure writes pair slots;
    an older build wrote the skip list's and the PMAs' keys bare)."""
    if isinstance(slot, tuple) and len(slot) == 2:
        return slot
    return slot, None


def load_image(structure: object, directory: str,
               entry: Mapping[str, object], index: int) -> int:
    """Insert every record of ``entry``'s image (the manifest's shard entry
    ``index``, checksum verified) into ``structure``, in image order, with
    one ``insert_many``; returns the count."""
    from repro.api.protocol import insert_pairs

    return insert_pairs(structure, (decode_slot(slot) for slot
                                    in read_image(directory, entry, index)
                                    if slot is not None))


def write_manifest(directory: str, manifest: Mapping[str, object]) -> None:
    """Replace ``directory``'s manifest atomically and durably
    (:func:`replace_file`)."""
    path = os.path.join(directory, MANIFEST_NAME)
    replace_file(path, json.dumps(manifest, indent=2).encode("utf-8"),
                 scratch=path + ".tmp")


def read_manifest(directory: str) -> Dict[str, object]:
    """Load ``directory``'s manifest, or raise
    :class:`~repro.errors.ConfigurationError`: its version must be 1 to
    :data:`MANIFEST_VERSION`, and ``inner``, ``shard_ids`` (when present)
    and ``shards`` must hold one item for each of ``num_shards``."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            "cannot read shard-image manifest %r: %s" % (path, error)
        ) from error
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            "shard-image manifest %r is malformed" % (path,))
    version = manifest.get("version", 1)
    if not isinstance(version, int) or isinstance(version, bool) \
            or not 1 <= version <= MANIFEST_VERSION:
        raise ConfigurationError(
            "shard-image manifest %r has format version %r; this build "
            "reads 1 to %d" % (path, version, MANIFEST_VERSION))
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or isinstance(num_shards, bool) \
            or not all(isinstance(items, list) and len(items) == num_shards
                       for items in (manifest.get("inner"),
                                     manifest.get("shards"),
                                     manifest.get("shard_ids",
                                                  manifest.get("inner")))):
        raise ConfigurationError(
            "shard-image manifest %r is malformed" % (path,))
    return manifest

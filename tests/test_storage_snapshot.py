"""Disk images and structure snapshots: round trips and observer views."""

import os
import random

import pytest

from repro.api import DictionaryEngine, EngineConfig, make_sharded_engine
from repro.core.hi_pma import HistoryIndependentPMA
from repro.errors import CapacityError, ConfigurationError
from repro.history.forensics import audit_durability_dir
from repro.pma.classic import ClassicPMA
from repro.storage import (
    DiskImage,
    PageCodec,
    PagedFile,
    image_of,
    load_records,
    snapshot_records,
    snapshot_structure,
)

pytestmark = pytest.mark.fast


# --------------------------------------------------------------------------- #
# snapshot_records / load_records
# --------------------------------------------------------------------------- #

def test_records_round_trip_in_memory():
    slots = [1, None, "two", None, (3, "three")] * 40
    paged_file, metadata = snapshot_records(slots, page_size=512, payload_size=32)
    assert metadata.num_slots == len(slots)
    assert load_records(paged_file, metadata) == slots


def test_records_round_trip_through_disk_image():
    slots = list(range(50)) + [None] * 10
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24)
    image = image_of(paged_file, metadata)
    assert load_records(image, metadata) == slots


def test_records_round_trip_file_backed(tmp_path):
    path = str(tmp_path / "records.db")
    slots = ["alpha", None, "beta", 7]
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24,
                                            path=path)
    reopened = PagedFile(page_size=256, path=path)
    assert len(reopened) == len(paged_file)
    assert load_records(reopened, metadata) == slots


def test_shuffled_pages_still_round_trip():
    slots = list(range(500))
    plain_file, plain_meta = snapshot_records(slots, page_size=256, payload_size=24)
    shuffled_file, shuffled_meta = snapshot_records(
        slots, page_size=256, payload_size=24, shuffle_pages=True, seed=3)
    assert load_records(plain_file, plain_meta) == slots
    assert load_records(shuffled_file, shuffled_meta) == slots
    # The physical layouts genuinely differ (with overwhelming probability).
    assert plain_meta.page_order != shuffled_meta.page_order


def test_an_image_is_written_and_read_through_one_handle_each(
        tmp_path, monkeypatch):
    """A multi-page shard image opens its file at most twice to be written
    (the pages, fsynced on their handle, and the checksum) and twice to
    be loaded (the checksum and the pages), not once per page, and the
    bytes are those of a page-by-page write."""
    import builtins

    from repro.skiplist.external import HistoryIndependentSkipList
    from repro.storage.snapshot import PAGE_SIZE, load_image, write_image

    skiplist = HistoryIndependentSkipList(block_size=32, seed=5)
    skiplist.insert_many((key, -key) for key in range(1, 4001))
    slots = skiplist.snapshot_slots()
    reference = PagedFile(page_size=PAGE_SIZE,
                          path=str(tmp_path / "reference.img"))
    pages = snapshot_records(slots, kind="hi-skiplist")[0].peek_all()
    for number, page in enumerate(pages):
        reference.write_page(number, page)
    assert len(pages) > 10
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    entry = write_image(str(tmp_path), "shard.img", slots, kind="hi-skiplist",
                        fsync=True)
    assert len(opened) <= 2
    del opened[:]
    loaded = HistoryIndependentSkipList(block_size=32, seed=5)
    assert load_image(loaded, str(tmp_path), entry, 0) == 4000
    assert len(opened) <= 2
    monkeypatch.undo()
    assert (tmp_path / "shard.img").read_bytes() \
        == (tmp_path / "reference.img").read_bytes()
    assert loaded.memory_representation() == skiplist.memory_representation()


def test_load_rejects_truncated_snapshot():
    slots = list(range(100))
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24)
    truncated = PagedFile(page_size=256)
    truncated.write_page(0, paged_file.peek_page(0))
    with pytest.raises(ConfigurationError):
        load_records(truncated, metadata)


# --------------------------------------------------------------------------- #
# A rewritten image keeps nothing of an older, longer one
# --------------------------------------------------------------------------- #

def test_a_resnapshot_leaves_no_trace_of_deleted_keys(tmp_path):
    directory = str(tmp_path / "shards")
    engine = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                              seed=3, block_size=8))
    engine.insert_many((key, key) for key in range(1, 2001))
    engine.snapshot_shards(directory)
    engine.delete_many(range(1, 1901))
    manifest = engine.snapshot_shards(directory)
    for entry in manifest["shards"]:
        assert os.path.getsize(os.path.join(directory, entry["file"])) \
            == entry["num_pages"] * entry["page_size"]
    report = audit_durability_dir(directory, range(1, 1901))
    assert report.clean, report.findings[:3]


def test_a_dictionary_snapshot_rewrites_its_file_from_empty(tmp_path):
    path = str(tmp_path / "dictionary.img")
    engine = DictionaryEngine.create("b-tree", block_size=8, seed=3)
    engine.insert_many((key, key) for key in range(1, 2001))
    engine.snapshot(path)
    engine.delete_many(range(1, 1901))
    _paged, metadata = engine.snapshot(path)
    assert os.path.getsize(path) == metadata.num_pages * metadata.page_size
    assert audit_durability_dir(str(tmp_path), range(1, 1901)).clean


# --------------------------------------------------------------------------- #
# snapshot_structure
# --------------------------------------------------------------------------- #

def test_snapshot_hi_pma_preserves_contents_and_gaps():
    pma = HistoryIndependentPMA(seed=0)
    for value in range(300):
        pma.append(value)
    paged_file, metadata = snapshot_structure(pma, page_size=1024, payload_size=32)
    assert metadata.kind == "HistoryIndependentPMA"
    decoded = load_records(paged_file, metadata)
    assert decoded == list(pma.slots())
    assert [value for value in decoded if value is not None] == list(range(300))


def test_snapshot_classic_pma():
    pma = ClassicPMA()
    for value in range(200):
        pma.append(value)
    paged_file, metadata = snapshot_structure(pma, page_size=1024, payload_size=32)
    decoded = load_records(paged_file, metadata)
    assert [value for value in decoded if value is not None] == list(range(200))


def test_snapshot_structure_requires_slots_method():
    with pytest.raises(ConfigurationError):
        snapshot_structure(object())


# --------------------------------------------------------------------------- #
# DiskImage
# --------------------------------------------------------------------------- #

def test_disk_image_equality_and_fingerprint():
    slots = list(range(64))
    file_a, meta_a = snapshot_records(slots, page_size=256, payload_size=24)
    file_b, _meta_b = snapshot_records(slots, page_size=256, payload_size=24)
    image_a = image_of(file_a, meta_a)
    image_b = image_of(file_b, meta_a)
    assert image_a == image_b
    assert image_a.fingerprint() == image_b.fingerprint()
    assert not image_a.diff_pages(image_b)


def test_disk_image_detects_differences():
    file_a, meta = snapshot_records(list(range(64)), page_size=256, payload_size=24)
    file_b, _ = snapshot_records(list(range(63)) + [999], page_size=256,
                                 payload_size=24)
    image_a = image_of(file_a, meta)
    image_b = image_of(file_b, meta)
    assert image_a != image_b
    assert image_a.diff_pages(image_b)


def test_disk_image_rejects_misaligned_pages():
    codec = PageCodec(page_size=256, payload_size=24)
    with pytest.raises(ConfigurationError):
        DiskImage([b"\x00" * 100], codec)


def test_occupancy_profile_flat_for_full_array():
    slots = list(range(128))
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24)
    image = image_of(paged_file, metadata)
    profile = image.occupancy_profile(buckets=8)
    assert len(profile) == 8
    assert all(0.9 <= value <= 1.0 for value in profile[:-1])


def test_occupancy_profile_sees_a_hole():
    slots = list(range(64)) + [None] * 64 + list(range(64))
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24)
    image = image_of(paged_file, metadata)
    profile = image.occupancy_profile(buckets=3)
    assert profile[1] < profile[0]
    assert profile[1] < profile[2]


def test_gap_run_lengths():
    slots = [1, None, None, 2, None, 3, None, None, None]
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24)
    image = image_of(paged_file, metadata)
    runs = image.gap_run_lengths()
    # The final page is padded with encoded gap slots, so the trailing run may
    # be longer than 3; the interior runs must match exactly.
    assert runs[0] == 2
    assert runs[1] == 1
    assert runs[2] >= 3


def test_stored_values_skips_gaps():
    slots = [None, "a", None, "b"]
    paged_file, metadata = snapshot_records(slots, page_size=256, payload_size=24)
    image = image_of(paged_file, metadata)
    assert image.stored_values() == ["a", "b"]


def test_snapshot_images_of_same_hi_pma_state_can_differ_across_seeds():
    """Two independently built HI PMAs with equal content need not be identical.

    History independence is about *distributions*; individual snapshots use
    fresh randomness and generally differ — this guards against the storage
    layer accidentally canonicalising (which would be a stronger property
    than the structure provides and would mask bugs in the audit tooling).
    """
    values = list(range(400))
    rng = random.Random(0)
    first = HistoryIndependentPMA(seed=rng.getrandbits(64))
    second = HistoryIndependentPMA(seed=rng.getrandbits(64))
    for value in values:
        first.append(value)
        second.append(value)
    image_first = image_of(*snapshot_structure(first, page_size=1024, payload_size=32))
    image_second = image_of(*snapshot_structure(second, page_size=1024, payload_size=32))
    assert image_first.stored_values() == image_second.stored_values()


@pytest.mark.parametrize("inner", ["hi-skiplist", "hi-pma"])
def test_an_image_holds_each_keys_value_and_refuses_a_pair_too_large(
        tmp_path, inner):
    """An image of a slot layout holds ``(key, value)`` records in the
    layout's slots, gaps where the layout has gaps, and a pair too large
    for a record is refused with ``CapacityError`` by ``write_image``."""
    from repro.api import make_dictionary
    from repro.storage.snapshot import read_image, write_image

    structure = make_dictionary(inner, block_size=8, seed=4)
    structure.insert_many((key, -key) for key in range(1, 31))
    slots = list(structure.snapshot_slots())
    assert [slot for slot in slots if slot is not None] \
        == [(key, -key) for key in range(1, 31)]
    assert None in slots
    entry = write_image(str(tmp_path), "shard.img", slots, kind=inner)
    assert read_image(str(tmp_path), entry, 0) == slots
    structure.upsert(7, "x" * 200)
    with pytest.raises(CapacityError):
        write_image(str(tmp_path), "big.img", structure.snapshot_slots(),
                    kind=inner)

"""Verified erasure: ``durability_mode="secure"`` leaves no trace on disk.

PR 5 made the paper's history-independent dictionaries durable, but the
default op log records every mutation — a stolen durability directory
leaks exactly the operation history the HI structures are built to hide.
This tier pins the ISSUE 7 acceptance bar for the fix:

* **Byte-level erasure** — after deleting a key set and reaching a
  ``barrier()`` in secure mode, a raw substring scan of *every file* in
  the durability directory finds no encoding of any deleted key (neither
  the bare-key record of a delete frame nor the nested key half of a
  pair record), and :func:`repro.history.forensics.audit_durability_dir`
  reports the directory clean.
* **Failing control** — the same trace under the default
  ``durability_mode="logged"`` must leak: the auditor finds the delete
  frames, mirroring ``test_history_independence.py``'s classic-structure
  baselines.  If the control stops failing, the test has gone blind.
* **Recovery identity** — a secure store recovered after ``SIGKILL``
  (and cold-opened from disk alone) is digest-identical, on the
  canonical HI tier, to a fresh build of the surviving keys.
* **Crash-window compaction** — the ``oplog.compact.rename`` fail point
  pins the write-new-then-atomic-rename fix: a crash between scratch
  write and rename leaves the old log intact (recoverable) plus an
  orphaned scratch file, and recovery sweeps the scratch and completes
  the redaction.

Scale: ``REPRO_ERASURE_KEYS`` raises the key count of the main erasure
scenario (default 1000; the recovery benchmark drives the same scenario
toward 10^6 keys).
"""

from __future__ import annotations

import os

import pytest

from repro.api import EngineConfig, audit_fingerprint_of, make_sharded_engine
from repro.errors import ConfigurationError, WorkerCrashError
from repro.history.forensics import (
    audit_durability_dir,
    key_trace_patterns,
    scan_bytes_for_keys,
)
from repro.replication import DURABILITY_MODES, open_durable_engine, read_ops
from repro.replication.recovery import load_manifest
from repro.storage import image_of
from repro.storage.snapshot import read_image, snapshot_records

pytestmark = pytest.mark.fast

BLOCK_SIZE = 16
SEED = 20160626
PAYLOAD_SIZE = 64  # the replication layer's codec geometry


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #

def erasure_entries(count):
    """Entries whose key and value spaces are disjoint.

    Values live at ``10**9 + i`` so a deleted *key's* byte pattern can
    never collide with a surviving entry's *value* payload — the raw
    substring scans below are then exact, not probabilistic.
    """
    return [(key, 10 ** 9 + key) for key in range(count)]


def doomed_keys(entries):
    """Every third key: the set the store is asked to forget."""
    return [key for key, _value in entries[::3]]


def build_secure(directory, shards=3, replication=2, **extra):
    return make_sharded_engine(EngineConfig(
        inner="b-treap", shards=shards, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=replication,
        durability_dir=str(directory), durability_mode="secure", **extra))


def build_logged(directory, shards=3, replication=2, **extra):
    return make_sharded_engine(EngineConfig(
        inner="b-treap", shards=shards, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=replication,
        durability_dir=str(directory), durability_mode="logged", **extra))


def shard_layout(shard):
    """A shard's full canonical layout, from its worker if hosted."""
    primary = getattr(shard, "primary", None)
    if primary is not None:
        return primary.call("memory_representation")
    return shard.memory_representation()


def layout_digest(structure):
    """The full physical observable: audit fingerprint, snapshot bytes and
    every shard's canonical layout.  The layouts are what tell a b-treap's
    seed apart: its fingerprint is the height and its slots are sorted."""
    paged, metadata = snapshot_records(list(structure.snapshot_slots()),
                                       page_size=512, payload_size=64)
    return (audit_fingerprint_of(structure),
            image_of(paged, metadata).fingerprint(),
            [shard_layout(shard) for shard in structure.shards])


def raw_scan(directory, keys):
    """Substring-scan every file in ``directory`` for the keys' encodings.

    Deliberately independent of the auditor's structured passes: the
    acceptance criterion is about *bytes on disk*, so this helper reads
    each file and greps it, nothing more.
    """
    hits = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            blob = handle.read()
        for key, offset in scan_bytes_for_keys(blob, keys,
                                               payload_size=PAYLOAD_SIZE):
            hits.append((name, key, offset))
    return hits


def oplog_files(directory):
    return [name for name in sorted(os.listdir(directory))
            if name.endswith(".oplog")]


def fresh_digest_of(items, shards):
    """Layout digest of a never-crashed sequential build of ``items``."""
    fresh = make_sharded_engine(EngineConfig(inner="b-treap", shards=shards,
                                             block_size=BLOCK_SIZE, seed=SEED,
                                             router="consistent"))
    fresh.insert_many(items)
    return layout_digest(fresh.structure)


@pytest.fixture
def failpoints(monkeypatch):
    def arm(spec):
        monkeypatch.setenv("REPRO_FAILPOINTS", spec)

    def disarm():
        monkeypatch.delenv("REPRO_FAILPOINTS", raising=False)

    yield arm, disarm
    disarm()


# --------------------------------------------------------------------------- #
# Mode plumbing
# --------------------------------------------------------------------------- #

def test_durability_modes_are_validated(tmp_path):
    assert DURABILITY_MODES == ("logged", "secure")
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-treap", parallel="process",
                                         durability_dir=str(tmp_path / "d"),
                                         durability_mode="paranoid"))
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-treap", parallel="process",
                                         durability_mode="secure"))


def test_barrier_requires_a_durability_dir():
    engine = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=2, seed=SEED, block_size=BLOCK_SIZE,
        parallel="process", replication=2))
    try:
        with pytest.raises(ConfigurationError):
            engine.barrier()
    finally:
        engine.close()


def test_manifest_records_and_cold_open_restores_the_mode(tmp_path):
    directory = str(tmp_path / "d")
    engine = build_secure(directory, shards=2, replication=1)
    try:
        assert engine.durability_mode == "secure"
        engine.insert_many(erasure_entries(40))
        engine.checkpoint()
    finally:
        engine.close()
    assert load_manifest(directory)["durability_mode"] == "secure"
    with open_durable_engine(directory) as reopened:
        assert reopened.durability_mode == "secure"
    with open_durable_engine(directory,
                             durability_mode="logged") as downgraded:
        assert downgraded.durability_mode == "logged"


# --------------------------------------------------------------------------- #
# Barrier semantics: logged keeps history, secure redacts it
# --------------------------------------------------------------------------- #

def test_logged_barrier_preserves_frames_and_generation(tmp_path):
    directory = str(tmp_path / "d")
    entries = erasure_entries(60)
    doomed = doomed_keys(entries)
    engine = build_logged(directory, shards=2, replication=1)
    try:
        generation = load_manifest(directory)["generation"]
        engine.insert_many(entries)
        engine.delete_many(doomed)
        report = engine.barrier()
        assert report == {"deletes": len(doomed), "redacted": False}
        assert load_manifest(directory)["generation"] == generation
        replayed = [op for name in oplog_files(directory)
                    for op in read_ops(os.path.join(directory, name),
                                       payload_size=PAYLOAD_SIZE)]
        assert len(replayed) == len(entries) + len(doomed)
        assert sum(1 for op, _k, _v in replayed if op == "delete") \
            == len(doomed)
    finally:
        engine.close()


def test_secure_barrier_without_deletes_does_not_checkpoint(tmp_path):
    directory = str(tmp_path / "d")
    engine = build_secure(directory, shards=2, replication=1)
    try:
        generation = load_manifest(directory)["generation"]
        engine.insert_many(erasure_entries(40))
        report = engine.barrier()
        assert report == {"deletes": 0, "redacted": False}
        assert load_manifest(directory)["generation"] == generation
        assert engine.telemetry()["erasure.redactions"] == 0
    finally:
        engine.close()


def test_secure_barrier_with_deletes_redacts_and_rotates_generation(
        tmp_path):
    directory = str(tmp_path / "d")
    entries = erasure_entries(60)
    doomed = doomed_keys(entries)
    engine = build_secure(directory, shards=2, replication=1)
    try:
        generation = load_manifest(directory)["generation"]
        engine.insert_many(entries)
        engine.delete_many(doomed)
        report = engine.barrier()
        assert report == {"deletes": len(doomed), "redacted": True}
        assert load_manifest(directory)["generation"] > generation
        for name in oplog_files(directory):
            assert list(read_ops(os.path.join(directory, name),
                                 payload_size=PAYLOAD_SIZE)) == []
    finally:
        engine.close()


def test_erasure_stats_are_deterministic(tmp_path):
    def run(directory):
        entries = erasure_entries(80)
        engine = build_secure(directory, shards=3, replication=2)
        try:
            engine.insert_many(entries)
            engine.barrier()
            engine.delete_many(doomed_keys(entries))
            engine.barrier()
            return {name[len("erasure."):]: value
                    for name, value in engine.telemetry().items()
                    if name.startswith("erasure.")}
        finally:
            engine.close()

    first = run(str(tmp_path / "a"))
    second = run(str(tmp_path / "b"))
    assert first == second
    assert first["barriers"] == 2
    assert first["redactions"] == 1
    assert first["deletes_flushed"] == len(doomed_keys(erasure_entries(80)))


# --------------------------------------------------------------------------- #
# The acceptance bar: byte-level erasure at scale + the failing control
# --------------------------------------------------------------------------- #

def test_logged_mode_leaks_deleted_keys_the_failing_control(tmp_path):
    """The control: the default mode MUST leak, or the scan is blind."""
    directory = str(tmp_path / "d")
    entries = erasure_entries(90)
    doomed = doomed_keys(entries)
    engine = build_logged(directory)
    try:
        engine.insert_many(entries)
        engine.delete_many(doomed)
        engine.barrier()
    finally:
        engine.close()
    hits = raw_scan(directory, doomed)
    assert {key for _name, key, _at in hits} == set(doomed)
    report = audit_durability_dir(directory, doomed,
                                  payload_size=PAYLOAD_SIZE)
    assert not report.clean
    delete_frames = [finding for finding in report.findings
                     if finding.kind == "oplog-frame"
                     and finding.detail.startswith("delete")]
    assert {finding.key for finding in delete_frames} == set(doomed)


def test_a_deleted_key_in_a_skip_list_images_pair_record_is_found(tmp_path):
    """hi-skiplist images hold ``(key, value)`` records: in logged mode a
    key deleted after a checkpoint stays in its pair record of the old
    image, and the auditor finds it there (an ``image-slot`` finding) and
    in the raw bytes (the nested key half of the pair)."""
    directory = str(tmp_path / "d")
    entries = erasure_entries(60)
    doomed = [7, 30]
    engine = make_sharded_engine(EngineConfig(
        inner="hi-skiplist", shards=2, block_size=BLOCK_SIZE, seed=SEED,
        parallel="process", durability_dir=directory,
        durability_mode="logged", fsync=False))
    try:
        engine.insert_many(entries)
        engine.checkpoint()
        engine.delete_many(doomed)
    finally:
        engine.close()
    images = [name for name in os.listdir(directory) if name.endswith(".img")]
    report = audit_durability_dir(directory, doomed,
                                  payload_size=PAYLOAD_SIZE)
    in_images = {(finding.file, finding.key) for finding in report.findings
                 if finding.kind == "image-slot"}
    assert {key for _file, key in in_images} == set(doomed)
    assert {name for name, _key, _at in raw_scan(directory, doomed)
            if name in images} == {file for file, _key in in_images}
    manifest = load_manifest(directory)
    slots = [slot for index, entry in enumerate(manifest["shards"])
             for slot in read_image(directory, entry, index)]
    assert {slot for slot in slots if slot is not None} == set(entries)


def test_secure_mode_erases_every_deleted_key_byte_for_byte(tmp_path):
    """ISSUE 7 acceptance (a) + (b), scaled by ``REPRO_ERASURE_KEYS``."""
    count = int(os.environ.get("REPRO_ERASURE_KEYS", "1000"))
    directory = str(tmp_path / "d")
    entries = erasure_entries(count)
    doomed = doomed_keys(entries)
    survivors = [(key, value) for key, value in entries
                 if key not in set(doomed)]
    engine = build_secure(directory)
    try:
        engine.insert_many(entries)
        engine.delete_many(doomed)
        report = engine.barrier()
        assert report == {"deletes": len(doomed), "redacted": True}
        assert sorted(engine.items()) == sorted(survivors)
    finally:
        engine.close()
    # (a) no encoding of any deleted key anywhere in the directory —
    # neither the raw substring scan nor the structured auditor finds one.
    assert raw_scan(directory, doomed) == []
    audit = audit_durability_dir(directory, doomed,
                                 payload_size=PAYLOAD_SIZE)
    assert audit.clean
    assert audit.bytes_scanned > 0
    assert set(audit.files_scanned) >= set(oplog_files(directory))
    # ...while the surviving keys are of course still present on disk.
    surviving_sample = [key for key, _value in survivors[:8]]
    assert {key for _n, key, _a in raw_scan(directory, surviving_sample)} \
        == set(surviving_sample)
    # (b) recovery from disk alone is digest-identical to a fresh build
    # of the surviving keys: the store remembers *what* it holds, not how.
    with open_durable_engine(directory) as recovered:
        assert recovered.durability_mode == "secure"
        assert sorted(recovered.items()) == sorted(survivors)
        assert layout_digest(recovered.structure) \
            == fresh_digest_of(survivors, recovered.num_shards)


def test_secure_recovery_after_sigkill_stays_clean_and_canonical(tmp_path):
    import signal
    import time

    directory = str(tmp_path / "d")
    entries = erasure_entries(150)
    doomed = doomed_keys(entries)
    engine = build_secure(directory)
    try:
        engine.insert_many(entries)
        engine.delete_many(doomed)
        engine.barrier()
        os.kill(engine.worker_pids()[1], signal.SIGKILL)
        deadline = time.time() + 5.0
        while time.time() < deadline and 1 not in \
                engine.dead_shard_positions():
            time.sleep(0.02)
        assert 1 in engine.dead_shard_positions()
        report = engine.recover()
        assert report.positions
        survivors = sorted(engine.items())
        assert survivors == sorted((key, value) for key, value in entries
                                   if key not in set(doomed))
        assert layout_digest(engine.structure) \
            == fresh_digest_of(survivors, engine.num_shards)
    finally:
        engine.close()
    assert audit_durability_dir(directory, doomed,
                                payload_size=PAYLOAD_SIZE).clean


# --------------------------------------------------------------------------- #
# The compaction crash window (the bugfix this PR pins)
# --------------------------------------------------------------------------- #

def test_compaction_crash_window_keeps_the_old_log_and_sweeps_scratch(
        tmp_path, failpoints):
    """Crash between scratch write and rename: nothing is lost, and the
    orphaned scratch never outlives the next open."""
    arm, disarm = failpoints
    # Construction's initial checkpoint compacts once per worker (counts
    # are per process); the redacting barrier's compaction is the second.
    arm("oplog.compact.rename:2")
    directory = str(tmp_path / "d")
    entries = erasure_entries(80)
    doomed = doomed_keys(entries)
    engine = build_secure(directory, shards=2, replication=1)
    try:
        engine.insert_many(entries)
        engine.delete_many(doomed)
        with pytest.raises(WorkerCrashError):
            engine.barrier()  # redaction checkpoint dies mid-compaction
        disarm()
        # The crash window: old logs intact (every frame still replays),
        # scratch files on disk, deleted keys still recoverable — the
        # redaction visibly did NOT commit.
        scratch = [name for name in sorted(os.listdir(directory))
                   if name.endswith(".oplog.compact")]
        assert scratch
        replayed = [op for name in oplog_files(directory)
                    for op in read_ops(os.path.join(directory, name),
                                       payload_size=PAYLOAD_SIZE)]
        assert len(replayed) == len(entries) + len(doomed)
        assert not audit_durability_dir(directory, doomed,
                                        payload_size=PAYLOAD_SIZE).clean
        # Recovery reopens every log (sweeping scratch) and, because the
        # engine is durable, ends with a fresh checkpoint — which in
        # secure mode completes the interrupted redaction.
        report = engine.recover()
        assert report.positions
        assert not [name for name in os.listdir(directory)
                    if name.endswith(".oplog.compact")]
        survivors = sorted(engine.items())
        assert survivors == sorted((key, value) for key, value in entries
                                   if key not in set(doomed))
        assert layout_digest(engine.structure) \
            == fresh_digest_of(survivors, engine.num_shards)
    finally:
        engine.close()
    assert audit_durability_dir(directory, doomed,
                                payload_size=PAYLOAD_SIZE).clean


def test_cli_recover_verify_erased_round_trip(tmp_path):
    """``repro recover --verify-erased`` is the auditor behind a flag."""
    import io

    from repro.cli import main

    directory = str(tmp_path / "store")
    entries = erasure_entries(60)
    doomed = doomed_keys(entries)
    engine = build_secure(directory, shards=2, replication=1)
    try:
        engine.insert_many(entries)
        engine.delete_many(doomed)
        engine.barrier()
    finally:
        engine.close()
    spec = ",".join(str(key) for key in doomed)
    out = io.StringIO()
    assert main(["recover", "--dir", directory,
                 "--verify-erased", spec], out=out) == 0
    listing = out.getvalue()
    assert "durability mode : secure" in listing
    assert "erasure audit   : clean" in listing
    # A surviving key is of course still on disk: the flag must fail.
    survivor = next(key for key, _value in entries
                    if key not in set(doomed))
    out = io.StringIO()
    assert main(["recover", "--dir", directory,
                 "--verify-erased", str(survivor)], out=out) == 1
    assert "TRACES FOUND" in out.getvalue()
    out = io.StringIO()
    assert main(["recover", "--dir", directory,
                 "--verify-erased", "not-a-key"], out=out) == 2


def test_key_trace_patterns_match_real_frame_bytes(tmp_path):
    """The needles the scans grep for do match what the log writes."""
    from repro.replication.oplog import OpLog

    path = str(tmp_path / "probe.oplog")
    with OpLog(path, payload_size=PAYLOAD_SIZE) as log:
        log.append("insert", 42, 10 ** 9 + 42)
        log.append("delete", 42, None)
    with open(path, "rb") as handle:
        blob = handle.read()
    record_pattern, nested_pattern = key_trace_patterns(
        42, payload_size=PAYLOAD_SIZE)
    assert record_pattern in blob   # the delete frame's bare-key record
    assert nested_pattern in blob   # the key half of the insert's pair
    assert {key for key, _at in
            scan_bytes_for_keys(blob, [42, 43],
                                payload_size=PAYLOAD_SIZE)} == {42}

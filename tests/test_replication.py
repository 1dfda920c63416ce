"""Durability & replication: op log, replica failover, seeded recovery.

The contract under test is the ISSUE 5 acceptance bar: crash-and-recover a
process engine under load and the recovered engine's **canonical HI
digest**, key set, and ``io_stats()`` structure are byte-identical to an
identically-built engine that never crashed — for the snapshot + op-log
replay path and the replica-promotion path alike.  That assertion is the
paper's anti-persistence property doing operational work: recovery is
rebuilt from (key set, original seed) alone, so it cannot depend on the
failure history.

Crashes are injected two ways: ``SIGKILL`` between commands (the
well-defined "crash at an operation boundary" cases) and the
``REPRO_FAILPOINTS`` trip wires compiled into the worker hot paths (the
mid-``insert_many`` / mid-migration / mid-checkpoint cases, where the kill
must land *inside* a batch deterministically).  ``REPRO_START_METHOD``
switches every engine here between ``fork`` and ``spawn`` — CI runs the
whole file under both.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import time

import pytest

from repro.api import (
    EngineConfig,
    ProcessShardedDictionaryEngine,
    audit_fingerprint_of,
    make_dictionary,
    make_sharded_engine,
)
from repro.api.protocol import HIDictionary
from repro.api.sharded import ShardedDictionary, ShardedDictionaryEngine
from repro.errors import (
    CapacityError,
    ConfigurationError,
    DuplicateKey,
    KeyNotFound,
    ReplicationError,
    WorkerCrashError,
)
from repro.replication import OpLog, open_durable_engine, replica_targets
from repro.replication.oplog import replay_into
from repro.storage import image_of
from repro.storage.snapshot import (
    MANIFEST_VERSION,
    snapshot_records,
    write_image,
)

pytestmark = pytest.mark.fast

BLOCK_SIZE = 16
SEED = 20160626


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #

def build_engine(inner="b-treap", shards=3, replication=2,
                 durability_dir=None, seed=SEED, **extra):
    return make_sharded_engine(EngineConfig(
        inner=inner, shards=shards, block_size=BLOCK_SIZE, seed=seed,
        router="consistent", parallel="process", replication=replication,
        durability_dir=durability_dir, **extra))


def build_twin(inner="b-treap", shards=3, seed=SEED):
    """A sequential engine with identical construction (the PR 4 identity
    guarantee makes its layouts the reference for every process backend)."""
    return make_sharded_engine(EngineConfig(inner=inner, shards=shards,
                                            block_size=BLOCK_SIZE, seed=seed,
                                            router="consistent"))


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


def kill_worker(engine, position):
    """SIGKILL the worker hosting ``position``'s primary; wait until seen."""
    os.kill(engine.worker_pids()[position], signal.SIGKILL)
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if position in engine.dead_shard_positions():
            return
        time.sleep(0.02)
    raise AssertionError("worker for position %d never reported dead"
                         % position)


def entries_for(count, stride=7, modulus=2003):
    return [(key * stride % modulus, key) for key in range(count)]


def assert_matches_oracle(engine, oracle):
    """The differential-oracle acceptance: state and probe outcomes agree."""
    assert len(engine) == len(oracle)
    assert engine.items() == sorted(oracle.items())
    probe = list(range(0, 2003, 13))
    assert engine.contains_many(probe) == [key in oracle for key in probe]
    for key in probe[:10]:
        if key in oracle:
            assert engine.search(key) == oracle[key]
        else:
            with pytest.raises(KeyNotFound):
                engine.search(key)
    engine.check()


def assert_anti_persistence(engine, inner="b-treap", seed=SEED):
    """The recovered layout must equal a fresh build of its own key set.

    This is the canonical-HI digest tier applied to recovery: the engine's
    physical state may not remember *how* it got here (crashes, replays,
    promotions included) — only what it stores.  Valid for engines whose
    shard ids are still ``0..n-1`` (no removals), because the fresh build
    then draws the identical per-shard seed stream.
    """
    fresh = make_sharded_engine(EngineConfig(
        inner=inner, shards=engine.num_shards, block_size=BLOCK_SIZE,
        seed=seed, router="consistent"))
    fresh.insert_many(engine.items())
    assert layout_digest(engine.structure) == layout_digest(fresh.structure)


# --------------------------------------------------------------------------- #
# The op log
# --------------------------------------------------------------------------- #

def test_oplog_round_trip_and_offsets(tmp_path):
    log = OpLog(str(tmp_path / "shard.oplog"))
    log.append("insert", 1, "one")
    log.append("upsert", 2, "two")
    log.append("delete", 1)
    log.commit()
    middle = log.barrier()
    log.append("insert", 3, "three")
    log.commit()
    assert list(log.replay()) == [("insert", 1, "one"), ("upsert", 2, "two"),
                                  ("delete", 1, None),
                                  ("insert", 3, "three")]
    assert list(log.replay(middle)) == [("insert", 3, "three")]
    log.close()
    # Reopening reads the header back and keeps appending.
    reopened = OpLog(str(tmp_path / "shard.oplog"))
    reopened.append("delete", 3)
    reopened.commit()
    assert [op for op, _k, _v in reopened.replay(middle)] \
        == ["insert", "delete"]
    reopened.close()


def test_oplog_compaction_preserves_logical_offsets(tmp_path):
    log = OpLog(str(tmp_path / "shard.oplog"))
    for key in range(5):
        log.append("insert", key, key)
    barrier = log.barrier()
    log.append("insert", 99, 99)
    log.commit()
    log.compact()  # defaults to the latest barrier
    assert list(log.replay(barrier)) == [("insert", 99, 99)]
    with pytest.raises(ConfigurationError):
        list(log.replay(0))  # compacted away: offsets before base reject
    log.close()


def test_oplog_tolerates_torn_tail_but_rejects_mid_log_corruption(tmp_path):
    path = str(tmp_path / "shard.oplog")
    log = OpLog(path)
    for key in range(4):
        log.append("insert", key, key)
    log.commit()
    frame = log.frame_size
    log.close()
    size = os.path.getsize(path)
    # A torn tail (crash mid-append) silently ends the replay.
    with open(path, "r+b") as handle:
        handle.truncate(size - frame // 2)
    torn = OpLog(path)
    assert [key for _op, key, _v in torn.replay()] == [0, 1, 2]
    torn.close()
    # A corrupt frame with valid data after it is an integrity failure.
    with open(path, "r+b") as handle:
        handle.seek(size - 2 * frame + 3)
        original = handle.read(1)
        handle.seek(size - 2 * frame + 3)
        handle.write(bytes([original[0] ^ 0xFF]))
        handle.truncate(size - frame // 2)
    corrupt = OpLog(path)
    with pytest.raises(ConfigurationError):
        list(corrupt.replay())
    corrupt.close()


def _tear(path, frame, shape):
    """Tear the last frame of the log at ``path``: cut it 10 bytes short,
    or keep its length and break its CRC."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        if shape == "cut":
            handle.truncate(size - 10)
        else:
            handle.seek(size - frame + 1)
            original = handle.read(1)
            handle.seek(size - frame + 1)
            handle.write(bytes([original[0] ^ 0xFF]))


@pytest.mark.parametrize("shape", ["cut", "bad-crc"])
def test_a_reopened_log_appends_after_its_torn_tail_on_the_frame_grid(
        tmp_path, shape):
    """Recovery and cold start reopen a log and append to it: the torn
    tail replay ignores is cut on open, so the next append lands on the
    frame grid and a later replay still reads every frame (it used to
    raise "corrupt at frame 1")."""
    path = str(tmp_path / "shard.oplog")
    log = OpLog(path)
    log.append("insert", 1, "one")
    log.commit()
    one_frame = os.path.getsize(path)
    log.append("insert", 2, "two")
    log.commit()
    frame = log.frame_size
    log.close()
    _tear(path, frame, shape)
    reopened = OpLog(path)
    assert os.path.getsize(path) == one_frame
    assert reopened.end_offset == frame
    reopened.append("insert", 3, "three")
    reopened.commit()
    reopened.close()
    with OpLog(path) as again:
        assert list(again.replay(0)) == [("insert", 1, "one"),
                                         ("insert", 3, "three")]


def test_oplog_replay_into_reports_divergence(tmp_path):
    log = OpLog(str(tmp_path / "shard.oplog"))
    log.append("delete", 12345)
    log.commit()
    structure = make_dictionary("b-tree", block_size=8)
    with pytest.raises(ReplicationError):
        replay_into(structure, log)
    log.close()


def test_oplog_replay_beyond_the_end_fails_loudly(tmp_path):
    """A manifest offset pointing past a (truncated) log must raise, not
    silently yield nothing — that would drop acknowledged operations."""
    log = OpLog(str(tmp_path / "shard.oplog"))
    log.append("insert", 1, 1)
    log.commit()
    beyond = log.end_offset + log.frame_size
    with pytest.raises(ConfigurationError):
        list(log.replay(beyond))
    log.close()
    truncated = OpLog(str(tmp_path / "shard.oplog"), truncate=True)
    with pytest.raises(ConfigurationError):
        list(truncated.replay(beyond))
    truncated.close()


def test_oplog_rejects_misaligned_offsets_and_foreign_files(tmp_path):
    log = OpLog(str(tmp_path / "shard.oplog"))
    log.append("insert", 1, 1)
    log.commit()
    with pytest.raises(ConfigurationError):
        list(log.replay(3))
    log.close()
    alien = tmp_path / "alien.bin"
    alien.write_bytes(b"not an oplog at all, definitely")
    with pytest.raises(ConfigurationError):
        OpLog(str(alien))


#: One payload of every record type, by operation.
EVERY_RECORD = {
    "insert": [(1, 2), (-7, -(10 ** 30)), (2 ** 127 - 1, -(2 ** 127)),
               (-(2 ** 127), 0), (True, False), (1.5, -2.25),
               ("key", "value"), (9, None), ("mixed", 4), (5, "mixed"),
               (6.5, b"mixed")],
    "upsert": [(3, True), (b"\x00raw", b"bytes")],
    "delete": [1, -(2 ** 127), "key", b"\x00raw", 1.5, True],
}


def test_a_batched_write_is_byte_identical_to_per_frame_appends(tmp_path):
    """Every record type (ints at the record bounds, negative ints, bools,
    floats, text, bytes, a ``None`` value, mixed pairs; inserts, upserts
    and deletes) encodes and writes in one batch per operation to exactly
    the bytes of one ``append`` per frame, with the same offsets and
    delete count."""
    single = OpLog(str(tmp_path / "single.oplog"))
    batched = OpLog(str(tmp_path / "batched.oplog"))
    for op, payloads in EVERY_RECORD.items():
        for payload in payloads:
            single.append(op, *((payload,) if op == "delete" else payload))
        frames, refusal = batched.encode(op, payloads)
        assert refusal is None and len(frames) == len(payloads)
        assert batched.write(op, frames) == single.end_offset
    assert batched.deletes_since_barrier == single.deletes_since_barrier \
        == len(EVERY_RECORD["delete"])
    single.close()
    batched.close()
    assert (tmp_path / "batched.oplog").read_bytes() \
        == (tmp_path / "single.oplog").read_bytes()
    with OpLog(str(tmp_path / "batched.oplog")) as reopened:
        assert list(reopened.replay()) == [
            (op, payload, None) if op == "delete" else (op, *payload)
            for op, payloads in EVERY_RECORD.items() for payload in payloads]


def test_encode_stops_at_the_first_refused_payload(tmp_path):
    """``encode`` returns the frames before the first payload the codec
    refuses, with that refusal, and writes nothing; ``append`` raises it."""
    path = str(tmp_path / "shard.oplog")
    with OpLog(path) as log:
        empty = os.path.getsize(path)
        frames, refusal = log.encode(
            "insert", [(1, "ok"), (2, "x" * 200), (3, "after")])
        assert len(frames) == 1 and isinstance(refusal, CapacityError)
        frames, refusal = log.encode("insert", [(2 ** 127, 1)])
        assert frames == [] and isinstance(refusal, CapacityError)
        frames, refusal = log.encode("delete", [[1]])
        assert frames == [] and isinstance(refusal, ConfigurationError)
        with pytest.raises(CapacityError):
            log.append("insert", 4, "x" * 200)
        with pytest.raises(ConfigurationError):
            log.encode("rename", [])
        assert log.end_offset == 0 and os.path.getsize(path) == empty


class _Int(int):
    """An int that is not a plain ``int``: the record codec encodes it
    through its tagged-union dispatch, the reference for the struct."""


#: Plain ints at and inside the 16-byte record bounds, negative ones too.
RECORD_INTS = [0, 1, -1, 7, -(2 ** 63) - 1, 2 ** 63, 2 ** 64 - 1, -(2 ** 64),
               2 ** 127 - 1, -(2 ** 127)]


@pytest.mark.parametrize("op", ["insert", "upsert", "delete"])
def test_a_one_struct_frame_is_the_codec_frame_byte_for_byte(tmp_path, op):
    """An ``(int, int)`` insert or upsert, and an ``int`` delete, packed
    with one struct are ``_frame(code, RecordCodec.encode(payload))``, and
    the bytes the codec's per-element dispatch writes."""
    from repro.replication.oplog import _OP_CODES, _frame

    if op == "delete":
        payloads = RECORD_INTS
        dispatched = [_Int(key) for key in payloads]
    else:
        payloads = [(key, value) for key in RECORD_INTS
                    for value in (0, -5, 2 ** 127 - 1, -(2 ** 127))]
        dispatched = [(_Int(key), _Int(value)) for key, value in payloads]
    with OpLog(str(tmp_path / "shard.oplog")) as log:
        frames, refusal = log.encode(op, payloads)
        codec, code = log.codec, _OP_CODES[op]
    assert refusal is None
    assert frames == [_frame(code, codec.encode(payload))
                      for payload in payloads]
    assert frames == [_frame(code, codec.encode(payload))
                      for payload in dispatched]
    assert {len(frame) for frame in frames} == {log.frame_size}


@pytest.mark.parametrize("op,outside", [
    ("insert", (2 ** 127, 1)), ("insert", (1, -(2 ** 127) - 1)),
    ("upsert", (-(2 ** 127) - 1, 1)), ("delete", 2 ** 127),
    ("delete", -(2 ** 127) - 1)])
def test_an_int_just_outside_a_record_is_refused_after_the_frames_before_it(
        tmp_path, op, outside):
    """The struct path hands an int outside the record range to the codec,
    which refuses it: ``encode`` returns the frames before it with the
    ``CapacityError`` and writes nothing."""
    path = str(tmp_path / "shard.oplog")
    before = [3, -4] if op == "delete" else [(3, 30), (-4, -40)]
    after = [5] if op == "delete" else [(5, 50)]
    with OpLog(path) as log:
        empty = os.path.getsize(path)
        frames, refusal = log.encode(op, before + [outside] + after)
        assert isinstance(refusal, CapacityError)
        assert frames == log.encode(op, before)[0]
        assert log.end_offset == 0 and os.path.getsize(path) == empty


def test_bools_and_mixed_batches_take_the_codec_path_frame_by_frame(
        tmp_path):
    """A bool is no plain int (the codec writes it in 8 bytes), so it takes
    the codec path; a batch that switches between the two paths mid-way
    frames every payload as the codec alone would, in order; a budget too
    small for an int pair refuses the pair as the codec does."""
    from repro.replication.oplog import _OP_CODES, _frame

    mixed = {
        "insert": [(1, 2), (True, 3), ("k", 4), (5, False), (-6, -7),
                   (8, 9.5), (-(2 ** 127), None), (10, b"raw"), (11, 12)],
        "upsert": [(True, True), (13, 14), (15, "v"), (-16, 17)],
        "delete": [1, True, "k", -2, False, 3.5, 2 ** 100, b"raw", 4],
    }
    with OpLog(str(tmp_path / "shard.oplog")) as log:
        codec = log.codec
        for op, payloads in mixed.items():
            frames, refusal = log.encode(op, payloads)
            assert refusal is None
            assert frames == [_frame(_OP_CODES[op], codec.encode(payload))
                              for payload in payloads]
        assert log.encode("insert", [(True, 1)])[0] \
            != log.encode("insert", [(1, 1)])[0]
    with OpLog(str(tmp_path / "narrow.oplog"), payload_size=20) as narrow:
        frames, refusal = narrow.encode("insert", [(1, 2)])
        assert frames == [] and isinstance(refusal, CapacityError)
        frames, refusal = narrow.encode("delete", [1, -(2 ** 127)])
        assert refusal is None and frames == [
            _frame(_OP_CODES["delete"], narrow.codec.encode(key))
            for key in (1, -(2 ** 127))]


@pytest.mark.parametrize("cut_frames", [0, 3, 6])
def test_a_batched_write_cut_short_reopens_at_its_last_whole_frame(
        tmp_path, cut_frames):
    """A machine crash can cut one multi-frame write anywhere: reopening
    keeps the whole frames before the cut (and everything logged before
    the write), and the next append lands on the frame grid."""
    path = str(tmp_path / "shard.oplog")
    log = OpLog(path)
    log.append("insert", 0, 0)
    log.commit()
    before = os.path.getsize(path)
    frames, _refusal = log.encode("insert",
                                  [(key, -key) for key in range(1, 8)])
    log.write("insert", frames)
    log.close()
    frame = log.frame_size
    with open(path, "r+b") as handle:
        handle.truncate(before + cut_frames * frame + frame // 3)
    with OpLog(path) as reopened:
        assert os.path.getsize(path) == before + cut_frames * frame
        assert reopened.end_offset == (1 + cut_frames) * frame
        reopened.append("delete", 0)
    with OpLog(path) as again:
        assert list(again.replay()) == (
            [("insert", 0, 0)]
            + [("insert", key, -key) for key in range(1, cut_frames + 1)]
            + [("delete", 0, None)])


# --------------------------------------------------------------------------- #
# Placement and configuration validation
# --------------------------------------------------------------------------- #

def test_replica_targets_are_deterministic_distinct_ring_successors():
    ids = (0, 1, 2, 3, 4)
    for shard_id in ids:
        targets = replica_targets(ids, shard_id, 2)
        assert targets == replica_targets(ids, shard_id, 2)
        assert shard_id not in targets
        assert len(targets) == len(set(targets)) == 2
    # Removing an unrelated shard never reroutes a surviving chain's first
    # choice unless that shard *was* the first choice.
    survivors = (0, 1, 3, 4)
    for shard_id in survivors:
        old = replica_targets(ids, shard_id, 1)[0]
        if old != 2:
            assert replica_targets(survivors, shard_id, 1)[0] == old


def test_replication_configuration_is_validated(tmp_path):
    with pytest.raises(ConfigurationError):
        build_engine(replication=0)
    with pytest.raises(ConfigurationError):
        build_engine(shards=2, replication=3)
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                         replication=2))  # no process
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                         durability_dir=str(tmp_path / "d")))
    # Too few distinct workers to place a replica away from its primary.
    with pytest.raises(ConfigurationError):
        build_engine(shards=3, replication=2, max_workers=1)
    # Durability needs the registry build context (per-shard seeds).
    hand_built = ShardedDictionary(
        [make_dictionary("b-tree", block_size=8) for _ in range(2)])
    with pytest.raises(ConfigurationError):
        ProcessShardedDictionaryEngine(hand_built, EngineConfig(
            parallel="process", durability_dir=str(tmp_path / "d2")))


def test_settle_drops_every_failed_replica_without_index_skew():
    """Two replicas of one shard failing in the same write must both be
    dropped — resolving copy indexes against a list being mutated used to
    keep (or mis-drop) the second one; the write rule keys each outcome by
    the copy itself.  Both copies are freed in their (live) workers."""
    engine = build_engine(shards=3, replication=3)
    try:
        proxy = engine._proxy(0)
        first, second = proxy.replicas
        engine._rules.settle({0: proxy},
                             {(0, first): WorkerCrashError("copy one died"),
                              (0, second): WorkerCrashError("copy two died")})
        assert proxy.replicas == []
        assert first is not second
        for copy in (first, second):
            assert copy.shard_id not in copy.worker.shard_ids
    finally:
        engine.close()


def test_durable_add_shard_rejects_pre_built_shards(tmp_path):
    """A pre-built shard has no recorded seed, so a durable engine could
    never rebuild it byte-identically after a crash; refuse up front."""
    engine = build_engine(replication=1, durability_dir=str(tmp_path / "d"))
    try:
        prebuilt = make_dictionary("b-treap", block_size=BLOCK_SIZE, seed=1)
        with pytest.raises(ConfigurationError):
            engine.add_shard(shard=prebuilt)
        assert engine.num_shards == 3  # nothing was staged
    finally:
        engine.close()


def test_checkpoint_syncs_the_directory_around_its_sweep(tmp_path,
                                                        monkeypatch):
    """A second checkpoint's directory changes are durable before it
    returns: manifest rename → directory fsync → the superseded images'
    unlinks → directory fsync (a swept image that came back after a
    machine crash would still hold deleted keys)."""
    import stat

    directory = str(tmp_path / "d")
    engine = build_engine(replication=1, durability_dir=directory)
    calls = []

    def recording(name, real):
        def call(*args):
            if name != "fsync":
                calls.append(name)
            elif stat.S_ISDIR(os.fstat(args[0]).st_mode):
                calls.append("directory fsync")
            return real(*args)
        return call

    try:
        engine.insert_many(entries_for(60))
        for name in ("fsync", "replace", "unlink"):
            monkeypatch.setattr(os, name, recording(name, getattr(os, name)))
        engine.checkpoint()
        monkeypatch.undo()
    finally:
        engine.close()
    assert calls == ["replace", "directory fsync"] \
        + ["unlink"] * engine.num_shards + ["directory fsync"]


def test_checkpoint_generations_rotate_and_sweep_stale_images(tmp_path):
    directory = str(tmp_path / "d")
    engine = build_engine(replication=1, durability_dir=directory)
    try:
        engine.insert_many(entries_for(60))
        first = engine.checkpoint()
        engine.insert_many((key, key) for key in range(9000, 9030))
        second = engine.checkpoint()
        assert second["generation"] == first["generation"] + 1
        images = [name for name in os.listdir(directory)
                  if name.endswith(".img")]
        # Exactly one generation on disk, and it is the referenced one.
        assert sorted(images) \
            == sorted(entry["file"] for entry in second["shards"])
    finally:
        engine.close()
    reopened = open_durable_engine(directory)
    try:
        assert len(reopened) == 90
    finally:
        reopened.close()


def test_replication_one_degrades_to_the_plain_process_engine():
    engine = make_sharded_engine(EngineConfig(
        inner="b-tree", shards=2, block_size=8, seed=SEED, parallel="process",
        replication=1))
    try:
        assert type(engine) is ProcessShardedDictionaryEngine
    finally:
        engine.close()
    sequential = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                                  block_size=8, seed=SEED,
                                                  replication=1))
    assert type(sequential) is ShardedDictionaryEngine


# --------------------------------------------------------------------------- #
# Replicated byte-identity while healthy
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", ["b-treap", "hi-skiplist"])
def test_replicated_engine_is_byte_identical_to_sequential(inner, tmp_path):
    twin = build_twin(inner)
    engine = build_engine(inner, durability_dir=str(tmp_path / "dur"))
    try:
        entries = entries_for(240)
        assert engine.insert_many(entries) == twin.insert_many(entries)
        probes = list(range(0, 2003, 5))
        assert engine.contains_many(probes) == twin.contains_many(probes)
        doomed = [key for key, _value in entries[::6]]
        assert engine.delete_many(doomed) == twin.delete_many(doomed)
        assert engine.items() == twin.items()
        assert engine.shard_sizes() == twin.shard_sizes()
        assert engine.io_stats().as_dict() == twin.io_stats().as_dict()
        assert layout_digest(engine.structure) == layout_digest(twin.structure)
        engine.check()
    finally:
        engine.close()


def test_replicas_track_their_primaries_through_load_and_resize():
    engine = build_engine("b-treap", shards=3, replication=2)
    try:
        engine.insert_many(entries_for(180))
        engine.delete_many([key for key, _v in entries_for(180)[::9]])
        engine.add_shard()
        assert engine.replica_counts() == [1, 1, 1, 1]
        for position in range(engine.num_shards):
            proxy = engine._proxy(position)
            primary_fp = proxy.primary.call("audit_fingerprint")
            for replica in proxy.replicas:
                assert replica.call("audit_fingerprint") == primary_fp
                assert replica.call("len") == proxy.primary.call("len")
        engine.check()
    finally:
        engine.close()


@pytest.mark.parametrize("inner", ["b-treap", "treap", "hi-skiplist",
                                   "hi-pma", "classic-pma", "b-tree"])
def test_every_shard_digest_hashes_the_same_bytes(inner):
    """A worker's ``__digest__`` of every primary and replica (what
    anti-entropy compares), the server's ``engine_digest`` and an
    in-process twin's are one hash of one observable: ``shard_digest``."""
    from repro.api.protocol import shard_digest
    from repro.net.server import engine_digest

    entries = [(key, key) for key in range(300)]
    twin = build_twin(inner, shards=2, seed=5)
    twin.insert_many(entries)
    digests = [shard_digest(shard) for shard in twin.structure.shards]
    engine = build_engine(inner, shards=2, replication=2, seed=5)
    try:
        engine.insert_many(entries)
        assert engine_digest(engine) == engine_digest(twin) \
            == [digest[:16] for digest in digests]
        for position, digest in enumerate(digests):
            proxy = engine._proxy(position)
            assert [copy.call("__digest__") for copy
                    in [proxy.primary] + proxy.replicas] == [digest] * 2
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Failover path 1: replica promotion
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", ["b-treap", "hi-skiplist"])
def test_promotion_recovers_byte_identical_state(inner):
    """Kill a primary at an op boundary; the promoted replica must equal a
    never-crashed engine byte for byte (replicas are exact clones)."""
    twin = build_twin(inner)
    engine = build_engine(inner, replication=2)
    try:
        entries = entries_for(210)
        for target in (engine, twin):
            target.insert_many(entries)
            target.delete_many([key for key, _v in entries[::8]])
        kill_worker(engine, 1)
        # Degraded reads: point lookups fall back to the replica, and bulk
        # membership re-asks replicas for the dead primary's batch.
        alive_key = next(key for key, _v in entries
                         if engine.structure.shard_of(key) == 1
                         and twin.contains(key))
        assert engine.structure.contains(alive_key)
        assert engine.contains_many([key for key, _v in entries]) \
            == twin.contains_many([key for key, _v in entries])
        report = engine.recover()
        assert list(report.positions) == [1]
        assert list(report.promoted) == [1]
        assert report.re_replicated  # the promoted shard got a new replica
        assert engine.replica_counts() == [1, 1, 1]
        assert engine.items() == twin.items()
        assert layout_digest(engine.structure) == layout_digest(twin.structure)
        assert sorted(engine.io_stats().as_dict()) \
            == sorted(twin.io_stats().as_dict())
        engine.check()
        engine.insert_many((key, key) for key in range(5000, 5040))
        twin.insert_many((key, key) for key in range(5000, 5040))
        assert engine.items() == twin.items()
    finally:
        engine.close()


def test_losing_a_replica_never_fails_writes():
    engine = build_engine("b-treap", shards=3, replication=2)
    try:
        engine.insert_many(entries_for(120))
        # Find the worker hosting position 0's replica and kill it; its own
        # primary (some other position) dies with it, but writes routed to
        # position 0 keep succeeding through its live primary.
        replica_worker = engine._proxy(0).replicas[0].worker
        os.kill(replica_worker.pid, signal.SIGKILL)
        deadline = time.time() + 5.0
        while time.time() < deadline and not engine.dead_shard_positions():
            time.sleep(0.02)
        keys_on_0 = [key for key in range(3000, 3300)
                     if engine.structure.shard_of(key) == 0][:20]
        engine.structure.shards[0].insert(keys_on_0[0], "direct")
        assert engine.structure.shards[0].contains(keys_on_0[0])
        report = engine.recover()
        assert engine.replica_counts() == [1, 1, 1]
        assert report.promoted or report.re_replicated
        engine.check()
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Failover path 2: snapshot + op-log replay (and cold open)
# --------------------------------------------------------------------------- #

def test_snapshot_plus_oplog_replay_recovers_byte_identical_state(tmp_path):
    twin = build_twin()
    engine = build_engine(replication=1, durability_dir=str(tmp_path / "d"))
    try:
        entries = entries_for(200)
        for target in (engine, twin):
            target.insert_many(entries[:120])
        engine.checkpoint()  # snapshot now, tail ops live only in the log
        for target in (engine, twin):
            target.insert_many(entries[120:])
            target.delete_many([key for key, _v in entries[::10]])
            target.insert(4242, "late")
        kill_worker(engine, 0)
        report = engine.recover()
        assert list(report.positions) == [0]
        assert list(report.replayed) == [0]
        assert engine.items() == twin.items()
        assert layout_digest(engine.structure) == layout_digest(twin.structure)
        assert sorted(engine.io_stats().as_dict()) \
            == sorted(twin.io_stats().as_dict())
        engine.check()
    finally:
        engine.close()


def test_replay_without_any_checkpoint_uses_the_full_log(tmp_path):
    twin = build_twin()
    engine = build_engine(replication=1, durability_dir=str(tmp_path / "d"))
    try:
        # No explicit checkpoint beyond the construction-time empty one:
        # recovery must replay the entire op log.
        for target in (engine, twin):
            target.insert_many(entries_for(130))
        kill_worker(engine, 2)
        assert engine.recover().replayed == (2,)
        assert engine.items() == twin.items()
        assert layout_digest(engine.structure) == layout_digest(twin.structure)
    finally:
        engine.close()


def test_cold_open_rebuilds_the_whole_engine_from_disk(tmp_path):
    directory = str(tmp_path / "store")
    twin = build_twin()
    engine = build_engine(replication=2, durability_dir=directory)
    entries = entries_for(170)
    for target in (engine, twin):
        target.insert_many(entries)
        target.delete_many([key for key, _v in entries[::7]])
    engine.close()
    engine.close()  # idempotent (satellite: double-close is specified)
    reopened = open_durable_engine(directory)
    try:
        assert reopened.replication == 2
        assert reopened.replica_counts() == [1, 1, 1]
        assert reopened.items() == twin.items()
        assert layout_digest(reopened.structure) \
            == layout_digest(twin.structure)
        reopened.check()
        reopened.insert_many((key, key) for key in range(7000, 7030))
        assert len(reopened) == len(twin) + 30
    finally:
        reopened.close()


#: Every single structure the process backend builds.
SINGLE_STRUCTURES = ("adaptive-pma", "b-skiplist", "b-treap", "b-tree",
                     "classic-pma", "hi-cobtree", "hi-pma", "hi-skiplist",
                     "memory-skiplist", "treap")


def test_the_value_suite_covers_every_single_structure():
    from repro.api import registry_names

    assert set(SINGLE_STRUCTURES) == set(registry_names()) - {"sharded"}


@pytest.mark.parametrize("mode", ["logged", "secure"])
@pytest.mark.parametrize("inner", SINGLE_STRUCTURES)
def test_every_structure_keeps_its_values_through_recovery_and_reopen(
        tmp_path, inner, mode):
    """A checkpoint image holds each key's value: after ``checkpoint()``, a
    SIGKILL of a primary's worker and ``recover()`` at ``replication=1``
    (which replays an empty log tail onto the image), and after
    ``close()`` and ``open_durable_engine`` (images only), the store
    returns every value it held."""
    directory = str(tmp_path / "store")
    expected = [(key, 10 * key) for key in range(1, 41)]
    engine = make_sharded_engine(EngineConfig(
        inner=inner, shards=2, block_size=BLOCK_SIZE, seed=SEED,
        parallel="process", replication=1, durability_dir=directory,
        durability_mode=mode))
    try:
        engine.insert_many(expected)
        engine.checkpoint()
        kill_worker(engine, 0)
        assert engine.recover().replayed == (0,)
        assert engine.items() == expected
        assert [engine.search(key) for key, _value in expected] \
            == [value for _key, value in expected]
    finally:
        engine.close()
    with open_durable_engine(directory) as reopened:
        assert reopened.items() == expected


def test_open_durable_engine_rejects_missing_or_corrupt_state(tmp_path):
    with pytest.raises(ConfigurationError):
        open_durable_engine(str(tmp_path / "nowhere"))
    directory = str(tmp_path / "store")
    engine = build_engine(replication=1, durability_dir=directory)
    engine.insert_many(entries_for(90))
    engine.checkpoint()
    engine.close()
    image = next(name for name in sorted(os.listdir(directory))
                 if name.endswith(".img"))
    with open(os.path.join(directory, image), "r+b") as handle:
        handle.seek(40)
        byte = handle.read(1)
        handle.seek(40)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(ConfigurationError):
        open_durable_engine(directory)


# --------------------------------------------------------------------------- #
# Fault injection: crashes landing inside operations
# --------------------------------------------------------------------------- #

@pytest.fixture
def failpoints(monkeypatch):
    """Arm worker fail points for engines built afterwards; disarm safely."""
    def arm(spec):
        monkeypatch.setenv("REPRO_FAILPOINTS", spec)

    def disarm():
        monkeypatch.delenv("REPRO_FAILPOINTS", raising=False)

    yield arm, disarm
    disarm()


def test_crash_mid_insert_many_recovers_exactly_the_logged_prefix(
        tmp_path, failpoints):
    arm, disarm = failpoints
    arm("worker.insert:40")
    engine = build_engine(replication=1, durability_dir=str(tmp_path / "d"))
    try:
        engine.insert_many(entries_for(30))  # acknowledged: fully durable
        acked = dict(entries_for(30))
        torn = entries_for(300)[30:]
        with pytest.raises(WorkerCrashError):
            engine.insert_many(torn)
        disarm()  # recovery's respawned workers must come up unarmed
        report = engine.recover()
        assert report.replayed and not report.rebuilt_empty
        recovered = dict(engine.items())
        # Every acknowledged operation survived.
        assert all(key in recovered and recovered[key] == value
                   for key, value in acked.items())
        assert set(recovered) <= {key for key, _v in entries_for(300)}
        # Each shard's worker (one per shard) logged 39 inserts before its
        # 40th trip killed it, the acknowledged ones first: the torn batch
        # recovered to exactly that prefix of the shard's batch, in input
        # order.
        shard_of = engine.structure.shard_of
        for position in range(engine.num_shards):
            batch = [key for key, _v in torn if shard_of(key) == position]
            kept = [key for key in batch if key in recovered]
            logged = 39 - sum(1 for key in acked if shard_of(key) == position)
            assert kept == batch[:logged], position
        # The paper's property: the recovered layout equals a fresh build
        # of the recovered key set — the crash left no physical residue.
        assert_anti_persistence(engine)
        oracle = dict(engine.items())
        engine.delete_many(list(oracle)[:15])
        for key in list(oracle)[:15]:
            del oracle[key]
        engine.insert_many((key, key) for key in range(9000, 9040))
        oracle.update((key, key) for key in range(9000, 9040))
        assert_matches_oracle(engine, oracle)
    finally:
        engine.close()


def test_crash_mid_delete_many_recovers_exactly_the_logged_prefix(
        tmp_path, failpoints):
    """``worker.delete:k`` kills a worker where a per-key loop would have,
    before its k-th delete: the batch's frames reach the log in one write,
    and only the k - 1 before the trip are in it, a missing key's trip
    included."""
    arm, disarm = failpoints
    arm("worker.delete:12")
    engine = build_engine(replication=1, durability_dir=str(tmp_path / "d"))
    try:
        engine.insert_many(entries_for(300))
        oracle = dict(entries_for(300))
        shard_of = engine.structure.shard_of
        victims = [key for key, _value in entries_for(300)][::2]
        # A missing key sixth in shard 0's batch trips, and stops only
        # that shard's batch.
        missing = next(key for key in range(2003, 4000)
                       if shard_of(key) == 0)
        firsts = [index for index, key in enumerate(victims)
                  if shard_of(key) == 0]
        victims.insert(firsts[5], missing)
        with pytest.raises((WorkerCrashError, KeyNotFound)):
            engine.delete_many(victims)
        disarm()
        engine.recover()
        recovered = dict(engine.items())
        for position in range(engine.num_shards):
            batch = [key for key in victims if shard_of(key) == position]
            logged = batch[:5] if position == 0 else batch[:11]
            gone = [key for key in batch if key in oracle
                    and key not in recovered]
            assert gone == logged, position
        # Shard 0's worker survived with six trips taken; its next batch
        # logs five deletes and dies on the sixth.
        more = [key for key in recovered if shard_of(key) == 0][:10]
        with pytest.raises(WorkerCrashError):
            engine.delete_many(more)
        engine.recover()
        assert [key for key in more if key not in dict(engine.items())] \
            == more[:5]
        assert_anti_persistence(engine)
    finally:
        engine.close()


def test_a_duplicate_mid_run_reopens_to_the_applied_prefix(tmp_path):
    """A durable process b-treap batch whose ascending run hits a
    ``DuplicateKey``: every shard logged exactly the pairs it applied, so
    after ``close()`` and a cold open the store equals an in-process twin
    that ran the same failing batch."""
    directory = str(tmp_path / "d")
    run = list(range(3000, 3021)) + list(range(3020, 3041))
    batch = [(key, -key) for key in run]
    engine = build_engine(replication=1, durability_dir=directory)
    twin = build_twin()
    try:
        for store in (engine, twin):
            store.insert_many(entries_for(60))
            with pytest.raises(DuplicateKey):
                store.insert_many(batch)
        assert engine.items() == twin.items()
        applied = {key for key, _value in twin.items()}.intersection(run)
        assert 0 < len(applied) < len(set(run))  # a prefix on one shard
        engine.close()
        reopened = open_durable_engine(directory)
        try:
            assert reopened.items() == twin.items()
            assert layout_digest(reopened.structure) \
                == layout_digest(twin.structure)
        finally:
            reopened.close()
    finally:
        engine.close()


def test_a_refused_pair_is_neither_applied_nor_logged(tmp_path):
    """A value the op log cannot encode stops its shard's batch before it
    is applied: each shard applies and logs exactly the pairs before its
    refused one, so the live store and a reopened copy hold the same
    pairs.  The replica refuses the same pair, so it applies the same
    prefix, raises the same error and stays in service, byte for byte its
    primary's copy.  A refused point insert or upsert is not applied
    either.  (The primary used to apply the whole batch, or the point
    write, and log only what came before: live ``contains`` answered True
    for the refused key and every key after it, the reopened store False.
    The replica, which has no log, used to apply every pair and be dropped
    for the outcome mismatch.)"""
    directory = str(tmp_path / "d")
    engine = build_engine(shards=2, replication=2, durability_dir=directory,
                          seed=7)
    try:
        shard_of = engine.structure.shard_of
        later = [key for key in range(6, 60, 2)
                 if shard_of(key) == shard_of(4)][:2]
        batch = [(2, "ok"), (4, "x" * 200)] + [(key, "after")
                                               for key in later]
        kept = [(key, value) for key, value in batch
                if shard_of(key) != shard_of(4) or key < 4]
        with pytest.raises(CapacityError):
            engine.insert_many(batch)
        assert [engine.contains(key) for key, _v in batch] \
            == [pair in kept for pair in batch]
        assert engine.items() == kept
        counts = engine.replica_counts()
        assert counts[shard_of(4)] == 1
        assert counts[1 - shard_of(4)] == 1
        with pytest.raises(CapacityError):
            engine.insert(3, "x" * 200)
        with pytest.raises(CapacityError):
            engine.upsert(2, "x" * 200)
        assert engine.items() == kept
        assert engine.replica_counts() == [1, 1]
        for position in range(engine.num_shards):
            proxy = engine._proxy(position)
            layout = proxy.primary.call("memory_representation")
            assert [replica.call("memory_representation")
                    for replica in proxy.replicas] == [layout]
    finally:
        engine.close()
    reopened = open_durable_engine(directory)
    try:
        assert reopened.items() == kept
    finally:
        reopened.close()


def test_passes_counts_down_a_batch_of_trips_at_once(monkeypatch):
    """``passes(name, n)`` consumes the next ``n`` trips of an armed fail
    point, or stops on the one that would exit, so a batch writes the
    frames that pass and then trips where per-pair trips would."""
    from repro import failpoints

    monkeypatch.setenv(failpoints.ENV_VAR, "worker.insert:6")
    failpoints.reset()
    try:
        assert failpoints.passes("worker.delete", 100) == 100
        assert failpoints.passes("worker.insert", 3) == 3
        assert failpoints.passes("worker.insert", 0) == 0
        assert failpoints.passes("worker.insert", 7) == 2
        assert failpoints.passes("worker.insert", 1) == 0
    finally:
        monkeypatch.delenv(failpoints.ENV_VAR)
        failpoints.reset()
    assert failpoints.passes("worker.insert", 5) == 5


def test_a_key_past_the_record_range_is_a_capacity_error(tmp_path):
    """A key outside a record's signed 16-byte integer range fails a
    durable ``insert_many`` (its op-log frame) and ``snapshot_shards`` (its
    image) with the typed :class:`CapacityError`, not ``OverflowError``.
    The durable primary refuses the pair before applying it."""
    key = 2 ** 127
    engine = build_engine(shards=1, replication=1,
                          durability_dir=str(tmp_path / "d"))
    try:
        with pytest.raises(CapacityError):
            engine.insert_many([(key, 1)])
    finally:
        engine.close()
    store = build_twin()
    store.insert_many([(key, 1)])
    with pytest.raises(CapacityError):
        store.snapshot_shards(str(tmp_path / "images"))


def test_crash_mid_migration_recovers_a_consistent_routable_store(
        tmp_path, failpoints):
    arm, disarm = failpoints
    arm("worker.delete:3")
    engine = build_engine("b-treap", shards=3, replication=2)
    try:
        engine.insert_many(entries_for(220))  # inserts do not trip deletes
        crashed = False
        try:
            engine.add_shard()  # migration deletes trip the fail point
        except WorkerCrashError:
            crashed = True
        disarm()
        if engine.dead_shard_positions():
            report = engine.recover()
            assert report.positions
        assert crashed or engine.num_shards == 4
        # Whatever mid-migration instant the crash hit, the store must be
        # routable, internally consistent, and free of physical residue.
        engine.check()
        assert engine.replica_counts() == [1] * engine.num_shards
        assert_anti_persistence(engine)
        assert_matches_oracle(engine, dict(engine.items()))
    finally:
        engine.close()


def test_crash_between_snapshot_and_log_barrier_keeps_the_old_generation(
        tmp_path, failpoints):
    arm, disarm = failpoints
    # Each worker checkpoints once at construction; the second checkpoint
    # command dies after writing its image of the new generation, *before*
    # the log barrier — the exact "between snapshot and log-append"
    # window.  No manifest references that image yet.
    arm("worker.checkpoint:2")
    directory = str(tmp_path / "d")
    engine = build_engine(shards=2, replication=1, durability_dir=directory)
    try:
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest_before = json.load(handle)
        engine.insert_many(entries_for(140))
        with pytest.raises(WorkerCrashError):
            engine.checkpoint()
        with open(manifest_path) as handle:
            manifest_after = json.load(handle)
        # The torn checkpoint published nothing: same manifest generation.
        assert manifest_after == manifest_before
        disarm()
        report = engine.recover()
        assert sorted(report.replayed) == [0, 1]
        # Recovery's checkpoint rewrote or swept the unreferenced images.
        assert sorted(name for name in os.listdir(directory)
                      if name.endswith(".img")) == sorted(
            entry["file"] for entry in read_manifest_file(directory)["shards"])
        twin = build_twin(shards=2)
        twin.insert_many(entries_for(140))
        assert engine.items() == twin.items()
        assert layout_digest(engine.structure) == layout_digest(twin.structure)
        # And the durable state is coherent again: cold open agrees.
        engine.close()
        reopened = open_durable_engine(directory)
        try:
            assert reopened.items() == twin.items()
        finally:
            reopened.close()
    finally:
        engine.close()


def test_total_worker_loss_recovers_every_shard_from_its_log(
        tmp_path, failpoints):
    arm, disarm = failpoints
    arm("worker.insert:35")
    engine = build_engine(replication=1, durability_dir=str(tmp_path / "d"))
    try:
        with pytest.raises(WorkerCrashError):
            engine.insert_many(entries_for(400))
        disarm()
        report = engine.recover()
        assert sorted(report.positions) == [0, 1, 2]
        assert sorted(report.replayed) == [0, 1, 2]
        assert_anti_persistence(engine)
        engine.insert_many((key, key) for key in range(8000, 8050))
        engine.check()
    finally:
        engine.close()


def read_manifest_file(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        return json.load(handle)


def test_new_manifests_record_shard_seeds_and_no_retired_fields(tmp_path):
    """Every manifest's build record lists each live shard's seed, and none
    writes the retired ``seeds_drawn`` or ``backend`` fields."""
    twin = build_twin()
    twin.insert_many(entries_for(60))
    snapshot = twin.snapshot_shards(str(tmp_path / "snapshot"))
    directory = str(tmp_path / "store")
    engine = build_engine(replication=1, durability_dir=directory)
    try:
        engine.insert_many(entries_for(60))
        engine.add_shard()
        engine.remove_shard(1)
        checkpointed = engine.checkpoint()
    finally:
        engine.close()
    for manifest in (snapshot, checkpointed, read_manifest_file(directory)):
        build = manifest["build"]
        assert "seeds_drawn" not in build
        assert "backend" not in build
        assert len(build["shard_seeds"]) == len(manifest["shard_ids"])
        assert None not in build["shard_seeds"]
    assert "backend" not in checkpointed["engine_config"]


def test_a_manifest_with_retired_fields_opens_with_its_recorded_seeds(
        tmp_path):
    """A manifest written before ``seeds_drawn`` and ``backend`` were
    retired still opens through ``open_durable_engine`` and
    ``restore_shards``, and each shard is built with the seed the manifest
    records for it, not one derived from its id."""
    directory = str(tmp_path / "store")
    engine = build_engine(replication=1, durability_dir=directory)
    try:
        engine.insert_many(entries_for(150))
        engine.checkpoint()
        items = engine.items()
    finally:
        engine.close()
    recorded = [101, 202, 303]
    manifest = read_manifest_file(directory)
    manifest["build"].update(shard_seeds=recorded, seeds_drawn=7,
                             backend="native")
    manifest["engine_config"]["backend"] = "native"
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    snapshot = str(tmp_path / "copy")
    shutil.copytree(directory, snapshot)

    def assert_recorded_seeds(structure):
        assert structure.shard_ids == (0, 1, 2)
        for seed, shard in zip(recorded, structure.shards):
            twin = make_dictionary("b-treap", block_size=BLOCK_SIZE,
                                   seed=seed)
            for key, value in shard.items():
                twin.insert(key, value)
            assert shard_layout(shard) == twin.memory_representation()

    restored = ShardedDictionaryEngine.restore_shards(snapshot)
    assert restored.items() == items
    assert_recorded_seeds(restored.structure)
    reopened = open_durable_engine(directory)
    try:
        assert reopened.items() == items
        assert_recorded_seeds(reopened.structure)
        assert read_manifest_file(directory)["build"]["shard_seeds"] \
            == recorded
    finally:
        reopened.close()


# --------------------------------------------------------------------------- #
# Each primary's worker owns its files: it writes and restores its own images
# --------------------------------------------------------------------------- #

@pytest.fixture
def crossings(monkeypatch):
    """Every command the parent sends a worker, as ``[engine id, method,
    args, reply]``; a worker answers its commands in order."""
    from repro.api.process_engine import _ShardWorker

    log, pending = [], {}
    send, receive = _ShardWorker.send, _ShardWorker.receive

    def recording_send(self, shard_id, method, args, trace=None):
        send(self, shard_id, method, args, trace)
        command = [shard_id, method, args, None]
        log.append(command)
        pending.setdefault(self, []).append(command)

    def recording_receive(self):
        reply = receive(self)
        pending[self].pop(0)[3] = reply
        return reply

    monkeypatch.setattr(_ShardWorker, "send", recording_send)
    monkeypatch.setattr(_ShardWorker, "receive", recording_receive)
    return log


def test_a_checkpoint_reply_is_a_manifest_entry_not_a_slot_list(
        tmp_path, crossings):
    engine = build_engine(replication=2, durability_dir=str(tmp_path / "d"))
    try:
        engine.insert_many(entries_for(400))
        del crossings[:]
        manifest = engine.checkpoint()
    finally:
        engine.close()
    sent = [(engine_id, method) for engine_id, method, _args, _reply
            in crossings if method in ("__checkpoint__", "__compact__")]
    # Each primary gets one of each; no replica gets either.
    assert sorted(sent) == sorted(
        (shard_id, method) for shard_id in (0, 1, 2)
        for method in ("__checkpoint__", "__compact__"))
    replies = [reply for _id, method, _args, reply in crossings
               if method == "__checkpoint__"]
    assert [payload for _status, payload in replies] == manifest["shards"]
    for status, entry in replies:
        assert status == "ok"
        assert set(entry) == {"id", "file", "checksum", "kind", "num_slots",
                              "num_pages", "page_size", "payload_size",
                              "page_order", "oplog"}
        assert len(entry["page_order"]) == entry["num_pages"]


def test_a_cold_open_and_a_replay_send_no_structure_to_a_primary(
        tmp_path, crossings):
    """Each primary's worker builds and restores its shard itself; only
    replicas, seeded from a restored primary, cross as structures."""
    directory = str(tmp_path / "d")
    twin = build_twin()
    engine = build_engine(replication=2, durability_dir=directory)
    for target in (engine, twin):
        target.insert_many(entries_for(300))
        target.delete_many([key for key, _v in entries_for(300)[::9]])
    engine.close()
    del crossings[:]
    reopened = open_durable_engine(directory)
    try:
        assert reopened.items() == twin.items()
        for shard in reopened.structure.shards:
            assert [replica.call("memory_representation")
                    for replica in shard.replicas] \
                == [shard.primary.call("memory_representation")]
    finally:
        reopened.close()
    reopened = open_durable_engine(directory, replication=1)
    try:
        kill_worker(reopened, 1)
        assert reopened.recover().replayed == (1,)
        assert reopened.items() == twin.items()
        assert layout_digest(reopened.structure) \
            == layout_digest(twin.structure)
    finally:
        reopened.close()
    hosted = [(method, args) for engine_id, method, args, _reply
              in crossings if method in ("__host__", "__restore__")
              and engine_id >= 0]
    assert [method for method, _args in hosted] == ["__restore__"] * 7
    assert not any(isinstance(arg, HIDictionary)
                   for _method, args in hosted for arg in args)


def assert_images_are_fresh_writes(engine, directory, scratch):
    """Every image the manifest lists equals, byte for byte and entry for
    entry, a from-scratch ``write_image`` of its primary's slots."""
    manifest = read_manifest_file(directory)
    for shard, entry in zip(engine.structure.shards, manifest["shards"]):
        fresh = write_image(scratch, entry["file"],
                            shard.primary.call("snapshot_slots"),
                            kind=entry["kind"])
        assert fresh == {name: value for name, value in entry.items()
                         if name not in ("id", "oplog")}
        with open(os.path.join(directory, entry["file"]), "rb") as written, \
                open(os.path.join(scratch, entry["file"]), "rb") as expected:
            assert written.read() == expected.read()


@pytest.mark.parametrize("inner", ["b-treap", "hi-skiplist", "hi-pma"])
def test_every_checkpoint_image_is_a_fresh_write_of_its_primary(
        tmp_path, inner):
    directory, scratch = str(tmp_path / "d"), str(tmp_path / "scratch")
    os.makedirs(scratch)
    entries = entries_for(400)
    engine = build_engine(inner=inner, replication=2,
                          durability_dir=directory, durability_mode="secure")
    try:
        assert_images_are_fresh_writes(engine, directory, scratch)
        engine.insert_many(entries)
        engine.checkpoint()
        assert_images_are_fresh_writes(engine, directory, scratch)
        engine.delete_many([key for key, _v in entries[::4]])
        assert engine.barrier()["redacted"]
        assert_images_are_fresh_writes(engine, directory, scratch)
        engine.add_shard()
        assert_images_are_fresh_writes(engine, directory, scratch)
    finally:
        engine.close()


def test_remove_shard_keeps_as_many_shards_as_copies(tmp_path):
    """A removal that would leave fewer shards than ``replication`` copies
    is refused before anything moves, so the store still reopens."""
    directory = str(tmp_path / "d")
    engine = build_engine(replication=2, durability_dir=directory)
    try:
        engine.insert_many(entries_for(150))
        engine.remove_shard(0)  # three shards to two still holds two copies
        items, manifest = engine.items(), read_manifest_file(directory)
        with pytest.raises(ConfigurationError, match="replication factor 2"):
            engine.remove_shard(1)
        assert engine.structure.shard_ids == (1, 2)
        assert engine.replica_counts() == [1, 1]
        assert engine.items() == items
        assert read_manifest_file(directory) == manifest
    finally:
        engine.close()
    reopened = open_durable_engine(directory)
    try:
        assert reopened.items() == items
    finally:
        reopened.close()


# --------------------------------------------------------------------------- #
# Satellite: manifest versioning and corrupt-snapshot rejection
# --------------------------------------------------------------------------- #

def test_snapshot_shards_manifest_carries_version_and_checksums(tmp_path):
    engine = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                              block_size=8, seed=3))
    engine.insert_many(entries_for(60))
    manifest = engine.snapshot_shards(str(tmp_path))
    assert manifest["version"] == MANIFEST_VERSION
    for entry in manifest["shards"]:
        assert entry["checksum"].startswith("crc32:")
    restored = ShardedDictionaryEngine.restore_shards(str(tmp_path))
    assert restored.items() == engine.items()


@pytest.mark.parametrize("damage", ["corrupt", "truncate", "missing"])
def test_restore_shards_rejects_damaged_images(tmp_path, damage):
    engine = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                              block_size=8, seed=3))
    engine.insert_many(entries_for(80))
    engine.snapshot_shards(str(tmp_path))
    victim = tmp_path / "shard-0001.img"
    if damage == "corrupt":
        blob = bytearray(victim.read_bytes())
        blob[17] ^= 0xFF
        victim.write_bytes(bytes(blob))
    elif damage == "truncate":
        victim.write_bytes(victim.read_bytes()[:100])
    else:
        victim.unlink()
    with pytest.raises(ConfigurationError):
        ShardedDictionaryEngine.restore_shards(str(tmp_path))


def test_restore_shards_rejects_future_manifest_versions(tmp_path):
    engine = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                              block_size=8, seed=3))
    engine.insert_many(entries_for(40))
    engine.snapshot_shards(str(tmp_path))
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError):
        ShardedDictionaryEngine.restore_shards(str(tmp_path))


# --------------------------------------------------------------------------- #
# Satellite: close() is idempotent, use-after-close fails cleanly
# --------------------------------------------------------------------------- #

def test_replicated_close_is_idempotent_and_use_after_close_is_clean(
        tmp_path):
    engine = build_engine(replication=2,
                          durability_dir=str(tmp_path / "d"))
    engine.insert_many(entries_for(50))
    engine.close()
    engine.close()
    with pytest.raises(ConfigurationError):
        engine.checkpoint()
    with pytest.raises(ConfigurationError):
        engine.recover()
    with pytest.raises(ConfigurationError):
        engine.restart_workers()
    with pytest.raises(WorkerCrashError):
        engine.insert_many([(1, "a")])


def test_every_engine_supports_close_and_context_management():
    with make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                          block_size=8, seed=3)) as engine:
        engine.insert_many(entries_for(20))
    engine.close()  # the base close() is an idempotent no-op
    from repro.api import DictionaryEngine
    with DictionaryEngine.create("b-tree", block_size=8) as plain:
        plain.insert(1, "one")
    plain.close()


# --------------------------------------------------------------------------- #
# CLI round trip
# --------------------------------------------------------------------------- #

def test_cli_rebalance_writes_a_store_that_cli_recover_reopens(tmp_path):
    import io

    from repro.cli import main

    directory = str(tmp_path / "store")
    out = io.StringIO()
    code = main(["rebalance", "--structure", "b-treap", "--shards", "3",
                 "--router", "consistent", "--keys", "150", "--add", "1",
                 "--parallel", "process", "--replication", "2",
                 "--durability-dir", directory, "--seed", "5"], out=out)
    assert code == 0
    assert "replication=2" in out.getvalue()
    assert "checkpointed" in out.getvalue()
    out = io.StringIO()
    code = main(["recover", "--dir", directory], out=out)
    listing = out.getvalue()
    assert code == 0
    assert "keys            : 150" in listing
    assert "check() passed" in listing
    out = io.StringIO()
    assert main(["recover", "--dir", str(tmp_path / "missing")],
                out=out) == 2


def test_cli_rebalance_rejects_replication_without_process_backend():
    import io

    from repro.cli import main

    assert main(["rebalance", "--structure", "b-tree", "--shards", "2",
                 "--keys", "50", "--replication", "2"],
                out=io.StringIO()) == 2

"""Checkpoints, seeded recovery and failover for the process engine.

Three entry points, all driven through
:class:`~repro.api.process_engine.ProcessShardedDictionaryEngine`:

* :func:`checkpoint_engine` — snapshot every primary shard (slot array +
  op-log barrier offset captured in one worker conversation each), write
  the durability manifest atomically, sweep the superseded images, then
  compact the logs to their barriers.
* :func:`recover_engine` — behind ``recover()`` and ``restart_workers()``
  on every process engine — repair dead primaries: **promote** a live
  replica when one exists (then truncate + re-checkpoint its log), else
  **replay** the checkpointed snapshot plus the op-log tail into a shard
  rebuilt with its *original construction seed*, else (no replica, no
  durable state) rebuild it empty with that same seed.  The rebuilt
  primaries are hosted together on the restored pool, then every shard is
  re-replicated back to full strength through the engine's one re-seed
  routine, all clones hosted at once.
* :func:`open_durable_engine` — cold-start: rebuild a whole engine from a
  durability directory alone (manifest + images + logs), e.g. after the
  parent process itself restarted.

Why the original seed matters: the paper's strongly-HI structures have
*canonical* layouts — a pure function of (key set, seed).  Rebuilding a
crashed shard with its original seed and replaying its acknowledged
operations therefore lands on a layout byte-identical to a never-crashed
engine's, no matter how or when the crash happened.  That is the
anti-persistence property doing operational work: recovery is
state-independent of failure history, and the canonical-HI digest tier is
the test that proves it.  Every rebuild goes through the store's one
build record (:class:`~repro.api.sharded.BuildRecord`): a warm recovery
reads a shard's seed from it, and a cold start rebuilds it from the
manifest, which lists every live shard's seed (``shard_seeds``).

Images and manifest are the one shard-image format of
:mod:`repro.storage.snapshot` (plus per-shard ``id``/``oplog`` fields and
store-wide ones), written and read only through that module's helpers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.process_engine import (
    ProcessShardedDictionaryEngine,
    _ShardCopy,
    _ShardWorker,
)
from repro.api.protocol import insert_pairs
from repro.api.routing import DEFAULT_VNODES, ConsistentHashRouter
from repro.api.sharded import ShardedDictionary, _config_for_shards
from repro.errors import ConfigurationError
from repro.replication.oplog import OpLog, replay_into
from repro.storage.snapshot import (
    MANIFEST_NAME,
    decode_slot,
    read_image,
    read_manifest,
    release_files,
    write_image,
    write_manifest,
)

#: Durability-directory artifact names, keyed by stable shard id (never by
#: position — positions shift under elastic resizes, ids do not).  Images
#: additionally carry a checkpoint *generation*: a new checkpoint writes a
#: whole new image generation under fresh names, flips the manifest
#: atomically, then sweeps the previous generation — so the generation a
#: live manifest references is never touched in place and a crash at any
#: point leaves one complete, openable generation on disk.
IMAGE_NAME = "shard-%06d.gen%06d.img"
OPLOG_NAME = "shard-%06d.oplog"

#: Snapshot geometry of the checkpoint images.
PAGE_SIZE = 4096
PAYLOAD_SIZE = 64


def oplog_path(directory: str, shard_id: int) -> str:
    return os.path.join(directory, OPLOG_NAME % shard_id)


def shard_image_names(directory: str) -> List[str]:
    """Every checkpoint image file currently in ``directory``."""
    return [name for name in os.listdir(directory)
            if name.startswith("shard-") and name.endswith(".img")]


def _current_generation(directory: str) -> int:
    """The generation the on-disk manifest references (0 when none does).

    Read from disk rather than engine state so it is correct for every
    caller — a warm engine, a cold open, or a recovery after the parent
    itself restarted — and so a new generation's file names can never
    collide with the one the live manifest still points at.
    """
    try:
        manifest = load_manifest(directory)
    except ConfigurationError:
        return 0
    generation = manifest.get("generation", 0)
    if isinstance(generation, int) and not isinstance(generation, bool) \
            and generation >= 0:
        return generation
    return 0


def replica_targets(shard_ids, shard_id: int, count: int,
                    vnodes: int = DEFAULT_VNODES) -> List[int]:
    """The shard ids that host ``shard_id``'s replicas, in placement order.

    A pure function of the shard-id tuple — the first ``count`` distinct
    ring successors of ``shard_id`` on a consistent-hash ring — exposed for
    tests and capacity planning; the engine applies the same rule through
    whatever consistent-hash router it routes keys with.
    """
    return ConsistentHashRouter(vnodes).successors(shard_id, shard_ids,
                                                   count)


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`ProcessShardedDictionaryEngine.recover` repaired.

    ``positions`` lists every shard position whose primary was dead, split
    by how it came back: ``promoted`` (a live replica took over),
    ``replayed`` (snapshot + op-log tail into a seed-identical rebuild) or
    ``rebuilt_empty`` (no replica and no durable state — a seed-identical
    empty rebuild, data lost).  ``re_replicated`` lists the positions that
    received fresh replica copies, which includes surviving primaries
    whose replicas died with a crashed worker.
    """

    positions: Tuple[int, ...] = field(default=())
    promoted: Tuple[int, ...] = field(default=())
    replayed: Tuple[int, ...] = field(default=())
    rebuilt_empty: Tuple[int, ...] = field(default=())
    re_replicated: Tuple[int, ...] = field(default=())


# --------------------------------------------------------------------------- #
# Checkpoints
# --------------------------------------------------------------------------- #

def checkpoint_engine(engine) -> Dict[str, object]:
    """Write one snapshot generation: images, manifest, compacted logs.

    Per shard, the slot array and the log barrier offset come back from a
    single ``__checkpoint__`` worker conversation, so they describe the
    same instant.  The new generation's images land under fresh
    generation-numbered names, then the manifest flips to them
    (:func:`~repro.storage.snapshot.write_manifest`), then the superseded
    generation is swept (:func:`~repro.storage.snapshot.release_files`,
    which with ``fsync`` syncs the directory again so no swept image comes
    back after a machine crash) — a crash anywhere in between leaves
    exactly one complete generation referenced and intact on disk.  Log
    compaction runs after the flip; it only ever drops frames the freshly
    referenced snapshots already cover.
    """
    directory = engine.durability_dir
    structure = engine._structure
    fsync = engine.engine_config.fsync
    num_shards = structure.num_shards
    generation = _current_generation(directory) + 1
    results = engine._scatter([(position, "__checkpoint__", ())
                               for position in range(num_shards)])
    entries = []
    for position in range(num_shards):
        slots, offset = results[position]
        shard_id = structure.shard_ids[position]
        entry = write_image(directory, IMAGE_NAME % (shard_id, generation),
                            slots, kind=structure.inner_names[position],
                            page_size=PAGE_SIZE, payload_size=PAYLOAD_SIZE,
                            fsync=fsync)
        entries.append({"id": shard_id, **entry,
                        "oplog": {"file": OPLOG_NAME % shard_id,
                                  "offset": offset}})
    manifest = engine._manifest_header()
    manifest.update(generation=generation, replication=engine.replication,
                    read_policy=engine.read_policy,
                    durability_mode=engine.durability_mode, shards=entries)
    try:
        manifest["engine_config"] = engine.engine_config.to_dict()
    except ConfigurationError:
        # A live random.Random seed does not serialize; the build record
        # above still carries everything recovery needs.
        pass
    write_manifest(directory, manifest)
    # The flip is durable; everything the old generation owned — including
    # images of shards that no longer exist — is now unreferenced garbage.
    referenced = {entry["file"] for entry in entries}
    release_files([os.path.join(directory, name)
                   for name in shard_image_names(directory)
                   if name not in referenced], fsync=fsync)
    compacted = engine._scatter([
        (position, "__compact__", (results[position][1],))
        for position in range(num_shards)])
    engine.metrics.inc("erasure.frames_dropped", sum(
        result[1] for result in compacted.values()
        if isinstance(result, tuple)))
    return manifest


# --------------------------------------------------------------------------- #
# Manifest loading and seeded shard rebuilds
# --------------------------------------------------------------------------- #

def load_manifest(directory: str) -> Dict[str, object]:
    """Read and structurally validate a durability manifest: a shard-image
    manifest (:func:`~repro.storage.snapshot.read_manifest`) that also
    carries shard ids and a build record."""
    manifest = read_manifest(directory)
    if "shard_ids" not in manifest \
            or not isinstance(manifest.get("build"), dict):
        raise ConfigurationError(
            "durability manifest %r is malformed"
            % (os.path.join(directory, MANIFEST_NAME),))
    return manifest


def _restore_shard_state(shard, directory: str,
                         manifest: Dict[str, object], shard_id: int,
                         fsync: bool) -> None:
    """Load one shard's checkpoint image and replay its op-log tail.

    The single restore sequence behind both warm recovery
    (:func:`_rebuild_shard`) and cold start (:func:`open_durable_engine`)
    — the two paths must never drift apart in how they read the durable
    artifacts.
    """
    offset = 0
    for index, entry in enumerate(manifest["shards"]):
        if entry.get("id") == shard_id:
            insert_pairs(shard, (decode_slot(slot) for slot
                                 in read_image(directory, manifest, index)
                                 if slot is not None))
            offset = int((entry.get("oplog") or {}).get("offset") or 0)
            break
    log_file = oplog_path(directory, shard_id)
    if os.path.exists(log_file):
        log = OpLog(log_file, payload_size=PAYLOAD_SIZE, fsync=fsync)
        try:
            replay_into(shard, log, offset)
        finally:
            log.close()


def _rebuild_shard(engine, position: int, shard_id: int) -> Tuple[object,
                                                                  bool]:
    """A seed-identical local rebuild of one crashed shard.

    Returns ``(shard, had_state)``: the structure is always rebuilt with
    the shard's original construction seed (canonical layouts recover byte
    for byte); when the engine is durable the checkpoint image and the
    op-log tail are replayed into it and ``had_state`` is ``True``.
    """
    structure = engine._structure
    if structure.build_record is None:
        raise ConfigurationError(
            "this sharded dictionary was assembled from pre-built shards; "
            "the engine cannot rebuild lost shards without a registry "
            "build record")
    shard = structure.build_record.build_shard(
        structure.inner_names[position], shard_id)
    directory = engine.durability_dir
    if directory is None:
        return shard, False
    manifest = load_manifest(directory)
    _restore_shard_state(shard, directory, manifest, shard_id,
                         engine.engine_config.fsync)
    return shard, True


# --------------------------------------------------------------------------- #
# Recovery
# --------------------------------------------------------------------------- #

def recover_engine(engine) -> RecoveryReport:
    """Repair dead primaries and restore every shard to full replication.

    The per-shard decision ladder is promotion → snapshot/log replay →
    empty rebuild, every rebuild with the shard's original seed.  The
    worker pool is restored to its previous size and the rebuilt primaries
    are hosted on it in one round, reaping the new workers if that fails;
    then every under-replicated shard (including survivors whose replicas
    died) is re-seeded from its live primary by the engine's one re-seed
    routine — one export per shard, every clone hosted in one round.
    Durable engines checkpoint as soon as every primary is live: a
    promoted replica's truncated log is only safe once the new snapshot
    generation references the promoted state, so recovery is not
    considered complete until that manifest is on disk.
    """
    structure = engine._structure
    rules = engine._rules
    lost = engine.dead_shard_positions()  # raises once the engine is closed
    dead_workers = [worker for worker in engine._workers
                    if not worker.is_alive()]
    for worker in dead_workers:
        worker.shutdown()  # marks it down
        engine._workers.remove(worker)
    for position in range(structure.num_shards):
        proxy = engine._proxy(position)
        for replica in list(proxy.replicas):
            if replica.worker.down:
                rules.drop(proxy, replica)

    promoted: List[int] = []
    replayed: List[int] = []
    rebuilt_empty: List[int] = []
    rebuilt: List[Tuple[int, object]] = []
    for position in lost:
        shard_id = structure.shard_ids[position]
        proxy = engine._proxy(position)
        if proxy.replicas:  # every one of them live: the dead were dropped
            replica = proxy.replicas[0]
            descriptor = replica.worker.request(
                shard_id, "__promote__",
                (replica.shard_id, engine._oplog_spec(shard_id,
                                                      truncate=True)))
            replica.worker.shard_ids.discard(replica.shard_id)
            replica.worker.shard_ids.add(shard_id)
            engine._worker_by_shard[shard_id] = replica.worker
            proxy.promote(_ShardCopy(replica.worker, shard_id, descriptor),
                          proxy.replicas[1:])
            promoted.append(position)
            continue
        shard, had_state = _rebuild_shard(engine, position, shard_id)
        rebuilt.append((position, shard))
        (replayed if had_state else rebuilt_empty).append(position)

    pool = len(engine._workers)
    with engine._reaping_new_workers():
        for _worker in dead_workers:
            engine._workers.append(_ShardWorker(engine._mp_context))
        primaries = engine._host_primaries(rebuilt)
    respawned = engine._workers[pool:]
    for (position, _shard), primary in zip(rebuilt, primaries):
        engine._proxy(position).promote(primary, [])

    if engine.durability_dir is not None and lost:
        # Checkpoint as soon as every primary is live again — a promoted
        # replica's log was truncated, so until this manifest lands the
        # promoted state exists only in memory.  Re-replication below does
        # not change anything the manifest records, so once is enough; and
        # should the window still be hit, the truncated log now fails
        # replay loudly instead of silently dropping acknowledged writes.
        checkpoint_engine(engine)

    # Not reaped on failure: the respawned workers already host recovered
    # primaries, and a shard whose replicas failed to host is re-seeded by
    # the next recovery.
    wanted = {}
    for position in range(structure.num_shards):
        needed = engine.replication - 1 - len(engine._proxy(position).replicas)
        if needed > 0:
            wanted[position] = (needed, respawned)
    engine._reseed(wanted)

    return RecoveryReport(positions=tuple(lost), promoted=tuple(promoted),
                          replayed=tuple(replayed),
                          rebuilt_empty=tuple(rebuilt_empty),
                          re_replicated=tuple(sorted(wanted)))


# --------------------------------------------------------------------------- #
# Cold start
# --------------------------------------------------------------------------- #

def open_durable_engine(directory: str, *,
                        replication: Optional[int] = None,
                        read_policy: Optional[str] = None,
                        max_workers: Optional[int] = None,
                        durability_mode: Optional[str] = None,
                        fsync: bool = True):
    """Rebuild a :class:`ProcessShardedDictionaryEngine` from disk alone.

    Reads the durability manifest, rebuilds every shard with its original
    construction seed, re-inserts its checkpoint image, replays its op-log
    tail, and brings the engine up (workers, replicas, a fresh checkpoint)
    against the same directory.  ``replication`` and ``durability_mode``
    default to what the manifest records, so a secure store reopens secure;
    every other setting comes from the manifest's embedded
    :class:`~repro.api.config.EngineConfig` (see
    :func:`_manifest_engine_config`), which the engine carries from its
    first checkpoint on, so every reopen writes it back.  This is the
    cold-start path — the parent process that owned the engine is gone,
    only the directory survives.
    """
    manifest = load_manifest(directory)
    structure = ShardedDictionary.from_manifest(
        manifest, os.path.join(directory, MANIFEST_NAME))
    for shard_id, shard in zip(structure.shard_ids, structure.shards):
        _restore_shard_state(shard, directory, manifest, shard_id, fsync)
    if replication is None:
        replication = int(manifest.get("replication", 1))
    if read_policy is None:
        read_policy = str(manifest.get("read_policy", "primary"))
    if durability_mode is None:
        durability_mode = str(manifest.get("durability_mode", "logged"))
    config = _manifest_engine_config(
        manifest, directory=directory, replication=replication,
        read_policy=read_policy, durability_mode=durability_mode,
        fsync=fsync, max_workers=max_workers)
    return ProcessShardedDictionaryEngine(structure, config)


def _manifest_engine_config(manifest: Dict[str, object], *, directory: str,
                            replication: int, read_policy: str,
                            durability_mode: str,
                            fsync: bool, max_workers: Optional[int]):
    """The :class:`~repro.api.config.EngineConfig` a cold start reopened.

    Version-2 manifests embed the config's dict form directly, whose
    ``shards`` and ``inner`` are taken from the manifest's own shard list
    (stores resized by older builds recorded the pre-resize pair); older
    manifests are synthesized from the build record.  Either way the
    fields the caller overrode (and the directory actually opened) replace
    what the manifest recorded, so the config describes the engine as it
    will run — the server handshake hands it to clients verbatim.  The
    engine validates it.
    """
    from repro.api.config import EngineConfig

    payload = manifest.get("engine_config")
    if isinstance(payload, dict):
        base = EngineConfig.from_dict(payload)
    else:
        build = manifest["build"]
        base = EngineConfig(
            block_size=int(build.get("block_size", 64)),
            cache_blocks=int(build.get("cache_blocks", 0)),
            seed=build.get("seed"),
            inner_params=dict(build.get("inner_params") or {}),
            router=manifest.get("router", "modulo"))
    return _config_for_shards(base, manifest["inner"]).replace(
        parallel="process", durability_dir=directory,
        replication=replication, read_policy=read_policy,
        durability_mode=durability_mode,
        fsync=fsync, max_workers=max_workers)

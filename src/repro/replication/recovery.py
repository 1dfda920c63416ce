"""Checkpoints, seeded recovery and failover for the process engine.

Three entry points, all driven through
:class:`~repro.api.process_engine.ProcessShardedDictionaryEngine`:

* :func:`checkpoint_engine` — each primary's worker writes its image and
  commits its op-log barrier in one conversation, returning its manifest
  entry; the parent writes the manifest atomically, sweeps the superseded
  images, then compacts the logs to their barriers.
* :func:`recover_engine` — behind ``recover()`` and ``restart_workers()``
  on every process engine — repair dead primaries: **promote** a live
  replica when one exists (then truncate + re-checkpoint its log), else
  a respawned worker rebuilds the shard with its *original construction
  seed* and **replays** its checkpoint image and op-log tail, else (no
  replica, no durable state) rebuilds it empty with that same seed.  Then
  every shard is re-replicated back to full strength through the
  engine's one re-seed routine, all clones hosted at once.
* :func:`open_durable_engine` — cold-start: rebuild a whole engine from a
  durability directory alone (manifest + images + logs), e.g. after the
  parent process itself restarted; each worker restores its own primary.

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
store-wide ones), written and read only through that module's helpers: the
images by the worker that hosts the shard, the manifest by the parent.
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
from repro.api.routing import DEFAULT_VNODES, ConsistentHashRouter
from repro.api.sharded import ShardedDictionary, _config_for_shards
from repro.errors import ConfigurationError
from repro.storage.snapshot import (
    MANIFEST_NAME,
    read_manifest,
    release_files,
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


def oplog_path(directory: str, shard_id: int) -> str:
    return os.path.join(directory, OPLOG_NAME % shard_id)


def _current_generation(directory: str) -> int:
    """The generation the on-disk manifest references (0 when none does).

    Read from disk, so it is right for a warm engine, a cold open and a
    recovery alike, and a new generation's file names never collide with
    the ones the live manifest still points at.
    """
    try:
        generation = load_manifest(directory).get("generation", 0)
    except ConfigurationError:
        return 0
    valid = isinstance(generation, int) and not isinstance(generation, bool)
    return generation if valid and generation >= 0 else 0


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

    Side by side, each primary's worker writes its image under a fresh
    generation-numbered name and commits its log barrier in one
    ``__checkpoint__`` conversation, so the manifest entry it returns
    describes one instant.  Then the manifest flips to the new images
    (:func:`~repro.storage.snapshot.write_manifest`), then the superseded
    generation is swept (:func:`~repro.storage.snapshot.release_files`,
    which with ``fsync`` syncs the directory again so no swept image comes
    back after a machine crash) — a crash anywhere in between leaves
    exactly one complete generation referenced and intact on disk.  Log
    compaction runs after the flip; it only ever drops frames the freshly
    referenced snapshots already cover.
    """
    directory = engine.durability_dir
    fsync = engine.engine_config.fsync
    positions = range(engine._structure.num_shards)
    generation = _current_generation(directory) + 1
    results = engine._scatter([(position, "__checkpoint__", (generation,))
                               for position in positions])
    entries = [results[position] for position in positions]
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
    # The flip is durable; every other image — the old generation's, a
    # removed shard's, a crashed checkpoint's — is unreferenced garbage.
    referenced = {entry["file"] for entry in entries}
    release_files([os.path.join(directory, name)
                   for name in os.listdir(directory)
                   if name.startswith("shard-") and name.endswith(".img")
                   and name not in referenced], fsync=fsync)
    compacted = engine._scatter([
        (position, "__compact__", (entries[position]["oplog"]["offset"],))
        for position in positions])
    engine.metrics.inc("erasure.frames_dropped", sum(
        result[1] for result in compacted.values()
        if isinstance(result, tuple)))
    return manifest


# --------------------------------------------------------------------------- #
# Manifest loading
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


# --------------------------------------------------------------------------- #
# Recovery
# --------------------------------------------------------------------------- #

def recover_engine(engine) -> RecoveryReport:
    """Repair dead primaries and restore every shard to full replication.

    The per-shard decision ladder is promotion → snapshot/log replay →
    empty rebuild, every rebuild with the shard's original seed.  The
    worker pool is restored to its previous size and each new worker
    restores its primaries, all at once, reaping the new workers if that
    fails; then every under-replicated shard (survivors whose replicas
    died included) is re-seeded from its live primary by the engine's one
    re-seed routine — one export per shard, every clone hosted in one round.
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
    rebuilt: List[int] = []
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
        if structure.build_record is None:
            raise ConfigurationError(
                "this sharded dictionary was assembled from pre-built "
                "shards; the engine cannot rebuild lost shards without a "
                "registry build record")
        rebuilt.append(position)

    pool = len(engine._workers)
    with engine._reaping_new_workers():
        for _worker in dead_workers:
            engine._workers.append(_ShardWorker(engine._mp_context))
        # Each new worker rebuilds its primary, restoring it when durable.
        primaries = engine._host_primaries(
            [(position, None) for position in rebuilt])
    respawned = engine._workers[pool:]
    for position, primary in zip(rebuilt, primaries):
        engine._proxy(position).promote(primary, [])

    durable = engine.durability_dir is not None
    if durable and lost:
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
                          replayed=tuple(rebuilt) if durable else (),
                          rebuilt_empty=() if durable else tuple(rebuilt),
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

    The cold-start path: only the directory survives.  Each primary's
    worker rebuilds its shard with its original seed, loads its checkpoint
    image and replays its op-log tail; replicas are seeded from the
    restored primaries; a fresh checkpoint follows.  ``replication`` and
    ``durability_mode`` default to what the manifest records, so a secure
    store reopens secure; every other setting comes from the manifest's
    embedded :class:`~repro.api.config.EngineConfig` (see
    :func:`_manifest_engine_config`), which the engine carries from its
    first checkpoint on, so every reopen writes it back.
    """
    manifest = load_manifest(directory)
    structure = ShardedDictionary.from_manifest(
        manifest, os.path.join(directory, MANIFEST_NAME))
    # Building the empty shards imported their modules before the first
    # fork; the workers build and restore the real ones.
    structure._shards = [None] * structure.num_shards
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

"""Durability & replication for the process engine.

The paper's history-independent dictionaries are designed for *persistent*
storage, but a process engine that keeps each shard in one worker loses
that shard's data when the worker crashes.  Replicas and durable state are
:class:`~repro.api.config.EngineConfig` settings of the one process engine,
:class:`~repro.api.process_engine.ProcessShardedDictionaryEngine`::

    make_sharded_engine(EngineConfig(inner="b-treap", parallel="process",
                                     replication=2, durability_dir="store/"))

Writes fan out to a primary plus ``replication - 1`` replica placements
computed from the consistent-hash ring, and reads are served by the
primary (or spread over the replicas by ``read_policy``) with replica
fallback on :class:`~repro.errors.WorkerCrashError`.  This package holds
the two pieces behind those settings:

* :mod:`repro.replication.oplog` — a per-shard append-only **op log**
  (CRC-framed fixed-width records reusing the storage codec, fsync batched
  per command, compacted at snapshot barriers).
* :mod:`repro.replication.recovery` — checkpoints, seeded recovery and
  failover: ``recover()`` (and ``restart_workers()``, on every process
  engine) promotes a live replica, else replays snapshot + op-log tail,
  else rebuilds the shard empty, then re-replicates;
  :func:`open_durable_engine` cold-starts an engine from a durability
  directory, under the config its manifest embeds.

A plain engine (``replication=1``, no directory) imports nothing from this
package at start-up or in a worker; ``restart_workers()`` imports
:mod:`repro.replication.recovery` in the parent.  The engine's
``erasure.*`` and ``replica_reads.*`` counters live in its metrics
registry and surface through ``engine.telemetry()``.

The recovery contract is the paper's anti-persistence property doing real
work: a recovered shard is rebuilt with its *original* construction seed and
its canonical layout is a function of the surviving key set alone, so the
recovered engine is byte-identical (canonical HI digest tier) to an
identically-built engine that never crashed.

Durability modes (:data:`~repro.api.config.DURABILITY_MODES`): the default
``durability_mode="logged"`` keeps the full mutation history in the op logs
until a checkpoint compacts them — durable, but a stolen durability
directory leaks exactly the history the HI structures hide.
``durability_mode="secure"`` restores the paper's guarantee end-to-end:
deletes trigger a history-redacting log compaction at the next
``barrier()``/``checkpoint()`` (write-new + atomic rename + directory
fsync), after which no frame in any op log and no slot in any checkpoint
image encodes a deleted key.
:func:`repro.history.forensics.audit_durability_dir` is the observer-side
check of that claim.
"""

from repro.api.config import DURABILITY_MODES
from repro.replication.oplog import OpLog, read_ops
from repro.replication.recovery import (
    RecoveryReport,
    open_durable_engine,
    replica_targets,
)

__all__ = [
    "DURABILITY_MODES",
    "OpLog",
    "RecoveryReport",
    "open_durable_engine",
    "read_ops",
    "replica_targets",
]

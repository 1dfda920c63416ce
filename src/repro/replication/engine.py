"""The replicated process engine: primary + replica shards, durable writes.

:class:`ReplicatedShardedDictionaryEngine` extends the PR 4 process backend
with the two properties a durable store needs:

* **Replication** — every shard is hosted as a *primary* plus
  ``replication - 1`` *replica* copies, each on a different worker process.
  Replica placements are computed from the consistent-hash ring (the first
  ``replication - 1`` distinct ring successors of the shard's id), so
  placement is a pure function of the shard-id tuple: deterministic across
  runs and stable under resizes.  Writes fan out to the primary and every
  replica (one batched command each); reads are served by the primary, and
  point reads fall back to a live replica when the primary's worker died.
* **Durability** — with a ``durability_dir`` each primary's worker appends
  every acknowledged mutation to a per-shard
  :class:`~repro.replication.oplog.OpLog`, and :meth:`checkpoint` writes
  per-shard snapshot images plus an atomic manifest that records each
  log's barrier offset (then compacts the logs).  Recovery — see
  :mod:`repro.replication.recovery` — promotes a live replica or replays
  snapshot + log tail, instead of PR 4's empty rebuild.

Replica copies are *clones*: the shard structure is pickled to the replica
workers at adoption time (randomness state included), and both copies then
apply the identical operation stream — so for every structure in the
registry a replica stays byte-identical to its primary, and promotion is
loss-free for acknowledged writes.  Consistency policy: an operation is
acknowledged when the **primary** applied it.  A replica whose worker died
(or that diverged) is dropped from the fan-out and rebuilt by the next
recovery; replica failures never fail a write.

With ``replication=1`` and no durability directory this engine is never
constructed — ``make_sharded_engine`` returns the plain process engine, bit
for bit.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.config import READ_POLICIES
from repro.api.process_engine import (
    ProcessShardedDictionaryEngine,
    _ShardProxy,
    _ShardWorker,
)
from repro.api.protocol import HIDictionary, Pair
from repro.api.routing import DEFAULT_VNODES, ConsistentHashRouter
from repro.api.sharded import MigrationReport, ShardedDictionary
from repro.errors import (
    ConfigurationError,
    ReplicationError,
    WorkerCrashError,
)
from repro.replication.recovery import (
    RecoveryReport,
    checkpoint_engine,
    oplog_path,
    recover_engine,
)

#: Methods that mutate a shard and therefore fan out to replicas.
_MUTATORS = frozenset(("insert", "upsert", "delete"))

#: Durability modes accepted by the engine.  ``"logged"`` keeps the full
#: mutation history in the op logs until the next checkpoint compacts them;
#: ``"secure"`` additionally redacts history at every :meth:`barrier` that
#: flushed deletes, so a deleted key's encoding survives nowhere in the
#: durability directory once the barrier returns (the paper's
#: anti-persistence guarantee, extended to the durable artifacts).
DURABILITY_MODES = ("logged", "secure")

#: Read methods always served by the primary, whatever the read policy.
#: ``io_stats`` is a *measurement*: replica-served reads charge the
#: replica's own trackers, so only the primary's counters stay comparable
#: to a sequential engine's.
_PRIMARY_PINNED = frozenset(("io_stats",))


class _ReadPolicyState:
    """Engine-wide read-routing state, shared by every shard proxy.

    ``policy`` is one of :data:`~repro.api.config.READ_POLICIES`.
    ``barrier_epoch`` counts durability sync points: a replica stamped
    with the current epoch has acked the latest barrier (and, because
    writes fan out synchronously, applied everything since), which is the
    ``"any-after-barrier"`` read-eligibility condition.  ``liveness_epoch``
    versions the proxies' cached live-replica lists — bumped whenever a
    :class:`~repro.errors.WorkerCrashError` is observed or the topology
    changes, so the hot read path never pays an ``is_alive`` syscall per
    operation.  ``stats`` holds the deterministic ``replica_reads.*``
    counters the bench baseline gates.
    """

    __slots__ = ("policy", "barrier_epoch", "liveness_epoch", "stats")

    def __init__(self, policy: str = "primary") -> None:
        self.policy = policy
        self.barrier_epoch = 0
        self.liveness_epoch = 0
        self.stats: Dict[str, int] = {
            "replica_reads": 0, "demotions": 0, "anti_entropy_reseeds": 0}


class _ReplicatedShardProxy(HIDictionary):
    """One shard seen as primary plus replicas, behind one dictionary face.

    The sharded structure's routing, migration, iteration and validation
    machinery all talk to whatever sits in its shard list; putting the
    replication policy *here* means every one of those paths — including
    the elastic resize's migration traffic — fans mutations out and reads
    through the primary without knowing replicas exist.
    """

    def __init__(self, primary: _ShardProxy,
                 replicas: List[_ShardProxy],
                 policy: Optional[_ReadPolicyState] = None) -> None:
        self.primary = primary
        self.replicas = replicas
        self.registry_name = primary.registry_name
        self._policy = policy if policy is not None else _ReadPolicyState()
        self._live_cache: Optional[List[_ShardProxy]] = None
        self._live_epoch = -1
        self._rr_cursor = 0

    # -- replica-set management ----------------------------------------- #

    def promote(self, new_primary: _ShardProxy,
                remaining: List[_ShardProxy]) -> None:
        """Swap in a recovered primary and the surviving replica set."""
        self.primary = new_primary
        self.replicas = remaining
        self.registry_name = new_primary.registry_name
        self._live_cache = None

    def live_replicas(self) -> List[_ShardProxy]:
        """The replicas whose workers are alive, cached per liveness epoch.

        ``is_alive`` is a waitpid-backed syscall; paying it per read would
        dominate the hot path.  The filtered list is reused until the
        engine observes a crash or changes the replica set (either bumps
        the shared liveness epoch or clears this cache directly).  A
        silently killed worker that slips through a stale cache is still
        safe: its next request raises
        :class:`~repro.errors.WorkerCrashError`, which invalidates here.
        """
        if self._live_cache is None \
                or self._live_epoch != self._policy.liveness_epoch:
            self._live_cache = [replica for replica in self.replicas
                                if replica.worker.is_alive()]
            self._live_epoch = self._policy.liveness_epoch
        return self._live_cache

    def drop_replica(self, replica: _ShardProxy) -> None:
        if replica in self.replicas:
            self.replicas.remove(replica)
        self._live_cache = None

    def add_replica(self, replica: _ShardProxy) -> None:
        self.replicas.append(replica)
        self._live_cache = None

    def demote(self, replica: _ShardProxy) -> None:
        """Drop a replica from read service (crash or divergence)."""
        self.drop_replica(replica)
        self._policy.liveness_epoch += 1
        self._policy.stats["demotions"] += 1

    # -- read routing ----------------------------------------------------- #

    def read_copies(self) -> List[_ShardProxy]:
        """Eligible read targets under the current policy, primary first.

        ``"primary"`` serves everything from the primary; ``"round-robin"``
        admits every live replica; ``"any-after-barrier"`` admits only the
        live replicas stamped with the current barrier epoch — the ones
        proven in sync at the engine's last durability sync point (and
        kept in sync since, because writes fan out synchronously).
        """
        policy = self._policy
        if policy.policy == "primary":
            return [self.primary]
        live = self.live_replicas()
        if policy.policy == "any-after-barrier":
            epoch = policy.barrier_epoch
            live = [replica for replica in live
                    if getattr(replica, "_synced_epoch", -1) == epoch]
        return [self.primary] + live

    def _pick_reader(self) -> _ShardProxy:
        copies = self.read_copies()
        if len(copies) == 1:
            return copies[0]
        reader = copies[self._rr_cursor % len(copies)]
        self._rr_cursor += 1
        return reader

    # -- write fan-out --------------------------------------------------- #

    def _mutate(self, method: str, *args: object) -> object:
        """Primary first — its outcome *is* the operation's outcome — then
        the same call on every replica.

        A replica that crashes is dropped (recovery re-seeds it); a replica
        that *answers differently* than the primary did has diverged and is
        dropped too.  When the primary itself raises, the replicas are not
        touched: they never saw the operation, which is exactly the state
        the primary is in.
        """
        result = getattr(self.primary, method)(*args)
        for replica in list(self.replicas):
            try:
                getattr(replica, method)(*args)
            except Exception:
                self.drop_replica(replica)
        return result

    def insert(self, key: object, value: object = None) -> None:
        return self._mutate("insert", key, value)

    def upsert(self, key: object, value: object = None) -> bool:
        return self._mutate("upsert", key, value)

    def delete(self, key: object) -> object:
        return self._mutate("delete", key)

    # -- reads: policy-routed, primary fallback on a dead worker ---------- #

    def _read(self, method: str, *args: object) -> object:
        if self._policy.policy != "primary" \
                and method not in _PRIMARY_PINNED:
            reader = self._pick_reader()
            if reader is not self.primary:
                try:
                    result = getattr(reader, method)(*args)
                except WorkerCrashError:
                    self.demote(reader)  # fall through to the primary path
                except Exception as replica_error:
                    return self._cross_check(reader, method, args,
                                             replica_error)
                else:
                    self._policy.stats["replica_reads"] += 1
                    return result
        try:
            return getattr(self.primary, method)(*args)
        except WorkerCrashError:
            self._policy.liveness_epoch += 1
            for replica in list(self.live_replicas()):
                try:
                    return getattr(replica, method)(*args)
                except WorkerCrashError:
                    self._policy.liveness_epoch += 1
                    continue
            raise

    def _cross_check(self, replica: _ShardProxy, method: str, args: tuple,
                     replica_error: BaseException) -> object:
        """A replica answered a read with an exception: second-opinion it.

        An exception is the one replica answer that can be verified
        without reading twice everywhere — re-ask the primary.  The same
        exception type means the copies agree (a ``search`` miss raises
        identically on both); a primary that answers, or fails
        differently, exposes a diverged replica, which is demoted while
        the primary's outcome is served.  (A ``contains`` returning the
        wrong boolean is undetectable by construction — anti-entropy's
        digest pass is the backstop for silent divergence.)
        """
        try:
            result = getattr(self.primary, method)(*args)
        except WorkerCrashError:
            raise replica_error  # no second opinion; the replica's stands
        except Exception as primary_error:
            if type(primary_error) is type(replica_error):
                raise primary_error
            self.demote(replica)
            raise primary_error
        self.demote(replica)
        return result

    def _read_raw(self, command: str, *args: object) -> object:
        """Like :meth:`_read` for worker commands with no proxy method
        (``keys`` / ``len``, the container-protocol primitives)."""
        try:
            return self.primary._call(command, *args)
        except WorkerCrashError:
            for replica in self.live_replicas():
                try:
                    return replica._call(command, *args)
                except WorkerCrashError:
                    continue
            raise

    def search(self, key: object) -> object:
        return self._read("search", key)

    def contains(self, key: object) -> bool:
        return self._read("contains", key)

    def items(self) -> List[Pair]:
        return self._read("items")

    def range_query(self, low: object, high: object):
        return self._read("range_query", low, high)

    def check(self) -> None:
        return self._read("check")

    def __len__(self) -> int:
        return self._read_raw("len")

    def __iter__(self):
        return iter(self._read_raw("keys"))

    def io_stats(self):
        return self._read("io_stats")

    def snapshot_slots(self) -> Sequence[object]:
        return self._read("snapshot_slots")

    def audit_fingerprint(self) -> object:
        return self._read("audit_fingerprint")

    # -- optional capabilities (read-only by convention) ------------------ #

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("primary", "replicas"):
            raise AttributeError(name)
        primary = self.__dict__.get("primary")
        if primary is None:
            raise AttributeError(name)
        getattr(primary, name)  # raises AttributeError for unknown methods

        def fallback_call(*args: object) -> object:
            if name in _MUTATORS:  # pragma: no cover - defensive
                return self._mutate(name, *args)
            return self._read(name, *args)

        fallback_call.__name__ = name
        return fallback_call


class ReplicatedShardedDictionaryEngine(ProcessShardedDictionaryEngine):
    """A process-sharded engine with replica shards and durable recovery.

    Construction hosts each shard as a primary (exactly like the process
    engine) plus ``replication - 1`` pickled clones on ring-successor
    workers, and — when ``durability_dir`` is given — attaches a per-shard
    op log to every primary and writes an initial :meth:`checkpoint`, so a
    durable engine always has a manifest on disk.

    Recovery entry points: :meth:`recover` (and the inherited
    ``restart_workers()`` name, which now delegates to it) repair dead
    primaries by replica promotion or snapshot + op-log replay and re-seed
    missing replicas; :func:`repro.replication.recovery.open_durable_engine`
    cold-starts an engine from a durability directory alone.
    """

    def __init__(self, structure: ShardedDictionary, *,
                 name: Optional[str] = None,
                 sample_operations: bool = False,
                 max_workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 replication: int = 2,
                 read_policy: str = "primary",
                 durability_dir: Optional[str] = None,
                 durability_mode: str = "logged",
                 fsync: bool = True) -> None:
        if not isinstance(replication, int) or isinstance(replication, bool) \
                or replication < 1:
            raise ConfigurationError(
                "replication must be an integer >= 1, got %r"
                % (replication,))
        if read_policy not in READ_POLICIES:
            raise ConfigurationError(
                "read_policy must be one of %s, got %r"
                % (", ".join(repr(policy) for policy in READ_POLICIES),
                   read_policy))
        if read_policy != "primary" and replication < 2:
            raise ConfigurationError(
                "read_policy=%r balances reads across replica copies; it "
                "needs replication >= 2" % (read_policy,))
        if durability_mode not in DURABILITY_MODES:
            raise ConfigurationError(
                "durability_mode must be one of %s, got %r"
                % (", ".join(repr(mode) for mode in DURABILITY_MODES),
                   durability_mode))
        if durability_mode == "secure" and durability_dir is None:
            raise ConfigurationError(
                "durability_mode='secure' redacts the on-disk op logs at "
                "barriers; it needs durability_dir=...")
        if isinstance(structure, ShardedDictionary) \
                and replication > structure.num_shards:
            raise ConfigurationError(
                "replication factor %d needs at least as many shards (and "
                "workers) as copies; this dictionary has %d shard(s)"
                % (replication, structure.num_shards))
        if durability_dir is not None \
                and isinstance(structure, ShardedDictionary) \
                and structure._build_context is None:
            raise ConfigurationError(
                "durability needs the registry build context (per-shard "
                "seeds and construction parameters) to rebuild crashed "
                "shards; build the dictionary through make_dictionary("
                "'sharded', ...) instead of from pre-built shards")
        # Set before super().__init__: the base constructor calls our
        # overridden _adopt_local_shards, which reads all of these.
        self._replication = replication
        self._read_policy = read_policy
        self._policy_state = _ReadPolicyState(read_policy)
        self._durability_dir = durability_dir
        self._durability_mode = durability_mode
        self._fsync = fsync
        #: Deterministic erasure accounting (pure functions of the workload
        #: and topology, so the bench baseline can gate them): barriers
        #: reached, secure redactions triggered, delete frames flushed at
        #: barriers, and op-log frames dropped by compaction.
        self._erasure_stats: Dict[str, int] = {
            "barriers": 0, "redactions": 0, "deletes_flushed": 0,
            "frames_dropped": 0}
        self._next_replica_id = -1
        self._placement_router: Optional[ConsistentHashRouter] = None
        if durability_dir is not None:
            os.makedirs(durability_dir, exist_ok=True)
        super().__init__(structure, name=name,
                         sample_operations=sample_operations,
                         max_workers=max_workers, start_method=start_method)
        if durability_dir is not None:
            # A durable engine always has a manifest: crash at any later
            # point finds at least the empty-state snapshot plus full logs.
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def replication(self) -> int:
        """The configured copy count (primary included)."""
        return self._replication

    @property
    def durability_dir(self) -> Optional[str]:
        return self._durability_dir

    @property
    def durability_mode(self) -> str:
        """``"logged"`` (full history until checkpoint) or ``"secure"``."""
        return self._durability_mode

    @property
    def read_policy(self) -> str:
        """The read routing policy (see
        :data:`~repro.api.config.READ_POLICIES`)."""
        return self._read_policy

    def erasure_stats(self) -> Dict[str, int]:
        """Deterministic erasure counters (see ``_erasure_stats``)."""
        return dict(self._erasure_stats)

    def io_stats(self):
        """Aggregate worker-held I/O counters; fails cleanly once closed.

        The counters live in the worker processes, so after :meth:`close`
        there is nothing left to aggregate — without this check the
        inherited path would surface the dead command pipe as a confusing
        :class:`~repro.errors.WorkerCrashError`.
        """
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; its workers (and their I/O "
                "counters) are gone — build a new one")
        return super().io_stats()

    def replica_read_stats(self) -> Dict[str, int]:
        """Deterministic read-routing counters: keys served by replica
        copies, replicas demoted from read service (crash or divergence),
        and replicas re-seeded by :meth:`anti_entropy`.

        Raises :class:`~repro.errors.ConfigurationError` once the engine
        is closed, matching :meth:`io_stats` — a shut-down engine routes
        no reads, and handing out a stale-looking dict would mask bugs in
        telemetry pollers that outlive the engine.
        """
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; it routes no replica reads — "
                "build a new one")
        return dict(self._policy_state.stats)

    def _bump_liveness(self) -> None:
        self._policy_state.liveness_epoch += 1

    def replica_counts(self) -> List[int]:
        """Live replica count per shard position (testing/ops hook)."""
        return [len(self._proxy(position).live_replicas())
                for position in range(self.num_shards)]

    def _proxy(self, position: int) -> _ReplicatedShardProxy:
        shard = self._structure._shards[position]
        if not isinstance(shard, _ReplicatedShardProxy):  # pragma: no cover
            raise ReplicationError(
                "shard position %d is not replication-managed" % (position,))
        return shard

    # ------------------------------------------------------------------ #
    # Placement and adoption
    # ------------------------------------------------------------------ #

    def _oplog_spec(self, shard_id: int,
                    truncate: bool = False) -> Optional[Dict[str, object]]:
        """The worker-side op-log description for one primary hosting."""
        if self._durability_dir is None:
            return None
        return {"path": oplog_path(self._durability_dir, shard_id),
                "fsync": self._fsync, "truncate": truncate}

    def _take_replica_id(self) -> int:
        """A fresh worker-side engine id for a replica hosting.

        Replica ids live in the negative range so they can never collide
        with the structure's (non-negative) stable shard ids.
        """
        replica_id = self._next_replica_id
        self._next_replica_id -= 1
        return replica_id

    def _placement(self) -> ConsistentHashRouter:
        """The ring the replica placements are computed from.

        The structure's own consistent-hash router when it has one (replica
        chains then follow the same ring as key routing), else a dedicated
        default ring — placement stays a pure function of the shard ids
        either way.
        """
        if isinstance(self._structure.router, ConsistentHashRouter):
            return self._structure.router
        if self._placement_router is None:
            self._placement_router = ConsistentHashRouter(DEFAULT_VNODES)
        return self._placement_router

    def _replica_workers_for(self, shard_id: int, exclude: set,
                             needed: int,
                             prefer: Sequence[_ShardWorker] = ()
                             ) -> List[_ShardWorker]:
        """Distinct live workers for ``needed`` replicas of ``shard_id``.

        Walks ``prefer`` first (recovery hands respawned workers here),
        then the workers hosting the shard's ring successors, then any
        remaining live worker.  Every chosen worker is distinct from the
        excluded set (the primary's worker plus already-placed replicas) —
        co-hosting a replica with its own primary would make one crash take
        both copies.
        """
        chosen: List[_ShardWorker] = []
        seen = set(exclude)

        def take(worker: Optional[_ShardWorker]) -> bool:
            if worker is None or worker in seen or not worker.is_alive():
                return False
            seen.add(worker)
            chosen.append(worker)
            return len(chosen) >= needed

        if needed <= 0:
            return chosen
        for worker in prefer:
            if take(worker):
                return chosen
        shard_ids = self._structure.shard_ids
        for successor in self._placement().successors(shard_id, shard_ids,
                                                      len(shard_ids)):
            if take(self._worker_by_shard.get(successor)):
                return chosen
        for worker in self._workers:
            if take(worker):
                return chosen
        raise ConfigurationError(
            "cannot place %d replica(s) of shard id %d: only %d distinct "
            "live worker(s) besides its primary — raise max_workers or "
            "lower replication" % (needed, shard_id, len(chosen)))

    def _adopt_local_shards(self) -> None:
        """Host every local shard as a primary plus its replica clones.

        Two passes: primaries first (spawning the worker pool), then
        replicas — replica placement targets the workers that host the ring
        successors, which must all exist before the first replica is
        placed.  A shard that is local because of an elastic grow is
        adopted *populated*, so its clones start byte-identical, migration
        history included.
        """
        if self._closed:
            raise ConfigurationError(
                "this process engine is closed; build a new one")
        shards = self._structure._shards
        local = [(position, shard) for position, shard in enumerate(shards)
                 if not isinstance(shard, (_ShardProxy,
                                           _ReplicatedShardProxy))]
        copies = self._replication - 1
        with self._reaping_new_workers():
            primaries = self._host_primaries(local)
            hostings = []
            for (_position, shard), primary in zip(local, primaries):
                for target in self._replica_workers_for(
                        primary.shard_id, exclude={primary.worker},
                        needed=copies):
                    # Hosting pickles the still-local structure over the
                    # pipe, so every replica is an independent, identical
                    # clone.
                    hostings.append((target, self._take_replica_id(),
                                     (shard,)))
            replicas = self._host(hostings)
        for index, ((position, _shard), primary) in enumerate(
                zip(local, primaries)):
            shards[position] = _ReplicatedShardProxy(
                primary, replicas[index * copies:(index + 1) * copies],
                self._policy_state)
        self._shard_engine_cache = []

    # ------------------------------------------------------------------ #
    # Batched bulk operations (primary + replica fan-out)
    # ------------------------------------------------------------------ #

    def _replicated_commands(self, method: str, payloads: Dict[int, tuple]
                             ) -> List[Tuple[Tuple[int, int], _ShardWorker,
                                             int, str, tuple]]:
        """One command per copy: key ``(position, 0)`` is the primary,
        ``(position, r)`` with ``r >= 1`` that shard's ``r``-th replica."""
        commands = []
        for position, args in payloads.items():
            proxy = self._proxy(position)
            commands.append(((position, 0), proxy.primary.worker,
                             proxy.primary.shard_id, method, args))
            for index, replica in enumerate(proxy.replicas):
                commands.append(((position, index + 1), replica.worker,
                                 replica.shard_id, method, args))
        return commands

    def _settle(self, errors: Dict[Tuple[int, int], BaseException]) -> None:
        """Apply the fan-out failure policy to a bulk call's error map.

        Replica crashes drop the replica; a replica-side error with no
        matching primary error means divergence and drops it too (a replica
        failing the *same* way as its primary is still in sync — both
        rejected the operation identically).  Primary errors re-raise for
        the smallest shard position, matching the sequential engine.
        """
        primary_errors = {key[0]: error for key, error in errors.items()
                          if key[1] == 0}
        # Resolve every failed copy's replica object BEFORE the first drop:
        # the copy indexes were assigned against the replica list as the
        # commands were built, and dropping while resolving would skew the
        # remaining indexes (a second failed replica of the same shard
        # would be mis-identified or silently kept).
        doomed = []
        for (position, copy), error in errors.items():
            if copy == 0:
                continue
            proxy = self._proxy(position)
            if copy - 1 >= len(proxy.replicas):  # pragma: no cover
                continue
            replica = proxy.replicas[copy - 1]
            if isinstance(error, WorkerCrashError) \
                    or type(error) is not type(primary_errors.get(position)):
                doomed.append((proxy, replica))
        for proxy, replica in doomed:
            proxy.drop_replica(replica)
        if primary_errors:
            raise primary_errors[min(primary_errors)]

    def insert_many(self, entries: Iterable[object]) -> int:
        """Insert with one ``insert_batch`` per copy of each shard."""
        if self.sample_operations:
            return super().insert_many(entries)
        batches, count = self._grouped_entries(entries)
        payloads = {position: (batch,)
                    for position, batch in enumerate(batches) if batch}
        with self._bulk_op("insert_many"):
            _results, errors = self._drive_commands(
                self._replicated_commands("insert_batch", payloads))
            self._settle(errors)
        self.metrics.inc("engine.keys.insert_many", count)
        return count

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        """Delete across every copy; values come from the primaries."""
        if self.sample_operations:
            return super().delete_many(keys)
        keys, batches = self._grouped_positions(keys)
        payloads = {position: ([key for _at, key in batch],)
                    for position, batch in enumerate(batches) if batch}
        with self._bulk_op("delete_many"):
            results, errors = self._drive_commands(
                self._replicated_commands("delete_batch", payloads))
            self._settle(errors)
        self.metrics.inc("engine.keys.delete_many", len(keys))
        values: List[object] = [None] * len(keys)
        for position, batch in enumerate(batches):
            if batch:
                for (at, _key), value in zip(batch,
                                             results[(position, 0)]):
                    values[at] = value
        return values

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        """Membership with each shard's batch fanned over its read copies.

        Under ``read_policy="primary"`` this is one ``contains_batch`` per
        primary, exactly as before; the balancing policies split each
        shard's sub-batch across the eligible copies (one command per
        copy), so a ``replication=3`` engine answers a
        read-heavy workload from three workers per shard instead of one.
        A copy that crashes (or errors) mid-fan-out has its *whole* slice
        re-asked on another live copy in a single crossing — byte-identical
        to the healthy path, never per-key point reads — with the primary
        as the last resort and dead replicas demoted along the way.
        """
        if self.sample_operations:
            return super().contains_many(keys)
        keys, batches = self._grouped_positions(keys)
        commands = []
        slices: Dict[Tuple[int, int],
                     Tuple[_ReplicatedShardProxy, _ShardProxy, list]] = {}
        for position, batch in enumerate(batches):
            if not batch:
                continue
            proxy = self._proxy(position)
            copies = proxy.read_copies()
            for index, copy in enumerate(copies):
                part = batch[index::len(copies)]
                if not part:
                    continue
                slices[(position, index)] = (proxy, copy, part)
                commands.append(
                    ((position, index), copy.worker, copy.shard_id,
                     "contains_batch",
                     ([key for _at, key in part],)))
        with self._bulk_op("contains_many"):
            results, errors = self._drive_commands(commands)
            replica_served = 0
            fatal: Dict[int, BaseException] = {}
            for key in slices:
                if key not in errors \
                        and slices[key][1] is not slices[key][0].primary:
                    replica_served += len(slices[key][2])
            for key, error in errors.items():
                proxy, copy, part = slices[key]
                retried = self._retry_read_slice(proxy, copy, part, error)
                if retried is None:
                    fatal[key[0]] = error
                    continue
                flags, server = retried
                results[key] = flags
                if server is not proxy.primary:
                    replica_served += len(part)
            if fatal:
                raise fatal[min(fatal)]
        self.metrics.inc("engine.keys.contains_many", len(keys))
        self._policy_state.stats["replica_reads"] += replica_served
        found: List[bool] = [False] * len(keys)
        for key, (_proxy, _copy, part) in slices.items():
            for (at, _key), flag in zip(part, results[key]):
                found[at] = flag
        return found

    def _retry_read_slice(self, proxy: _ReplicatedShardProxy,
                          copy: _ShardProxy, part: list,
                          error: BaseException
                          ) -> Optional[Tuple[List[bool], _ShardProxy]]:
        """Re-ask one failed read slice on the shard's other copies.

        The whole sub-batch travels in one ``contains_batch`` crossing per
        candidate — primary first when a replica failed, then the live
        replicas — so a degraded read costs one extra round-trip, not one
        per key.  A crashed replica is demoted; a replica whose command
        *errored* (the primary would not have) is demoted as diverged.
        Returns ``(flags, serving copy)``, or ``None`` when every copy is
        gone (the caller raises the original error).
        """
        if copy is proxy.primary and not isinstance(error, WorkerCrashError):
            return None  # the primary's own error is the authoritative one
        self._bump_liveness()
        if copy is not proxy.primary:
            proxy.demote(copy)
        candidates: List[_ShardProxy] = []
        if copy is not proxy.primary:
            candidates.append(proxy.primary)
        candidates.extend(replica for replica in proxy.live_replicas()
                          if replica is not copy)
        payload = ([key for _at, key in part],)
        for candidate in candidates:
            try:
                flags = candidate.worker.request(
                    candidate.shard_id, "contains_batch", payload)
            except WorkerCrashError:
                self._bump_liveness()
                if candidate is not proxy.primary:
                    proxy.demote(candidate)
                continue
            return flags, candidate
        return None

    # ------------------------------------------------------------------ #
    # Elastic resizing (durable topology changes re-checkpoint)
    # ------------------------------------------------------------------ #

    def add_shard(self, shard: Optional[HIDictionary] = None,
                  inner: Optional[str] = None) -> MigrationReport:
        """Grow by one replicated shard.

        The migration runs through the replicated proxies (so replicas and
        op logs see every moved key), the new shard is adopted with its own
        replicas, and a durable engine checkpoints — the manifest must
        describe the new topology before any further crash.
        """
        if shard is not None and self._durability_dir is not None:
            raise ConfigurationError(
                "a durable engine cannot adopt a pre-built shard: its "
                "construction seed is unknown, so a crash could not be "
                "recovered byte-identically; grow with inner=... so the "
                "shard is built (and its seed recorded) through the "
                "registry")
        report = super().add_shard(shard=shard, inner=inner)
        if self._durability_dir is not None:
            self.checkpoint()
        return report

    def remove_shard(self, position: int) -> MigrationReport:
        """Retire one shard, its replicas, and its durable artifacts."""
        proxy: Optional[_ReplicatedShardProxy] = None
        shard_id: Optional[int] = None
        if isinstance(position, int) and not isinstance(position, bool) \
                and 0 <= position < len(self._structure.shards):
            proxy = self._proxy(position)
            shard_id = self._structure.shard_ids[position]
        report = super().remove_shard(position)
        if proxy is not None:
            for replica in proxy.replicas:
                try:
                    replica.worker.drop(replica.shard_id)
                except WorkerCrashError:
                    pass
                if not replica.worker.shard_ids \
                        and replica.worker in self._workers:
                    replica.worker.shutdown()
                    self._workers.remove(replica.worker)
        if self._durability_dir is not None and shard_id is not None:
            # Publish the shrunk topology FIRST: until the new manifest is
            # on disk, the old one still references the retired shard's
            # artifacts, and deleting them early would make a crash here
            # leave an unopenable store.  The checkpoint's generation sweep
            # reclaims the retired images; only the op log remains ours to
            # drop.
            self.checkpoint()
            stale_log = oplog_path(self._durability_dir, shard_id)
            if os.path.exists(stale_log):
                os.unlink(stale_log)
        return report

    # ------------------------------------------------------------------ #
    # Durability and recovery (implemented in repro.replication.recovery)
    # ------------------------------------------------------------------ #

    def barrier(self) -> Dict[str, object]:
        """A durability sync point; in secure mode, deletes trigger redaction.

        Every primary's op log commits a barrier frame (one fsync each), so
        everything acknowledged before the call is machine-crash durable.
        In ``"logged"`` mode that is all a barrier does — the full mutation
        history (delete frames included) stays in the logs until the next
        checkpoint.  In ``"secure"`` mode, a barrier that flushed any
        deletes escalates into a full :meth:`checkpoint`: the images are
        rewritten from the canonical HI layouts (which no longer hold the
        deleted keys) and every log is compacted to its new barrier with an
        atomic rename + directory fsync — after which no frame in any op
        log and no slot in any checkpoint image encodes a deleted key.

        Returns ``{"deletes": flushed delete frames, "redacted": bool}``.
        """
        if self._closed:
            raise ConfigurationError("this engine is closed; cannot barrier")
        if self._durability_dir is None:
            raise ConfigurationError(
                "no durability directory configured; build the engine with "
                "durability_dir=... to enable barriers")
        results = self._scatter([(position, "__barrier__", ())
                                 for position in range(self.num_shards)])
        deletes = sum(result[1] for result in results.values())
        self._erasure_stats["barriers"] += 1
        self._erasure_stats["deletes_flushed"] += deletes
        redacted = False
        if self._durability_mode == "secure" and deletes:
            self.checkpoint()  # stamps the replicas' barrier epoch itself
            self._erasure_stats["redactions"] += 1
            redacted = True
        elif self._read_policy == "any-after-barrier":
            self._sync_replicas()
        return {"deletes": deletes, "redacted": redacted}

    def _sync_replicas(self) -> int:
        """Stamp every replica that acks this sync with a new barrier epoch.

        Worker pipes process commands in order and every engine-level call
        is synchronous, so a replica that answers the ping has applied
        every write acknowledged before the barrier — exactly the
        ``"any-after-barrier"`` read-eligibility condition.  Replicas that
        crashed instead of acking are dropped from read service.  Returns
        the number of replicas stamped.
        """
        state = self._policy_state
        state.barrier_epoch += 1
        epoch = state.barrier_epoch
        commands = []
        for position in range(self.num_shards):
            proxy = self._proxy(position)
            for replica in list(proxy.replicas):
                commands.append(((position, replica), replica.worker,
                                 replica.shard_id, "__ping__", ()))
        if not commands:
            return 0
        results, errors = self._drive_commands(commands)
        for _position, replica in results:
            replica._synced_epoch = epoch
        for (position, replica), error in errors.items():
            if isinstance(error, WorkerCrashError):
                self._proxy(position).drop_replica(replica)
                self._bump_liveness()
        return len(results)

    def drain(self) -> Dict[str, object]:
        """Flush-and-stop, the front-end shutdown hook.  Idempotent.

        A serving layer shutting down wants exactly one sequence: commit
        everything acknowledged (a final :meth:`barrier`, which in secure
        mode also redacts any still-logged deletes), then release the
        worker pool.  Returns ``{"barrier": <barrier result or None>,
        "was_open": bool}`` — ``barrier`` is ``None`` for non-durable
        engines and on repeat calls, which are no-ops.
        """
        report: Dict[str, object] = {"barrier": None,
                                     "was_open": not self._closed}
        if not self._closed and self._durability_dir is not None:
            report["barrier"] = self.barrier()
        self.close()
        return report

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot every shard, write the manifest, compact the logs.

        Returns the manifest.  Each shard's snapshot and its op-log barrier
        offset are taken in one worker conversation, so the pair describes
        a single instant; the manifest is written atomically (write +
        rename), so a crash mid-checkpoint leaves the previous snapshot
        generation fully intact.
        """
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; cannot checkpoint")
        if self._durability_dir is None:
            raise ConfigurationError(
                "no durability directory configured; build the engine with "
                "durability_dir=... to enable checkpoints")
        manifest = checkpoint_engine(self)
        if self._read_policy == "any-after-barrier":
            # A checkpoint is a barrier too: replicas that ack it become
            # read-eligible (a freshly built durable engine serves from its
            # replicas immediately — __init__ ends in a checkpoint).
            self._sync_replicas()
        return manifest

    def anti_entropy(self) -> Dict[str, object]:
        """Compare canonical HI digests per shard copy; re-seed divergence.

        Every copy of every shard answers one worker-side ``__digest__``
        (a SHA-256 over its canonical slot array and audit fingerprint —
        identical bytes on copies that applied the same operation stream),
        and only replicas whose digest disagrees with their primary's are
        re-seeded through the existing ``__export__`` path; healthy shards
        are never exported.  Dead workers are repaired by :meth:`recover`
        *first*, which on a durable engine also writes a fresh checkpoint
        — redacting a down worker's stale op log now instead of at some
        later recovery (the erasure-window leftover from the secure
        durability work).

        Returns ``{"checked", "recovered", "divergent", "reseeded",
        "exported_positions"}``.
        """
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; cannot run anti-entropy")
        recovered = False
        if self.dead_shard_positions() \
                or any(not worker.is_alive() for worker in self._workers):
            self.recover()
            recovered = True
        commands = []
        for position in range(self.num_shards):
            proxy = self._proxy(position)
            commands.append(((position, 0, proxy.primary),
                             proxy.primary.worker, proxy.primary.shard_id,
                             "__digest__", ()))
            for index, replica in enumerate(proxy.replicas):
                commands.append(((position, index + 1, replica),
                                 replica.worker, replica.shard_id,
                                 "__digest__", ()))
        results, errors = self._drive_commands(commands)
        primary_digests: Dict[int, object] = {
            key[0]: digest for key, digest in results.items()
            if key[1] == 0}
        divergent: List[Tuple[int, _ShardProxy]] = []
        for key, error in errors.items():
            position, copy, shard = key
            if copy == 0:
                raise error  # a primary died mid-pass; recover and re-run
            divergent.append((position, shard))
        for key, digest in results.items():
            position, copy, shard = key
            if copy and digest != primary_digests.get(position):
                divergent.append((position, shard))
        state = self._policy_state
        exported_positions = set()
        reseeded = 0
        for position, replica in sorted(divergent, key=lambda entry:
                                        entry[0]):
            proxy = self._proxy(position)
            proxy.drop_replica(replica)
            self._bump_liveness()
            if replica.worker.is_alive():
                # Re-seed in place: drop the diverged hosting and clone the
                # primary back onto the same worker.
                try:
                    replica.worker.drop(replica.shard_id)
                except WorkerCrashError:
                    pass
                target = replica.worker
            else:
                target = self._replica_workers_for(
                    proxy.primary.shard_id,
                    exclude={proxy.primary.worker}
                    | {other.worker for other in proxy.replicas},
                    needed=1)[0]
            shard_id = proxy.primary.shard_id
            exported = proxy.primary.worker.request(shard_id, "__export__")
            exported_positions.add(position)
            replica_id = self._take_replica_id()
            descriptor = target.host(replica_id, exported)
            fresh = _ShardProxy(target, replica_id, descriptor)
            # The clone is byte-identical to the primary at this instant,
            # which includes everything since the last barrier — it is
            # immediately eligible under any-after-barrier.
            fresh._synced_epoch = state.barrier_epoch
            proxy.add_replica(fresh)
            state.stats["anti_entropy_reseeds"] += 1
            reseeded += 1
        self._shard_engine_cache = []
        return {"checked": len(commands), "recovered": recovered,
                "divergent": sorted({position
                                     for position, _shard in divergent}),
                "reseeded": reseeded,
                "exported_positions": sorted(exported_positions)}

    def recover(self) -> "RecoveryReport":
        """Repair every dead primary and re-seed missing replicas.

        Promotion when a live replica exists, snapshot + op-log replay when
        durable state does, empty rebuild as the last resort (matching the
        base engine's contract when neither protection was configured).
        See :func:`repro.replication.recovery.recover_engine`.
        """
        self._bump_liveness()  # recovery reads liveness directly; no cache
        report = recover_engine(self)
        self._bump_liveness()  # the replica sets just changed
        if self._read_policy == "any-after-barrier":
            # Freshly re-seeded replicas are byte-identical clones of their
            # primaries; stamp them read-eligible rather than benching them
            # until the next barrier.
            self._sync_replicas()
        return report

    def restart_workers(self) -> List[int]:
        """PR 4's recovery entry point, now loss-free where state exists.

        Returns the repaired shard positions like the base engine; call
        :meth:`recover` directly for the full report of *how* each shard
        came back.
        """
        return list(self.recover().positions)

"""The process engine: long-lived workers own the shards, in N copies.

Pure-Python shard work is GIL-bound, so threads buy nothing on the
registry's CPU-bound inner structures.  :class:`ProcessShardedDictionaryEngine`
instead hosts every shard's structure inside a long-lived **worker
process** and drives it over a pickled command pipe, so per-shard batches
execute on separate cores.  It is the one engine behind every
``parallel="process"`` :class:`~repro.api.config.EngineConfig`:
``replication`` adds copies, ``durability_dir`` adds on-disk state, and
``replication=1`` with no directory is its simplest setting.

Design
------

* **Workers own the state.**  At construction the engine pickles each local
  shard to its worker (one worker per shard by default, fewer when
  ``max_workers`` caps the pool — workers then host several shards) as the
  shard's *primary* (a cold open or a recovery has the worker build and
  restore it instead).  The parent's shard slots are replaced by
  :class:`_ReplicatedShardProxy` stand-ins that forward every dictionary
  call to the owning workers, so *all* of the inherited
  :class:`~repro.api.sharded.ShardedDictionary` machinery — routing, merged
  iteration, elastic ``add_shard``/``remove_shard`` migration, per-shard
  snapshots, ``check()`` — keeps working unchanged.
* **Replicas are clones, under one rule.**  With ``replication=N`` every
  shard also has ``N - 1`` *replica* copies, pickled to the workers
  hosting the shard's first distinct consistent-hash ring successors
  (placement is a pure function of the shard ids).  Every copy applies
  the identical operation stream, so a replica stays byte-identical to its
  primary.  One shared :class:`_ReplicaRules` object decides for point and
  bulk calls alike: a write goes to every copy at once and a replica whose
  outcome differs from its primary's is dropped; a failed read fails over
  through one routine; every drop also frees the copy in its worker; and
  recovery and anti-entropy re-seed through one routine.  A write is
  acknowledged when the primary applied it.  Reads go to the primary
  unless ``read_policy`` spreads them over the replicas.
* **Durability is per primary.**  With a ``durability_dir`` each primary's
  worker owns its shard's files: it logs every acknowledged mutation to a
  per-shard :class:`~repro.replication.oplog.OpLog`, writes its images
  and restores from them; the parent writes the manifest and sweeps (see
  :mod:`repro.replication.recovery`).
* **Workers start ready to serve.**  Everything a worker runs, fail points
  included, is imported before the first fork, so a forked worker imports
  nothing; a plain engine (one copy, no directory) never imports
  :mod:`repro.replication` at start-up.  The engine forks the whole pool
  before the first handshake: every worker gets its first ``__host__``
  before any reply is read, and the constructor (like :meth:`recover`)
  returns only after every hosting is acknowledged.  A start that fails
  shuts down every worker it started before the error propagates.
* **Workers hold no socket but their own pipe.**  A forked worker first
  points every socket it inherited at ``/dev/null``: the parent ends of
  every worker pipe, its own included, and, when the parent is a running
  server, the listening socket and each client connection.  So a worker
  reads EOF when its parent dies (even by SIGKILL) and exits, and a
  connection the server closes reaches its client as EOF at once.  Pipes,
  multiprocessing's process sentinels among them, stay open.
* **One encoding on the pipe.**  Commands and replies are pickled: the
  pipe joins two halves of one trusted program, so pickle's exact
  round-trip of every value type is what it needs.  (Untrusted network
  bytes never reach pickle — see :mod:`repro.net.protocol` — and the
  durable artifacts use :class:`~repro.storage.encoding.RecordCodec`.)
* **One command per crossing, through one dispatch loop.**  Hosting,
  writes, bulk reads, barriers and anti-entropy all queue
  ``(worker, engine id, method, args)`` commands into the same loop,
  which keeps at most one outstanding per worker (a large payload can
  never deadlock against a worker blocked on its reply); commands for one
  worker (``max_workers`` packing, replica copies) cross back to back.  A
  bulk call sends each shard's whole batch as one command per copy, and
  each primary batch commits its own op log, as a point mutation does.  A
  point read is one synchronous call on the copy the policy picks.
* **Probes roll back worker-side.**  ``search_io_cost`` / ``range_io_cost``
  run the cold-cache measurement inside the worker's own
  :class:`~repro.api.engine.DictionaryEngine`, so cumulative ``io_stats()``
  stay byte-identical to the sequential engine's.
* **Crashes are contained.**  A worker that dies mid-conversation raises
  :class:`~repro.errors.WorkerCrashError` naming the shard; commands to
  surviving workers keep working.  :meth:`recover` (and
  :meth:`restart_workers`, which returns its positions) repairs each dead
  primary — promote a live replica, else have a new worker replay its
  snapshot and op-log tail, else rebuild it empty — always with the
  shard's original construction seed, then re-seeds missing replicas; it
  loads :mod:`repro.replication.recovery` in the parent.  :meth:`close`
  (or the context-manager exit) shuts every worker down cleanly.

Bulk calls return results, layouts and counters identical to the
sequential engine, and fail identically too: every shard's batch runs until
its own first failure, and the call raises the failure of the lowest shard
position.

Build one from a config, like every sharded engine::

    from repro.api import EngineConfig, make_sharded_engine

    config = EngineConfig(inner="hi-skiplist", shards=4, parallel="process")
    with make_sharded_engine(config) as engine:
        engine.insert_many((key, key) for key in range(100_000))
        engine.contains_many(range(0, 100_000, 7))

Its deterministic counters live in the engine's metrics registry, created
at zero so every :meth:`~repro.api.engine.DictionaryEngine.telemetry`
snapshot names them: ``plane.fsync_batches`` (op-log commits of bulk
batches);
``erasure.barriers``, ``erasure.deletes_flushed``,
``erasure.frames_dropped`` and ``erasure.redactions`` (secure-mode
accounting); ``replica_reads.replica_reads``, ``replica_reads.demotions``
and ``replica_reads.anti_entropy_reseeds`` (read routing).  They are pure
functions of workload and topology, so ``benchmarks/baseline.py`` gates
them.
"""

from __future__ import annotations

# Loaded here, before any worker forks, so a forked worker's first
# ``shard_digest`` imports nothing.
import hashlib  # noqa: F401
import heapq
import multiprocessing
import os
import pickle
import stat
import traceback
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import wait
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import failpoints
from repro.api.config import EngineConfig
from repro.api.engine import DictionaryEngine
from repro.api.protocol import HIDictionary, Pair, insert_pairs, shard_digest
from repro.api.routing import DEFAULT_VNODES, ConsistentHashRouter
from repro.api.sharded import (
    MigrationReport,
    ShardedDictionary,
    ShardedDictionaryEngine,
)
from repro.errors import ConfigurationError, WorkerCrashError
from repro.obs import Tracer, child_span

if TYPE_CHECKING:
    from repro.replication.recovery import RecoveryReport

#: One parent->worker command: ``(shard_id, method, args)`` — plus an
#: optional fourth element, a trace header dict, when the parent engine
#: has request tracing enabled (see :mod:`repro.obs.tracing`).  Replies
#: are ``(status, payload)`` 2-tuples, growing an optional third element
#: (the worker's finished span dicts) on traced commands.
Command = Tuple[int, str, tuple]

#: Bulk methods that commit a primary's op log, once per batch.
_LOGGED_BATCHES = frozenset(("insert_batch", "delete_batch"))

#: The engine's deterministic counters (see the module docstring).
_COUNTERS = (
    "plane.fsync_batches",
    "erasure.barriers", "erasure.deletes_flushed", "erasure.frames_dropped",
    "erasure.redactions",
    "replica_reads.replica_reads", "replica_reads.demotions",
    "replica_reads.anti_entropy_reseeds",
)

#: Read methods always served by the primary, whatever the read policy.
#: ``io_stats`` is a *measurement*: replica-served reads charge the
#: replica's own trackers, so only the primary's counters stay comparable
#: to a sequential engine's.  ``len`` and ``keys`` (the container
#: protocol) fall back to a replica only when the primary's worker died.
_PRIMARY_PINNED = frozenset(("io_stats", "len", "keys"))


def _recovery():
    """:mod:`repro.replication.recovery`, imported on first use.

    Checkpoints, op-log paths and recovery live there.  A plain engine
    needs none of them until :meth:`~ProcessShardedDictionaryEngine.recover`,
    so it never imports the replication package at start-up.
    """
    from repro.replication import recovery

    return recovery


def _default_start_method() -> str:
    """``fork`` where the platform has it (fast, no re-import), else spawn.

    The ``REPRO_START_METHOD`` environment variable overrides the choice.
    It is the only start-method selector (no constructor takes one), and
    it is how CI runs the fault-injection suites under both start methods.
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_START_METHOD")
    if override:
        if override not in methods:
            raise ConfigurationError(
                "REPRO_START_METHOD=%r is not a start method this platform "
                "supports (%s)" % (override, ", ".join(methods)))
        return override
    return "fork" if "fork" in methods else "spawn"


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

def _describe_shard(shard: HIDictionary) -> Dict[str, object]:
    """The capability descriptor a worker returns when it adopts a shard.

    ``methods`` lists the shard's public callables so the parent-side proxy
    can expose exactly the remote surface (``predecessor``, ``level_of``,
    ...) without guessing — a proxy must not pretend a method exists that
    the hosted structure lacks.
    """
    methods = sorted(
        name for name in dir(shard)
        if not name.startswith("_") and callable(getattr(shard, name, None)))
    return {
        "methods": methods,
        "registry_name": getattr(shard, "registry_name",
                                 type(shard).__name__),
    }


def _open_oplog(spec: Optional[Mapping[str, object]]):
    """Open the worker-side op log a hosting command described, if any."""
    if spec is None:
        return None
    # Lazily (the package imports this module); a durable engine has
    # imported it before its first fork.
    from repro.replication.oplog import OpLog

    return OpLog(**spec)


def _restore_primary(shard_id: int, inner: str, record, image, log_spec):
    """Build primary ``shard_id`` through the store's build ``record`` (so
    with its original seed); on a durable store, load its checkpoint
    ``image`` (``(directory, manifest entry, index)``, or ``None``) and
    replay its op-log tail into it.  Returns ``(shard, log)``: the replayed
    log stays open for appends."""
    shard = record.build_shard(inner, shard_id)
    if log_spec is None:
        return shard, None
    from repro.replication.oplog import replay_into
    from repro.storage.snapshot import load_image

    offset = 0
    if image is not None:
        load_image(shard, *image)
        offset = int((image[1].get("oplog") or {}).get("offset") or 0)
    replay = os.path.exists(log_spec["path"])
    log = _open_oplog(log_spec)
    try:
        if replay:
            replay_into(shard, log, offset)
    except BaseException:
        log.close()
        raise
    return shard, log


def _checkpoint_primary(engine: DictionaryEngine, shard_id: int, log,
                        generation: int) -> Dict[str, object]:
    """Write this primary's image of checkpoint ``generation`` next to its
    op log, then commit a log barrier; return the shard's manifest entry.
    The parent keeps one command outstanding per worker, so image and
    barrier offset describe the same instant."""
    from repro.replication.recovery import IMAGE_NAME
    from repro.storage.snapshot import write_image

    directory, log_name = os.path.split(log.path)
    entry = write_image(directory, IMAGE_NAME % (shard_id, generation),
                        engine.structure.snapshot_slots(), kind=engine.name,
                        fsync=log.fsync)
    # A crash here leaves an image no manifest references; the next
    # checkpoint rewrites or sweeps it.
    failpoints.trip("worker.checkpoint")
    return {"id": shard_id, **entry,
            "oplog": {"file": log_name, "offset": log.barrier()}}


def _log_batch(log, op: str, frames: Sequence[bytes], attempted: int
               ) -> None:
    """Write a batch's ``frames`` (its applied pairs' frames, in order) in
    one write and commit them in one fsync.

    The batch is charged one ``worker.<op>`` fail-point trip per pair
    ``attempted``, as a per-pair loop would have been; when one of them
    exits the worker, only the frames of the trips before it are written.
    """
    passed = failpoints.passes("worker." + op, attempted)
    if log is not None:
        log.write(op, frames[:passed])
    if passed < attempted:
        failpoints.trip("worker." + op)
    if log is not None:
        log.commit()


def _insert_batch(structure, log, codec, pairs) -> int:
    """Apply one insert batch with one ``insert_many``, then log the
    applied prefix.

    A primary encodes its frames first and applies only the prefix its op
    log can encode, so a refused pair and the pairs after it are neither
    applied nor logged: the refusal is raised once the prefix is logged,
    unless the structure's own failure (a ``DuplicateKey``) came first.  A
    durable store's replica has no log but its primary's record ``codec``,
    so it applies the same prefix and raises the same refusal.
    """
    frames: Sequence[bytes] = ()
    refusal = None
    if log is not None:
        frames, refusal = log.encode("insert", pairs)
        pairs = pairs[:len(frames)]
    elif codec is not None:
        applicable, refusal = codec.encodable(pairs)
        pairs = pairs[:applicable]
    before = len(structure)
    try:
        with child_span("worker.apply.insert") as span:
            count = insert_pairs(structure, pairs)
            span.tag("keys", count)
    finally:
        # insert_many stops at its first failure with exactly the first
        # len(after) - len(before) pairs applied; that prefix is logged and
        # made durable even on error.
        applied = len(structure) - before
        _log_batch(log, "insert", frames[:applied], applied)
    if refusal is not None:
        raise refusal
    return count


def _delete_batch(structure, log, codec, keys) -> List[object]:
    """Apply one delete batch key by key, then log the deleted prefix (a
    durable replica raises the refusal its primary's log would)."""
    delete = structure.delete
    values: List[object] = []
    try:
        with child_span("worker.apply.delete") as span:
            for key in keys:
                values.append(delete(key))
            span.tag("keys", len(values))
    finally:
        frames: Sequence[bytes] = ()
        refusal = None
        if log is not None:
            frames, refusal = log.encode("delete", keys[:len(values)])
        elif codec is not None:
            refusal = codec.encodable(keys[:len(values)])[1]
        # A per-key loop tripped before each delete, the one that raised
        # included.
        _log_batch(log, "delete", frames, min(len(keys), len(values) + 1))
        if refusal is not None:
            raise refusal
    return values


def _execute(engines: Dict[int, DictionaryEngine], logs: Dict[int, object],
             codecs: Dict[int, object], shard_id: int, method: str,
             args: tuple) -> object:
    """Dispatch one command against the hosted shard (worker side).

    ``logs`` maps shard ids to their op logs (primaries of a durable
    engine only): every acknowledged mutation is appended *here*, by the
    process that applied it, with one write and one fsync per command — so
    after a crash the log holds exactly the operations the lost structure
    had applied.  ``codecs`` maps a durable engine's replica ids to their
    primaries' record codec, so a replica refuses what its primary's log
    refuses.  The :mod:`repro.failpoints` trips the fault-injection suite
    arms kill the worker at exact operation boundaries.
    """
    if method in ("__host__", "__restore__"):
        # A structure the parent built (a primary's with its op-log spec, a
        # durable replica's with its record codec), or a primary this
        # worker builds and restores itself.
        if method == "__host__":
            shard = args[0]
            log = _open_oplog(args[1] if len(args) > 1 else None)
            if len(args) > 2 and args[2] is not None:
                codecs[shard_id] = args[2]
        else:
            shard, log = _restore_primary(shard_id, *args)
        engines[shard_id] = DictionaryEngine(shard)
        if log is not None:
            logs[shard_id] = log
        return _describe_shard(shard)
    if method == "__drop__":
        del engines[shard_id]
        codecs.pop(shard_id, None)
        log = logs.pop(shard_id, None)
        if log is not None:
            log.close()
        return None
    if method == "__ping__":
        return "pong"
    if method == "__promote__":
        # A replica hosted here becomes the primary for ``shard_id``: re-key
        # its engine and open the shard's (fresh) op log, since the old log
        # described the dead primary, not the promoted copy.
        replica_id, oplog_spec = args
        engines[shard_id] = engines.pop(replica_id)
        codecs.pop(replica_id, None)
        stale = logs.pop(shard_id, None)
        if stale is not None:
            stale.close()
        if oplog_spec is not None:
            logs[shard_id] = _open_oplog(oplog_spec)
        return _describe_shard(engines[shard_id].structure)
    engine = engines[shard_id]
    structure = engine.structure
    log = logs.get(shard_id)
    codec = codecs.get(shard_id)
    # The batched bulk paths: one command per shard per engine-level call.
    if method == "insert_batch":
        return _insert_batch(structure, log, codec, args[0])
    if method == "delete_batch":
        return _delete_batch(structure, log, codec, args[0])
    if method == "contains_batch":
        contains = structure.contains
        with child_span("worker.apply.contains"):
            return [contains(key) for key in args[0]]
    if method in ("insert", "upsert", "delete"):
        # Routed point mutations (including the migration traffic the
        # elastic resizes push through the shard proxies) log one committed
        # frame each.  As in a batch, a pair's frame is encoded before the
        # pair is applied, so a pair the log refuses is not applied; a
        # delete is encoded once it applied.  A durable replica checks the
        # same record with its primary's codec and writes nothing.
        failpoints.trip("worker." + method)
        if log is None and codec is None:
            return getattr(structure, method)(*args)
        if method == "delete":
            result = structure.delete(args[0])
            record = args[0]
        else:
            record = (args[0], args[1] if len(args) > 1 else None)
        if log is not None:
            frames, refusal = log.encode(method, [record])
        else:
            frames, refusal = (), codec.encodable([record])[1]
        if refusal is not None:
            raise refusal
        if method != "delete":
            result = getattr(structure, method)(*args)
        if log is not None:
            log.write(method, frames)
            log.commit()
        return result
    if method == "__checkpoint__":
        return _checkpoint_primary(engine, shard_id, log, args[0])
    if method == "__barrier__":
        # A durability sync point without a snapshot: commit a barrier
        # frame and report how many delete frames preceded it since the
        # last one — the signal secure durability mode escalates on.
        if log is None:
            return None, 0
        deletes = log.deletes_since_barrier
        failpoints.trip("worker.barrier")
        return log.barrier(), deletes
    if method == "__compact__":
        if log is None:
            return None, 0
        old_base = log.base_offset
        new_base = log.compact(args[0])
        return new_base, (new_base - old_base) // log.frame_size
    if method == "__export__":
        # The whole structure pickles back to the parent — recovery uses it
        # to seed fresh replicas from a live copy.
        return structure
    if method == "__digest__":
        # The canonical HI digest of the hosted copy, computed worker-side
        # so anti-entropy ships one hex string per copy instead of every
        # slot array.  Canonical layouts are a pure function of (key set,
        # seed), so two copies that applied the same operation stream hash
        # identically — any mismatch is real divergence.
        return shard_digest(structure)
    # Cost probes run through the worker's own engine so the measurement is
    # cleared and rolled back *inside* the worker — cumulative counters stay
    # byte-identical to a sequential engine's.
    if method == "search_io_cost":
        return engine.search_io_cost(args[0])
    if method == "range_io_cost":
        return engine.range_io_cost(args[0], args[1])
    if method == "keys":
        return list(structure)
    if method == "len":
        return len(structure)
    if method == "__method__":
        name, call_args = args
        return getattr(structure, name)(*call_args)
    # Plain structure methods: insert/delete/search/contains/items/
    # range_query/check/io_stats/snapshot_slots/audit_fingerprint/upsert/...
    return getattr(structure, method)(*args)


def _unpicklable_reply_error(method: str,
                             reply: Tuple[str, object]) -> WorkerCrashError:
    """The always-picklable stand-in for a reply that refused to pickle.

    Crash triage needs the *real* failure: when the unpicklable payload was
    itself an exception, its class name and formatted traceback travel
    inside the fallback error's message (the one representation guaranteed
    to survive the pipe).
    """
    status, payload = reply
    if status == "err" and isinstance(payload, BaseException):
        try:
            detail = "".join(traceback.format_exception(
                type(payload), payload, payload.__traceback__)).strip()
        except Exception:  # pragma: no cover - hostile __str__/__repr__
            detail = "<traceback unavailable>"
        return WorkerCrashError(
            "worker-side %s raised by %r did not pickle; original "
            "traceback:\n%s" % (type(payload).__name__, method, detail))
    return WorkerCrashError(
        "worker reply to %r (a %s) did not pickle"
        % (method, type(payload).__name__))


def _neutralise_inherited_sockets(keep: int) -> None:
    """Point every socket above stdio but ``keep`` at ``/dev/null``.

    A forked worker inherits each socket its parent holds: the parent
    ends of the worker pipes, its own included, and in a running server
    the listening socket and every client connection.  While a copy lives
    here its peer never reads EOF, so the worker would not see its parent
    die and a client would not see the server close its connection.  Each
    is overwritten rather than closed: the worker's stale copies of the
    parent's socket objects still name those numbers, and a freed number
    could be reused by a file the worker opens later, which such an object
    would then close.  Pipes stay open, multiprocessing's process
    sentinels among them (``Process.join`` waits on them).  A spawned
    worker inherits no socket but ``keep``.
    """
    for directory in ("/proc/self/fd", "/dev/fd"):
        try:
            names = os.listdir(directory)
            break
        except OSError:
            continue
    else:  # pragma: no cover - no descriptor listing on this platform
        return
    null = None
    for fd in map(int, names):
        if fd <= 2 or fd == keep:
            continue
        try:
            if not stat.S_ISSOCK(os.fstat(fd).st_mode):
                continue
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if null is None:
            null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, fd, inheritable=False)
    if null is not None:
        os.close(null)


def _worker_main(conn) -> None:
    """The long-lived worker loop: receive commands, answer until shutdown."""
    # Re-read REPRO_FAILPOINTS: under fork the worker inherits the parent's
    # parsed fail-point cache, and the parent legitimately trips parent-side
    # fail points (op-log compaction during recovery), which would
    # otherwise freeze an empty cache into every forked worker.
    failpoints.reset()
    _neutralise_inherited_sockets(conn.fileno())
    engines: Dict[int, DictionaryEngine] = {}
    logs: Dict[int, object] = {}
    codecs: Dict[int, object] = {}
    # Enabled on the first traced command; adopted spans finish into its
    # ring worker-side but primarily travel back on the reply for the
    # parent to graft.
    tracer = Tracer(enabled=True, ring=16)
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent went away; nothing left to serve
        except KeyboardInterrupt:  # pragma: no cover - interactive abort
            break
        # Unpickled here rather than inside conn.recv() so a traced command
        # can charge the decode to its own ``worker.decode`` span.
        received = perf_counter()
        message = pickle.loads(blob)
        shard_id, method, args = message[0], message[1], message[2]
        trace_header = message[3] if len(message) > 3 else None
        if method == "__shutdown__":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        span = None
        if trace_header is not None:
            span = tracer.adopt(trace_header, "worker." + method,
                                tags={"shard": shard_id, "pid": os.getpid()})
            span.started = received
        try:
            if span is None:
                reply = ("ok", _execute(engines, logs, codecs, shard_id,
                                        method, args))
            else:
                with span:
                    with child_span("worker.decode") as decode:
                        decode.started = received
                        decode.tag("bytes", len(blob))
                    reply = ("ok", _execute(engines, logs, codecs, shard_id,
                                            method, args))
        except Exception as error:
            reply = ("err", error)
        if span is not None:
            reply = reply + ([span.to_dict()],)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
        except Exception:
            # The result (or the exception) did not pickle; the parent is
            # still waiting, so answer with something that always does —
            # carrying the original class name and traceback along.
            try:
                conn.send(("err",
                           _unpicklable_reply_error(method, reply[:2])))
            except Exception:  # pragma: no cover
                break
    for log in logs.values():
        try:
            log.close()
        except Exception:  # pragma: no cover - best-effort flush
            pass
    conn.close()


# --------------------------------------------------------------------------- #
# Parent side: worker handle and shard copy
# --------------------------------------------------------------------------- #

class _ShardWorker:
    """Parent-side handle of one worker process (pipe + liveness)."""

    def __init__(self, context) -> None:
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(target=_worker_main,
                                        args=(child_conn,), daemon=True)
        self._process.start()
        child_conn.close()
        self.shard_ids: set = set()
        #: Set once the worker is seen to be gone, by a failed crossing or
        #: by :meth:`shutdown`.  Reads filter replicas on it, so they pay
        #: no liveness syscall.
        self.down = False
        #: Worker span dicts that rode back on the last traced reply;
        #: the dispatch loop grafts (and clears) them after each receive.
        self.trace_spans: Optional[List[dict]] = None

    @property
    def connection(self):
        return self._conn

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def is_alive(self) -> bool:
        """Whether the process still runs (a waitpid-backed syscall)."""
        return not self.down and self._process.is_alive()

    def _crash(self, what: str) -> WorkerCrashError:
        self.down = True
        return WorkerCrashError(
            "shard worker (pid %s, shards %s) %s; its in-memory shard "
            "state is lost — see restart_workers()"
            % (self.pid, sorted(self.shard_ids), what))

    def send(self, shard_id: int, method: str, args: object,
             trace: Optional[dict] = None) -> None:
        if self.down:
            raise self._crash("is already down")
        try:
            if trace is None:
                self._conn.send((shard_id, method, args))
            else:
                self._conn.send((shard_id, method, args, trace))
            return
        except (BrokenPipeError, OSError) as error:
            what = "refused a command (pipe broken: %s)" % (error,)
        # Raised outside the handler so the crash error keeps no traceback
        # of the failed send: its pickling buffer, left to the collector,
        # can be closed before its memoryview (an unraisable BufferError).
        raise self._crash(what)

    def receive(self) -> Tuple[str, object]:
        try:
            message = self._conn.recv()
        except (EOFError, OSError) as error:
            raise self._crash("died before answering") from error
        self.trace_spans = message[2] if len(message) > 2 else None
        return message[0], message[1]

    def request(self, shard_id: int, method: str, args: tuple = ()) -> object:
        """One synchronous round-trip; re-raises worker-side exceptions."""
        self.send(shard_id, method, args)
        status, payload = self.receive()
        if status == "err":
            raise payload
        return payload

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it will not."""
        if not self.down and self._process.is_alive():
            try:
                self._conn.send((0, "__shutdown__", ()))
                self._conn.recv()  # the shutdown acknowledgement
            except (BrokenPipeError, EOFError, OSError):
                pass
        self.down = True
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(1.0)
        self._conn.close()


#: One queued command: ``(key, worker, engine id, method, args)``.
_Dispatch = Tuple[object, _ShardWorker, int, str, tuple]


class _ShardCopy:
    """One hosted copy of a shard: its worker, its worker-side engine id,
    and the method names the worker reported when it adopted the copy.

    It forwards nothing by name: :class:`_ReplicatedShardProxy` picks the
    copy and sends the command through :meth:`call`.
    """

    __slots__ = ("worker", "shard_id", "methods", "registry_name",
                 "_synced_epoch")

    def __init__(self, worker: _ShardWorker, shard_id: int,
                 descriptor: Dict[str, object]) -> None:
        self.worker = worker
        self.shard_id = shard_id
        self.methods = frozenset(descriptor["methods"])
        self.registry_name = descriptor["registry_name"]
        #: The last barrier epoch this copy acked (see _ReplicaRules).
        self._synced_epoch = -1

    def call(self, method: str, *args: object) -> object:
        """One synchronous round-trip; re-raises worker-side exceptions."""
        return self.worker.request(self.shard_id, method, args)

    def release(self) -> None:
        """Free this copy in its worker unless the worker is down."""
        worker = self.worker
        if worker.down:
            return
        try:
            worker.request(self.shard_id, "__drop__")
        except WorkerCrashError:
            return
        worker.shard_ids.discard(self.shard_id)


# --------------------------------------------------------------------------- #
# Parent side: the replica rules and one shard as primary plus replicas
# --------------------------------------------------------------------------- #

class _ReplicaRules:
    """The one replica rule, shared by the engine and every shard proxy.

    Every copy of a shard applies the same operation stream, so under the
    paper's canonical layouts a replica in step with its primary answers
    exactly as the primary does.  This object says when a replica is out
    of step and what then happens to it, for point and bulk calls alike:
    writes go through :meth:`fan_out` and :meth:`settle`, failed reads
    through :meth:`failover`, and every replica leaves service through
    :meth:`drop`.  It carries the read ``policy`` (one of
    :data:`~repro.api.config.READ_POLICIES`), the ``barrier_epoch`` (a
    replica stamped with it acked the latest durability sync point and,
    as writes fan out synchronously, applied everything since: the
    ``"any-after-barrier"`` condition), and what the dispatch loop
    (:meth:`drive`) needs.  It holds no engine, so an engine that is never
    closed still shuts its pool down when its last reference goes.
    """

    __slots__ = ("policy", "barrier_epoch", "metrics", "tracer", "durable")

    def __init__(self, policy: str, metrics, tracer: Tracer,
                 durable: bool) -> None:
        self.policy = policy
        self.barrier_epoch = 0
        self.metrics = metrics
        self.tracer = tracer
        self.durable = durable

    def drive(self, commands: Sequence[_Dispatch]
              ) -> Tuple[Dict[object, object], Dict[object, BaseException]]:
        """Run ``(key, worker, engine id, method, args)`` commands; return
        ``(results, errors)`` keyed by ``key``.

        The one dispatch loop, one command per crossing.  Every worker's
        queue drains concurrently, with at most one command outstanding
        per worker (a second send could deadlock against a worker blocked
        on a large reply); commands for the same worker run back to back
        in the order given; a dead worker fails its whole queue; a command
        that does not pickle fails alone.  Every sent command's reply is
        read before this returns.  Callers decide which errors are fatal.
        """
        queues: Dict[_ShardWorker, Deque[_Dispatch]] = {}
        for command in commands:
            queues.setdefault(command[1], deque()).append(command)
        results: Dict[object, object] = {}
        errors: Dict[object, BaseException] = {}
        outstanding: Dict[object, Tuple[_ShardWorker, object]] = {}
        tracer = self.tracer
        # Present only when tracing is enabled AND a span is active on
        # this thread (the bulk operations open one around dispatch).
        trace_header = tracer.header()
        durable = self.durable

        def fail_worker(worker: _ShardWorker, key: object,
                        error: BaseException) -> None:
            errors[key] = error
            for queued in queues[worker]:
                errors[queued[0]] = error
            queues[worker].clear()

        def dispatch_next(worker: _ShardWorker) -> None:
            while queues[worker]:
                key, _worker, engine_id, method, args = \
                    queues[worker].popleft()
                try:
                    worker.send(engine_id, method, args, trace=trace_header)
                except WorkerCrashError as error:
                    fail_worker(worker, key, error)
                    continue
                except Exception as error:
                    # The command did not pickle.  Pickling finishes before
                    # the first byte is written, so the pipe is untouched:
                    # only this command fails and the worker takes the next.
                    errors[key] = error
                    continue
                if trace_header is not None:
                    tracer.note_crossing()
                # Only primaries (non-negative engine ids) keep an op log.
                if durable and engine_id >= 0 and method in _LOGGED_BATCHES:
                    self.metrics.inc("plane.fsync_batches")
                outstanding[worker.connection] = (worker, key)
                return

        for worker in queues:
            dispatch_next(worker)
        while outstanding:
            for connection in wait(list(outstanding)):
                worker, key = outstanding.pop(connection)
                try:
                    status, payload = worker.receive()
                except WorkerCrashError as error:
                    fail_worker(worker, key, error)
                    continue
                if worker.trace_spans:
                    tracer.graft(worker.trace_spans)
                    worker.trace_spans = None
                if status == "err":
                    errors[key] = payload
                else:
                    results[key] = payload
                dispatch_next(worker)
        return results, errors

    def fan_out(self, method: str,
                batches: Mapping[int, Tuple["_ReplicatedShardProxy", tuple]]
                ) -> Dict[int, object]:
        """Send ``method`` to every copy of each ``position: (proxy,
        args)`` shard at once, :meth:`settle`, and return the primaries'
        results by position.  Point writes are one-shard fan-outs."""
        commands = [((position, copy), copy.worker, copy.shard_id, method,
                     args)
                    for position, (proxy, args) in batches.items()
                    for copy in [proxy.primary] + proxy.replicas]
        results, errors = self.drive(commands)
        self.settle({position: proxy
                     for position, (proxy, _args) in batches.items()},
                    errors)
        return {position: results[(position, proxy.primary)]
                for position, (proxy, _args) in batches.items()}

    def settle(self, proxies: Mapping[int, "_ReplicatedShardProxy"],
               errors: Mapping[Tuple[int, _ShardCopy], BaseException]
               ) -> None:
        """The write rule, applied to a fan-out's ``errors`` (keyed
        ``(position, copy)``).

        A replica is kept when its outcome matches its primary's: both
        succeeded, or both raised the same exception type (both refused
        the write identically).  A replica that crashed, or that did
        anything else, is dropped.  When the primary itself crashed, only
        the replicas that crashed are dropped: the others may be promoted.
        The primary error of the lowest position is raised, matching the
        sequential engine.
        """
        fatal: Dict[int, BaseException] = {}
        for position, proxy in proxies.items():
            primary_error = errors.get((position, proxy.primary))
            primary_crashed = isinstance(primary_error, WorkerCrashError)
            for replica in list(proxy.replicas):
                error = errors.get((position, replica))
                if isinstance(error, WorkerCrashError) \
                        or (not primary_crashed
                            and type(error) is not type(primary_error)):
                    self.drop(proxy, replica)
            if primary_error is not None:
                fatal[position] = primary_error
        if fatal:
            raise fatal[min(fatal)]

    def failover(self, proxy: "_ReplicatedShardProxy", copy: _ShardCopy,
                 error: BaseException, method: str, args: tuple
                 ) -> Tuple[object, _ShardCopy]:
        """Finish a read whose first attempt, on ``copy``, raised ``error``;
        return ``(result, serving copy)`` or raise the read's outcome.

        The primary's own error is the answer.  A replica's error is
        checked against the primary's outcome: the same exception type
        means the copies agree (a ``search`` miss raises on both), so it is
        raised and the replica kept; anything else demotes the replica and
        serves the primary's outcome.  A crashed copy is demoted if it is
        a replica, and the read moves to the primary, then to each live
        replica, one crossing each; when all crashed, ``error`` is raised.
        A wrong ``contains`` boolean cannot be seen per read: anti-entropy
        is the backstop for silent divergence.
        """
        primary = proxy.primary
        crashed = isinstance(error, WorkerCrashError)
        if copy is primary and not crashed:
            raise error
        if crashed and copy is not primary:
            self.drop(proxy, copy, demoted=True)
        for candidate in [primary] + proxy.live_replicas():
            if candidate is copy:
                continue
            try:
                result = candidate.call(method, *args)
            except WorkerCrashError:
                if candidate is not primary:
                    self.drop(proxy, candidate, demoted=True)
                continue
            except Exception as verdict:
                if not crashed and type(verdict) is not type(error):
                    self.drop(proxy, copy, demoted=True)
                raise verdict
            if not crashed:
                self.drop(proxy, copy, demoted=True)
            return result, candidate
        raise error

    def drop(self, proxy: "_ReplicatedShardProxy", replica: _ShardCopy,
             demoted: bool = False) -> None:
        """Take ``replica`` out of ``proxy`` and free it in its worker.

        ``demoted`` counts a read-path demotion.  A copy no longer listed
        is left alone, so one dropped twice in a call counts once.
        """
        if replica not in proxy.replicas:
            return
        proxy.replicas.remove(replica)
        if demoted:
            self.metrics.inc("replica_reads.demotions")
        replica.release()


class _ReplicatedShardProxy(HIDictionary):
    """One shard seen as primary plus replicas, behind one dictionary face.

    The sharded structure's routing, migration, iteration and validation
    machinery all talk to whatever sits in its shard list; putting the
    replica set *here* means every one of those paths — including the
    elastic resize's migration traffic — fans mutations out and reads
    through the shared :class:`_ReplicaRules` without knowing replicas
    exist.  A one-copy engine's proxies simply have an empty replica list.
    Optional capabilities of the hosted structure (``predecessor``,
    ``level_of``, ...) are reads through ``__getattr__``, but only the
    methods the primary's worker reported, so ``hasattr`` probes stay
    truthful.
    """

    def __init__(self, primary: _ShardCopy, replicas: List[_ShardCopy],
                 rules: _ReplicaRules) -> None:
        self.primary = primary
        self.replicas = replicas
        self.registry_name = primary.registry_name
        self._rules = rules
        self._rr_cursor = 0

    def promote(self, new_primary: _ShardCopy,
                remaining: List[_ShardCopy]) -> None:
        """Swap in a recovered primary and the surviving replica set."""
        self.primary = new_primary
        self.replicas = remaining
        self.registry_name = new_primary.registry_name

    def live_replicas(self) -> List[_ShardCopy]:
        """The replicas whose worker has not been seen to go down (no
        syscall: every failed crossing sets the worker's crash flag, and a
        silently killed one fails over on its next crossing)."""
        return [replica for replica in self.replicas
                if not replica.worker.down]

    # -- read routing ----------------------------------------------------- #

    def read_copies(self) -> List[_ShardCopy]:
        """Eligible read targets under the current policy, primary first.

        ``"primary"`` serves everything from the primary; ``"round-robin"``
        admits every live replica; ``"any-after-barrier"`` admits only the
        live replicas stamped with the current barrier epoch — the ones
        proven in sync at the engine's last durability sync point (and
        kept in sync since, because writes fan out synchronously).
        """
        rules = self._rules
        if rules.policy == "primary":
            return [self.primary]
        live = self.live_replicas()
        if rules.policy == "any-after-barrier":
            epoch = rules.barrier_epoch
            live = [replica for replica in live
                    if replica._synced_epoch == epoch]
        return [self.primary] + live

    def _pick_reader(self) -> _ShardCopy:
        copies = self.read_copies()
        if len(copies) == 1:
            return copies[0]
        reader = copies[self._rr_cursor % len(copies)]
        self._rr_cursor += 1
        return reader

    def _read(self, method: str, *args: object) -> object:
        """One synchronous call on the copy the policy picks, then the
        shared failover when it fails."""
        rules = self._rules
        copy = self.primary
        if rules.policy != "primary" and method not in _PRIMARY_PINNED:
            copy = self._pick_reader()
        try:
            result = copy.call(method, *args)
        except Exception as error:
            result, copy = rules.failover(self, copy, error, method, args)
        if copy is not self.primary:
            rules.metrics.inc("replica_reads.replica_reads")
        return result

    # -- writes: one command per copy, then the write rule ---------------- #

    def _write(self, method: str, *args: object) -> object:
        return self._rules.fan_out(method, {0: (self, args)})[0]

    def insert(self, key: object, value: object = None) -> None:
        return self._write("insert", key, value)

    def upsert(self, key: object, value: object = None) -> bool:
        return self._write("upsert", key, value)

    def delete(self, key: object) -> object:
        return self._write("delete", key)

    # -- reads ----------------------------------------------------------- #

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
        return self._read("len")

    def __iter__(self):
        return iter(self._read("keys"))

    def io_stats(self):
        return self._read("io_stats")

    def snapshot_slots(self) -> Sequence[object]:
        return self._read("snapshot_slots")

    def audit_fingerprint(self) -> object:
        return self._read("audit_fingerprint")

    # -- optional capabilities (read-only by convention) ------------------ #

    def __getattr__(self, name: str):
        primary = self.__dict__.get("primary")
        if name.startswith("_") or primary is None:
            raise AttributeError(name)
        if name not in primary.methods:
            raise AttributeError(
                "worker-hosted shard %r has no method %r"
                % (primary.registry_name, name))

        def remote_call(*args: object) -> object:
            return self._read("__method__", name, args)

        remote_call.__name__ = name
        return remote_call


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #

def _require_copies(replication: int, shards: int) -> None:
    """The one shape rule: ``replication`` copies need as many shards."""
    if replication > shards:
        raise ConfigurationError(
            "replication factor %d needs at least as many shards (and "
            "workers) as copies, not %d" % (replication, shards))


class ProcessShardedDictionaryEngine(ShardedDictionaryEngine):
    """A sharded engine whose shards live in long-lived worker processes.

    ``config`` is the :class:`~repro.api.config.EngineConfig` the engine
    runs under (``None`` means ``EngineConfig(parallel="process")``); its
    structure fields are not read, because ``structure`` is already built
    (:func:`~repro.api.sharded.make_sharded_engine` builds both from one
    config).  It is validated, must name ``parallel="process"``, and is
    carried as ``engine_config`` from before the first checkpoint, so every
    durability manifest embeds it.  The start method comes from
    ``REPRO_START_METHOD`` (fork where the platform has it, else spawn).

    Construction adopts every shard of the wrapped
    :class:`~repro.api.sharded.ShardedDictionary` into a worker process
    (pickling the structure over the command pipe; a ``None`` slot, which
    only :func:`~repro.replication.recovery.open_durable_engine` leaves, is
    built and restored by the worker) as its *primary*, plus
    ``replication - 1`` *replica* clones on ring-successor workers, and
    puts a :class:`_ReplicatedShardProxy` in the shard's slot.  Bulk
    operations ship one batched command per shard copy per call and
    collect replies as workers finish; point operations stay routed.
    ``max_workers`` caps the process pool — with fewer workers than shards,
    workers host several shards each and those shards' batches serialize on
    their worker.

    With a ``durability_dir`` every primary's worker keeps an op log and
    the constructor ends in a :meth:`checkpoint`, so a durable engine
    always has a manifest on disk.  :meth:`recover` repairs dead
    primaries.  Workers are daemonic; call :meth:`close` (or use the
    engine as a context manager) for a clean shutdown.
    """

    def __init__(self, structure: ShardedDictionary,
                 config: Optional[EngineConfig] = None) -> None:
        if config is None:
            config = EngineConfig(parallel="process")
        if not isinstance(config, EngineConfig) \
                or config.parallel != "process":
            raise ConfigurationError(
                "the process engine takes an EngineConfig with "
                "parallel='process', got %r" % (config,))
        config.validate()
        super().__init__(structure)
        _require_copies(config.replication, structure.num_shards)
        if config.durability_dir is not None \
                and structure.build_record is None:
            raise ConfigurationError(
                "durability needs the registry build record (per-shard "
                "seeds and construction parameters) to rebuild crashed "
                "shards; build the dictionary through make_dictionary("
                "'sharded', ...) instead of from pre-built shards")
        self._adopt_config(config)
        for name in _COUNTERS:
            self.metrics.inc(name, 0)
        self._rules = _ReplicaRules(config.read_policy, self.metrics,
                                    self.tracer,
                                    config.durability_dir is not None)
        self._next_replica_id = -1
        self._placement_router: Optional[ConsistentHashRouter] = None
        #: What a durable store's replicas are hosted with: the record
        #: codec of the primaries' op logs, so a replica refuses what its
        #: primary's log refuses (``None`` without durability).
        self._replica_codec = None
        if config.durability_dir is not None:
            _recovery()  # before the first fork, so workers import nothing
            os.makedirs(config.durability_dir, exist_ok=True)
            from repro.storage.encoding import RecordCodec
            from repro.storage.snapshot import PAYLOAD_SIZE

            self._replica_codec = RecordCodec(payload_size=PAYLOAD_SIZE)
        self._mp_context = multiprocessing.get_context(
            _default_start_method())
        self._workers: List[_ShardWorker] = []
        self._worker_by_shard: Dict[int, _ShardWorker] = {}
        self._closed = False
        self._adopt_local_shards()
        if config.durability_dir is not None:
            # A durable engine always has a manifest: crash at any later
            # point finds at least the empty-state snapshot plus full logs.
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def replication(self) -> int:
        """The configured copy count (primary included)."""
        return self.engine_config.replication

    @property
    def durability_dir(self) -> Optional[str]:
        return self.engine_config.durability_dir

    @property
    def durability_mode(self) -> str:
        """``"logged"`` (full history until checkpoint) or ``"secure"``."""
        return self.engine_config.durability_mode

    @property
    def read_policy(self) -> str:
        """The read routing policy (see
        :data:`~repro.api.config.READ_POLICIES`)."""
        return self.engine_config.read_policy

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        """The worker process ids, in spawn order (testing/ops hook)."""
        return [worker.pid for worker in self._workers]

    def io_stats(self):
        """Aggregate worker-held I/O counters; fails cleanly once closed.

        The counters live in the worker processes, so after :meth:`close`
        there is nothing left to aggregate — without this check the
        inherited path would surface the dead command pipe as a confusing
        :class:`~repro.errors.WorkerCrashError`.
        """
        self._require_open("its workers (and their I/O counters) are gone")
        return super().io_stats()

    def _require_open(self, why: str) -> None:
        if self._closed:
            raise ConfigurationError(
                "this process engine is closed; %s — build a new one" % why)

    def _require_durable(self, what: str) -> None:
        self._require_open("cannot " + what)
        if self.durability_dir is None:
            raise ConfigurationError(
                "no durability directory configured; build the engine with "
                "durability_dir=... to enable %ss" % what)

    def replica_counts(self) -> List[int]:
        """Live replica count per shard position (testing/ops hook)."""
        return [len(self._proxy(position).live_replicas())
                for position in range(self.num_shards)]

    def _proxy(self, position: int) -> _ReplicatedShardProxy:
        return self._structure._shards[position]

    # ------------------------------------------------------------------ #
    # Placement and adoption
    # ------------------------------------------------------------------ #

    def _pick_worker(self) -> _ShardWorker:
        """A live worker for a new shard: spawn until the cap, then pack."""
        cap = self.engine_config.max_workers or len(self._structure.shards)
        live = [worker for worker in self._workers if worker.is_alive()]
        if len(live) < cap:
            worker = _ShardWorker(self._mp_context)
            self._workers.append(worker)
            return worker
        return min(live, key=lambda worker: len(worker.shard_ids))

    def _host_primaries(self,
                        local: Sequence[Tuple[int, Optional[HIDictionary]]]
                        ) -> List[_ShardCopy]:
        """Host each ``(position, local shard)`` as a primary.

        A built shard is pickled over (``__host__``); for ``None`` the
        worker builds and restores it (:func:`_restore_primary`), so only
        its manifest entry crosses.  Placement is decided for every shard
        before the first command goes out: spawn until the cap, then the
        least-loaded live worker (earliest spawned on ties).  Returns the
        copies in input order; the caller installs them.
        """
        structure = self._structure
        entries: Sequence[Mapping[str, object]] = ()
        if self.durability_dir is not None \
                and any(shard is None for _position, shard in local):
            entries = _recovery().load_manifest(self.durability_dir)["shards"]
        hostings: List[Tuple[_ShardWorker, int, str, tuple]] = []
        try:
            for position, shard in local:
                shard_id = structure.shard_ids[position]
                worker = self._pick_worker()
                worker.shard_ids.add(shard_id)  # the next pick sees it
                log_spec = self._oplog_spec(shard_id)
                if shard is not None:
                    hostings.append((worker, shard_id, "__host__",
                                     (shard, log_spec)))
                    continue
                image = next(((self.durability_dir, entry, index)
                              for index, entry in enumerate(entries)
                              if entry.get("id") == shard_id), None)
                hostings.append((worker, shard_id, "__restore__", (
                    structure.inner_names[position], structure.build_record,
                    image, log_spec)))
            copies = self._host(hostings)
        except BaseException:
            for worker, shard_id, _method, _args in hostings:
                worker.shard_ids.discard(shard_id)
            raise
        for copy in copies:
            self._worker_by_shard[copy.shard_id] = copy.worker
        return copies

    def _oplog_spec(self, shard_id: int,
                    truncate: bool = False) -> Optional[Dict[str, object]]:
        """The worker-side op log a primary hosting opens (none unless
        durable): keyword arguments for
        :class:`~repro.replication.oplog.OpLog`."""
        if self.durability_dir is None:
            return None
        return {"path": _recovery().oplog_path(self.durability_dir,
                                               shard_id),
                "fsync": self.engine_config.fsync, "truncate": truncate}

    def _host(self, hostings: Sequence[Tuple[_ShardWorker, int, str, tuple]]
              ) -> List[_ShardCopy]:
        """Send ``(worker, engine id, method, args)`` hostings; copies.

        Every hosting that can go out does so before the first reply is
        read, so the workers take their shards side by side; a worker
        hosting several takes them back to back.  Hosting never runs under
        an engine span, so it is never traced and the trace counters stay
        functions of the workload.  Returns the copies in input order once
        every hosting is acknowledged; otherwise re-raises the first
        failure in input order.
        """
        descriptors, errors = self._rules.drive(
            [(index, worker, engine_id, method, args)
             for index, (worker, engine_id, method, args)
             in enumerate(hostings)])
        if errors:
            raise errors[min(errors)]
        copies = []
        for index, (worker, engine_id, _method, _args) in enumerate(hostings):
            worker.shard_ids.add(engine_id)
            copies.append(_ShardCopy(worker, engine_id, descriptors[index]))
        return copies

    @contextmanager
    def _reaping_new_workers(self) -> Iterator[None]:
        """Shut down every worker spawned inside the block if it raises."""
        spawned = len(self._workers)
        try:
            yield
        except BaseException:
            for worker in self._workers[spawned:]:
                worker.shutdown()
            del self._workers[spawned:]
            raise

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

    def _reseed(self, wanted: Mapping[int, Tuple[int, Sequence[_ShardWorker]]]
                ) -> int:
        """Clone primaries into fresh replicas; return how many were hosted.

        ``wanted`` maps a shard position to ``(replicas needed, workers to
        prefer)``: recovery prefers its respawned workers, anti-entropy the
        workers of the copies it dropped.  One ``__export__`` per shard
        pickles back to the parent and on to each target, so clones are
        byte-identical, randomness state included.  Every export goes out
        in one round, so the primaries pickle side by side (the first
        failure, by position, is raised before anything is hosted); then
        every clone is hosted in one round and stamped with the current
        barrier epoch.
        """
        plans: List[Tuple[_ReplicatedShardProxy, List[_ShardWorker]]] = []
        for position, (needed, prefer) in sorted(wanted.items()):
            proxy = self._proxy(position)
            plans.append((proxy, self._replica_workers_for(
                proxy.primary.shard_id,
                exclude={proxy.primary.worker}
                | {replica.worker for replica in proxy.replicas},
                needed=needed, prefer=prefer)))
        exports, errors = self._rules.drive(
            [(index, proxy.primary.worker, proxy.primary.shard_id,
              "__export__", ()) for index, (proxy, _targets) in
             enumerate(plans)])
        if errors:
            raise errors[min(errors)]
        hostings: List[Tuple[_ShardWorker, int, str, tuple]] = []
        owners: List[_ReplicatedShardProxy] = []
        for index, (proxy, targets) in enumerate(plans):
            for target in targets:
                hostings.append((target, self._take_replica_id(), "__host__",
                                 (exports[index], None, self._replica_codec)))
                owners.append(proxy)
        for proxy, clone in zip(owners, self._host(hostings)):
            clone._synced_epoch = self._rules.barrier_epoch
            proxy.replicas.append(clone)
        return len(hostings)

    def _adopt_local_shards(self) -> None:
        """Host every local shard as a primary plus its replica clones.

        Two passes: primaries first (spawning the worker pool), then
        replicas — replica placement targets the workers that host the ring
        successors, which must all exist before the first replica is
        placed.  A shard that is local because of an elastic grow is
        adopted *populated*, so its clones start byte-identical, migration
        history included.  A ``None`` slot (a cold open) is restored by
        its worker and its replicas are seeded by :meth:`_reseed`.
        """
        self._require_open("cannot host shards")
        shards = self._structure._shards
        local = [(position, shard) for position, shard in enumerate(shards)
                 if not isinstance(shard, _ReplicatedShardProxy)]
        copies = self.replication - 1
        with self._reaping_new_workers():
            primaries = self._host_primaries(local)
            hostings = []
            for (_position, shard), primary in zip(local, primaries):
                for target in self._replica_workers_for(
                        primary.shard_id, exclude={primary.worker},
                        needed=0 if shard is None else copies):
                    # Hosting pickles the still-local structure over the
                    # pipe, so every replica is an independent, identical
                    # clone.
                    hostings.append((target, self._take_replica_id(),
                                     "__host__",
                                     (shard, None, self._replica_codec)))
            replicas = iter(self._host(hostings))
            for (position, shard), primary in zip(local, primaries):
                shards[position] = _ReplicatedShardProxy(
                    primary, [] if shard is None
                    else [next(replicas) for _copy in range(copies)],
                    self._rules)
            self._reseed({position: (copies, ()) for position, shard
                          in local if shard is None and copies})

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the worker pool is gone)."""
        return self._closed

    def close(self) -> None:
        """Shut every worker down cleanly.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.shutdown()
        self._workers = []
        self._worker_by_shard = {}

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
        if not self._closed and self.durability_dir is not None:
            report["barrier"] = self.barrier()
        self.close()
        return report

    def __enter__(self) -> "ProcessShardedDictionaryEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Command dispatch
    # ------------------------------------------------------------------ #

    def _worker_for_position(self, position: int) -> _ShardWorker:
        shard_id = self._structure.shard_ids[position]
        worker = self._worker_by_shard.get(shard_id)
        if worker is None:
            # The mapping only loses entries when the engine shut down; a
            # bare KeyError here would escape the library's error hierarchy.
            raise WorkerCrashError(
                "no worker hosts shard id %d%s"
                % (shard_id, " (the engine is closed)" if self._closed
                   else ""))
        return worker

    def _scatter(self, commands: Sequence[Tuple[int, str, tuple]]
                 ) -> Dict[int, object]:
        """Run per-primary commands concurrently; results keyed by position.

        Worker-side exceptions — and
        :class:`~repro.errors.WorkerCrashError` for workers that die — are
        re-raised for the smallest shard position, matching which failure
        the sequential engine would surface first.
        """
        structure = self._structure
        results, errors = self._rules.drive(
            [(position, self._worker_for_position(position),
              structure.shard_ids[position], method, args)
             for position, method, args in commands])
        if errors:
            raise errors[min(errors)]
        return results

    # ------------------------------------------------------------------ #
    # Batched bulk operations (through the replica rules)
    # ------------------------------------------------------------------ #

    def insert_many(self, entries: Iterable[object]) -> int:
        """Insert with one ``insert_batch`` per copy of each shard."""
        with self._bulk_op("insert_many"):
            batches, count = self._grouped_entries(entries)
            self._rules.fan_out("insert_batch", {
                position: (self._proxy(position), (batch,))
                for position, batch in enumerate(batches) if batch})
        self.metrics.inc("engine.keys.insert_many", count)
        return count

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        """Delete across every copy; values come from the primaries."""
        with self._bulk_op("delete_many"):
            keys, positions, batches = self._grouped_positions(keys)
            results = self._rules.fan_out("delete_batch", {
                position: (self._proxy(position), (batch,))
                for position, batch in enumerate(batches) if batch})
            values: List[object] = [None] * len(keys)
            for position, deleted in results.items():
                for at, value in zip(positions[position], deleted):
                    values[at] = value
        self.metrics.inc("engine.keys.delete_many", len(keys))
        return values

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        """Membership with each shard's batch fanned over its read copies.

        Under ``read_policy="primary"`` this is one ``contains_batch`` per
        primary; the balancing policies split each shard's sub-batch across
        the eligible copies (one command per copy), so a
        ``replication=3`` engine answers a read-heavy workload from three
        workers per shard instead of one.  A slice that fails goes through
        the same failover as a point read, with the whole slice in one
        crossing per candidate copy.
        """
        rules = self._rules
        with self._bulk_op("contains_many"):
            keys, positions, batches = self._grouped_positions(keys)
            commands = []
            # Each slice: its proxy, the copy serving it, its keys and
            # their input positions.
            slices: Dict[Tuple[int, int],
                         Tuple[_ReplicatedShardProxy, _ShardCopy, list,
                               List[int]]] = {}
            for position, batch in enumerate(batches):
                if not batch:
                    continue
                proxy = self._proxy(position)
                copies = proxy.read_copies()
                for index, copy in enumerate(copies):
                    part = batch[index::len(copies)]
                    if not part:
                        continue
                    slices[(position, index)] = (
                        proxy, copy, part,
                        positions[position][index::len(copies)])
                    commands.append(
                        ((position, index), copy.worker, copy.shard_id,
                         "contains_batch", (part,)))
            results, errors = rules.drive(commands)
            fatal: Dict[int, BaseException] = {}
            for key in sorted(errors):
                proxy, copy, part, at = slices[key]
                try:
                    results[key], copy = rules.failover(
                        proxy, copy, errors[key], "contains_batch", (part,))
                except Exception as error:
                    fatal.setdefault(key[0], error)
                    continue
                slices[key] = (proxy, copy, part, at)
            if fatal:
                raise fatal[min(fatal)]
            found: List[bool] = [False] * len(keys)
            for key, (_proxy, _copy, _part, at) in slices.items():
                for position, flag in zip(at, results[key]):
                    found[position] = flag
        self.metrics.inc("engine.keys.contains_many", len(keys))
        self.metrics.inc("replica_reads.replica_reads", sum(
            len(part) for proxy, copy, part, _at in slices.values()
            if copy is not proxy.primary))
        return found

    # ------------------------------------------------------------------ #
    # Shard-aware cost probes (measured and rolled back in the worker)
    # ------------------------------------------------------------------ #

    def search_io_cost(self, key: object) -> int:
        return self._proxy(self._structure.shard_of(key)).primary.call(
            "search_io_cost", key)

    def range_io_cost_breakdown(self, low: object, high: object
                                ) -> Tuple[List[Pair], List[int]]:
        self._require_range_support()
        results = self._scatter([(position, "range_io_cost", (low, high))
                                 for position in range(self.num_shards)])
        merged = [results[position][0] for position in range(self.num_shards)]
        costs = [results[position][1] for position in range(self.num_shards)]
        pairs = list(heapq.merge(*merged, key=lambda pair: pair[0]))
        return pairs, costs

    # ------------------------------------------------------------------ #
    # Elastic resizing (migration runs through the proxies)
    # ------------------------------------------------------------------ #

    def add_shard(self, shard: Optional[HIDictionary] = None,
                  inner: Optional[str] = None) -> MigrationReport:
        """Grow by one shard, hosted with its replicas once migrated.

        The migration runs through the inherited canonical-order machinery
        — deletes and re-inserts flow through the shard proxies, so
        replicas and op logs see every moved key and layouts match the
        sequential engine's resize byte for byte.  The new shard is then
        adopted with its own replicas, and a durable engine checkpoints:
        the manifest must describe the new topology before any further
        crash.
        """
        if shard is not None and self.durability_dir is not None:
            raise ConfigurationError(
                "a durable engine cannot adopt a pre-built shard: its "
                "construction seed is unknown, so a crash could not be "
                "recovered byte-identically; grow with inner=... so the "
                "shard is built (and its seed recorded) through the "
                "registry")
        report = super().add_shard(shard=shard, inner=inner)
        self._adopt_local_shards()
        if self.durability_dir is not None:
            self.checkpoint()
        return report

    def remove_shard(self, position: int) -> MigrationReport:
        """Retire one shard, every hosting of it, and its durable artifacts.

        Leaving fewer shards than copies, which a reopen would refuse,
        raises :class:`~repro.errors.ConfigurationError` and changes nothing.
        """
        if self.replication > 1:
            _require_copies(self.replication, self.num_shards - 1)
        proxy: Optional[_ReplicatedShardProxy] = None
        if isinstance(position, int) and not isinstance(position, bool) \
                and 0 <= position < len(self._structure.shards):
            proxy = self._proxy(position)
        # Any other position makes the structure raise its uniform error.
        report = super().remove_shard(position)
        shard_id = proxy.primary.shard_id
        del self._worker_by_shard[shard_id]
        for copy in [proxy.primary] + proxy.replicas:
            copy.release()
            if not copy.worker.shard_ids and copy.worker in self._workers:
                copy.worker.shutdown()
                self._workers.remove(copy.worker)
        if self.durability_dir is not None:
            # Publish the shrunk topology FIRST: until the new manifest is
            # on disk, the old one still references the retired shard's
            # artifacts, and deleting them early would make a crash here
            # leave an unopenable store.  The checkpoint's generation sweep
            # reclaims the retired images; only the op log remains ours to
            # drop.
            from repro.storage.snapshot import release_files

            self.checkpoint()
            release_files([_recovery().oplog_path(self.durability_dir,
                                                  shard_id)],
                          fsync=self.engine_config.fsync)
        return report

    # ------------------------------------------------------------------ #
    # Durability (implemented in repro.replication.recovery)
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
        self._require_durable("barrier")
        results = self._scatter([(position, "__barrier__", ())
                                 for position in range(self.num_shards)])
        deletes = sum(result[1] for result in results.values())
        self.metrics.inc("erasure.barriers")
        self.metrics.inc("erasure.deletes_flushed", deletes)
        redacted = False
        if self.durability_mode == "secure" and deletes:
            self.checkpoint()  # stamps the replicas' barrier epoch itself
            self.metrics.inc("erasure.redactions")
            redacted = True
        elif self.read_policy == "any-after-barrier":
            self._sync_replicas()
        return {"deletes": deletes, "redacted": redacted}

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot every shard, write the manifest, compact the logs.

        Returns the manifest.  Each shard's worker writes its image and
        commits its op-log barrier in one conversation, so the pair
        describes a single instant; the manifest is written atomically
        (write + rename), so a crash mid-checkpoint leaves the previous
        snapshot generation fully intact.
        """
        self._require_durable("checkpoint")
        manifest = _recovery().checkpoint_engine(self)
        if self.read_policy == "any-after-barrier":
            # A checkpoint is a barrier too: replicas that ack it become
            # read-eligible (a freshly built durable engine serves from its
            # replicas immediately — __init__ ends in a checkpoint).
            self._sync_replicas()
        return manifest

    def _sync_replicas(self) -> None:
        """Stamp every replica that acks this sync with a new barrier epoch.

        Worker pipes process commands in order and every engine-level call
        is synchronous, so a replica that answers the ping has applied
        every write acknowledged before the barrier — exactly the
        ``"any-after-barrier"`` read-eligibility condition.  Replicas that
        crashed instead of acking are dropped.
        """
        rules = self._rules
        rules.barrier_epoch += 1
        commands = [((position, replica), replica.worker, replica.shard_id,
                     "__ping__", ())
                    for position in range(self.num_shards)
                    for replica in self._proxy(position).replicas]
        results, errors = rules.drive(commands)
        for _position, replica in results:
            replica._synced_epoch = rules.barrier_epoch
        for (position, replica), error in errors.items():
            if isinstance(error, WorkerCrashError):
                rules.drop(self._proxy(position), replica)

    # ------------------------------------------------------------------ #
    # Crash handling and repair
    # ------------------------------------------------------------------ #

    def dead_shard_positions(self) -> List[int]:
        """Shard positions whose primary's worker is no longer alive.

        Raises :class:`~repro.errors.ConfigurationError` once the engine is
        closed — a shut-down engine has no workers to inspect or restart.
        """
        self._require_open("it has no workers to inspect or restart")
        structure = self._structure
        return [position for position, shard_id
                in enumerate(structure.shard_ids)
                if not self._worker_by_shard[shard_id].is_alive()]

    def recover(self) -> "RecoveryReport":
        """Repair every dead primary and re-seed missing replicas.

        Promotion when a live replica exists, snapshot + op-log replay when
        durable state does, else an empty rebuild with the shard's original
        construction seed (its data is lost).  Raises
        :class:`~repro.errors.ConfigurationError` for hand-assembled
        dictionaries with no recorded build context.  See
        :func:`repro.replication.recovery.recover_engine`.
        """
        report = _recovery().recover_engine(self)
        if self.read_policy == "any-after-barrier":
            # Freshly re-seeded replicas are byte-identical clones of their
            # primaries; stamp them read-eligible rather than benching them
            # until the next barrier.
            self._sync_replicas()
        return report

    def restart_workers(self) -> List[int]:
        """:meth:`recover`, reporting only the repaired shard positions."""
        return list(self.recover().positions)

    def anti_entropy(self) -> Dict[str, object]:
        """Compare canonical HI digests per shard copy; re-seed divergence.

        Every copy of every shard answers one worker-side ``__digest__``
        (a SHA-256 over its canonical slot array and audit fingerprint —
        identical bytes on copies that applied the same operation stream),
        and only replicas whose digest disagrees with their primary's are
        re-seeded: one ``__export__`` per affected shard, then every clone
        hosted at once; healthy shards are never exported.  Dead workers
        are repaired by :meth:`recover` *first*, which on a durable engine
        also writes a fresh checkpoint — redacting a down worker's stale
        op log now instead of at some later recovery.

        Returns ``{"checked", "recovered", "divergent", "reseeded",
        "exported_positions"}``.
        """
        self._require_open("cannot run anti-entropy")
        recovered = False
        if self.dead_shard_positions() \
                or any(not worker.is_alive() for worker in self._workers):
            self.recover()
            recovered = True
        rules = self._rules
        proxies = self._structure._shards
        commands = [((position, copy), copy.worker, copy.shard_id,
                     "__digest__", ())
                    for position, proxy in enumerate(proxies)
                    for copy in [proxy.primary] + proxy.replicas]
        digests, errors = rules.drive(commands)
        for position, proxy in enumerate(proxies):
            if (position, proxy.primary) in errors:
                # A primary died mid-pass; recover and re-run.
                raise errors[(position, proxy.primary)]
        wanted: Dict[int, Tuple[int, List[_ShardWorker]]] = {}
        for position, proxy in enumerate(proxies):
            primary_digest = digests[(position, proxy.primary)]
            for replica in list(proxy.replicas):
                key = (position, replica)
                if key in errors or digests[key] != primary_digest:
                    # Re-seeded on the same worker when it is still up.
                    rules.drop(proxy, replica)
                    needed, prefer = wanted.get(position, (0, []))
                    wanted[position] = (needed + 1, prefer + [replica.worker])
        reseeded = self._reseed(wanted)
        self.metrics.inc("replica_reads.anti_entropy_reseeds", reseeded)
        return {"checked": len(commands), "recovered": recovered,
                "divergent": sorted(wanted), "reseeded": reseeded,
                "exported_positions": sorted(wanted)}

"""Process-parallel sharded engine: long-lived workers own the shards.

Pure-Python shard work is GIL-bound, so threads buy nothing on the
registry's CPU-bound inner structures.  :class:`ProcessShardedDictionaryEngine`
instead hosts every shard's structure inside a long-lived **worker
process** and drives it over a pickled command pipe, so per-shard batches
execute on separate cores.

Design
------

* **Workers own the state.**  At construction the engine pickles each local
  shard to its worker (one worker per shard by default, fewer when
  ``max_workers`` caps the pool — workers then host several shards).  The
  parent's shard slots are replaced by :class:`_ShardProxy` stand-ins that
  forward every dictionary call to the owning worker, so *all* of the
  inherited :class:`~repro.api.sharded.ShardedDictionary` machinery —
  routing, merged iteration, elastic ``add_shard``/``remove_shard``
  migration, per-shard snapshots, ``check()`` — keeps working unchanged.
* **Workers start ready to serve.**  Everything a worker runs, fail points
  included, is imported when this module loads, so a forked worker
  imports nothing.  The engine forks the whole pool before the first
  handshake: every worker gets its first ``__host__`` before any reply is
  read, and the constructor (like :meth:`restart_workers`) returns only
  after every hosting is acknowledged.  A start that fails shuts down
  every worker it started before the error propagates.
* **One round-trip per shard per bulk call.**  ``insert_many`` /
  ``delete_many`` / ``contains_many`` ship each shard's whole batch as a
  single command (amortizing IPC exactly the way PR 2's batched routing
  amortized dispatch), with at most one outstanding command per worker so
  a large payload can never deadlock against a worker blocked on its reply.
* **One encoding on the pipe.**  Commands and replies are pickled: the
  pipe joins two halves of one trusted program, so pickle's exact
  round-trip of every value type is what it needs.  (Untrusted network
  bytes never reach pickle — see :mod:`repro.net.protocol` — and the
  durable artifacts use :class:`~repro.storage.encoding.RecordCodec`.)
* **Crossings coalesce per worker.**  When one bulk call queues several
  commands for the same worker (``max_workers`` packing, replica copies),
  they merge into a single ``__multi__`` crossing; a durable worker then
  group-commits its op logs once per crossing instead of once per shard
  copy.
* **Probes roll back worker-side.**  ``search_io_cost`` / ``range_io_cost``
  run the cold-cache measurement inside the worker's own
  :class:`~repro.api.engine.DictionaryEngine`, so cumulative ``io_stats()``
  stay byte-identical to the sequential engine's.
* **Crashes are contained.**  A worker that dies mid-conversation raises
  :class:`~repro.errors.WorkerCrashError` naming the shard; commands to
  surviving workers keep working, and :meth:`restart_workers` respawns dead
  workers with freshly built (empty) shards, reporting which shard
  positions lost their data.  :meth:`close` (or the context-manager exit)
  shuts every worker down cleanly.

Bulk calls that *succeed* return results, layouts and counters identical
to the sequential engine; when a batch raises, the same exception
surfaces, but other shards' already-dispatched batches run to completion.

Build one through the usual convenience constructor::

    from repro.api import make_sharded_engine

    with make_sharded_engine("hi-skiplist", shards=4,
                             parallel="process") as engine:
        engine.insert_many((key, key) for key in range(100_000))
        engine.contains_many(range(0, 100_000, 7))
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import pickle
import traceback
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import wait
from time import perf_counter
from typing import (
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
from repro.api.engine import DictionaryEngine
from repro.api.protocol import HIDictionary, Pair
from repro.api.sharded import (
    MigrationReport,
    ShardedDictionary,
    ShardedDictionaryEngine,
)
from repro.errors import ConfigurationError, WorkerCrashError
from repro.obs import Tracer, child_span

#: One parent->worker command: ``(shard_id, method, args)`` — plus an
#: optional fourth element, a trace header dict, when the parent engine
#: has request tracing enabled (see :mod:`repro.obs.tracing`).  Replies
#: are ``(status, payload)`` 2-tuples, growing an optional third element
#: (the worker's finished span dicts) on traced commands.
Command = Tuple[int, str, tuple]

#: Bulk methods that mutate a shard (and therefore commit its op log).
_BULK_MUTATORS = frozenset(("insert_batch", "delete_batch"))


def _default_start_method() -> str:
    """``fork`` where the platform has it (fast, no re-import), else spawn.

    The ``REPRO_START_METHOD`` environment variable overrides the choice —
    that is how CI runs the fault-injection suite under both start methods
    without threading a parameter through every constructor.
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


def _open_oplog(spec: Mapping[str, object]):
    """Open the worker-side op log a hosting command described."""
    # Imported lazily: the replication package imports this module, so a
    # top-level import would be circular.  Only durable hostings get here,
    # and the replicated engine that sends them has imported it already.
    from repro.replication.oplog import OpLog

    return OpLog(**spec)


def _insert_batch(structure, log, trip, pairs, dirty) -> int:
    """Apply one insert batch; commit now, or defer into ``dirty``.

    ``dirty`` is the group-commit accumulator a ``__multi__`` crossing
    passes down: when set, the log is registered there instead of fsynced
    per batch, and the crossing commits every dirty log once at its end —
    the applied prefix still reaches the OS per append, and the command is
    only acknowledged after the group commit, so the durability contract
    is unchanged.
    """
    insert = structure.insert
    count = 0
    try:
        with child_span("worker.apply.insert") as span:
            for key, value in pairs:
                trip("worker.insert")
                insert(key, value)
                if log is not None:
                    log.append("insert", key, value)
                count += 1
            span.tag("keys", count)
    finally:
        if log is not None:
            if dirty is None:
                log.commit()  # the applied prefix is durable even on error
            else:
                dirty.append(log)
    return count


def _delete_batch(structure, log, trip, keys, dirty) -> List[object]:
    delete = structure.delete
    values: List[object] = []
    try:
        with child_span("worker.apply.delete") as span:
            for key in keys:
                trip("worker.delete")
                values.append(delete(key))
                if log is not None:
                    log.append("delete", key)
            span.tag("keys", len(values))
    finally:
        if log is not None:
            if dirty is None:
                log.commit()
            else:
                dirty.append(log)
    return values


def _execute(engines: Dict[int, DictionaryEngine], logs: Dict[int, object],
             trip, shard_id: int, method: str, args: tuple,
             dirty: Optional[list] = None) -> object:
    """Dispatch one command against the hosted shard (worker side).

    ``logs`` maps shard ids to their op logs (primaries of a durable
    engine only): every acknowledged mutation is appended *here*, by the
    process that applied it, with one fsync batch per command — so after a
    crash the log holds exactly the operations the lost structure had
    applied.  ``trip`` is the fail-point hook the fault-injection suite
    arms to kill the worker at exact operation boundaries, and ``dirty``
    the enclosing ``__multi__`` crossing's group-commit accumulator.
    """
    if method == "__multi__":
        # One coalesced crossing: execute every sub-command, capturing
        # per-sub outcomes, then group-commit each distinct dirty op log
        # exactly once — one fsync batch per worker per engine-level bulk
        # call instead of one per shard copy.
        replies: List[Tuple[str, object]] = []
        group_dirty: List[object] = []
        try:
            for sub_id, sub_method, sub_args in args[0]:
                try:
                    replies.append(("ok", _execute(
                        engines, logs, trip, sub_id, sub_method, sub_args,
                        dirty=group_dirty)))
                except Exception as error:
                    replies.append(("err", error))
        finally:
            # Two entries are the same log exactly when they are the same
            # object; commit in the order the logs were first dirtied.
            for log in {id(log): log for log in group_dirty}.values():
                log.commit()
        return ("__multi__", replies)
    if method == "__host__":
        shard = args[0]
        engines[shard_id] = DictionaryEngine(shard)
        if len(args) > 1 and args[1] is not None:
            logs[shard_id] = _open_oplog(args[1])
        return _describe_shard(shard)
    if method == "__drop__":
        del engines[shard_id]
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
        stale = logs.pop(shard_id, None)
        if stale is not None:
            stale.close()
        if oplog_spec is not None:
            logs[shard_id] = _open_oplog(oplog_spec)
        return _describe_shard(engines[shard_id].structure)
    engine = engines[shard_id]
    structure = engine.structure
    log = logs.get(shard_id)
    # The batched bulk paths: one command per shard per engine-level call.
    if method == "insert_batch":
        return _insert_batch(structure, log, trip, args[0], dirty)
    if method == "delete_batch":
        return _delete_batch(structure, log, trip, args[0], dirty)
    if method == "contains_batch":
        contains = structure.contains
        with child_span("worker.apply.contains"):
            return [contains(key) for key in args[0]]
    if method in ("insert", "upsert", "delete"):
        # Routed point mutations (including the migration traffic the
        # elastic resizes push through the shard proxies) log one committed
        # frame each.
        trip("worker." + method)
        result = getattr(structure, method)(*args)
        if log is not None:
            log.append(method, args[0], args[1] if len(args) > 1 else None)
            log.commit()
        return result
    if method == "__checkpoint__":
        # One atomic conversation: the returned slot array and log barrier
        # offset describe the same instant (no other command can interleave
        # because the parent keeps at most one outstanding per worker).
        slots = list(structure.snapshot_slots())
        trip("worker.checkpoint")
        return slots, (log.barrier() if log is not None else None)
    if method == "__barrier__":
        # A durability sync point without a snapshot: commit a barrier
        # frame and report how many delete frames preceded it since the
        # last one — the signal secure durability mode escalates on.
        if log is None:
            return None, 0
        deletes = log.deletes_since_barrier
        trip("worker.barrier")
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
        fingerprint = None
        probe = getattr(structure, "audit_fingerprint", None)
        if callable(probe):
            fingerprint = probe()
        blob = repr((fingerprint,
                     tuple(structure.snapshot_slots()))).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
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
    if status == "ok" and isinstance(payload, tuple) and len(payload) == 2 \
            and payload[0] == "__multi__":
        # A coalesced crossing: the offender may be a sub-command's error.
        for sub_status, sub_payload in payload[1]:
            if sub_status == "err" and isinstance(sub_payload, BaseException):
                return _unpicklable_reply_error(method,
                                                ("err", sub_payload))
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


def _worker_main(conn) -> None:
    """The long-lived worker loop: receive commands, answer until shutdown."""
    # Re-read REPRO_FAILPOINTS: under fork the worker inherits the parent's
    # parsed fail-point cache, and the parent legitimately trips parent-side
    # fail points (op-log compaction during recovery), which would
    # otherwise freeze an empty cache into every forked worker.
    failpoints.reset()
    trip = failpoints.trip
    engines: Dict[int, DictionaryEngine] = {}
    logs: Dict[int, object] = {}
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
                reply = ("ok", _execute(engines, logs, trip, shard_id,
                                        method, args))
            else:
                with span:
                    with child_span("worker.decode") as decode:
                        decode.started = received
                        decode.tag("bytes", len(blob))
                    reply = ("ok", _execute(engines, logs, trip, shard_id,
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
# Parent side: worker handle and shard proxy
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
        self._down = False
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
        return not self._down and self._process.is_alive()

    def _crash(self, cause: Optional[BaseException],
               what: str) -> WorkerCrashError:
        self._down = True
        error = WorkerCrashError(
            "shard worker (pid %s, shards %s) %s; its in-memory shard "
            "state is lost — see restart_workers()"
            % (self.pid, sorted(self.shard_ids), what))
        if cause is not None:
            error.__cause__ = cause
        return error

    def send(self, shard_id: int, method: str, args: object,
             trace: Optional[dict] = None) -> None:
        if self._down:
            raise self._crash(None, "is already down")
        try:
            if trace is None:
                self._conn.send((shard_id, method, args))
            else:
                self._conn.send((shard_id, method, args, trace))
        except (BrokenPipeError, OSError) as error:
            raise self._crash(error, "refused a command (pipe broken)")

    def receive(self) -> Tuple[str, object]:
        try:
            message = self._conn.recv()
        except (EOFError, OSError) as error:
            raise self._crash(error, "died before answering")
        self.trace_spans = message[2] if len(message) > 2 else None
        return message[0], message[1]

    def request(self, shard_id: int, method: str, args: tuple = ()) -> object:
        """One synchronous round-trip; re-raises worker-side exceptions."""
        self.send(shard_id, method, args)
        status, payload = self.receive()
        if status == "err":
            raise payload
        return payload

    def host(self, shard_id: int, shard: HIDictionary,
             oplog: Optional[Mapping[str, object]] = None
             ) -> Dict[str, object]:
        """Adopt ``shard`` under ``shard_id``; ``oplog`` (a keyword spec for
        :class:`~repro.replication.oplog.OpLog`) makes the hosting durable:
        the worker opens the log and appends every acknowledged mutation."""
        args = (shard,) if oplog is None else (shard, dict(oplog))
        descriptor = self.request(shard_id, "__host__", args)
        self.shard_ids.add(shard_id)
        return descriptor

    def drop(self, shard_id: int) -> None:
        self.request(shard_id, "__drop__")
        self.shard_ids.discard(shard_id)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it will not."""
        if not self._down and self._process.is_alive():
            try:
                self._conn.send((0, "__shutdown__", ()))
                self._conn.recv()  # the shutdown acknowledgement
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._down = True
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(1.0)
        self._conn.close()


class _MultiKey:
    """Dispatch key of a coalesced ``__multi__`` crossing.

    Wraps the original per-command keys in order, so reply demux (and
    whole-queue failure) can fan the single crossing's outcome back out to
    the commands it merged.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: Tuple[object, ...]) -> None:
        self.keys = keys


def _expand_key(key: object) -> Tuple[object, ...]:
    return key.keys if isinstance(key, _MultiKey) else (key,)


#: One queued command: ``(key, worker, engine id, method, args)``.
_Dispatch = Tuple[object, _ShardWorker, int, str, tuple]


class _ShardProxy(HIDictionary):
    """Parent-side stand-in for a worker-hosted shard.

    Implements the full :class:`~repro.api.protocol.HIDictionary` surface by
    forwarding each call to the owning worker; optional capabilities the
    hosted structure exposes (``predecessor``, ``level_of``, ...) are
    forwarded through ``__getattr__`` — but only the methods the worker
    reported at adoption time, so ``hasattr`` probes stay truthful.
    """

    def __init__(self, worker: _ShardWorker, shard_id: int,
                 descriptor: Dict[str, object]) -> None:
        self._worker = worker
        self._shard_id = shard_id
        self._remote_methods = frozenset(descriptor["methods"])
        self.registry_name = descriptor["registry_name"]

    @property
    def worker(self) -> _ShardWorker:
        return self._worker

    @property
    def shard_id(self) -> int:
        return self._shard_id

    def _call(self, method: str, *args: object) -> object:
        return self._worker.request(self._shard_id, method, args)

    # -- dictionary surface --------------------------------------------- #

    def insert(self, key: object, value: object = None) -> None:
        return self._call("insert", key, value)

    def upsert(self, key: object, value: object = None) -> bool:
        return self._call("upsert", key, value)

    def delete(self, key: object) -> object:
        return self._call("delete", key)

    def search(self, key: object) -> object:
        return self._call("search", key)

    def contains(self, key: object) -> bool:
        return self._call("contains", key)

    def items(self) -> List[Pair]:
        return self._call("items")

    def range_query(self, low: object, high: object):
        return self._call("range_query", low, high)

    def check(self) -> None:
        return self._call("check")

    def __len__(self) -> int:
        return self._call("len")

    def __iter__(self):
        return iter(self._call("keys"))

    # -- accounting / serialisation / auditing -------------------------- #

    def io_stats(self):
        return self._call("io_stats")

    def snapshot_slots(self) -> Sequence[object]:
        return self._call("snapshot_slots")

    def audit_fingerprint(self) -> object:
        return self._call("audit_fingerprint")

    # -- optional capabilities ------------------------------------------ #

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self.__dict__.get("_remote_methods", frozenset()):
            def remote_call(*args: object) -> object:
                return self._call("__method__", name, args)
            remote_call.__name__ = name
            return remote_call
        raise AttributeError(
            "worker-hosted shard %r has no method %r"
            % (self.__dict__.get("registry_name"), name))


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #

class ProcessShardedDictionaryEngine(ShardedDictionaryEngine):
    """A sharded engine whose shards live in long-lived worker processes.

    Construction adopts every shard of the wrapped
    :class:`~repro.api.sharded.ShardedDictionary` into a worker process
    (pickling the structure over the command pipe) and replaces it with a
    forwarding proxy.  Bulk operations ship one batched command per shard
    per call and collect replies as workers finish; point operations stay
    routed (one round-trip).  ``max_workers`` caps the process pool — with
    fewer workers than shards, workers host several shards each and those
    shards' batches serialize on their worker.

    With ``sample_operations=True`` the bulk operations fall back to the
    sequential per-operation path (samples are an ordered, shared log).
    Workers are daemonic; call :meth:`close` (or use the engine as a
    context manager) for a clean shutdown.
    """

    def __init__(self, structure: ShardedDictionary, *,
                 name: Optional[str] = None,
                 sample_operations: bool = False,
                 max_workers: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        if max_workers is not None and (not isinstance(max_workers, int)
                                        or isinstance(max_workers, bool)
                                        or max_workers < 1):
            raise ConfigurationError(
                "max_workers must be an integer >= 1 (or None for one "
                "worker per shard), got %r" % (max_workers,))
        #: Deterministic crossing counters (pure functions of workload and
        #: topology, so ``benchmarks/baseline.py`` gates them): pipe
        #: crossings saved by ``__multi__`` coalescing, and group-commit
        #: points issued by durable bulk mutations.
        self._plane_stats: Dict[str, int] = {"coalesced": 0,
                                             "fsync_batches": 0}
        # Subclasses that host durable shards (the replicated engine) set
        # ``_durability_dir`` before delegating here, so this snapshot is
        # correct by the time any command is dispatched.
        self._durable_plane = getattr(self, "_durability_dir", None) is not None
        super().__init__(structure, name=name,
                         sample_operations=sample_operations)
        self._max_workers = max_workers
        self._mp_context = multiprocessing.get_context(
            start_method or _default_start_method())
        self._workers: List[_ShardWorker] = []
        self._worker_by_shard: Dict[int, _ShardWorker] = {}
        self._closed = False
        self._adopt_local_shards()

    # ------------------------------------------------------------------ #
    # Worker pool management
    # ------------------------------------------------------------------ #

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        """The worker process ids, in spawn order (testing/ops hook)."""
        return [worker.pid for worker in self._workers]

    def plane_stats(self) -> Dict[str, int]:
        """Deterministic crossing counters (coalesced commands, group-commit
        fsync batches) since construction.

        Every read republishes the counters into the metrics registry as
        ``plane.*`` gauges — gauges, because the counters are already
        cumulative, so republishing every interval never double counts.
        """
        for name, value in self._plane_stats.items():
            self.metrics.set_gauge("plane." + name, value)
        return dict(self._plane_stats)

    def _pick_worker(self) -> _ShardWorker:
        """A live worker for a new shard: spawn until the cap, then pack."""
        cap = self._max_workers or len(self._structure.shards)
        live = [worker for worker in self._workers if worker.is_alive()]
        if len(live) < cap:
            worker = _ShardWorker(self._mp_context)
            self._workers.append(worker)
            return worker
        return min(live, key=lambda worker: len(worker.shard_ids))

    def _host_primaries(self, local: Sequence[Tuple[int, HIDictionary]]
                        ) -> List[_ShardProxy]:
        """Host each ``(position, local shard)`` on a picked worker.

        Placement is decided for every shard before the first ``__host__``
        goes out: spawn until the cap, then the least-loaded live worker
        (earliest spawned on ties).  Returns the proxies in input order;
        the caller installs them.
        """
        hostings: List[Tuple[_ShardWorker, int, tuple]] = []
        try:
            for position, shard in local:
                shard_id = self._structure.shard_ids[position]
                worker = self._pick_worker()
                worker.shard_ids.add(shard_id)  # the next pick sees it
                hostings.append((worker, shard_id,
                                 (shard, self._oplog_spec(shard_id))))
            proxies = self._host(hostings)
        except BaseException:
            for worker, shard_id, _args in hostings:
                worker.shard_ids.discard(shard_id)
            raise
        for proxy in proxies:
            self._worker_by_shard[proxy.shard_id] = proxy.worker
        return proxies

    def _oplog_spec(self, shard_id: int) -> Optional[Dict[str, object]]:
        """The op log a primary hosting opens worker-side (none here)."""
        return None

    def _host(self, hostings: Sequence[Tuple[_ShardWorker, int, tuple]]
              ) -> List[_ShardProxy]:
        """Send ``(worker, engine id, __host__ args)`` hostings; proxies.

        Every ``__host__`` that can go out does so before the first reply
        is read, so the workers unpickle their shards side by side; a
        worker hosting several takes them back to back, one outstanding
        command at a time.  Hosting is neither coalesced nor traced, so the
        ``plane_stats()`` and trace counters stay functions of the workload.
        Returns the proxies in input order once every hosting is
        acknowledged; otherwise re-raises the first failure in input order.
        """
        queues: Dict[_ShardWorker, Deque[_Dispatch]] = {}
        for index, (worker, engine_id, args) in enumerate(hostings):
            queues.setdefault(worker, deque()).append(
                (index, worker, engine_id, "__host__", args))
        descriptors, errors = self._drive_queues(queues, trace_header=None)
        if errors:
            raise errors[min(errors)]
        proxies = []
        for index, (worker, engine_id, _args) in enumerate(hostings):
            worker.shard_ids.add(engine_id)
            proxies.append(_ShardProxy(worker, engine_id, descriptors[index]))
        return proxies

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

    def _adopt_local_shards(self) -> None:
        """Move every locally held shard into a worker, proxying it here."""
        if self._closed:
            raise ConfigurationError(
                "this process engine is closed; build a new one")
        shards = self._structure._shards
        local = [(position, shard) for position, shard in enumerate(shards)
                 if not isinstance(shard, _ShardProxy)]
        with self._reaping_new_workers():
            proxies = self._host_primaries(local)
        for (position, _shard), proxy in zip(local, proxies):
            shards[position] = proxy
        self._shard_engine_cache = []

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
    # Crash handling
    # ------------------------------------------------------------------ #

    def dead_shard_positions(self) -> List[int]:
        """Shard positions whose worker process is no longer alive.

        Raises :class:`~repro.errors.ConfigurationError` once the engine is
        closed — a shut-down engine has no workers to inspect or restart.
        """
        if self._closed:
            raise ConfigurationError(
                "this process engine is closed; build a new one")
        structure = self._structure
        return [position for position, shard_id
                in enumerate(structure.shard_ids)
                if not self._worker_by_shard[shard_id].is_alive()]

    def restart_workers(self) -> List[int]:
        """Respawn dead workers with freshly built *empty* shards.

        A worker owns its shards' only copy, so a crash loses their data;
        this rebuilds each lost shard through the same registry wiring the
        engine was constructed with (drawing the next seeds of the
        construction seed stream) and hosts it in a new worker.  Returns
        the shard positions that were rebuilt — their keys are gone, the
        other shards are untouched.  Raises
        :class:`~repro.errors.ConfigurationError` for hand-assembled
        dictionaries with no recorded build context.
        """
        structure = self._structure
        lost = self.dead_shard_positions()
        if not lost:
            return []
        context = structure._build_context
        if context is None:
            raise ConfigurationError(
                "this sharded dictionary was assembled from pre-built "
                "shards; the engine cannot rebuild lost shards without a "
                "registry build context")
        from repro.api.registry import make_dictionary

        dead_workers = {self._worker_by_shard[structure.shard_ids[position]]
                        for position in lost}
        rebuilt = [(position,
                    make_dictionary(structure.inner_names[position],
                                    block_size=context["block_size"],
                                    cache_blocks=context["cache_blocks"],
                                    seed=context["rng"].getrandbits(64),
                                    backend=context["backend"],
                                    **context["inner_params"]))
                   for position in lost]
        with self._reaping_new_workers():
            proxies = self._host_primaries(rebuilt)
        for (position, _shard), proxy in zip(rebuilt, proxies):
            structure._shards[position] = proxy
        for worker in dead_workers:
            worker.shutdown()
            if worker in self._workers:
                self._workers.remove(worker)
        self._shard_engine_cache = []
        return lost

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

    def _request(self, position: int, method: str, args: tuple = ()) -> object:
        shard_id = self._structure.shard_ids[position]
        return self._worker_for_position(position).request(shard_id, method,
                                                           args)

    def _drive_commands(self, commands: Sequence[_Dispatch]
                        ) -> Tuple[Dict[object, object],
                                   Dict[object, BaseException]]:
        """Run ``(key, worker, engine id, method, args)`` commands; return
        ``(results, errors)`` keyed by ``key``.

        The shared dispatch path behind :meth:`_scatter` and the replicated
        engine's primary-plus-replica fan-out.  Callers decide which errors
        are fatal — the plain engine raises all of them, the replicated
        engine demotes replica failures to replica drops.
        """
        queues: Dict[_ShardWorker, Deque[_Dispatch]] = {}
        for command in commands:
            queues.setdefault(command[1], deque()).append(command)
        for worker, queue in queues.items():
            if len(queue) > 1:
                # Coalesce the worker's whole dispatch window into one
                # crossing: the subs run back to back worker-side (same
                # order the queue would have run them) and their op logs
                # group-commit once at the crossing's end.
                keys = tuple(entry[0] for entry in queue)
                subs = [(entry[2], entry[3], entry[4]) for entry in queue]
                self._plane_stats["coalesced"] += len(queue) - 1
                queue.clear()
                queue.append((_MultiKey(keys), worker, -1,
                              "__multi__", (subs,)))
        # The propagation header for this dispatch window: present only
        # when tracing is enabled AND an engine-level span is active on
        # this thread (the bulk operations open one around dispatch).
        return self._drive_queues(queues, self.tracer.header())

    def _drive_queues(self, queues: Dict[_ShardWorker, Deque[_Dispatch]],
                      trace_header: Optional[dict]
                      ) -> Tuple[Dict[object, object],
                                 Dict[object, BaseException]]:
        """The dispatch loop: drain every worker's queue concurrently.

        At most one command is outstanding per worker (a second send could
        deadlock against a worker blocked on a large reply); commands for
        the same worker run back to back; a dead worker fails its whole
        queue; a command that does not pickle fails alone.  Every sent
        command's reply is read before this returns.
        """
        results: Dict[object, object] = {}
        errors: Dict[object, BaseException] = {}
        tracer = self.tracer

        def fail_worker(worker: _ShardWorker, key: object,
                        error: BaseException) -> None:
            for sub_key in _expand_key(key):
                errors[sub_key] = error
            for queued in queues[worker]:
                for sub_key in _expand_key(queued[0]):
                    errors[sub_key] = error
            queues[worker].clear()

        def settle(key: object, status: str, payload: object) -> None:
            if isinstance(key, _MultiKey) and status == "ok":
                _tag, replies = payload
                for sub_key, (sub_status, sub_payload) in zip(key.keys,
                                                              replies):
                    settle(sub_key, sub_status, sub_payload)
            elif status == "err":
                for sub_key in _expand_key(key):
                    errors[sub_key] = payload
            else:
                results[key] = payload

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
                    settle(key, "err", error)
                    continue
                if trace_header is not None:
                    tracer.note_crossing()
                self._note_fsync_batch(engine_id, method, args)
                outstanding[worker.connection] = (worker, key)
                return

        outstanding: Dict[object, Tuple[_ShardWorker, object]] = {}
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
                settle(key, status, payload)
                dispatch_next(worker)
        return results, errors

    def _note_fsync_batch(self, engine_id: int, method: str,
                          args: object) -> None:
        """Count one group-commit point per durable mutating crossing.

        Replica hostings use negative engine ids; only primary mutations
        carry an op log, so only they contribute a commit point.
        """
        if not self._durable_plane:
            return
        if method == "__multi__":
            mutates = any(sub_method in _BULK_MUTATORS and sub_id >= 0
                          for sub_id, sub_method, _args in args[0])
        else:
            mutates = method in _BULK_MUTATORS and engine_id >= 0
        if mutates:
            self._plane_stats["fsync_batches"] += 1

    def _scatter(self, commands: Sequence[Tuple[int, str, tuple]]
                 ) -> Dict[int, object]:
        """Run per-shard commands concurrently; results keyed by position.

        Worker-side exceptions — and
        :class:`~repro.errors.WorkerCrashError` for workers that die — are
        re-raised for the smallest shard position, matching which failure
        the sequential engine would surface first.
        """
        structure = self._structure
        results, errors = self._drive_commands(
            [(position, self._worker_for_position(position),
              structure.shard_ids[position], method, args)
             for position, method, args in commands])
        if errors:
            raise errors[min(errors)]
        return results

    # ------------------------------------------------------------------ #
    # Batched bulk operations (one round-trip per shard per call)
    # ------------------------------------------------------------------ #

    def insert_many(self, entries: Iterable[object]) -> int:
        """Insert keys or pairs: one ``insert_batch`` command per shard."""
        if self.sample_operations:
            return super().insert_many(entries)
        batches, count = self._grouped_entries(entries)
        with self._bulk_op("insert_many"):
            self._scatter([(position, "insert_batch",
                            (batch,))
                           for position, batch in enumerate(batches)
                           if batch])
        self.metrics.inc("engine.keys.insert_many", count)
        return count

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        """Delete per-shard batches in parallel; values in input order."""
        if self.sample_operations:
            return super().delete_many(keys)
        keys, batches = self._grouped_positions(keys)
        values: List[object] = [None] * len(keys)
        with self._bulk_op("delete_many"):
            results = self._scatter(
                [(position, "delete_batch",
                  ([key for _at, key in batch],))
                 for position, batch in enumerate(batches) if batch])
        self.metrics.inc("engine.keys.delete_many", len(keys))
        for position, batch in enumerate(batches):
            if batch:
                for (at, _key), value in zip(batch, results[position]):
                    values[at] = value
        return values

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        """Membership via parallel shard batches; input order preserved."""
        if self.sample_operations:
            return super().contains_many(keys)
        keys, batches = self._grouped_positions(keys)
        found: List[bool] = [False] * len(keys)
        with self._bulk_op("contains_many"):
            results = self._scatter(
                [(position, "contains_batch",
                  ([key for _at, key in batch],))
                 for position, batch in enumerate(batches) if batch])
        self.metrics.inc("engine.keys.contains_many", len(keys))
        for position, batch in enumerate(batches):
            if batch:
                for (at, _key), flag in zip(batch, results[position]):
                    found[at] = flag
        return found

    # ------------------------------------------------------------------ #
    # Shard-aware cost probes (measured and rolled back in the worker)
    # ------------------------------------------------------------------ #

    def search_io_cost(self, key: object) -> int:
        return self._request(self._structure.shard_of(key),
                             "search_io_cost", (key,))

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
        """Grow by one shard; the new shard is adopted into a worker.

        The migration itself runs through the inherited canonical-order
        machinery (deletes and re-inserts flow through the shard proxies),
        so layouts match the sequential engine's resize byte for byte; the
        freshly built shard is hosted in a worker once the migration
        committed.
        """
        report = super().add_shard(shard=shard, inner=inner)
        self._adopt_local_shards()
        return report

    def remove_shard(self, position: int) -> MigrationReport:
        """Retire one shard and its worker hosting (after migration)."""
        if isinstance(position, int) and not isinstance(position, bool) \
                and 0 <= position < len(self._structure.shards):
            shard_id: Optional[int] = self._structure.shard_ids[position]
        else:
            shard_id = None  # let the structure raise its uniform error
        report = super().remove_shard(position)
        if shard_id is not None:
            worker = self._worker_by_shard.pop(shard_id)
            try:
                worker.drop(shard_id)
            except WorkerCrashError:
                pass
            if not worker.shard_ids:
                worker.shutdown()
                self._workers.remove(worker)
        return report

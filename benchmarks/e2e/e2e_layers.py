"""Per-layer measurement for the end-to-end benchmark, taken from outside.

Nothing here reaches into the program's internals.  Every number comes
from one of four public surfaces:

* the span trees the program already records (``engine.tracer``, the
  client's tracer, the server's ``traces`` verb), attributed to layers by
  self time;
* ``engine.telemetry()`` / the ``stats`` verb (the always-on I/O, plane
  and erasure counters);
* ``/proc/<pid>/{stat,status,io}`` for the store's processes (psutil is
  not a dependency);
* direct calls into a layer's public functions: a structure-only replay
  on ``DictionaryEngine.create(inner)`` and the wire codec functions of
  ``repro.net.protocol``.
"""

from __future__ import annotations

import math
import os
import random
import signal
import sys
import time
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# --------------------------------------------------------------------------- #
# /proc readers
# --------------------------------------------------------------------------- #

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (clock-tick resolution)."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)


def proc_write_bytes(pid: int) -> int:
    """Bytes ``pid`` caused to be sent to storage (``/proc/<pid>/io``)."""
    with open("/proc/%d/io" % pid) as handle:
        for line in handle:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise ValueError("no write_bytes for pid %d" % pid)


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (workers forked by any of its threads)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


def become_subreaper() -> None:
    """Adopt the orphans of this process's children.

    A ``repro serve`` subprocess leaves its resource tracker behind for a
    moment after it exits; as a subreaper this process inherits it and can
    wait for it.  Best effort: without ``prctl`` orphans go to init.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _running(pid: int) -> bool:
    """True while ``pid`` exists and has not ended (zombies have ended)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def wait_ended(pids: Iterable[int], timeout: float = 30.0) -> None:
    """Wait until every process of ``pids`` has ended, reaping the ones
    that are children of this process.  A process still running after
    ``timeout`` seconds is killed and waited for as long again."""
    pending = set(pids)
    deadline, killed = perf_counter() + timeout, False
    while pending:
        for pid in list(pending):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    pending.discard(pid)
            except ChildProcessError:
                if not _running(pid):
                    pending.discard(pid)
        if not pending:
            return
        if perf_counter() > deadline:
            if killed:
                return
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline, killed = perf_counter() + timeout, True
        time.sleep(0.01)


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    Shared-memory segments start multiprocessing's resource tracker as a
    child of this process; it would otherwise outlive the run until its
    pipe closes at exit.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        stop = getattr(tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    wait_ended(child_pids(os.getpid()))


class ProcSample:
    """CPU and storage-write counters of a set of processes at one instant."""

    def __init__(self, pids: Iterable[int]) -> None:
        self.cpu: Dict[int, float] = {}
        self.written: Dict[int, int] = {}
        for pid in pids:
            self.cpu[pid] = proc_cpu_s(pid)
            self.written[pid] = proc_write_bytes(pid)

    def cpu_since(self, earlier: "ProcSample") -> float:
        return sum(self.cpu[pid] - earlier.cpu.get(pid, 0.0)
                   for pid in self.cpu)

    def written_since(self, earlier: "ProcSample") -> int:
        return sum(self.written[pid] - earlier.written.get(pid, 0)
                   for pid in self.written)


# --------------------------------------------------------------------------- #
# Span trees -> layer self times
# --------------------------------------------------------------------------- #

def layer_of(name: str, caller_layer: str) -> str:
    """The module a span's self time is charged to."""
    if name == "bench.barrier":
        return "replication.engine"
    if name.startswith("bench."):
        return caller_layer
    if name.startswith("client."):
        return "net.wire"
    if name.startswith("server."):
        return "net.server"
    if name.startswith("engine."):
        return "api.engine"
    if name == "worker.decode":
        return "api.shm_plane"
    if name.startswith("worker.apply."):
        return "structure"
    if name == "oplog.fsync":
        return "replication.oplog"
    if name.startswith("worker."):
        return "api.process_engine"
    return "other"


def _critical_children(span: dict) -> List[dict]:
    """The children that lie on the span's critical path.

    Span dicts carry durations but no start offsets.  Children recorded in
    this span's own process run one after another.  Worker spans (tagged
    with a ``pid``) run concurrently across workers and sequentially within
    one, so only the busiest worker's spans are on the critical path.
    """
    local: List[dict] = []
    per_worker: Dict[object, List[dict]] = defaultdict(list)
    for child in span.get("children") or ():
        pid = (child.get("tags") or {}).get("pid")
        if child.get("name", "").startswith("worker.") and pid is not None:
            per_worker[pid].append(child)
        else:
            local.append(child)
    if per_worker:
        local.extend(max(per_worker.values(),
                         key=lambda spans: sum(s["ms"] for s in spans)))
    return local


def self_times(roots: Iterable[dict], caller_layer: str) -> Dict[str, float]:
    """Milliseconds of critical-path self time per layer over ``roots``."""
    totals: Dict[str, float] = defaultdict(float)
    stack = list(roots)
    while stack:
        span = stack.pop()
        children = _critical_children(span)
        own = span["ms"] - sum(child["ms"] for child in children)
        totals[layer_of(span["name"], caller_layer)] += max(0.0, own)
        stack.extend(children)
    return dict(totals)


def walk(roots: Iterable[dict]):
    """Every span in the trees, depth first."""
    stack = list(roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.get("children") or ())


def crossing_ms(engine_span: dict) -> Optional[float]:
    """An ``engine.*`` span minus its busiest worker's spans (``None``
    when the call crossed no process boundary)."""
    workers = [child for child in _critical_children(engine_span)
               if child.get("name", "").startswith("worker.")]
    if not workers:
        return None
    return engine_span["ms"] - sum(child["ms"] for child in workers)


# --------------------------------------------------------------------------- #
# Structure-only replay
# --------------------------------------------------------------------------- #

#: Probe counts for operation kinds a workload does not issue itself, so
#: every workload reports a per-key cost for every kind.
PROBE_KEYS = 200
PROBE_RANGES = 20
RANGE_SPAN = 100


def replay(inner: str, shards: int, block_size: int, seed: int,
           route: Callable[[object], int], preload: Sequence[int],
           calls: Sequence[Tuple[str, object]]) -> Dict[str, float]:
    """Replay ``calls`` on bare structures, one per shard, and time them.

    Each shard is ``DictionaryEngine.create(inner)``; keys are routed with
    the live store's router outside the timed region, so the timings hold
    structure work alone.  ``calls`` are ``(kind, keys)`` with kind in
    insert/delete/contains, or ``("range", (low, high))``.  Returns
    ``structure.us_per_key.<kind>`` for all four kinds (probing the kinds
    the calls lack) and ``structure.ios_per_op.*`` over the replayed calls.
    """
    from repro.api import DictionaryEngine

    engines = [DictionaryEngine.create(inner, block_size=block_size,
                                       seed=seed * 1000 + position)
               for position in range(shards)]
    structures = [engine.structure for engine in engines]
    for key in preload:
        structures[route(key)].insert(key, -key)
    before = [engine.io_stats() for engine in engines]
    spent: Dict[str, float] = defaultdict(float)
    keys_done: Dict[str, int] = defaultdict(int)

    def run(kind: str, arg: object) -> None:
        if kind == "range":
            low, high = arg
            started = perf_counter()
            found = sum(len(s.range_items(low, high)) for s in structures)
            spent[kind] += perf_counter() - started
            keys_done[kind] += found
            return
        groups: List[List[object]] = [[] for _ in structures]
        for key in arg:
            groups[route(key)].append(key)
        for structure, group in zip(structures, groups):
            if kind == "insert":
                insert = structure.insert
                started = perf_counter()
                for key in group:
                    insert(key, -key)
            else:
                method = getattr(structure, kind)
                started = perf_counter()
                for key in group:
                    method(key)
            spent[kind] += perf_counter() - started
        keys_done[kind] += len(arg)

    for kind, arg in calls:
        run(kind, arg)
    after = [engine.io_stats() for engine in engines]
    ops = sum(keys_done.values())
    result: Dict[str, float] = {}
    for field, name in (("reads", "reads"), ("writes", "writes"),
                        ("element_moves", "moves")):
        delta = sum(getattr(a, field) - getattr(b, field)
                    for a, b in zip(after, before))
        result["structure.ios_per_op." + name] = delta / max(1, ops)
    live = sorted(key for structure in structures for key in structure)
    rng = random.Random(seed)
    if not keys_done["contains"]:
        top = live[-1] if live else 0
        run("contains", [rng.choice(live) if index % 2 else top + 1 + index
                         for index in range(PROBE_KEYS)])
    if not keys_done["range"]:
        for _probe in range(PROBE_RANGES):
            start = rng.randrange(max(1, len(live) - RANGE_SPAN))
            run("range", (live[start],
                          live[min(len(live) - 1, start + RANGE_SPAN - 1)]))
    if not keys_done["delete"]:
        run("delete", rng.sample(live, min(PROBE_KEYS, len(live))))
    for kind in ("insert", "delete", "contains", "range"):
        result["structure.us_per_key." + kind] = \
            spent[kind] * 1e6 / max(1, keys_done[kind])
    return result


# --------------------------------------------------------------------------- #
# Wire codec, timed off the live path
# --------------------------------------------------------------------------- #

def codec_costs(shapes: Sequence[Tuple[float, str, List[object], str,
                                       List[object]]],
                min_seconds: float) -> Dict[str, float]:
    """Time ``repro.net.protocol`` on a workload's request/reply shapes.

    ``shapes`` are ``(weight, op, request_values, reply_kind,
    reply_values)`` with reply_kind ``"none"``, ``"flags"`` or
    ``"values"``; ``weight`` is how many such requests the workload makes
    per key-op mix.  One request costs encoding the request and its reply
    (``WireCodec`` body, ``encode_message``, ``frame``) and decoding both
    (``check_frame``, ``decode_message``, ``WireCodec.decode_body``).
    """
    from repro.net.protocol import (
        BODY_NONE,
        FRAME_HEADER,
        WireCodec,
        check_frame,
        decode_message,
        encode_message,
        frame,
    )

    codec = WireCodec()
    cut = FRAME_HEADER.size

    def encode(op: str, kind: str, values: List[object]) -> bytes:
        header = {"id": 1, "op": op, "namespace": "default",
                  "topo": 3141592653, "shard": 0}
        tag, body = BODY_NONE, b""
        if kind == "flags":
            tag, body = WireCodec.encode_flags(values)
        elif kind == "values":
            tag, body = codec.encode_values(values)
        if kind != "none":
            header["count"] = len(values)
        return frame(encode_message(header, tag, body))

    def decode(blob: bytes) -> None:
        header, tag, body = decode_message(check_frame(blob[:cut],
                                                       blob[cut:]))
        codec.decode_body(tag, body, header.get("count", 0))

    weights = encode_us = decode_us = framed_bytes = keys = 0.0
    for weight, op, request, reply_kind, reply in shapes:
        request_kind = "values" if request else "none"
        reps = 0
        started = perf_counter()
        while reps < 3 or perf_counter() - started < min_seconds:
            blobs = (encode(op, request_kind, request),
                     encode(op, reply_kind, reply))
            reps += 1
        encode_s = (perf_counter() - started) / reps
        reps = 0
        started = perf_counter()
        while reps < 3 or perf_counter() - started < min_seconds:
            decode(blobs[0])
            decode(blobs[1])
            reps += 1
        decode_s = (perf_counter() - started) / reps
        weights += weight
        encode_us += weight * encode_s * 1e6
        decode_us += weight * decode_s * 1e6
        framed_bytes += weight * (len(blobs[0]) + len(blobs[1]))
        keys += weight * max(1, len(request))
    return {"protocol.encode_us_per_req": encode_us / weights,
            "protocol.decode_us_per_req": decode_us / weights,
            "protocol.bytes_per_op": framed_bytes / keys}

"""The four workloads of the end-to-end benchmark.

Each workload runs in one of two modes.  The untraced mode measures the
end-to-end metrics a user of the store sees.  The traced mode (``--trace
1``) measures the per-layer metrics.  It alternates untraced and traced
units of work (calls, rounds, barrier cycles or requests) within one
pass, so both halves see the same host conditions and their throughput
ratio is the tracing overhead.  The traced half's span trees are
attributed to layers; a structure-only replay and a wire-codec timing on
the workload's own shapes complete the picture.

Load comes from this one process: a plain loop for the library
workloads, one asyncio loop with at most two connections for ``serve``.
No threads.  Every answer is checked against a Python oracle; a mismatch
makes the run incorrect.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from e2e_layers import (
    ProcSample,
    child_pids,
    codec_costs,
    crossing_ms,
    median,
    percentile,
    proc_hwm_mb,
    replay,
    self_times,
    wait_ended,
    walk,
)
from repro.api import EngineConfig, make_sharded_engine
from repro.errors import ReproError, ServerBusyError

#: Keys of "miss" probes come from here up, far above every inserted key.
MISS_BASE = 2_000_000_000
#: The stores' own seed (their HI structures draw random priorities and
#: levels from it) is fixed configuration; ``--seed`` drives only the
#: workload's inputs, so I/O counts do not swing with the structure seed.
STORE_SEED = 2016
#: Set-ups per untraced run: three before the measured phase and two after
#: it.  ``setup_s`` is their median, so it spans the run's host conditions
#: instead of the one second the first three share.
SETUPS = 3
LATE_SETUPS = 2

SIZES = {
    "bulk": {"keys": 100_000, "batch": 2_000, "probes": 100_000,
             "deletes": 25_000, "repeats": 3},
    "serve": {"preload": 20_000, "contains_frac": 0.9, "hit_frac": 0.5,
              "rate": 1_000, "ladder": [1_000, 1_500, 2_000, 2_500, 3_000],
              "replay_ops": 2_000},
    "durable": {"preload": 8_192, "insert_batch": 64, "delete_batch": 128,
                "barrier_every": 8, "replay_rounds": 64},
    "churn": {"live": 20_000, "deletes": 100, "inserts": 100,
              "probes": 400, "range": 100, "replay_rounds": 10},
}

#: ``--smoke``: the same workloads at sizes that finish in about a second,
#: measured by round counts instead of seconds so that two runs with one
#: seed issue identical operations.
SMOKE_SIZES = {
    "bulk": {"keys": 2_000, "batch": 500, "probes": 2_000, "deletes": 500,
             "repeats": 1},
    "serve": {"preload": 500, "contains_frac": 0.9, "hit_frac": 0.5,
              "rate": 1_000, "ladder": [1_000, 3_000], "replay_ops": 10**9,
              "requests": 120},
    "durable": {"preload": 256, "insert_batch": 64, "delete_batch": 128,
                "barrier_every": 8, "replay_rounds": 10**9, "cycles": 2},
    "churn": {"live": 1_000, "deletes": 100, "inserts": 100, "probes": 400,
              "range": 100, "replay_rounds": 10**9, "rounds": 4},
}


class Settings:
    """One invocation's knobs."""

    def __init__(self, seed: int, seconds: float, smoke: bool, trace: bool,
                 corrupt_oracle: bool, workdir: str, src: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.trace = trace
        self.corrupt_oracle = corrupt_oracle
        self.workdir = workdir
        self.src = src

    def sizes(self, workload: str) -> Dict[str, object]:
        if self.smoke:
            return dict(SMOKE_SIZES[workload])
        return dict(SIZES[workload], seconds=self.seconds)

    def budget(self, share: float, rounds: Optional[int]) -> "Budget":
        """A phase of ``share`` × ``--seconds`` (or ``rounds`` when smoke)."""
        if self.smoke:
            return Budget(None, rounds)
        return Budget(self.seconds * share, None)

    @property
    def setups(self) -> int:
        return 1 if self.smoke or self.trace else SETUPS

    @property
    def late_setups(self) -> int:
        return 0 if self.smoke or self.trace else LATE_SETUPS


class Budget:
    """How long a measured phase runs: seconds, or a count of rounds."""

    def __init__(self, seconds: Optional[float], rounds: Optional[int]):
        self.seconds = seconds
        self.rounds = rounds
        self.done = 0
        self.started = perf_counter()

    def more(self) -> bool:
        if self.rounds is not None:
            return self.done < self.rounds
        return perf_counter() - self.started < self.seconds

    def tick(self) -> None:
        self.done += 1


class Report:
    """What one workload run measured and whether its answers held."""

    def __init__(self, workload: str, settings: Settings) -> None:
        self.sizes = settings.sizes(workload)
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.spans: List[dict] = []
        self.notes: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(what)


def _chunks(items: Sequence, size: int):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _take(rng: random.Random, live: List[int], count: int) -> List[int]:
    """Remove and return ``count`` random keys of ``live`` (swap-pop)."""
    picked = []
    for _ in range(count):
        index = rng.randrange(len(live))
        live[index], live[-1] = live[-1], live[index]
        picked.append(live.pop())
    return picked


def _final_check(report: Report, settings: Settings, oracle: Dict,
                 items: List, keys_only: bool = False) -> None:
    """Compare a store's full contents (or only its keys) with the oracle."""
    if settings.corrupt_oracle:
        oracle[MISS_BASE - 1] = "corrupt"
    if keys_only:
        report.expect([key for key, _value in items] == sorted(oracle),
                      "final keys differ from the oracle")
    else:
        report.expect(list(items) == sorted(oracle.items()),
                      "final items() differ from the oracle")


def _latency_metrics(report: Report, latencies_s: Sequence[float],
                     tail: float) -> None:
    """``p50_ms`` and one tail percentile, with the sample count."""
    report.put("p50_ms", median(latencies_s) * 1e3, "ms")
    report.put("p%g_ms" % (tail * 100), percentile(latencies_s, tail) * 1e3,
               "ms")
    report.notes.append("latency samples: %d" % len(latencies_s))


def _setups(settings: Settings, build: Callable[[], object]):
    """Build a store ``settings.setups`` times, keeping only the last;
    return it with the set-up times."""
    times, store = [], None
    for _ in range(settings.setups):
        if store is not None:
            store.discard()
        store = build()
        times.append(store.setup)
    return store, times


def _late_setups(settings: Settings, build: Callable[[], object]
                 ) -> List[float]:
    """Set-up times of stores built (and discarded) after the measured
    phase."""
    times = []
    for _ in range(settings.late_setups):
        store = build()
        times.append(store.setup)
        store.discard()
    return times


def _route_of(structure) -> Callable[[object], int]:
    """The routing function of a live sharded store (or client)."""
    router, shard_ids = structure.router, tuple(structure.shard_ids)
    return lambda key: router.route(key, shard_ids)


# --------------------------------------------------------------------------- #
# Timed calls
# --------------------------------------------------------------------------- #

class Tally:
    """What the calls of one mode (untraced or traced) did."""

    def __init__(self) -> None:
        self.keys = 0
        self.writes = 0
        self.seconds = 0.0
        self.latencies: List[float] = []
        self.barriers: List[float] = []
        self.own_cpu = 0.0
        self.other_cpu = 0.0
        self.written = 0

    @property
    def ops_per_s(self) -> float:
        """Keys per second of call time (barriers included)."""
        return self.keys / self.seconds

    def add(self, op: str, keys: int, elapsed: float, cpu: float,
            kind: Optional[str]) -> None:
        (self.barriers if op == "barrier" else self.latencies).append(elapsed)
        self.seconds += elapsed
        self.keys += keys
        self.own_cpu += cpu
        if kind in ("insert", "delete"):
            self.writes += keys


class Caller:
    """Times every call into a library engine.

    ``traced`` selects the mode of the next calls; in a traced run the
    workload flips it with :meth:`alternate` after each unit of work.
    A traced call runs under a ``bench.<op>`` span on the engine's tracer,
    so the engine's own spans nest beneath it, and the finished tree is
    harvested from the tracer's ring.  Around a traced run's untraced
    calls, the CPU time and storage writes of ``processes`` (this process
    and the store's workers) are sampled from /proc.
    """

    def __init__(self, engine, report: Report, trace_run: bool = False,
                 processes: Sequence[int] = ()) -> None:
        self.engine = engine
        self.report = report
        self.trace_run = trace_run
        self.processes = list(processes)
        self.traced = False
        self.tallies = {False: Tally(), True: Tally()}
        self.roots: List[dict] = []
        self.calls: List[Tuple[str, object]] = []

    @property
    def plain(self) -> Tally:
        return self.tallies[False]

    def alternate(self) -> None:
        """Switch between untraced and traced calls (traced runs only)."""
        if self.trace_run:
            self.traced = not self.traced

    def __call__(self, op: str, function: Callable, arg, keys: int,
                 kind: Optional[str] = None):
        """Run ``function(arg)``; ``None`` if it raised a library error."""
        self.report.attempted += 1
        tracer, traced = self.engine.tracer, self.traced
        tracer.enabled = traced
        sample = ProcSample(self.processes) \
            if self.trace_run and not traced else None
        cpu = process_time()
        started = perf_counter()
        try:
            if traced:
                with tracer.span("bench." + op, tags={"keys": keys}):
                    result = function(arg)
            else:
                result = function(arg)
        except ReproError:
            self.report.failed += 1
            return None
        elapsed = perf_counter() - started
        cpu = process_time() - cpu
        tally = self.tallies[traced]
        if sample is not None:
            after = ProcSample(self.processes)
            tally.other_cpu += after.cpu_since(sample)
            tally.written += after.written_since(sample)
        if traced:
            self.roots.extend(tracer.traces())
            tracer.ring.clear()
        tally.add(op, keys, elapsed, cpu, kind)
        if self.trace_run and kind is not None:
            self.calls.append((kind, [key for key, _value in arg]
                               if kind == "insert" else arg))
        return result


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #

def _counters(telemetry: Dict[str, object]) -> Dict[str, float]:
    """The deterministic I/O, plane and erasure counters of a telemetry
    snapshot (``engine.telemetry()`` or the ``stats`` verb)."""
    return {name: float(value) for name, value in telemetry.items()
            if name.startswith(("engine.calls.", "engine_io.", "plane.",
                                "erasure."))
            and isinstance(value, (int, float))
            and not isinstance(value, bool)}


def _ios_per_op(report: Report, total_ios: float, keys: int) -> None:
    """Block transfers per key operation in the paper's I/O model, counted
    by the live store's structures (``engine_io.total_ios``; primaries
    only, when replicated)."""
    report.put("ios_per_op", total_ios / keys, "count")


def _delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()}


def _counter_metrics(report: Report, counters: Dict[str, float],
                     keys: int) -> None:
    """Plane, op-log and erasure metrics from counter deltas."""
    calls = sum(value for name, value in counters.items()
                if name.startswith("engine.calls."))
    report.put("plane.bytes_per_op", counters.get("plane.bytes", 0.0) / keys,
               "B")
    report.put("plane.frames_per_call",
               counters.get("plane.frames", 0.0) / max(1.0, calls), "count")
    report.put("oplog.fsyncs_per_op",
               counters.get("plane.fsync_batches", 0.0) / keys, "count")
    barriers = max(1.0, counters.get("erasure.barriers", 0.0))
    report.put("erasure.frames_dropped_per_barrier",
               counters.get("erasure.frames_dropped", 0.0) / barriers,
               "count")
    report.put("erasure.redactions_per_barrier",
               counters.get("erasure.redactions", 0.0) / barriers, "count")


_KIND_OF = {"engine.insert_many": "insert", "engine.delete_many": "delete",
            "engine.contains_many": "contains"}


def _trace_metrics(report: Report, roots: List[dict], traced: Tally,
                   caller_layer: str, structure: Dict[str, float]) -> None:
    """Layer self times and the span-derived engine, crossing and op-log
    metrics of the traced calls."""
    report.spans.extend(roots)
    layers = self_times(roots, caller_layer)
    attributed = sum(layers.values())
    for layer, ms in sorted(layers.items()):
        report.put("layer.%s.ms_per_op" % layer, ms / len(roots), "ms")
        report.put("layer.%s.share" % layer, ms / attributed, "ratio")
    report.put("trace.coverage_frac", attributed / (traced.seconds * 1e3),
               "ratio")
    crossings, decodes, fsyncs = [], [], []
    engine_ms: Dict[str, List[float]] = defaultdict(list)
    call_ms = structure_ms = call_keys = 0.0
    applied = 0
    for root in roots:
        keys = (root.get("tags") or {}).get("keys", 0)
        for span in walk([root]):
            name = span["name"]
            if name in _KIND_OF:
                engine_ms[name].append(span["ms"])
                call_ms += span["ms"]
                call_keys += keys
                structure_ms += keys * structure[
                    "structure.us_per_key." + _KIND_OF[name]] / 1e3
                crossing = crossing_ms(span)
                if crossing is not None:
                    crossings.append(crossing)
                    decodes.append(sum(child["ms"] for child in walk([span])
                                       if child["name"] == "worker.decode"))
            elif name == "oplog.fsync":
                fsyncs.append(span["ms"])
            elif name in ("worker.apply.insert", "worker.apply.delete"):
                applied += (span.get("tags") or {}).get("keys", 0)
    for name, values in sorted(engine_ms.items()):
        report.put("engine.call_ms.%s.p50" % name[len("engine."):],
                   median(values), "ms")
    call_keys = max(1.0, call_keys)
    report.put("engine.call_us_per_key", call_ms * 1e3 / call_keys, "us")
    report.put("engine.route_us_per_key",
               (call_ms - structure_ms) * 1e3 / call_keys, "us")
    if crossings:
        report.put("crossing.ms_per_call.p50", median(crossings), "ms")
        report.put("crossing.decode_ms_per_call.p50", median(decodes), "ms")
    if fsyncs:
        report.put("oplog.fsync_ms.p50", median(fsyncs), "ms")
    # An in-process engine applies each write to its one copy; worker
    # engines report the keys each copy applied on their apply spans.
    report.put("replication.copies_per_write",
               applied / traced.writes if applied else 1.0, "count")


def _process_metrics(report: Report, layer: str, cpu_s: float, ops: int,
                     busy_s: float, processes: int) -> None:
    report.put(layer + ".cpu_ms_per_op", cpu_s * 1e3 / ops, "ms")
    report.put(layer + ".busy_frac", cpu_s / (busy_s * processes), "ratio")


def _wire_shapes(calls: Sequence[Tuple[str, object]], route,
                 point_contains: bool = False):
    """The request/reply shapes the calls would put on the wire.

    The routed clients send one sub-request per owning shard, so each call
    becomes one request per shard it touches.  Range queries have no wire
    verb and are left out.
    """
    sizes: Dict[str, List[int]] = defaultdict(list)
    for kind, keys in calls:
        if kind != "range":
            sizes[kind].extend(Counter(route(key) for key in keys).values())
    shapes = []
    for kind, counts in sorted(sizes.items()):
        size = max(1, round(sum(counts) / len(counts)))
        keys = list(range(1_000_001, 1_000_001 + size))
        if kind == "insert":
            shape = ("insert_many", [(key, -key) for key in keys], "none", [])
        elif kind == "delete":
            shape = ("delete_many", keys, "values", [-key for key in keys])
        elif point_contains:
            shape = ("contains", keys, "none", [])
        else:
            shape = ("contains_many", keys, "flags", [True] * size)
        shapes.append((float(len(counts)),) + shape)
    return shapes


def _structure_and_codec(report: Report, settings: Settings,
                         structure: Dict[str, float], shapes) -> None:
    for name, value in structure.items():
        report.put(name, value, "count" if ".ios_per_op." in name else "us")
    for name, value in codec_costs(
            shapes, 0.005 if settings.smoke else 0.05).items():
        report.put(name, value,
                   "B" if name.endswith("bytes_per_op") else "us")


def _overhead(report: Report, plain: Tally, traced: Tally) -> None:
    report.put("obs.trace_overhead_frac",
               1.0 - traced.ops_per_s / plain.ops_per_s, "ratio")


def _library_layers(report: Report, settings: Settings, caller: Caller,
                    counters: Dict[str, float], structure: Dict[str, float],
                    route, workers: int) -> None:
    """Per-layer metrics of a library workload's alternating pass."""
    plain, traced = caller.tallies[False], caller.tallies[True]
    report.put("client.cpu_ms_per_op", plain.own_cpu * 1e3 / plain.keys,
               "ms")
    if workers:
        # /proc counts every sampled process, this one included.
        _process_metrics(report, "worker", plain.other_cpu - plain.own_cpu,
                         plain.keys, plain.seconds, workers)
    report.put("storage.write_bytes_per_op", plain.written / plain.keys,
               "B")
    _counter_metrics(report, counters, plain.keys + traced.keys)
    _trace_metrics(report, caller.roots, traced, "api.sharded", structure)
    _structure_and_codec(report, settings, structure,
                         _wire_shapes(caller.calls, route))
    _overhead(report, plain, traced)


# --------------------------------------------------------------------------- #
# bulk: large batches through the process backend
# --------------------------------------------------------------------------- #

def _bulk_repeat(settings: Settings, report: Report, repeat: int,
                 caller: Optional[Caller] = None) -> Dict[str, object]:
    """One repeat on a fresh engine: inserts, probes, deletes.

    A traced run passes one ``caller`` to every repeat, so its tallies,
    trees and recorded calls accumulate across the fresh engines.
    """
    sizes = report.sizes
    count, batch = sizes["keys"], sizes["batch"]
    rng = random.Random(settings.seed * 7919 + repeat)
    config = EngineConfig(inner="hi-skiplist", shards=2, seed=STORE_SEED,
                          parallel="process", router="consistent",
                          max_workers=2)
    started = perf_counter()
    engine = make_sharded_engine(config=config)
    setup = perf_counter() - started
    try:
        processes = [os.getpid()] + engine.worker_pids()
        if caller is None:
            caller = Caller(engine, report, settings.trace, processes)
        caller.engine, caller.processes = engine, processes
        oracle: Dict[int, int] = {}
        keys = list(range(1, count + 1))
        for chunk in _chunks(keys, batch):
            pairs = [(key, -key) for key in chunk]
            if caller("insert_many", engine.insert_many, pairs, len(pairs),
                      "insert") is not None:
                oracle.update(pairs)
            caller.alternate()
        probes = [rng.randrange(1, count + 1) if rng.random() < 0.5
                  else MISS_BASE + rng.randrange(count)
                  for _ in range(sizes["probes"])]
        for chunk in _chunks(probes, batch):
            found = caller("contains_many", engine.contains_many, chunk,
                           len(chunk), "contains")
            if found is not None:
                report.expect(found == [key in oracle for key in chunk],
                              "contains_many answers differ from the oracle")
            caller.alternate()
        for chunk in _chunks(rng.sample(keys, sizes["deletes"]), batch):
            values = caller("delete_many", engine.delete_many, chunk,
                            len(chunk), "delete")
            if values is not None:
                report.expect(values == [oracle.pop(key) for key in chunk],
                              "delete_many values differ from the oracle")
            caller.alternate()
        counters = _counters(engine.telemetry())
        hwm = sum(proc_hwm_mb(pid) for pid in processes)
        _final_check(report, settings, oracle, engine.items())
        route = _route_of(engine.structure)
    finally:
        engine.close()
    return {"setup": setup, "caller": caller, "counters": counters,
            "hwm": hwm, "route": route}


def run_bulk(settings: Settings, report: Report) -> None:
    sizes = report.sizes
    started = perf_counter()
    if settings.trace:
        # Repeats whose calls alternate between untraced and traced; the
        # structure replay covers the first repeat.
        run = _bulk_repeat(settings, report, 0)
        caller, counters = run["caller"], dict(run["counters"])
        replayed, repeat = list(caller.calls), 1
        while not settings.smoke \
                and perf_counter() - started < settings.seconds:
            counters = {name: value + counters.get(name, 0.0) for name, value
                        in _bulk_repeat(settings, report, repeat, caller)
                        ["counters"].items()}
            repeat += 1
        structure = replay("hi-skiplist", 2, 64, STORE_SEED, run["route"],
                           (), replayed)
        _library_layers(report, settings, caller, counters, structure,
                        run["route"], 2)
        return
    runs = []
    while len(runs) < sizes["repeats"] or (
            not settings.smoke
            and perf_counter() - started < settings.seconds):
        runs.append(_bulk_repeat(settings, report, len(runs)))
    report.put("setup_s", median([run["setup"] for run in runs]), "s")
    report.put("ops_per_s",
               median([run["caller"].plain.ops_per_s for run in runs]),
               "keys/s")
    _latency_metrics(report, [latency for run in runs
                              for latency in run["caller"].plain.latencies],
                     0.90)
    _ios_per_op(report, sum(run["counters"]["engine_io.total_ios"]
                            for run in runs),
                sum(run["caller"].plain.keys for run in runs))
    # Workers forked by later repeats inherit the pages earlier repeats left
    # behind, so only the first repeat, on a fresh process, is comparable.
    report.put("peak_rss_mb", runs[0]["hwm"], "MB")
    report.notes.append("repeats: %d" % len(runs))


# --------------------------------------------------------------------------- #
# durable: small batches, fsync, replication and secure erasure
# --------------------------------------------------------------------------- #

class _DurableStore:
    """A secure, replicated, fsynced store in a fresh directory."""

    def __init__(self, settings: Settings, report: Report) -> None:
        self.sizes = report.sizes
        self.directory = tempfile.mkdtemp(prefix="durable-",
                                          dir=settings.workdir)
        config = EngineConfig(
            inner="hi-skiplist", shards=2, seed=STORE_SEED,
            parallel="process", max_workers=2, replication=2,
            durability_dir=self.directory, durability_mode="secure",
            fsync=True)
        started = perf_counter()
        self.engine = make_sharded_engine(config=config)
        self.live = list(range(1, self.sizes["preload"] + 1))
        for chunk in _chunks(self.live, 2_048):
            self.engine.insert_many([(key, -key) for key in chunk])
        self.engine.barrier()
        self.setup = perf_counter() - started
        self.oracle = {key: -key for key in self.live}
        self.next_key = len(self.live) + 1
        self.deleted: List[int] = []
        self.processes = [os.getpid()] + self.engine.worker_pids()

    def cycles(self, report: Report, caller: Caller, budget: Budget,
               rng: random.Random) -> None:
        """Run whole barrier cycles.

        Inserts and deletes balance, so the live set stays at its preload
        size and a cycle costs the same however long the run lasts.
        """
        sizes, engine = self.sizes, self.engine
        while budget.more():
            for step in range(sizes["barrier_every"]):
                fresh = list(range(self.next_key,
                                   self.next_key + sizes["insert_batch"]))
                self.next_key += len(fresh)
                pairs = [(key, -key) for key in fresh]
                if caller("insert_many", engine.insert_many, pairs,
                          len(pairs), "insert") is not None:
                    self.oracle.update(pairs)
                    self.live.extend(fresh)
                if step % 2 == 1:
                    victims = _take(rng, self.live, sizes["delete_batch"])
                    values = caller("delete_many", engine.delete_many,
                                    victims, len(victims), "delete")
                    if values is not None:
                        report.expect(
                            values == [self.oracle.pop(key)
                                       for key in victims],
                            "delete_many values differ from the oracle")
                        self.deleted.extend(victims)
            caller("barrier", lambda _arg: engine.barrier(), None, 0)
            caller.alternate()
            budget.tick()

    def disk_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.directory, name))
                   for name in os.listdir(self.directory))

    def close_and_verify(self, report: Report, settings: Settings,
                         rng: random.Random) -> float:
        """Close, audit deleted keys, reopen and compare; return the
        reopen time."""
        from repro.history.forensics import audit_durability_dir
        from repro.replication import open_durable_engine

        try:
            self.engine.close()
            sample = rng.sample(self.deleted, min(256, len(self.deleted)))
            report.expect(len(sample) >= 200,
                          "fewer than 200 deleted keys to audit")
            audit = audit_durability_dir(self.directory, sample)
            report.expect(audit.clean, "erasure audit found %d trace(s) of "
                          "deleted keys" % len(audit.findings))
            started = perf_counter()
            reopened = open_durable_engine(self.directory, max_workers=2)
            recover = perf_counter() - started
            # hi-skiplist checkpoint images hold keys only, so a reopened
            # store returns None for the values of checkpointed keys; the
            # values were already checked live, by delete_many.
            try:
                _final_check(report, settings, self.oracle, reopened.items(),
                             keys_only=True)
            finally:
                reopened.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)
        return recover

    def discard(self) -> None:
        self.engine.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def run_durable(settings: Settings, report: Report) -> None:
    sizes = report.sizes
    rng = random.Random(settings.seed)
    build = functools.partial(_DurableStore, settings, report)
    store, setups = _setups(settings, build)
    try:
        caller = Caller(store.engine, report, settings.trace,
                        store.processes)
        counters = _counters(store.engine.telemetry())
        store.cycles(report, caller,
                     settings.budget(1.0, sizes.get("cycles")), rng)
        counters = _delta(_counters(store.engine.telemetry()), counters)
        route = _route_of(store.engine.structure)
        if not settings.trace:
            plain = caller.plain
            report.put("ops_per_s", plain.ops_per_s, "keys/s")
            _latency_metrics(report, plain.latencies, 0.99)
            report.put("erase_p50_ms", median(plain.barriers) * 1e3, "ms")
            report.put("erase_p90_ms", percentile(plain.barriers, 0.90) * 1e3,
                       "ms")
            _ios_per_op(report, counters["engine_io.total_ios"], plain.keys)
            report.put("disk_bytes_per_key",
                       store.disk_bytes() / len(store.oracle), "B")
            report.put("peak_rss_mb",
                       sum(proc_hwm_mb(pid) for pid in store.processes), "MB")
    finally:
        report.put("recover_s", store.close_and_verify(report, settings, rng),
                   "s")
    if not settings.trace:
        report.put("setup_s", median(setups + _late_setups(settings, build)),
                   "s")
        return
    # A round issues one insert call and, every second round, a delete.
    calls = caller.calls[:sizes["replay_rounds"] * 3 // 2]
    structure = replay("hi-skiplist", 2, 64, STORE_SEED, route,
                       range(1, sizes["preload"] + 1), calls)
    _library_layers(report, settings, caller, counters, structure, route, 2)


# --------------------------------------------------------------------------- #
# churn: the strongly-HI structure's update path, in process
# --------------------------------------------------------------------------- #

class _ChurnStore:
    """An in-process b-treap store holding a steady ``live`` keys."""

    def __init__(self, settings: Settings, report: Report) -> None:
        self.sizes = report.sizes
        config = EngineConfig(inner="b-treap", shards=2, seed=STORE_SEED)
        started = perf_counter()
        self.engine = make_sharded_engine(config=config)
        self.ordered = list(range(1, self.sizes["live"] + 1))
        self.engine.insert_many([(key, -key) for key in self.ordered])
        self.setup = perf_counter() - started
        self.oracle = {key: -key for key in self.ordered}
        self.next_key = len(self.ordered) + 1

    def discard(self) -> None:
        self.engine.close()

    def rounds(self, report: Report, caller: Caller, budget: Budget,
               rng: random.Random) -> List[float]:
        """Run churn rounds; return each round's latency."""
        sizes, engine, oracle = self.sizes, self.engine, self.oracle
        ordered, span = self.ordered, sizes["range"]
        latencies = []
        while budget.more():
            spent = caller.tallies[caller.traced].seconds
            victims = rng.sample(ordered, sizes["deletes"])
            values = caller("delete_many", engine.delete_many, victims,
                            len(victims), "delete")
            if values is not None:
                report.expect(values == [oracle.pop(key) for key in victims],
                              "delete_many values differ from the oracle")
                for key in victims:
                    del ordered[bisect.bisect_left(ordered, key)]
            fresh = list(range(self.next_key,
                               self.next_key + sizes["inserts"]))
            self.next_key += len(fresh)
            pairs = [(key, -key) for key in fresh]
            if caller("insert_many", engine.insert_many, pairs, len(pairs),
                      "insert") is not None:
                oracle.update(pairs)
                ordered.extend(fresh)
            probes = [rng.choice(ordered) if rng.random() < 0.5
                      else MISS_BASE + rng.randrange(self.next_key)
                      for _ in range(sizes["probes"])]
            found = caller("contains_many", engine.contains_many, probes,
                           len(probes), "contains")
            if found is not None:
                report.expect(found == [key in oracle for key in probes],
                              "contains_many answers differ from the oracle")
            start = rng.randrange(len(ordered) - span + 1)
            bounds = (ordered[start], ordered[start + span - 1])
            pairs = caller("range_query",
                           lambda arg: engine.range_query(*arg), bounds,
                           span, "range")
            if pairs is not None:
                report.expect(
                    pairs == [(key, oracle[key])
                              for key in ordered[start:start + span]],
                    "range_query result differs from the oracle")
            latencies.append(caller.tallies[caller.traced].seconds - spent)
            caller.alternate()
            budget.tick()
        return latencies


def run_churn(settings: Settings, report: Report) -> None:
    sizes = report.sizes
    rng = random.Random(settings.seed)
    build = functools.partial(_ChurnStore, settings, report)
    store, setups = _setups(settings, build)
    caller = Caller(store.engine, report, settings.trace, [os.getpid()])
    counters = _counters(store.engine.telemetry())
    latencies = store.rounds(report, caller,
                             settings.budget(1.0, sizes.get("rounds")), rng)
    counters = _delta(_counters(store.engine.telemetry()), counters)
    _final_check(report, settings, store.oracle, store.engine.items())
    if not settings.trace:
        report.put("ops_per_s", caller.plain.ops_per_s, "keys/s")
        _latency_metrics(report, latencies, 0.90)
        _ios_per_op(report, counters["engine_io.total_ios"],
                    caller.plain.keys)
        report.put("peak_rss_mb", proc_hwm_mb(os.getpid()), "MB")
        del store
        report.put("setup_s", median(setups + _late_setups(settings, build)),
                   "s")
        return
    route = _route_of(store.engine.structure)
    # A round is four calls: delete, insert, contains, range.
    structure = replay("b-treap", 2, 64, STORE_SEED, route,
                       range(1, sizes["live"] + 1),
                       caller.calls[:4 * sizes["replay_rounds"]])
    _library_layers(report, settings, caller, counters, structure, route, 0)


# --------------------------------------------------------------------------- #
# serve: single-key requests through `repro serve`
# --------------------------------------------------------------------------- #

class _Server:
    """`python -m repro serve` as a subprocess on a free loopback port."""

    def __init__(self, settings: Settings, telemetry: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [settings.src] + [part for part in
                              env.get("PYTHONPATH", "").split(os.pathsep)
                              if part])
        command = [sys.executable, "-m", "repro", "serve",
                   "--structure", "b-treap", "--shards", "2",
                   "--parallel", "process", "--max-workers", "2",
                   "--seed", str(STORE_SEED), "--port", "0"]
        if telemetry:
            command.append("--telemetry")
            env["REPRO_TRACE"] = "1"
        else:
            env.pop("REPRO_TRACE", None)
        self.workers: List[int] = []
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        env=env, text=True)
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError("repro serve did not start: %r" % (line,))
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.workers = child_pids(self.process.pid)

    @property
    def pids(self) -> List[int]:
        return [self.process.pid] + self.workers

    def stop(self) -> None:
        """Drain the server; wait until it and its workers have exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        wait_ended(self.workers, timeout=10.0)


class _Ops:
    """One request stream of the serve mix.

    Point ``contains`` probes hit preloaded keys or miss far above every
    inserted key; inserts use fresh keys from the stream's own key block.
    So a stream's operations and answers follow from the seed alone,
    however concurrent streams interleave.
    """

    def __init__(self, seed: int, stream: int, sizes: Dict) -> None:
        self.rng = random.Random(seed * 1009 + stream)
        self.sizes = sizes
        self.next_key = sizes["preload"] + 1 + stream * 10_000_000
        self.calls: List[Tuple[str, List[int]]] = []

    def next(self) -> Tuple[str, int]:
        rng, sizes = self.rng, self.sizes
        if rng.random() >= sizes["contains_frac"]:
            key, op = self.next_key, "insert"
            self.next_key += 1
        elif rng.random() < sizes["hit_frac"]:
            key, op = rng.randrange(1, sizes["preload"] + 1), "contains"
        else:
            key, op = MISS_BASE + rng.randrange(10**9), "contains"
        self.calls.append((op, [key]))
        return op, key


class _Session:
    """A preloaded server, an async client to it, and the oracle."""

    def __init__(self, report: Report, settings: Settings,
                 telemetry: bool = False) -> None:
        self.report = report
        self.settings = settings
        self.started = perf_counter()
        self.server = _Server(settings, telemetry)
        self.oracle: Dict[int, int] = {}
        self.client = None

    async def connect(self, pool_size: int) -> None:
        from repro.net import AsyncReproClient

        self.client = AsyncReproClient("127.0.0.1", self.server.port,
                                       pool_size=pool_size)
        await self.client.connect()

    async def open(self, pool_size: int = 2) -> "_Session":
        try:
            await self.connect(pool_size)
            keys = list(range(1, self.report.sizes["preload"] + 1))
            for chunk in _chunks(keys, 2_000):
                pairs = [(key, -key) for key in chunk]
                await self.client.insert_many(pairs)
                self.oracle.update(pairs)
        except BaseException:
            self.server.stop()
            raise
        self.setup = perf_counter() - self.started
        return self

    async def request(self, op: str, key: int) -> bool:
        """One checked request; ``False`` when the server shed it BUSY."""
        report, client = self.report, self.client
        report.attempted += 1
        try:
            if op == "insert":
                inserted = await client.insert_many([(key, -key)])
                report.expect(inserted == 1, "insert_many did not insert")
                self.oracle[key] = -key
            else:
                found = await client.contains(key)
                report.expect(found == (key in self.oracle),
                              "contains answer differs from the oracle")
        except ServerBusyError:
            report.failed += 1
            return False
        return True

    async def close(self) -> None:
        """Check the final contents, disconnect and stop the server."""
        try:
            _final_check(self.report, self.settings, self.oracle,
                         await self.client.items())
            await self.client.close()
        finally:
            self.server.stop()


async def _closed_loop(session: _Session, streams: List[_Ops],
                       budget_of: Callable[[], Budget]) -> Tuple[int, float]:
    """Each stream is a caller that waits for its reply; return
    (requests completed, wall seconds)."""

    async def caller(ops: _Ops) -> int:
        budget, done = budget_of(), 0
        while budget.more():
            done += await session.request(*ops.next())
            budget.tick()
        return done

    started = perf_counter()
    done = await asyncio.gather(*(caller(ops) for ops in streams))
    return sum(done), perf_counter() - started


async def _open_loop(session: _Session, ops: _Ops, rate: float,
                     budget: Budget, rng: random.Random) -> Dict[str, object]:
    """Poisson arrivals at ``rate``, at most two requests in flight (two
    connections).  Latency runs from when a request was due, so time
    spent waiting for a connection counts."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(2)
    latencies: List[float] = []
    waits: List[float] = []
    late: List[float] = []

    async def one(op: str, key: int, due: float) -> None:
        queued = loop.time()
        async with slots:
            waits.append(loop.time() - queued)
            ok = await session.request(op, key)
        if ok:
            latencies.append(loop.time() - due)

    tasks = []
    due = start = loop.time()
    while budget.more():
        due += rng.expovariate(rate)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.ensure_future(one(*ops.next(), due)))
        budget.tick()
    await asyncio.gather(*tasks)
    return {"latencies": latencies, "waits": waits, "late": late,
            "achieved": len(latencies) / (loop.time() - start)}


def _client_metrics(report: Report, result: Dict[str, object]) -> None:
    report.put("client.conn_wait_ms.p50", median(result["waits"]) * 1e3, "ms")
    report.put("client.conn_wait_ms.p99",
               percentile(result["waits"], 0.99) * 1e3, "ms")
    report.put("client.gen_late_ms.max", max(result["late"]) * 1e3, "ms")


async def _serve_e2e(settings: Settings, report: Report) -> None:
    sizes = report.sizes
    requests = sizes.get("requests")
    setups = []
    for index in range(settings.setups):
        session = await _Session(report, settings).open()
        setups.append(session.setup)
        if index < settings.setups - 1:
            await session.close()
    try:
        counters = _counters(await session.client.stats())
        done, wall = await _closed_loop(
            session, [_Ops(settings.seed, stream, sizes) for stream in (0, 1)],
            lambda: settings.budget(0.4, requests))
        report.put("ops_per_s", done / wall, "keys/s")
        result = await _open_loop(session, _Ops(settings.seed, 2, sizes),
                                  sizes["rate"],
                                  settings.budget(0.6, requests),
                                  random.Random(settings.seed))
        counters = _delta(_counters(await session.client.stats()), counters)
        _ios_per_op(report, counters["engine_io.total_ios"],
                    done + len(result["latencies"]))
        _latency_metrics(report, result["latencies"], 0.99)
        _client_metrics(report, result)
        report.put("peak_rss_mb",
                   sum(proc_hwm_mb(pid) for pid in session.server.pids), "MB")
    finally:
        await session.close()
    for _ in range(settings.late_setups):
        session = await _Session(report, settings).open()
        setups.append(session.setup)
        await session.close()
    report.put("setup_s", median(setups), "s")


async def _ladder(settings: Settings, report: Report,
                  session: _Session) -> None:
    """Open-loop rungs of rising rate, diagnostic only: the highest rung
    that holds p99 <= 10 ms flips between runs."""
    sizes = report.sizes
    best = 0
    for index, rate in enumerate(sizes["ladder"]):
        rung = await _open_loop(
            session, _Ops(settings.seed, 10 + index, sizes), rate,
            settings.budget(0.5 / len(sizes["ladder"]), sizes.get("requests")),
            random.Random(settings.seed + rate))
        p99 = percentile(rung["latencies"], 0.99) * 1e3
        report.notes.append("ladder %5d rps: achieved %7.1f rps, p99 %8.3f ms"
                            % (rate, rung["achieved"], p99))
        if p99 <= 10.0 and rung["achieved"] >= 0.9 * rate:
            best = rate
        if index == 0:
            _client_metrics(report, rung)
    report.put("serve.max_rps_p99_10ms", best, "1/s")


async def _alternate(plain: _Session, traced: _Session, ops: _Ops,
                     budget: Budget):
    """One caller alternating requests between the untraced and the traced
    server, so both halves see the same host conditions.

    Traced requests run under a ``bench.<op>`` span on the client's
    tracer.  The server keeps only its last 64 traces, so the caller
    polls the ``traces`` verb every 32 traced requests (outside the timed
    region) and joins each server tree under the client span that caused
    it.  Returns the two tallies and the joined trees.
    """
    tallies = {False: Tally(), True: Tally()}
    tracer = traced.client.tracer
    tracer.enabled = True
    roots: List[dict] = []
    server_roots: Dict[str, dict] = {}
    while budget.more():
        for is_traced, session in ((False, plain), (True, traced)):
            op, key = ops.next()
            cpu, started = process_time(), perf_counter()
            if is_traced:
                with tracer.span("bench." + op, tags={"keys": 1}):
                    await session.request(op, key)
            else:
                await session.request(op, key)
            tallies[is_traced].add(op, 1, perf_counter() - started,
                                   process_time() - cpu, op)
        roots.extend(root for root in tracer.traces()
                     if root["name"].startswith("bench."))
        tracer.ring.clear()
        budget.tick()
        if budget.done % 32 == 0 or not budget.more():
            for entry in (await traced.client.traces())["traces"]:
                if entry["name"] in ("server.contains",
                                     "server.insert_many"):
                    server_roots[entry["span"]] = entry
            tracer.ring.clear()
    tracer.enabled = False
    by_client_span = {child["span"]: child for root in roots
                      for child in root["children"]}
    for entry in server_roots.values():
        parent = by_client_span.get(entry.get("parent"))
        if parent is not None:
            parent["children"].append(entry)
    return tallies[False], tallies[True], roots


async def _serve_layers(settings: Settings, report: Report) -> None:
    sizes = report.sizes
    plain = await _Session(report, settings).open()
    traced = None
    try:
        await _ladder(settings, report, plain)
        # At most two connections: plain's pool is emptied while the
        # traced server is preloaded, then each keeps one.
        await plain.client.close()
        traced = await _Session(report, settings, telemetry=True).open(
            pool_size=1)
        await plain.connect(pool_size=1)
        server = plain.server.process.pid
        counters = _counters(await plain.client.stats())
        before = ProcSample(plain.server.pids)
        ops = _Ops(settings.seed, 3, sizes)
        untraced, traced_tally, roots = await _alternate(
            plain, traced, ops, settings.budget(0.5, sizes.get("requests")))
        after = ProcSample(plain.server.pids)
        counters = _delta(_counters(await plain.client.stats()), counters)
        route = _route_of(plain.client.routing)
    finally:
        try:
            await plain.close()
        finally:
            if traced is not None:
                await traced.close()
    report.put("client.cpu_ms_per_op",
               untraced.own_cpu * 1e3 / untraced.keys, "ms")
    server_cpu = after.cpu[server] - before.cpu[server]
    # The untraced server served only untraced requests, so its CPU over
    # the pass belongs to them; busy fractions are over their call time.
    _process_metrics(report, "server", server_cpu, untraced.keys,
                     untraced.seconds, 1)
    _process_metrics(report, "worker", after.cpu_since(before) - server_cpu,
                     untraced.keys, untraced.seconds, 2)
    report.put("storage.write_bytes_per_op",
               after.written_since(before) / untraced.keys, "B")
    _counter_metrics(report, counters, untraced.keys)
    calls = ops.calls[:sizes["replay_ops"]]
    structure = replay("b-treap", 2, 64, STORE_SEED, route,
                       range(1, sizes["preload"] + 1), calls)
    _trace_metrics(report, roots, traced_tally, "net.client", structure)
    joined = [(client_span["ms"], server_span["ms"]) for root in roots
              for client_span in root["children"]
              for server_span in client_span["children"]]
    if joined:
        report.put("server.span_ms.p50",
                   median([inside for _outside, inside in joined]), "ms")
        report.put("server.outside_ms.p50",
                   median([outside - inside for outside, inside in joined]),
                   "ms")
    report.put("trace.joined_frac", len(joined) / len(roots), "ratio")
    _structure_and_codec(report, settings, structure,
                         _wire_shapes(calls, route, point_contains=True))
    _overhead(report, untraced, traced_tally)


def run_serve(settings: Settings, report: Report) -> None:
    if settings.trace:
        asyncio.run(_serve_layers(settings, report))
    else:
        asyncio.run(_serve_e2e(settings, report))


WORKLOADS = {"bulk": run_bulk, "serve": run_serve, "durable": run_durable,
             "churn": run_churn}

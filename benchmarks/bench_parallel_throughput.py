"""Experiment X-P1 — wall-clock throughput: sequential vs process.

Every earlier perf number in this repository is a deterministic I/O *count*;
this bench starts the wall-clock trajectory.  It replays an identical bulk
workload — ``insert_many`` of N entries, then ``contains_many`` of N/2
probes — through the sequential and worker-process sharded engines across
a sweep of shard counts, records ops/sec for each, and verifies the results
are byte-identical across backends (fingerprints included) so no backend
can buy speed with divergence.

The numbers land in ``benchmarks/BENCH_wallclock.json`` (machine-dependent;
CI uploads it as an artifact).  One bound *is* gated in the CI wall-clock
job: with at least 4 usable cores, 4+ shards and a full-size (non-smoke)
run, the ``process`` engine must reach
``REPRO_BENCH_GATE_SPEEDUP`` (default 2.0) times the sequential engine's
combined insert+contains throughput — that is the entire point of escaping
the GIL.  Runners that cannot host the bound (smoke mode, fewer than 4
cores) say so with an explicit log line instead of passing silently.  Run
standalone with::

    python benchmarks/bench_parallel_throughput.py
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.analysis.reporting import format_table, write_results
from repro.api import EngineConfig, make_sharded_engine
from repro.api.process_engine import _default_start_method

from _harness import counters, scaled, smoke_mode

INNER = "hi-skiplist"
BLOCK_SIZE = 32
SEED = 3

#: The sweep of dispatch backends.
MODES = ("none", "process")

#: The gated bound for process at >=4 shards on >=4 cores (full mode).
GATE_SPEEDUP = float(os.environ.get("REPRO_BENCH_GATE_SPEEDUP", "2.0"))

#: The replicated read-heavy sweep: replication=3, read_policy primary vs
#: round-robin.  The gated bound (full mode, >=4 cores): round-robin must
#: beat primary-only read throughput by this factor — otherwise replica
#: reads are not actually spreading the load.
REPLICA_FACTOR = 3
REPLICA_SHARDS = 4
REPLICA_GATE = float(os.environ.get("REPRO_BENCH_GATE_REPLICA_READS",
                                    "1.1"))

#: Where the wall-clock trajectory lives (committed snapshot + CI artifact).
WALLCLOCK_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_wallclock.json")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def drive(mode: str, shards: int, entries, probes):
    """One backend run: returns (row, contains result, fingerprint)."""
    engine = make_sharded_engine(EngineConfig(
        inner=INNER, shards=shards, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel=mode))
    try:
        started = time.perf_counter()
        engine.insert_many(entries)
        insert_seconds = time.perf_counter() - started
        started = time.perf_counter()
        contains = engine.contains_many(probes)
        contains_seconds = time.perf_counter() - started
        fingerprint = engine.structure.audit_fingerprint()
        operations = len(entries) + len(probes)
        total = insert_seconds + contains_seconds
        row = {
            "mode": mode,
            "shards": shards,
            "insert_seconds": round(insert_seconds, 4),
            "contains_seconds": round(contains_seconds, 4),
            "ops_per_second": int(round(operations / total)) if total else 0,
        }
        stats = counters(engine, "plane")
        if stats:
            # Deterministic crossing counters of the process engine,
            # recorded for trajectory context (the gated copies live in
            # BENCH_smoke.json).
            row["plane_stats"] = stats
            row["fsync_batches"] = stats["fsync_batches"]
        return row, contains, fingerprint
    finally:
        close = getattr(engine, "close", None)
        if callable(close):
            close()


def drive_replica_reads(read_policy: str, entries, probes, rounds: int):
    """One read-heavy replicated run; returns (row, contains result)."""
    engine = make_sharded_engine(EngineConfig(
        inner=INNER, shards=REPLICA_SHARDS, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=REPLICA_FACTOR,
        read_policy=read_policy))
    try:
        engine.insert_many(entries)
        contains = None
        started = time.perf_counter()
        for _round in range(rounds):
            contains = engine.contains_many(probes)
        seconds = time.perf_counter() - started
        reads = rounds * len(probes)
        row = {
            "read_policy": read_policy,
            "shards": REPLICA_SHARDS,
            "replication": REPLICA_FACTOR,
            "read_rounds": rounds,
            "read_seconds": round(seconds, 4),
            "reads_per_second": int(round(reads / seconds)) if seconds else 0,
            "replica_read_stats": counters(engine, "replica_reads"),
        }
        return row, contains
    finally:
        engine.close()


def collect_replica_reads(entries, probes):
    """Replication=3 read-heavy rows: primary vs round-robin, identical
    answers verified before any throughput number is recorded."""
    rounds = 1 if smoke_mode() else 5
    rows = []
    reference = None
    for read_policy in ("primary", "round-robin"):
        row, contains = drive_replica_reads(read_policy, entries, probes,
                                            rounds)
        if reference is None:
            reference = contains
        else:
            assert contains == reference, (
                "read_policy=%r diverged from primary-only answers"
                % (read_policy,))
        rows.append(row)
    baseline = rows[0]["reads_per_second"]
    for row in rows:
        row["speedup_vs_primary"] = round(
            row["reads_per_second"] / baseline, 3) if baseline else 0.0
    return rows


def collect():
    """The full sweep; returns (payload, rows) with identity pre-verified."""
    total = scaled(20_000)
    entries = [(key * 7 % (total * 13), key) for key in range(total)]
    probes = [key for key, _value in entries[::2]]
    rows = []
    # Shard counts are a topology sweep, not a workload size: they are not
    # scaled, only trimmed in smoke mode to keep CI runs to seconds.
    for shards in ((2, 4) if smoke_mode() else (2, 4, 8)):
        reference = None
        per_mode = {}
        for mode in MODES:
            row, contains, fingerprint = drive(mode, shards, entries, probes)
            if reference is None:
                reference = (contains, fingerprint)
            else:
                assert (contains, fingerprint) == reference, (
                    "backend %r diverged from the sequential engine at "
                    "%d shards" % (mode, shards))
            per_mode[mode] = row
            rows.append(row)
        baseline = per_mode["none"]["ops_per_second"]
        for row in per_mode.values():
            row["speedup_vs_sequential"] = round(
                row["ops_per_second"] / baseline, 3) if baseline else 0.0
    payload = {
        "meta": {
            "inner": INNER,
            "block_size": BLOCK_SIZE,
            "operations": total,
            "cores": usable_cores(),
            "start_method": _default_start_method(),
            "smoke": smoke_mode(),
            "python": platform.python_version(),
        },
        "rows": rows,
        "replica_reads": collect_replica_reads(entries, probes),
    }
    return payload, rows


def report(payload, rows) -> None:
    print()
    print("Parallel throughput — %d entries (inner=%s, %d cores, "
          "start_method=%s, smoke=%s)"
          % (payload["meta"]["operations"], INNER,
             payload["meta"]["cores"], payload["meta"]["start_method"],
             payload["meta"]["smoke"]))
    print(format_table(
        [[row["shards"], row["mode"], row["insert_seconds"],
          row["contains_seconds"], row["ops_per_second"],
          "%.2fx" % row["speedup_vs_sequential"]] for row in rows],
        headers=["shards", "mode", "insert s", "contains s", "ops/s",
                 "speedup"]))
    replica_rows = payload.get("replica_reads") or []
    if replica_rows:
        print()
        print("Read-heavy, replication=%d (reads fanned over the ring)"
              % REPLICA_FACTOR)
        print(format_table(
            [[row["read_policy"], row["shards"], row["read_seconds"],
              row["reads_per_second"],
              row["replica_read_stats"]["replica_reads"],
              "%.2fx" % row["speedup_vs_primary"]] for row in replica_rows],
            headers=["read policy", "shards", "read s", "reads/s",
                     "replica-served", "vs primary"]))


def write_wallclock(payload) -> None:
    """Overwrite the committed trajectory snapshot (throughput section).

    Only the standalone entry point (what the CI wall-clock job runs) calls
    this — a ``pytest benchmarks/`` smoke run must not clobber the committed
    full-mode numbers with machine-dependent smoke data; under pytest the
    results land in the gitignored ``benchmarks/results/`` instead.  The
    file is shared with the other wall-clock benches; every section this
    bench does not own (``recovery``) is preserved across rewrites.
    """
    payload = dict(payload)
    owned = set(payload)  # meta/rows/replica_reads belong to this bench
    if os.path.exists(WALLCLOCK_PATH):
        try:
            with open(WALLCLOCK_PATH, encoding="utf-8") as handle:
                existing = json.load(handle)
        except ValueError:  # pragma: no cover - a torn artifact
            existing = {}
        for section, value in existing.items():
            if section not in owned:
                payload[section] = value
    with open(WALLCLOCK_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % WALLCLOCK_PATH)


def assert_process_beats_sequential(payload, rows) -> None:
    """The gated bound: process >= GATE_SPEEDUP x sequential.

    Applies to full-mode runs on >=4 cores at >=4 shards.  Runs that
    cannot host the bound print an explicit skip line — CI greps the log,
    a silent pass would hide an under-provisioned runner.
    """
    eligible = [row for row in rows
                if row["mode"] == "process" and row["shards"] >= 4]
    if smoke_mode() or payload["meta"]["cores"] < 4 or not eligible:
        print("SPEEDUP-GATE-SKIPPED: bound needs a full-mode run on >=4 "
              "cores (smoke=%s, cores=%d, eligible rows=%d) — recorded only"
              % (payload["meta"]["smoke"], payload["meta"]["cores"],
                 len(eligible)))
        return
    best = max(row["speedup_vs_sequential"] for row in eligible)
    assert best >= GATE_SPEEDUP, (
        "process reached only %.2fx of the sequential engine at >=4 "
        "shards on %d cores (gate: %.2fx); the process backend is not "
        "paying for its crossings" % (best, payload["meta"]["cores"],
                                      GATE_SPEEDUP))
    print("SPEEDUP-GATE-OK: process best %.2fx >= %.2fx on %d cores"
          % (best, GATE_SPEEDUP, payload["meta"]["cores"]))


def assert_replica_reads_beat_primary(payload) -> None:
    """The replication gate: round-robin >= REPLICA_GATE x primary reads.

    Same eligibility rules as the speedup gate — full mode on >=4 cores —
    and the same explicit skip line so CI can tell an under-provisioned
    runner from a silent pass.
    """
    replica_rows = payload.get("replica_reads") or []
    round_robin = [row for row in replica_rows
                   if row["read_policy"] == "round-robin"]
    if smoke_mode() or payload["meta"]["cores"] < 4 or not round_robin:
        print("REPLICA-READ-GATE-SKIPPED: bound needs a full-mode run on "
              ">=4 cores (smoke=%s, cores=%d, round-robin rows=%d) — "
              "recorded only"
              % (payload["meta"]["smoke"], payload["meta"]["cores"],
                 len(round_robin)))
        return
    best = max(row["speedup_vs_primary"] for row in round_robin)
    assert best >= REPLICA_GATE, (
        "round-robin reads reached only %.2fx of primary-only throughput "
        "on %d cores (gate: %.2fx); fanning reads over the ring is not "
        "spreading the load" % (best, payload["meta"]["cores"],
                                REPLICA_GATE))
    print("REPLICA-READ-GATE-OK: round-robin reads %.2fx >= %.2fx on %d "
          "cores" % (best, REPLICA_GATE, payload["meta"]["cores"]))


def test_parallel_throughput_trajectory(run_once, results_dir):
    payload, rows = run_once(collect)
    report(payload, rows)
    write_results("parallel_throughput", payload, directory=results_dir)
    assert_process_beats_sequential(payload, rows)
    assert_replica_reads_beat_primary(payload)


if __name__ == "__main__":
    collected_payload, collected_rows = collect()
    report(collected_payload, collected_rows)
    write_wallclock(collected_payload)
    assert_process_beats_sequential(collected_payload, collected_rows)
    assert_replica_reads_beat_primary(collected_payload)

"""Experiment X-R1 — recovery wall-clock: snapshot vs log replay vs promotion.

PR 5's durability subsystem gives a crashed shard three ways back:

* ``snapshot`` — the checkpoint image covers everything; the op-log tail is
  empty (crash right after a checkpoint).
* ``snapshot+log`` — half the load is checkpointed, half lives only in the
  op log and is replayed on top (the steady-state crash).
* ``promotion`` — a live replica is promoted and re-replicated; no disk
  replay at all.
* ``secure-snapshot+log`` — the steady-state crash under
  ``durability_mode="secure"``: half checkpointed, half replayed, with a
  history-redacting barrier (deletes erased from every on-disk byte)
  before the kill.

This bench kills one worker (``SIGKILL``, like the fault suite) under each
configuration and times ``recover()`` alone, verifying afterwards that the
recovered items match a never-crashed sequential twin — recovery may not
buy speed with divergence.  A final *erasure* scenario scales the
secure-mode delete + redacting-barrier cycle toward 10^6 keys
(``REPRO_ERASURE_BENCH_KEYS`` overrides; smoke mode caps it like every
other bench) and byte-audits a sample of the deleted keys — the residue
count is asserted to be exactly zero at every scale.  An *availability*
scenario measures read throughput on a ``read_policy="round-robin"``
replicated engine through three phases — healthy, one worker dead
(degraded), and after ``recover()`` — asserting the answers stay
byte-identical in every phase.  A *checkpoint* scenario times the
durable store's two image paths on a secure, fsynced, 2-shard
``replication=2`` store at 8,192 and 65,536 keys (``hi-skiplist`` and
``b-treap``): the median of five barriers, each after 128 deletes (a
checkpoint written by the workers), and the median of three
``open_durable_engine`` calls (each worker restoring its own shard).
Wall-clock numbers are machine-dependent, so they are recorded
(``benchmarks/BENCH_wallclock.json`` under the ``recovery`` key, a
non-gating CI artifact) rather than gated; the structural assertions
(identical items, zero residue) hold regardless.  Run standalone with::

    python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import time

from repro.analysis.reporting import format_table, write_results
from repro.api import EngineConfig, make_sharded_engine

from _harness import counters, scaled, scaled_sweep, smoke_mode

INNER = "b-treap"
BLOCK_SIZE = 32
SHARDS = 3
SEED = 20160626

WALLCLOCK_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_wallclock.json")


def _kill_and_wait(engine, position) -> None:
    os.kill(engine.worker_pids()[position], signal.SIGKILL)
    deadline = time.time() + 10.0
    while time.time() < deadline:
        if engine.dead_shard_positions():
            return
        time.sleep(0.02)
    raise AssertionError("killed worker never reported dead")


def _twin_items(entries, tail):
    twin = make_sharded_engine(EngineConfig(inner=INNER, shards=SHARDS,
                                            block_size=BLOCK_SIZE, seed=SEED,
                                            router="consistent"))
    twin.insert_many(entries)
    twin.insert_many(tail)
    return twin.items()


def drive(mode: str, total: int, tmp_dir: str):
    """One crash/recover cycle; returns the timing row."""
    half = total // 2
    entries = [(key * 7 % (total * 13), key) for key in range(half)]
    tail = [(key * 7 % (total * 13), key) for key in range(half, total)]
    replication = 2 if mode == "promotion" else 1
    durability = None if mode == "promotion" \
        else os.path.join(tmp_dir, mode.replace("+", "-"))
    engine = make_sharded_engine(EngineConfig(
        inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=replication,
        durability_dir=durability))
    try:
        engine.insert_many(entries)
        if mode == "snapshot":
            engine.insert_many(tail)
            engine.checkpoint()  # the image covers everything
        elif mode == "snapshot+log":
            engine.checkpoint()  # half imaged ...
            engine.insert_many(tail)  # ... half replayed from the log
        else:
            engine.insert_many(tail)
        _kill_and_wait(engine, 0)
        started = time.perf_counter()
        report = engine.recover()
        seconds = time.perf_counter() - started
        assert report.positions, "nothing recovered?"
        recovered = engine.items()
        assert recovered == _twin_items(entries, tail), (
            "recovery path %r diverged from the never-crashed twin" % mode)
        keys = len(recovered)
        return {
            "mode": mode,
            "path": ("promotion" if report.promoted else "replay"),
            "keys": keys,
            "recover_seconds": round(seconds, 4),
            "keys_per_second": int(keys / seconds) if seconds else 0,
        }
    finally:
        engine.close()


def drive_secure(total: int, tmp_dir: str):
    """The steady-state crash in secure mode: a redacting barrier, then a
    kill, then recovery — which must be digest-faithful to the survivors
    AND leave no byte of the deleted keys behind."""
    from repro.history.forensics import audit_durability_dir

    half = total // 2
    # Key and value spaces are disjoint so the byte audit is exact.
    entries = [(key, 10 ** 9 + key) for key in range(half)]
    tail = [(key, 10 ** 9 + key) for key in range(half, total)]
    doomed = [key for key, _value in entries[::3]]
    directory = os.path.join(tmp_dir, "secure-snapshot-log")
    engine = make_sharded_engine(EngineConfig(
        inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=1,
        durability_dir=directory, durability_mode="secure"))
    try:
        engine.insert_many(entries)
        engine.checkpoint()        # half imaged ...
        engine.insert_many(tail)   # ... half replayed from the log
        engine.delete_many(doomed)
        engine.barrier()           # the history-redacting barrier
        _kill_and_wait(engine, 0)
        started = time.perf_counter()
        report = engine.recover()
        seconds = time.perf_counter() - started
        assert report.positions, "nothing recovered?"
        recovered = engine.items()
        doomed_set = set(doomed)
        twin = make_sharded_engine(EngineConfig(
            inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=SEED,
            router="consistent"))
        twin.insert_many([(key, value) for key, value in entries + tail
                          if key not in doomed_set])
        assert recovered == twin.items(), (
            "secure recovery diverged from the never-crashed twin")
        keys = len(recovered)
    finally:
        engine.close()
    sample = doomed[:200]
    audit = audit_durability_dir(directory, sample, payload_size=64)
    assert audit.clean, (
        "secure recovery left %d trace(s) of deleted keys on disk"
        % len(audit.findings))
    return {
        "mode": "secure-snapshot+log",
        "path": ("promotion" if report.promoted else "replay"),
        "keys": keys,
        "recover_seconds": round(seconds, 4),
        "keys_per_second": int(keys / seconds) if seconds else 0,
    }


def drive_erasure(tmp_dir: str):
    """Erasure at scale: delete a third of the store, time the redacting
    barrier, and byte-audit a sample of the deleted keys (residue must be
    exactly zero).  Defaults toward 10^6 keys in full mode."""
    from repro.history.forensics import audit_durability_dir

    total = scaled(int(os.environ.get("REPRO_ERASURE_BENCH_KEYS",
                                      "1000000")))
    directory = os.path.join(tmp_dir, "erasure")
    engine = make_sharded_engine(EngineConfig(
        inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=1,
        durability_dir=directory, durability_mode="secure"))
    try:
        engine.insert_many((key, 10 ** 9 + key) for key in range(total))
        doomed = list(range(0, total, 3))
        engine.delete_many(doomed)
        started = time.perf_counter()
        barrier = engine.barrier()
        seconds = time.perf_counter() - started
        assert barrier == {"deletes": len(doomed), "redacted": True}
        stats = counters(engine, "erasure")
    finally:
        engine.close()
    sample = doomed[:100] + doomed[-100:]
    audit = audit_durability_dir(directory, sample, payload_size=64)
    assert audit.clean, (
        "erasure left %d trace(s) of deleted keys on disk"
        % len(audit.findings))
    return {
        "keys": total,
        "deleted": len(doomed),
        "frames_redacted": stats["frames_dropped"],
        "barrier_seconds": round(seconds, 4),
        "erased_keys_per_second": int(len(doomed) / seconds)
        if seconds else 0,
        "audited_sample": len(sample),
        "residue_findings": len(audit.findings),
    }


def drive_availability(total: int):
    """Availability under failure: a round-robin replicated engine keeps
    answering reads while a worker is dead, and the answers stay
    byte-identical to the healthy run through every phase (healthy ->
    degraded -> recovered)."""
    entries = [(key * 7 % (total * 13), key) for key in range(total)]
    probes = [key for key, _value in entries[::2]]
    engine = make_sharded_engine(EngineConfig(
        inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=2,
        read_policy="round-robin"))

    def timed_reads():
        started = time.perf_counter()
        flags = engine.contains_many(probes)
        return flags, time.perf_counter() - started

    try:
        engine.insert_many(entries)
        reference, healthy_seconds = timed_reads()
        _kill_and_wait(engine, 0)
        degraded, degraded_seconds = timed_reads()
        assert degraded == reference, (
            "degraded reads diverged from the healthy answers")
        started = time.perf_counter()
        engine.recover()
        recover_seconds = time.perf_counter() - started
        recovered, recovered_seconds = timed_reads()
        assert recovered == reference, (
            "post-recovery reads diverged from the healthy answers")
        stats = counters(engine, "replica_reads")
    finally:
        engine.close()

    def rate(seconds):
        return int(len(probes) / seconds) if seconds else 0

    return {
        "read_policy": "round-robin",
        "replication": 2,
        "probes": len(probes),
        "healthy_reads_per_second": rate(healthy_seconds),
        "degraded_reads_per_second": rate(degraded_seconds),
        "recovered_reads_per_second": rate(recovered_seconds),
        "recover_seconds": round(recover_seconds, 4),
        "replica_read_stats": stats,
    }


#: The checkpoint scenario: barriers timed per store, deletes per barrier,
#: and cold opens timed per store.
CHECKPOINT_BARRIERS = 5
CHECKPOINT_DELETES = 128
CHECKPOINT_OPENS = 3


def drive_checkpoints(inner: str, total: int, tmp_dir: str):
    """Barrier and cold-open wall-clock of a secure, fsynced, replicated
    store holding ``total`` keys; every reopen must hold the survivors."""
    from repro.replication import open_durable_engine

    directory = os.path.join(tmp_dir, "checkpoint-%s-%d" % (inner, total))
    engine = make_sharded_engine(EngineConfig(
        inner=inner, shards=2, seed=SEED, parallel="process",
        replication=2, max_workers=2, durability_dir=directory,
        durability_mode="secure", fsync=True))
    doomed = random.Random(SEED).sample(
        range(total), CHECKPOINT_BARRIERS * CHECKPOINT_DELETES)
    barriers = []
    try:
        engine.insert_many((key, key) for key in range(total))
        for start in range(0, len(doomed), CHECKPOINT_DELETES):
            engine.delete_many(doomed[start:start + CHECKPOINT_DELETES])
            started = time.perf_counter()
            assert engine.barrier()["redacted"]
            barriers.append(time.perf_counter() - started)
    finally:
        engine.close()
    opens = []
    for _round in range(CHECKPOINT_OPENS):
        started = time.perf_counter()
        reopened = open_durable_engine(directory, max_workers=2)
        opens.append(time.perf_counter() - started)
        try:
            assert len(reopened) == total - len(doomed), (
                "a reopened %s store lost keys" % inner)
        finally:
            reopened.close()
    return {
        "inner": inner,
        "keys": total,
        "barriers": len(barriers),
        "barrier_ms_median": round(statistics.median(barriers) * 1e3, 2),
        "opens": len(opens),
        "open_s_median": round(statistics.median(opens), 4),
    }


def collect(tmp_dir: str):
    total = scaled(8_000)
    rows = [drive(mode, total, tmp_dir)
            for mode in ("snapshot", "snapshot+log", "promotion")]
    rows.append(drive_secure(total, tmp_dir))
    erasure = drive_erasure(tmp_dir)
    availability = drive_availability(total)
    checkpoints = [drive_checkpoints(inner, keys, tmp_dir)
                   for inner in ("hi-skiplist", "b-treap")
                   for keys in scaled_sweep(8_192, 65_536)]
    payload = {
        "meta": {
            "inner": INNER,
            "shards": SHARDS,
            "block_size": BLOCK_SIZE,
            "keys": total,
            "smoke": smoke_mode(),
        },
        "rows": rows,
        "erasure": erasure,
        "availability": availability,
        "checkpoints": checkpoints,
    }
    return payload, rows


def report(payload, rows) -> None:
    print()
    print("Recovery wall-clock — %d keys (inner=%s, %d shards, smoke=%s)"
          % (payload["meta"]["keys"], INNER, SHARDS,
             payload["meta"]["smoke"]))
    print(format_table(
        [[row["mode"], row["path"], row["keys"], row["recover_seconds"],
          row["keys_per_second"]] for row in rows],
        headers=["mode", "path", "keys", "recover s", "keys/s"]))
    erasure = payload.get("erasure")
    if erasure:
        print()
        print("Verified erasure — %d keys, %d deleted (secure barrier)"
              % (erasure["keys"], erasure["deleted"]))
        print(format_table(
            [[erasure["deleted"], erasure["frames_redacted"],
              erasure["barrier_seconds"], erasure["erased_keys_per_second"],
              "%d/%d" % (erasure["residue_findings"],
                         erasure["audited_sample"])]],
            headers=["deleted", "frames dropped", "barrier s",
                     "erased keys/s", "residue/sampled"]))
    availability = payload.get("availability")
    if availability:
        print()
        print("Availability under failure — replication=%d, "
              "read_policy=%s (%d probes per phase)"
              % (availability["replication"], availability["read_policy"],
                 availability["probes"]))
        print(format_table(
            [[availability["healthy_reads_per_second"],
              availability["degraded_reads_per_second"],
              availability["recovered_reads_per_second"],
              availability["recover_seconds"],
              availability["replica_read_stats"]["replica_reads"],
              availability["replica_read_stats"]["demotions"]]],
            headers=["healthy reads/s", "degraded reads/s",
                     "recovered reads/s", "recover s", "replica-served",
                     "demotions"]))
    checkpoints = payload.get("checkpoints")
    if checkpoints:
        print()
        print("Checkpoints — secure, fsynced, 2 shards, replication=2 "
              "(median of %d barriers after %d deletes, %d cold opens)"
              % (CHECKPOINT_BARRIERS, CHECKPOINT_DELETES, CHECKPOINT_OPENS))
        print(format_table(
            [[row["inner"], row["keys"], row["barrier_ms_median"],
              row["open_s_median"]] for row in checkpoints],
            headers=["inner", "keys", "barrier ms", "open s"]))


def write_wallclock(payload) -> None:
    """Merge the recovery section into the committed wall-clock trajectory.

    ``BENCH_wallclock.json`` is shared with the parallel-throughput bench
    (which owns the top-level ``meta``/``rows``); each standalone run
    replaces only its own section, so the two benches never clobber each
    other's full-mode numbers.
    """
    merged = {}
    if os.path.exists(WALLCLOCK_PATH):
        try:
            with open(WALLCLOCK_PATH, encoding="utf-8") as handle:
                merged = json.load(handle)
        except ValueError:  # pragma: no cover - a torn artifact
            merged = {}
    merged["recovery"] = payload
    with open(WALLCLOCK_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (recovery section)" % WALLCLOCK_PATH)


def test_recovery_trajectory(run_once, results_dir, tmp_path):
    payload, rows = run_once(collect, str(tmp_path))
    report(payload, rows)
    write_results("recovery", payload, directory=results_dir)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        collected_payload, collected_rows = collect(scratch)
    report(collected_payload, collected_rows)
    write_wallclock(collected_payload)

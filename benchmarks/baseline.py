#!/usr/bin/env python
"""Deterministic benchmark baseline: emit and gate ``BENCH_smoke.json``.

The CI perf gate needs numbers that are *exactly* reproducible across
machines, otherwise a 25% threshold is noise-gating wall clock.  Every
metric here is therefore a seeded I/O or migration count — pure functions
of the workload seed and structure seeds, independent of host speed — and
wall-clock time is recorded in the metadata for information only.

Two subcommands::

    python benchmarks/baseline.py run --output BENCH_smoke.json
    python benchmarks/baseline.py compare BASELINE.json CURRENT.json \
        [--tolerance 0.25]

``run`` builds each gated structure from a Zipf-skewed mixed workload and a
sharded store from the elastic churn workload, recording build I/Os,
cold-cache search I/Os, range fan-out I/Os, resharding migration volume,
the process crossing's deterministic counter (op-log commits of bulk
batches) from a durable replicated process engine — with request
tracing *enabled*, so the gate also pins that telemetry never perturbs
it — plus the tracer's own deterministic span/crossing counts (one
crossing per command sent to a worker), and the secure
durability mode's erasure counters (barrier rounds, redactions, frames
dropped, and the forensics auditor's residue count — gated at zero), plus
the replication read-path counters (replica-served reads, divergence
demotions, anti-entropy reseeds) from a round-robin replicated engine.
``compare`` exits non-zero when any current metric regresses past the
tolerance (default +25%) over the committed baseline — or when a metric
disappeared, or the two files were collected at different workload scales.
Improvements beyond the tolerance are reported as a hint to refresh the
committed baseline.  The committed baseline is generated in smoke mode::

    REPRO_BENCH_SMOKE=1 python benchmarks/baseline.py run \
        --output benchmarks/BENCH_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # keep `python benchmarks/baseline.py` PYTHONPATH-free
    sys.path.insert(0, _SRC)

from _harness import counters, scaled, smoke_mode  # noqa: E402

#: Structures gated by the baseline (one per accounting style plus the
#: strongly-HI treap family).
GATED_STRUCTURES = ("b-tree", "hi-skiplist", "b-treap", "hi-pma")
BLOCK_SIZE = 32
CACHE_BLOCKS = 4
WORKLOAD_SEED = 0
STRUCTURE_SEED = 1
SHARDS = 4


def collect_metrics() -> Tuple[Dict[str, int], Dict[str, object]]:
    """All gated metrics (deterministic ints) plus informational metadata."""
    from repro.api import DictionaryEngine, EngineConfig, make_sharded_engine
    from repro.workloads import elastic_churn_trace, zipf_mixed_trace

    operations = scaled(4_000)
    started = time.time()
    metrics: Dict[str, int] = {}

    trace = zipf_mixed_trace(operations, skew=1.2, seed=WORKLOAD_SEED)
    for name in GATED_STRUCTURES:
        engine = DictionaryEngine.create(name, block_size=BLOCK_SIZE,
                                         cache_blocks=CACHE_BLOCKS,
                                         seed=STRUCTURE_SEED)
        engine.build_from_trace(trace)
        metrics["build_ios.%s" % name] = engine.io_stats().total_ios
        keys = list(engine)
        probes = keys[::max(1, len(keys) // 64)]
        metrics["search_ios.%s" % name] = sum(engine.search_io_cost(key)
                                              for key in probes)
        if keys:
            low = keys[len(keys) // 4]
            high = keys[(3 * len(keys)) // 4]
            _pairs, range_ios = engine.range_io_cost(low, high)
            metrics["range_ios.%s" % name] = int(range_ios)

    # The batched bulk paths (engine fast-path dispatch, LRU fast path,
    # charge_many): deterministic I/O totals for an insert_many +
    # contains_many + delete_many flow.  A regression here means the
    # zero-copy / batched-charging hot path started charging differently.
    # The entries are strictly ascending, so the b-treap links them in one
    # right-spine pass, which must charge what per-key inserts charge.
    total = max(2, operations // 2)
    bulk_entries = [(key * 7 % (total * 13), key) for key in range(total)]
    bulk_probes = [key for key, _value in bulk_entries[::2]]
    bulk_doomed = [key for key, _value in bulk_entries[::3]]
    for name in ("hi-pma", "hi-skiplist", "b-tree", "b-treap"):
        engine = DictionaryEngine.create(name, block_size=BLOCK_SIZE,
                                         cache_blocks=CACHE_BLOCKS,
                                         seed=STRUCTURE_SEED)
        engine.insert_many(bulk_entries)
        engine.contains_many(bulk_probes)
        engine.delete_many(bulk_doomed)
        metrics["bulk_ios.%s" % name] = engine.io_stats().total_ios

    # The process crossing: op-log commits per primary batch are a pure
    # function of the workload and topology — no wall clock, no core-count
    # dependence — so they are gateable exactly like the I/O counts.  A
    # regression in ``fsync_batches`` means a bulk call commits a
    # primary's log more than once.
    import shutil
    import tempfile

    durability_dir = tempfile.mkdtemp(prefix="repro-bench-plane-")
    try:
        engine = make_sharded_engine(EngineConfig(
            inner="b-treap", shards=SHARDS, block_size=BLOCK_SIZE,
            seed=STRUCTURE_SEED, router="consistent", parallel="process",
            replication=2, durability_dir=durability_dir, telemetry=True))
        # Telemetry runs *enabled* on this scenario on purpose: the gate
        # itself proves tracing does not perturb the crossing counters.  The
        # tracer's counters are deterministic too — span/crossing counts
        # are pure functions of the workload and topology, and a zero
        # slow threshold makes every root span a slow op, so the slow-op
        # counter is just the bulk-call count.
        engine.tracer.slow_ms = 0.0
        try:
            engine.insert_many(bulk_entries)
            engine.contains_many(bulk_probes)
            engine.delete_many(bulk_doomed)
            telemetry = engine.telemetry()
            metrics["plane.fsync_batches"] = \
                int(telemetry["plane.fsync_batches"])
            for name in ("spans", "crossings", "worker_spans", "slow_ops",
                         "snapshot_merges"):
                metrics["telemetry.%s" % name] = \
                    int(telemetry["telemetry.%s" % name])
        finally:
            engine.close()
    finally:
        shutil.rmtree(durability_dir, ignore_errors=True)

    # Secure durability: deletes trigger a history-redacting log compaction
    # at the next barrier.  The counters are pure functions of the workload
    # and topology (barrier rounds, deletes flushed at barriers, frames the
    # redaction dropped), and the last one turns the erasure acceptance
    # criterion into a gate: the byte-level forensics auditor must find
    # exactly zero traces of the deleted keys in the durability directory.
    from repro.history.forensics import audit_durability_dir

    secure_dir = tempfile.mkdtemp(prefix="repro-bench-secure-")
    try:
        engine = make_sharded_engine(EngineConfig(
            inner="b-treap", shards=SHARDS, block_size=BLOCK_SIZE,
            seed=STRUCTURE_SEED, router="consistent", parallel="process",
            replication=2, durability_dir=secure_dir,
            durability_mode="secure"))
        try:
            engine.insert_many(bulk_entries)
            engine.barrier()
            engine.delete_many(bulk_doomed)
            engine.barrier()
            erasure = counters(engine, "erasure")
        finally:
            engine.close()
        metrics["secure.barriers"] = erasure["barriers"]
        metrics["secure.redactions"] = erasure["redactions"]
        metrics["secure.barrier_deletes"] = erasure["deletes_flushed"]
        metrics["secure.frames_redacted"] = erasure["frames_dropped"]
        audit = audit_durability_dir(secure_dir, bulk_doomed,
                                     payload_size=64)
        metrics["secure.residue_findings"] = len(audit.findings)
    finally:
        shutil.rmtree(secure_dir, ignore_errors=True)

    # Replication v2: the read-policy machinery is a deterministic counter
    # machine too.  ``replica_reads`` is a pure function of routing plus
    # the round-robin bulk striping (each shard's probe batch is sliced
    # over its three copies); ``demotions`` is forced by hand-diverging one
    # replica and rotating point reads across the copies until the
    # cross-check catches it; ``anti_entropy_reseeds`` by hand-diverging a
    # second replica and letting the digest sweep repair it.  A regression
    # means reads stopped fanning over the ring — or the divergence
    # defences stopped firing.
    engine = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=SHARDS, block_size=BLOCK_SIZE,
        seed=STRUCTURE_SEED, router="consistent", parallel="process",
        replication=3, read_policy="round-robin"))
    try:
        engine.insert_many(bulk_entries)
        engine.contains_many(bulk_probes)
        structure = engine._structure
        first_key, first_value = bulk_entries[0]
        proxy = structure._shards[structure.shard_of(first_key)]
        proxy.replicas[0].call("delete", first_key)  # hand-diverge one
        for _attempt in range(3):  # rotate until the cross-check fires
            assert engine.search(first_key) == first_value
        second_key = next(key for key, _value in bulk_entries
                          if structure.shard_of(key)
                          != structure.shard_of(first_key))
        structure._shards[structure.shard_of(second_key)] \
            .replicas[0].call("delete", second_key)
        sweep = engine.anti_entropy()
        assert sweep["reseeded"] == 1, sweep
        replica_stats = counters(engine, "replica_reads")
    finally:
        engine.close()
    for name in ("replica_reads", "demotions", "anti_entropy_reseeds"):
        metrics["replica_reads.%s" % name] = int(replica_stats[name])

    churn = elastic_churn_trace(operations, phases=2, seed=WORKLOAD_SEED)
    for router in ("modulo", "consistent"):
        engine = make_sharded_engine(EngineConfig(
            inner="b-tree", shards=SHARDS, block_size=BLOCK_SIZE,
            seed=STRUCTURE_SEED, router=router))
        engine.build_from_trace(churn)
        metrics["sharded_build_ios.%s" % router] = engine.io_stats().total_ios
        report = engine.add_shard()
        metrics["migration_moved.%s_add" % router] = report.moved_keys
        metrics["migration_total.%s_add" % router] = report.total_keys

    meta = {
        "operations": operations,
        "smoke": smoke_mode(),
        "seconds": round(time.time() - started, 3),
        "python": platform.python_version(),
    }
    return metrics, meta


def cmd_run(args: argparse.Namespace) -> int:
    metrics, meta = collect_metrics()
    payload = {"meta": meta, "metrics": metrics}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output in (None, "-"):
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print("wrote %s (%d metrics, %d ops, %.1fs)"
              % (args.output, len(metrics), meta["operations"],
                 meta["seconds"]))
    return 0


def _load(path: str) -> Dict[str, object]:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print("error: cannot read %s: %s" % (path, error), file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(payload.get("metrics"), dict):
        print("error: %s has no metrics mapping" % path, file=sys.stderr)
        raise SystemExit(2)
    return payload


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = _load(args.baseline)
    current = _load(args.current)
    base_meta = baseline.get("meta", {})
    cur_meta = current.get("meta", {})
    failures = []
    improvements = []
    if base_meta.get("operations") != cur_meta.get("operations"):
        # Per-metric comparison at different scales would report every
        # metric as a fake regression (or improvement) and bury the one
        # real cause, so stop here.
        print("FAIL: workload scale mismatch: baseline ran %r operations, "
              "current %r — regenerate the baseline at the same scale "
              "(REPRO_BENCH_SMOKE / REPRO_BENCH_SMOKE_CAP)"
              % (base_meta.get("operations"), cur_meta.get("operations")),
              file=sys.stderr)
        return 1
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    for name in sorted(base_metrics):
        if name not in cur_metrics:
            failures.append("metric %s disappeared from the current run"
                            % name)
            continue
        base_value = base_metrics[name]
        cur_value = cur_metrics[name]
        limit = base_value * (1.0 + args.tolerance)
        marker = " "
        if cur_value > limit:
            failures.append(
                "%s regressed: %s -> %s (limit %.1f, +%.0f%%)"
                % (name, base_value, cur_value, limit,
                   100.0 * (cur_value - base_value) / base_value
                   if base_value else float("inf")))
            marker = "✗"
        elif base_value and cur_value < base_value * (1.0 - args.tolerance):
            improvements.append(name)
            marker = "✓"
        print("%s %-36s baseline %8s  current %8s"
              % (marker, name, base_value, cur_value))
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        print("  %-36s (new metric, not gated: %s)"
              % (name, cur_metrics[name]))
    if improvements:
        print("note: %d metric(s) improved past the tolerance (%s); "
              "consider refreshing the committed baseline"
              % (len(improvements), ", ".join(improvements)))
    if failures:
        print("\nFAIL: %d regression(s) beyond %.0f%%:"
              % (len(failures), 100 * args.tolerance), file=sys.stderr)
        for failure in failures:
            print("  - %s" % failure, file=sys.stderr)
        return 1
    print("OK: no metric regressed beyond %.0f%%" % (100 * args.tolerance))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="emit / gate the deterministic benchmark baseline")
    subparsers = parser.add_subparsers(dest="command", required=True)
    run = subparsers.add_parser("run", help="collect metrics and emit JSON")
    run.add_argument("--output", default=None,
                     help="file to write (default: stdout)")
    compare = subparsers.add_parser(
        "compare", help="gate a current run against a committed baseline")
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument("--tolerance", type=float, default=0.25,
                         help="allowed relative regression (default 0.25)")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

"""Experiment X-S2 — elastic resharding: migration volume + parallel dispatch.

Two measurements back the elastic scaling layer:

* **Migration volume** — load ``N`` keys into a sharded store, add one
  shard, remove one shard, and count the keys each rebalancing step moved,
  modulo routing vs. the consistent-hash ring.  The ring must stay within
  2x of the ideal ``1/shards`` fraction while modulo reshuffles the
  majority of the population — the entire argument for consistent hashing.

* **Parallel dispatch** — replay identical bulk operations through the
  sequential and the worker-process engines and verify the results
  (returned values, merged order, per-shard layouts) are byte-identical,
  recording the wall-clock ratio.  The speedup is reported, not asserted:
  it depends on the runner's core count (``bench_parallel_throughput.py``
  owns the gated bound).
"""

from __future__ import annotations

import time

from repro.analysis.reporting import format_table, write_results
from repro.api import EngineConfig, make_sharded_engine
from repro.workloads import elastic_churn_trace

from _harness import scaled

BLOCK_SIZE = 32
INNER = "hi-skiplist"
SHARDS = 4
VNODES = 64


def test_migration_volume_modulo_vs_consistent(run_once, results_dir):
    total = scaled(6_000)
    trace = elastic_churn_trace(total, phases=2, seed=0)

    def workload():
        rows = []
        for router in ("modulo", "consistent"):
            spec = {"name": router}
            if router == "consistent":
                spec["vnodes"] = VNODES
            engine = make_sharded_engine(EngineConfig(
                inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=1,
                router=spec))
            engine.build_from_trace(trace)
            keys = len(engine)
            grow = engine.add_shard()
            shrink = engine.remove_shard(engine.num_shards - 1)
            engine.check()
            for action, report in (("add", grow), ("remove", shrink)):
                rows.append({
                    "router": router,
                    "action": action,
                    "shards": "%d->%d" % (report.old_shards,
                                          report.new_shards),
                    "keys": keys,
                    "moved": report.moved_keys,
                    "moved_fraction": round(report.moved_fraction, 4),
                    "ideal_fraction": round(report.ideal_fraction, 4),
                })
        return rows

    rows = run_once(workload)

    print()
    print("Elastic resharding — migration volume (%d ops, inner=%s, "
          "%d shards, %d vnodes)" % (total, INNER, SHARDS, VNODES))
    print(format_table(
        [[row["router"], row["action"], row["shards"], row["keys"],
          row["moved"], "%.3f" % row["moved_fraction"],
          "%.3f" % row["ideal_fraction"]] for row in rows],
        headers=["router", "step", "shards", "keys", "moved",
                 "moved frac", "ideal frac"]))

    write_results("elastic_resharding",
                  {"rows": rows, "inner": INNER, "block_size": BLOCK_SIZE,
                   "vnodes": VNODES, "operations": total},
                  directory=results_dir)

    by_router = {}
    for row in rows:
        by_router.setdefault(row["router"], []).append(row)
    for row in by_router["consistent"]:
        # The acceptance bound: consistent hashing moves at most twice the
        # ideal fraction of the population on every resize step.
        assert row["moved"] <= 2 * row["keys"] * row["ideal_fraction"]
    # And the contrast that justifies the ring: modulo moves several times
    # more than consistent hashing on the same resize.
    assert sum(row["moved"] for row in by_router["modulo"]) > \
        2 * sum(row["moved"] for row in by_router["consistent"])


def test_parallel_dispatch_identity_and_timing(run_once, results_dir):
    total = scaled(8_000)
    # 7*key < 13*total, so the modulus never wraps: keys are distinct.
    entries = [(key * 7 % (total * 13), key) for key in range(total)]
    probes = [key for key, _value in entries[::3]]

    def drive(parallel):
        engine = make_sharded_engine(EngineConfig(
            inner=INNER, shards=SHARDS, block_size=BLOCK_SIZE, seed=2,
            router="consistent", parallel=parallel))
        started = time.perf_counter()
        engine.insert_many(entries)
        contains = engine.contains_many(probes)
        _pairs, costs = engine.range_io_cost_breakdown(0, total * 13)
        elapsed = time.perf_counter() - started
        return engine, contains, costs, elapsed

    def workload():
        sequential, s_contains, s_costs, s_time = drive("none")
        parallel, p_contains, p_costs, p_time = drive("process")
        try:
            identical = (p_contains == s_contains and p_costs == s_costs
                         and parallel.items() == sequential.items()
                         and parallel.structure.audit_fingerprint()
                         == sequential.structure.audit_fingerprint())
        finally:
            parallel.close()
        return {
            "keys": len(sequential),
            "sequential_seconds": round(s_time, 4),
            "parallel_seconds": round(p_time, 4),
            "speedup": round(s_time / p_time, 3) if p_time else 0.0,
            "identical": identical,
        }

    row = run_once(workload)

    print()
    print("Parallel dispatch — %d keys over %d shards (inner=%s)"
          % (row["keys"], SHARDS, INNER))
    print(format_table(
        [[row["keys"], row["sequential_seconds"], row["parallel_seconds"],
          "%.2fx" % row["speedup"], row["identical"]]],
        headers=["keys", "sequential s", "parallel s", "speedup",
                 "byte-identical"]))

    write_results("elastic_parallel_dispatch",
                  {"row": row, "inner": INNER, "shards": SHARDS,
                   "block_size": BLOCK_SIZE},
                  directory=results_dir)

    # Correctness is asserted; the speedup is informational.
    assert row["identical"]

#!/usr/bin/env python
"""Elastic scaling: growing and shrinking a sharded store without rebuilds.

A fixed modulo router pins every key to ``hash % shards`` — change the shard
count and nearly every key is suddenly on the wrong shard, so a resize is a
full rebuild.  The consistent-hash router pins each shard's virtual nodes to
a 64-bit ring instead: adding a shard only claims the ring arcs its new
virtual nodes carve out, so roughly ``keys/shards`` keys migrate, all of
them onto the new shard, and removing a shard migrates only that shard's
keys.

This example replays an elastic churn workload (ingest-heavy grow phases
alternating with drain-heavy shrink phases), scales out at the population
peak and back in afterwards, and prints what each rebalancing step actually
moved — modulo vs. consistent, side by side.  It closes with the parallel
engine: same sharded store, each shard hosted in its own worker process
and bulk operations fanned out over them, results byte-identical to the
sequential engine.

Run with::

    python examples/elastic_rebalance.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.api import EngineConfig, make_sharded_engine
from repro.workloads import elastic_churn_trace

SHARDS = 3
KEYS = 6_000


def migration_story(router: str):
    """Load, grow by one shard, shrink back; return the two reports."""
    engine = make_sharded_engine(EngineConfig(inner="hi-skiplist",
                                              shards=SHARDS, block_size=32,
                                              seed=7, router=router))
    engine.build_from_trace(elastic_churn_trace(KEYS, phases=2, seed=2016))
    grow = engine.add_shard()
    shrink = engine.remove_shard(engine.num_shards - 1)
    engine.check()
    return engine, grow, shrink


def main() -> None:
    print("elastic churn workload: %d ops, grow phase then shrink phase"
          % KEYS)
    print()

    rows = []
    for router in ("modulo", "consistent"):
        engine, grow, shrink = migration_story(router)
        for action, report in (("add", grow), ("remove", shrink)):
            rows.append([router, action,
                         "%d -> %d" % (report.old_shards, report.new_shards),
                         report.total_keys, report.moved_keys,
                         "%.3f" % report.moved_fraction,
                         "%.3f" % report.ideal_fraction])
    print("Rebalancing cost per step (the elastic-scaling argument):")
    print(format_table(rows, headers=["router", "step", "shards", "keys",
                                      "moved", "moved frac", "ideal frac"]))
    print()
    print("modulo reshuffles most of the population on every resize; the")
    print("consistent-hash ring moves only what the new shard map demands.")
    print()

    sequential = make_sharded_engine(EngineConfig(inner="hi-skiplist",
                                                  shards=4, block_size=32,
                                                  seed=9, router="consistent"))
    entries = [(key, key * 7) for key in range(0, 40_000, 5)]
    sequential.insert_many(entries)
    probes = [key for key, _value in entries[::9]]
    with make_sharded_engine(EngineConfig(
            inner="hi-skiplist", shards=4, block_size=32, seed=9,
            router="consistent", parallel="process")) as parallel:
        parallel.insert_many(entries)
        identical = (parallel.items() == sequential.items()
                     and parallel.contains_many(probes)
                     == sequential.contains_many(probes)
                     and parallel.structure.audit_fingerprint()
                     == sequential.structure.audit_fingerprint())
        print("parallel engine   : %d keys over %d worker-process shards"
              % (len(parallel), parallel.num_shards))
    print("byte-identical to the sequential engine: %s" % identical)


if __name__ == "__main__":
    main()

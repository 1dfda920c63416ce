#!/usr/bin/env python
"""Scaling out: a hash-partitioned store over history-independent shards.

One history-independent dictionary serves one disk; serving real traffic
means spreading the key space over several independent backends.  The
sharded engine routes every key through a fixed hash, so the partition — like
the shard layouts themselves when the inner structures are history
independent — reveals nothing about the order in which keys arrived.

This example builds a 4-way sharded store over HI skip lists, replays a
Zipf-skewed mixed read/write workload (hot keys hammered over and over),
and prints what the per-shard stats view is for: the key *population*
splits evenly, while the I/O *traffic* stays skewed.  It finishes with a
per-shard snapshot and a restore from the manifest.

Run with::

    python examples/sharded_store.py
"""

from __future__ import annotations

import shutil
import tempfile

from repro.analysis.reporting import format_table
from repro.api import EngineConfig, ShardedDictionaryEngine, make_sharded_engine
from repro.workloads import zipf_mixed_trace


def main() -> None:
    shards = 4
    engine = make_sharded_engine(EngineConfig(inner="hi-skiplist",
                                              shards=shards, block_size=32,
                                              cache_blocks=4, seed=7))
    trace = zipf_mixed_trace(12_000, skew=1.2, seed=2016)
    engine.build_from_trace(trace)

    print("sharded store     : %d x %s" % (shards, engine.structure.inner_names[0]))
    print("operations played : %d" % len(trace))
    print("keys stored       : %d" % len(engine))
    print()

    rows = []
    for index, (size, stats) in enumerate(zip(engine.shard_sizes(),
                                              engine.per_shard_io_stats())):
        rows.append([index, size, stats.reads, stats.writes, stats.total_ios])
    aggregate = engine.io_stats()
    rows.append(["all", len(engine), aggregate.reads, aggregate.writes,
                 aggregate.total_ios])
    print("Per-shard breakdown (hash routing splits the population evenly; "
          "traffic follows wherever the hot keys hash):")
    print(format_table(rows, headers=["shard", "keys", "reads", "writes",
                                      "total I/Os"]))
    print()

    sizes = engine.shard_sizes()
    ios = [stats.total_ios for stats in engine.per_shard_io_stats()]
    print("population spread : min %d / max %d keys" % (min(sizes), max(sizes)))
    print("traffic spread    : min %d / max %d I/Os" % (min(ios), max(ios)))
    print()

    # Point lookups route to one shard; ranges fan out to all of them.
    hot_key = next(key for key in engine if True)
    pairs, range_cost = engine.range_io_cost(hot_key, hot_key + 5_000)
    print("routed search cost: %d I/Os (one shard)"
          % engine.search_io_cost(hot_key))
    print("fan-out range cost: %d I/Os for %d pairs (all shards)"
          % (range_cost, len(pairs)))
    print()

    directory = tempfile.mkdtemp(prefix="sharded-store-")
    try:
        manifest = engine.snapshot_shards(directory)
        print("snapshot          : %d images + manifest in %s"
              % (manifest["num_shards"], directory))
        restored = ShardedDictionaryEngine.restore_shards(directory,
                                                          block_size=32)
        same = [key for key in restored] == [key for key in engine]
        print("restore           : %d keys, key-for-key identical: %s"
              % (len(restored), same))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()

"""Golden traces of the two external skip lists.

Each digest covers one seeded mixed trace: every operation's return value
(or the error it raised), its ``last_operation_ios`` and the I/O totals
after it, then the final layout, ``stats.reads/writes/operations`` and the
``skiplist.*`` counters.  A change to any charge, any random draw or the
layout changes a digest, even where the gated aggregate counters happen to
balance out.
"""

import hashlib
import random

import pytest

from repro.errors import DuplicateKey, KeyNotFound
from repro.skiplist.external import HistoryIndependentSkipList
from repro.skiplist.folklore import FolkloreBSkipList

pytestmark = pytest.mark.fast

PRELOAD = 400
OPERATIONS = 1200

GOLDEN = {
    ("hi-skiplist", 2, 1):
        "df62a9bfdbbee590b8e2fe365ec2576efb96c6a9d0c3d4ff234cc3ec717cf7a8",
    ("hi-skiplist", 2, 2):
        "885e2bb3cfbe620ab22054d0fdff9943e655dd0469637526425ee3a5ddfdc690",
    ("hi-skiplist", 4, 1):
        "9531f52315e2d573a3c473bccf4a8cc5aa67edf6cdf6503507ee50fd74528de1",
    ("hi-skiplist", 4, 2):
        "937dbec77b1f70594a2986bbcc0f1b9e3804adef25bf7cb3807109f3c1b310c7",
    ("hi-skiplist", 32, 1):
        "3c3d76aec623d4845316908dd4651bd98a12e6e38391e827b9df4bf924ca134b",
    ("hi-skiplist", 32, 2):
        "8dd59f98fb49b2866676431a844b522a8b3877819485eed0cbf900ade6c91dfe",
    ("hi-skiplist", 64, 1):
        "1d939403b7f69b9678b29dbf3eefca8f59b2ce05c179392da75ebc11538aeb40",
    ("hi-skiplist", 64, 2):
        "19e91d27f348719db65d81c33d855c8e0d12125025aef1eccea533bf4c650ab3",
    ("b-skiplist", 2, 1):
        "18498116aaeaec49981c598fe74242b89d031c7718da0e617c63f0fbb609ffda",
    ("b-skiplist", 2, 2):
        "f945de5d2dd611d47f05ed2ca6d01198d5c03311d4cbc958e64282d02947ef24",
    ("b-skiplist", 4, 1):
        "d79c012cbe908bfcb58211a2ac5ef5b66c8b1e82eb6484d2222f70c75a6449d5",
    ("b-skiplist", 4, 2):
        "2f418cf07a5b6fdff10b3ec6716dd1df9aac81173fbba9846b9adb4f43c42887",
    ("b-skiplist", 32, 1):
        "62e2977ede82d9ca33c9820512ed2de05060c6dbea2c223e09373df9ae5163e6",
    ("b-skiplist", 32, 2):
        "a42d08ddb088ebc4d88a2221bb30eba12763f09d2f5cbd93f61680b3f518fa33",
    ("b-skiplist", 64, 1):
        "15424dbed18e00aea92ea7565c306e06166fb4078d9b512e0778f8e685360123",
    ("b-skiplist", 64, 2):
        "39d4cb6be6eef1b810bba702e3aa77cd7a04022eba845d1ee702052c356ae10e",
}


def _build(name, block_size, seed):
    if name == "hi-skiplist":
        return HistoryIndependentSkipList(block_size=block_size, seed=seed)
    return FolkloreBSkipList(block_size=block_size, seed=seed)


def _apply(skiplist, operation, key, rng):
    if operation == "insert":
        return skiplist.insert(key, "v%d" % key)
    if operation == "upsert":
        return skiplist.upsert(key, "u%d" % key)
    if operation == "delete":
        return skiplist.delete(key)
    if operation == "contains":
        return skiplist.contains(key)
    if operation == "search":
        return skiplist.search(key)
    if operation == "cost":
        return skiplist.search_io_cost(key)
    return skiplist.range_query(key, key + rng.randrange(1, 400))


def trace_digest(name, block_size, seed):
    """The digest of one seeded mixed trace on a fresh skip list."""
    rng = random.Random(seed * 1_000_003 + block_size)
    skiplist = _build(name, block_size, seed)
    digest = hashlib.sha256()
    live = []
    universe = 8 * (PRELOAD + OPERATIONS)
    kinds = (["insert"] * 9 + ["upsert"] * 2 + ["delete"] * 5 + ["contains"] * 2
             + ["search", "cost", "range"])
    for step in range(PRELOAD + OPERATIONS):
        operation = "insert" if step < PRELOAD else rng.choice(kinds)
        if operation in ("delete", "search", "upsert") and live and rng.random() < 0.7:
            key = live[rng.randrange(len(live))]
        else:
            key = rng.randrange(universe)
        try:
            result = _apply(skiplist, operation, key, rng)
        except (DuplicateKey, KeyNotFound) as error:
            result = type(error).__name__
        else:
            if operation == "delete":
                live.remove(key)
            elif operation in ("insert", "upsert") and key not in live:
                live.append(key)
        digest.update(repr((operation, key, result,
                            getattr(skiplist, "last_operation_ios", None),
                            skiplist.stats.reads, skiplist.stats.writes)).encode())
    if name == "hi-skiplist":
        layout = (skiplist.memory_representation(), skiplist.leaf_node_sizes())
    else:
        layout = (skiplist.leaf_array_sizes(), [skiplist.level_of(key) for key in skiplist])
    counters = sorted((counter, count) for counter, count in skiplist.stats.counters.items()
                      if counter.startswith("skiplist."))
    digest.update(repr((layout, skiplist.items(), skiplist.stats.reads,
                        skiplist.stats.writes, skiplist.stats.operations,
                        counters)).encode())
    skiplist.check()
    return digest.hexdigest()


@pytest.mark.parametrize("name,block_size,seed", sorted(GOLDEN))
def test_trace_matches_its_golden_digest(name, block_size, seed):
    assert trace_digest(name, block_size, seed) == GOLDEN[(name, block_size, seed)]

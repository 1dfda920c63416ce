"""The sharded engine: routing, batching, merged stats, per-shard snapshots.

Complements the conformance suite (which drives ``sharded`` through the same
scenario as every other registry entry) with the sharded-specific surface:
deterministic hash routing, batched bulk dispatch, the per-shard vs.
aggregate stats views, fan-out range costs, per-shard snapshot/restore, and
the uniform ``ConfigurationError`` contract for misconfigured engines.
"""

import random

import pytest

from repro.api import (
    DictionaryEngine,
    EngineConfig,
    ShardedDictionary,
    ShardedDictionaryEngine,
    make_dictionary,
    make_sharded_engine,
    shard_index,
)
from repro.errors import ConfigurationError, KeyNotFound
from repro.workloads import zipf_mixed_trace

pytestmark = pytest.mark.fast

#: Inner structures the acceptance criteria require the sharded engine to
#: pass conformance / differential / snapshot suites with (three accounting
#: styles: tracker-backed PMA, native-counter B-tree, skip-list costs).
INNERS = ("b-tree", "hi-pma", "hi-skiplist")


def build_engine(inner, shards=3, seed=7, block_size=16, cache_blocks=2):
    return make_sharded_engine(EngineConfig(inner=inner, shards=shards,
                                            seed=seed, block_size=block_size,
                                            cache_blocks=cache_blocks))


# --------------------------------------------------------------------------- #
# Routing
# --------------------------------------------------------------------------- #

def test_shard_index_is_deterministic_and_in_range():
    for num_shards in (1, 2, 3, 7):
        for key in list(range(200)) + ["alpha", (1, 2), None]:
            index = shard_index(key, num_shards)
            assert 0 <= index < num_shards
            assert index == shard_index(key, num_shards)


def test_shard_index_spreads_consecutive_integers():
    counts = [0] * 4
    for key in range(4_000):
        counts[shard_index(key, 4)] += 1
    assert min(counts) > 800  # near-uniform, not modulo-striped


def test_shard_index_rejects_empty_partitions():
    with pytest.raises(ConfigurationError):
        shard_index(1, 0)


def test_shard_index_routes_equal_keys_identically():
    """Keys that compare equal (True == 1, 2.0 == 2) must co-locate."""
    for shards in (2, 3, 7):
        assert shard_index(True, shards) == shard_index(1, shards)
        assert shard_index(False, shards) == shard_index(0, shards)
        assert shard_index(2.0, shards) == shard_index(2, shards)
    engine = build_engine("b-tree")
    engine.insert(1, "one")
    engine.insert(2, "two")
    assert engine.contains(True)
    assert engine.search(2.0) == "two"
    assert engine.delete(True) == "one"


@pytest.mark.parametrize("inner", INNERS)
def test_keys_live_on_the_shard_they_route_to(inner):
    engine = build_engine(inner)
    keys = random.Random(1).sample(range(50_000), 300)
    engine.insert_many((key, key) for key in keys)
    structure = engine.structure
    for index, shard in enumerate(structure.shards):
        for key in shard:
            assert structure.shard_of(key) == index
    engine.check()


# --------------------------------------------------------------------------- #
# Batched bulk operations
# --------------------------------------------------------------------------- #

def test_bulk_results_preserve_input_order():
    engine = build_engine("b-tree")
    keys = random.Random(2).sample(range(10_000), 200)
    assert engine.insert_many((key, key * 3) for key in keys) == len(keys)
    probe = keys[::3] + [-1, 10_001]
    assert engine.contains_many(probe) == \
        [key in set(keys) for key in probe]
    victims = keys[10:60]
    assert engine.delete_many(victims) == [key * 3 for key in victims]
    assert len(engine) == len(keys) - len(victims)


def test_bulk_delete_of_absent_key_raises_key_not_found():
    engine = build_engine("b-tree")
    engine.insert_many([(1, "a"), (2, "b")])
    with pytest.raises(KeyNotFound):
        engine.delete_many([1, 99])


def test_merged_views_are_sorted_across_shards():
    engine = build_engine("hi-skiplist")
    keys = random.Random(3).sample(range(100_000), 400)
    engine.insert_many((key, key) for key in keys)
    assert list(engine) == sorted(keys)
    assert engine.items() == [(key, key) for key in sorted(keys)]
    low, high = sorted(keys)[50], sorted(keys)[250]
    assert engine.range_query(low, high) == \
        [(key, key) for key in sorted(keys) if low <= key <= high]


# --------------------------------------------------------------------------- #
# Stats: per-shard + aggregate
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", INNERS)
def test_aggregate_stats_are_the_per_shard_sum(inner):
    engine = build_engine(inner)
    engine.build_from_trace(zipf_mixed_trace(600, seed=4))
    per_shard = engine.per_shard_io_stats()
    aggregate = engine.io_stats()
    assert len(per_shard) == engine.num_shards
    assert aggregate.reads == sum(stats.reads for stats in per_shard)
    assert aggregate.writes == sum(stats.writes for stats in per_shard)
    assert aggregate.total_ios == sum(stats.total_ios for stats in per_shard)
    assert sum(engine.shard_sizes()) == len(engine)


@pytest.mark.parametrize("inner", INNERS)
def test_cost_probes_do_not_perturb_cumulative_stats(inner):
    engine = build_engine(inner)
    keys = random.Random(5).sample(range(20_000), 300)
    engine.insert_many((key, key) for key in keys)
    before = engine.io_stats()
    assert engine.search_io_cost(keys[0]) >= 0
    pairs, cost = engine.range_io_cost(min(keys), max(keys))
    assert cost >= 0 and len(pairs) == len(keys)
    after = engine.io_stats()
    assert (after.reads, after.writes, after.element_moves) == \
        (before.reads, before.writes, before.element_moves)


def test_range_io_cost_merges_sorted_fan_out_results():
    engine = build_engine("b-tree", shards=4)
    keys = list(range(0, 2_000, 7))
    engine.insert_many((key, key) for key in keys)
    pairs, cost = engine.range_io_cost(300, 900)
    assert pairs == [(key, key) for key in keys if 300 <= key <= 900]
    # Every shard owns part of the interval, so the fan-out cost covers at
    # least one I/O per non-empty shard.
    assert cost >= engine.num_shards


# --------------------------------------------------------------------------- #
# Per-shard snapshot / restore
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", INNERS)
def test_per_shard_snapshot_roundtrip(inner, tmp_path):
    engine = build_engine(inner)
    keys = random.Random(6).sample(range(30_000), 250)
    engine.insert_many((key, key) for key in keys)
    directory = str(tmp_path / "shards")
    manifest = engine.snapshot_shards(directory)
    assert manifest["num_shards"] == engine.num_shards
    assert len(manifest["shards"]) == engine.num_shards

    restored = ShardedDictionaryEngine.restore_shards(directory,
                                                      block_size=16)
    assert restored.num_shards == engine.num_shards
    assert list(restored) == sorted(keys)
    # Restoration re-routes by the same hash, so each shard holds exactly
    # the keys its image was written from.
    assert restored.shard_sizes() == engine.shard_sizes()
    restored.check()


def test_per_shard_snapshot_roundtrip_preserves_values(tmp_path):
    engine = build_engine("b-tree")  # pair-bearing snapshot slots
    engine.insert_many((key, key * 11) for key in range(0, 500, 3))
    directory = str(tmp_path / "shards")
    engine.snapshot_shards(directory)
    restored = ShardedDictionaryEngine.restore_shards(directory,
                                                      block_size=16)
    assert restored.items() == engine.items()


def test_restore_from_missing_manifest_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="manifest"):
        ShardedDictionaryEngine.restore_shards(str(tmp_path / "nowhere"))


def test_restore_from_manifest_with_malformed_entry(tmp_path):
    import json
    import os

    engine = build_engine("b-tree", shards=2)
    engine.insert_many((key, key) for key in range(50))
    directory = str(tmp_path / "shards")
    manifest = engine.snapshot_shards(directory)
    del manifest["shards"][1]["kind"]
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(ConfigurationError, match="shard entry 1"):
        ShardedDictionaryEngine.restore_shards(directory, block_size=16)


def test_heterogeneous_shards_roundtrip(tmp_path):
    engine = make_sharded_engine(EngineConfig(
        inner=["b-tree", "treap", "memory-skiplist"], shards=3, seed=9,
        block_size=16))
    keys = random.Random(7).sample(range(10_000), 200)
    engine.insert_many((key, key) for key in keys)
    assert engine.structure.inner_names == ["b-tree", "treap",
                                            "memory-skiplist"]
    engine.check()
    directory = str(tmp_path / "hetero")
    engine.snapshot_shards(directory)
    restored = ShardedDictionaryEngine.restore_shards(directory,
                                                      block_size=16)
    assert restored.structure.inner_names == engine.structure.inner_names
    assert list(restored) == sorted(keys)


# --------------------------------------------------------------------------- #
# Uniform ConfigurationError contract
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("extra", [
    {"shards": 0},
    {"shards": -2},
    {"shards": True},
    {"shards": "4"},
    {"inner": "no-such-structure"},
    {"inner": "sharded"},
    {"inner": ["b-tree"]},            # wrong per-shard count (default 4)
    {"inner": 17},
    {"inner": ["b-tree", 17, "treap", "treap"]},
    {"inner_params": "epsilon=0.2"},
    {"gamma": 1},                      # undeclared extra param
])
def test_bad_shard_configs_raise_configuration_error(extra):
    with pytest.raises(ConfigurationError):
        make_dictionary("sharded", **extra)


def test_empty_shard_list_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="at least one shard"):
        ShardedDictionary([])


def test_sharded_engine_rejects_unsharded_structures():
    with pytest.raises(ConfigurationError, match="ShardedDictionary"):
        ShardedDictionaryEngine(make_dictionary("b-tree"))


def test_engine_surfaces_configuration_error_for_protocol_gaps():
    """Bulk ops and range probes on a duck-typed structure missing parts of
    the dictionary protocol fail with ConfigurationError, not AttributeError.
    """

    class NotADictionary:
        def contains(self, key):
            return False

        def io_stats(self):
            from repro.memory.stats import IOStats
            return IOStats()

    engine = DictionaryEngine(NotADictionary(), name="bogus")
    with pytest.raises(ConfigurationError, match="range_query"):
        engine.range_io_cost(0, 10)
    with pytest.raises(ConfigurationError, match="insert"):
        engine.insert_many([(1, 1)])
    with pytest.raises(ConfigurationError, match="delete"):
        engine.delete_many([1])
    with pytest.raises(ConfigurationError, match="insert"):
        engine.build_from_trace(zipf_mixed_trace(10, seed=0))


def test_unknown_structure_through_engine_create_is_uniform():
    with pytest.raises(ConfigurationError, match="unknown structure"):
        DictionaryEngine.create("no-such-structure")
    with pytest.raises(ConfigurationError, match="unknown structure"):
        DictionaryEngine.create("sharded", inner="no-such-structure")


def test_registry_create_returns_the_sharded_engine():
    engine = DictionaryEngine.create("sharded", shards=2, inner="b-tree",
                                     seed=1)
    assert isinstance(engine, ShardedDictionaryEngine)
    assert engine.name == "sharded"
    assert engine.num_shards == 2


def test_sharded_routing_is_stable_across_builds():
    """The same key set shards identically in two independent engines."""
    keys = random.Random(8).sample(range(40_000), 300)
    first = build_engine("b-tree", seed=1)
    second = build_engine("b-tree", seed=999)  # different structure seed
    first.insert_many((key, key) for key in keys)
    second.insert_many((key, key) for key in keys)
    assert [sorted(shard) for shard in
            (list(s) for s in first.structure.shards)] == \
        [sorted(shard) for shard in
            (list(s) for s in second.structure.shards)]

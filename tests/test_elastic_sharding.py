"""Elastic sharding: routers, key-migration rebalancing, parallel dispatch.

The migration-correctness suite the resize path is gated on:

* after ``add_shard`` / ``remove_shard`` the differential oracle still holds
  (same keys, same values, same merged order, invariants pass);
* only the keys consistent hashing predicts move — computed independently of
  the implementation from the before/after ring assignments — and a single
  add stays under the ``2 * n / shards`` acceptance bound;
* strongly-HI inners end byte-identical to a fresh canonical build of the
  final configuration (the grown store is indistinguishable from one born
  at that size);
* the parallel engine's results and final layouts are byte-identical to the
  sequential engine's.
"""

import bisect
import os
import random
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    ConsistentHashRouter,
    EngineConfig,
    ModuloRouter,
    ProcessShardedDictionaryEngine,
    ShardedDictionaryEngine,
    WeightedConsistentHashRouter,
    hash_key,
    make_dictionary,
    make_router,
    make_sharded_engine,
    shard_index,
)
from repro.api.routing import _mix64
from repro.errors import ConfigurationError
from repro.replication import open_durable_engine
from repro.workloads import elastic_churn_trace

pytestmark = pytest.mark.fast

N_KEYS = 600


def keyset(seed=1, count=N_KEYS):
    return random.Random(seed).sample(range(200_000), count)


def build(inner="b-tree", shards=3, router="consistent", seed=7, **kwargs):
    return make_sharded_engine(EngineConfig(inner=inner, shards=shards,
                                            seed=seed, block_size=16,
                                            router=router, **kwargs))


# --------------------------------------------------------------------------- #
# Routers
# --------------------------------------------------------------------------- #

def test_modulo_router_matches_the_pr2_routing():
    router = ModuloRouter()
    for key in list(range(300)) + ["alpha", (1, 2), None, 2.5]:
        for shards in (1, 2, 5):
            assert router.route(key, list(range(shards))) == \
                shard_index(key, shards)


def test_consistent_router_is_deterministic_and_balanced():
    router = ConsistentHashRouter(vnodes=64)
    ids = [0, 1, 2, 3]
    counts = [0] * 4
    for key in range(4_000):
        position = router.route(key, ids)
        assert position == ConsistentHashRouter(vnodes=64).route(key, ids)
        counts[position] += 1
    # vnodes keep every shard's arc share within a few x of uniform.
    assert min(counts) > 300


def test_consistent_router_spreads_non_integer_keys():
    """Regression: string keys hash to a 32-bit CRC, which sat below every
    64-bit vnode position and collapsed all non-integer keys onto one shard
    until the ring re-avalanches the key position to 64 bits.
    """
    router = ConsistentHashRouter(vnodes=64)
    ids = [0, 1, 2, 3]
    counts = [0] * 4
    for index in range(1_000):
        counts[router.route("key-%d" % index, ids)] += 1
    assert min(counts) > 100
    engine = build(inner="b-tree")
    engine.insert_many(("name-%03d" % index, index) for index in range(300))
    assert min(engine.shard_sizes()) > 0
    engine.check()


def test_consistent_router_ignores_shard_count_for_survivors():
    """Removing an id never re-routes keys between the surviving shards."""
    router = ConsistentHashRouter(vnodes=48)
    ids = [0, 1, 2, 3]
    survivors = [0, 1, 3]
    for key in range(2_000):
        before = ids[router.route(key, ids)]
        after = survivors[router.route(key, survivors)]
        if before != 2:
            assert after == before


def test_router_equal_keys_route_identically():
    router = ConsistentHashRouter()
    for shards in ([0, 1], [0, 1, 2, 5]):
        assert router.route(True, shards) == router.route(1, shards)
        assert router.route(2.0, shards) == router.route(2, shards)


ROUTERS = (ModuloRouter(), ConsistentHashRouter(vnodes=8),
           WeightedConsistentHashRouter(weights={0: 0.5, 2: 3.0}, vnodes=8))

#: Every key type ``hash_key`` takes: ints of any size and sign, bools,
#: integer-valued and other floats, text, bytes and tuples.
ROUTED_KEYS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
    st.booleans(),
    st.integers(min_value=-10 ** 15, max_value=10 ** 15).map(float),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(), st.text(max_size=3)),
)


@st.composite
def resized_shard_ids(draw):
    """A shard-id tuple as ``add_shard`` (largest live id plus one) and
    ``remove_shard`` (any position, one shard left at least) leave it."""
    ids = list(range(draw(st.integers(min_value=1, max_value=4))))
    for grow in draw(st.lists(st.booleans(), max_size=6)):
        if grow or len(ids) == 1:
            ids.append(max(ids) + 1)
        else:
            ids.pop(draw(st.integers(min_value=0, max_value=len(ids) - 1)))
    return tuple(ids)


def per_key_route(router, key, shard_ids):
    """The routing rule as first written, one key at a time (the
    reference a batch must match: manifests persist routing)."""
    if isinstance(router, ConsistentHashRouter):
        positions, owners = router._ring(tuple(shard_ids))
        index = bisect.bisect_left(positions, _mix64(hash_key(key)))
        return owners[index if index < len(positions) else 0]
    return hash_key(key) % len(shard_ids)


@settings(max_examples=150, deadline=None)
@given(router=st.sampled_from(ROUTERS),
       keys=st.lists(ROUTED_KEYS, max_size=40),
       shard_ids=resized_shard_ids())
def test_route_many_routes_every_key_as_route_does(router, keys, shard_ids):
    """A batch routes each key where ``route`` and the per-key rule send
    it, for every router, key type and resized shard-id tuple."""
    routed = router.route_many(keys, shard_ids)
    assert routed == [router.route(key, shard_ids) for key in keys]
    assert routed == [per_key_route(router, key, shard_ids) for key in keys]
    assert router.route_many(iter(keys), list(shard_ids)) == routed


@pytest.mark.parametrize("router", ROUTERS, ids=lambda router: router.name)
def test_routing_over_no_shards_is_a_configuration_error(router):
    with pytest.raises(ConfigurationError, match="empty shard list"):
        router.route_many([1, "a"], ())
    with pytest.raises(ConfigurationError, match="empty shard list"):
        router.route(1, [])


@pytest.mark.parametrize("bad", [0, -3, True, "64", 1.5])
def test_consistent_router_rejects_bad_vnodes(bad):
    with pytest.raises(ConfigurationError):
        ConsistentHashRouter(vnodes=bad)


def test_make_router_specs():
    assert isinstance(make_router("modulo"), ModuloRouter)
    router = make_router({"name": "consistent", "vnodes": 7})
    assert isinstance(router, ConsistentHashRouter) and router.vnodes == 7
    assert make_router(router) is router
    for bad in ("ring", {"name": "consistent", "rings": 2}, 17):
        with pytest.raises(ConfigurationError):
            make_router(bad)
    with pytest.raises(ConfigurationError):
        make_router("modulo", vnodes=8)
    with pytest.raises(ConfigurationError):
        make_router(router, vnodes=8)
    with pytest.raises(ConfigurationError, match="twice"):
        make_router({"name": "consistent", "vnodes": 4}, vnodes=8)
    # A spec without vnodes combined with an explicit argument is fine.
    assert make_router({"name": "consistent"}, vnodes=8).vnodes == 8


@pytest.mark.parametrize("extra", [
    {"router": "ring"},
    {"router": 3},
    {"vnodes": 0},
    {"router": "consistent", "vnodes": -1},
    {"router": "modulo", "vnodes": 32},
])
def test_bad_router_configs_raise_configuration_error(extra):
    with pytest.raises(ConfigurationError):
        make_dictionary("sharded", inner="b-tree", **extra)


# --------------------------------------------------------------------------- #
# Migration correctness: the differential oracle survives resizes
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("router", ["modulo", "consistent"])
@pytest.mark.parametrize("inner", ["b-tree", "hi-skiplist", "hi-pma"])
def test_resizes_preserve_the_oracle(router, inner):
    engine = build(inner=inner, router=router)
    keys = keyset(2)
    expected = {key: key * 3 for key in keys}
    engine.insert_many((key, key * 3) for key in keys)

    def oracle_holds():
        assert len(engine) == len(expected)
        assert list(engine) == sorted(expected)
        assert engine.items() == sorted(expected.items())
        assert sum(engine.shard_sizes()) == len(expected)
        engine.check()  # includes every-key-routes-to-its-shard

    engine.add_shard()
    oracle_holds()
    engine.add_shard()
    oracle_holds()
    engine.remove_shard(1)
    oracle_holds()
    engine.remove_shard(engine.num_shards - 1)
    oracle_holds()
    # The store stays fully operational after the churn.
    probe = keys[::7]
    assert engine.contains_many(probe) == [True] * len(probe)
    assert engine.delete_many(probe) == [expected[key] for key in probe]
    assert engine.search(keys[1]) == expected[keys[1]]


def test_resize_during_elastic_churn_workload():
    engine = build(inner="hi-skiplist", shards=2)
    trace = elastic_churn_trace(800, phases=2, seed=5)
    peak = len(trace) // 2
    engine.build_from_trace(trace[:peak])
    engine.add_shard()
    engine.build_from_trace(trace[peak:])
    engine.remove_shard(0)
    engine.check()


# --------------------------------------------------------------------------- #
# Migration volume: only the predicted keys move
# --------------------------------------------------------------------------- #

def test_add_shard_moves_only_consistent_hash_predicted_keys():
    engine = build()
    keys = keyset(3)
    engine.insert_many((key, key) for key in keys)
    structure = engine.structure
    before = {key: structure.shard_of(key) for key in keys}
    router = ConsistentHashRouter(vnodes=structure.router.vnodes)
    predicted = {key for key in keys
                 if router.route(key, [0, 1, 2]) != router.route(key, [0, 1, 2, 3])}

    report = engine.add_shard()

    after = {key: structure.shard_of(key) for key in keys}
    moved = {key for key in keys if before[key] != after[key]}
    assert moved == predicted
    assert report.moved_keys == len(predicted)
    # Everything that moves on a grow flows to the new shard, nowhere else.
    assert all(after[key] == 3 for key in moved)
    assert report.received_per_target[:-1] == (0, 0, 0)


def test_add_shard_migration_bound_is_2n_over_shards():
    """Acceptance criterion: a single add moves at most 2 * n / shards keys."""
    engine = build(shards=4)
    keys = keyset(4, count=2_000)
    engine.insert_many((key, key) for key in keys)
    report = engine.add_shard()
    assert report.new_shards == 5
    assert report.moved_keys <= 2 * len(keys) / 5
    assert report.moved_keys > 0


def test_remove_shard_moves_only_the_departing_shards_keys():
    engine = build(shards=4)
    keys = keyset(5)
    engine.insert_many((key, key) for key in keys)
    structure = engine.structure
    victim = 2
    departing = set(structure.shards[victim])
    stayers = {key: structure.shard_of(key) for key in keys
               if key not in departing}

    report = engine.remove_shard(victim)

    assert report.moved_keys == len(departing)
    for key, old_position in stayers.items():
        new_position = old_position - (1 if old_position > victim else 0)
        assert structure.shard_of(key) == new_position
    engine.check()


def test_modulo_resize_is_the_expensive_baseline():
    """The contrast the routers exist for: modulo reshuffles, the ring not."""
    keys = keyset(6, count=1_000)
    reports = {}
    for router in ("modulo", "consistent"):
        engine = build(router=router, shards=4)
        engine.insert_many((key, key) for key in keys)
        reports[router] = engine.add_shard()
    assert reports["consistent"].moved_keys < reports["modulo"].moved_keys / 2
    assert reports["modulo"].moved_fraction > 0.5


# --------------------------------------------------------------------------- #
# History independence across migration
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", ["b-treap", "treap"])
def test_grown_store_is_byte_identical_to_a_fresh_build(inner):
    """Strongly-HI inners: a store grown 3 -> 4 equals one born with 4.

    add_shard gives the new shard (id 3) the seed a fresh 4-shard build
    gives its shard 3, and migration re-inserts in canonical order, so the
    layouts must match byte for byte — the resize leaves no scar.
    """
    keys = keyset(7, count=300)
    grown = build(inner=inner, shards=3, seed=42)
    grown.insert_many((key, key) for key in keys)
    grown.add_shard()

    fresh = build(inner=inner, shards=4, seed=42)
    fresh.insert_many((key, key) for key in keys)

    assert grown.structure.shard_ids == fresh.structure.shard_ids
    assert grown.structure.audit_fingerprint() == \
        fresh.structure.audit_fingerprint()
    assert list(grown.structure.snapshot_slots()) == \
        list(fresh.structure.snapshot_slots())
    # The layouts tell the seeds apart; height and sorted slots do not.
    assert [layout_of(shard) for shard in grown.structure.shards] == \
        [layout_of(shard) for shard in fresh.structure.shards]


@pytest.mark.parametrize("inner", ["b-treap", "treap"])
def test_a_restarted_store_grows_like_a_fresh_build(inner):
    """A restart rebuilds the lost shard with its original seed.

    So after its keys are re-inserted, the store grown 3 -> 4 still equals
    one born with 4: ``restart_workers()`` leaves the build record as it
    was, and the new shard's seed follows from its id.
    """
    keys = keyset(7, count=300)
    grown = build(inner=inner, shards=3, seed=42, parallel="process")
    try:
        grown.insert_many((key, key) for key in keys)
        record = grown.structure.build_record
        seeds = dict(record.shard_seeds)
        lost = [key for key in keys if grown.structure.shard_of(key) == 0]
        os.kill(grown.worker_pids()[0], signal.SIGKILL)  # hosts shard 0
        deadline = time.time() + 5.0
        while not grown.dead_shard_positions() and time.time() < deadline:
            time.sleep(0.02)
        assert grown.restart_workers() == [0]
        assert grown.structure.build_record is record
        assert record.shard_seeds == seeds
        grown.insert_many((key, key) for key in lost)
        grown.add_shard()

        fresh = build(inner=inner, shards=4, seed=42)
        fresh.insert_many((key, key) for key in keys)

        assert grown.structure.audit_fingerprint() == \
            fresh.structure.audit_fingerprint()
        assert list(grown.structure.snapshot_slots()) == \
            list(fresh.structure.snapshot_slots())
    finally:
        grown.close()


def test_resized_layout_is_independent_of_insertion_history():
    """Strongly-HI shards stay history independent through resizes.

    Two stores built from different permutations of the same key set, both
    grown and then shrunk the same way, must end in byte-identical layouts:
    neither the original insertion order nor the migration itself may leave
    a trace (migration re-inserts in canonical order, and every build draws
    per-shard seeds from the same stream).
    """
    keys = keyset(8, count=300)
    shuffled = list(keys)
    random.Random(99).shuffle(shuffled)
    digests = []
    for ordering in (keys, shuffled):
        engine = build(inner="b-treap", shards=3, seed=9)
        engine.insert_many((key, key) for key in ordering)
        engine.add_shard()
        engine.remove_shard(1)
        engine.check()
        digests.append((engine.structure.audit_fingerprint(),
                        list(engine.structure.snapshot_slots())))
    assert digests[0] == digests[1]


def test_engine_survives_structure_level_resizes():
    """Resizing through `engine.structure` must not desync the engine.

    ShardedDictionary.add_shard/remove_shard are public API (the elastic
    workload docs suggest calling them directly), so the engine's per-shard
    wrappers are derived from the live shard list, not cached at
    construction.
    """
    engine = build(inner="b-tree", shards=2)
    keys = keyset(14, count=200)
    engine.insert_many((key, key) for key in keys[:100])
    engine.structure.add_shard()
    engine.insert_many((key, key) for key in keys[100:])
    assert len(engine.shard_engines) == 3
    assert engine.search_io_cost(keys[150]) >= 0
    engine.structure.remove_shard(0)
    assert engine.contains_many(keys) == [True] * len(keys)
    assert len(engine.shard_engines) == 2
    _pairs, costs = engine.range_io_cost_breakdown(min(keys), max(keys))
    assert len(costs) == 2
    engine.check()


def test_restore_rebuilds_with_the_snapshotted_build_parameters(tmp_path):
    """The manifest records block size / cache / extras, so a default
    restore measures I/O like the engine the images came from."""
    engine = make_sharded_engine(EngineConfig(
        inner="hi-skiplist", shards=3, block_size=16, cache_blocks=2, seed=21,
        router="consistent", inner_params={"epsilon": 0.25}))
    engine.insert_many((key, key) for key in keyset(15, count=200))
    directory = str(tmp_path / "params")
    manifest = engine.snapshot_shards(directory)
    assert manifest["build"] == {"block_size": 16, "cache_blocks": 2,
                                 "seed": 21,
                                 "inner_params": {"epsilon": 0.25},
                                 "shard_seeds": [draw(21, shard_id)
                                                 for shard_id in range(3)]}
    restored = ShardedDictionaryEngine.restore_shards(directory)
    # hi-skiplist snapshot slots are bare keys (values restore as None).
    assert list(restored) == list(engine)
    assert restored.shard_sizes() == engine.shard_sizes()
    for shard in restored.structure.shards:
        assert shard.block_size == 16
    # The persisted seed makes restores reproducible run to run: two
    # default restores build byte-identical engines.
    again = ShardedDictionaryEngine.restore_shards(directory)
    assert again.structure.audit_fingerprint() == \
        restored.structure.audit_fingerprint()
    # Explicit keywords still override the manifest.
    coarse = ShardedDictionaryEngine.restore_shards(directory, block_size=64)
    assert coarse.structure.shards[0].block_size == 64


def test_resized_store_snapshot_restores_with_its_routing(tmp_path):
    engine = build(inner="b-tree", shards=3,
                   router={"name": "consistent", "vnodes": 32})
    keys = keyset(9, count=250)
    engine.insert_many((key, key * 2) for key in keys)
    engine.add_shard()
    engine.remove_shard(0)
    directory = str(tmp_path / "elastic")
    manifest = engine.snapshot_shards(directory)
    assert manifest["router"] == {"name": "consistent", "vnodes": 32}
    assert manifest["shard_ids"] == [1, 2, 3]
    restored = ShardedDictionaryEngine.restore_shards(directory,
                                                      block_size=16)
    assert restored.items() == engine.items()
    assert restored.structure.shard_ids == engine.structure.shard_ids
    assert restored.shard_sizes() == engine.shard_sizes()
    restored.check()


# --------------------------------------------------------------------------- #
# Shard seeds follow shard ids
# --------------------------------------------------------------------------- #

#: The store seed of the seed-rule histories.
RULE_SEED = 2016


def draw(seed, shard_id):
    """Draw number ``shard_id`` of ``random.Random(seed)``: the seed the
    shard with id ``shard_id`` of a store seeded with ``seed`` gets."""
    rng = random.Random(seed)
    for _draw in range(shard_id):
        rng.getrandbits(64)
    return rng.getrandbits(64)


def layout_of(shard):
    """A shard's full canonical layout (its treap's blocks), read from its
    worker when it lives in one.  The audit fingerprint (the height) and
    the sorted slot array are too coarse here: many seeds share them."""
    primary = getattr(shard, "primary", None)
    if primary is not None:
        return primary.call("memory_representation")
    return shard.memory_representation()


def assert_seeds_follow_ids(engine, seed=RULE_SEED):
    """Every live shard is laid out like a fresh b-treap built with draw
    ``shard_id`` of ``random.Random(seed)`` and holding the same pairs: a
    strongly-HI layout is a function of the key set and the seed."""
    structure = engine.structure
    for shard_id, shard in zip(structure.shard_ids, structure.shards):
        pairs = shard.items()
        assert len(pairs) > 20, "a small shard matches too many seeds"
        twin = make_dictionary("b-treap", block_size=16,
                               seed=draw(seed, shard_id))
        for key, value in pairs:
            twin.insert(key, value)
        assert layout_of(shard) == twin.memory_representation(), \
            "shard id %d was not built with draw %d" % (shard_id, shard_id)


def test_shard_seeds_follow_ids_in_a_fresh_build():
    engine = build(inner="b-treap", shards=4, seed=RULE_SEED)
    engine.insert_many((key, key) for key in keyset(21, count=300))
    assert_seeds_follow_ids(engine)


def test_shard_seeds_follow_ids_through_grow_shrink_cycles():
    engine = build(inner="b-treap", shards=3, seed=RULE_SEED)
    engine.insert_many((key, key) for key in keyset(22, count=300))
    for position in (1, 0, 2):
        engine.add_shard()
        assert_seeds_follow_ids(engine)
        engine.remove_shard(position)
        assert_seeds_follow_ids(engine)
    assert engine.structure.shard_ids == (2, 3, 5)


def test_shard_seeds_follow_ids_after_restart_workers():
    engine = build(inner="b-treap", shards=3, seed=RULE_SEED,
                   parallel="process")
    try:
        keys = keyset(23, count=300)
        engine.insert_many((key, key) for key in keys)
        lost = [key for key in keys if engine.structure.shard_of(key) == 0]
        os.kill(engine.worker_pids()[0], signal.SIGKILL)  # hosts shard 0
        deadline = time.time() + 5.0
        while not engine.dead_shard_positions() and time.time() < deadline:
            time.sleep(0.02)
        assert engine.restart_workers() == [0]
        engine.insert_many((key, key) for key in lost)
        assert_seeds_follow_ids(engine)
        engine.add_shard()
        assert_seeds_follow_ids(engine)
    finally:
        engine.close()


def test_shard_seeds_follow_ids_after_a_close_reopen_grow(tmp_path):
    """A reopened store gives a re-used shard id the seed it had: the id,
    not a draw counter that survived the removal, picks the seed."""
    directory = str(tmp_path / "store")
    engine = build(inner="b-treap", shards=3, seed=RULE_SEED,
                   parallel="process", durability_dir=directory)
    try:
        engine.insert_many((key, key) for key in keyset(24, count=300))
        engine.add_shard()
        engine.remove_shard(3)
    finally:
        engine.close()
    reopened = open_durable_engine(directory)
    try:
        reopened.add_shard()
        assert reopened.structure.shard_ids == (0, 1, 2, 3)
        assert_seeds_follow_ids(reopened)
    finally:
        reopened.close()


def test_the_next_shard_id_does_not_depend_on_a_reopen(tmp_path):
    """The next shard id is the largest live id plus one, so a store that
    was closed and reopened after a removal grows exactly like one that
    stayed open: the same ids, seeds and layouts."""

    def grow_shrink_grow(directory, reopen):
        engine = build(inner="b-treap", shards=2, seed=RULE_SEED,
                       parallel="process", durability_dir=directory)
        try:
            engine.add_shard()
            engine.add_shard()
            engine.insert_many([(1, 1), (8, 8)])
            engine.remove_shard(3)
            if reopen:
                engine.close()
                engine = open_durable_engine(directory)
            engine.add_shard()
            return (engine.structure.shard_ids, engine.items(),
                    [layout_of(shard) for shard in engine.structure.shards])
        finally:
            engine.close()

    stayed_open = grow_shrink_grow(str(tmp_path / "open"), reopen=False)
    assert stayed_open[0] == (0, 1, 2, 3)
    assert grow_shrink_grow(str(tmp_path / "reopened"), reopen=True) \
        == stayed_open


def test_shard_seeds_follow_ids_in_a_restored_resized_store(tmp_path):
    """Each shard is rebuilt under its manifest id with its recorded seed,
    so the restored store is the snapshotted one, byte for byte."""
    engine = build(inner="b-treap", shards=3, seed=RULE_SEED)
    engine.insert_many((key, key) for key in keyset(21, count=300))
    engine.add_shard()
    engine.remove_shard(0)
    directory = str(tmp_path / "snapshot")
    engine.snapshot_shards(directory)
    restored = ShardedDictionaryEngine.restore_shards(directory)
    assert restored.structure.shard_ids == (1, 2, 3)
    assert_seeds_follow_ids(restored)
    assert restored.items() == engine.items()
    assert restored.structure.audit_fingerprint() == \
        engine.structure.audit_fingerprint()
    assert [layout_of(shard) for shard in restored.structure.shards] == \
        [layout_of(shard) for shard in engine.structure.shards]


# --------------------------------------------------------------------------- #
# Resize configuration errors
# --------------------------------------------------------------------------- #

def test_resize_misuse_raises_configuration_error():
    engine = build(shards=2)
    engine.insert_many((key, key) for key in range(40))
    with pytest.raises(ConfigurationError, match="position"):
        engine.remove_shard(5)
    with pytest.raises(ConfigurationError, match="position"):
        engine.remove_shard(-1)
    with pytest.raises(ConfigurationError, match="not both"):
        engine.add_shard(shard=make_dictionary("b-tree"), inner="b-tree")
    with pytest.raises(ConfigurationError, match="start empty"):
        loaded = make_dictionary("b-tree", block_size=16)
        loaded.insert(1, 1)
        engine.add_shard(shard=loaded)
    with pytest.raises(ConfigurationError, match="nest"):
        engine.add_shard(inner="sharded")
    engine.remove_shard(1)
    with pytest.raises(ConfigurationError, match="last shard"):
        engine.remove_shard(0)


def test_failed_migration_rolls_back_to_the_pre_resize_state():
    """A mid-migration inner failure must not lose keys.

    The migration plan is executed with an undo log: when the added shard
    refuses an insert partway through, every key already deleted from a
    source is re-inserted and every key already landed on a target is
    removed, so the store surfaces the error in its pre-resize state.
    """
    from repro.btree.btree import BTree

    class Refusing(BTree):
        """A b-tree that fails after accepting a few migrated keys."""

        def __init__(self, allow=3):
            super().__init__(block_size=16)
            self._allow = allow

        def insert(self, key, value=None):
            if self._allow <= 0:
                raise RuntimeError("shard out of space")
            self._allow -= 1
            super().insert(key, value)

    engine = build(inner="b-tree", shards=3, seed=6)
    keys = keyset(12, count=400)
    engine.insert_many((key, key * 2) for key in keys)
    before_items = engine.items()
    before_sizes = engine.shard_sizes()
    with pytest.raises(RuntimeError, match="out of space"):
        engine.add_shard(shard=Refusing())
    assert engine.num_shards == 3
    assert engine.shard_sizes() == before_sizes
    assert engine.items() == before_items
    assert engine.structure.shard_ids == (0, 1, 2)
    engine.check()
    # The store stays fully operational after the aborted resize, and the
    # rollback also restored the id counter and the construction seed
    # stream: a grow after a failed grow is indistinguishable from a grow
    # with no failed attempt before (same ids, same per-shard layouts).
    report = engine.add_shard()
    assert report.new_shards == 4
    assert engine.structure.shard_ids == (0, 1, 2, 3)
    engine.check()
    clean = build(inner="b-tree", shards=3, seed=6)
    clean.insert_many((key, key * 2) for key in keys)
    clean.add_shard()
    assert engine.structure.audit_fingerprint() == \
        clean.structure.audit_fingerprint()


def test_failed_shard_build_restores_the_seed_stream():
    """A failed add_shard must not leave a trace in the build record.

    The stored inner_params are invalid for a different inner, so the new
    shard's build fails; the next successful grow still matches a fresh
    build seed for seed.
    """
    def make():
        engine = build(inner="hi-skiplist", shards=3, seed=13,
                       inner_params={"epsilon": 0.2})
        engine.insert_many((key, key) for key in keyset(13, count=200))
        return engine

    engine = make()
    with pytest.raises(ConfigurationError, match="epsilon"):
        engine.add_shard(inner="b-tree")
    engine.add_shard()
    clean = make()
    clean.add_shard()
    assert engine.structure.shard_ids == clean.structure.shard_ids
    assert engine.structure.audit_fingerprint() == \
        clean.structure.audit_fingerprint()


def test_registry_io_series_rejects_router_without_shards():
    from repro.analysis.scaling import registry_io_series

    with pytest.raises(ConfigurationError, match="shards"):
        registry_io_series(["b-tree"], [100], router="consistent")
    with pytest.raises(ConfigurationError, match="shards"):
        registry_io_series(["b-tree"], [100], vnodes=16)


def test_hand_assembled_store_needs_an_explicit_shard():
    from repro.api import ShardedDictionary

    structure = ShardedDictionary([make_dictionary("b-tree"),
                                   make_dictionary("b-tree")])
    with pytest.raises(ConfigurationError, match="pre-built"):
        structure.add_shard()
    report = structure.add_shard(shard=make_dictionary("b-tree"))
    assert report.new_shards == 3


# --------------------------------------------------------------------------- #
# Parallel (process) engine: byte-identical to sequential
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", ["b-tree", "hi-skiplist"])
def test_parallel_engine_matches_sequential_byte_for_byte(inner):
    keys = keyset(10)
    probes = keys[::5] + [-7, 10**9]
    victims = keys[10:80]

    def drive(parallel):
        engine = build(inner=inner, shards=4, seed=3, parallel=parallel)
        assert engine.insert_many((key, key * 5) for key in keys) == len(keys)
        contains = engine.contains_many(probes)
        deleted = engine.delete_many(victims)
        pairs, costs = engine.range_io_cost_breakdown(min(keys), max(keys))
        return engine, contains, deleted, pairs, costs

    sequential, s_contains, s_deleted, s_pairs, s_costs = drive(False)
    parallel, p_contains, p_deleted, p_pairs, p_costs = drive("process")
    try:
        assert isinstance(parallel, ProcessShardedDictionaryEngine)
        assert not isinstance(sequential, ProcessShardedDictionaryEngine)
        assert p_contains == s_contains
        assert p_deleted == s_deleted
        assert p_pairs == s_pairs
        assert p_costs == s_costs and len(p_costs) == 4
        assert parallel.items() == sequential.items()
        assert parallel.structure.audit_fingerprint() == \
            sequential.structure.audit_fingerprint()
        assert list(parallel.structure.snapshot_slots()) == \
            list(sequential.structure.snapshot_slots())
    finally:
        parallel.close()


def test_parallel_engine_resizes_like_the_sequential_engine():
    keys = keyset(11)
    engines = [build(parallel=mode, seed=4) for mode in ("none", "process")]
    try:
        for engine in engines:
            engine.insert_many((key, key) for key in keys)
            report = engine.add_shard()
            assert report.moved_keys <= 2 * len(keys) / engine.num_shards
            engine.check()
        assert engines[0].structure.audit_fingerprint() == \
            engines[1].structure.audit_fingerprint()
    finally:
        engines[1].close()


def test_parallel_engine_rejects_bad_max_workers():
    for bad in (0, -2, True, "4"):
        with pytest.raises(ConfigurationError):
            build(parallel="process", max_workers=bad)
    with pytest.raises(ConfigurationError, match="process"):
        build(parallel=False, max_workers=4)
    with build(parallel="process", max_workers=2) as engine:
        engine.insert_many((key, key) for key in range(200))
        assert len(engine) == 200


# --------------------------------------------------------------------------- #
# range_io_cost breakdown (bugfix regression)
# --------------------------------------------------------------------------- #

def test_range_io_cost_breakdown_reports_shard_order_costs():
    engine = build(inner="b-tree", shards=3)
    engine.insert_many((key, key) for key in range(0, 3_000, 7))
    pairs, costs = engine.range_io_cost_breakdown(100, 2_000)
    assert len(costs) == 3
    assert all(cost >= 0 for cost in costs)
    merged_pairs, total = engine.range_io_cost(100, 2_000)
    assert merged_pairs == pairs
    assert total == sum(costs)


def test_range_fan_out_raises_for_rangeless_inner_instead_of_skipping():
    from repro.api import ShardedDictionary

    class NoRange:
        registry_name = "no-range"

        def __init__(self):
            self._data = {}

        def insert(self, key, value=None):
            self._data[key] = value

        def contains(self, key):
            return key in self._data

        def io_stats(self):
            from repro.memory.stats import IOStats
            return IOStats()

        def __len__(self):
            return len(self._data)

        def __iter__(self):
            return iter(sorted(self._data))

    shards = [make_dictionary("b-tree"), NoRange(), make_dictionary("b-tree")]
    engine = ShardedDictionaryEngine(ShardedDictionary(shards))
    with pytest.raises(ConfigurationError, match="shard 1"):
        engine.range_io_cost(0, 10)
    with pytest.raises(ConfigurationError, match="range_query"):
        engine.range_io_cost_breakdown(0, 10)


def test_hash_key_is_stable_for_common_key_types():
    assert hash_key(True) == hash_key(1)
    assert hash_key(2.0) == hash_key(2)
    assert hash_key("alpha") == hash_key("alpha")
    assert hash_key((1, 2)) != hash_key((2, 1))

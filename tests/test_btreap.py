"""The blocked B-treap: dictionary behaviour, block packing, I/O accounting."""

import copy
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.btreap import BTreap
from repro.errors import ConfigurationError, DuplicateKey, KeyNotFound
from repro.treap import Treap

pytestmark = pytest.mark.fast


# --------------------------------------------------------------------------- #
# Construction and basic behaviour
# --------------------------------------------------------------------------- #

def test_rejects_tiny_block_size():
    with pytest.raises(ConfigurationError):
        BTreap(block_size=1)


def test_levels_per_block_matches_log_of_block_size():
    assert BTreap(block_size=2).levels_per_block == 1
    assert BTreap(block_size=7).levels_per_block == 3
    assert BTreap(block_size=64).levels_per_block == 6
    assert BTreap(block_size=255).levels_per_block == 8


def test_insert_search_delete_roundtrip():
    btreap = BTreap(block_size=16, seed=0)
    for key in range(100):
        btreap.insert(key, key * 3)
    assert len(btreap) == 100
    assert btreap.search(42) == 126
    assert btreap.delete(42) == 126
    assert 42 not in btreap
    assert len(btreap) == 99


def test_duplicate_and_missing_key_errors():
    btreap = BTreap(block_size=8, seed=1)
    btreap.insert(5, "x")
    with pytest.raises(DuplicateKey):
        btreap.insert(5, "y")
    with pytest.raises(KeyNotFound):
        btreap.search(6)
    with pytest.raises(KeyNotFound):
        btreap.delete(6)


def test_upsert_counts_single_entry():
    btreap = BTreap(block_size=8, seed=1)
    assert btreap.upsert(3, "a") is False
    assert btreap.upsert(3, "b") is True
    assert btreap.search(3) == "b"
    assert len(btreap) == 1


def test_iteration_and_items_sorted():
    btreap = BTreap(block_size=8, seed=2)
    keys = random.Random(0).sample(range(10_000), 300)
    for key in keys:
        btreap.insert(key, None)
    assert list(btreap) == sorted(keys)
    assert [key for key, _value in btreap.items()] == sorted(keys)


def test_range_query_matches_filter():
    btreap = BTreap(block_size=16, seed=3)
    for key in range(0, 500, 5):
        btreap.insert(key, key)
    result = [key for key, _value in btreap.range_query(100, 200)]
    assert result == list(range(100, 201, 5))


# --------------------------------------------------------------------------- #
# Block decomposition
# --------------------------------------------------------------------------- #

def test_block_map_covers_all_keys_exactly_once():
    btreap = BTreap(block_size=16, seed=4)
    keys = list(range(500))
    for key in keys:
        btreap.insert(key, None)
    blocks = btreap.block_map()
    flattened = sorted(key for block in blocks.values() for key in block)
    assert flattened == keys


def test_blocks_respect_stratum_node_limit():
    btreap = BTreap(block_size=16, seed=5)
    for key in range(1000):
        btreap.insert(key, None)
    limit = (1 << btreap.levels_per_block) - 1
    assert all(len(block) <= limit for block in btreap.block_map().values())
    btreap.check()


def test_block_height_is_ceiling_of_height_over_levels():
    btreap = BTreap(block_size=16, seed=6)
    for key in range(200):
        btreap.insert(key, None)
    expected = math.ceil(btreap.height / btreap.levels_per_block)
    assert btreap.block_height == expected


def test_num_blocks_grows_with_content():
    btreap = BTreap(block_size=8, seed=7)
    assert btreap.num_blocks() == 0
    for key in range(300):
        btreap.insert(key, None)
    assert btreap.num_blocks() >= 300 // ((1 << btreap.levels_per_block) - 1)


# --------------------------------------------------------------------------- #
# Strong history independence (canonical representation)
# --------------------------------------------------------------------------- #

def test_memory_representation_is_order_independent():
    keys = random.Random(1).sample(range(10_000), 400)
    first = BTreap(block_size=32, seed=11)
    second = BTreap(block_size=32, seed=11)
    for key in keys:
        first.insert(key, key)
    for key in sorted(keys, reverse=True):
        second.insert(key, key)
    assert first.memory_representation() == second.memory_representation()


def test_memory_representation_survives_insert_delete_detour():
    first = BTreap(block_size=32, seed=12)
    second = BTreap(block_size=32, seed=12)
    for key in range(0, 200, 2):
        first.insert(key, key)
        second.insert(key, key)
    for key in range(1, 200, 2):
        second.insert(key, key)
    for key in range(1, 200, 2):
        second.delete(key)
    assert first.memory_representation() == second.memory_representation()


# --------------------------------------------------------------------------- #
# I/O accounting
# --------------------------------------------------------------------------- #

def test_search_io_is_cheaper_than_node_depth():
    btreap = BTreap(block_size=64, seed=13)
    keys = random.Random(2).sample(range(100_000), 2000)
    for key in keys:
        btreap.insert(key, None)
    sample = random.Random(3).sample(keys, 100)
    for key in sample:
        ios = btreap.search_io_cost(key)
        assert ios <= math.ceil(btreap.height / btreap.levels_per_block)
        assert ios >= 1


def test_average_search_io_near_log_base_b():
    btreap = BTreap(block_size=64, seed=14)
    n = 3000
    keys = random.Random(4).sample(range(1_000_000), n)
    for key in keys:
        btreap.insert(key, None)
    sample = random.Random(5).sample(keys, 200)
    costs = [btreap.search_io_cost(key) for key in sample]
    expected = math.log(n, btreap.block_size)
    assert sum(costs) / len(costs) < 4 * (expected + 1)


def test_updates_charge_reads_and_writes():
    btreap = BTreap(block_size=16, seed=15)
    btreap.insert(1, "a")
    assert btreap.stats.reads >= 1
    assert btreap.stats.writes >= 1
    before_writes = btreap.stats.writes
    btreap.delete(1)
    assert btreap.stats.writes > before_writes


def walked_height(node):
    """The subtree height by a full recursive walk, ignoring stored heights."""
    if node is None:
        return 0
    return 1 + max(walked_height(node.left), walked_height(node.right))


def run_and_predict(btreap, op, key):
    """Run one operation; return the ``(reads, writes)`` it should charge.

    The prediction uses the formulas the B-treap charged before its
    operations became single walks, recomputed here from the treap's own
    ``search_comparisons`` and ``depth_of`` and a full-walk height.
    """
    treap = btreap._treap
    blocks = lambda depth: max(1, btreap.blocks_on_path(depth))
    probe = blocks(treap.search_comparisons(key))
    if key not in treap:
        if op in ("insert", "upsert"):
            getattr(btreap, op)(key, key)
            return probe, blocks(treap.depth_of(key))
        if op == "contains":
            assert not btreap.contains(key)
        else:
            with pytest.raises(KeyNotFound):
                getattr(btreap, op)(key)
        return probe, 0
    depth = treap.depth_of(key)
    if op == "insert":
        with pytest.raises(DuplicateKey):
            btreap.insert(key, key)
        return probe, 0
    if op == "upsert":
        assert btreap.upsert(key, key) is True
        return blocks(depth), blocks(treap.depth_of(key))
    if op == "delete":
        assert btreap.delete(key) == key
        return blocks(depth), blocks(max(depth, walked_height(treap.root)))
    assert btreap.contains(key) if op == "contains" \
        else btreap.search(key) == key
    return probe, 0


def insert_one_by_one(structure, pairs):
    """Insert ``pairs`` key by key up to the first failure; return the
    failure as ``(type, args)`` (``None`` if every pair went in)."""
    try:
        for key, value in pairs:
            structure.insert(key, value)
    except Exception as error:
        return type(error), error.args
    return None


def insert_as_batch(structure, pairs):
    """``insert_one_by_one`` through one ``insert_many`` call."""
    try:
        structure.insert_many(pairs)
    except Exception as error:
        return type(error), error.args
    return None


def batch_for(rng, btreap, pool):
    """One ``insert_many`` batch: a run above the maximum, an unsorted
    batch (which may hit stored keys), or a run with a duplicate in the
    middle."""
    top = max(btreap, default=-1)
    run = list(range(top + 1, top + 2 + rng.randrange(12)))
    kind = rng.randrange(3)
    if kind == 0:
        keys = run
    elif kind == 1:
        keys = rng.sample(pool, rng.randrange(1, 9))
    else:
        middle = len(run) // 2
        keys = run[:middle + 1] + run[middle:]
    return [(key, key) for key in keys]


def run_batch_and_predict(btreap, pairs):
    """Run one ``insert_many``; return the ``(reads, writes)`` a per-key
    twin charges for the same pairs, after checking that the batch raised
    what the twin raised and left the same layout."""
    twin = copy.deepcopy(btreap)
    reads, writes = twin.stats.reads, twin.stats.writes
    assert insert_as_batch(btreap, pairs) == insert_one_by_one(twin, pairs)
    assert btreap.memory_representation() == twin.memory_representation()
    return twin.stats.reads - reads, twin.stats.writes - writes


@pytest.mark.parametrize("seed", range(4))
def test_charges_match_the_walk_formulas_after_every_operation(seed):
    """Every operation of a trace that deletes and re-inserts the same keys
    charges what the formulas predict — an ``insert_many`` batch what a
    per-key twin charges — and afterwards every stored height equals a
    full walk."""
    rng = random.Random(seed)
    btreap = BTreap(block_size=rng.choice((2, 7, 16)), seed=seed)
    pool = list(range(80))
    ops = ("insert", "insert", "delete", "delete", "upsert", "contains",
           "search", "insert_many")
    for _step in range(400):
        op, key = rng.choice(ops), rng.choice(pool)
        reads, writes = btreap.stats.reads, btreap.stats.writes
        if op == "insert_many":
            expected = run_batch_and_predict(btreap,
                                             batch_for(rng, btreap, pool))
        else:
            expected = run_and_predict(btreap, op, key)
        assert (btreap.stats.reads - reads,
                btreap.stats.writes - writes) == expected, (op, key)
        stack = [btreap._treap.root] if len(btreap) else []
        while stack:
            node = stack.pop()
            assert node.height == walked_height(node), (op, key)
            stack.extend(child for child in (node.left, node.right)
                         if child is not None)
    assert btreap.stats.operations > 0
    btreap.check()


def arrival_priority():
    """A history-dependent priority: the insertion counter (the negative
    control of ``tests/test_treap.py``)."""
    counter = itertools.count(1)
    return lambda _key: next(counter)


def refusing_priority(treap):
    """The treap's own priority, except that keys 16 mod 17 raise."""
    salted = treap._priority_of

    def priority_of(key):
        if key % 17 == 16:
            raise ValueError("no priority for %r" % (key,))
        return salted(key)
    return priority_of


def build_twinnable(structure, priority, block_size, seed):
    built = Treap(seed=seed) if structure == "treap" \
        else BTreap(block_size=block_size, seed=seed)
    treap = built if structure == "treap" else built._treap
    if priority == "arrival":
        treap._priority_of = arrival_priority()
    elif priority == "refusing":
        treap._priority_of = refusing_priority(treap)
    return built


def observed(structure):
    """Layout, every node's stored height, both stats objects, and size."""
    treap = structure if isinstance(structure, Treap) else structure._treap
    nodes = []
    stack = [treap.root] if treap.root is not None else []
    while stack:
        node = stack.pop()
        nodes.append((node.key, node.value, node.priority, node.height))
        stack.extend(child for child in (node.right, node.left)
                     if child is not None)
    stats = [vars(treap.stats), vars(structure.stats)]
    return structure.memory_representation(), nodes, stats, len(structure)


@settings(max_examples=60, deadline=None)
@example(seed=5, structure="treap", priority="salted", block_size=8,
         steps=[("mixed", [1])])
@example(seed=5, structure="b-treap", priority="salted", block_size=8,
         steps=[("mixed", [1])])
@given(seed=st.integers(min_value=0, max_value=2**32),
       structure=st.sampled_from(("treap", "b-treap")),
       priority=st.sampled_from(("salted", "arrival", "refusing")),
       block_size=st.sampled_from((2, 4, 16, 64)),
       steps=st.lists(st.tuples(
           st.sampled_from(("run", "unsorted", "mixed", "delete")),
           st.lists(st.integers(min_value=0, max_value=40), max_size=24)),
           min_size=1, max_size=8))
def test_property_insert_many_matches_per_key_inserts(seed, structure,
                                                      priority, block_size,
                                                      steps):
    """``insert_many`` leaves exactly what per-key inserts into a twin
    leave — layout, stored heights, both stats objects, the size and the
    error — for runs above the maximum (with duplicates and an unsorted
    tail), unsorted batches, and a run ending in a key that cannot be
    compared (the examples: ``[(0, 0), (1, 1), ("x", 2)]`` links and
    counts two keys, then raises the per-key ``TypeError``), under
    salted, insertion-counter and raising priorities."""
    bulk = build_twinnable(structure, priority, block_size, seed)
    twin = build_twinnable(structure, priority, block_size, seed)
    for kind, values in steps:
        if kind == "delete":
            held = set(twin)  # iteration charges nothing; ``in`` would
            for key in sorted(held.intersection(values)):
                assert bulk.delete(key) == twin.delete(key)
            continue
        top = max(twin, default=-1)
        run = sorted(top + 1 + value for value in values)
        if kind == "run":
            keys = run + values[::4]
        elif kind == "unsorted":
            keys = values
        else:
            keys = [top + 1] + run + ["x"]
        pairs = [(key, index) for index, key in enumerate(keys)]
        assert insert_as_batch(bulk, pairs) == insert_one_by_one(twin, pairs)
        assert observed(bulk) == observed(twin)
        bulk.check()


def test_blocks_on_path_arithmetic():
    btreap = BTreap(block_size=16, seed=16)
    levels = btreap.levels_per_block
    assert btreap.blocks_on_path(0) == 0
    assert btreap.blocks_on_path(1) == 1
    assert btreap.blocks_on_path(levels) == 1
    assert btreap.blocks_on_path(levels + 1) == 2


# --------------------------------------------------------------------------- #
# Property-based invariants
# --------------------------------------------------------------------------- #

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.integers(min_value=-500, max_value=500),
                min_size=1, max_size=100))
def test_property_matches_python_dict(seed, operations):
    btreap = BTreap(block_size=8, seed=seed)
    shadow = {}
    for key in operations:
        if key in shadow:
            assert btreap.delete(key) == shadow.pop(key)
        else:
            btreap.insert(key, key)
            shadow[key] = key
    assert sorted(shadow) == list(btreap)
    btreap.check()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sets(st.integers(min_value=0, max_value=5000), min_size=1, max_size=80))
def test_property_block_map_partitions_keys(seed, keys):
    btreap = BTreap(block_size=8, seed=seed)
    for key in keys:
        btreap.insert(key, None)
    flattened = sorted(key for block in btreap.block_map().values() for key in block)
    assert flattened == sorted(keys)

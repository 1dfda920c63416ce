"""The history-independent external-memory skip list (Theorem 3)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DuplicateKey, InvariantViolation, KeyNotFound
from repro.skiplist.external import HistoryIndependentSkipList

pytestmark = pytest.mark.fast


def _filled(keys, block_size=32, epsilon=0.2, seed=0):
    skiplist = HistoryIndependentSkipList(block_size=block_size, epsilon=epsilon,
                                          seed=seed)
    for key in keys:
        skiplist.insert(key, key)
    return skiplist


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        HistoryIndependentSkipList(block_size=1)
    with pytest.raises(ConfigurationError):
        HistoryIndependentSkipList(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        HistoryIndependentSkipList(epsilon=1.5)


def test_gamma_and_promotion_probability():
    skiplist = HistoryIndependentSkipList(block_size=64, epsilon=0.5, seed=0)
    assert skiplist.gamma == pytest.approx(0.75)
    assert skiplist.promote_probability == pytest.approx(64 ** -0.75)
    assert skiplist.leaf_floor == math.ceil(64 ** 0.75)


def test_empty():
    skiplist = HistoryIndependentSkipList(seed=0)
    assert len(skiplist) == 0
    assert not skiplist.contains(1)
    with pytest.raises(KeyNotFound):
        skiplist.search(1)
    with pytest.raises(KeyNotFound):
        skiplist.delete(1)
    assert skiplist.range_query(0, 10) == ([], 0) or skiplist.range_query(0, 10)[0] == []
    skiplist.check()


def test_insert_search_iterate(medium_keys):
    skiplist = _filled(medium_keys, seed=1)
    assert list(skiplist) == sorted(medium_keys)
    assert len(skiplist) == len(medium_keys)
    rng = random.Random(1)
    for key in rng.sample(medium_keys, 150):
        assert skiplist.search(key) == key
    skiplist.check()


def test_duplicate_rejected():
    skiplist = HistoryIndependentSkipList(seed=2)
    skiplist.insert(3, "a")
    with pytest.raises(DuplicateKey):
        skiplist.insert(3, "b")


def test_delete_all_orders(medium_keys):
    skiplist = _filled(medium_keys, block_size=16, seed=3)
    rng = random.Random(3)
    order = list(medium_keys)
    rng.shuffle(order)
    for index, key in enumerate(order):
        assert skiplist.delete(key) == key
        if index % 400 == 0:
            skiplist.check()
    assert len(skiplist) == 0
    skiplist.check()


def test_mixed_workload_matches_dict(medium_keys):
    rng = random.Random(4)
    skiplist = HistoryIndependentSkipList(block_size=16, epsilon=0.3, seed=4)
    shadow = {}
    pool = list(medium_keys)
    for step in range(3000):
        do_delete = shadow and (not pool or rng.random() < 0.4)
        if do_delete:
            key = rng.choice(list(shadow))
            assert skiplist.delete(key) == shadow.pop(key)
        else:
            key = pool.pop()
            skiplist.insert(key, key)
            shadow[key] = key
        if step % 1000 == 0:
            skiplist.check()
    assert list(skiplist) == sorted(shadow)
    skiplist.check()


def test_items_and_level_of(small_keys):
    skiplist = _filled(small_keys, seed=5)
    assert skiplist.items() == [(key, key) for key in sorted(small_keys)]
    assert all(skiplist.level_of(key) >= 0 for key in small_keys)


def test_range_query_matches_slice(medium_keys):
    skiplist = _filled(medium_keys, seed=6)
    ordered = sorted(medium_keys)
    low, high = ordered[300], ordered[1200]
    expected = [(key, key) for key in ordered if low <= key <= high]
    result, ios = skiplist.range_query(low, high)
    assert result == expected
    assert ios >= 1
    assert skiplist.range_query(high, low) == ([], 0)


def test_range_query_io_is_search_plus_scan(medium_keys):
    block_size = 32
    skiplist = _filled(medium_keys, block_size=block_size, seed=7)
    ordered = sorted(medium_keys)
    low, high = ordered[100], ordered[100 + 640 - 1]
    result, ios = skiplist.range_query(low, high)
    k = len(result)
    search_bound = 6 * (math.log(len(medium_keys), block_size) / skiplist.epsilon + 1)
    # Lemma 21: O(log_B N / ε + k/B); the scan term dominates here.
    assert ios <= search_bound + 6 * k / block_size + 8


def test_space_is_linear(medium_keys):
    """Lemma 22: Θ(N) space despite per-array slack."""
    skiplist = _filled(medium_keys, block_size=16, epsilon=0.3, seed=8)
    slots = skiplist.total_slots()
    n = len(medium_keys)
    assert slots >= n
    assert slots <= 12 * n + 4 * skiplist.leaf_floor


def test_leaf_structure_consistency(medium_keys):
    skiplist = _filled(medium_keys, block_size=16, seed=9)
    assert sum(skiplist.leaf_array_sizes()) == len(medium_keys)
    assert sum(1 for _ in skiplist.leaf_node_sizes()) >= 1
    skiplist.check()


def test_promotion_probability_matches_b_gamma(medium_keys):
    block_size = 16
    skiplist = _filled(medium_keys, block_size=block_size, epsilon=0.2, seed=10)
    promoted = sum(1 for key in medium_keys if skiplist.level_of(key) >= 1)
    expected = len(medium_keys) * skiplist.promote_probability
    assert abs(promoted - expected) <= 4 * math.sqrt(expected) + 5


def test_search_cost_is_logarithmic_and_tight(medium_keys):
    block_size = 64
    skiplist = _filled(medium_keys, block_size=block_size, epsilon=0.2, seed=11)
    rng = random.Random(11)
    costs = [skiplist.search_io_cost(key) for key in rng.sample(medium_keys, 300)]
    # Theorem 3: O(log_B N) whp — even the max should be a small constant here.
    assert max(costs) <= 6 * math.log(len(medium_keys), block_size) + 6
    assert min(costs) >= 1


def test_worst_case_insert_is_bounded(medium_keys):
    block_size = 32
    skiplist = HistoryIndependentSkipList(block_size=block_size, epsilon=0.2, seed=12)
    worst = 0
    for key in medium_keys:
        worst = max(worst, skiplist.insert(key, key))
    # Lemma 19: worst case O(B^ε log N) I/Os.
    bound = 20 * (block_size ** skiplist.epsilon) * math.log2(len(medium_keys))
    assert worst <= bound


def test_node_rebuild_counter_increments(medium_keys):
    skiplist = _filled(medium_keys, block_size=8, epsilon=0.3, seed=13)
    counters = skiplist.stats.counters
    assert counters.get("skiplist.node_rebuild", 0) > 0
    assert counters.get("skiplist.array_split", 0) + counters.get("skiplist.node_split", 0) > 0


def test_memory_representation_structure(small_keys):
    skiplist = _filled(small_keys, seed=14)
    representation = dict(skiplist.memory_representation())
    assert "leaf_nodes" in representation
    assert "levels" in representation
    stored = [slot for node in representation["leaf_nodes"] for slot in node
              if slot is not None]
    assert sorted(stored) == sorted(small_keys)


def _first_with(condition):
    """The first of 100 seeded skip lists over 0..299 that meets ``condition``."""
    for seed in range(100):
        skiplist = _filled(range(300), block_size=4, epsilon=0.4, seed=seed)
        if condition(skiplist):
            return skiplist
    raise AssertionError("no seed meets the condition")


def test_search_raises_when_a_node_boundary_has_no_leaf_node():
    skiplist = _first_with(lambda candidate: candidate.level_of(150) == 2)
    del skiplist._nodes[150]
    with pytest.raises(InvariantViolation):
        skiplist.contains(150)
    with pytest.raises(InvariantViolation):
        skiplist.insert(150.5)


def test_search_raises_when_the_leaf_node_has_no_array_at_the_index():
    skiplist = _first_with(lambda candidate: candidate.level_of(150) == 1)
    node = skiplist._nodes[skiplist._levels.predecessor(2, 150)]
    del node.arrays[1:]
    with pytest.raises(InvariantViolation):
        skiplist.contains(150)
    with pytest.raises(InvariantViolation):
        skiplist.delete(150)
    node.arrays.clear()
    with pytest.raises(InvariantViolation):
        skiplist.search_io_cost(150)


def test_search_raises_when_a_level_one_boundary_does_not_start_its_array():
    skiplist = _first_with(lambda candidate: candidate.level_of(150) == 1)
    node = skiplist._nodes[skiplist._levels.predecessor(2, 150)]
    array = next(array for array in node.arrays if array.start == 150)
    array.start = 149.5
    with pytest.raises(InvariantViolation):
        skiplist.contains(150)
    with pytest.raises(InvariantViolation):
        skiplist.delete(150)
    with pytest.raises(InvariantViolation):
        skiplist.range_query(150, 160)
    # A level-1 key missing from S_1, after another level-1 key: the search
    # lands on that key's array, which the delete must not merge away.
    skiplist = _first_with(lambda candidate: candidate.level_of(150) == 1 and (
        candidate.level_of(candidate._levels.predecessor(1, 149)) == 1))
    skiplist._levels._levels[0].remove(150)
    with pytest.raises(InvariantViolation):
        skiplist.delete(150)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                          st.integers(min_value=0, max_value=60)),
                min_size=1, max_size=120))
def test_hi_skiplist_behaves_like_a_set(seed, operations):
    skiplist = HistoryIndependentSkipList(block_size=4, epsilon=0.4, seed=seed)
    shadow = {}
    for kind, key in operations:
        if kind == "insert":
            if key in shadow:
                with pytest.raises(DuplicateKey):
                    skiplist.insert(key, key)
            else:
                skiplist.insert(key, key)
                shadow[key] = key
        else:
            if key in shadow:
                assert skiplist.delete(key) == shadow.pop(key)
            else:
                with pytest.raises(KeyNotFound):
                    skiplist.delete(key)
    assert list(skiplist) == sorted(shadow)
    skiplist.check()


# --------------------------------------------------------------------------- #
# insert_many: the run above the maximum against a key-by-key twin
# --------------------------------------------------------------------------- #

def _observables(skiplist):
    stats = skiplist.io_stats()
    return (skiplist.memory_representation(), skiplist.items(),
            stats.reads, stats.writes, stats.operations, dict(stats.counters),
            skiplist.last_operation_ios, skiplist._rng.getstate(),
            skiplist._leaf_rule._rng.getstate())


def _one_key_at_a_time(skiplist, pairs):
    try:
        for key, value in pairs:
            skiplist.insert(key, value)
    except (DuplicateKey, TypeError) as error:
        return type(error), str(error)
    return None


def _as_one_batch(skiplist, pairs):
    try:
        skiplist.insert_many(pairs)
    except (DuplicateKey, TypeError) as error:
        return type(error), str(error)
    return None


def _ascending(rng, after, count):
    keys = []
    for _ in range(count):
        after += rng.randrange(1, 4)
        keys.append(after)
    return keys


@pytest.mark.parametrize("block_size", [4, 8, 64])
@pytest.mark.parametrize("seed", range(7))
def test_insert_many_links_a_run_exactly_as_a_key_by_key_twin(seed,
                                                              block_size):
    """Runs of thousands of keys above the maximum (from empty, after
    deletes at the tail, after keys below the maximum, broken by a
    duplicate or by a key that does not compare) leave the same layout,
    items, charges, counters and both generator states as inserting one
    key at a time, and raise the same error."""
    rng = random.Random(seed * 31 + block_size)
    bulk = HistoryIndependentSkipList(block_size=block_size, seed=seed)
    twin = HistoryIndependentSkipList(block_size=block_size, seed=seed)
    for step in range(6):
        held = list(twin)
        keys = _ascending(rng, held[-1] if held else 0,
                          rng.randrange(1000, 2000 if step else 3000))
        if step == 2:
            # Starts below the maximum: the head goes key by key.
            stored = set(held)
            keys = rng.sample([key for key in range(held[-1])
                               if key not in stored], 5) + keys
        elif step == 3:
            keys.insert(rng.randrange(1, len(keys)), rng.choice(held))
        elif step == 4:
            keys.insert(rng.randrange(1, len(keys)), "not an int")
        pairs = [(key, -key if isinstance(key, int) else key)
                 for key in keys]
        expected = _one_key_at_a_time(twin, pairs)
        assert _as_one_batch(bulk, pairs) == expected, step
        assert _observables(bulk) == _observables(twin), step
        if step == 1:
            # Deletes at the tail merge arrays and nodes back.
            for key in list(twin)[-40:]:
                twin.delete(key)
                bulk.delete(key)
    bulk.check()
    counters = bulk.io_stats().counters
    for name in ("array_split", "node_split", "node_rebuild"):
        assert counters.get("skiplist." + name, 0) > 0, name


def test_insert_many_counts_only_what_it_linked():
    skiplist = HistoryIndependentSkipList(block_size=8, seed=3)
    assert skiplist.insert_many([]) == 0
    assert skiplist.insert_many((key, key) for key in range(1, 101)) == 100
    with pytest.raises(DuplicateKey):
        skiplist.insert_many([(200, 0), (100, 0), (300, 0)])
    assert list(skiplist)[-2:] == [100, 200]
    assert 300 not in skiplist
    skiplist.check()

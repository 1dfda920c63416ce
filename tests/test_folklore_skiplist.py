"""The folklore B-skip list (promotion probability 1/B)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DuplicateKey, KeyNotFound
from repro.skiplist.folklore import FolkloreBSkipList

pytestmark = pytest.mark.fast


def _filled(keys, block_size=32, seed=0):
    skiplist = FolkloreBSkipList(block_size=block_size, seed=seed)
    for key in keys:
        skiplist.insert(key, key)
    return skiplist


def test_block_size_validation():
    with pytest.raises(ConfigurationError):
        FolkloreBSkipList(block_size=1)


def test_empty():
    skiplist = FolkloreBSkipList(seed=0)
    assert len(skiplist) == 0
    assert not skiplist.contains(1)
    with pytest.raises(KeyNotFound):
        skiplist.search(1)
    with pytest.raises(KeyNotFound):
        skiplist.delete(1)
    skiplist.check()


def test_insert_search_delete(medium_keys):
    skiplist = _filled(medium_keys, seed=1)
    assert list(skiplist) == sorted(medium_keys)
    rng = random.Random(1)
    for key in rng.sample(medium_keys, 100):
        assert skiplist.search(key) == key
    victims = rng.sample(medium_keys, 500)
    for key in victims:
        assert skiplist.delete(key) == key
    assert list(skiplist) == sorted(set(medium_keys) - set(victims))
    skiplist.check()


def test_duplicate_rejected():
    skiplist = FolkloreBSkipList(seed=2)
    skiplist.insert(1, "a")
    with pytest.raises(DuplicateKey):
        skiplist.insert(1, "b")


def test_promotion_probability_is_one_over_block(medium_keys):
    block_size = 16
    skiplist = _filled(medium_keys, block_size=block_size, seed=3)
    promoted = sum(1 for key in medium_keys if skiplist.level_of(key) >= 1)
    fraction = promoted / len(medium_keys)
    assert abs(fraction - 1 / block_size) < 0.03


def test_leaf_array_sizes_partition_all_keys(medium_keys):
    skiplist = _filled(medium_keys, seed=4)
    assert sum(skiplist.leaf_array_sizes()) == len(medium_keys)


def test_leaf_arrays_have_expected_length_B(medium_keys):
    block_size = 16
    skiplist = _filled(medium_keys, block_size=block_size, seed=5)
    sizes = skiplist.leaf_array_sizes()
    average = sum(sizes) / len(sizes)
    assert block_size / 3 <= average <= 3 * block_size


def test_search_costs_have_a_heavy_tail(medium_keys):
    """Lemma 15's phenomenon: some arrays are much longer than B, so the
    worst-case search cost is a multiple of the typical cost."""
    block_size = 8
    skiplist = _filled(medium_keys, block_size=block_size, seed=6)
    costs = [skiplist.search_io_cost(key) for key in medium_keys]
    typical = sorted(costs)[len(costs) // 2]
    assert max(costs) >= typical + 2


def test_range_query_returns_pairs_and_cost(medium_keys):
    skiplist = _filled(medium_keys, seed=7)
    ordered = sorted(medium_keys)
    low, high = ordered[200], ordered[900]
    expected = [(key, key) for key in ordered if low <= key <= high]
    result, ios = skiplist.range_query(low, high)
    assert result == expected
    assert ios >= math.ceil(len(expected) / skiplist.block_size)
    empty, cost = skiplist.range_query(high, low)
    assert empty == [] and cost == 0


def test_insert_returns_positive_io_cost():
    skiplist = FolkloreBSkipList(block_size=8, seed=8)
    total = 0
    for key in range(100):
        total += skiplist.insert(key, key)
    assert total >= 100
    assert skiplist.stats.reads > 0
    assert skiplist.stats.writes > 0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                          st.integers(min_value=0, max_value=60)),
                min_size=1, max_size=100))
def test_folklore_skiplist_behaves_like_a_set(seed, operations):
    skiplist = FolkloreBSkipList(block_size=4, seed=seed)
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

"""The in-memory treap: dictionary behaviour, unique representation, invariants."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKey, InvariantViolation, KeyNotFound
from repro.treap.treap import SaltedPriority, Treap, salted_priority

pytestmark = pytest.mark.fast


# --------------------------------------------------------------------------- #
# Basic dictionary behaviour
# --------------------------------------------------------------------------- #

def test_insert_and_search():
    treap = Treap(seed=0)
    treap.insert(5, "five")
    treap.insert(3, "three")
    treap.insert(9, "nine")
    assert treap.search(3) == "three"
    assert treap.search(9) == "nine"
    assert len(treap) == 3


def test_contains_and_membership_operator():
    treap = Treap(seed=0)
    treap.insert(1, None)
    assert treap.contains(1)
    assert 1 in treap
    assert 2 not in treap


def test_search_missing_raises():
    treap = Treap(seed=0)
    treap.insert(1, None)
    with pytest.raises(KeyNotFound):
        treap.search(7)


def test_duplicate_insert_raises():
    treap = Treap(seed=0)
    treap.insert(4, "a")
    with pytest.raises(DuplicateKey):
        treap.insert(4, "b")


def test_upsert_overwrites_and_inserts():
    treap = Treap(seed=0)
    assert treap.upsert(2, "old") is False
    assert treap.upsert(2, "new") is True
    assert treap.search(2) == "new"
    assert len(treap) == 1


def test_delete_returns_value_and_shrinks():
    treap = Treap(seed=0)
    for key in range(20):
        treap.insert(key, key * 10)
    assert treap.delete(7) == 70
    assert 7 not in treap
    assert len(treap) == 19
    with pytest.raises(KeyNotFound):
        treap.delete(7)


def test_iteration_is_sorted():
    treap = Treap(seed=1)
    keys = random.Random(3).sample(range(1000), 200)
    for key in keys:
        treap.insert(key, None)
    assert list(treap) == sorted(keys)
    assert treap.keys() == sorted(keys)


def test_items_pairs_keys_with_values():
    treap = Treap(seed=1)
    assert treap.insert_many([(2, "b"), (1, "a"), (3, "c")]) == 3
    assert treap.items() == [(1, "a"), (2, "b"), (3, "c")]


def test_minimum_maximum_successor_predecessor():
    treap = Treap(seed=2)
    for key in (10, 20, 30, 40):
        treap.insert(key, str(key))
    assert treap.minimum() == (10, "10")
    assert treap.maximum() == (40, "40")
    assert treap.successor(20) == (30, "30")
    assert treap.successor(40) is None
    assert treap.predecessor(20) == (10, "10")
    assert treap.predecessor(10) is None


def test_minimum_on_empty_raises():
    with pytest.raises(KeyNotFound):
        Treap(seed=0).minimum()
    with pytest.raises(KeyNotFound):
        Treap(seed=0).maximum()


def test_range_query_inclusive_bounds():
    treap = Treap(seed=3)
    for key in range(0, 100, 2):
        treap.insert(key, key)
    result = treap.range_query(10, 20)
    assert [key for key, _value in result] == [10, 12, 14, 16, 18, 20]
    assert treap.range_query(21, 10) == []
    assert treap.range_query(1, 1) == []


def test_depth_of_found_and_missing():
    treap = Treap(seed=4)
    for key in range(50):
        treap.insert(key, None)
    assert treap.depth_of(25) >= 1
    with pytest.raises(KeyNotFound):
        treap.depth_of(1000)


def test_empty_treap_properties():
    treap = Treap(seed=0)
    assert len(treap) == 0
    assert treap.height == 0
    assert list(treap) == []
    assert treap.range_query(0, 10) == []
    treap.check()


# --------------------------------------------------------------------------- #
# Unique representation / history independence
# --------------------------------------------------------------------------- #

def test_same_seed_same_keys_identical_representation():
    keys = list(range(64))
    first = Treap(seed=42)
    second = Treap(seed=42)
    for key in keys:
        first.insert(key, key)
    for key in reversed(keys):
        second.insert(key, key)
    assert first.memory_representation() == second.memory_representation()


def test_representation_independent_of_insert_delete_detours():
    base = Treap(seed=7)
    detour = Treap(seed=7)
    for key in range(0, 40, 2):
        base.insert(key, key)
        detour.insert(key, key)
    # The detour structure additionally inserts and then removes odd keys.
    for key in range(1, 40, 2):
        detour.insert(key, key)
    for key in range(1, 40, 2):
        detour.delete(key)
    assert base.memory_representation() == detour.memory_representation()


def test_different_seeds_generally_differ():
    first = Treap(seed=1)
    second = Treap(seed=2)
    for key in range(64):
        first.insert(key, None)
        second.insert(key, None)
    assert first.memory_representation() != second.memory_representation()


def test_history_dependent_priority_override_breaks_uniqueness():
    counter = {"next": 0}

    def arrival_priority(_key):
        counter["next"] += 1
        return counter["next"]

    first = Treap(seed=0, priority_of=arrival_priority)
    second = Treap(seed=0, priority_of=arrival_priority)
    keys = list(range(32))
    for key in keys:
        first.insert(key, None)
    for key in reversed(keys):
        second.insert(key, None)
    assert first.memory_representation() != second.memory_representation()


def test_salted_priority_is_deterministic_per_salt():
    salt_a = b"a" * 16
    salt_b = b"b" * 16
    assert salted_priority(salt_a, 123) == salted_priority(salt_a, 123)
    assert salted_priority(salt_a, 123) != salted_priority(salt_b, 123)


def test_salted_priority_object_matches_the_function_and_pickles():
    salt = bytes(range(16))
    priority = SaltedPriority(salt)
    keys = [0, 1, -7, 2**70, "key", ("a", 1), 3.5, None]
    assert [priority(key) for key in keys] \
        == [salted_priority(salt, key) for key in keys]
    revived = pickle.loads(pickle.dumps(priority))
    assert revived.salt == salt
    assert [revived(key) for key in keys] == [priority(key) for key in keys]


def test_a_pickled_treap_keeps_its_shape_and_keeps_working():
    treap = Treap(seed=8)
    for key in range(100):
        treap.insert(key, -key)
    revived = pickle.loads(pickle.dumps(treap))
    assert revived.memory_representation() == treap.memory_representation()
    for copy in (treap, revived):
        copy.insert(1000, 0)
        copy.delete(50)
        copy.check()
    assert revived.memory_representation() == treap.memory_representation()


def test_expected_logarithmic_height():
    rng = random.Random(9)
    n = 2000
    heights = []
    for trial in range(5):
        treap = Treap(seed=rng.getrandbits(64))
        for key in range(n):
            treap.insert(key, None)
        heights.append(treap.height)
    # Expected depth is ~1.39 log2 n ≈ 15; allow generous slack.
    assert max(heights) < 60


# --------------------------------------------------------------------------- #
# Stored subtree heights
# --------------------------------------------------------------------------- #

def walked_height(node):
    """The subtree height by a full recursive walk, ignoring stored heights."""
    if node is None:
        return 0
    return 1 + max(walked_height(node.left), walked_height(node.right))


def assert_heights_are_exact(treap):
    """Every node's stored height equals a recursive walk of its subtree."""
    stack = [treap.root] if treap.root is not None else []
    while stack:
        node = stack.pop()
        assert node.height == walked_height(node), node.key
        stack.extend(child for child in (node.left, node.right)
                     if child is not None)
    assert treap.height == walked_height(treap.root)


@pytest.mark.parametrize("seed", range(5))
def test_stored_heights_match_a_full_walk_after_every_operation(seed):
    rng = random.Random(seed)
    treap = Treap(seed=seed)
    pool = list(range(60))
    stored = set()
    for _step in range(400):
        key = rng.choice(pool)
        if key in stored:
            assert treap.delete(key) == -key
            stored.discard(key)
        else:
            treap.insert(key, -key)
            stored.add(key)
        assert_heights_are_exact(treap)
    assert treap.keys() == sorted(stored)
    assert treap.stats.counters["treap.rotation"] > 0


def test_an_insert_that_splits_a_chain_lowers_the_stored_heights():
    """A high-priority key landing in the middle of a chain rotates up and
    cuts the chain in two, so the heights on its path *shrink* — all the way
    up to the root, two levels above where the new key settles."""
    priorities = {30: 200, 31: 150, 10: 100, 5: 90, 15.5: 80}
    priorities.update({key: 50 - key for key in range(11, 21)})
    priorities.update({key: 40 + key for key in (2, 7, 1, 3, 6, 8)})
    treap = Treap(seed=0, priority_of=priorities.__getitem__)
    for key in [30, 31, 10, 5, 2, 7, 1, 3, 6, 8] + list(range(11, 21)):
        treap.insert(key, None)
    middle = treap.root.left
    assert (treap.root.key, middle.key) == (30, 10)
    assert middle.right.height == 10  # the chain 11, 12, ..., 20
    assert (middle.height, treap.height) == (11, 12)
    treap.insert(15.5, None)
    assert middle.right.key == 15.5
    assert_heights_are_exact(treap)
    assert middle.right.height == 6
    assert (middle.height, treap.height) == (7, 8)
    treap.check()


def test_check_rejects_a_stale_stored_height():
    treap = Treap(seed=1)
    for key in range(20):
        treap.insert(key, None)
    treap.root.height += 1
    with pytest.raises(InvariantViolation):
        treap.check()


# --------------------------------------------------------------------------- #
# Property-based invariants
# --------------------------------------------------------------------------- #

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=120))
def test_property_matches_python_dict(seed, operations):
    treap = Treap(seed=seed)
    shadow = {}
    for key in operations:
        if key in shadow:
            assert treap.delete(key) == shadow.pop(key)
        else:
            treap.insert(key, key * 2)
            shadow[key] = key * 2
        treap.check()
    assert sorted(shadow) == treap.keys()
    for key, value in shadow.items():
        assert treap.search(key) == value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=80),
       st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=500))
def test_property_range_query_matches_filter(seed, keys, low, high):
    treap = Treap(seed=seed)
    for key in keys:
        treap.insert(key, key)
    expected = sorted(key for key in keys if low <= key <= high)
    assert [key for key, _value in treap.range_query(low, high)] == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sets(st.integers(min_value=0, max_value=10_000),
               min_size=1, max_size=100))
def test_property_unique_representation_across_orders(seed, keys):
    ordered = sorted(keys)
    rng = random.Random(seed)
    shuffled = list(keys)
    rng.shuffle(shuffled)
    first = Treap(seed=seed)
    second = Treap(seed=seed)
    for key in ordered:
        first.insert(key, None)
    for key in shuffled:
        second.insert(key, None)
    assert first.memory_representation() == second.memory_representation()

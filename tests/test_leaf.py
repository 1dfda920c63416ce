"""Leaf arrays and leaf nodes of the HI external skip list."""

import pytest

from repro.core.sizing import WHICapacityRule
from repro.errors import InvariantViolation
from repro.skiplist.leaf import LeafArray, LeafNode
from repro.skiplist.levels import FRONT

pytestmark = pytest.mark.fast


@pytest.fixture
def rule():
    return WHICapacityRule(seed=0, floor=8)


def test_leaf_array_initial_capacity_respects_floor(rule):
    array = LeafArray(FRONT, [1, 2, 3], rule)
    assert 8 <= array.capacity <= 15
    array.check(floor=8)


def test_leaf_array_slots_pad_with_gaps(rule):
    array = LeafArray(FRONT, [1, 2], rule)
    slots = array.slots()
    assert len(slots) == array.capacity
    assert slots[:2] == (1, 2)
    assert all(slot is None for slot in slots[2:])


def test_leaf_array_insert_keeps_sorted_order(rule):
    array = LeafArray(FRONT, [10, 30], rule)
    array.insert(20, rule)
    assert array.keys == [10, 20, 30]
    array.check(floor=8)


def test_leaf_array_insert_beyond_floor_triggers_growth(rule):
    array = LeafArray(FRONT, [], rule)
    for key in range(30):
        array.insert(key, rule)
        array.check(floor=8)
    assert array.capacity >= 30


def test_leaf_array_remove_and_missing_key(rule):
    array = LeafArray(FRONT, [1, 2, 3], rule)
    array.remove(2, rule)
    assert array.keys == [1, 3]
    with pytest.raises(InvariantViolation):
        array.remove(99, rule)


def test_leaf_array_redraw_capacity(rule):
    array = LeafArray(FRONT, list(range(20)), rule)
    array.redraw_capacity(rule)
    assert 20 <= array.capacity <= 39
    array.check(floor=8)


def test_leaf_array_check_detects_bad_capacity(rule):
    array = LeafArray(FRONT, [1, 2, 3], rule)
    array.capacity = 2
    with pytest.raises(InvariantViolation):
        array.check(floor=8)


def test_leaf_array_check_detects_unsorted_keys(rule):
    array = LeafArray(FRONT, [1, 2, 3], rule)
    array.keys = [3, 1, 2]
    with pytest.raises(InvariantViolation):
        array.check(floor=8)


def test_leaf_node_length_and_iteration(rule):
    node = LeafNode(FRONT, [LeafArray(FRONT, [1, 2], rule),
                            LeafArray(5, [5, 6, 7], rule)])
    assert len(node) == 5
    assert list(node) == [1, 2, 5, 6, 7]
    assert node.total_slots() == sum(array.capacity for array in node.arrays)
    assert len(node.slots()) == node.total_slots()


def test_leaf_node_rebuild_redraws_every_capacity(rule):
    node = LeafNode(FRONT, [LeafArray(FRONT, list(range(20)), rule),
                            LeafArray(50, list(range(50, 60)), rule)])
    node.rebuild(rule)
    node.check(floor=8)


def test_leaf_node_check_detects_out_of_order_arrays(rule):
    node = LeafNode(FRONT, [LeafArray(5, [5, 6], rule),
                            LeafArray(1, [1, 2], rule)])
    with pytest.raises(InvariantViolation):
        node.check(floor=8)

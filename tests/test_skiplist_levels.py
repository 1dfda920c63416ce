"""Upper-level membership lists shared by the external skip lists."""

import bisect
import math
import random

import pytest

from repro.skiplist.external import HistoryIndependentSkipList
from repro.skiplist.folklore import FolkloreBSkipList
from repro.skiplist.levels import FRONT, SkipListLevels

pytestmark = pytest.mark.fast


def _levels_with(assignments):
    levels = SkipListLevels()
    for key, level in assignments.items():
        levels.add(key, level)
    return levels


def test_empty_levels():
    levels = SkipListLevels()
    assert levels.height == 0
    assert len(levels) == 0
    assert levels.level_of(10) == 0
    assert levels.members(1) == []
    assert levels.predecessor(1, 10) is FRONT
    assert levels.locate(10, 32) == (0, FRONT, FRONT, 0)
    assert list(levels.members_after(1, FRONT)) == []
    assert levels.count_in(1, 0, 10) == 0


def test_add_registers_membership_in_all_lower_levels():
    levels = _levels_with({10: 2, 20: 1})
    assert levels.height == 2
    assert levels.members(1) == [10, 20]
    assert levels.members(2) == [10]
    assert levels.level_of(10) == 2
    assert levels.level_of(20) == 1
    assert 10 in levels and 20 in levels and 30 not in levels


def test_add_zero_level_is_noop():
    levels = SkipListLevels()
    levels.add(5, 0)
    assert 5 not in levels
    assert levels.height == 0


def test_add_duplicate_rejected():
    levels = _levels_with({5: 1})
    with pytest.raises(ValueError):
        levels.add(5, 2)


def test_remove_clears_all_levels_and_shrinks_height():
    levels = _levels_with({10: 3, 20: 1})
    assert levels.remove(10) == 3
    assert levels.height == 1
    assert levels.members(1) == [20]
    assert levels.remove(99) == 0  # unknown keys report level 0


def test_predecessor():
    levels = _levels_with({10: 1, 20: 1, 30: 2})
    assert levels.predecessor(1, 5) is FRONT
    assert levels.predecessor(1, 10) == 10
    assert levels.predecessor(1, 25) == 20
    assert levels.predecessor(2, 25) is FRONT
    assert levels.predecessor(2, 35) == 30


def test_members_after_and_count_in_read_one_level():
    levels = _levels_with({10: 1, 20: 2, 30: 1, 40: 2, 50: 1})
    assert list(levels.members_after(2, FRONT)) == [20, 40]
    assert list(levels.members_after(2, 20)) == [40]
    assert list(levels.members_after(1, 35)) == [40, 50]
    assert list(levels.members_after(3, FRONT)) == []
    assert levels.count_in(1, 10, 40) == 3       # {20, 30, 40}
    assert levels.count_in(1, 5, 9) == 0
    assert levels.count_in(3, 0, 100) == 0


def test_locate_reports_scans_top_down():
    levels = _levels_with({10: 1, 20: 2, 30: 1, 40: 3})
    ios, node_start, array_start, index = levels.locate(35, 1)
    # With one slot per block the charge is the slots scanned.  Level 3
    # holds {40}: nothing <= 35, the scan still reads one slot.  Level 2
    # holds {20, 40}: two slots, and 20 becomes the anchor.  Level 1 holds
    # {10, 20, 30, 40}: scanning past 20 reads 30 and 40.
    assert ios == 1 + 2 + 2
    assert node_start == 20
    assert array_start == 30
    # 30 starts the second array of the leaf node that 20 starts.
    assert index == 1
    assert levels.locate(35, 2)[0] == 3


def test_locate_scan_lengths_are_bounded_by_membership():
    levels = _levels_with({key: 1 for key in range(0, 100, 10)})
    ios, node_start, array_start, index = levels.locate(95, 1)
    assert ios <= 11
    assert node_start is FRONT
    assert array_start == 90
    assert index == 10


def test_check_validates_nesting():
    levels = _levels_with({10: 2, 20: 1})
    levels.check()
    # Corrupt the nesting by reaching into the internals.
    levels._levels[1].append(20)
    levels._levels[1].sort()
    with pytest.raises(ValueError):
        levels.check()


# ---------------------------------------------------------------------- #
# ``locate`` against the descent it replaced
# ---------------------------------------------------------------------- #


def _reference_descend(levels, key):
    """The former per-level descent: ``(level, scanned, anchor)`` top down."""
    steps = []
    anchor = FRONT
    for level in range(levels.height, 0, -1):
        members = levels.members(level)
        low = 0 if anchor is FRONT else bisect.bisect_right(members, anchor)
        high = bisect.bisect_right(members, key)
        scanned = max(1, high - low + 1)
        anchor = members[high - 1] if high > low else anchor
        steps.append((level, scanned, anchor))
    return steps


def _reference_array_for(node, key):
    """The former linear scan for the leaf array covering ``key``."""
    chosen = node.arrays[0]
    for array in node.arrays[1:]:
        if array.start is not FRONT and array.start <= key:
            chosen = array
        else:
            break
    return chosen


def _reference_leaf_array_length(skiplist, start):
    """The former folklore leaf-array length, over a copy of S_1."""
    keys = list(skiplist)
    begin = 0 if start is FRONT else bisect.bisect_left(keys, start)
    boundaries = skiplist._levels.members(1)
    position = 0 if start is FRONT else bisect.bisect_right(boundaries, start)
    if position < len(boundaries):
        end = bisect.bisect_left(keys, boundaries[position])
    else:
        end = len(keys)
    return max(0, end - begin)


def _blocks(slots, block_size):
    return max(1, math.ceil(slots / block_size))


def _check_against_reference(skiplist, key):
    block_size = skiplist.block_size
    levels = skiplist._levels
    steps = _reference_descend(levels, key)
    ios, node_start, array_start, index = levels.locate(key, block_size)
    assert ios == sum(_blocks(scanned, block_size) for _level, scanned, _anchor in steps)
    anchors = {level: anchor for level, _scanned, anchor in steps}
    assert node_start == anchors.get(2, FRONT)
    assert array_start == anchors.get(1, FRONT)
    if isinstance(skiplist, HistoryIndependentSkipList):
        node = skiplist._nodes[levels.predecessor(2, key)]
        array = _reference_array_for(node, key)
        assert node.start == node_start
        assert node.arrays[index] is array
        assert array.start == array_start
        expected = ios + _blocks(array.capacity, block_size)
    else:
        length = _reference_leaf_array_length(skiplist, array_start)
        expected = ios + _blocks(max(1, length), block_size)
    assert skiplist.search_io_cost(key) == expected


@pytest.mark.parametrize("block_size", [2, 4, 32])
@pytest.mark.parametrize("structure", [HistoryIndependentSkipList, FolkloreBSkipList])
def test_locate_matches_the_reference_descent(structure, block_size):
    rng = random.Random(block_size)
    skiplist = structure(block_size=block_size, seed=block_size)
    live = []
    for step in range(700):
        if live and rng.random() < 0.35:
            key = live.pop(rng.randrange(len(live)))
            skiplist.delete(key)
        else:
            key = rng.randrange(5000)
            if key not in live:
                skiplist.insert(key, key)
                live.append(key)
        if step % 10 == 0:
            probes = [-1, 5000, key] + [rng.randrange(5000) for _ in range(3)]
            probes += rng.sample(live, min(3, len(live)))
            for probe in probes:
                _check_against_reference(skiplist, probe)

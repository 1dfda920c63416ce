"""The exact WHI capacity kernel and the WHI dynamic array."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sizing import WHICapacityRule, WHIDynamicArray, capacity_range
from repro.errors import RankError

pytestmark = pytest.mark.fast


# --------------------------------------------------------------------------- #
# capacity_range
# --------------------------------------------------------------------------- #

def test_capacity_range_regular():
    assert capacity_range(10) == (10, 19)


def test_capacity_range_with_floor():
    assert capacity_range(3, floor=8) == (8, 15)
    assert capacity_range(12, floor=8) == (12, 23)


def test_capacity_range_empty():
    assert capacity_range(0) == (0, 0)


# --------------------------------------------------------------------------- #
# Exact distribution preservation (symbolic push-forward)
# --------------------------------------------------------------------------- #

def _insert_pushforward(n):
    """Push the uniform distribution on {n..2n-1} through the insert kernel."""
    new_low, new_high = n + 1, 2 * (n + 1) - 1
    result = {value: Fraction(0) for value in range(new_low, new_high + 1)}
    resize_targets = {2 * n: Fraction(1, 2), 2 * n + 1: Fraction(1, 2)}
    for capacity in range(n, 2 * n):
        weight = Fraction(1, n)
        forced = capacity < new_low
        resize_probability = Fraction(1) if forced else Fraction(1, n + 1)
        keep_probability = 1 - resize_probability
        if not forced:
            result[capacity] += weight * keep_probability
        for target, target_probability in resize_targets.items():
            result[target] += weight * resize_probability * target_probability
    return result


def _delete_pushforward(n):
    """Push the uniform distribution on {n..2n-1} through the delete kernel."""
    new_low, new_high = n - 1, 2 * (n - 1) - 1
    result = {value: Fraction(0) for value in range(new_low, new_high + 1)}
    # Resize target distribution of the kernel.
    targets = {n - 1: Fraction(n, 2 * (n - 1))}
    secondary = list(range(n, 2 * n - 2))
    for value in secondary:
        targets[value] = Fraction(1, 2 * (n - 1))
    for capacity in range(n, 2 * n):
        weight = Fraction(1, n)
        if capacity <= new_high:
            result[capacity] += weight
        else:
            for target, target_probability in targets.items():
                result[target] += weight * target_probability
    return result


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 50])
def test_insert_kernel_preserves_uniformity_exactly(n):
    distribution = _insert_pushforward(n)
    expected = Fraction(1, n + 1)
    assert all(probability == expected for probability in distribution.values())


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 50])
def test_delete_kernel_preserves_uniformity_exactly(n):
    distribution = _delete_pushforward(n)
    expected = Fraction(1, n - 1)
    assert all(probability == expected for probability in distribution.values())


# --------------------------------------------------------------------------- #
# The implemented rule matches the kernel
# --------------------------------------------------------------------------- #

def test_initial_capacity_bounds():
    rule = WHICapacityRule(seed=0)
    for count in (1, 2, 5, 100):
        for _ in range(50):
            capacity = rule.initial_capacity(count)
            assert count <= capacity <= 2 * count - 1
    assert rule.initial_capacity(0) == 0


def test_after_insert_stays_in_range_and_flags_resizes():
    rule = WHICapacityRule(seed=1)
    capacity = rule.initial_capacity(1)
    for count in range(2, 300):
        new_capacity, resized = rule.after_insert(count, capacity)
        assert count <= new_capacity <= 2 * count - 1
        if not resized:
            assert new_capacity == capacity
        capacity = new_capacity


def test_after_delete_stays_in_range():
    rule = WHICapacityRule(seed=2)
    capacity = rule.initial_capacity(300)
    for count in range(299, 0, -1):
        new_capacity, resized = rule.after_delete(count, capacity)
        assert count <= new_capacity <= 2 * count - 1
        if not resized:
            assert new_capacity == capacity
        capacity = new_capacity


def test_after_insert_rejects_non_positive_count():
    with pytest.raises(RankError):
        WHICapacityRule(seed=0).after_insert(0, 1)


def test_after_delete_to_zero():
    rule = WHICapacityRule(seed=0)
    capacity, resized = rule.after_delete(0, 1)
    assert capacity == 0
    assert resized


def test_floored_rule_keeps_capacity_below_floor():
    rule = WHICapacityRule(seed=3, floor=16)
    capacity = rule.initial_capacity(0)
    assert 16 <= capacity <= 31
    for count in range(1, 16):
        capacity, resized = rule.after_insert(count, capacity)
        assert not resized  # the target range is unchanged while count <= floor
        assert 16 <= capacity <= 31
    for count in range(17, 40):
        capacity, _ = rule.after_insert(count, capacity)
        assert count <= capacity <= 2 * count - 1


def test_resize_probability_is_theta_one_over_n():
    """Observation 1 territory: the WHI rule resizes with probability ~2/(n+1)."""
    rng = random.Random(4)
    n = 50
    trials = 20000
    resizes = 0
    for _ in range(trials):
        rule = WHICapacityRule(seed=rng.getrandbits(64))
        capacity = rule.initial_capacity(n)
        _, resized = rule.after_insert(n + 1, capacity)
        resizes += resized
    observed = resizes / trials
    expected = 2 / (n + 1)
    assert abs(observed - expected) < 0.01


def test_stationary_distribution_is_uniform_empirically():
    rng = random.Random(5)
    n_target = 12
    counts = Counter()
    trials = 6000
    for _ in range(trials):
        rule = WHICapacityRule(seed=rng.getrandbits(64))
        capacity = rule.initial_capacity(1)
        for count in range(2, n_target + 1):
            capacity, _ = rule.after_insert(count, capacity)
        counts[capacity] += 1
    for capacity in range(n_target, 2 * n_target):
        fraction = counts[capacity] / trials
        assert abs(fraction - 1 / n_target) < 0.03


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.booleans(), min_size=1, max_size=120))
def test_capacity_always_valid_under_random_op_sequences(seed, ops):
    rule = WHICapacityRule(seed=seed)
    count = 0
    capacity = 0
    for is_insert in ops:
        if is_insert or count == 0:
            count += 1
            capacity, _ = rule.after_insert(count, capacity)
        else:
            count -= 1
            capacity, _ = rule.after_delete(count, capacity)
        low, high = capacity_range(count)
        assert low <= capacity <= high


# --------------------------------------------------------------------------- #
# WHIDynamicArray
# --------------------------------------------------------------------------- #

def test_dynamic_array_insert_and_order():
    array = WHIDynamicArray(seed=0)
    array.append("a")
    array.append("c")
    array.insert(1, "b")
    assert list(array) == ["a", "b", "c"]
    assert array[1] == "b"
    assert len(array) == 3


def test_dynamic_array_delete_returns_item():
    array = WHIDynamicArray(seed=0)
    for value in range(5):
        array.append(value)
    assert array.delete(2) == 2
    assert list(array) == [0, 1, 3, 4]


def test_dynamic_array_bounds_checks():
    array = WHIDynamicArray(seed=0)
    with pytest.raises(RankError):
        array.insert(1, "x")
    with pytest.raises(RankError):
        array.delete(0)


def test_dynamic_array_capacity_invariant():
    array = WHIDynamicArray(seed=1)
    for value in range(200):
        array.append(value)
        assert len(array) <= array.capacity <= 2 * len(array) - 1
    for _ in range(150):
        array.delete(0)
        low, high = capacity_range(len(array))
        assert low <= array.capacity <= high


def test_dynamic_array_memory_representation_has_gaps():
    array = WHIDynamicArray(seed=2)
    for value in range(5):
        array.append(value)
    representation = array.memory_representation()
    assert len(representation) == array.capacity
    assert representation[:5] == (0, 1, 2, 3, 4)
    assert all(slot is None for slot in representation[5:])


def test_dynamic_array_rebuild_replaces_contents():
    array = WHIDynamicArray(seed=3)
    array.rebuild([1, 2, 3])
    assert list(array) == [1, 2, 3]
    assert 3 <= array.capacity <= 5


def test_dynamic_array_amortized_moves_are_constant():
    array = WHIDynamicArray(seed=4)
    appends = 3000
    for value in range(appends):
        array.append(value)
    # Appends shift nothing; only resizes move elements, with probability
    # Θ(1/n) each, so total moves stay linear.
    assert array.element_moves < 12 * appends


# --------------------------------------------------------------------------- #
# The rule against a frozen reference
# --------------------------------------------------------------------------- #

def _reference_after_insert(rule, new_count, capacity):
    """``after_insert`` as first written, with its floors read through
    ``capacity_range`` (kept here as the reference)."""
    if new_count <= 0:
        raise RankError("new_count must be positive after an insert")
    old_count = new_count - 1
    old_low, _ = capacity_range(old_count, rule.floor)
    new_low, _ = capacity_range(new_count, rule.floor)
    if capacity <= 0:
        return rule.initial_capacity(new_count), True
    if new_low == old_low:
        return capacity, False
    if old_count == 0:
        return rule.initial_capacity(new_count), True
    n = old_count
    forced = capacity < new_low
    voluntary = rule._rng.random() < 1.0 / (n + 1)
    if forced or voluntary:
        return rule._rng.choice((2 * n, 2 * n + 1)), True
    return capacity, False


def _reference_after_delete(rule, new_count, capacity):
    """``after_delete`` as first written (the reference)."""
    if new_count < 0:
        raise RankError("new_count cannot be negative")
    old_count = new_count + 1
    old_low, _ = capacity_range(old_count, rule.floor)
    new_low, new_high = capacity_range(new_count, rule.floor)
    if new_high <= 0:
        return 0, capacity != 0
    if new_low == old_low:
        return capacity, False
    n = old_count
    if capacity <= new_high:
        return capacity, False
    if rule._rng.random() < n / (2.0 * (n - 1)):
        return n - 1, True
    if n == 2:
        return n - 1, True
    return rule._rng.randint(n, 2 * n - 3), True


@pytest.mark.parametrize("floor", [1, 2, 10])
def test_the_rule_matches_its_reference_draw_for_draw(floor):
    """Every ``(count, capacity)`` with a count below 200 returns what the
    reference returns, and each count's steps leave the generator where
    the reference leaves it, the empty floor-1 range ``(0, 0)`` included.
    (A different number or kind of draw in any step moves the state.)"""
    rule = WHICapacityRule(seed=floor, floor=floor)
    reference = WHICapacityRule(seed=floor, floor=floor)
    for count in range(200):
        # The empty array, below, inside and above the count's range.
        for capacity in range(2 * capacity_range(count, floor)[1] + 2):
            if count >= 1:
                assert rule.after_insert(count, capacity) \
                    == _reference_after_insert(reference, count, capacity)
            assert rule.after_delete(count, capacity) \
                == _reference_after_delete(reference, count, capacity)
        assert rule._rng.getstate() == reference._rng.getstate()
    for bad in (0, -3):
        with pytest.raises(RankError):
            rule.after_insert(bad, 5)
    with pytest.raises(RankError):
        rule.after_delete(-1, 5)


@pytest.mark.parametrize("floor", [1, 2, 10])
def test_fresh_capacities_are_randint_draws_over_the_range(floor):
    """``initial_capacity`` and a node rebuild's ``initial_capacities`` draw
    what ``randint`` over :func:`capacity_range` draws (nothing for the
    empty floor-1 range), in order, leaving the same generator state."""
    counts = list(range(300)) + [0, 5, 1, 2 ** 16, 2 ** 16 - 1, 3]
    reference = random.Random(floor)
    expected = []
    for count in counts:
        low, high = capacity_range(count, floor)
        expected.append(reference.randint(low, high) if high > 0 else 0)
    one_by_one = WHICapacityRule(seed=floor, floor=floor)
    assert [one_by_one.initial_capacity(count) for count in counts] \
        == expected
    in_one_loop = WHICapacityRule(seed=floor, floor=floor)
    assert in_one_loop.initial_capacities(counts) == expected
    assert one_by_one._rng.getstate() == in_one_loop._rng.getstate() \
        == reference.getstate()

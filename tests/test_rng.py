"""Seeded randomness helpers."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro._rng import geometric_level, make_rng, randbelow, spawn_rng


def test_make_rng_from_int_is_deterministic():
    assert make_rng(7).random() == make_rng(7).random()


def test_make_rng_passes_through_random_instance():
    rng = random.Random(3)
    assert make_rng(rng) is rng


def test_make_rng_none_gives_fresh_entropy():
    # Two unseeded generators almost surely differ; equality would indicate
    # accidental global-state reuse.
    assert make_rng(None).random() != make_rng(None).random()


def test_spawn_rng_is_deterministic_given_parent_seed():
    child_a = spawn_rng(make_rng(11))
    child_b = spawn_rng(make_rng(11))
    assert child_a.random() == child_b.random()


def test_spawn_rng_children_differ_from_parent_stream():
    parent = make_rng(11)
    child = spawn_rng(parent)
    assert child.random() != parent.random()


def test_geometric_level_zero_probability_of_promotion_rejected():
    with pytest.raises(ValueError):
        geometric_level(make_rng(0), 0.0)
    with pytest.raises(ValueError):
        geometric_level(make_rng(0), 1.0)


def test_geometric_level_respects_max_level():
    rng = make_rng(0)
    for _ in range(200):
        assert geometric_level(rng, 0.9, max_level=3) <= 3


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.8), st.integers(min_value=0, max_value=2**32))
def test_geometric_level_mean_matches_geometric_distribution(p, seed):
    rng = make_rng(seed)
    samples = [geometric_level(rng, p) for _ in range(2000)]
    expected_mean = p / (1 - p)
    observed = sum(samples) / len(samples)
    assert abs(observed - expected_mean) < max(0.25, 0.35 * expected_mean)


def test_geometric_level_distribution_shape():
    rng = make_rng(5)
    samples = [geometric_level(rng, 0.5) for _ in range(5000)]
    zeros = samples.count(0) / len(samples)
    ones = samples.count(1) / len(samples)
    assert abs(zeros - 0.5) < 0.05
    assert abs(ones - 0.25) < 0.05


# --------------------------------------------------------------------------- #
# The draw contract of the run kernels: what random.Random draws, bit for bit
# --------------------------------------------------------------------------- #

#: Spans 1..2**20, with the powers of two and their neighbours (where the
#: rejection rule's bit count steps) drawn often.
SPANS = st.one_of(st.integers(min_value=1, max_value=2 ** 20),
                  st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 2 ** 19 - 1,
                                   2 ** 19, 2 ** 19 + 1, 2 ** 20 - 1,
                                   2 ** 20]))


@pytest.mark.fast
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64),
       low=st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
       spans=st.lists(SPANS, min_size=1, max_size=8))
def test_randbelow_draws_what_randint_and_choice_draw(seed, low, spans):
    """``low + randbelow(bits, span)`` is ``randint(low, low + span - 1)``
    and ``randbelow(bits, len(seq))`` indexes ``choice(seq)``'s pick, draw
    for draw, and both generators end in the same state."""
    rng, twin = random.Random(seed), random.Random(seed)
    for span in spans:
        assert low + randbelow(rng.getrandbits, span) \
            == twin.randint(low, low + span - 1)
        choices = range(low, low + span)
        assert choices[randbelow(rng.getrandbits, span)] \
            == twin.choice(choices)
    assert rng.getstate() == twin.getstate()


def _reference_level(rng, probability, max_level):
    """A skip-list level by its definition: heads while ``random()`` falls
    below the probability, the flip that reaches ``max_level`` the last."""
    level = 0
    while rng.random() < probability:
        level += 1
        if max_level is not None and level >= max_level:
            return max_level
    return level


#: Promotion probabilities at and near the validation bounds (0, 1), and
#: between them.
PROBABILITIES = st.one_of(
    st.sampled_from([5e-324, 2 ** -53, 1e-9, 0.5, 1 - 1e-9, 1 - 2 ** -53]),
    st.floats(min_value=5e-324, max_value=1 - 2 ** -53))


@pytest.mark.fast
@settings(max_examples=300, deadline=None)
@example(seed=0, probability=1 - 2 ** -53, max_level=1, draws=3)
@example(seed=1, probability=5e-324, max_level=None, draws=3)
@given(seed=st.integers(min_value=0, max_value=2 ** 64),
       probability=PROBABILITIES,
       max_level=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
       draws=st.integers(min_value=1, max_value=20))
def test_geometric_level_flips_the_reference_coins(seed, probability,
                                                   max_level, draws):
    """``geometric_level`` returns the reference level and leaves the
    generator where the reference leaves it (uncapped only below 0.99,
    where a level stays short)."""
    if max_level is None and probability > 0.99:
        max_level = 64
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert geometric_level(rng, probability, max_level) \
            == _reference_level(twin, probability, max_level)
    assert rng.getstate() == twin.getstate()


@pytest.mark.fast
@pytest.mark.parametrize("probability", [0.0, -0.0, 1.0, -1e-300, 1.5,
                                         -1.0, math.inf, math.nan])
def test_geometric_level_refuses_a_probability_outside_zero_one(probability):
    rng = make_rng(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        geometric_level(rng, probability)
    assert rng.getstate() == state

"""The registry and engine facade: validation, aliases, bulk operations."""

import pytest

from repro.api import (
    DictionaryEngine,
    HIDictionary,
    get_info,
    make_dictionary,
    make_raw_structure,
    register,
    registry_names,
    resolve,
)
from repro.api.registry import reset_registry
from repro.core.hi_pma import HistoryIndependentPMA
from repro.errors import ConfigurationError
from repro.workloads import insert_delete_trace

pytestmark = pytest.mark.fast


# --------------------------------------------------------------------------- #
# Name resolution and validation
# --------------------------------------------------------------------------- #

def test_aliases_resolve_to_canonical_names():
    assert resolve("btree") == "b-tree"
    assert resolve("cobtree") == "hi-cobtree"
    assert resolve("skiplist") == "hi-skiplist"
    assert resolve("btreap") == "b-treap"
    assert resolve("hi-pma") == "hi-pma"


def test_unknown_name_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown structure"):
        make_dictionary("no-such-structure")


@pytest.mark.parametrize("kwargs", [
    {"block_size": 1},
    {"block_size": "64"},
    {"block_size": True},
    {"cache_blocks": -1},
    {"cache_blocks": 2.5},
])
def test_bad_config_is_a_configuration_error(kwargs):
    with pytest.raises(ConfigurationError):
        make_dictionary("b-tree", **kwargs)


def test_structure_specific_extras_are_validated():
    skiplist = make_dictionary("hi-skiplist", block_size=16, seed=1,
                               epsilon=0.4)
    assert skiplist.epsilon == 0.4
    with pytest.raises(ConfigurationError, match="does not accept"):
        make_dictionary("hi-skiplist", epsilon=0.4, gamma=0.9)
    with pytest.raises(ConfigurationError, match="does not accept"):
        make_dictionary("b-tree", epsilon=0.4)


def test_engine_forwards_extras():
    engine = DictionaryEngine.create("hi-skiplist", block_size=16, seed=1,
                                     epsilon=0.3)
    assert engine.structure.epsilon == 0.3


def test_search_miss_still_costs_io_on_adapted_pmas():
    engine = DictionaryEngine.create("hi-pma", block_size=8, seed=6)
    engine.insert_many(range(0, 100, 2))
    assert engine.search_io_cost(51) >= 1  # absent key
    assert engine.search_io_cost(50) >= 1  # present key


def test_duplicate_registration_is_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        register("b-tree", lambda config: None)
    with pytest.raises(ConfigurationError, match="already registered"):
        register("my-tree", lambda config: None, aliases=("btree",))


def test_custom_registration_round_trip():
    try:
        info = register("test-only-dict",
                        lambda config: make_dictionary("b-tree"),
                        summary="registered by the test suite")
        assert "test-only-dict" in registry_names()
        structure = make_dictionary("test-only-dict")
        assert isinstance(structure, HIDictionary)
        assert info.summary == "registered by the test suite"
    finally:
        reset_registry()
    assert "test-only-dict" not in registry_names()
    assert "b-tree" in registry_names()


def test_registry_metadata_flags():
    assert get_info("hi-pma").rank_addressed
    assert get_info("hi-pma").history_independent
    assert not get_info("b-tree").history_independent
    assert not get_info("hi-skiplist").rank_addressed


def test_make_raw_structure_returns_the_underlying_pma():
    raw = make_raw_structure("hi-pma", seed=3)
    assert isinstance(raw, HistoryIndependentPMA)
    dictionary = make_dictionary("hi-pma", seed=3)
    assert isinstance(dictionary.raw, HistoryIndependentPMA)


# --------------------------------------------------------------------------- #
# Engine facade
# --------------------------------------------------------------------------- #

def test_engine_build_from_trace_matches_live_key_set():
    trace = insert_delete_trace(300, delete_fraction=0.3, seed=8)
    engine = DictionaryEngine.create("hi-skiplist", block_size=16, seed=8)
    engine.build_from_trace(trace)
    live = set()
    for operation in trace:
        if operation.kind.value == "insert":
            live.add(operation.key)
        elif operation.kind.value == "delete":
            live.discard(operation.key)
    assert set(engine) == live
    engine.check()


def test_engine_bulk_operations_accept_keys_and_pairs():
    engine = DictionaryEngine.create("treap", seed=2)
    assert engine.insert_many([1, (2, "two"), 3]) == 3
    assert engine.search(2) == "two"
    assert engine.search(1) is None
    assert engine.delete_many([1, 3]) == [None, None]
    assert list(engine) == [2]


def test_engine_unified_stats_cover_tracker_backed_structures():
    engine = DictionaryEngine.create("hi-cobtree", cache_blocks=2, seed=4)
    engine.insert_many((key, key) for key in range(64))
    stats = engine.io_stats()
    assert stats.total_ios > 0
    assert stats.element_moves > 0
    assert engine.search_io_cost(13) >= 1

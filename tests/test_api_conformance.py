"""Protocol-conformance suite: every registered structure, one scenario.

Each registry entry — the four history-independent dictionaries and the
classic baselines alike — is driven through the same insert / upsert /
delete / search / range / check scenario via the
:class:`~repro.api.engine.DictionaryEngine`, asserting identical key-set
semantics against a reference dict and a monotone unified I/O counter, with
zero per-structure special cases.

The sharded engine rides through the identical scenario: once with its
registry defaults (picked up from ``registry_names()`` like any other
entry) and once per explicit inner structure, covering all three
accounting styles behind the router.
"""

import random

import pytest

from repro.api import (
    DictionaryEngine,
    HIDictionary,
    make_dictionary,
    registry_names,
)
from repro.errors import DuplicateKey, KeyNotFound

pytestmark = pytest.mark.fast

ALL_STRUCTURES = registry_names()

#: Sharded variants driven through the same scenario, named ``sharded+inner``.
SHARDED_VARIANTS = ("sharded+b-tree", "sharded+hi-pma", "sharded+hi-skiplist")


def create_engine(name):
    if name.startswith("sharded+"):
        return DictionaryEngine.create("sharded", block_size=8,
                                       cache_blocks=2, seed=7, shards=3,
                                       inner=name.split("+", 1)[1])
    return DictionaryEngine.create(name, block_size=8, cache_blocks=2, seed=7)


@pytest.fixture(params=ALL_STRUCTURES + list(SHARDED_VARIANTS))
def engine(request):
    return create_engine(request.param)


def test_every_structure_is_an_hi_dictionary():
    for name in ALL_STRUCTURES:
        structure = make_dictionary(name, block_size=8, seed=1)
        assert isinstance(structure, HIDictionary), name


def test_scenario_key_set_semantics(engine):
    rng = random.Random(99)
    keys = rng.sample(range(10_000), 120)
    reference = {}
    last_total = engine.io_stats().total_ios

    def assert_monotone_io():
        nonlocal last_total
        total = engine.io_stats().total_ios
        assert total >= last_total, engine.name
        last_total = total

    # Inserts.
    for key in keys:
        engine.insert(key, key * 3)
        reference[key] = key * 3
        assert_monotone_io()
    assert len(engine) == len(reference)
    with pytest.raises(DuplicateKey):
        engine.insert(keys[0], 0)

    # Upserts: overwrite half of the keys, add a few fresh ones.
    for key in keys[::2]:
        assert engine.upsert(key, -key) is True
        reference[key] = -key
        assert_monotone_io()
    for key in (10_001, 10_002, 10_003):
        assert engine.upsert(key, -key) is False
        reference[key] = -key
    assert len(engine) == len(reference)

    # Deletes.
    for key in keys[1::3]:
        assert engine.delete(key) == reference.pop(key)
        assert_monotone_io()
    with pytest.raises(KeyNotFound):
        engine.delete(keys[1])

    # Searches and membership.
    for key in list(reference)[:40]:
        assert engine.search(key) == reference[key]
        assert key in engine
        assert_monotone_io()
    for key in (-5, 10_500):
        assert key not in engine
        with pytest.raises(KeyNotFound):
            engine.search(key)

    # Iteration order, items, and range queries.
    expected_keys = sorted(reference)
    assert list(engine) == expected_keys
    assert engine.items() == [(key, reference[key]) for key in expected_keys]
    low, high = expected_keys[10], expected_keys[-10]
    expected_range = [(key, reference[key]) for key in expected_keys
                      if low <= key <= high]
    assert engine.range_query(low, high) == expected_range
    assert engine.range_query(high, low) == []
    assert_monotone_io()

    # Structural invariants hold at the end of the scenario.
    engine.check()


def test_snapshot_roundtrip_preserves_key_set(engine, tmp_path):
    from repro.storage.snapshot import load_records

    rng = random.Random(5)
    keys = rng.sample(range(5_000), 60)
    for key in keys:
        engine.insert(key, key)
    path = str(tmp_path / ("%s.img" % engine.name))
    paged_file, metadata = engine.snapshot(path)
    assert metadata.kind == engine.name
    decoded = load_records(paged_file, metadata)
    recovered = set()
    for slot in decoded:
        if slot is None:
            continue
        recovered.add(slot[0] if isinstance(slot, tuple) else slot)
    assert recovered == set(keys)

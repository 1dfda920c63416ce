""":class:`repro.api.EngineConfig`: one typed config object everywhere.

``EngineConfig`` validates the deployment rules (the engines do not
repeat them), round-trips through ``to_dict()``/``from_dict()`` for
*every* config these tests exercise, is the only argument
``make_sharded_engine`` takes, and rides inside the durability manifest
from the engine's first checkpoint on, so ``repro recover``, every reopen
and the network handshake see the exact config the store was built with.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil

import pytest

from repro.api import EngineConfig, make_sharded_engine
from repro.api.config import PARALLEL_MODES
from repro.api.sharded import PARALLEL_MODES as REEXPORTED_MODES
from repro.errors import ConfigurationError
from repro.replication import open_durable_engine

pytestmark = pytest.mark.fast

SEED = 20160808


# --------------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------------- #

CONFIGS = [
    EngineConfig(),
    EngineConfig(inner="b-treap", shards=1, seed=0),
    EngineConfig(inner=("b-tree", "hi-skiplist"), shards=2, seed=SEED,
                 block_size=16, cache_blocks=4),
    EngineConfig(router="consistent", shards=5, seed=3),
    EngineConfig(router={"name": "weighted", "vnodes": 16,
                         "weights": {"0": 1.0, "1": 2.0, "2": 1.0}},
                 shards=3, seed=3),
    EngineConfig(parallel="process", max_workers=2, seed=1),
    EngineConfig(parallel="process", replication=2, seed=1),
    EngineConfig(parallel="process", replication=3, seed=1,
                 read_policy="round-robin"),
    EngineConfig(parallel="process", replication=2, seed=1,
                 read_policy="any-after-barrier"),
    EngineConfig(parallel="process", durability_dir="/tmp/unused-dir",
                 durability_mode="secure", fsync=False, seed=9),
]


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: "%s-%s-r%d" % (c.parallel,
                                                      c.router["name"],
                                                      c.replication))
def test_to_dict_from_dict_round_trips(config):
    config.validate()
    payload = config.to_dict()
    assert json.loads(json.dumps(payload)) == payload  # JSON-safe
    assert EngineConfig.from_dict(payload) == config
    # and a second hop changes nothing
    assert EngineConfig.from_dict(
        EngineConfig.from_dict(payload).to_dict()) == config


def test_round_trip_for_every_engine_these_tests_build(tmp_path):
    """Every config that actually builds an engine here must round-trip."""
    built = [
        EngineConfig(shards=3, seed=SEED),
        EngineConfig(shards=2, seed=SEED, parallel="process",
                     max_workers=2),
    ]
    for config in built:
        engine = make_sharded_engine(config=config)
        try:
            assert engine.engine_config == config
            assert EngineConfig.from_dict(
                engine.engine_config.to_dict()) == config
        finally:
            engine.close()


def test_replace_returns_a_new_validated_variant():
    config = EngineConfig(shards=2, seed=1)
    durable = config.replace(parallel="process",
                             durability_dir="/tmp/unused").validate()
    assert durable.parallel == "process"
    assert config.parallel == "none"  # frozen original untouched


def test_from_dict_rejects_unknown_keys():
    payload = EngineConfig().to_dict()
    payload["shardz"] = 3
    with pytest.raises(ConfigurationError):
        EngineConfig.from_dict(payload)


def test_from_dict_drops_the_retired_plane_key():
    """``plane``, ``sample_operations`` and ``backend`` configure nothing
    any more; payloads that carry them (older manifests) still load."""
    payload = EngineConfig(parallel="process", seed=1).to_dict()
    assert "plane" not in payload
    assert "sample_operations" not in payload
    assert "backend" not in payload
    for retired in [dict(plane="shm"), dict(plane="pipe"), dict(plane=None),
                    dict(sample_operations=False),
                    dict(sample_operations=True),
                    dict(plane="shm", sample_operations=False),
                    dict(backend="auto"), dict(backend="native")]:
        assert EngineConfig.from_dict(dict(payload, **retired)) == \
            EngineConfig(parallel="process", seed=1)


def test_to_dict_rejects_non_serializable_seed():
    config = EngineConfig(seed=random.Random(1))
    config.validate()
    with pytest.raises(ConfigurationError):
        config.to_dict()


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("bad", [
    dict(shards=0),
    dict(shards=-2),
    dict(max_workers=2),                      # needs parallel
    dict(replication=0),
    dict(replication=2),                      # needs process
    dict(parallel="thread"),                  # the removed thread backend
    dict(parallel=True),                      # ... and its boolean alias
    dict(read_policy="nearest"),              # unknown policy
    dict(read_policy="round-robin"),          # needs replication
    dict(read_policy="any-after-barrier", parallel="process"),
    dict(durability_dir="/tmp/x"),            # needs process
    dict(durability_mode="secure", parallel="process"),  # needs dir
    dict(parallel="bogus"),
    dict(router="bogus"),
    dict(parallel="process", max_workers=0),
    dict(parallel="process", max_workers=-2),
    dict(parallel="process", max_workers=True),
    dict(parallel="process", max_workers="4"),
])
def test_invalid_configs_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        EngineConfig(**bad).validate()


def test_parallel_modes_reexport_is_the_same_object():
    assert REEXPORTED_MODES is PARALLEL_MODES
    assert PARALLEL_MODES == ("none", "process")


# --------------------------------------------------------------------------- #
# make_sharded_engine takes one EngineConfig
# --------------------------------------------------------------------------- #

def test_config_must_be_an_engine_config():
    """The one spelling: neither a registry name (the old ``inner``
    positional) nor a mapping is a config."""
    with pytest.raises(ConfigurationError, match="EngineConfig"):
        make_sharded_engine("b-tree")
    with pytest.raises(ConfigurationError, match="EngineConfig"):
        make_sharded_engine(config={"shards": 3})


def test_config_plus_overridden_legacy_kwarg_is_rejected():
    """No keyword rides next to the config: a retired keyword or the old
    ``inner`` positional is refused (by Python itself, naming it), never
    silently merged into or dropped from the build."""
    config = EngineConfig(shards=3, seed=1)
    with pytest.raises(TypeError) as excinfo:
        make_sharded_engine(config=config, shards=5)
    assert "shards" in str(excinfo.value)
    with pytest.raises(TypeError, match="config"):
        make_sharded_engine("b-tree", config=config)


# --------------------------------------------------------------------------- #
# Manifest embedding
# --------------------------------------------------------------------------- #

def test_durability_manifest_embeds_the_engine_config(tmp_path):
    directory = str(tmp_path / "store")
    config = EngineConfig(inner="b-treap", shards=2, block_size=16,
                          seed=SEED, parallel="process", max_workers=2,
                          replication=2, durability_dir=directory)
    engine = make_sharded_engine(config=config)
    try:
        engine.insert_many([(key, key) for key in range(64)])
        engine.checkpoint()
    finally:
        engine.close()
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert EngineConfig.from_dict(manifest["engine_config"]) == config

    reopened = open_durable_engine(directory, max_workers=2)
    try:
        assert reopened.engine_config == config
        assert EngineConfig.from_dict(
            reopened.engine_config.to_dict()) == config
        assert len(reopened) == 64
    finally:
        reopened.close()


def _manifest_config(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert "engine_config" in manifest
    return EngineConfig.from_dict(manifest["engine_config"])


def test_every_reopen_keeps_the_config_in_the_manifest(tmp_path,
                                                        monkeypatch):
    """The constructor's own checkpoint already embeds the config, so a
    store closed without a later ``checkpoint()`` has it, and every reopen
    writes it back: the second reopen still runs the built config, tracing
    included."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    directory = str(tmp_path / "store")
    config = EngineConfig(inner="b-treap", shards=2, block_size=16,
                          seed=SEED, parallel="process", replication=2,
                          durability_dir=directory, telemetry=True)
    engine = make_sharded_engine(config=config)
    engine.insert_many([(key, key) for key in range(40)])
    engine.close()
    assert _manifest_config(directory) == config
    for _reopen in range(2):
        reopened = open_durable_engine(directory)
        try:
            assert reopened.engine_config == config
            assert reopened.tracer.enabled is True
            assert len(reopened) == 40
        finally:
            reopened.close()
        assert _manifest_config(directory) == config


def test_manifest_with_a_legacy_plane_key_still_opens(tmp_path):
    """Stores written while ``EngineConfig`` had a ``plane`` or a
    ``sample_operations`` field reopen through ``open_durable_engine`` and
    ``repro recover`` alike."""
    from repro.cli import main

    directory = str(tmp_path / "store")
    config = EngineConfig(inner="b-treap", shards=2, block_size=16,
                          seed=SEED, parallel="process", replication=2,
                          durability_dir=directory)
    engine = make_sharded_engine(config=config)
    try:
        engine.insert_many([(key, key) for key in range(40)])
        engine.checkpoint()
    finally:
        engine.close()
    path = os.path.join(directory, "manifest.json")
    with open(path) as handle:
        manifest = json.load(handle)
    manifest["engine_config"]["plane"] = "shm"
    manifest["engine_config"]["sample_operations"] = False
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    copy = str(tmp_path / "copy")
    shutil.copytree(directory, copy)

    reopened = open_durable_engine(directory)
    try:
        assert reopened.engine_config == config
        assert dict(reopened.items()) == {key: key for key in range(40)}
    finally:
        reopened.close()
    out = io.StringIO()
    assert main(["recover", "--dir", copy], out=out) == 0
    assert "keys            : 40" in out.getvalue()


# --------------------------------------------------------------------------- #
# The config follows the topology
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("resize", ["grow", "shrink"])
def test_a_resized_store_records_and_reopens_its_topology(tmp_path, resize):
    """After ``add_shard``/``remove_shard`` the live config, the one the
    manifest embeds, the reopened one and ``repro recover`` all name the
    new shard count; a manifest that embedded the pre-resize count (as
    older builds wrote it) reopens with the count of its shard list."""
    from repro.cli import main

    directory = str(tmp_path / "store")
    before, after = (2, 3) if resize == "grow" else (3, 2)
    config = EngineConfig(inner="b-treap", shards=before, block_size=16,
                          seed=SEED, parallel="process",
                          durability_dir=directory)
    resized = config.replace(shards=after)
    engine = make_sharded_engine(config)
    try:
        engine.insert_many([(key, key) for key in range(60)])
        if resize == "grow":
            engine.add_shard()
        else:
            engine.remove_shard(0)
        assert engine.engine_config == resized
    finally:
        engine.close()
    assert _manifest_config(directory) == resized

    stale = str(tmp_path / "stale")
    shutil.copytree(directory, stale)
    path = os.path.join(stale, "manifest.json")
    with open(path) as handle:
        manifest = json.load(handle)
    manifest["engine_config"]["shards"] = before
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    for store in (directory, stale):
        reopened = open_durable_engine(store)
        try:
            assert reopened.engine_config == resized.replace(
                durability_dir=store)
            assert len(reopened) == 60
        finally:
            reopened.close()
    out = io.StringIO()
    assert main(["recover", "--dir", directory], out=out) == 0
    assert "inner=b-treap shards=%d " % after in out.getvalue()


def test_a_mixed_add_shard_names_every_shard_in_the_config():
    config = EngineConfig(inner="b-tree", shards=2, block_size=16, seed=SEED)
    engine = make_sharded_engine(config)
    engine.insert_many([(key, key) for key in range(40)])
    engine.add_shard(inner="treap")
    assert engine.engine_config == config.replace(
        shards=3, inner=("b-tree", "b-tree", "treap"))
    engine.remove_shard(2)
    assert engine.engine_config == config

"""The unified dictionary API: protocol, structure registry, and engine facade.

This package is the single entry point consumer layers use to work with the
library's dictionaries:

* :class:`~repro.api.protocol.HIDictionary` — the abstract surface every
  key-addressed structure implements.
* :func:`~repro.api.registry.make_dictionary` /
  :func:`~repro.api.registry.register` — build (or add) structures by name
  with uniform configuration validation.
* :class:`~repro.api.engine.DictionaryEngine` — bulk operations, one merged
  stats path, and uniform snapshots.

Quickstart::

    from repro.api import DictionaryEngine

    engine = DictionaryEngine.create("hi-skiplist", block_size=32, seed=7)
    engine.insert_many((key, key * key) for key in range(100))
    engine.range_query(10, 20)
    paged_file, metadata = engine.snapshot("index.img")

Each exported name imports its module on first access (as in
:mod:`repro`), so an in-process engine never loads
:mod:`repro.api.process_engine` or :mod:`multiprocessing`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "HIDictionary",
    "RankKeyedDictionary",
    "DictionaryEngine",
    "DictionaryConfig",
    "EngineConfig",
    "ConsistentHashRouter",
    "MigrationReport",
    "ModuloRouter",
    "PARALLEL_MODES",
    "ProcessShardedDictionaryEngine",
    "Router",
    "ShardedDictionary",
    "ShardedDictionaryEngine",
    "StructureInfo",
    "WeightedConsistentHashRouter",
    "audit_fingerprint_of",
    "get_info",
    "hash_key",
    "make_dictionary",
    "make_raw_structure",
    "make_router",
    "make_sharded_engine",
    "register",
    "registry_names",
    "resolve",
    "shard_index",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.adapters": ("RankKeyedDictionary",),
    "repro.api.config": ("EngineConfig",),
    "repro.api.engine": ("DictionaryEngine",),
    "repro.api.protocol": ("HIDictionary", "audit_fingerprint_of"),
    "repro.api.registry": ("DictionaryConfig", "StructureInfo", "get_info",
                           "make_dictionary", "make_raw_structure",
                           "register", "registry_names", "resolve"),
    "repro.api.routing": ("ConsistentHashRouter", "ModuloRouter", "Router",
                          "WeightedConsistentHashRouter", "hash_key",
                          "make_router"),
    "repro.api.process_engine": ("ProcessShardedDictionaryEngine",),
    "repro.api.sharded": ("PARALLEL_MODES", "MigrationReport",
                          "ShardedDictionary", "ShardedDictionaryEngine",
                          "make_sharded_engine", "shard_index"),
})

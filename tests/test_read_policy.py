"""Replication v2: policy-routed reads, the one replica rule, anti-entropy.

The contract under test is the Replication v2 acceptance bar: with
``read_policy="round-robin"`` or ``"any-after-barrier"`` every read may be
served by *any* eligible copy of a shard — and because replica clones are
byte-identical under the paper's canonical-layout guarantee, no observable
answer may depend on which copy answered, through crashes, demotions and
digest-sweep repairs.  Point and bulk calls follow one rule: a failed read
fails over the same way whether it was a ``search`` or a ``contains_many``
slice, a write drops a replica whose outcome differs from its primary's,
and every dropped copy is freed in its worker.  The suite also pins the
performance contracts that make replica reads worth having: the hot path
pays no ``is_alive`` syscall per read (the worker's crash flag is the
liveness), a failed bulk sub-batch is retried on another live copy in one
crossing, and ``io_stats`` stays primary-pinned so I/O accounting remains
comparable to a sequential twin.

Like the rest of the fault suites, ``REPRO_START_METHOD`` switches every
engine here between ``fork`` and ``spawn`` — CI runs the file under both.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.api import make_dictionary, make_sharded_engine
from repro.api.config import READ_POLICIES, EngineConfig
from repro.api.process_engine import _ShardWorker
from repro.errors import ConfigurationError, DuplicateKey
from repro.replication import open_durable_engine

pytestmark = pytest.mark.fast

BLOCK_SIZE = 16
SEED = 20160626
SHARDS = 3


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #

def build_engine(read_policy="primary", replication=2, shards=SHARDS,
                 **extra):
    return make_sharded_engine(EngineConfig(
        inner="b-treap", shards=shards, block_size=BLOCK_SIZE, seed=SEED,
        router="consistent", parallel="process", replication=replication,
        read_policy=read_policy, **extra))


def build_twin(shards=SHARDS):
    return make_sharded_engine(EngineConfig(inner="b-treap", shards=shards,
                                            block_size=BLOCK_SIZE, seed=SEED,
                                            router="consistent"))


def entries_for(count, stride=7, modulus=2003):
    return [(key * stride % modulus, key) for key in range(count)]


def read_counters(engine):
    """The engine's ``replica_reads.*`` counters, from one telemetry
    snapshot."""
    return {name[len("replica_reads."):]: value
            for name, value in engine.telemetry().items()
            if name.startswith("replica_reads.")}


def kill_worker(engine, position):
    os.kill(engine.worker_pids()[position], signal.SIGKILL)
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if position in engine.dead_shard_positions():
            return
        time.sleep(0.02)
    raise AssertionError("worker for position %d never reported dead"
                         % position)


def proxy_for(engine, key):
    structure = engine._structure
    return structure._shards[structure.shard_of(key)]


def diverge(replica):
    """Host a string-keyed b-treap under ``replica``'s id: the copy no
    longer holds its primary's keys, and every integer probe of it raises
    ``TypeError`` where the primary answers."""
    foreign = make_dictionary("b-treap", block_size=BLOCK_SIZE, seed=SEED)
    foreign.insert("diverged", 0)
    replica.worker.request(replica.shard_id, "__host__", (foreign,))


def assert_hosting_matches_the_proxies(engine):
    """Each worker hosts exactly the copies the proxies list, and its
    ``shard_ids`` name exactly those: no dropped copy lingers."""
    listed = {}
    for proxy in engine._structure.shards:
        for copy in [proxy.primary] + proxy.replicas:
            listed.setdefault(copy.worker, set()).add(copy.shard_id)
    ever = set(engine._structure.shard_ids) \
        | set(range(engine._next_replica_id + 1, 0))
    for worker in engine._workers:
        hosted = set()
        for engine_id in ever:
            try:
                worker.request(engine_id, "len")
            except KeyError:
                continue
            hosted.add(engine_id)
        assert hosted == listed.get(worker, set()) == worker.shard_ids


# --------------------------------------------------------------------------- #
# Policy selection and validation
# --------------------------------------------------------------------------- #

def test_default_policy_is_primary_and_serves_no_replica_reads():
    engine = build_engine()
    try:
        assert engine.read_policy == "primary"
        entries = entries_for(120)
        engine.insert_many(entries)
        engine.contains_many([key for key, _value in entries])
        for key, value in entries[:10]:
            assert engine.search(key) == value
        assert read_counters(engine) == {
            "replica_reads": 0, "demotions": 0, "anti_entropy_reseeds": 0}
    finally:
        engine.close()


def test_non_primary_policy_requires_replication():
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(
            inner="b-treap", shards=SHARDS, block_size=BLOCK_SIZE, seed=SEED,
            router="consistent", parallel="process", replication=1,
            read_policy="round-robin"))


def test_unknown_policy_is_rejected():
    with pytest.raises(ConfigurationError):
        build_engine(read_policy="nearest")


def test_engine_config_carries_and_validates_read_policy():
    config = EngineConfig(inner="b-treap", shards=SHARDS,
                          parallel="process", replication=2,
                          read_policy="any-after-barrier")
    config.validate()
    assert config.to_dict()["read_policy"] == "any-after-barrier"
    for policy in READ_POLICIES:
        if policy == "primary":
            continue
        bad = EngineConfig(inner="b-treap", shards=SHARDS,
                           parallel="process", replication=1,
                           read_policy=policy)
        with pytest.raises(ConfigurationError):
            bad.validate()
    with pytest.raises(ConfigurationError):
        EngineConfig(inner="b-treap", shards=SHARDS,
                     read_policy="bogus").validate()


# --------------------------------------------------------------------------- #
# Round-robin: byte-identical answers, replica-served
# --------------------------------------------------------------------------- #

def test_round_robin_reads_are_byte_identical_to_the_twin():
    entries = entries_for(300)
    probes = list(range(0, 2003, 3))
    engine = build_engine("round-robin", replication=3)
    twin = build_twin()
    try:
        engine.insert_many(entries)
        twin.insert_many(entries)
        assert engine.contains_many(probes) == twin.contains_many(probes)
        for key, value in entries[:20]:
            assert engine.search(key) == value
        assert engine.items() == twin.items()
        stats = read_counters(engine)
        assert stats["replica_reads"] > 0
        assert stats["demotions"] == 0
    finally:
        engine.close()
        twin.close()


def test_round_robin_rotates_point_reads_across_copies():
    engine = build_engine("round-robin", replication=3)
    try:
        entries = entries_for(60)
        engine.insert_many(entries)
        key, value = entries[0]
        before = read_counters(engine)["replica_reads"]
        # One shard, three copies: of any three consecutive point reads,
        # exactly two are replica-served (the cursor passes the primary
        # once per revolution).
        for _spin in range(3):
            assert engine.search(key) == value
        after = read_counters(engine)["replica_reads"]
        assert after - before == 2
    finally:
        engine.close()


def test_io_stats_stays_primary_pinned():
    engine = build_engine("round-robin", replication=2)
    try:
        engine.insert_many(entries_for(80))
        before = read_counters(engine)["replica_reads"]
        stats = engine.io_stats()
        assert stats.total_ios >= 0
        assert read_counters(engine)["replica_reads"] == before, (
            "io_stats was served by a replica — its counters are no "
            "longer comparable to a sequential twin's")
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Liveness caching: no syscall per read
# --------------------------------------------------------------------------- #

def test_liveness_is_cached_across_reads(monkeypatch):
    """Reads filter replicas on the workers' crash flags, which every
    failed crossing sets: the read path makes no ``is_alive`` call."""
    calls = {"count": 0}
    original = _ShardWorker.is_alive

    def counting_is_alive(self):
        calls["count"] += 1
        return original(self)

    engine = build_engine("round-robin", replication=2)
    try:
        entries = entries_for(150)
        engine.insert_many(entries)
        engine.contains_many([key for key, _value in entries])  # warm caches
        monkeypatch.setattr(_ShardWorker, "is_alive", counting_is_alive)
        for key, value in entries[:50]:
            assert engine.search(key) == value
        engine.contains_many([key for key, _value in entries])
        assert calls["count"] == 0, (
            "the read hot path paid %d is_alive syscalls — liveness must "
            "come from the workers' crash flags" % calls["count"])
    finally:
        monkeypatch.setattr(_ShardWorker, "is_alive", original)
        engine.close()


def test_crash_invalidates_the_liveness_cache():
    engine = build_engine("round-robin", replication=2)
    try:
        entries = entries_for(150)
        engine.insert_many(entries)
        probes = [key for key, _value in entries]
        reference = engine.contains_many(probes)
        kill_worker(engine, 0)
        # Nothing has crossed to the dead worker yet, so its copies are
        # still listed; the first crossing that hits one raises
        # WorkerCrashError, which sets its crash flag and demotes the
        # copy — and the answers never waver.
        for _round in range(3):
            assert engine.contains_many(probes) == reference
        for key, value in entries[:20]:
            assert engine.search(key) == value
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Bulk fan-out and the one-crossing retry
# --------------------------------------------------------------------------- #

def test_bulk_contains_many_survives_a_dead_primary_byte_identically():
    entries = entries_for(400)
    probes = list(range(0, 2003, 2))
    engine = build_engine("round-robin", replication=2)
    twin = build_twin()
    try:
        engine.insert_many(entries)
        twin.insert_many(entries)
        expected = twin.contains_many(probes)
        assert engine.contains_many(probes) == expected
        kill_worker(engine, 1)
        assert engine.contains_many(probes) == expected, (
            "degraded bulk reads diverged from the healthy answers")
        stats = read_counters(engine)
        assert stats["replica_reads"] > 0
    finally:
        engine.close()
        twin.close()


def test_bulk_contains_many_all_copies_dead_still_raises():
    from repro.errors import WorkerCrashError

    engine = build_engine("round-robin", replication=2, shards=2)
    try:
        entries = entries_for(100)
        engine.insert_many(entries)
        for position in range(2):
            kill_worker(engine, position)
        with pytest.raises(WorkerCrashError):
            engine.contains_many([key for key, _value in entries])
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Divergence: cross-check demotion and the anti-entropy backstop
# --------------------------------------------------------------------------- #

#: One point read and one bulk read of a key, each by the same rule.
READS = {
    "search": lambda engine, key: engine.search(key),
    "contains_many": lambda engine, key: engine.contains_many([key] * 4),
}

#: Reads every copy refuses identically, as the twin does: a miss, and a
#: key that does not compare with the stored ones, point and bulk (twice,
#: so the striping hands one to each copy of its shard).
REFUSED = {
    "search": lambda engine: engine.search(2004),
    "contains": lambda engine: engine.contains("x"),
    "contains_many": lambda engine: engine.contains_many(
        list(range(1, 21)) + ["x", "x"]),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_cross_check_demotes_a_diverged_replica_and_serves_the_primary(read):
    engine = build_engine("round-robin", replication=2)
    twin = build_twin()
    try:
        entries = entries_for(120)
        engine.insert_many(entries)
        twin.insert_many(entries)
        key = entries[0][0]
        expected = READS[read](twin, key)
        diverge(proxy_for(engine, key).replicas[0])
        # Rotate (or stripe) until the diverged replica serves the read:
        # it raises where the primary answers, the cross-check demotes it,
        # and the primary's answer is what the caller sees — every time.
        for _spin in range(4):
            assert READS[read](engine, key) == expected
        assert read_counters(engine)["demotions"] == 1
        # The demoted copy is out of rotation; reads stay correct.
        for _spin in range(4):
            assert READS[read](engine, key) == expected
        assert read_counters(engine)["demotions"] == 1
        assert_hosting_matches_the_proxies(engine)
    finally:
        engine.close()
        twin.close()


@pytest.mark.parametrize("read", sorted(REFUSED))
def test_cross_check_agreeing_misses_are_not_divergence(read):
    """A read every copy refuses the same way raises what the sequential
    engine raises and demotes nobody.  A bulk read with a bad key used to
    demote the replica whose slice held it."""
    engine = build_engine("round-robin", replication=2, shards=2)
    twin = build_twin(shards=2)
    try:
        for store in (engine, twin):
            store.insert_many(entries_for(120))
        with pytest.raises(Exception) as expected:
            REFUSED[read](twin)
        for _spin in range(4):
            with pytest.raises(type(expected.value)):
                REFUSED[read](engine)
        assert read_counters(engine)["demotions"] == 0
        assert engine.replica_counts() == [1, 1]
    finally:
        engine.close()
        twin.close()


@pytest.mark.parametrize("write", ["insert_many", "insert"])
def test_a_replica_that_accepts_a_refused_write_is_dropped(write):
    """A replica missing key 5 accepts the insert its primary refuses with
    ``DuplicateKey``: the outcomes differ, so the write rule drops it and
    frees it in its worker.  It used to stay in service holding 99 while
    the primary held 5 (bulk), or never see the write at all (point)."""
    engine = build_engine(replication=2)
    try:
        engine.insert_many(entries_for(60) + [(5, 5)])
        proxy = proxy_for(engine, 5)
        replica = proxy.replicas[0]
        replica.call("delete", 5)
        with pytest.raises(DuplicateKey):
            if write == "insert":
                engine.insert(5, 99)
            else:
                engine.insert_many([(5, 99)])
        assert proxy.replicas == []
        assert replica.shard_id not in replica.worker.shard_ids
        with pytest.raises(KeyError):
            replica.call("len")
        assert engine.search(5) == 5
        assert read_counters(engine)["demotions"] == 0
        assert_hosting_matches_the_proxies(engine)
    finally:
        engine.close()


def test_demoted_replicas_are_freed_before_recovery_reseeds():
    """A replica demoted through real divergence (hand-diverged, then
    caught by the cross-check) is freed in its worker; after each
    ``recover()`` every worker hosts exactly the copies its proxies list.
    Three rounds used to leave one worker hosting four copies of a shard,
    one of them in service."""
    engine = build_engine("round-robin", replication=2)
    try:
        entries = entries_for(120)
        engine.insert_many(entries)
        key, value = entries[0]
        for round_ in range(1, 4):
            proxy_for(engine, key).replicas[0].call("delete", key)
            for _spin in range(3):
                assert engine.search(key) == value
            assert read_counters(engine)["demotions"] == round_
            assert_hosting_matches_the_proxies(engine)
            engine.recover()
            assert engine.replica_counts() == [1] * SHARDS
            assert_hosting_matches_the_proxies(engine)
    finally:
        engine.close()


def test_anti_entropy_reseeds_only_the_divergent_replica():
    engine = build_engine("round-robin", replication=3)
    try:
        entries = entries_for(200)
        engine.insert_many(entries)
        key, value = entries[0]
        proxy = proxy_for(engine, key)
        position = engine._structure.shard_of(key)
        proxy.replicas[0].call("delete", key)  # silent divergence
        sweep = engine.anti_entropy()
        assert not sweep["recovered"]
        assert sweep["divergent"] == [position]
        assert sweep["reseeded"] == 1
        assert sweep["exported_positions"] == [position], (
            "healthy shards were exported: %r"
            % (sweep["exported_positions"],))
        assert engine.replica_counts() == [2] * SHARDS
        assert read_counters(engine)["anti_entropy_reseeds"] == 1
        # The reseeded clone serves reads again, byte-identically.
        for _spin in range(3):
            assert engine.search(key) == value
        again = engine.anti_entropy()
        assert again["divergent"] == []
        assert again["reseeded"] == 0
    finally:
        engine.close()


def test_anti_entropy_recovers_dead_workers_first():
    engine = build_engine("round-robin", replication=2)
    try:
        entries = entries_for(200)
        engine.insert_many(entries)
        kill_worker(engine, 0)
        sweep = engine.anti_entropy()
        assert sweep["recovered"]
        assert sweep["divergent"] == []
        assert engine.replica_counts() == [1] * SHARDS
        assert engine.items() == sorted(entries)
        engine.check()
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# any-after-barrier: replicas serve only once proven in sync
# --------------------------------------------------------------------------- #

def test_any_after_barrier_degenerates_to_primary_without_durability():
    # Barriers are a durability feature; a non-durable engine never has a
    # sync point, so the policy must degenerate to primary-only reads —
    # correct answers, zero risk, zero replica service.
    engine = build_engine("any-after-barrier", replication=2)
    try:
        entries = entries_for(150)
        engine.insert_many(entries)
        engine.contains_many([key for key, _value in entries])
        for key, value in entries[:10]:
            assert engine.search(key) == value
        assert read_counters(engine)["replica_reads"] == 0
    finally:
        engine.close()


def test_any_after_barrier_gates_on_the_barrier_epoch(tmp_path):
    engine = build_engine("any-after-barrier", replication=2,
                          durability_dir=str(tmp_path / "durable"))
    try:
        entries = entries_for(150)
        engine.insert_many(entries)
        key, value = entries[0]
        proxy = proxy_for(engine, key)
        # Un-stamp this shard's replicas: no longer proven in sync, they
        # must fall out of read service until the next barrier.
        for replica in proxy.replicas:
            replica._synced_epoch = -1
        before = read_counters(engine)["replica_reads"]
        for _spin in range(4):
            assert engine.search(key) == value
        assert read_counters(engine)["replica_reads"] == before
        engine.barrier()  # re-stamps every acking replica
        for _spin in range(4):
            assert engine.search(key) == value
        assert read_counters(engine)["replica_reads"] > before
    finally:
        engine.close()


def test_any_after_barrier_durable_engine_is_synced_from_birth(tmp_path):
    engine = build_engine("any-after-barrier", replication=2,
                          durability_dir=str(tmp_path / "durable"))
    try:
        entries = entries_for(150)
        engine.insert_many(entries)
        # The durable constructor's initial checkpoint is a sync point, so
        # replicas are read-eligible immediately.
        engine.contains_many([key for key, _value in entries])
        assert read_counters(engine)["replica_reads"] > 0
    finally:
        engine.close()


def test_any_after_barrier_stays_byte_identical_across_barriers(tmp_path):
    entries = entries_for(300)
    probes = list(range(0, 2003, 3))
    engine = build_engine("any-after-barrier", replication=2,
                          durability_dir=str(tmp_path / "durable"))
    twin = build_twin()
    try:
        engine.insert_many(entries[:150])
        twin.insert_many(entries[:150])
        engine.barrier()
        assert engine.contains_many(probes) == twin.contains_many(probes)
        engine.insert_many(entries[150:])
        twin.insert_many(entries[150:])
        # Writes fan out synchronously, so replicas stamped at the last
        # barrier have applied everything since — answers match without a
        # fresh barrier.
        assert engine.contains_many(probes) == twin.contains_many(probes)
        assert engine.items() == twin.items()
    finally:
        engine.close()
        twin.close()


# --------------------------------------------------------------------------- #
# Durability manifest round-trip
# --------------------------------------------------------------------------- #

def test_manifest_round_trips_the_read_policy(tmp_path):
    directory = str(tmp_path / "durable")
    entries = entries_for(150)
    engine = build_engine("round-robin", replication=2,
                          durability_dir=directory)
    try:
        engine.insert_many(entries)
        engine.checkpoint()
    finally:
        engine.close()
    reopened = open_durable_engine(directory)
    try:
        assert reopened.read_policy == "round-robin"
        assert reopened.items() == sorted(entries)
        for key, value in entries[:10]:
            assert reopened.search(key) == value
        assert read_counters(reopened)["replica_reads"] > 0
    finally:
        reopened.close()
    overridden = open_durable_engine(directory, read_policy="primary")
    try:
        assert overridden.read_policy == "primary"
        overridden.contains_many([key for key, _value in entries])
        assert read_counters(overridden)["replica_reads"] == 0
    finally:
        overridden.close()

"""Process-parallel shard backend: identity, crashes, and clean shutdown.

The contract under test is the one the engine documents: every successful
operation — point or batched, probe or resize — returns results and leaves
layouts *byte-identical* to the sequential ``ShardedDictionaryEngine`` over
the same inputs, while the shard structures live in long-lived worker
processes.  On top of that, worker crashes must be contained (a clear
:class:`~repro.errors.WorkerCrashError`, surviving shards unharmed,
``restart_workers()`` recovery), and shutdown must reap every process.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.api import (
    EngineConfig,
    ProcessShardedDictionaryEngine,
    make_dictionary,
    make_sharded_engine,
    registry_names,
)
from repro.api.process_engine import _unpicklable_reply_error
from repro.errors import ConfigurationError, KeyNotFound, WorkerCrashError

pytestmark = pytest.mark.fast

BLOCK_SIZE = 16
SEED = 20160626


def build_pair(inner="hi-skiplist", shards=3, seed=SEED, **extra):
    """A sequential and a process engine with identical construction."""
    common = dict(shards=shards, block_size=BLOCK_SIZE, cache_blocks=2,
                  seed=seed, router="consistent", **extra)
    sequential = make_sharded_engine(EngineConfig(inner=inner, **common))
    process = make_sharded_engine(EngineConfig(inner=inner, parallel="process",
                                               **common))
    return sequential, process


def entries_for(count, stride=7, modulus=2003):
    return [(key * stride % modulus, key) for key in range(count)]


# --------------------------------------------------------------------------- #
# The picklability contract the command pipe depends on
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", registry_names())
def test_every_registry_structure_survives_the_worker_pipe(name):
    """Shards ship to workers by pickle; every structure must round-trip."""
    extra = {"shards": 2} if name == "sharded" else {}
    structure = make_dictionary(name, block_size=8, cache_blocks=2, seed=3,
                                **extra)
    for key in range(24):
        structure.insert(key * 5, str(key))
    structure.delete(10)
    clone = pickle.loads(pickle.dumps(structure))
    assert clone.items() == structure.items()
    assert clone.audit_fingerprint() == structure.audit_fingerprint()
    clone.insert(1_000, "post-pickle")
    clone.check()


# --------------------------------------------------------------------------- #
# Byte-identity against the sequential engine
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("inner", ["hi-skiplist", "b-tree", "hi-pma"])
def test_bulk_results_and_layouts_match_sequential(inner):
    sequential, process = build_pair(inner)
    try:
        entries = entries_for(300)
        assert process.insert_many(entries) == sequential.insert_many(entries)
        probes = list(range(0, 2003, 5))
        assert process.contains_many(probes) == sequential.contains_many(probes)
        doomed = [key for key, _value in entries[::6]]
        assert process.delete_many(doomed) == sequential.delete_many(doomed)
        assert process.items() == sequential.items()
        assert list(process) == list(sequential)
        assert process.shard_sizes() == sequential.shard_sizes()
        assert process.structure.audit_fingerprint() \
            == sequential.structure.audit_fingerprint()
        assert process.io_stats().as_dict() == sequential.io_stats().as_dict()
        process.check()
    finally:
        process.close()


def test_point_operations_and_range_queries_match_sequential():
    sequential, process = build_pair()
    try:
        for engine in (sequential, process):
            engine.insert(5, "five")
            engine.insert(9, "nine")
            assert engine.upsert(5, "cinq") is True
            assert engine.upsert(12, "douze") is False
            assert engine.search(5) == "cinq"
            assert engine.delete(9) == "nine"
            assert engine.contains(9) is False
            with pytest.raises(KeyNotFound):
                engine.search(9)
        assert process.range_query(0, 100) == sequential.range_query(0, 100)
        assert process.items() == sequential.items()
    finally:
        process.close()


def test_replicated_shards_answer_capabilities_like_sequential_shards():
    """A replicated round-robin shard answers ``level_of`` (a method its
    worker reported), ``len()`` and iteration exactly as the sequential
    shard does, whichever copy serves; a method the hosted structure lacks
    is not there at all."""
    common = dict(inner="hi-skiplist", shards=3, block_size=BLOCK_SIZE,
                  cache_blocks=2, seed=SEED, router="consistent")
    sequential = make_sharded_engine(EngineConfig(**common))
    process = make_sharded_engine(EngineConfig(
        parallel="process", replication=2, read_policy="round-robin",
        **common))
    try:
        entries = entries_for(150)
        sequential.insert_many(entries)
        process.insert_many(entries)
        for expected, shard in zip(sequential.structure.shards,
                                   process.structure.shards):
            keys = list(expected)
            assert list(shard) == keys
            assert len(shard) == len(expected)
            assert [shard.level_of(key) for key in keys] \
                == [expected.level_of(key) for key in keys]
            assert not hasattr(shard, "no_such_method")
        # The rotation put replicas behind some of those level_of reads.
        assert process.telemetry()["replica_reads.replica_reads"] > 0
    finally:
        process.close()


def test_cost_probes_match_and_roll_back():
    sequential, process = build_pair(inner="b-tree")
    try:
        entries = entries_for(240)
        sequential.insert_many(entries)
        process.insert_many(entries)
        before = process.io_stats().as_dict()
        for key in (7, 14, 700, 1):
            assert process.search_io_cost(key) == sequential.search_io_cost(key)
        s_pairs, s_costs = sequential.range_io_cost_breakdown(50, 1500)
        p_pairs, p_costs = process.range_io_cost_breakdown(50, 1500)
        assert (p_pairs, p_costs) == (s_pairs, s_costs)
        # The probes measured inside the workers and rolled back there.
        assert process.io_stats().as_dict() == before
    finally:
        process.close()


def test_elastic_resize_matches_sequential():
    sequential, process = build_pair(inner="b-treap")
    try:
        entries = entries_for(200)
        sequential.insert_many(entries)
        process.insert_many(entries)
        s_grow, p_grow = sequential.add_shard(), process.add_shard()
        assert (p_grow.moved_keys, p_grow.total_keys,
                p_grow.received_per_target) \
            == (s_grow.moved_keys, s_grow.total_keys,
                s_grow.received_per_target)
        assert process.num_workers == process.num_shards == 4
        s_shrink = sequential.remove_shard(1)
        p_shrink = process.remove_shard(1)
        assert p_shrink.moved_keys == s_shrink.moved_keys
        assert process.num_workers == process.num_shards == 3
        assert process.items() == sequential.items()
        # b-treap layouts are canonical: the digests must agree exactly.
        assert process.structure.audit_fingerprint() \
            == sequential.structure.audit_fingerprint()
        process.check()
    finally:
        process.close()


def test_per_shard_snapshots_round_trip(tmp_path):
    # A pair-snapshotting inner (the b-tree persists (key, value) pairs, not
    # a bare-key slot array), so the restored engine keeps the values too.
    sequential, process = build_pair(inner="b-tree")
    try:
        entries = entries_for(150)
        sequential.insert_many(entries)
        process.insert_many(entries)
        sequential_dir = tmp_path / "sequential"
        process_dir = tmp_path / "process"
        s_manifest = sequential.snapshot_shards(str(sequential_dir))
        p_manifest = process.snapshot_shards(str(process_dir))
        assert p_manifest["shards"] == s_manifest["shards"]
        restored = ProcessShardedDictionaryEngine.restore_shards(
            str(process_dir))
        try:
            assert restored.items() == sequential.items()
            assert restored.num_workers == restored.num_shards
        finally:
            restored.close()
    finally:
        process.close()


def test_restore_shards_ships_each_loaded_shard_in_one_crossing(
        tmp_path, monkeypatch):
    """The images are loaded into the local shards before the engine is
    built, so each shard crosses once, in its ``__host__``, instead of one
    fanned-out point write per key."""
    from repro.api.process_engine import _ShardWorker

    sequential = make_sharded_engine(EngineConfig(
        inner="b-tree", shards=2, block_size=BLOCK_SIZE, seed=SEED))
    sequential.insert_many(entries_for(300))
    directory = str(tmp_path / "snapshot")
    sequential.snapshot_shards(directory)
    sent = []
    send = _ShardWorker.send

    def counting_send(self, shard_id, method, args, trace=None):
        sent.append(method)
        send(self, shard_id, method, args, trace)

    monkeypatch.setattr(_ShardWorker, "send", counting_send)
    restored = ProcessShardedDictionaryEngine.restore_shards(directory)
    try:
        assert sent == ["__host__", "__host__"]
        assert restored.items() == sequential.items()
    finally:
        restored.close()


def test_failed_batch_surfaces_the_sequential_exception():
    sequential, process = build_pair()
    try:
        process.insert_many([(1, "a"), (2, "b")])
        sequential.insert_many([(1, "a"), (2, "b")])
        from repro.errors import DuplicateKey

        with pytest.raises(DuplicateKey):
            sequential.insert_many([(3, "c"), (1, "dup")])
        with pytest.raises(DuplicateKey):
            process.insert_many([(3, "c"), (1, "dup")])
        with pytest.raises(KeyNotFound):
            process.delete_many([2, 99])
    finally:
        process.close()


# --------------------------------------------------------------------------- #
# Worker pool shape and configuration validation
# --------------------------------------------------------------------------- #

def test_max_workers_packs_shards_onto_fewer_processes():
    process = make_sharded_engine(EngineConfig(
        inner="b-tree", shards=4, block_size=8, seed=SEED, parallel="process",
        max_workers=2))
    try:
        assert process.num_workers == 2
        entries = entries_for(100)
        process.insert_many(entries)
        assert sorted(process.items()) == sorted(
            (key, value) for key, value in dict(entries).items())
        process.check()
    finally:
        process.close()


def test_boolean_and_integer_parallel_flags_keep_working():
    """The boolean spelling's falsy ``parallel`` flags still mean
    sequential dispatch; the truthy ones selected the removed thread
    backend and are refused with a pointer at the process backend."""
    from repro.api.sharded import ShardedDictionaryEngine

    for flag in (False, 0, None):
        engine = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                                  block_size=8, seed=SEED,
                                                  parallel=flag))
        assert type(engine) is ShardedDictionaryEngine
        assert engine.engine_config.parallel == "none"
    for flag in (True, 1, "thread"):
        with pytest.raises(ConfigurationError, match="'process'"):
            make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                             block_size=8, seed=SEED,
                                             parallel=flag))


def test_operations_after_close_raise_library_errors():
    """A closed engine must fail inside the ReproError hierarchy, never
    with a bare ``KeyError`` from the emptied worker mapping."""
    process = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                               block_size=8, seed=SEED,
                                               parallel="process"))
    process.insert_many([(1, "a")])
    # No durability directory: there is nothing to sync or snapshot.
    with pytest.raises(ConfigurationError):
        process.barrier()
    with pytest.raises(ConfigurationError):
        process.checkpoint()
    process.close()
    with pytest.raises(ConfigurationError):
        process.io_stats()
    with pytest.raises(ConfigurationError):
        process.barrier()
    with pytest.raises(ConfigurationError):
        process.checkpoint()
    with pytest.raises(WorkerCrashError):
        process.insert_many([(2, "b")])
    with pytest.raises(WorkerCrashError):
        process.contains_many([1])
    with pytest.raises(WorkerCrashError):
        process.search_io_cost(1)
    with pytest.raises(ConfigurationError):
        process.dead_shard_positions()
    with pytest.raises(ConfigurationError):
        process.restart_workers()


def test_parallel_mode_and_max_workers_validation():
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                         parallel="warp-drive"))
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                         max_workers=2))
    with pytest.raises(ConfigurationError):
        make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                         parallel="process", max_workers=0))


def test_spawn_start_method_is_supported(monkeypatch):
    """The engine must not depend on fork-inherited state."""
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    structure = make_dictionary("sharded", shards=2, inner="b-tree",
                                block_size=8, seed=SEED)
    engine = ProcessShardedDictionaryEngine(structure)
    try:
        engine.insert_many([(key, key) for key in range(40)])
        assert engine.contains_many([0, 1, 39, 99]) \
            == [True, True, True, False]
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Crashes, restarts, clean shutdown
# --------------------------------------------------------------------------- #

def _kill_worker(engine, position):
    pid = engine.worker_pids()[position]
    os.kill(pid, signal.SIGKILL)
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if engine.dead_shard_positions():
            return
        time.sleep(0.02)
    raise AssertionError("killed worker %d never reported dead" % pid)


def test_worker_crash_raises_and_spares_other_shards():
    process = make_sharded_engine(EngineConfig(inner="hi-skiplist", shards=3,
                                               block_size=BLOCK_SIZE,
                                               seed=SEED, parallel="process"))
    try:
        process.insert_many((key, str(key)) for key in range(90))
        _kill_worker(process, 1)
        assert process.dead_shard_positions() == [1]
        with pytest.raises(WorkerCrashError):
            process.contains_many(range(90))
        survivors = [key for key in range(90)
                     if process.structure.shard_of(key) != 1]
        assert all(process.structure.contains(key) for key in survivors[:5])
    finally:
        process.close()


def test_a_command_to_a_dead_worker_leaves_nothing_for_the_collector():
    """The crash error of a broken pipe keeps no traceback of the failed
    send.  That traceback held the pickled command's ``BytesIO`` and a
    memoryview of it; once the error sat in a reference cycle, a
    collector pass could close the buffer before releasing the view,
    and CPython reported an unraisable ``BufferError`` (in development
    mode, ``-X dev``, as CI runs this file; elsewhere it is dropped, so
    the test also checks that no pipe error is chained)."""
    process = make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                               block_size=BLOCK_SIZE,
                                               parallel="process"))
    try:
        process.insert_many((key, key) for key in range(40))
        _kill_worker(process, 1)
        gc.collect()
        recorded = []
        previous, sys.unraisablehook = sys.unraisablehook, recorded.append
        try:
            try:
                process.contains_many(range(40))
            except WorkerCrashError as error:
                assert "pipe broken" in str(error)
                assert error.__cause__ is None and error.__context__ is None
            else:
                raise AssertionError("a command reached a killed worker")
            gc.collect()
        finally:
            sys.unraisablehook = previous
        assert [hook.exc_value for hook in recorded] == []
    finally:
        process.close()


def test_restart_workers_rebuilds_lost_shards_empty():
    process = make_sharded_engine(EngineConfig(inner="hi-skiplist", shards=3,
                                               block_size=BLOCK_SIZE,
                                               seed=SEED, parallel="process"))
    try:
        process.insert_many((key, str(key)) for key in range(90))
        sizes_before = process.shard_sizes()
        _kill_worker(process, 0)
        lost = process.restart_workers()
        assert lost == [0]
        assert process.dead_shard_positions() == []
        sizes_after = process.shard_sizes()
        assert sizes_after[0] == 0
        assert sizes_after[1:] == sizes_before[1:]
        # The engine is fully operational again.
        process.insert_many((key, "rebuilt") for key in range(1_000, 1_030))
        process.check()
        assert process.restart_workers() == []
    finally:
        process.close()


def test_close_reaps_every_worker_and_is_idempotent():
    process = make_sharded_engine(EngineConfig(inner="b-tree", shards=3,
                                               block_size=8, seed=SEED,
                                               parallel="process"))
    process.insert_many([(key, key) for key in range(30)])
    pids = process.worker_pids()
    assert len(pids) == 3
    process.close()
    process.close()  # idempotent
    for pid in pids:
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        else:
            raise AssertionError("worker %d still alive after close()" % pid)
    with pytest.raises(WorkerCrashError):
        process.contains(1)


def test_context_manager_closes_on_exit():
    with make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                          block_size=8, seed=SEED,
                                          parallel="process")) as process:
        process.insert_many([(1, "a"), (2, "b")])
        pids = process.worker_pids()
    time.sleep(0.2)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _exited(pid):
    """Whether ``pid`` is gone or a zombie (exited, not yet reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open("/proc/%d/stat" % pid) as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed parent cannot shut its workers down; each worker must
    notice the parent is gone (its pipe reads EOF) and exit by itself."""
    code = textwrap.dedent("""
        import time
        from repro.api import EngineConfig, make_sharded_engine

        engine = make_sharded_engine(EngineConfig(
            inner="b-treap", shards=2, seed=1, parallel="process",
            max_workers=2))
        engine.insert_many((key, -key) for key in range(100))
        print(*engine.worker_pids(), flush=True)
        time.sleep(120)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    parent = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.kill()
        parent.wait(timeout=30)
        deadline = time.time() + 5.0
        while not all(_exited(pid) for pid in pids) \
                and time.time() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if not _exited(pid)]
        assert survivors == [], "workers outlived their killed parent"
    finally:
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
        for pid in pids:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


# --------------------------------------------------------------------------- #
# The unpicklable-reply fallback error (regression: the original exception
# type used to vanish behind a generic "did not pickle")
# --------------------------------------------------------------------------- #

def _raised():
    try:
        raise ValueError("the real worker-side failure")
    except ValueError as error:
        return error


def test_unpicklable_reply_error_carries_the_original_exception():
    error = _unpicklable_reply_error("items", ("err", _raised()))
    assert isinstance(error, WorkerCrashError)
    text = str(error)
    assert "ValueError" in text
    assert "the real worker-side failure" in text
    assert "items" in text
    assert "Traceback" in text  # the formatted worker-side traceback


def test_unpicklable_reply_error_for_a_plain_payload():
    text = str(_unpicklable_reply_error("__export__", ("ok", object())))
    assert "did not pickle" in text and "__export__" in text


# --------------------------------------------------------------------------- #
# Start-up: workers fork ready to serve, the whole pool hosted at once
# --------------------------------------------------------------------------- #

class _RefuseImports:
    """A ``sys.meta_path`` finder that fails every import it is asked for."""

    def find_spec(self, name, path=None, target=None):
        raise ImportError("%s was imported after the warm-up run" % name)


def _drive_through_a_restart(engine):
    entries = entries_for(120)
    engine.insert_many(entries)
    keys = sorted(key for key, _value in entries)
    assert engine.contains_many(keys[:10] + [2003]) == [True] * 10 + [False]
    assert engine.delete_many(keys[:20]) == [
        dict(entries)[key] for key in keys[:20]]
    assert engine.range_query(keys[20], keys[29]) == [
        (key, dict(entries)[key]) for key in keys[20:30]]
    assert len(engine.items()) == 100
    _kill_worker(engine, 0)
    assert engine.restart_workers()
    engine.insert_many([(5000, 1), (5001, 2), (5002, 3)])
    assert engine.contains_many([5000, 5001, 5002]) == [True] * 3
    engine.check()


def test_forked_workers_import_nothing(monkeypatch):
    """Every module a forked worker runs was imported by its parent.

    After one warm-up run (the parent's own lazy imports), any import at
    all fails; a worker that imported would die and surface as
    :class:`WorkerCrashError`.  Covers one worker per shard and a packed
    pool, whose worker takes several shards' commands back to back.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("platform lacks the fork start method")
    monkeypatch.setenv("REPRO_START_METHOD", "fork")
    shapes = [{"shards": 2, "max_workers": 2},
              {"shards": 3, "max_workers": 2}]

    def run_every_shape():
        for shape in shapes:
            with make_sharded_engine(EngineConfig(
                    inner="b-tree", block_size=BLOCK_SIZE, seed=SEED,
                    parallel="process", **shape)) as engine:
                _drive_through_a_restart(engine)

    run_every_shape()
    blocker = _RefuseImports()
    sys.meta_path.insert(0, blocker)
    try:
        run_every_shape()
    finally:
        sys.meta_path.remove(blocker)


def test_a_cold_open_forks_workers_that_import_nothing(monkeypatch,
                                                       tmp_path):
    """A reopened durable store's forked workers restore their primaries,
    write their images and replay their logs with what the parent
    imported: after one warm-up run, any import at all fails."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("platform lacks the fork start method")
    monkeypatch.setenv("REPRO_START_METHOD", "fork")
    from repro.replication import open_durable_engine

    entries = entries_for(200)
    survivors = sorted(key for key, _value in entries[50:])

    def reopen_and_crash(directory):
        with make_sharded_engine(EngineConfig(
                inner="hi-skiplist", shards=2, block_size=BLOCK_SIZE,
                seed=SEED, parallel="process", replication=2, max_workers=2,
                durability_dir=directory,
                durability_mode="secure")) as engine:
            engine.insert_many(entries)
        with open_durable_engine(directory) as reopened:
            reopened.delete_many([key for key, _value in entries[:50]])
            assert reopened.barrier()["redacted"]  # the workers' images
            for pid in reopened.worker_pids():
                os.kill(pid, signal.SIGKILL)
            deadline = time.time() + 5.0
            while len(reopened.dead_shard_positions()) < 2 \
                    and time.time() < deadline:
                time.sleep(0.02)
            assert reopened.recover().replayed == (0, 1)
            assert list(reopened) == survivors

    reopen_and_crash(str(tmp_path / "warm"))
    blocker = _RefuseImports()
    sys.meta_path.insert(0, blocker)
    try:
        reopen_and_crash(str(tmp_path / "cold"))
    finally:
        sys.meta_path.remove(blocker)


def test_a_plain_process_engine_never_imports_the_replication_package():
    """The plain engine's parent stays clear of ``repro.replication``."""
    code = textwrap.dedent("""
        import sys
        from repro.api import EngineConfig, make_sharded_engine

        with make_sharded_engine(EngineConfig(
                inner="b-tree", shards=3, block_size=16, seed=1,
                parallel="process", max_workers=2)) as engine:
            engine.insert_many((key, -key) for key in range(200))
            assert engine.contains_many([0, 199, 200]) == [True, True, False]
            engine.delete_many(range(0, 200, 2))
            assert len(engine.items()) == 100
        loaded = sorted(name for name in sys.modules
                        if name.startswith("repro.replication"))
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert completed.returncode == 0, completed.stderr


def test_the_whole_pool_starts_before_the_first_handshake(monkeypatch):
    """Every worker is forked and sent its ``__host__`` before the first
    reply is read, and the constructor returns after the last one."""
    from repro.api.process_engine import _ShardWorker

    events = []
    fork, send, receive = (_ShardWorker.__init__, _ShardWorker.send,
                           _ShardWorker.receive)

    def logged_fork(self, context):
        fork(self, context)
        events.append("fork")

    def logged_send(self, shard_id, method, args, trace=None):
        events.append(method)
        send(self, shard_id, method, args, trace)

    def logged_receive(self):
        events.append("reply")
        return receive(self)

    monkeypatch.setattr(_ShardWorker, "__init__", logged_fork)
    monkeypatch.setattr(_ShardWorker, "send", logged_send)
    monkeypatch.setattr(_ShardWorker, "receive", logged_receive)
    with make_sharded_engine(EngineConfig(inner="b-tree", shards=3,
                                          block_size=BLOCK_SIZE, seed=SEED,
                                          parallel="process")) as engine:
        assert events == ["fork"] * 3 + ["__host__"] * 3 + ["reply"] * 3
        assert engine.num_workers == 3


def plane_counters(engine):
    """The engine's ``plane.*`` counters, from one telemetry snapshot."""
    return {name[len("plane."):]: value
            for name, value in engine.telemetry().items()
            if name.startswith("plane.")}


def _spawn_index(engine):
    return {worker: index for index, worker in enumerate(engine._workers)}


def test_hosting_keeps_the_placement_and_counts_no_crossings(tmp_path):
    """Spawn up to the cap, then the least-loaded worker, earliest first;
    hosting commands never count as op-log commits, and the dispatch loop
    never traces them (no engine span is open while an engine starts)."""
    with make_sharded_engine(EngineConfig(
            inner="b-tree", shards=5, block_size=BLOCK_SIZE, seed=SEED,
            parallel="process", max_workers=2)) as engine:
        index = _spawn_index(engine)
        assert {position: index[shard.primary.worker] for position, shard
                in enumerate(engine.structure.shards)} \
            == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        assert plane_counters(engine) == {"fsync_batches": 0}
    with make_sharded_engine(EngineConfig(
            inner="b-tree", shards=4, block_size=BLOCK_SIZE, seed=SEED,
            parallel="process", max_workers=3, replication=2,
            durability_dir=str(tmp_path / "d"), telemetry=True)) as engine:
        index = _spawn_index(engine)
        assert {position: index[shard.primary.worker] for position, shard
                in enumerate(engine.structure.shards)} \
            == {0: 0, 1: 1, 2: 2, 3: 0}
        assert [sorted(worker.shard_ids) for worker in engine._workers] \
            == [[-3, -2, 0, 3], [-4, 1], [-1, 2]]
        telemetry = engine.telemetry()
        assert telemetry["plane.fsync_batches"] == 0
        assert telemetry["telemetry.crossings"] == 0


def _poison(shard):
    shard.poison = lambda: None  # a local lambda does not pickle
    return shard


def test_an_unclosed_engine_shuts_its_pool_down_when_dropped():
    """The shard proxies share the replica rules, not the engine, so no
    reference cycle keeps an engine that was never closed alive: dropping
    its last reference runs ``__del__``, which shuts every worker down,
    with the cycle collector off."""
    engine = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=2, block_size=BLOCK_SIZE, seed=SEED,
        parallel="process", replication=2, read_policy="round-robin"))
    engine.insert_many((key, key) for key in range(40))
    processes = [worker._process for worker in engine._workers]
    gc.disable()
    try:
        del engine
        for process in processes:
            process.join(5.0)
        assert not any(process.is_alive() for process in processes)
    finally:
        gc.enable()


def test_a_failed_start_shuts_down_every_worker_it_started():
    structure = make_dictionary("sharded", shards=3, inner="b-tree",
                                block_size=8, seed=SEED)
    _poison(structure.shards[1])
    alive = set(multiprocessing.active_children())
    with pytest.raises(AttributeError, match="pickle") as caught:
        ProcessShardedDictionaryEngine(structure)
    # The exception's traceback still holds the half-built engine, so
    # nothing has been collected: the failed start itself reaped its pool.
    assert caught.value.__traceback__ is not None
    assert set(multiprocessing.active_children()) == alive


def test_a_failed_restart_shuts_down_the_workers_it_started(monkeypatch):
    process = make_sharded_engine(EngineConfig(inner="b-tree", shards=3,
                                               block_size=8, seed=SEED,
                                               parallel="process"))
    try:
        process.insert_many(entries_for(60))
        _kill_worker(process, 1)
        survivors = set(multiprocessing.active_children())
        # The respawned worker rebuilds the shard from the build record,
        # so an unpicklable record fails the restart's one command.
        monkeypatch.setattr(process.structure.build_record, "poison",
                            lambda: None, raising=False)
        with pytest.raises(AttributeError, match="pickle"):
            process.restart_workers()
        assert set(multiprocessing.active_children()) == survivors
        assert process.dead_shard_positions() == [1]
        monkeypatch.undo()
        assert process.restart_workers() == [1]
        process.insert_many([(5000, 1)])
        assert process.contains_many([5000]) == [True]
        process.check()
    finally:
        process.close()


def test_an_unpicklable_batch_fails_alone_and_leaves_the_pipes_in_step():
    """A command that does not pickle never reaches its pipe, so the
    other workers' replies are still read and the next call sees its own."""
    with make_sharded_engine(EngineConfig(inner="b-tree", shards=2,
                                          block_size=8, seed=SEED,
                                          parallel="process")) as engine:
        keys = list(range(40))
        first = [key for key in keys if engine.structure.shard_of(key) == 0]
        second = [key for key in keys if engine.structure.shard_of(key) == 1]
        with pytest.raises(AttributeError, match="pickle"):
            engine.insert_many([(key, key) for key in first[:3]]
                               + [(second[0], lambda: None)])
        assert engine.contains_many(first[:3] + second[:1]) \
            == [True, True, True, False]
        assert len(engine) == 3


# --------------------------------------------------------------------------- #
# One command per crossing, and op-log commits: the plane.* counters
# --------------------------------------------------------------------------- #

def run_mixed_workload(engine):
    entries = entries_for(150)
    engine.insert_many(entries)
    keys = sorted({key for key, _value in entries})
    engine.delete_many(keys[::3])
    flags = engine.contains_many(list(range(0, 2003, 13)))
    return dict(engine.items()), flags


def test_a_packed_worker_takes_one_batch_per_shard(monkeypatch):
    """One worker hosting three shards receives three ``insert_batch``
    commands, one per shard and each its own crossing, and ends up with
    the sequential engine's items."""
    from repro.api.process_engine import _ShardWorker

    sent = []
    send = _ShardWorker.send

    def logged_send(self, shard_id, method, args, trace=None):
        sent.append((shard_id, method))
        send(self, shard_id, method, args, trace)

    entries = entries_for(60)
    sequential = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=3, block_size=BLOCK_SIZE, seed=SEED))
    sequential.insert_many(entries)
    with make_sharded_engine(EngineConfig(
            inner="b-treap", shards=3, block_size=BLOCK_SIZE, seed=SEED,
            parallel="process", max_workers=1)) as engine:
        assert engine.num_workers == 1
        monkeypatch.setattr(_ShardWorker, "send", logged_send)
        engine.insert_many(entries)
        assert sorted(sent) == sorted(
            (shard_id, "insert_batch")
            for shard_id in engine.structure.shard_ids)
        assert engine.items() == sequential.items()


def _count_worker_fsyncs(monkeypatch):
    """Wrap ``os.fsync`` so that forked workers count their calls in a
    shared counter; the parent's own fsyncs are not counted."""
    counter = multiprocessing.get_context("fork").Value("i", 0)
    parent = os.getpid()
    fsync = os.fsync

    def counting_fsync(fd):
        if os.getpid() != parent:
            with counter.get_lock():
                counter.value += 1
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return counter


@pytest.mark.parametrize("topology, after_insert, after_delete", [
    (dict(shards=4, max_workers=1), 4, 8),
    (dict(shards=4, max_workers=2), 4, 8),
    (dict(shards=4, max_workers=4, replication=2), 4, 8),
    (dict(shards=6, max_workers=3, replication=2), 6, 12),
    (dict(shards=3, router="consistent", replication=2), 3, 6),
], ids=["4-1-1", "4-2-1", "4-4-2", "6-3-2", "3-consistent-2"])
def test_fsync_batches_count_one_commit_per_primary_batch(
        tmp_path, monkeypatch, topology, after_insert, after_delete):
    """Each primary batch commits its own op log, whatever the packing,
    and ``plane.fsync_batches`` counts those commits.  Replicas keep no op
    log, so they never add fsyncs.  Under fork the workers' real fsyncs
    are counted too, and they equal the counter."""
    from repro.api.process_engine import _default_start_method

    forked = _default_start_method() == "fork"
    real = _count_worker_fsyncs(monkeypatch) if forked else None
    entries = entries_for(400)
    with make_sharded_engine(EngineConfig(
            inner="b-treap", block_size=BLOCK_SIZE, seed=SEED,
            parallel="process", durability_dir=str(tmp_path / "d"),
            fsync=True, **topology)) as engine:
        assert plane_counters(engine)["fsync_batches"] == 0
        before = real.value if forked else None
        engine.insert_many(entries)
        assert plane_counters(engine)["fsync_batches"] == after_insert
        engine.delete_many([key for key, _value in entries][::3])
        assert plane_counters(engine)["fsync_batches"] == after_delete
        if forked:
            assert real.value - before == after_delete


def test_plane_counters_are_deterministic_across_runs(tmp_path):
    observed = []
    for attempt in range(2):
        with make_sharded_engine(EngineConfig(
                inner="b-treap", shards=3, block_size=BLOCK_SIZE, seed=SEED,
                parallel="process", max_workers=2,
                durability_dir=str(tmp_path / str(attempt)))) as engine:
            run_mixed_workload(engine)
            observed.append(plane_counters(engine))
    assert observed[0] == observed[1]
    assert observed[0]["fsync_batches"] > 0


# --------------------------------------------------------------------------- #
# Fault injection: workers killed mid-batch, fork and spawn
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("site", ["worker.insert", "worker.delete"])
def test_worker_killed_mid_batch_recovers(tmp_path, monkeypatch, site,
                                          start_method):
    """A worker killed inside a bulk batch is a clean, recoverable crash.

    The first bulk call per worker is acknowledged; the fail point fires
    part-way through the next batch, so the parent must raise
    :class:`WorkerCrashError` and recovery must keep every acknowledged
    write.  ``REPRO_FAILPOINTS`` is armed before the engine is built
    (workers inherit it) and disarmed before recovery respawns workers.
    """
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip("platform lacks the %r start method" % (start_method,))
    monkeypatch.setenv("REPRO_START_METHOD", start_method)
    # Each of the two workers applies at most 40 inserts in the first
    # call, so the 41st insert (or the 5th delete) lands mid-batch later.
    monkeypatch.setenv("REPRO_FAILPOINTS",
                       site + (":41" if site == "worker.insert" else ":5"))
    acked = dict(entries_for(40))
    with make_sharded_engine(EngineConfig(
            inner="b-treap", shards=2, block_size=BLOCK_SIZE, seed=SEED,
            router="consistent", parallel="process", replication=1,
            durability_dir=str(tmp_path / "d"))) as engine:
        engine.insert_many(entries_for(40))
        with pytest.raises(WorkerCrashError):
            if site == "worker.insert":
                engine.insert_many(entries_for(200)[40:])
            else:
                engine.delete_many(sorted(acked)[:20])
        monkeypatch.delenv("REPRO_FAILPOINTS")
        report = engine.recover()
        assert report.positions
        recovered = dict(engine.items())
        untouched = sorted(acked)[20:] if site == "worker.delete" else acked
        assert all(recovered.get(key) == acked[key] for key in untouched)
        # The store stays fully usable after recovery.
        engine.insert_many([(9001, 1), (9002, 2)])
        assert engine.contains_many([9001, 9002, 9003]) == \
            [True, True, False]
        engine.check()

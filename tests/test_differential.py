"""Randomized differential harness: every registry entry vs. a plain oracle.

Each structure (and the sharded engine over several inner structures) is
driven through a seeded random operation trace — insert / delete / upsert /
search / contains / range / predecessor, including operations that must fail
(duplicate inserts, deletes and searches of absent keys) — while a reference
oracle (a plain ``dict`` plus a sorted key list) predicts every outcome.

On the first divergence the harness *shrinks* the trace: it removes chunks,
then single operations, as long as the failure still reproduces, and fails
the test with the minimal reproducing trace printed in replay-ready form::

    replay("b-tree", [("insert", 5, 0), ("delete", 5), ("search", 5)])

``replay`` (exported below) re-runs such a trace verbatim, so a shrunk
counterexample pasted from a CI log reproduces locally in one call.

The trace seed is fixed (override with ``REPRO_DIFF_SEED``) so CI runs are
reproducible; the per-structure randomness is seeded too.
"""

from __future__ import annotations

import bisect
import os
import random
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.api import DictionaryEngine, registry_names
from repro.errors import DuplicateKey, KeyNotFound

pytestmark = pytest.mark.fast

#: Fixed differential seed; CI can pin a different stream via the env var.
DIFF_SEED = int(os.environ.get("REPRO_DIFF_SEED", "20160626"))

#: Small key space so traces collide constantly (duplicates, re-inserts
#: after deletes, misses) — that is where dictionary bugs live.
KEY_SPACE = 64

STRUCTURE_SEED = 7
BLOCK_SIZE = 8

#: Sharded configurations ride along with the plain registry entries.
SHARDED_VARIANTS = (
    ("sharded+b-tree", {"shards": 3, "inner": "b-tree"}),
    ("sharded+hi-pma", {"shards": 2, "inner": "hi-pma"}),
    ("sharded+hi-skiplist", {"shards": 3, "inner": "hi-skiplist"}),
)

#: Process-backend configurations: the same traces, but every operation
#: crosses the pickled pipe into worker processes.  The packed variant caps
#: the pool below the shard count, so one worker hosts two of the shards.
PROCESS_VARIANTS = (
    ("process+b-tree", {"shards": 3, "inner": "b-tree"}),
    ("process+packed+b-tree", {"shards": 3, "inner": "b-tree",
                               "max_workers": 2}),
    ("process+hi-skiplist", {"shards": 3, "inner": "hi-skiplist"}),
    ("process+b-treap", {"shards": 3, "inner": "b-treap"}),
)

ALL_TARGETS = list(registry_names()) \
    + [name for name, _extra in SHARDED_VARIANTS] \
    + [name for name, _extra in PROCESS_VARIANTS]

Op = Tuple  # ("kind", *args)


def make_engine(target: str) -> DictionaryEngine:
    """Build the engine a differential target name denotes."""
    for name, extra in SHARDED_VARIANTS:
        if target == name:
            return DictionaryEngine.create("sharded", block_size=BLOCK_SIZE,
                                           cache_blocks=2, seed=STRUCTURE_SEED,
                                           **extra)
    for name, extra in PROCESS_VARIANTS:
        if target == name:
            from repro.api import EngineConfig, make_sharded_engine
            return make_sharded_engine(EngineConfig(
                inner=extra["inner"], shards=extra["shards"],
                block_size=BLOCK_SIZE, cache_blocks=2, seed=STRUCTURE_SEED,
                parallel="process", max_workers=extra.get("max_workers")))
    return DictionaryEngine.create(target, block_size=BLOCK_SIZE,
                                   cache_blocks=2, seed=STRUCTURE_SEED)


# --------------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------------- #

class Oracle:
    """Reference dictionary semantics: a dict plus a sorted key list."""

    def __init__(self) -> None:
        self.values = {}
        self.keys: List[int] = []

    def insert(self, key: int, value: object) -> Optional[str]:
        if key in self.values:
            return "DuplicateKey"
        bisect.insort(self.keys, key)
        self.values[key] = value
        return None

    def upsert(self, key: int, value: object) -> bool:
        existed = key in self.values
        if not existed:
            bisect.insort(self.keys, key)
        self.values[key] = value
        return existed

    def delete(self, key: int):
        if key not in self.values:
            return "KeyNotFound", None
        self.keys.pop(bisect.bisect_left(self.keys, key))
        return None, self.values.pop(key)

    def search(self, key: int):
        if key not in self.values:
            return "KeyNotFound", None
        return None, self.values[key]

    def contains(self, key: int) -> bool:
        return key in self.values

    def range_query(self, low: int, high: int) -> List[Tuple[int, object]]:
        return [(key, self.values[key]) for key in self.keys
                if low <= key <= high]

    def predecessor(self, key: int) -> Optional[Tuple[int, object]]:
        index = bisect.bisect_left(self.keys, key)
        if index == 0:
            return None
        found = self.keys[index - 1]
        return found, self.values[found]

    def items(self) -> List[Tuple[int, object]]:
        return [(key, self.values[key]) for key in self.keys]


# --------------------------------------------------------------------------- #
# Trace generation and execution
# --------------------------------------------------------------------------- #

def random_trace(rng: random.Random, steps: int,
                 with_predecessor: bool) -> List[Op]:
    """A seeded operation trace biased toward collisions and misses."""
    trace: List[Op] = []
    serial = 0
    for _ in range(steps):
        key = rng.randrange(KEY_SPACE)
        roll = rng.random()
        if roll < 0.34:
            trace.append(("insert", key, serial))
            serial += 1
        elif roll < 0.48:
            trace.append(("upsert", key, serial))
            serial += 1
        elif roll < 0.62:
            trace.append(("delete", key))
        elif roll < 0.74:
            trace.append(("search", key))
        elif roll < 0.82:
            trace.append(("contains", key))
        elif roll < 0.92 or not with_predecessor:
            low = rng.randrange(KEY_SPACE)
            trace.append(("range", low, low + rng.randrange(KEY_SPACE // 2)))
        else:
            trace.append(("predecessor", key))
    return trace


def run_trace(target: str, trace: Sequence[Op], builder=None) -> Optional[str]:
    """Replay ``trace`` against a fresh structure and the oracle.

    Returns ``None`` when every outcome matches, otherwise a description of
    the first divergence (used verbatim in the failure report).
    ``builder`` overrides :func:`make_engine` (the harness meta-test injects
    a deliberately buggy structure through it).
    """
    engine = (builder or make_engine)(target)
    try:
        return _run_trace_on(engine, trace)
    finally:
        close = getattr(engine, "close", None)
        if callable(close):
            close()  # reap the process backend's workers deterministically


def _run_trace_on(engine: DictionaryEngine,
                  trace: Sequence[Op],
                  oracle: Optional[Oracle] = None,
                  check_terminal: bool = True) -> Optional[str]:
    """Drive ``trace`` against ``engine`` while ``oracle`` predicts outcomes.

    Passing an ``oracle`` lets callers run a trace in segments (the durable
    crash/recover tests interleave ``recover()`` cycles between segments and
    keep one oracle across them); ``check_terminal=False`` skips the final
    whole-store comparison for non-final segments.
    """
    oracle = Oracle() if oracle is None else oracle
    native_predecessor = getattr(engine.structure, "predecessor", None)
    for index, operation in enumerate(trace):
        kind = operation[0]
        where = "op %d %r" % (index, operation)
        if kind == "insert":
            _key, value = operation[1], operation[2]
            expected_error = oracle.insert(operation[1], value)
            try:
                engine.insert(operation[1], value)
                got_error = None
            except DuplicateKey:
                got_error = "DuplicateKey"
            if got_error != expected_error:
                return "%s: expected %r, structure raised %r" \
                    % (where, expected_error, got_error)
        elif kind == "upsert":
            expected = oracle.upsert(operation[1], operation[2])
            got = engine.upsert(operation[1], operation[2])
            if got is not expected:
                return "%s: oracle existed=%r, structure returned %r" \
                    % (where, expected, got)
        elif kind == "delete":
            expected_error, expected_value = oracle.delete(operation[1])
            try:
                got_value, got_error = engine.delete(operation[1]), None
            except KeyNotFound:
                got_value, got_error = None, "KeyNotFound"
            if got_error != expected_error or got_value != expected_value:
                return "%s: oracle (%r, %r), structure (%r, %r)" \
                    % (where, expected_error, expected_value,
                       got_error, got_value)
        elif kind == "search":
            expected_error, expected_value = oracle.search(operation[1])
            try:
                got_value, got_error = engine.search(operation[1]), None
            except KeyNotFound:
                got_value, got_error = None, "KeyNotFound"
            if got_error != expected_error or got_value != expected_value:
                return "%s: oracle (%r, %r), structure (%r, %r)" \
                    % (where, expected_error, expected_value,
                       got_error, got_value)
        elif kind == "contains":
            expected = oracle.contains(operation[1])
            got = engine.contains(operation[1])
            if got is not expected:
                return "%s: oracle %r, structure %r" % (where, expected, got)
        elif kind == "range":
            expected_pairs = oracle.range_query(operation[1], operation[2])
            got_pairs = engine.range_query(operation[1], operation[2])
            if got_pairs != expected_pairs:
                return "%s: oracle %r, structure %r" \
                    % (where, expected_pairs, got_pairs)
        elif kind == "predecessor":
            if native_predecessor is None:
                continue
            expected_pair = oracle.predecessor(operation[1])
            got_pair = native_predecessor(operation[1])
            if got_pair != expected_pair:
                return "%s: oracle %r, structure %r" \
                    % (where, expected_pair, got_pair)
        else:  # pragma: no cover - trace generator bug
            raise AssertionError("unknown trace op %r" % (kind,))
    if not check_terminal:
        return None
    # Terminal state: iteration order, items, and invariants.
    if list(engine) != oracle.keys:
        return "final key order: oracle %r, structure %r" \
            % (oracle.keys, list(engine))
    if engine.items() != oracle.items():
        return "final items: oracle %r, structure %r" \
            % (oracle.items(), engine.items())
    engine.check()
    return None


def replay(target: str, trace: Sequence[Op]) -> Optional[str]:
    """Re-run a (possibly shrunk) trace; ``None`` means it passes now."""
    return run_trace(target, [tuple(operation) for operation in trace])


# --------------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------------- #

def shrink_trace(target: str, trace: List[Op], builder=None) -> List[Op]:
    """Greedy delta-debugging: drop chunks, then single ops, while it fails."""
    current = list(trace)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and run_trace(target, candidate, builder) is not None:
                current = candidate
            else:
                index += chunk
        chunk //= 2
    return current


# --------------------------------------------------------------------------- #
# The tests
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("trace_seed", [DIFF_SEED, DIFF_SEED + 1])
def test_differential_against_oracle(target, trace_seed):
    rng = random.Random(trace_seed)
    probe = make_engine(target)
    try:
        with_predecessor = callable(getattr(probe.structure,
                                            "predecessor", None))
    finally:
        close = getattr(probe, "close", None)
        if callable(close):
            close()
    trace = random_trace(rng, steps=220, with_predecessor=with_predecessor)
    failure = run_trace(target, trace)
    if failure is None:
        return
    minimal = shrink_trace(target, trace)
    pytest.fail(
        "differential divergence for %r (trace seed %d): %s\n"
        "minimal reproducing trace (%d ops) — replay with:\n"
        "  from tests.test_differential import replay\n"
        "  replay(%r, %r)"
        % (target, trace_seed, run_trace(target, minimal) or failure,
           len(minimal), target, minimal))


# --------------------------------------------------------------------------- #
# Bulk inserts: one insert_many call vs. a twin inserting key by key
# --------------------------------------------------------------------------- #

def bulk_batch(rng: random.Random, held: Sequence[int]) -> List[Tuple]:
    """One insert batch: an ascending run above the maximum (dense or with
    gaps), an unsorted batch, a run with a duplicate in the middle, or a
    run followed by an unsorted tail.  Unsorted keys may already be held."""
    top = max(held, default=-1)
    run = list(range(top + 1, top + 2 + rng.randrange(24)))
    kind = rng.randrange(5)
    if kind == 0:
        keys = run
    elif kind == 1:
        keys = sorted(rng.sample(range(top + 1, top + 80), len(run)))
    elif kind == 2:
        keys = rng.sample(range(top + 20), rng.randrange(1, 16))
    elif kind == 3:
        middle = len(run) // 2
        keys = run[:middle + 1] + run[middle:]
    else:
        keys = run + rng.sample(range(top + 1), min(top + 1, 6))
    return [(key, rng.randrange(1000)) for key in keys]


def one_key_at_a_time(engine: DictionaryEngine, method: str,
                      items: Sequence) -> Optional[Tuple[type, str]]:
    """Apply ``items`` with one point call each, under the bulk failure
    rule: each shard's items in input order up to that shard's first
    failure, then the failure of the lowest shard position is returned
    as ``(type, message)``."""
    shard_of = getattr(engine.structure, "shard_of", None)
    groups: dict = {}
    for item in items:
        key = item[0] if method == "insert" else item
        groups.setdefault(shard_of(key) if callable(shard_of) else 0,
                          []).append(item)
    failures = {}
    for position, group in groups.items():
        for item in group:
            try:
                if method == "insert":
                    engine.insert(*item)
                else:
                    engine.delete(item)
            except (DuplicateKey, KeyNotFound) as error:
                failures[position] = error
                break
    if not failures:
        return None
    error = failures[min(failures)]
    return type(error), Exception.__str__(error)


def as_one_batch(call, items: Sequence) -> Optional[Tuple[type, str]]:
    try:
        call(items)
    except (DuplicateKey, KeyNotFound) as error:
        return type(error), Exception.__str__(error)
    return None


def bulk_observables(engine: DictionaryEngine) -> Tuple:
    """Items, the slot-level layout, and the deterministic I/O counters."""
    stats = engine.io_stats()
    return (engine.items(), list(engine.structure.snapshot_slots()),
            (stats.reads, stats.writes, stats.cache_hits,
             stats.element_moves, stats.operations, dict(stats.counters)))


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_bulk_insert_trace_matches_a_key_by_key_twin(target):
    """``insert_many`` (with ``delete_many`` between batches) leaves every
    target exactly as a twin that inserts one key at a time: the same
    error, items, slot layout and I/O counters after every batch — for
    runs above the maximum, unsorted batches, duplicates mid-run and runs
    followed by an unsorted tail."""
    rng = random.Random(DIFF_SEED + 5)
    bulk, twin = make_engine(target), make_engine(target)
    try:
        for step in range(16):
            held = list(twin)
            if step % 4 == 3 and held:
                victims = rng.sample(held, min(len(held), 6))
                if rng.random() < 0.5:
                    victims.insert(rng.randrange(len(victims)), held[-1] + 7)
                expected = one_key_at_a_time(twin, "delete", victims)
                got = as_one_batch(bulk.delete_many, victims)
            else:
                pairs = bulk_batch(rng, held)
                expected = one_key_at_a_time(twin, "insert", pairs)
                got = as_one_batch(bulk.insert_many, pairs)
            assert got == expected, (target, step)
            assert bulk_observables(bulk) == bulk_observables(twin), \
                (target, step)
        bulk.check()
    finally:
        for engine in (bulk, twin):
            close = getattr(engine, "close", None)
            if callable(close):
                close()


# --------------------------------------------------------------------------- #
# Durable engines: the same oracle, but the trace crosses crash/recover
# cycles — results AND canonical layouts must still match the in-memory
# reference (the paper's anti-persistence property under the harness).
# --------------------------------------------------------------------------- #

DURABLE_SHARDS = 3


def make_durable_engine(mode: str, directory: str,
                        read_policy: str = "primary"):
    from repro.api import EngineConfig, make_sharded_engine
    return make_sharded_engine(EngineConfig(
        inner="b-treap", shards=DURABLE_SHARDS, block_size=BLOCK_SIZE,
        seed=STRUCTURE_SEED, router="consistent", parallel="process",
        replication=2, durability_dir=directory, durability_mode=mode,
        read_policy=read_policy))


def _canonical_digest(structure):
    from repro.api import audit_fingerprint_of
    from repro.storage import image_of
    from repro.storage.snapshot import snapshot_records

    paged, metadata = snapshot_records(list(structure.snapshot_slots()),
                                       page_size=512, payload_size=64)
    return (audit_fingerprint_of(structure),
            image_of(paged, metadata).fingerprint())


def _fresh_reference_digest(items):
    from repro.api import EngineConfig, make_sharded_engine

    fresh = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=DURABLE_SHARDS, block_size=BLOCK_SIZE,
        seed=STRUCTURE_SEED, router="consistent"))
    fresh.insert_many(items)
    return _canonical_digest(fresh.structure)


def _kill_one_worker(engine, position):
    """SIGKILL the worker hosting ``position``'s *primary*.

    ``worker_pids()`` is spawn-ordered, and recovery replaces dead workers
    with fresh spawns — so across multiple crash cycles the primary must be
    looked up through the shard-to-worker map, not by position index.
    """
    import signal
    import time

    shard_id = engine.structure.shard_ids[position]
    os.kill(engine._worker_by_shard[shard_id].pid, signal.SIGKILL)
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if position in engine.dead_shard_positions():
            return
        time.sleep(0.02)
    raise AssertionError("worker for position %d never reported dead"
                         % position)


@pytest.mark.parametrize("mode", ["logged", "secure"])
def test_differential_durable_trace_across_crash_recover_cycles(
        mode, tmp_path):
    """One oracle, one trace, three SIGKILL + ``recover()`` cycles.

    Acknowledged operations are durable, so a crash at an operation
    boundary must be invisible to the oracle: every segment after a
    recovery continues from exactly the state the previous segment left.
    The terminal bar is the canonical-digest identity — the recovered,
    crash-scarred store lays out like a fresh build of the oracle's items.
    """
    rng = random.Random(DIFF_SEED + 2)
    trace = random_trace(rng, steps=180, with_predecessor=False)
    oracle = Oracle()
    engine = make_durable_engine(mode, str(tmp_path / mode))
    try:
        bounds = [0, 60, 120, len(trace)]
        for cycle in range(3):
            segment = trace[bounds[cycle]:bounds[cycle + 1]]
            failure = _run_trace_on(engine, segment, oracle=oracle,
                                    check_terminal=False)
            assert failure is None, failure
            engine.barrier()
            _kill_one_worker(engine, cycle % engine.num_shards)
            report = engine.recover()
            assert report.positions
        assert engine.items() == oracle.items()
        assert list(engine) == oracle.keys
        engine.check()
        assert _canonical_digest(engine.structure) \
            == _fresh_reference_digest(oracle.items())
    finally:
        engine.close()


@pytest.mark.parametrize("read_policy", ["round-robin",
                                         "any-after-barrier"])
def test_differential_read_policy_trace_across_crash_recover_cycles(
        read_policy, tmp_path):
    """The crash-cycle trace again, but every read is fanned over the ring.

    Replica-served reads are only sound if replica clones are exact copies
    — so the oracle must stay blind to *which* copy answered, across three
    SIGKILL + ``recover()`` cycles that demote, promote and re-replicate
    copies underneath the read path.  The terminal canonical-digest bar is
    unchanged from the primary-only test.
    """
    rng = random.Random(DIFF_SEED + 3)
    trace = random_trace(rng, steps=180, with_predecessor=False)
    oracle = Oracle()
    engine = make_durable_engine("logged", str(tmp_path / read_policy),
                                 read_policy=read_policy)
    try:
        assert engine.read_policy == read_policy
        bounds = [0, 60, 120, len(trace)]
        for cycle in range(3):
            segment = trace[bounds[cycle]:bounds[cycle + 1]]
            failure = _run_trace_on(engine, segment, oracle=oracle,
                                    check_terminal=False)
            assert failure is None, failure
            engine.barrier()
            _kill_one_worker(engine, cycle % engine.num_shards)
            report = engine.recover()
            assert report.positions
        assert engine.items() == oracle.items()
        assert list(engine) == oracle.keys
        engine.check()
        assert _canonical_digest(engine.structure) \
            == _fresh_reference_digest(oracle.items())
        stats = engine.telemetry()
        assert stats["replica_reads.replica_reads"] > 0, (
            "read_policy=%r never served a read from a replica" %
            read_policy)
    finally:
        engine.close()


def test_differential_anti_entropy_repairs_a_diverged_replica(tmp_path):
    """A hand-diverged replica is caught by the digest sweep and reseeded
    — without re-exporting any healthy shard — and the trace continues
    against the oracle as if the divergence never happened.

    ``contains`` divergence on a replica is silent (a wrong bool raises
    nothing, so the cross-check never fires); ``anti_entropy()`` is the
    backstop that closes exactly that window.
    """
    rng = random.Random(DIFF_SEED + 4)
    trace = random_trace(rng, steps=160, with_predecessor=False)
    oracle = Oracle()
    engine = make_durable_engine("logged", str(tmp_path / "sweep"),
                                 read_policy="round-robin")
    try:
        failure = _run_trace_on(engine, trace[:80], oracle=oracle,
                                check_terminal=False)
        assert failure is None, failure
        # Diverge one replica clone behind the engine's back.
        victim_key = oracle.keys[0]
        structure = engine._structure
        position = structure.shard_of(victim_key)
        structure._shards[position].replicas[0].call("delete", victim_key)
        sweep = engine.anti_entropy()
        assert sweep["divergent"] == [position]
        assert sweep["reseeded"] == 1
        assert sweep["exported_positions"] == [position], (
            "anti-entropy exported healthy shards: %r"
            % (sweep["exported_positions"],))
        assert not sweep["recovered"]
        # The repaired ring keeps matching the oracle to the end.
        failure = _run_trace_on(engine, trace[80:], oracle=oracle,
                                check_terminal=False)
        assert failure is None, failure
        assert engine.items() == oracle.items()
        assert _canonical_digest(engine.structure) \
            == _fresh_reference_digest(oracle.items())
        # A second sweep over the repaired ring finds nothing to do.
        again = engine.anti_entropy()
        assert again["divergent"] == []
        assert again["reseeded"] == 0
    finally:
        engine.close()


def test_differential_secure_trace_after_a_mid_batch_failpoint_kill(
        tmp_path, monkeypatch):
    """A ``REPRO_FAILPOINTS`` kill lands *inside* a batch, then the full
    differential trace runs against the recovered secure engine.

    The torn batch uses a disposable key range disjoint from the trace's
    key space; after recovery the survivors are scrubbed and redacted, so
    the oracle starts from an empty store — and the scrubbed keys must
    audit as erased afterwards even though a crash interrupted the store.
    """
    from repro.errors import WorkerCrashError
    from repro.history.forensics import audit_durability_dir

    directory = str(tmp_path / "d")
    disposable = [(key, key) for key in range(10_000, 10_240)]
    monkeypatch.setenv("REPRO_FAILPOINTS", "worker.insert:25")
    engine = make_durable_engine("secure", directory)
    try:
        with pytest.raises(WorkerCrashError):
            engine.insert_many(disposable)
        monkeypatch.delenv("REPRO_FAILPOINTS", raising=False)
        report = engine.recover()
        assert not report.rebuilt_empty
        survivors = [key for key, _value in engine.items()]
        assert set(survivors) <= {key for key, _value in disposable}
        engine.delete_many(survivors)
        assert engine.barrier() == {"deletes": len(survivors),
                                    "redacted": bool(survivors)}
        rng = random.Random(DIFF_SEED + 3)
        trace = random_trace(rng, steps=160, with_predecessor=False)
        failure = _run_trace_on(engine, trace)
        assert failure is None, failure
        final_digest = _canonical_digest(engine.structure)
        assert final_digest == _fresh_reference_digest(engine.items())
    finally:
        engine.close()
    # The disposable keys were deleted before the redacting barrier and the
    # trace's key space (0..63) cannot re-encode them: no byte in the
    # durability directory may still betray them.
    assert audit_durability_dir(directory, [key for key, _v in disposable],
                                payload_size=64).clean


def test_harness_catches_a_seeded_bug():
    """The harness itself must detect and shrink a real divergence.

    A structure that silently drops one specific key exercises the failure
    path end to end: detection, shrinking, and a minimal trace that still
    reproduces — without this meta-test a vacuously green harness (e.g. an
    oracle that mirrors the bug) would go unnoticed.
    """
    from repro.api.protocol import HIDictionary

    class Lossy(HIDictionary):
        """A b-tree-like reference that refuses to store the key 13."""

        def __init__(self):
            self._data = {}

        def insert(self, key, value=None):
            if key in self._data:
                raise DuplicateKey(key)
            if key != 13:
                self._data[key] = value

        def delete(self, key):
            if key not in self._data:
                raise KeyNotFound(key)
            return self._data.pop(key)

        def search(self, key):
            if key not in self._data:
                raise KeyNotFound(key)
            return self._data[key]

        def contains(self, key):
            return key in self._data

        def items(self):
            return sorted(self._data.items())

        def range_query(self, low, high):
            return [(k, v) for k, v in self.items() if low <= k <= high]

        def check(self):
            pass

        def __len__(self):
            return len(self._data)

        def __iter__(self):
            return iter(sorted(self._data))

    target = "lossy-test-structure"
    builder = lambda _name: DictionaryEngine(Lossy(), name=target)

    trace = [("insert", 5, 0), ("insert", 13, 1), ("insert", 21, 2),
             ("search", 5), ("search", 13)]
    failure = run_trace(target, trace, builder)
    assert failure is not None and "13" in failure
    minimal = shrink_trace(target, list(trace), builder)
    # The minimal counterexample needs only the lossy insert: the terminal
    # key-order comparison already exposes the dropped key.
    assert minimal == [("insert", 13, 1)]
    assert run_trace(target, minimal, builder) is not None

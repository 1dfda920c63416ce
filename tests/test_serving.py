"""The network front-end end to end: loopback oracle, faults, drain.

ISSUE 8's acceptance bar for :mod:`repro.net`:

* **Differential oracle** — a workload run through the server over
  loopback returns byte-identical results, and the served store's
  canonical HI digests equal an identically-built in-process engine's.
  The wire must add no observable state of its own.
* **Faults** — a worker SIGKILLed mid-batch (``REPRO_FAILPOINTS``)
  surfaces to the client as a clean typed
  :class:`~repro.errors.WorkerCrashError`, not a hang or a torn frame.
* **Admission control** — over-budget requests get the distinct BUSY
  status and execute nothing.
* **Drain** — graceful shutdown flushes in-flight work, runs the final
  durability barrier, and closes every engine exactly once even when a
  signal-initiated drain races an explicit one (the double-close
  regression).  ``close()`` is idempotent on every engine flavor.
* **One client** — ``ReproClient`` is a blocking facade over
  ``AsyncReproClient``: shared across threads, bounded per call by its
  timeout, and closed without hanging a call in flight or leaking a
  thread or a socket.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import pytest

from repro.api import EngineConfig, make_sharded_engine
from repro.api.sharded import shard_index
from repro.errors import (
    ConfigurationError,
    DuplicateKey,
    KeyNotFound,
    ProtocolError,
    ServerBusyError,
    WorkerCrashError,
)
from repro.net import AsyncReproClient, ReproClient, ThreadedServer
from repro.net.server import engine_digest
from repro.workloads import random_insert_trace

pytestmark = pytest.mark.fast

SEED = 20160823
BLOCK_SIZE = 16


def layout_digest(engine):
    return engine_digest(engine)


def run_async(coroutine):
    """Run ``coroutine`` on a private loop, leaving the thread's current
    event loop alone (``asyncio.run`` would unset it for later tests)."""
    import asyncio

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def client_threads():
    return [thread for thread in threading.enumerate()
            if thread.name == "repro-client"]


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def recording_open_connection(monkeypatch):
    """Patch ``asyncio.open_connection`` to record every writer it opens."""
    import asyncio

    writers = []
    open_connection = asyncio.open_connection

    async def recording(*args, **kwargs):
        reader, writer = await open_connection(*args, **kwargs)
        writers.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio, "open_connection", recording)
    return writers


async def exchange(port, wire, reads):
    """Send raw ``wire`` bytes, then make ``reads`` reads through the
    server's own frame reader: each reply's header, ``None`` at EOF."""
    import asyncio

    from repro.net.protocol import decode_message, read_frame_async

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(wire)
        await writer.drain()
        replies = []
        for _ in range(reads):
            payload = await asyncio.wait_for(read_frame_async(reader), 10)
            replies.append(None if payload is None
                           else decode_message(payload)[0])
        return replies
    finally:
        writer.close()
        await writer.wait_closed()


def workload_results(store, entries):
    """Drive one store through the shared workload; return every result."""
    results = []
    results.append(store.insert_many(entries))
    keys = [key for key, _value in entries]
    results.append(store.contains_many(keys + [10**9, 10**9 + 1]))
    results.append(store.delete_many(keys[::3]))
    results.append(sorted(store.items()))
    results.append(len(store))
    return results


# --------------------------------------------------------------------------- #
# Differential oracle: the wire adds nothing observable
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("config", [
    EngineConfig(inner="b-treap", shards=3, block_size=BLOCK_SIZE,
                 seed=SEED),
    EngineConfig(inner="hi-skiplist", shards=2, block_size=BLOCK_SIZE,
                 seed=SEED, router="consistent"),
], ids=["modulo", "consistent"])
def test_loopback_is_byte_identical_to_in_process(config):
    entries = [(key, key * 7) for key in
               sorted({op.key for op in
                       random_insert_trace(400, seed=SEED)})]
    local = make_sharded_engine(config=config)
    try:
        expected = workload_results(local, entries)
        with ThreadedServer(config) as server:
            with ReproClient("127.0.0.1", server.port) as client:
                served = workload_results(client, entries)
                assert served == expected
                assert client.digest() == layout_digest(local)
                client.check()
    finally:
        local.close()


def test_loopback_process_backend_matches_sequential():
    config = EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                          seed=SEED, parallel="process", max_workers=2)
    sequential = make_sharded_engine(
        config=config.replace(parallel="none", max_workers=None))
    entries = [(key, key) for key in range(257)]
    try:
        expected = workload_results(sequential, entries)
        with ThreadedServer(config) as server:
            with ReproClient("127.0.0.1", server.port) as client:
                assert workload_results(client, entries) == expected
                assert client.digest() == layout_digest(sequential)
    finally:
        sequential.close()


def test_loopback_replicated_read_policy_matches_sequential():
    """A round-robin replicated store behind the wire: the hello advertises
    the policy, replicas actually serve reads, and nothing observable
    changes versus a sequential twin."""
    config = EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                          seed=SEED, parallel="process", max_workers=2,
                          replication=2, read_policy="round-robin")
    sequential = make_sharded_engine(
        config=config.replace(parallel="none", max_workers=None,
                              replication=1, read_policy="primary"))
    entries = [(key, key) for key in range(257)]
    try:
        expected = workload_results(sequential, entries)
        with ThreadedServer(config) as server:
            with ReproClient("127.0.0.1", server.port) as client:
                assert client.routing.read_policy == "round-robin"
                assert workload_results(client, entries) == expected
                for key, value in entries[:8]:
                    if key % 3:  # delete_many removed keys[::3]
                        assert client.search(key) == value
                assert client.digest() == layout_digest(sequential)
                served_engine = \
                    server.server._namespaces["default"].engine
                assert served_engine.telemetry()[
                    "replica_reads.replica_reads"] > 0
    finally:
        sequential.close()


def test_async_client_agrees_with_sync_client():
    config = EngineConfig(shards=3, block_size=BLOCK_SIZE, seed=SEED)
    entries = [(key, key * 2) for key in range(200)]

    async def drive(port):
        async with AsyncReproClient("127.0.0.1", port) as client:
            inserted = await client.insert_many(entries)
            flags = await client.contains_many([1, 2, 10**9])
            deleted = await client.delete_many([0, 1, 2])
            found = await client.search(100)
            count = await client.length()
            digests = await client.digest()
            return inserted, flags, deleted, found, count, digests

    local = make_sharded_engine(config=config)
    try:
        with ThreadedServer(config) as server:
            results = run_async(drive(server.port))
        assert results[0] == local.insert_many(entries)
        assert results[1] == local.contains_many([1, 2, 10**9])
        assert results[2] == local.delete_many([0, 1, 2])
        assert results[3] == local.search(100)
        assert results[4] == len(local)
        assert results[5] == layout_digest(local)
    finally:
        local.close()


def test_both_clients_refuse_a_short_bulk_reply():
    """A bulk reply with one answer fewer than the keys sent is a
    ``ProtocolError`` in both clients, for reads and deletes alike; the
    missing answers never read as ``False`` or ``None``."""
    config = EngineConfig(shards=2, block_size=BLOCK_SIZE, seed=1)
    keys = [1, 2, 3, 4]

    async def drive(port):
        async with AsyncReproClient("127.0.0.1", port) as client:
            for call in (client.contains_many, client.delete_many):
                with pytest.raises(ProtocolError, match=call.__name__):
                    await call(keys)

    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert_many([(key, key) for key in keys])
            engine = server.server._namespaces["default"].engine
            contains_many = engine.contains_many
            engine.contains_many = lambda batch: contains_many(batch)[:-1]
            engine.delete_many = lambda batch: [None] * (len(batch) - 1)
            for call in (client.contains_many, client.delete_many):
                with pytest.raises(ProtocolError, match=call.__name__):
                    call(keys)
        run_async(drive(server.port))


def test_a_cancelled_async_request_closes_its_connection(monkeypatch):
    """A request cancelled mid-flight (here by a timeout) closes its
    connection at once instead of leaving it to the garbage collector."""
    import asyncio

    release = threading.Event()

    async def drive(port):
        async with AsyncReproClient("127.0.0.1", port) as client:
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.contains(5), 0.2)
            assert not client._pool
            return [writer.is_closing() for writer in writers]

    config = EngineConfig(shards=2, block_size=BLOCK_SIZE, seed=1)
    with ThreadedServer(config) as server:
        ReproClient("127.0.0.1", server.port).close()  # builds the namespace
        writers = recording_open_connection(monkeypatch)
        engine = server.server._namespaces["default"].engine
        engine.contains = lambda key: release.wait(10)
        try:
            closing = run_async(drive(server.port))
        finally:
            release.set()
    assert closing == [True]


def test_values_outside_the_record_union_round_trip():
    """Values the fixed-width record union could not carry — bools, None,
    ints past 64 bits, nested tuples — cross the wire exactly (types
    included); values outside the wire's union are refused at the client
    before anything is sent."""
    config = EngineConfig(shards=2, seed=SEED)
    nested = (1, ("two", (b"three", (None, 4.5))))
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert_many([(1, True), (2, None), (3, 2 ** 200),
                                (4, nested), (2 ** 70, False)])
            assert client.search(1) is True
            assert client.search(2) is None
            assert client.search(3) == 2 ** 200
            assert client.search(4) == nested
            assert client.search(2 ** 70) is False
            assert client.delete_many([3]) == [2 ** 200]
            with pytest.raises(ConfigurationError):
                client.insert_many([(5, {"nested": 1})])
            with pytest.raises(ConfigurationError):
                client.insert(6, [1, 2])
            # nothing of the refused requests reached the server
            engine = server.server._namespaces["default"].engine
            assert sorted(engine.items()) == [
                (1, True), (2, None), (4, nested), (2 ** 70, False)]


def test_pickle_gadget_frame_is_refused_and_never_runs(tmp_path):
    """A version-1 pickle body (tag 3) with a valid CRC whose
    ``__reduce__`` would create a file: the server answers ProtocolError
    and the file never appears — untrusted bytes never reach pickle."""
    import pickle

    from repro.net.protocol import encode_message, frame

    sentinel = tmp_path / "pwned"

    class Gadget:
        def __reduce__(self):
            return (open, (str(sentinel), "w"))

    body = pickle.dumps([Gadget()])
    # Control: the gadget is live — unpickling these bytes creates the file.
    pickle.loads(body)[0].close()
    assert sentinel.exists()
    sentinel.unlink()
    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config) as server:
        reply, = run_async(exchange(server.port, frame(encode_message(
            {"id": 1, "op": "insert_many", "count": 1}, 3, body)), 1))
        assert reply["status"] == "error"
        assert reply["error"]["type"] == "ProtocolError"
        with ReproClient("127.0.0.1", server.port) as client:
            assert len(client) == 0
    assert not sentinel.exists()


# --------------------------------------------------------------------------- #
# The blocking client: one AsyncReproClient on a private loop thread
# --------------------------------------------------------------------------- #

def test_threads_sharing_one_client_match_the_sequential_result():
    """Six threads call one client at once on disjoint keys; every answer
    and the final store equal the same calls made one at a time."""
    config = EngineConfig(inner="b-treap", shards=3, block_size=BLOCK_SIZE,
                          seed=SEED)

    def work(store, index):
        keys = list(range(index * 100, index * 100 + 60))
        results = [store.insert_many((key, -key) for key in keys[:40])]
        for key in keys[40:]:
            store.insert(key, -key)
        results.append(store.contains_many(keys + [10 ** 9]))
        results.append(store.search(keys[7]))
        results.append(store.delete_many(keys[::4]))
        return results

    local = make_sharded_engine(config=config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        expected = [work(local, index) for index in range(6)]
        with ThreadedServer(config) as server:
            with ReproClient("127.0.0.1", server.port) as client:
                answers = {}
                threads = [threading.Thread(
                    target=lambda index=index: answers.__setitem__(
                        index, work(client, index)), daemon=True)
                    for index in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert [answers.get(index) for index in range(6)] == expected
                assert client.items() == local.items()
                assert client.digest() == layout_digest(local)
    finally:
        sys.setswitchinterval(interval)
        local.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors through /proc/self/fd")
def test_closing_a_client_mid_request_finishes_the_call_and_leaks_nothing():
    config = EngineConfig(shards=2, block_size=BLOCK_SIZE, seed=1)
    entered, release = threading.Event(), threading.Event()

    def stalled_contains(key):
        entered.set()
        return release.wait(10)

    with ThreadedServer(config) as server:
        server.server._namespaces["default"].engine.contains = \
            stalled_contains
        gc.collect()  # no earlier test's garbage closes a descriptor later
        before = open_fds()
        client = ReproClient("127.0.0.1", server.port)
        answers = []
        # Daemons: a close() that strands the call must fail this test,
        # not hang the interpreter's exit.
        caller = threading.Thread(
            target=lambda: answers.append(client.contains(5)), daemon=True)
        caller.start()
        try:
            assert entered.wait(10)
            closer = threading.Thread(target=client.close, daemon=True)
            closer.start()
            closer.join(0.3)
            assert closer.is_alive()  # close() waits for the call in flight
        finally:
            release.set()
        caller.join(10)
        closer.join(10)
        assert not caller.is_alive() and not closer.is_alive()
        assert answers == [True]
        assert not client_threads()
        # The server closes its end of the connection once it reads EOF.
        deadline = time.monotonic() + 10
        while open_fds() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert open_fds() <= before


def test_a_client_that_cannot_connect_raises_and_leaves_no_thread():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(OSError):
        ReproClient("127.0.0.1", port)
    assert not client_threads()


def test_a_call_past_its_timeout_raises_and_closes_its_socket(monkeypatch):
    release = threading.Event()
    config = EngineConfig(shards=2, block_size=BLOCK_SIZE, seed=1)
    with ThreadedServer(config) as server:
        engine = server.server._namespaces["default"].engine
        engine.contains = lambda key: release.wait(10)
        writers = recording_open_connection(monkeypatch)
        try:
            with ReproClient("127.0.0.1", server.port,
                             timeout=0.5) as client:
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.contains(5)
                elapsed = time.monotonic() - started
                # the handshake's pooled connection carried the request
                assert [writer.is_closing() for writer in writers] == [True]
        finally:
            release.set()
    assert 0.45 <= elapsed < 2.0


def test_a_reply_to_another_request_is_a_protocol_error():
    import asyncio

    from repro.net.protocol import (
        decode_message,
        encode_message,
        frame,
        read_frame_async,
    )

    async def drive():
        hung_up = asyncio.Event()

        async def misdirect(reader, writer):
            request = decode_message(await read_frame_async(reader))[0]
            writer.write(frame(encode_message(
                {"id": request["id"] + 1, "status": "ok"})))
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()
            await writer.wait_closed()
            hung_up.set()

        server = await asyncio.start_server(misdirect, "127.0.0.1", 0)
        client = AsyncReproClient("127.0.0.1",
                                  server.sockets[0].getsockname()[1])
        try:
            with pytest.raises(ProtocolError, match="reply id"):
                await client.handshake()
            assert not client._pool
            # the client closed that connection instead of pooling it
            await asyncio.wait_for(hung_up.wait(), 10)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    run_async(drive())


# --------------------------------------------------------------------------- #
# Routing
# --------------------------------------------------------------------------- #

def test_client_routes_with_the_servers_router():
    config = EngineConfig(shards=4, seed=SEED, router="consistent")
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            routing = client.routing
            assert routing.router.spec() == \
                server.server._namespaces["default"].engine.structure \
                .router.spec()
            assert routing.shard_ids == (0, 1, 2, 3)


def test_topology_change_is_flagged_and_the_client_refreshes():
    config = EngineConfig(shards=2, seed=SEED, router="consistent")
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert_many([(key, key) for key in range(100)])
            assert client.routing.shard_ids == (0, 1)
            # resize server-side, behind the client's back
            engine = server.server._namespaces["default"].engine
            engine.add_shard()
            # the stale-token request still executes correctly *and*
            # triggers a shard-map refresh
            assert client.contains_many(list(range(100))) == [True] * 100
            assert client.routing.shard_ids == (0, 1, 2)
            assert sorted(client.items()) == \
                [(key, key) for key in range(100)]


# --------------------------------------------------------------------------- #
# Namespaces
# --------------------------------------------------------------------------- #

def test_namespaces_are_isolated_tenants():
    config = EngineConfig(shards=2, seed=SEED)
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port,
                         namespace="alpha") as alpha, \
                ReproClient("127.0.0.1", server.port,
                            namespace="beta") as beta:
            alpha.insert_many([(key, "a") for key in range(10)])
            beta.insert_many([(key, "b") for key in range(3)])
            assert len(alpha) == 10
            assert len(beta) == 3
            assert alpha.search(5) == "a"
            assert sorted(alpha.handshake()["namespaces"]) == \
                ["alpha", "beta", "default"]


def test_bad_namespace_names_are_rejected():
    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config) as server:
        with pytest.raises(ConfigurationError):
            ReproClient("127.0.0.1", server.port, namespace="../escape")
        with pytest.raises(ConfigurationError):
            ReproClient("127.0.0.1", server.port, namespace="")
    assert not client_threads()  # a failed constructor stops its thread


def test_a_server_refuses_namespaces_past_its_cap():
    from repro.net.server import MAX_NAMESPACES

    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert(1, "one")
        for index in range(MAX_NAMESPACES - 1):
            ReproClient("127.0.0.1", server.port,
                        namespace="tenant%d" % index).close()
        held = server.server.namespaces()
        assert len(held) == MAX_NAMESPACES
        with pytest.raises(ConfigurationError, match="limit"):
            ReproClient("127.0.0.1", server.port, namespace="one-too-many")
        assert server.server.namespaces() == held
        with ReproClient("127.0.0.1", server.port) as client:
            assert client.search(1) == "one"


def test_durable_namespaces_get_their_own_subdirectories(tmp_path):
    import os

    directory = str(tmp_path / "store")
    config = EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                          seed=SEED, parallel="process", max_workers=2,
                          durability_dir=directory)
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port,
                         namespace="tenant1") as client:
            client.insert_many([(key, key) for key in range(32)])
            report = client.barrier()
            assert report["deletes"] == 0
        report = server.drain()
    assert set(report) == {"default", "tenant1"}
    assert report["tenant1"]["barrier"] is not None
    assert os.path.isdir(os.path.join(directory, "tenant1"))
    assert os.path.isfile(
        os.path.join(directory, "tenant1", "manifest.json"))


# --------------------------------------------------------------------------- #
# Typed errors over the wire
# --------------------------------------------------------------------------- #

def test_engine_errors_cross_as_their_original_types():
    config = EngineConfig(shards=2, seed=SEED)
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert(1, "one")
            with pytest.raises(KeyNotFound):
                client.search(999)
            with pytest.raises(KeyNotFound):
                client.delete_many([999])
            with pytest.raises(ConfigurationError):
                client.barrier()  # no durability on this engine
            # the connection survives message-level errors
            assert client.search(1) == "one"


# --------------------------------------------------------------------------- #
# One failure rule for every bulk path
# --------------------------------------------------------------------------- #

RULE_CONFIG = EngineConfig(inner="b-treap", shards=2, block_size=8, seed=7)


def _fresh_pairs(keys):
    return [(key, key) for key in keys]


def _rule_cases():
    """``(name, held pairs, op, batch, error type, error message, keys
    held afterwards)``.

    A failing bulk call applies each shard's batch up to that shard's own
    first failure, and raises the failure of the lowest shard position.
    Key 2 (and 98) route to the shard that also owns 11, 12 and 16.
    """
    low = min(key for key in range(1, 11) if shard_index(key, 2) == 0)
    high = min(key for key in range(1, 11) if shard_index(key, 2) == 1)
    return [
        ("insert", _fresh_pairs(range(1, 11)), "insert_many",
         [(2, "dup")] + _fresh_pairs(range(11, 21)), DuplicateKey, "2",
         list(range(1, 11)) + [13, 14, 15, 17, 18, 19, 20]),
        ("delete", _fresh_pairs(range(1, 21)), "delete_many",
         [98] + list(range(11, 21)), KeyNotFound, "98",
         list(range(1, 13)) + [16]),
        # The higher shard's duplicate comes first in input order, but the
        # lower shard position's failure is the one raised.
        ("lowest-shard", _fresh_pairs(range(1, 11)), "insert_many",
         [(high, "dup"), (low, "dup")] + _fresh_pairs(range(11, 21)),
         DuplicateKey, str(low), list(range(1, 11))),
    ]


RULE_CASES = _rule_cases()


def _failed_call(store, op, batch):
    """The ``(type, message)`` of the error ``store.op(batch)`` raises."""
    with pytest.raises(Exception) as caught:
        getattr(store, op)(batch)
    return type(caught.value), Exception.__str__(caught.value)


@pytest.mark.parametrize("case", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_every_bulk_path_follows_one_failure_rule(case):
    """The in-process engine, the process engine and both clients raise
    the same error for a failing bulk call and keep the same keys: each
    shard's batch runs until its own first failure, and the lowest shard
    position's failure is raised."""
    _name, held, op, batch, error_type, message, expected = case
    outcomes = {}
    for label, config in (("in-process", RULE_CONFIG),
                          ("process", RULE_CONFIG.replace(
                              parallel="process", max_workers=2))):
        engine = make_sharded_engine(config)
        try:
            engine.insert_many(held)
            error = _failed_call(engine, op, batch)
            outcomes[label] = error, engine.items()
        finally:
            engine.close()
    with ThreadedServer(RULE_CONFIG) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert_many(held)
            error = _failed_call(client, op, batch)
            outcomes["ReproClient"] = error, client.items()

    async def drive(port):
        async with AsyncReproClient("127.0.0.1", port) as client:
            await client.insert_many(held)
            try:
                await getattr(client, op)(batch)
            except Exception as raised:
                error = type(raised), Exception.__str__(raised)
            else:  # pragma: no cover - the assertion below reports it
                error = None
            return error, await client.items()

    with ThreadedServer(RULE_CONFIG) as server:
        outcomes["AsyncReproClient"] = run_async(drive(server.port))
    for label, (error, items) in outcomes.items():
        assert error == (error_type, message), label
        assert items == _fresh_pairs(expected), label


def test_worker_kill_mid_batch_is_a_clean_typed_error(monkeypatch):
    """The ISSUE 8 fault bar: a SIGKILLed worker mid-``insert_many``
    surfaces as ``WorkerCrashError`` on the client, typed and prompt."""
    monkeypatch.setenv("REPRO_FAILPOINTS", "worker.insert:25")
    config = EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                          seed=SEED, parallel="process", max_workers=2)
    with ThreadedServer(config) as server:
        monkeypatch.delenv("REPRO_FAILPOINTS")
        with ReproClient("127.0.0.1", server.port) as client:
            with pytest.raises(WorkerCrashError):
                client.insert_many([(key, key) for key in range(240)])


def test_server_busy_sheds_without_executing():
    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config, max_inflight=0) as server:
        client = ReproClient("127.0.0.1", server.port)  # hello is exempt
        try:
            with pytest.raises(ServerBusyError):
                client.insert_many([(1, 1)])
            with pytest.raises(ServerBusyError):
                len(client)
        finally:
            client.close()
        # nothing was executed
        assert len(server.server._namespaces["default"].engine) == 0


def test_oversized_frames_get_one_typed_reply_then_disconnect():
    from repro.net import protocol

    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config) as server:
        reply, after = run_async(exchange(
            server.port,
            protocol.FRAME_HEADER.pack(protocol.MAX_PAYLOAD + 1, 0), 2))
    assert reply["status"] == "error"
    assert reply["error"]["type"] == "ProtocolError"
    assert after is None  # server closed the stream


def test_garbage_bytes_never_hang_the_server():
    import socket

    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config) as server:
        for blob in (b"\x00" * 7, b"GET / HTTP/1.1\r\n\r\n", b"\xff" * 64):
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10.0)
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                # the server replies (typed error) and/or closes promptly
                sock.settimeout(10.0)
                while sock.recv(4096):
                    pass
            finally:
                sock.close()
        # and honest clients still get served afterwards
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert(1, 1)
            assert len(client) == 1


# --------------------------------------------------------------------------- #
# Drain and close discipline
# --------------------------------------------------------------------------- #

def test_drain_is_idempotent_and_closes_each_engine_once():
    """The signal+drain double-close regression: two concurrent drains
    (plus ``stop()``'s own) close the engine exactly once."""
    config = EngineConfig(shards=2, seed=SEED)
    server = ThreadedServer(config).start()
    engine = server.server._namespaces["default"].engine
    closes = []
    original_close = engine.close

    def counting_close():
        closes.append(1)
        original_close()

    engine.close = counting_close
    reports = []
    threads = [threading.Thread(target=lambda: reports.append(server.drain()))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.drain()   # a third, late drain
    server.stop()    # stop() drains again internally
    assert len(closes) == 1
    assert reports[0] == reports[1]


def test_close_is_idempotent_on_every_engine_flavor(tmp_path):
    flavors = [
        EngineConfig(shards=2, seed=SEED),
        EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                     seed=SEED, parallel="process", max_workers=2),
        EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                     seed=SEED, parallel="process", max_workers=2,
                     replication=2,
                     durability_dir=str(tmp_path / "durable")),
    ]
    for config in flavors:
        engine = make_sharded_engine(config=config)
        engine.insert_many([(1, 1), (2, 2)])
        engine.close()
        engine.close()  # must be a no-op, not an error
        if hasattr(engine, "drain"):
            report = engine.drain()  # drain after close is also a no-op
            assert report["was_open"] is False


def test_drain_reports_a_final_barrier_for_durable_engines(tmp_path):
    config = EngineConfig(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                          seed=SEED, parallel="process", max_workers=2,
                          durability_dir=str(tmp_path / "store"))
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.insert_many([(key, key) for key in range(64)])
        report = server.drain()
    assert report["default"]["was_open"] is True
    assert report["default"]["barrier"] == {"deletes": 0, "redacted": False}


def test_requests_after_drain_are_refused_not_hung():
    config = EngineConfig(shards=1, seed=SEED)
    with ThreadedServer(config) as server:
        client = ReproClient("127.0.0.1", server.port)
        try:
            client.insert(1, 1)
            server.drain()
            with pytest.raises((ProtocolError, ConnectionError, OSError)):
                client.insert(2, 2)
        finally:
            client.close()

"""The asyncio front-end that puts an HI dictionary engine on a socket.

:class:`ReproServer` hosts one engine per **namespace** — independent
tenants built from the same :class:`~repro.api.config.EngineConfig`, with
durable namespaces checkpointing into per-namespace subdirectories of the
config's durability directory, and at most :data:`MAX_NAMESPACES` of
them.  Engines are not thread-safe, so every engine call runs in the
default executor under a per-namespace lock; the event loop itself never
blocks on a batch.

Three server-side disciplines the tests pin down:

* **Admission control** — each connection gets a bounded in-flight budget
  (``max_inflight``).  A request over budget is answered with a distinct
  BUSY status *without executing anything*, so clients can retry safely;
  the handshake is exempt so a client can always learn the budget.
* **Typed errors** — engine failures cross the wire as their original
  class name plus message (:func:`repro.net.protocol.error_payload`) and
  the connection stays usable; *frame*-level failures (torn, oversized or
  CRC-failing frames) get at most one final error reply and then the
  connection closes, because the stream past the tear cannot be trusted.
* **Graceful drain** — :meth:`ReproServer.drain` stops accepting, lets
  in-flight batches finish, then runs each engine's ``drain()`` (a final
  durability barrier for durable engines) and closes it exactly once,
  no matter how many times drain is invoked (signal + shutdown races
  included).

:class:`ThreadedServer` wraps all of that in a background event-loop
thread for synchronous callers — tests, benchmarks, and the example.
"""

from __future__ import annotations

import asyncio
import hashlib
import re
import threading
from typing import Dict, List, Optional, Tuple

from repro.api.config import EngineConfig
from repro.api.sharded import make_sharded_engine
from repro.errors import ConfigurationError, ProtocolError
from repro.net import protocol
from repro.net.protocol import (
    BODY_NONE,
    PROTOCOL_VERSION,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
    TRACE_KEY,
    WireCodec,
    decode_message,
    encode_message,
    error_payload,
    frame,
    read_frame_async,
    topology_token,
)
from repro.obs import NULL_SPAN, Tracer, run_under

#: Namespaces are path components of durable subdirectories, so their
#: alphabet is locked down.
_NAMESPACE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Each namespace is a whole engine (worker processes, on the process
#: backend), so a server builds at most this many; ``default`` counts.
MAX_NAMESPACES = 16

#: Default per-connection in-flight budget.
DEFAULT_MAX_INFLIGHT = 32


def engine_digest(engine) -> List[str]:
    """Per-shard canonical digests of the engine's observable state.

    The same fingerprint ``repro recover --verify`` prints: a SHA-256 of
    each shard's ``(audit_fingerprint(), snapshot_slots())`` — a pure
    function of the key set and seed for an HI structure, which is what
    makes it usable as a cross-process differential oracle.
    """
    digests = []
    for shard in engine.structure.shards:
        observable = (shard.audit_fingerprint(), tuple(shard.snapshot_slots()))
        digests.append(hashlib.sha256(
            repr(observable).encode("utf-8")).hexdigest()[:16])
    return digests


class _Namespace:
    """One tenant: an engine, its serialization lock, and its drain state."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.lock = asyncio.Lock()
        self.drained = False


class _Connection:
    """Per-connection admission and write-ordering state."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight = 0


class ReproServer:
    """Serve engines built from one :class:`EngineConfig` over TCP."""

    def __init__(self, config: EngineConfig, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 max_payload: int = protocol.MAX_PAYLOAD) -> None:
        if not isinstance(config, EngineConfig):
            raise ConfigurationError(
                "ReproServer needs an EngineConfig, got %r" % (config,))
        config.validate()
        if not isinstance(max_inflight, int) or isinstance(max_inflight, bool):
            raise ConfigurationError(
                "max_inflight must be an integer, got %r" % (max_inflight,))
        if max_inflight < 0:
            raise ConfigurationError(
                "max_inflight must be >= 0, got %d" % max_inflight)
        self._config = config
        # Fails now (not at handshake time) for non-serializable seeds.
        self._config_dict = config.to_dict()
        # The server-side tracer: adopted client spans (and the engine /
        # worker spans nested beneath them) land in its ring, which is
        # what the ``traces`` verb serves.  Enabled alongside the
        # engines' tracing (config or REPRO_TRACE=1).
        self._tracer = Tracer.from_env(default_enabled=config.telemetry)
        self._host = host
        self._port = port
        self._max_inflight = max_inflight
        self._max_payload = max_payload
        self._codec = WireCodec()
        self._namespaces: Dict[str, _Namespace] = {}
        self._namespace_lock = asyncio.Lock()
        self._tasks: "set" = set()
        self._draining = asyncio.Event()
        self._drain_lock = asyncio.Lock()
        self._drain_report: Optional[Dict[str, object]] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind, build the default namespace, and begin accepting."""
        await self._namespace("default")
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def config(self) -> EngineConfig:
        return self._config

    def namespaces(self) -> List[str]:
        return sorted(self._namespaces)

    async def telemetry_snapshot(self, name: str = "default"
                                 ) -> Dict[str, object]:
        """One namespace's unified telemetry (what the ``stats`` verb
        serves), with the server's own counters folded in — the periodic
        ``--metrics-interval`` dump and in-process pollers use this."""
        namespace = await self._namespace(name)
        loop = asyncio.get_running_loop()
        async with namespace.lock:
            snapshot = await loop.run_in_executor(
                None, namespace.engine.telemetry)
        for key, value in self._tracer.snapshot().items():
            snapshot["server.telemetry." + key] = value
        return snapshot

    async def drain(self) -> Dict[str, object]:
        """Stop accepting, flush in-flight work, drain every engine once.

        Idempotent: concurrent and repeated calls (a signal handler racing
        an explicit shutdown) all return the first call's report, and each
        engine's ``drain()``/``close()`` runs exactly once.
        """
        async with self._drain_lock:
            if self._drain_report is not None:
                return self._drain_report
            self._draining.set()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            pending = [task for task in tuple(self._tasks)
                       if not task.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            loop = asyncio.get_running_loop()
            report: Dict[str, object] = {}
            for name in sorted(self._namespaces):
                namespace = self._namespaces[name]
                async with namespace.lock:
                    if namespace.drained:
                        continue
                    namespace.drained = True
                    report[name] = await loop.run_in_executor(
                        None, self._drain_engine, namespace.engine)
            self._drain_report = report
            return report

    @staticmethod
    def _drain_engine(engine) -> object:
        drainer = getattr(engine, "drain", None)
        if callable(drainer):
            return drainer()
        engine.close()
        return {"barrier": None, "was_open": True}

    def _namespace_config(self, name: str) -> EngineConfig:
        if self._config.durability_dir is None:
            return self._config
        import os

        return self._config.replace(
            durability_dir=os.path.join(self._config.durability_dir, name))

    async def _namespace(self, name: str) -> _Namespace:
        if not isinstance(name, str) or not _NAMESPACE.match(name):
            raise ConfigurationError(
                "namespace must match %s, got %r" % (_NAMESPACE.pattern, name))
        async with self._namespace_lock:
            namespace = self._namespaces.get(name)
            if namespace is None:
                if self._draining.is_set():
                    raise ConfigurationError(
                        "server is draining; no new namespaces")
                if len(self._namespaces) >= MAX_NAMESPACES:
                    raise ConfigurationError(
                        "server holds %d namespaces, its limit; refusing %r"
                        % (len(self._namespaces), name))
                loop = asyncio.get_running_loop()
                config = self._namespace_config(name)
                engine = await loop.run_in_executor(
                    None, lambda: make_sharded_engine(config=config))
                namespace = _Namespace(engine)
                self._namespaces[name] = namespace
            return namespace

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        connection = _Connection(writer)
        drain_wait = asyncio.ensure_future(self._draining.wait())
        try:
            while not self._draining.is_set():
                read = asyncio.ensure_future(
                    read_frame_async(reader, self._max_payload))
                done, _ = await asyncio.wait(
                    {read, drain_wait},
                    return_when=asyncio.FIRST_COMPLETED)
                if read not in done:
                    read.cancel()
                    try:
                        await read
                    except (asyncio.CancelledError, ProtocolError):
                        pass
                    break
                try:
                    payload = read.result()
                except ProtocolError as error:
                    # The stream is torn; one final typed reply, then out.
                    await self._write_reply(
                        connection,
                        {"status": STATUS_ERROR, "id": None,
                         "error": error_payload(error)},
                        best_effort=True)
                    break
                if payload is None:
                    break
                if not self._admit(connection, payload):
                    continue
        finally:
            drain_wait.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _admit(self, connection: _Connection, payload: bytes) -> bool:
        """Admission-check one frame; schedule its handler if admitted.

        Returns ``False`` only when the frame is structurally broken and
        the connection must close.
        """
        try:
            header, body_tag, body = decode_message(payload)
        except ProtocolError as error:
            task = asyncio.ensure_future(self._write_reply(
                connection,
                {"status": STATUS_ERROR, "id": None,
                 "error": error_payload(error)},
                best_effort=True))
            self._track(task)
            return False
        request_id = header.get("id")
        op = header.get("op")
        if (op != "hello"
                and connection.inflight >= self._max_inflight):
            task = asyncio.ensure_future(self._write_reply(
                connection,
                {"status": STATUS_BUSY, "id": request_id,
                 "message": "connection has %d request(s) in flight "
                            "(budget %d); nothing was executed"
                            % (connection.inflight, self._max_inflight)}))
            self._track(task)
            return True
        connection.inflight += 1
        task = asyncio.ensure_future(
            self._handle(connection, header, body_tag, body))
        self._track(task)
        return True

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _write_reply(self, connection: _Connection,
                           header: Dict[str, object],
                           body_tag: int = BODY_NONE, body: bytes = b"",
                           best_effort: bool = False) -> None:
        try:
            async with connection.write_lock:
                connection.writer.write(
                    frame(encode_message(header, body_tag, body)))
                await connection.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            if not best_effort:
                raise

    async def _handle(self, connection: _Connection,
                      header: Dict[str, object],
                      body_tag: int, body: bytes) -> None:
        request_id = header.get("id")
        try:
            reply, reply_tag, reply_body = await self._dispatch(
                header, body_tag, body)
            reply["status"] = STATUS_OK
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: B036 - typed wire mapping
            reply = {"error": error_payload(error), "status": STATUS_ERROR}
            reply_tag, reply_body = BODY_NONE, b""
        finally:
            connection.inflight -= 1
        reply["id"] = request_id
        await self._write_reply(connection, reply, reply_tag, reply_body,
                                best_effort=True)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    async def _dispatch(self, header: Dict[str, object],
                        body_tag: int, body: bytes
                        ) -> Tuple[Dict[str, object], int, bytes]:
        op = header.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request has no op")
        if op == "hello":
            return await self._op_hello(header)
        namespace = await self._namespace(
            header.get("namespace", "default"))
        if namespace.drained:
            raise ConfigurationError(
                "namespace %r is drained" % header.get("namespace"))
        values = self._codec.decode_body(
            body_tag, body, header.get("count", 0))
        engine = namespace.engine
        loop = asyncio.get_running_loop()
        trace_raw = header.get(TRACE_KEY)
        if not isinstance(trace_raw, dict):
            # A malformed trace header is ignored, never an error —
            # telemetry must not be able to fail a request.
            trace_raw = None
        # The server span is NOT entered on the event-loop thread (its
        # TLS stack is shared by every interleaved request); it is handed
        # to each executor call via run_under and finished explicitly.
        span = self._tracer.adopt(
            trace_raw, "server." + op,
            tags={"namespace": str(header.get("namespace", "default"))})

        def call(function, *args):
            return loop.run_in_executor(None, run_under, span,
                                        function, *args)

        reply: Dict[str, object] = {}
        if trace_raw is not None:
            reply[TRACE_KEY] = trace_raw.get("trace")
        elif span is not NULL_SPAN:
            reply[TRACE_KEY] = span.trace_id
        shard_ids = tuple(engine.structure.shard_ids)
        token = header.get("topo")
        if token is not None and token != topology_token(shard_ids):
            reply["topology_changed"] = True
        try:
            return await self._op_on_engine(namespace, op, values, reply,
                                            call, span)
        finally:
            if span is not NULL_SPAN:
                span.finish()

    async def _op_on_engine(self, namespace: _Namespace, op: str,
                            values: List[object],
                            reply: Dict[str, object], call, span
                            ) -> Tuple[Dict[str, object], int, bytes]:
        engine = namespace.engine
        shard_ids = tuple(engine.structure.shard_ids)
        async with namespace.lock:
            if op == "shard_map":
                reply.update({"shard_ids": list(shard_ids),
                              "router": dict(engine.structure.router.spec()),
                              "topo": topology_token(shard_ids)})
                return reply, BODY_NONE, b""
            if op == "insert_many":
                reply["inserted"] = await call(engine.insert_many, values)
                return reply, BODY_NONE, b""
            if op == "delete_many":
                deleted = await call(engine.delete_many, values)
                tag, blob = self._codec.encode_values(deleted)
                reply["count"] = len(deleted)
                return reply, tag, blob
            if op == "contains_many":
                flags = await call(engine.contains_many, values)
                tag, blob = WireCodec.encode_flags(flags)
                reply["count"] = len(flags)
                return reply, tag, blob
            if op == "search":
                if len(values) != 1:
                    raise ProtocolError(
                        "search takes exactly one key, got %d" % len(values))
                found = await call(engine.search, values[0])
                tag, blob = self._codec.encode_values([found])
                reply["count"] = 1
                return reply, tag, blob
            if op == "contains":
                if len(values) != 1:
                    raise ProtocolError(
                        "contains takes exactly one key, got %d"
                        % len(values))
                reply["found"] = await call(engine.contains, values[0])
                return reply, BODY_NONE, b""
            if op == "items":
                pairs = await call(engine.items)
                tag, blob = self._codec.encode_values(
                    [tuple(pair) for pair in pairs])
                reply["count"] = len(pairs)
                return reply, tag, blob
            if op == "len":
                reply["length"] = await call(engine.__len__)
                return reply, BODY_NONE, b""
            if op == "check":
                await call(engine.check)
                return reply, BODY_NONE, b""
            if op == "digest":
                reply["digests"] = await call(engine_digest, engine)
                return reply, BODY_NONE, b""
            if op == "barrier":
                barrier = getattr(engine, "barrier", None)
                if not callable(barrier):
                    raise ConfigurationError(
                        "engine %s has no durability barrier"
                        % type(engine).__name__)
                reply["report"] = await call(barrier)
                return reply, BODY_NONE, b""
            if op == "stats":
                stats = await call(engine.telemetry)
                for name, value in self._tracer.snapshot().items():
                    stats["server.telemetry." + name] = value
                reply["stats"] = stats
                return reply, BODY_NONE, b""
            if op == "traces":
                # Server-adopted request trees first (each carries its
                # engine and worker sub-spans), then traces the engine
                # recorded outside any wire request.
                reply["traces"] = (self._tracer.traces()
                                   + list(engine.tracer.traces()))
                reply["slow"] = (self._tracer.slow_ops()
                                 + list(engine.tracer.slow_ops()))
                return reply, BODY_NONE, b""
        raise ProtocolError("unknown op %r" % op)

    async def _op_hello(self, header: Dict[str, object]
                        ) -> Tuple[Dict[str, object], int, bytes]:
        namespace = await self._namespace(
            header.get("namespace", "default"))
        engine = namespace.engine
        shard_ids = tuple(engine.structure.shard_ids)
        reply = {
            "version": PROTOCOL_VERSION,
            "config": dict(self._config_dict),
            "router": dict(engine.structure.router.spec()),
            "shard_ids": list(shard_ids),
            "topo": topology_token(shard_ids),
            # Explicit so clients need not dig through the config dict:
            # non-primary policies mean bulk reads are already fanned over
            # the whole ring server-side, transparently to the wire.
            "read_policy": self._config.read_policy,
            "max_inflight": self._max_inflight,
            "max_payload": self._max_payload,
            "namespaces": self.namespaces(),
        }
        return reply, BODY_NONE, b""


class ThreadedServer:
    """A :class:`ReproServer` on a background event-loop thread.

    The synchronous facade tests, benchmarks and examples use::

        with ThreadedServer(config) as server:
            client = ReproClient("127.0.0.1", server.port)

    ``drain()`` may be called from any thread (including twice — the
    double-close regression the signal+drain race covers); ``stop()``
    drains, parks the loop, and joins the thread.
    """

    def __init__(self, config: EngineConfig, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 max_payload: int = protocol.MAX_PAYLOAD) -> None:
        self._kwargs = dict(host=host, port=port, max_inflight=max_inflight,
                            max_payload=max_payload)
        self._config = config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[ReproServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ThreadedServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join()
            self._thread = None
            raise error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = ReproServer(self._config, **self._kwargs)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # startup failures surface in start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._server = server
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.drain())
            loop.close()

    @property
    def host(self) -> str:
        return self._require_server().host

    @property
    def port(self) -> int:
        return self._require_server().port

    @property
    def server(self) -> ReproServer:
        return self._require_server()

    def _require_server(self) -> ReproServer:
        if self._server is None:
            raise ConfigurationError("server is not running; call start()")
        return self._server

    def drain(self) -> Dict[str, object]:
        server, loop = self._server, self._loop
        if server is None or loop is None or loop.is_closed():
            return {}
        future = asyncio.run_coroutine_threadsafe(server.drain(), loop)
        return future.result()

    def stop(self) -> None:
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        if loop is not None and not loop.is_closed():
            self.drain()
            loop.call_soon_threadsafe(loop.stop)
        thread.join()
        self._thread = None
        self._loop = None
        self._server = None
        self._ready.clear()

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

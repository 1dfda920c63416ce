"""The network front-end's client: one asyncio implementation plus a
blocking facade over it.

:class:`AsyncReproClient` speaks :mod:`repro.net.protocol`.  Each call is
one request; a bulk call carries the whole batch in input order, and the
server routes it by key and applies it with one engine call, which drives
every shard at once.  The client routes nothing.  It keeps the facts of
the last ``hello`` reply as :attr:`AsyncReproClient.routing` (the server's
config, read policy, in-flight budget, frame limit, shard ids and router),
and :meth:`AsyncReproClient.handshake` reads them again.  A request whose
frame would exceed the server's ``max_payload`` is refused before anything
is sent, so a bulk call must fit in one frame.  A reply field of the wrong
type is a :class:`~repro.errors.ProtocolError` naming the op and the field.

:class:`ReproClient` is the same client for synchronous callers: it runs
one :class:`AsyncReproClient` on a private event-loop thread, so the
request path and the reply checks exist once.  Neither client imports the
engine stack: ``repro.api`` loads only if a caller reads
``routing.router``.

Server-side failures arrive as typed exceptions — the original
:mod:`repro.errors` class where the client knows it,
:class:`~repro.errors.RemoteError` (name + message preserved) where it
does not, and :class:`~repro.errors.ServerBusyError` for admission-control
sheds, which are always safe to retry.  A bulk call follows the engines'
failure rule, which the server's engine applies: each shard's batch runs
until its own first failure, and the failure of the lowest shard position
is raised.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.net import protocol
from repro.net.protocol import (
    BODY_NONE,
    PROTOCOL_VERSION,
    TRACE_KEY,
    WireCodec,
    decode_message,
    encode_message,
    frame,
    raise_for_reply,
)
from repro.obs import NULL_SPAN, Tracer
from repro.obs.tracing import HEADER_SPAN, HEADER_TRACE

Pair = Tuple[object, object]


def _as_pair(entry: object) -> Pair:
    if isinstance(entry, tuple) and len(entry) == 2:
        return entry
    if isinstance(entry, (list,)) and len(entry) == 2:
        return (entry[0], entry[1])
    return (entry, None)


def _field(op: str, name: str, value: object, kind: type):
    """``value``, the ``name`` of an ``op`` reply, if it is a ``kind`` (a
    bool is not an int); a :class:`ProtocolError` naming both otherwise."""
    if isinstance(value, kind) and (kind is bool or type(value) is not bool):
        return value
    raise ProtocolError("%s reply's %r is %r, expected %s"
                        % (op, name, value, kind.__name__))


class _Handshake:
    """The facts of one ``hello`` reply.  The client routes nothing; the
    server does."""

    def __init__(self, hello: Dict[str, object]) -> None:
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                "server speaks protocol version %r, client speaks %d"
                % (hello.get("version"), PROTOCOL_VERSION))

        def fact(name: str, kind: type):
            return _field("hello", name, hello.get(name), kind)

        self.config = fact("config", dict)
        self.read_policy = fact("read_policy", str)
        self.max_inflight = fact("max_inflight", int)
        self.max_payload = fact("max_payload", int)
        self.shard_ids = tuple(fact("shard_ids", list))
        #: The server router's :meth:`~repro.api.routing.Router.spec`.
        self.router_spec = fact("router", dict)

    @cached_property
    def router(self):
        """The server's router, built from :attr:`router_spec` on first
        read; that read imports :mod:`repro.api`."""
        from repro.api.routing import make_router

        return make_router(self.router_spec)


class ReproClient:
    """Blocking facade over one :class:`AsyncReproClient`.

    The async client runs on a private event-loop thread, and each call
    is submitted to it with :func:`asyncio.run_coroutine_threadsafe`.
    ``timeout`` bounds each whole call: one that overruns raises
    :class:`TimeoutError`, and its cancelled requests close their own
    connections.  Thread-safe: callers may share one client, and their
    calls run concurrently; ``pool_size`` bounds how many idle
    connections are kept.  ``close()`` refuses new calls, lets the ones
    in flight finish (each still bounded by ``timeout``), then closes
    every connection and joins the thread.
    """

    def __init__(self, host: str, port: int, *,
                 namespace: str = "default", pool_size: int = 2,
                 timeout: float = 10.0) -> None:
        self._client = AsyncReproClient(host, port, namespace=namespace,
                                        pool_size=pool_size)
        self._timeout = timeout
        self.tracer = self._client.tracer
        self._lock = threading.Lock()
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-client", daemon=True)
        self._thread.start()
        try:
            self._run(self._client.connect)
        except BaseException:
            self.close()
            raise

    def _run(self, method, *args):
        """``await method(*args)`` on the loop thread, within ``timeout``."""
        with self._lock:
            if self._closed:
                raise ConfigurationError("client is closed")
            future = asyncio.run_coroutine_threadsafe(
                asyncio.wait_for(method(*args), self._timeout), self._loop)
        return future.result()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True

        async def drain():
            # Every call submitted before ``_closed`` was set is already
            # a task here: submissions reach the loop in order.
            calls = asyncio.all_tasks() - {asyncio.current_task()}
            await asyncio.gather(*calls, return_exceptions=True)
            await self._client.close()

        try:
            asyncio.run_coroutine_threadsafe(drain(), self._loop).result()
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def routing(self) -> _Handshake:
        return self._client.routing

    def handshake(self) -> Dict[str, object]:
        return self._run(self._client.handshake)

    def server_config(self) -> Dict[str, object]:
        return self._client.server_config()

    def insert_many(self, entries: Iterable[object]) -> int:
        return self._run(self._client.insert_many, entries)

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        return self._run(self._client.delete_many, keys)

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        return self._run(self._client.contains_many, keys)

    def insert(self, key: object, value: object = None) -> None:
        self._run(self._client.insert, key, value)

    def delete(self, key: object) -> object:
        return self._run(self._client.delete, key)

    def search(self, key: object) -> object:
        return self._run(self._client.search, key)

    def contains(self, key: object) -> bool:
        return self._run(self._client.contains, key)

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def items(self) -> List[Pair]:
        return self._run(self._client.items)

    def __len__(self) -> int:
        return self._run(self._client.length)

    def check(self) -> None:
        self._run(self._client.check)

    def digest(self) -> List[str]:
        return self._run(self._client.digest)

    def barrier(self) -> Dict[str, object]:
        return self._run(self._client.barrier)

    def stats(self) -> Dict[str, object]:
        return self._run(self._client.stats)

    def traces(self) -> Dict[str, List[dict]]:
        return self._run(self._client.traces)


class AsyncReproClient:
    """Asyncio client for one namespace of a :class:`ReproServer`.

    Each borrowed connection carries one request at a time, and a bulk
    call is one request: the server routes the whole batch and drives
    every shard at once.  Construct, then ``await connect()``
    (or use ``async with``).  The e2e ``serve`` benchmark drives this
    class directly; :class:`ReproClient` wraps it for blocking callers.
    """

    def __init__(self, host: str, port: int, *,
                 namespace: str = "default", pool_size: int = 4) -> None:
        if pool_size < 1:
            raise ConfigurationError(
                "pool_size must be >= 1, got %d" % pool_size)
        self._host = host
        self._port = int(port)
        self._namespace = namespace
        self._pool_size = pool_size
        self._codec = WireCodec()
        self._pool: "deque" = deque()
        self._closed = False
        self._next_id = 0
        self._routing: Optional[_Handshake] = None
        #: Client-side tracing (``REPRO_TRACE=1``): each wire request gets
        #: a ``client.<op>`` span whose header rides the message under
        #: :data:`~repro.net.protocol.TRACE_KEY`, so the server-side tree
        #: carries this client's trace id.
        self.tracer = Tracer.from_env()

    async def connect(self) -> "AsyncReproClient":
        if self._routing is None:
            await self.handshake()
        return self

    async def __aenter__(self) -> "AsyncReproClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    async def close(self) -> None:
        self._closed = True
        pool, self._pool = list(self._pool), deque()
        for _, writer in pool:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @property
    def routing(self) -> _Handshake:
        """The facts of the last :meth:`handshake`."""
        if self._routing is None:
            raise ConfigurationError("client has not completed a handshake")
        return self._routing

    async def _borrow(self):
        if self._closed:
            raise ConfigurationError("client is closed")
        if self._pool:
            return self._pool.popleft()
        reader, writer = await asyncio.open_connection(self._host, self._port)
        protocol.cap_reads(writer)
        return reader, writer

    def _give_back(self, connection) -> None:
        if not self._closed and len(self._pool) < self._pool_size:
            self._pool.append(connection)
        else:
            connection[1].close()

    async def _request(self, op: str,
                       values: Optional[Sequence[object]] = None, *,
                       header: Optional[Dict[str, object]] = None
                       ) -> Tuple[Dict[str, object], List[object]]:
        self._next_id += 1
        message: Dict[str, object] = dict(header or {}, id=self._next_id,
                                          op=op, namespace=self._namespace)
        routing = self._routing
        body_tag, body = BODY_NONE, b""
        if values is not None:
            body_tag, body = self._codec.encode_values(values)
            message["count"] = len(values)
        # Never entered as a context manager: concurrent requests share
        # the event-loop thread, so TLS nesting would interleave wrongly.
        span = self.tracer.span("client." + op,
                                tags={"namespace": self._namespace})
        if span is not NULL_SPAN:
            message[TRACE_KEY] = {HEADER_TRACE: span.trace_id,
                                  HEADER_SPAN: span.span_id}
        try:
            request = encode_message(message, body_tag, body)
            if routing is not None and len(request) > routing.max_payload:
                raise ProtocolError(
                    "%s request of %d payload byte(s) is over the server's "
                    "%d-byte frame limit; nothing was sent"
                    % (op, len(request), routing.max_payload))
            wire = frame(request)
            connection = await self._borrow()
            reader, writer = connection
            try:
                writer.write(wire)
                await writer.drain()
                payload = await protocol.read_frame_async(reader)
                if payload is None:
                    raise ProtocolError(
                        "server closed the connection before replying")
                reply, reply_tag, reply_body = decode_message(payload)
                if reply.get("id") != message["id"]:
                    # Id ``None`` answers a frame the server could not
                    # read; it hangs up after that reply.
                    if reply.get("id") is None:
                        raise_for_reply(reply)
                    raise ProtocolError(
                        "reply id %r answers no request; sent id %d"
                        % (reply.get("id"), message["id"]))
                reply_values = self._codec.decode_body(
                    reply_tag, reply_body, reply.get("count", 0))
            except BaseException:
                # Cancellation included: a connection left mid-request
                # can never be pooled again, so it closes now.
                writer.close()
                raise
            self._give_back(connection)
        finally:
            if span is not NULL_SPAN:
                span.finish()
        raise_for_reply(reply)
        return reply, reply_values

    # ------------------------------------------------------------------ #
    # Handshake
    # ------------------------------------------------------------------ #

    async def handshake(self) -> Dict[str, object]:
        """Ask the server for its facts again; :attr:`routing` keeps them."""
        reply, _ = await self._request("hello")
        self._routing = _Handshake(reply)
        return reply

    def server_config(self) -> Dict[str, object]:
        return dict(self.routing.config)

    # ------------------------------------------------------------------ #
    # Dictionary operations
    # ------------------------------------------------------------------ #

    async def _answers(self, op: str, keys: List[object]) -> List[object]:
        """One ``op`` request for the whole batch, and exactly one answer
        per key, in input order."""
        if not keys:
            return []
        _, answers = await self._request(op, keys)
        if len(answers) != len(keys):
            raise ProtocolError("%s reply has %d answer(s) for %d key(s)"
                                % (op, len(answers), len(keys)))
        return answers

    async def insert_many(self, entries: Iterable[object]) -> int:
        pairs = [_as_pair(entry) for entry in entries]
        if not pairs:
            return 0
        reply, _ = await self._request("insert_many", pairs)
        return _field("insert_many", "inserted", reply.get("inserted"), int)

    async def delete_many(self, keys: Iterable[object]) -> List[object]:
        return await self._answers("delete_many", list(keys))

    async def contains_many(self, keys: Iterable[object]) -> List[bool]:
        return [_field("contains_many", "answer", flag, bool) for flag in
                await self._answers("contains_many", list(keys))]

    async def insert(self, key: object, value: object = None) -> None:
        await self.insert_many([(key, value)])

    async def delete(self, key: object) -> object:
        return (await self.delete_many([key]))[0]

    async def search(self, key: object) -> object:
        return (await self._answers("search", [key]))[0]

    async def contains(self, key: object) -> bool:
        reply, _ = await self._request("contains", [key])
        return _field("contains", "found", reply.get("found"), bool)

    async def items(self) -> List[Pair]:
        _, values = await self._request("items")
        return [_field("items", "item", value, tuple)
                for value in values]

    async def length(self) -> int:
        reply, _ = await self._request("len")
        return _field("len", "length", reply.get("length"), int)

    async def check(self) -> None:
        await self._request("check")

    async def digest(self) -> List[str]:
        reply, _ = await self._request("digest")
        return _field("digest", "digests", reply.get("digests"), list)

    async def barrier(self) -> Dict[str, object]:
        reply, _ = await self._request("barrier")
        return _field("barrier", "report", reply.get("report"), dict)

    async def stats(self) -> Dict[str, object]:
        """The namespace engine's unified telemetry snapshot (plus the
        server's own ``server.telemetry.*`` counters)."""
        reply, _ = await self._request("stats")
        return _field("stats", "stats", reply.get("stats"), dict)

    async def traces(self) -> Dict[str, List[dict]]:
        """Recent finished span trees: ``{"traces": [...], "slow": [...]}``."""
        reply, _ = await self._request("traces")
        return {name: _field("traces", name, reply.get(name), list)
                for name in ("traces", "slow")}

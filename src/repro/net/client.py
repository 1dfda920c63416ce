"""The network front-end's client: one asyncio implementation plus a
blocking facade over it.

:class:`AsyncReproClient` speaks :mod:`repro.net.protocol`.  Each bulk
call is one request that carries the whole batch in input order; the
server routes it by key and applies it with one engine call, which drives
every shard at once.  A request whose frame would exceed the server's
``max_payload`` (from the handshake) is refused before anything is sent,
so a bulk call must fit in one frame.  The handshake also carries the
server's router spec and shard ids: the client keeps them, with the exact
router rebuilt by :func:`repro.api.routing.make_router`, as
:attr:`AsyncReproClient.routing`, and refreshes them when a reply carries
the ``topology_changed`` flag (an elastic resize moved the shard set).

:class:`ReproClient` is the same client for synchronous callers: it runs
one :class:`AsyncReproClient` on a private event-loop thread, so the
request path and the reply checks exist once.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.routing import make_router
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


class _RoutingState:
    """The handshake's facts: the server's router, shard ids, topology
    token and frame limit.  The client routes nothing; the server does."""

    def __init__(self, hello: Dict[str, object]) -> None:
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                "server speaks protocol version %r, client speaks %d"
                % (hello.get("version"), PROTOCOL_VERSION))
        self.config = dict(hello.get("config") or {})
        self.read_policy = hello.get(
            "read_policy", self.config.get("read_policy", "primary"))
        self.max_inflight = hello.get("max_inflight")
        self.max_payload = hello.get("max_payload", protocol.MAX_PAYLOAD)
        self.update(hello)

    def update(self, payload: Dict[str, object]) -> None:
        router_spec = payload.get("router")
        if not isinstance(router_spec, dict):
            raise ProtocolError("handshake carries no router spec")
        self.router = make_router(dict(router_spec))
        self.shard_ids = tuple(payload.get("shard_ids") or ())
        self.topo = payload.get("topo")


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
    def routing(self) -> _RoutingState:
        return self._client.routing

    def handshake(self) -> Dict[str, object]:
        return self._run(self._client.handshake)

    def refresh_shard_map(self) -> None:
        self._run(self._client.refresh_shard_map)

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
        self._routing: Optional[_RoutingState] = None
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
    def routing(self) -> _RoutingState:
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
                       header: Optional[Dict[str, object]] = None,
                       attach_topo: bool = True
                       ) -> Tuple[Dict[str, object], List[object]]:
        self._next_id += 1
        message: Dict[str, object] = dict(header or {}, id=self._next_id,
                                          op=op, namespace=self._namespace)
        routing = self._routing
        if attach_topo and routing is not None and routing.topo is not None:
            message["topo"] = routing.topo
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
        if reply.get("topology_changed"):
            await self.refresh_shard_map()
        raise_for_reply(reply)
        return reply, reply_values

    # ------------------------------------------------------------------ #
    # Handshake and routing
    # ------------------------------------------------------------------ #

    async def handshake(self) -> Dict[str, object]:
        reply, _ = await self._request("hello", attach_topo=False)
        self._routing = _RoutingState(reply)
        return reply

    async def refresh_shard_map(self) -> None:
        reply, _ = await self._request("shard_map", attach_topo=False)
        if self._routing is not None:
            self._routing.update(reply)

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
        return int(reply.get("inserted", 0))

    async def delete_many(self, keys: Iterable[object]) -> List[object]:
        return await self._answers("delete_many", list(keys))

    async def contains_many(self, keys: Iterable[object]) -> List[bool]:
        return [bool(flag) for flag in
                await self._answers("contains_many", list(keys))]

    async def insert(self, key: object, value: object = None) -> None:
        await self.insert_many([(key, value)])

    async def delete(self, key: object) -> object:
        return (await self.delete_many([key]))[0]

    async def search(self, key: object) -> object:
        _, values = await self._request("search", [key])
        return values[0]

    async def contains(self, key: object) -> bool:
        reply, _ = await self._request("contains", [key])
        return bool(reply.get("found"))

    async def items(self) -> List[Pair]:
        _, values = await self._request("items")
        return [tuple(value) for value in values]

    async def length(self) -> int:
        reply, _ = await self._request("len")
        return int(reply.get("length", 0))

    async def check(self) -> None:
        await self._request("check")

    async def digest(self) -> List[str]:
        reply, _ = await self._request("digest")
        return list(reply.get("digests") or [])

    async def barrier(self) -> Dict[str, object]:
        reply, _ = await self._request("barrier")
        return dict(reply.get("report") or {})

    async def stats(self) -> Dict[str, object]:
        """The namespace engine's unified telemetry snapshot (plus the
        server's own ``server.telemetry.*`` counters)."""
        reply, _ = await self._request("stats")
        return dict(reply.get("stats") or {})

    async def traces(self) -> Dict[str, List[dict]]:
        """Recent finished span trees: ``{"traces": [...], "slow": [...]}``."""
        reply, _ = await self._request("traces")
        return {"traces": list(reply.get("traces") or []),
                "slow": list(reply.get("slow") or [])}

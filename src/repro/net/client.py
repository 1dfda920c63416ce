"""Clients for the network front-end: a pooled sync client and an
asyncio twin.

Both speak :mod:`repro.net.protocol` and do **client-side shard
routing**: the handshake carries the server's router spec and shard ids,
the client rebuilds the exact router with
:func:`repro.api.routing.make_router`, and every bulk call is pre-grouped
into one sub-request per owning shard — the network analogue of the
engine's shard-grouped dispatch, so a batch crosses the wire as a few
shard-aligned runs instead of an interleaving.  Routing is advisory: the
server always routes by key itself, so a stale map can never misplace an
operation.  When a reply carries the ``topology_changed`` flag (the shard
set moved under an elastic resize), the client refreshes its shard map
and re-groups from then on.

Server-side failures arrive as typed exceptions — the original
:mod:`repro.errors` class where the client knows it,
:class:`~repro.errors.RemoteError` (name + message preserved) where it
does not, and :class:`~repro.errors.ServerBusyError` for admission-control
sheds, which are always safe to retry.  A bulk call follows the engines'
failure rule: every shard's sub-request is sent even after one fails, and
the failure of the lowest shard id is raised.
"""

from __future__ import annotations

import asyncio
import socket
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
    group_for_routing,
    raise_for_reply,
    read_frame,
)
from repro.obs import NULL_SPAN, Tracer
from repro.obs.tracing import HEADER_SPAN, HEADER_TRACE

Pair = Tuple[object, object]


def _place(op: str, results: List[object], group: Sequence[Tuple[int, object]],
           answers: Sequence[object]) -> None:
    """Write one shard's ``answers`` into ``results`` at its keys' input
    positions; a reply with one answer per key is the only valid one."""
    if len(answers) != len(group):
        raise ProtocolError("%s reply has %d answer(s) for %d key(s)"
                            % (op, len(answers), len(group)))
    for (position, _key), answer in zip(group, answers):
        results[position] = answer


def _as_pair(entry: object) -> Pair:
    if isinstance(entry, tuple) and len(entry) == 2:
        return entry
    if isinstance(entry, (list,)) and len(entry) == 2:
        return (entry[0], entry[1])
    return (entry, None)


class _RoutingState:
    """The handshake's routing facts, shared by both client flavors."""

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

    def group(self, keyed: Sequence[Pair]) -> Dict[int, List[Tuple[int, object]]]:
        return group_for_routing(self.router, self.shard_ids, keyed)


class ReproClient:
    """Synchronous pooled client for one namespace of a :class:`ReproServer`.

    Thread-safe: connections are borrowed from a pool per call, so callers
    may share one client across threads.  ``pool_size`` bounds how many
    idle sockets are kept; bursts simply open (and then discard) extras.
    """

    def __init__(self, host: str, port: int, *,
                 namespace: str = "default", pool_size: int = 2,
                 timeout: float = 10.0) -> None:
        if pool_size < 1:
            raise ConfigurationError(
                "pool_size must be >= 1, got %d" % pool_size)
        self._host = host
        self._port = int(port)
        self._namespace = namespace
        self._pool_size = pool_size
        self._timeout = timeout
        self._codec = WireCodec()
        self._pool: "deque" = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._next_id = 0
        self._routing: Optional[_RoutingState] = None
        self._routing_lock = threading.Lock()
        #: Client-side tracing (``REPRO_TRACE=1``): each wire request gets
        #: a ``client.<op>`` span whose header rides the message under
        #: :data:`~repro.net.protocol.TRACE_KEY`, so the server-side tree
        #: carries this client's trace id.
        self.tracer = Tracer.from_env()
        self.handshake()

    # ------------------------------------------------------------------ #
    # Connection pool
    # ------------------------------------------------------------------ #

    def _connect(self):
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _borrow(self):
        with self._lock:
            if self._closed:
                raise ConfigurationError("client is closed")
            if self._pool:
                return self._pool.popleft()
        return self._connect()

    def _give_back(self, connection) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(connection)
                return
        self._discard(connection)

    @staticmethod
    def _discard(connection) -> None:
        sock, reader = connection
        try:
            reader.close()
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = list(self._pool), deque()
        for connection in pool:
            self._discard(connection)

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def _request(self, op: str, header: Optional[Dict[str, object]] = None,
                 values: Optional[Sequence[object]] = None,
                 *, attach_topo: bool = True, check: bool = True
                 ) -> Tuple[Dict[str, object], List[object]]:
        """One request and its reply; a failed reply raises unless
        ``check`` is off (a transport failure always raises)."""
        message: Dict[str, object] = dict(header or {})
        with self._lock:
            self._next_id += 1
            message["id"] = self._next_id
        message["op"] = op
        message.setdefault("namespace", self._namespace)
        routing = self._routing
        if attach_topo and routing is not None and routing.topo is not None:
            message.setdefault("topo", routing.topo)
        body_tag, body = BODY_NONE, b""
        if values is not None:
            body_tag, body = self._codec.encode_values(values)
            message["count"] = len(values)
        # The span is never pushed on this thread's TLS stack (pooled
        # clients are shared across threads); its header is built
        # explicitly and it is finished in the finally below.
        span = self.tracer.span("client." + op,
                                tags={"namespace": self._namespace})
        if span is not NULL_SPAN:
            message[TRACE_KEY] = {HEADER_TRACE: span.trace_id,
                                  HEADER_SPAN: span.span_id}
        try:
            connection = self._borrow()
            try:
                sock, reader = connection
                sock.sendall(frame(encode_message(message, body_tag, body)))
                reply_values, reply = self._read_reply(reader, message["id"])
            except (ProtocolError, ConnectionError, OSError, EOFError):
                self._discard(connection)
                raise
            self._give_back(connection)
        finally:
            if span is not NULL_SPAN:
                span.finish()
        if reply.get("topology_changed"):
            self.refresh_shard_map()
        if check:
            raise_for_reply(reply)
        return reply, reply_values

    def _per_shard(self, op: str, keyed: Sequence[Pair]
                   ) -> List[Tuple[List[Tuple[int, object]],
                                   Dict[str, object], List[object]]]:
        """``(group, reply, values)`` of one ``op`` request per owning
        shard id, in id order.  Every request is sent even after a reply
        fails, then the lowest shard id's failure raises; a transport
        failure aborts at once."""
        answers = [
            (group,) + self._request(op, {"shard": shard_id},
                                     [item for _, item in group],
                                     check=False)
            for shard_id, group in sorted(self.routing.group(keyed).items())]
        for _group, reply, _values in answers:
            raise_for_reply(reply)
        return answers

    def _read_reply(self, reader, request_id
                    ) -> Tuple[List[object], Dict[str, object]]:
        while True:
            payload = read_frame(reader)
            if payload is None:
                raise ProtocolError(
                    "server closed the connection before replying")
            reply, body_tag, body = decode_message(payload)
            if reply.get("id") not in (request_id, None):
                continue  # a stale reply from a recycled connection
            reply_values = self._codec.decode_body(
                body_tag, body, reply.get("count", 0))
            return reply_values, reply

    # ------------------------------------------------------------------ #
    # Handshake and routing
    # ------------------------------------------------------------------ #

    def handshake(self) -> Dict[str, object]:
        reply, _ = self._request("hello", attach_topo=False)
        with self._routing_lock:
            self._routing = _RoutingState(reply)
        return reply

    def refresh_shard_map(self) -> None:
        reply, _ = self._request("shard_map", attach_topo=False)
        with self._routing_lock:
            if self._routing is not None:
                self._routing.update(reply)

    @property
    def routing(self) -> _RoutingState:
        routing = self._routing
        if routing is None:
            raise ConfigurationError("client has not completed a handshake")
        return routing

    def server_config(self) -> Dict[str, object]:
        return dict(self.routing.config)

    # ------------------------------------------------------------------ #
    # Dictionary operations
    # ------------------------------------------------------------------ #

    def insert_many(self, entries: Iterable[object]) -> int:
        pairs = [_as_pair(entry) for entry in entries]
        if not pairs:
            return 0
        return sum(int(reply.get("inserted", 0))
                   for _, reply, _ in self._per_shard(
                       "insert_many",
                       [(key, (key, value)) for key, value in pairs]))

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        keys = list(keys)
        if not keys:
            return []
        results: List[object] = [None] * len(keys)
        for group, _, values in self._per_shard(
                "delete_many", [(key, key) for key in keys]):
            _place("delete_many", results, group, values)
        return results

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        keys = list(keys)
        if not keys:
            return []
        results: List[object] = [False] * len(keys)
        for group, _, flags in self._per_shard(
                "contains_many", [(key, key) for key in keys]):
            _place("contains_many", results, group, flags)
        return [bool(flag) for flag in results]

    def insert(self, key: object, value: object = None) -> None:
        self.insert_many([(key, value)])

    def delete(self, key: object) -> object:
        return self.delete_many([key])[0]

    def search(self, key: object) -> object:
        _, values = self._request("search", values=[key])
        return values[0]

    def contains(self, key: object) -> bool:
        reply, _ = self._request("contains", values=[key])
        return bool(reply.get("found"))

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def items(self) -> List[Pair]:
        _, values = self._request("items")
        return [tuple(value) for value in values]

    def __len__(self) -> int:
        reply, _ = self._request("len")
        return int(reply.get("length", 0))

    def check(self) -> None:
        self._request("check")

    def digest(self) -> List[str]:
        reply, _ = self._request("digest")
        return list(reply.get("digests") or [])

    def barrier(self) -> Dict[str, object]:
        reply, _ = self._request("barrier")
        return dict(reply.get("report") or {})

    def stats(self) -> Dict[str, object]:
        """The namespace engine's unified telemetry snapshot (plus the
        server's own ``server.telemetry.*`` counters)."""
        reply, _ = self._request("stats")
        return dict(reply.get("stats") or {})

    def traces(self) -> Dict[str, List[dict]]:
        """Recent finished span trees: ``{"traces": [...], "slow": [...]}``."""
        reply, _ = self._request("traces")
        return {"traces": list(reply.get("traces") or []),
                "slow": list(reply.get("slow") or [])}


class AsyncReproClient:
    """Asyncio client: same protocol, per-shard sub-requests in parallel.

    The open-loop benchmark drives this one — each borrowed connection
    carries one request at a time, and a bulk call fans its shard groups
    out concurrently, so a batch's latency is the slowest shard's, not the
    sum.  Construct, then ``await connect()`` (or use ``async with``).
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
        self.tracer = Tracer.from_env()

    async def connect(self) -> "AsyncReproClient":
        if self._routing is None:
            reply, _ = await self._request("hello", attach_topo=False)
            self._routing = _RoutingState(reply)
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
        return await asyncio.open_connection(self._host, self._port)

    def _give_back(self, connection) -> None:
        if not self._closed and len(self._pool) < self._pool_size:
            self._pool.append(connection)
        else:
            connection[1].close()

    async def _request(self, op: str,
                       header: Optional[Dict[str, object]] = None,
                       values: Optional[Sequence[object]] = None,
                       *, attach_topo: bool = True
                       ) -> Tuple[Dict[str, object], List[object]]:
        message: Dict[str, object] = dict(header or {})
        self._next_id += 1
        message["id"] = self._next_id
        message["op"] = op
        message.setdefault("namespace", self._namespace)
        routing = self._routing
        if attach_topo and routing is not None and routing.topo is not None:
            message.setdefault("topo", routing.topo)
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
            connection = await self._borrow()
            reader, writer = connection
            try:
                writer.write(frame(encode_message(message, body_tag, body)))
                await writer.drain()
                payload = await protocol.read_frame_async(reader)
                if payload is None:
                    raise ProtocolError(
                        "server closed the connection before replying")
                reply, reply_tag, reply_body = decode_message(payload)
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

    async def refresh_shard_map(self) -> None:
        reply, _ = await self._request("shard_map", attach_topo=False)
        if self._routing is not None:
            self._routing.update(reply)

    # ------------------------------------------------------------------ #
    # Dictionary operations (the ones the bench and tests exercise)
    # ------------------------------------------------------------------ #

    async def _fan_out(self, op: str, keyed: Sequence[Pair]
                       ) -> List[Tuple[List[Pair], List[object],
                                       Dict[str, object]]]:
        """One ``op`` request per owning shard id, all in flight at once;
        after every one has finished, the lowest shard id's failure
        raises, whichever failed first."""
        groups = sorted(self.routing.group(keyed).items())

        async def one(shard_id, group):
            reply, values = await self._request(
                op, {"shard": shard_id}, [item for _, item in group])
            return group, values, reply

        answers = await asyncio.gather(
            *(one(shard_id, group) for shard_id, group in groups),
            return_exceptions=True)
        for answer in answers:
            if isinstance(answer, BaseException):
                raise answer
        return answers

    async def insert_many(self, entries: Iterable[object]) -> int:
        pairs = [_as_pair(entry) for entry in entries]
        if not pairs:
            return 0
        replies = await self._fan_out(
            "insert_many",
            [(key, (key, value)) for key, value in pairs])
        return sum(int(reply.get("inserted", 0))
                   for _, _, reply in replies)

    async def delete_many(self, keys: Iterable[object]) -> List[object]:
        keys = list(keys)
        if not keys:
            return []
        results: List[object] = [None] * len(keys)
        for group, values, _ in await self._fan_out(
                "delete_many", [(key, key) for key in keys]):
            _place("delete_many", results, group, values)
        return results

    async def contains_many(self, keys: Iterable[object]) -> List[bool]:
        keys = list(keys)
        if not keys:
            return []
        results: List[object] = [False] * len(keys)
        for group, flags, _ in await self._fan_out(
                "contains_many", [(key, key) for key in keys]):
            _place("contains_many", results, group, flags)
        return [bool(flag) for flag in results]

    async def search(self, key: object) -> object:
        _, values = await self._request("search", values=[key])
        return values[0]

    async def contains(self, key: object) -> bool:
        reply, _ = await self._request("contains", values=[key])
        return bool(reply.get("found"))

    async def items(self) -> List[Pair]:
        _, values = await self._request("items")
        return [tuple(value) for value in values]

    async def length(self) -> int:
        reply, _ = await self._request("len")
        return int(reply.get("length", 0))

    async def digest(self) -> List[str]:
        reply, _ = await self._request("digest")
        return list(reply.get("digests") or [])

    async def stats(self) -> Dict[str, object]:
        reply, _ = await self._request("stats")
        return dict(reply.get("stats") or {})

    async def traces(self) -> Dict[str, List[dict]]:
        reply, _ = await self._request("traces")
        return {"traces": list(reply.get("traces") or []),
                "slow": list(reply.get("slow") or [])}

"""The wire protocol shared by the server, the clients, and the fuzz tier.

Everything on the socket is a **frame**:

* frame   = ``length | crc32 | payload`` (``>II`` header, network order);
* payload = ``body_tag | header_length`` (``>BI``) + a JSON message header
  + an optional binary body.

The body carries batches — keys, ``(key, value)`` pairs, result values —
in exactly one value encoding, :data:`BODY_VALUES`: a tagged, canonical,
``struct``-packed form of a closed union (``None``, ``bool`` kept distinct
from ``int``, ``int`` of any size, ``float``, ``str``, ``bytes``, and
tuples of these), plus a packed bitmap (:data:`BODY_BITMAP`) for
membership replies.  Network bytes are untrusted, so the decoder only ever
builds values of that union: it never calls ``pickle`` or anything else
that can run code, and it bounds nesting depth and every announced count
by the bytes actually present.  A value outside the union is refused at
the sender with :class:`~repro.errors.ConfigurationError` before anything
is written.  The wire stays as history-independent as the structures
behind it: each value has exactly one encoding, a function of the value
alone, and frames carry no timestamps, sequence gaps, or other
operational residue.

A batch of ``(int, int)`` pairs inside i64 — every integer
``insert_many`` body and ``items`` reply — takes a packed path: one
precompiled ``struct`` per pair each way, with the generic encoding's
bytes and values.  Any other batch goes through the generic codec, and
the decoder hands over to it at a body's first record of another shape.

A frame that fails its length or CRC check, truncates mid-read, or holds
an undecodable message raises :class:`~repro.errors.ProtocolError` — the
connection is then done, never hung and never a source of garbage.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    DuplicateKey,
    InvariantViolation,
    KeyNotFound,
    ProtocolError,
    RankError,
    RemoteError,
    ReplicationError,
    ReproError,
    ServerBusyError,
    WorkerCrashError,
)

#: Wire protocol version, exchanged at handshake.  Version 2 replaced the
#: record-run and pickle bodies with the one :data:`BODY_VALUES` codec.
#: Older version-2 clients also tag each request with a ``topo`` token;
#: the server ignores it, and no reply asks them to refresh.
PROTOCOL_VERSION = 2

#: Frame header: payload length, CRC-32 of the payload.
FRAME_HEADER = struct.Struct(">II")

#: Message prologue inside a frame: body codec tag, JSON header length.
MESSAGE_HEADER = struct.Struct(">BI")

#: Hard ceiling on a frame payload; an honest client never needs more, and
#: a corrupt or malicious length field must not turn into an allocation.
MAX_PAYLOAD = 8 * 1024 * 1024

#: Largest single socket read of a stream transport.  asyncio's selector
#: transport asks ``recv`` for 256 KiB at a time; glibc serves a buffer
#: that large with a fresh ``mmap`` (its threshold is 128 KiB) whenever
#: the heap has no free run that big, which costs page faults on every
#: read.  Below the threshold the buffer comes from the heap, and a
#: longer frame arrives over several reads.
READ_SIZE = 64 * 1024

#: Body codecs.  Tags 1 and 3 belonged to version 1's record-run and
#: pickle bodies; they are retired, so a frame carrying either is refused
#: as an unknown tag.
BODY_NONE = 0      #: no body
BODY_BITMAP = 2    #: packed booleans, ``count`` flags
BODY_VALUES = 4    #: ``count`` tagged canonical values (see WireCodec)

#: Deepest tuple nesting a value may have on the wire (a top-level value
#: is depth 0).  Far below the interpreter's recursion limit, so a nested
#: depth bomb is refused as a ProtocolError before it can recurse deeply.
MAX_DEPTH = 32

#: Optional request-header key carrying a trace propagation header: a JSON
#: object of ``{"trace": <id>, "span": <id>}`` (see
#: :mod:`repro.obs.tracing`).  A server that sees it adopts the trace —
#: its server-side span (and the engine spans beneath it) carry the
#: client's trace id — and echoes the id back under the same key in the
#: reply so a client can correlate without trusting ordering.  Absent on
#: untraced requests; an unknown or malformed value is ignored, never an
#: error, because telemetry must not be able to fail a request.
TRACE_KEY = "trace"

#: Reply statuses.
STATUS_OK = "ok"
STATUS_BUSY = "busy"      #: shed by admission control; nothing executed
STATUS_ERROR = "error"    #: typed error, original class name + message

#: Error classes the client reconstructs by name; anything else arrives as
#: :class:`~repro.errors.RemoteError` carrying the original name + message.
ERROR_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (AllocationError, CapacityError, ConfigurationError,
                DuplicateKey, InvariantViolation, KeyNotFound,
                ProtocolError, RankError, ReplicationError, ReproError,
                ServerBusyError, WorkerCrashError)
}


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #

def frame(payload: bytes) -> bytes:
    """One wire frame: ``length | crc32 | payload``."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            "frame payload of %d bytes exceeds the %d-byte protocol "
            "ceiling" % (len(payload), MAX_PAYLOAD))
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def cap_reads(writer: asyncio.StreamWriter) -> None:
    """Cap each socket read of ``writer``'s connection at :data:`READ_SIZE`.

    The server and the client call it on every connection they open,
    before the first frame crosses it.
    """
    transport = writer.transport
    if getattr(transport, "max_size", 0) > READ_SIZE:
        transport.max_size = READ_SIZE


def check_frame(header: bytes, payload: bytes) -> bytes:
    """Validate a received frame's header against its payload."""
    length, crc = FRAME_HEADER.unpack(header)
    if len(payload) != length:
        raise ProtocolError(
            "frame truncated: header says %d payload byte(s), got %d"
            % (length, len(payload)))
    if zlib.crc32(payload) != crc:
        raise ProtocolError(
            "frame CRC mismatch: the stream is torn or corrupted")
    return payload


def _checked_length(header: bytes, max_payload: int) -> Tuple[int, int]:
    if len(header) != FRAME_HEADER.size:
        raise ProtocolError(
            "connection dropped mid-frame (%d of %d header bytes)"
            % (len(header), FRAME_HEADER.size))
    length, crc = FRAME_HEADER.unpack(header)
    if length > max_payload:
        raise ProtocolError(
            "frame announces %d payload byte(s), over the %d-byte limit"
            % (length, max_payload))
    return length, crc


async def read_frame_async(reader: asyncio.StreamReader,
                           max_payload: int = MAX_PAYLOAD
                           ) -> Optional[bytes]:
    """The next frame payload, ``None`` on clean EOF between frames.

    Raises :class:`~repro.errors.ProtocolError` for every unclean ending:
    a disconnect mid-frame, an oversized announced length, or a payload
    whose CRC disagrees with the header.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            "connection dropped mid-frame (%d of %d header bytes)"
            % (len(error.partial), FRAME_HEADER.size)) from error
    length, crc = _checked_length(header, max_payload)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            "connection dropped mid-frame (%d of %d payload bytes)"
            % (len(error.partial), length)) from error
    if zlib.crc32(payload) != crc:
        raise ProtocolError(
            "frame CRC mismatch: the stream is torn or corrupted")
    return payload


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #

def encode_message(header: Mapping[str, object],
                   body_tag: int = BODY_NONE,
                   body: bytes = b"") -> bytes:
    """A frame payload: prologue + JSON header + binary body."""
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return MESSAGE_HEADER.pack(body_tag, len(head)) + head + body


def decode_message(payload: bytes) -> Tuple[Dict[str, object], int, bytes]:
    """Split a frame payload into ``(header, body_tag, body)``."""
    if len(payload) < MESSAGE_HEADER.size:
        raise ProtocolError(
            "message of %d byte(s) is shorter than its %d-byte prologue"
            % (len(payload), MESSAGE_HEADER.size))
    body_tag, head_length = MESSAGE_HEADER.unpack_from(payload)
    if body_tag not in (BODY_NONE, BODY_BITMAP, BODY_VALUES):
        raise ProtocolError("unknown body codec tag %d" % body_tag)
    start = MESSAGE_HEADER.size
    if start + head_length > len(payload):
        raise ProtocolError(
            "message header announces %d byte(s) but only %d remain"
            % (head_length, len(payload) - start))
    try:
        header = json.loads(payload[start:start + head_length])
    except ValueError as error:
        raise ProtocolError(
            "message header is not valid JSON: %s" % error) from error
    if not isinstance(header, dict):
        raise ProtocolError(
            "message header must be a JSON object, got %s"
            % type(header).__name__)
    return header, body_tag, payload[start + head_length:]


# Value tags inside a BODY_VALUES body.
_NONE, _FALSE, _TRUE, _INT, _BIGINT, _FLOAT, _STR, _BYTES, _TUPLE = range(9)
_TAGGED_I64 = struct.Struct(">Bq")
_TAGGED_F64 = struct.Struct(">Bd")
_TAGGED_LEN = struct.Struct(">BI")
#: One ``(int, int)`` pair exactly as the generic encoder lays it out:
#: the 2-tuple's tag and length, then two tagged i64s (23 bytes).
_PAIR = struct.Struct(">BIBqBq")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_unpack_i64 = _I64.unpack_from
_NONE_BYTE, _FALSE_BYTE, _TRUE_BYTE = bytes([_NONE]), bytes([_FALSE]), \
    bytes([_TRUE])
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _bigint_width(value: int) -> int:
    """Bytes of the one two's-complement form a big int travels in."""
    return (value.bit_length() + 8) // 8


def _encode_value(out: list, value: object, depth: int) -> None:
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_TAGGED_I64.pack(_INT, value))
        else:
            raw = value.to_bytes(_bigint_width(value), "big", signed=True)
            out.append(_TAGGED_LEN.pack(_BIGINT, len(raw)))
            out.append(raw)
    elif kind is tuple:
        if depth >= MAX_DEPTH:
            raise ConfigurationError(
                "value nests tuples deeper than the wire's %d levels"
                % MAX_DEPTH)
        out.append(_TAGGED_LEN.pack(_TUPLE, len(value)))
        for item in value:
            _encode_value(out, item, depth + 1)
    elif kind is str:
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError as error:
            raise ConfigurationError(
                "string value is not valid unicode text (%s); it cannot "
                "cross the wire" % error) from error
        out.append(_TAGGED_LEN.pack(_STR, len(raw)))
        out.append(raw)
    elif kind is bytes:
        out.append(_TAGGED_LEN.pack(_BYTES, len(value)))
        out.append(value)
    elif kind is float:
        out.append(_TAGGED_F64.pack(_FLOAT, value))
    elif value is None:
        out.append(_NONE_BYTE)
    elif kind is bool:
        out.append(_TRUE_BYTE if value else _FALSE_BYTE)
    else:
        raise ConfigurationError(
            "a %s value cannot cross the wire: values must be None, bool, "
            "int, float, str, bytes or tuples of these"
            % type(value).__name__)


def _decode_value(blob: bytes, at: int, depth: int) -> Tuple[object, int]:
    tag = blob[at]
    at += 1
    if tag == _INT:
        return _unpack_i64(blob, at)[0], at + 8
    if tag == _TUPLE:
        (count,) = _U32.unpack_from(blob, at)
        at += 4
        if count > len(blob) - at:
            raise ProtocolError(
                "tuple announces %d item(s) but only %d byte(s) remain"
                % (count, len(blob) - at))
        if depth >= MAX_DEPTH:
            raise ProtocolError(
                "value nests tuples deeper than the wire's %d levels"
                % MAX_DEPTH)
        items = []
        append = items.append
        for _ in range(count):
            item, at = _decode_value(blob, at, depth + 1)
            append(item)
        return tuple(items), at
    if tag == _STR or tag == _BYTES or tag == _BIGINT:
        (length,) = _U32.unpack_from(blob, at)
        at += 4
        end = at + length
        if end > len(blob):
            raise ProtocolError(
                "value body truncated: a %d-byte field at offset %d overruns "
                "the %d-byte body" % (length, at, len(blob)))
        raw = blob[at:end]
        if tag == _STR:
            return raw.decode("utf-8"), end
        if tag == _BYTES:
            return bytes(raw), end
        value = int.from_bytes(raw, "big", signed=True)
        if _I64_MIN <= value <= _I64_MAX or length != _bigint_width(value):
            raise ProtocolError(
                "big-int value is not in its one canonical form")
        return value, end
    if tag == _FLOAT:
        return _F64.unpack_from(blob, at)[0], at + 8
    if tag == _NONE:
        return None, at
    if tag == _TRUE or tag == _FALSE:
        return tag == _TRUE, at
    raise ProtocolError("unknown value tag %d at offset %d" % (tag, at - 1))


def _encode_values(values: Sequence[object]) -> bytes:
    """The generic encoder: each value of the union, one after another."""
    out: list = []
    for value in values:
        _encode_value(out, value, 0)
    return b"".join(out)


def _decode_values(blob: bytes, count: int, values: List[object],
                   at: int) -> List[object]:
    """The generic decoder: append values decoded from ``blob[at:]`` to
    ``values`` until it holds ``count``; the body must end there."""
    append = values.append
    try:
        for _ in range(count - len(values)):
            value, at = _decode_value(blob, at, 0)
            append(value)
    except (IndexError, struct.error, UnicodeDecodeError) as error:
        raise ProtocolError(
            "value body does not decode: %s" % error) from error
    if at != len(blob):
        raise ProtocolError(
            "value body has %d trailing byte(s) after %d value(s)"
            % (len(blob) - at, count))
    return values


def _pack_pairs(values: Sequence[object]) -> Optional[bytes]:
    """The body of a batch of ``(int, int)`` pairs that all fit in i64, in
    the generic encoding's bytes; ``None`` for any other batch."""
    out = []
    append = out.append
    pack = _PAIR.pack
    try:
        for value in values:
            if type(value) is not tuple or len(value) != 2:
                return None
            key, item = value
            if type(key) is not int or type(item) is not int:
                return None
            append(pack(_TUPLE, 2, _INT, key, _INT, item))
    except struct.error:  # an int outside i64
        return None
    return b"".join(out)


def _unpack_pairs(blob: bytes, count: int) -> List[object]:
    """The leading ``(i64, i64)`` pair records of a body sized for
    ``count`` of them, decoded in one pass; it stops at the first record
    of another shape, where the generic decoder takes over."""
    pairs: List[object] = []
    if len(blob) == count * _PAIR.size:
        append = pairs.append
        for tag, size, ktag, key, vtag, value in _PAIR.iter_unpack(blob):
            if tag != _TUPLE or size != 2 or ktag != _INT or vtag != _INT:
                break
            append((key, value))
    return pairs


class WireCodec:
    """Message bodies: :data:`BODY_VALUES` values and :data:`BODY_BITMAP`
    flags — the only two encodings a body may carry."""

    @staticmethod
    def encode_values(values: Sequence[object]) -> Tuple[int, bytes]:
        """``(BODY_VALUES, blob)`` for a value batch.

        Raises :class:`~repro.errors.ConfigurationError` for a value
        outside the union (or nested deeper than :data:`MAX_DEPTH`), so a
        client refuses it before anything is sent.
        """
        return BODY_VALUES, _pack_pairs(values) or _encode_values(values)

    @staticmethod
    def encode_flags(flags: Sequence[bool]) -> Tuple[int, bytes]:
        """``(BODY_BITMAP, blob)``: booleans packed eight to a byte."""
        blob = bytearray((len(flags) + 7) // 8)
        for index, flag in enumerate(flags):
            if flag:
                blob[index // 8] |= 1 << (index % 8)
        return BODY_BITMAP, bytes(blob)

    @staticmethod
    def decode_body(body_tag: int, blob: bytes,
                    count: int) -> List[object]:
        """Decode ``count`` values (or flags) from a message body."""
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ProtocolError("body count must be a non-negative integer, "
                                "got %r" % (count,))
        if body_tag == BODY_NONE:
            if count or blob:
                raise ProtocolError("bodyless message announces %d value(s) "
                                    "and %d byte(s)" % (count, len(blob)))
            return []
        if body_tag == BODY_BITMAP:
            if len(blob) != (count + 7) // 8:
                raise ProtocolError(
                    "bitmap body holds %d byte(s) for %d flag(s)"
                    % (len(blob), count))
            return [bool(blob[index // 8] >> (index % 8) & 1)
                    for index in range(count)]
        if body_tag != BODY_VALUES:
            raise ProtocolError("unknown body codec tag %r" % (body_tag,))
        if count > len(blob):
            raise ProtocolError(
                "value body announces %d value(s) but holds only %d byte(s)"
                % (count, len(blob)))
        pairs = _unpack_pairs(blob, count)
        return _decode_values(blob, count, pairs, len(pairs) * _PAIR.size)


# --------------------------------------------------------------------------- #
# Errors over the wire
# --------------------------------------------------------------------------- #

def error_payload(error: BaseException) -> Dict[str, str]:
    """The typed-error header field: original class name + plain message.

    ``KeyError`` subclasses ``repr()`` their argument in ``str()``; going
    through ``Exception.__str__`` keeps the message byte-identical to what
    the raiser passed (the contract PR 6's unpicklable-reply fix set for
    the process backend).
    """
    if isinstance(error, KeyError):
        message = Exception.__str__(error)
    else:
        message = str(error)
    return {"type": type(error).__name__, "message": message}


def raise_for_reply(header: Mapping[str, object]) -> None:
    """Re-raise a reply's failure as a typed client-side exception."""
    status = header.get("status")
    if status == STATUS_OK:
        return
    if status == STATUS_BUSY:
        raise ServerBusyError(
            str(header.get("message") or
                "server shed the request under admission control"))
    if status == STATUS_ERROR:
        detail = header.get("error")
        if not isinstance(detail, Mapping):
            raise ProtocolError("error reply carries no error detail")
        name = str(detail.get("type", "ReproError"))
        message = str(detail.get("message", ""))
        cls = ERROR_TYPES.get(name)
        if cls is not None:
            raise cls(message)
        raise RemoteError(name, message)
    raise ProtocolError("reply has unknown status %r" % (status,))


"""The wire protocol's fuzz tier: hostile bytes become typed errors.

ISSUE 8's satellite contract for :mod:`repro.net.protocol`: truncated
frames, oversized announced lengths, bit-flipped bytes and mid-frame
disconnects must every one surface as :class:`~repro.errors.ProtocolError`
— a clean typed error, never a hang, never silently-decoded garbage.  The
fuzzing is deterministic (seeded / exhaustive over small frames), so a
CRC collision that let garbage through would be caught here once and
forever, not flakily.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct

import pytest

from repro.errors import (
    ConfigurationError,
    KeyNotFound,
    ProtocolError,
    RemoteError,
    ServerBusyError,
    WorkerCrashError,
)
from repro.net import protocol
from repro.net.protocol import (
    BODY_BITMAP,
    BODY_NONE,
    BODY_VALUES,
    MAX_DEPTH,
    TRACE_KEY,
    WireCodec,
    decode_message,
    encode_message,
    error_payload,
    frame,
    raise_for_reply,
    read_frame_async,
    topology_token,
)

pytestmark = pytest.mark.fast


def run(coroutine):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def feed(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #

def test_frame_round_trips():
    payload = encode_message({"op": "hello", "id": 1})
    assert run(read_frame_async(feed(frame(payload)))) == payload


def test_clean_eof_between_frames_is_none():
    assert run(read_frame_async(feed(b""))) is None


def test_every_truncation_point_is_a_protocol_error():
    wire = frame(encode_message({"op": "len", "id": 7}))
    for cut in range(1, len(wire)):
        with pytest.raises(ProtocolError):
            run(read_frame_async(feed(wire[:cut])))


async def assert_every_bit_flip_is_typed(wire: bytes) -> None:
    """Exhaustive over ``wire``: no frame with one flipped bit decodes."""
    for index in range(len(wire) * 8):
        flipped = bytearray(wire)
        flipped[index // 8] ^= 1 << (index % 8)
        with pytest.raises(ProtocolError):
            payload = await read_frame_async(feed(bytes(flipped)))
            # a flip that shrinks the announced length can still fail CRC;
            # it must never hand back bytes that differ from the original
            if payload is not None:
                raise AssertionError("flipped frame decoded: %r" % payload)


def test_every_single_bit_flip_is_a_protocol_error():
    run(assert_every_bit_flip_is_typed(
        frame(encode_message({"op": "check", "id": 3}))))


def test_oversized_announced_length_is_rejected_without_allocating():
    header = protocol.FRAME_HEADER.pack(protocol.MAX_PAYLOAD + 1, 0)
    with pytest.raises(ProtocolError):
        run(read_frame_async(feed(header, eof=False)))
    with pytest.raises(ProtocolError):
        frame(b"x" * (protocol.MAX_PAYLOAD + 1))


def test_mid_frame_disconnect_async_is_a_protocol_error():
    wire = frame(encode_message({"op": "items", "id": 2}))
    # EOF after the header but before the full payload
    with pytest.raises(ProtocolError):
        run(read_frame_async(feed(wire[:protocol.FRAME_HEADER.size + 3])))
    # EOF inside the header
    with pytest.raises(ProtocolError):
        run(read_frame_async(feed(wire[:2])))


def test_traced_frame_round_trips_and_every_mutation_is_typed():
    """A frame carrying a trace header fuzzes exactly like a bare one.

    The ``TRACE_KEY`` field is plain header data: the intact frame
    round-trips it bit-for-bit, while every truncation point and every
    single-bit flip still surfaces as :class:`ProtocolError` — tracing
    must not open a byte-path the fuzz tier does not cover.
    """
    trace_header = {"trace": "t1f2a-9", "span": "1f2a-a"}
    wire = frame(encode_message(
        {"op": "contains_many", "id": 5, TRACE_KEY: trace_header}))

    async def fuzz():
        header, _tag, _body = decode_message(
            await read_frame_async(feed(wire)))
        assert header[TRACE_KEY] == trace_header
        for cut in range(1, len(wire)):
            with pytest.raises(ProtocolError):
                await read_frame_async(feed(wire[:cut]))
        await assert_every_bit_flip_is_typed(wire)

    run(fuzz())


def test_malformed_trace_headers_still_decode_as_messages():
    """A hostile ``trace`` field (wrong type, junk keys) is header data
    the protocol layer passes through untouched — rejecting or adopting
    it is the server's call, never a decode error."""
    for junk in ("not-a-dict", 17, ["t1"], {"weird": True}, None):
        payload = encode_message({"op": "len", "id": 1, TRACE_KEY: junk})
        header, tag, body = decode_message(payload)
        assert header[TRACE_KEY] == junk
        assert (tag, body) == (BODY_NONE, b"")


def test_random_garbage_frames_never_escape_typed_errors():
    rng = random.Random(20160816)

    async def fuzz():
        for _trial in range(200):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 64)))
            try:
                payload = await read_frame_async(feed(blob))
            except ProtocolError:
                continue
            # decoding random bytes to a frame requires a CRC collision;
            # if one ever slips through, the message layer must still
            # type it
            if payload is not None:
                with pytest.raises(ProtocolError):
                    decode_message(payload)

    run(fuzz())


# --------------------------------------------------------------------------- #
# Messages and bodies
# --------------------------------------------------------------------------- #

def test_message_round_trip_with_each_body_codec():
    codec = WireCodec()
    for values in ([1, 2, 3], [1.5, "text", b"bytes"], [(1, 2), (3, 4)],
                   [True, None, 2 ** 100, (1, (2, (3,)))]):
        tag, blob = codec.encode_values(values)
        assert tag == BODY_VALUES
        payload = encode_message({"op": "x", "count": len(values)}, tag, blob)
        header, tag2, blob2 = decode_message(payload)
        assert codec.decode_body(tag2, blob2, header["count"]) == values
    for flags in ([], [True], [False] * 9,
                  [index % 3 == 0 for index in range(27)]):
        tag, blob = WireCodec.encode_flags(flags)
        assert tag == BODY_BITMAP and len(blob) == (len(flags) + 7) // 8
        assert codec.decode_body(tag, blob, len(flags)) == flags


# The whole value union, each member at its edges.
UNION = [None, True, False, 0, -1, 2 ** 63 - 1, -2 ** 63, 2 ** 63,
         -2 ** 63 - 1, 2 ** 200, -2 ** 71, 0.0, -0.0, 3.5, float("inf"),
         "", "key", "h\u00e9llo \U0001f600", b"", b"\x00\xff", (),
         (1, "v"), ("k", (b"v", (True, None))), (1, 2, 3, 4)]


def test_value_codec_round_trips_the_union_type_exactly():
    codec = WireCodec()
    tag, blob = codec.encode_values(UNION)
    decoded = codec.decode_body(tag, blob, len(UNION))
    assert decoded == UNION
    # Type-exact, not merely equal: True stays a bool, 1 an int, 2.0 a
    # float, and -0.0 keeps its sign.
    assert [type(value) for value in decoded] == \
        [type(value) for value in UNION]
    assert struct.pack(">d", decoded[12]) == struct.pack(">d", -0.0)


def test_value_codec_is_canonical():
    """One encoding per value, a function of the value alone — so the
    wire stays history independent — and the decoder refuses the
    non-canonical spellings an attacker could craft."""
    codec = WireCodec()
    for value in UNION:
        first = codec.encode_values([value])[1]
        assert codec.encode_values([value])[1] == first
        assert codec.encode_values([(value,)])[1][5:] == first
    assert codec.encode_values([(12345, 678)])[1] == \
        bytes([8, 0, 0, 0, 2, 3]) + struct.pack(">q", 12345) \
        + bytes([3]) + struct.pack(">q", 678)
    # A small int smuggled in the big-int form, and a padded big int.
    for raw in (b"\x00\x05", (2 ** 70).to_bytes(12, "big", signed=True)):
        blob = bytes([4]) + struct.pack(">I", len(raw)) + raw
        with pytest.raises(ProtocolError, match="canonical"):
            codec.decode_body(BODY_VALUES, blob, 1)


@pytest.mark.parametrize("value", [
    {"a": 1}, [1, 2], {1, 2}, object(), bytearray(b"x"), "\ud800",
    (1, [2]), ((1,), {"deep": True}),
])
def test_values_outside_the_union_are_refused_before_encoding(value):
    with pytest.raises(ConfigurationError):
        WireCodec.encode_values([1, value, 2])


def test_nesting_past_the_depth_limit_is_refused_both_ways():
    codec = WireCodec()
    value = None
    for _level in range(MAX_DEPTH):
        value = (value,)
    tag, blob = codec.encode_values([value])       # MAX_DEPTH tuples: fine
    assert codec.decode_body(tag, blob, 1) == [value]
    with pytest.raises(ConfigurationError):
        codec.encode_values([(value,)])
    with pytest.raises(ProtocolError, match="deeper"):
        codec.decode_body(BODY_VALUES, bytes([8, 0, 0, 0, 1]) + blob, 1)


def test_nested_tuple_depth_bomb_is_a_protocol_error():
    """A body of 100k nested one-item tuples must be refused with a
    ProtocolError at the depth limit, never a RecursionError."""
    bomb = bytes([8, 0, 0, 0, 1]) * 100_000 + bytes([0])
    with pytest.raises(ProtocolError, match="deeper"):
        WireCodec.decode_body(BODY_VALUES, bomb, 1)


def test_count_larger_than_the_body_is_a_protocol_error():
    """Announced counts are bounded by the bytes present before anything
    is allocated: every value takes at least one byte."""
    codec = WireCodec()
    with pytest.raises(ProtocolError, match="announces"):
        codec.decode_body(BODY_VALUES, bytes(8), 2 ** 40)
    # a tuple announcing 2**32 - 1 items inside a 6-byte body
    with pytest.raises(ProtocolError, match="announces"):
        codec.decode_body(BODY_VALUES, bytes([8, 255, 255, 255, 255, 0]), 1)


def test_trailing_bytes_and_truncated_fields_are_protocol_errors():
    codec = WireCodec()
    tag, blob = codec.encode_values([(1, "text"), b"raw", 2 ** 90, 2.5])
    with pytest.raises(ProtocolError, match="trailing"):
        codec.decode_body(tag, blob + b"\x00", 4)
    with pytest.raises(ProtocolError, match="trailing"):
        codec.decode_body(tag, blob, 3)
    # Every truncation point: a cut length field, a cut payload, a
    # missing value — all typed, none silently short.
    for cut in range(len(blob)):
        with pytest.raises(ProtocolError):
            codec.decode_body(tag, blob[:cut], 4)
    with pytest.raises(ProtocolError, match="unknown value tag"):
        codec.decode_body(tag, bytes([9]), 1)
    with pytest.raises(ProtocolError):
        codec.decode_body(tag, bytes([6, 0, 0, 0, 1, 0xff]), 1)  # bad utf-8


def test_bit_flipped_value_bodies_decode_or_fail_typed():
    """The body has no CRC of its own (the frame's covers it), so a flip
    may decode to other union values — but never to anything else, and
    never escape the ProtocolError type."""
    codec = WireCodec()
    tag, blob = codec.encode_values([(7, "seven"), 2 ** 80, None, b"\x01"])
    for index in range(len(blob) * 8):
        flipped = bytearray(blob)
        flipped[index // 8] ^= 1 << (index % 8)
        try:
            codec.decode_body(tag, bytes(flipped), 4)
        except ProtocolError:
            continue


@pytest.mark.parametrize("payload", [
    b"",                                     # shorter than the prologue
    struct.pack(">BI", 9, 0),                # unknown body tag
    struct.pack(">BI", BODY_NONE, 50) + b"{}",   # header over-announced
    struct.pack(">BI", BODY_NONE, 2) + b"[]",    # JSON but not an object
    struct.pack(">BI", BODY_NONE, 3) + b"{,}",   # not JSON at all
])
def test_malformed_messages_are_protocol_errors(payload):
    with pytest.raises(ProtocolError):
        decode_message(payload)


def test_fuzzed_message_payloads_are_protocol_errors():
    rng = random.Random(20160817)
    codec = WireCodec()
    for _trial in range(300):
        blob = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 48)))
        try:
            header, tag, body = decode_message(blob)
            codec.decode_body(tag, body, header.get("count", 0))
        except ProtocolError:
            continue


def test_value_body_decode_checks_the_record_count():
    codec = WireCodec()
    tag, blob = codec.encode_values([10, 20, 30])
    with pytest.raises(ProtocolError):
        codec.decode_body(tag, blob, 2)
    with pytest.raises(ProtocolError):
        codec.decode_body(tag, blob[:-1], 3)


def test_bitmap_round_trips_and_checks_length():
    for flags in ([], [True], [False] * 9,
                  [bool(index % 3 == 0) for index in range(27)]):
        tag, blob = WireCodec.encode_flags(flags)
        assert len(blob) == (len(flags) + 7) // 8
        assert WireCodec.decode_body(tag, blob, len(flags)) == flags
    with pytest.raises(ProtocolError):
        WireCodec.decode_body(BODY_BITMAP, b"\x00\x00", 27)


def test_body_count_mismatches_are_protocol_errors():
    codec = WireCodec()
    tag, blob = codec.encode_values([1, 2, 3])
    with pytest.raises(ProtocolError):
        codec.decode_body(tag, blob, 4)           # value body, wrong count
    with pytest.raises(ProtocolError):
        codec.decode_body(BODY_BITMAP, b"\x01", 20)
    with pytest.raises(ProtocolError):
        codec.decode_body(BODY_NONE, b"stray", 0)
    with pytest.raises(ProtocolError):
        codec.decode_body(BODY_VALUES, blob, -1)
    with pytest.raises(ProtocolError):
        codec.decode_body(BODY_VALUES, blob, True)


def test_truncated_pickle_body_is_a_protocol_error():
    """Version 1's pickle body tag (3) is retired: whole or truncated, a
    pickle body is refused by tag before a byte of it is looked at."""
    codec = WireCodec()
    blob = pickle.dumps([1, 2, 3])
    for body in (blob, blob[:-2]):
        with pytest.raises(ProtocolError, match="unknown body codec tag"):
            decode_message(encode_message({"op": "x", "count": 3}, 3, body))
        with pytest.raises(ProtocolError, match="unknown body codec tag"):
            codec.decode_body(3, body, 3)


# --------------------------------------------------------------------------- #
# Typed errors over the wire
# --------------------------------------------------------------------------- #

def test_error_payload_keeps_key_error_messages_unquoted():
    payload = error_payload(KeyNotFound("17"))
    assert payload == {"type": "KeyNotFound", "message": "17"}
    payload = error_payload(WorkerCrashError("shard 2 died"))
    assert payload == {"type": "WorkerCrashError", "message": "shard 2 died"}


def test_raise_for_reply_reconstructs_known_types():
    with pytest.raises(KeyNotFound):
        raise_for_reply({"status": "error",
                         "error": {"type": "KeyNotFound", "message": "17"}})
    with pytest.raises(WorkerCrashError) as excinfo:
        raise_for_reply({"status": "error",
                         "error": {"type": "WorkerCrashError",
                                   "message": "shard 2 died"}})
    assert "shard 2 died" in str(excinfo.value)


def test_raise_for_reply_wraps_unknown_types_as_remote_error():
    with pytest.raises(RemoteError) as excinfo:
        raise_for_reply({"status": "error",
                         "error": {"type": "SomethingNovel",
                                   "message": "boom"}})
    assert excinfo.value.type_name == "SomethingNovel"
    assert excinfo.value.message == "boom"


def test_raise_for_reply_busy_and_malformed_statuses():
    raise_for_reply({"status": "ok"})  # no raise
    with pytest.raises(ServerBusyError):
        raise_for_reply({"status": "busy"})
    with pytest.raises(ProtocolError):
        raise_for_reply({"status": "error"})  # no error detail
    with pytest.raises(ProtocolError):
        raise_for_reply({"status": "weird"})
    with pytest.raises(ProtocolError):
        raise_for_reply({})


def test_topology_token_tracks_the_shard_set():
    assert topology_token((0, 1, 2)) == topology_token((0, 1, 2))
    assert topology_token((0, 1, 2)) != topology_token((0, 1, 2, 3))
    assert topology_token((0, 1, 2)) != topology_token((0, 2, 1))

"""Record and page codecs: round trips, fixed widths, error handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.storage.encoding import GAP_MARKER, PageCodec, RecordCodec, encoded_record_size


# --------------------------------------------------------------------------- #
# RecordCodec
# --------------------------------------------------------------------------- #

def test_record_size_is_header_plus_payload():
    codec = RecordCodec(payload_size=32)
    assert codec.record_size == encoded_record_size(32)
    assert len(codec.encode(7)) == codec.record_size
    assert len(codec.encode(None)) == codec.record_size


def test_rejects_tiny_payload_budget():
    with pytest.raises(ConfigurationError):
        RecordCodec(payload_size=8)


@pytest.mark.parametrize("value", [
    None,
    0,
    42,
    -17,
    2**100,
    -(2**100),
    True,
    False,
    3.14159,
    -0.0,
    "hello",
    "ünïcødé",
    "",
    b"raw bytes",
    b"",
    (5, "five"),
    ("key", 123),
    (1.5, b"blob"),
    (None, 7),
    (7, None),
])
def test_record_round_trip(value):
    codec = RecordCodec(payload_size=64)
    decoded = codec.decode(codec.encode(value))
    if isinstance(value, bool):
        assert decoded == int(value)
    else:
        assert decoded == value


def test_gap_marker_round_trip():
    codec = RecordCodec(payload_size=32)
    assert codec.decode(codec.encode(GAP_MARKER)) is None


def test_oversized_value_rejected():
    codec = RecordCodec(payload_size=16)
    with pytest.raises(CapacityError):
        codec.encode("x" * 64)


def test_unsupported_type_rejected():
    codec = RecordCodec(payload_size=32)
    with pytest.raises(ConfigurationError):
        codec.encode(["lists", "not", "supported"])
    with pytest.raises(ConfigurationError):
        codec.encode(((1, 2), 3))  # nested pairs unsupported


@pytest.mark.fast
@pytest.mark.parametrize("value", [2**127 - 1, -(2**127), (1, 2**127 - 1),
                                   (-(2**127), "k")])
def test_integers_at_the_signed_16_byte_bounds_round_trip(value):
    codec = RecordCodec(payload_size=64)
    assert codec.decode(codec.encode(value)) == value


@pytest.mark.fast
@pytest.mark.parametrize("value", [2**127, -(2**127) - 1, (1, 2**200),
                                   (2**127, None),
                                   pytest.param(2**20000, id="2**20000")])
def test_integers_past_the_signed_16_byte_bounds_are_capacity_errors(value):
    with pytest.raises(CapacityError, match="16-byte range"):
        RecordCodec(payload_size=64).encode(value)


class _Int(int):
    """An int the codec's plain-int pair path does not take."""


@pytest.mark.fast
@pytest.mark.parametrize("payload_size", [36, 64, 100])
@pytest.mark.parametrize("pair", [(0, 0), (1, -1), (-7, 10 ** 30),
                                  (2 ** 127 - 1, -(2 ** 127)),
                                  (-(2 ** 127), 2 ** 127 - 1)])
def test_a_plain_int_pair_encodes_to_the_tagged_union_bytes(pair,
                                                            payload_size):
    """The ``(int, int)`` fast path writes the bytes of the per-element
    tagged union: the pair tag and length, the key's 2-byte length, each
    int as its tag and 16 signed big-endian bytes, zero padding."""
    codec = RecordCodec(payload_size=payload_size)
    key, value = pair
    expected = (bytes([5]) + (36).to_bytes(4, "big") + (17).to_bytes(2, "big")
                + bytes([1]) + key.to_bytes(16, "big", signed=True)
                + bytes([1]) + value.to_bytes(16, "big", signed=True)
                + bytes(payload_size - 36))
    assert codec.encode(pair) == expected
    assert codec.encode((_Int(key), _Int(value))) == expected
    assert codec.decode(expected) == pair


@pytest.mark.fast
def test_an_int_pair_too_wide_for_the_budget_is_a_capacity_error():
    with pytest.raises(CapacityError):
        RecordCodec(payload_size=35).encode((1, 2))


@pytest.mark.fast
@pytest.mark.parametrize("value", ["\ud800", ("k", "\udfff"), ("\udc80", 1)])
def test_strings_that_are_not_utf8_are_configuration_errors(value):
    with pytest.raises(ConfigurationError, match="not valid unicode"):
        RecordCodec(payload_size=64).encode(value)


def test_decode_rejects_wrong_length():
    codec = RecordCodec(payload_size=32)
    with pytest.raises(ConfigurationError):
        codec.decode(b"\x00" * 5)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.none(),
    st.integers(min_value=-(2**120), max_value=2**120),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.tuples(st.integers(min_value=-10**9, max_value=10**9), st.text(max_size=8)),
))
def test_property_record_round_trip(value):
    codec = RecordCodec(payload_size=64)
    assert codec.decode(codec.encode(value)) == value


def encoded_prefix(codec, values):
    """What ``encodable`` must report: the values ``encode`` takes before
    its first refusal, and that refusal's type."""
    for index, value in enumerate(values):
        try:
            codec.encode(value)
        except (CapacityError, ConfigurationError) as refusal:
            return index, type(refusal)
    return len(values), None


#: Values on either side of every refusal a record makes: the signed
#: 16-byte integer bounds, in a pair and alone, bools, text past the
#: budget or not UTF-8, nested pairs and types a record cannot hold.
RECORD_EDGES = st.sampled_from([
    0, True, 2 ** 127 - 1, -(2 ** 127), 2 ** 127, -(2 ** 127) - 1,
    (1, 2), (2 ** 127 - 1, -(2 ** 127)), (2 ** 127, 1), (1, 2 ** 127),
    (-(2 ** 127) - 1, 1), (1, -(2 ** 127) - 1),
    (True, 1), (1, 2.5), (1, "v"), (1, "x" * 80), "x" * 80, "\ud800",
    ((1, 2), 3), (1, 2, 3), [1, 2], None, 2.5, b"bytes",
])


@pytest.mark.fast
@settings(max_examples=150, deadline=None)
@given(payload_size=st.sampled_from([16, 35, 36, 64]),
       values=st.lists(st.one_of(
           RECORD_EDGES,
           st.integers(min_value=-(2 ** 130), max_value=2 ** 130),
           st.tuples(st.integers(min_value=-(2 ** 130), max_value=2 ** 130),
                     st.integers(min_value=-(2 ** 130),
                                 max_value=2 ** 130))), max_size=12))
def test_encodable_reports_the_prefix_encode_takes(payload_size, values):
    """``encodable`` stops where ``encode`` first refuses and returns that
    refusal, at every budget, the int-pair layout's minimum included."""
    codec = RecordCodec(payload_size=payload_size)
    count, refusal = codec.encodable(values)
    assert (count, None if refusal is None else type(refusal)) \
        == encoded_prefix(codec, values)


# --------------------------------------------------------------------------- #
# PageCodec
# --------------------------------------------------------------------------- #

def test_page_codec_capacity_arithmetic():
    codec = PageCodec(page_size=4096, payload_size=32)
    assert codec.slots_per_page == (4096 - 4) // encoded_record_size(32)


def test_page_codec_rejects_too_small_page():
    with pytest.raises(ConfigurationError):
        PageCodec(page_size=16, payload_size=16)


def test_page_round_trip_with_gaps():
    codec = PageCodec(page_size=512, payload_size=32)
    slots = [1, None, "a", None, (2, "b")]
    page = codec.encode_page(slots)
    assert len(page) == 512
    assert codec.decode_page(page) == slots


def test_encode_page_rejects_overflow():
    codec = PageCodec(page_size=128, payload_size=16)
    with pytest.raises(CapacityError):
        codec.encode_page(list(range(codec.slots_per_page + 1)))


def test_decode_page_rejects_wrong_size():
    codec = PageCodec(page_size=256, payload_size=16)
    with pytest.raises(ConfigurationError):
        codec.decode_page(b"\x00" * 128)


def test_paginate_unpaginate_round_trip():
    codec = PageCodec(page_size=256, payload_size=16)
    slots = [index if index % 3 else None for index in range(100)]
    pages = codec.paginate(slots)
    assert all(len(page) == 256 for page in pages)
    assert codec.unpaginate(pages)[:len(slots)] == slots


def test_paginate_empty_produces_one_page():
    codec = PageCodec(page_size=256, payload_size=16)
    pages = codec.paginate([])
    assert len(pages) == 1
    assert codec.unpaginate(pages) == []


def test_unpaginate_checks_expected_count():
    codec = PageCodec(page_size=256, payload_size=16)
    pages = codec.paginate([1, 2, 3])
    with pytest.raises(ConfigurationError):
        codec.unpaginate(pages, expected_slots=99)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(),
                          st.integers(min_value=-10**6, max_value=10**6),
                          st.text(max_size=6)),
                max_size=200))
def test_property_paginate_round_trip(slots):
    codec = PageCodec(page_size=512, payload_size=24)
    pages = codec.paginate(slots)
    decoded = codec.unpaginate(pages)
    assert decoded[:len(slots)] == slots
    assert all(slot is None for slot in decoded[len(slots):])

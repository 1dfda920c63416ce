"""Fixed-width record and page codecs.

The history-independence definition covers the *bit* representation, so the
storage layer must be careful that encoding itself does not smuggle history
back in.  Two rules keep the encoding canonical:

* **Fixed-width records.**  Every slot of a structure (element or gap)
  occupies exactly ``encoded_record_size(payload_size)`` bytes, so record
  boundaries never depend on the values stored around them.
* **Deterministic padding.**  Unused bytes are always zero.  (A real system
  that recycled buffers without clearing them would leak deleted data — the
  classic failed-redaction problem the paper cites.)

Records hold a small tagged union: integers, floats, short strings, bytes,
``None`` (a gap), or a (key, value) pair of those.  That is enough to encode
every structure in this library; richer payloads can be serialised by the
caller into ``bytes`` first.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError

#: Tag byte values for the record union.
_TAG_GAP = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BYTES = 4
_TAG_PAIR = 5

#: Marker object used when decoding a gap record.
GAP_MARKER = None

_HEADER = struct.Struct(">BI")  # tag, payload length


def encoded_record_size(payload_size: int) -> int:
    """Total bytes one record occupies for a given payload budget."""
    return _HEADER.size + payload_size


class RecordCodec:
    """Encode and decode one fixed-width record.

    Parameters
    ----------
    payload_size:
        Number of payload bytes per record.  Values whose encoding exceeds
        this budget are rejected with :class:`CapacityError` (the caller picks
        a budget large enough for its key/value types).
    """

    def __init__(self, payload_size: int = 32) -> None:
        if payload_size < 16:
            raise ConfigurationError("payload_size must be at least 16 bytes")
        self.payload_size = payload_size
        self.record_size = encoded_record_size(payload_size)

    # -- encoding ---------------------------------------------------------- #

    def encode(self, value: object) -> bytes:
        """Encode ``value`` into exactly ``record_size`` bytes."""
        tag, payload = self._encode_payload(value)
        if len(payload) > self.payload_size:
            raise CapacityError(
                "value %r needs %d payload bytes, budget is %d"
                % (value, len(payload), self.payload_size))
        body = payload + b"\x00" * (self.payload_size - len(payload))
        return _HEADER.pack(tag, len(payload)) + body

    def _encode_payload(self, value: object) -> Tuple[int, bytes]:
        if value is None:
            return _TAG_GAP, b""
        if isinstance(value, bool):
            # Booleans are ints in Python; keep them as ints explicitly.
            return _TAG_INT, struct.pack(">q", int(value))
        if isinstance(value, int):
            return _TAG_INT, value.to_bytes(16, "big", signed=True)
        if isinstance(value, float):
            return _TAG_FLOAT, struct.pack(">d", value)
        if isinstance(value, str):
            return _TAG_TEXT, value.encode("utf-8")
        if isinstance(value, bytes):
            return _TAG_BYTES, value
        if isinstance(value, tuple) and len(value) == 2:
            key_blob = self._encode_nested(value[0])
            value_blob = self._encode_nested(value[1])
            return _TAG_PAIR, struct.pack(">H", len(key_blob)) + key_blob + value_blob
        raise ConfigurationError("cannot encode value of type %s"
                                 % (type(value).__name__,))

    def is_pair_header(self, blob: bytes, offset: int) -> bool:
        """Whether ``blob`` holds a pair record's header at ``offset``:
        the pair tag, then a payload length within this codec's budget."""
        if offset < 0 or offset + _HEADER.size > len(blob):
            return False
        tag, length = _HEADER.unpack_from(blob, offset)
        return tag == _TAG_PAIR and length <= self.payload_size

    def _encode_nested(self, value: object) -> bytes:
        tag, payload = self._encode_payload(value)
        if tag == _TAG_PAIR:
            raise ConfigurationError("nested pairs are not supported")
        return bytes([tag]) + payload

    # -- decoding ---------------------------------------------------------- #

    def decode(self, blob: bytes) -> object:
        """Decode one record previously produced by :meth:`encode`."""
        if len(blob) != self.record_size:
            raise ConfigurationError("record blob has %d bytes, expected %d"
                                     % (len(blob), self.record_size))
        tag, length = _HEADER.unpack_from(blob, 0)
        payload = blob[_HEADER.size:_HEADER.size + length]
        return self._decode_payload(tag, payload)

    def _decode_payload(self, tag: int, payload: bytes) -> object:
        if tag == _TAG_GAP:
            return GAP_MARKER
        if tag == _TAG_INT:
            if len(payload) == 8:
                return struct.unpack(">q", payload)[0]
            return int.from_bytes(payload, "big", signed=True)
        if tag == _TAG_FLOAT:
            return struct.unpack(">d", payload)[0]
        if tag == _TAG_TEXT:
            return payload.decode("utf-8")
        if tag == _TAG_BYTES:
            return payload
        if tag == _TAG_PAIR:
            key_length = struct.unpack(">H", payload[:2])[0]
            key_blob = payload[2:2 + key_length]
            value_blob = payload[2 + key_length:]
            return (self._decode_nested(key_blob), self._decode_nested(value_blob))
        raise ConfigurationError("unknown record tag %d" % (tag,))

    def _decode_nested(self, blob: bytes) -> object:
        return self._decode_payload(blob[0], blob[1:])


class PageCodec:
    """Pack a fixed number of records into one byte page.

    A page holds a small header (the number of record slots) followed by the
    records back to back, padded with zero bytes to ``page_size``.  Pages are
    the unit transferred by :class:`repro.storage.pager.PagedFile`, mirroring
    the block of the DAM model.
    """

    _PAGE_HEADER = struct.Struct(">I")

    def __init__(self, page_size: int = 4096, payload_size: int = 32) -> None:
        self.records = RecordCodec(payload_size=payload_size)
        min_size = self._PAGE_HEADER.size + self.records.record_size
        if page_size < min_size:
            raise ConfigurationError(
                "page_size %d too small for even one record (need >= %d)"
                % (page_size, min_size))
        self.page_size = page_size
        self.slots_per_page = (page_size - self._PAGE_HEADER.size) \
            // self.records.record_size

    def encode_page(self, slots: Sequence[object]) -> bytes:
        """Encode up to ``slots_per_page`` slot values into one page."""
        if len(slots) > self.slots_per_page:
            raise CapacityError("page holds %d slots, got %d"
                                % (self.slots_per_page, len(slots)))
        body = b"".join(self.records.encode(value) for value in slots)
        header = self._PAGE_HEADER.pack(len(slots))
        page = header + body
        return page + b"\x00" * (self.page_size - len(page))

    def decode_page(self, page: bytes) -> List[object]:
        """Decode a page back into its list of slot values."""
        if len(page) != self.page_size:
            raise ConfigurationError("page has %d bytes, expected %d"
                                     % (len(page), self.page_size))
        (count,) = self._PAGE_HEADER.unpack_from(page, 0)
        if count > self.slots_per_page:
            raise ConfigurationError("page header claims %d slots, limit is %d"
                                     % (count, self.slots_per_page))
        slots: List[object] = []
        offset = self._PAGE_HEADER.size
        for _ in range(count):
            blob = page[offset:offset + self.records.record_size]
            slots.append(self.records.decode(blob))
            offset += self.records.record_size
        return slots

    def paginate(self, slots: Sequence[object]) -> List[bytes]:
        """Split a slot sequence into encoded pages (the last may be partial)."""
        pages: List[bytes] = []
        for start in range(0, len(slots), self.slots_per_page):
            pages.append(self.encode_page(slots[start:start + self.slots_per_page]))
        if not pages:
            pages.append(self.encode_page([]))
        return pages

    def unpaginate(self, pages: Sequence[bytes],
                   expected_slots: Optional[int] = None) -> List[object]:
        """Concatenate decoded pages back into a slot list."""
        slots: List[object] = []
        for page in pages:
            slots.extend(self.decode_page(page))
        if expected_slots is not None and len(slots) != expected_slots:
            raise ConfigurationError("decoded %d slots, expected %d"
                                     % (len(slots), expected_slots))
        return slots

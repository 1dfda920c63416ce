"""Disk images: what the observer actually sees.

A :class:`DiskImage` is an immutable byte-level snapshot of a paged file.  It
is the artifact handed to the history-independence observer: raw pages, in
physical order, including padding and gaps.  The class provides the scanning
helpers the forensics module needs (decode every page, compute an occupancy
profile, compare two images byte for byte) without going through any
structure API — which is the whole point.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.storage.encoding import PageCodec
from repro.storage.pager import PagedFile


class DiskImage:
    """An immutable sequence of byte pages plus the codec to interpret them."""

    def __init__(self, pages: Sequence[bytes], codec: PageCodec) -> None:
        for index, page in enumerate(pages):
            if len(page) != codec.page_size:
                raise ConfigurationError(
                    "page %d has %d bytes, codec expects %d"
                    % (index, len(page), codec.page_size))
        self._pages: Tuple[bytes, ...] = tuple(pages)
        self.codec = codec

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_paged_file(cls, paged_file: PagedFile, codec: PageCodec) -> "DiskImage":
        """Capture the current contents of a paged file (observer access, no I/Os)."""
        return cls(paged_file.peek_all(), codec)

    # ------------------------------------------------------------------ #
    # Raw access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of pages in the image."""
        return len(self._pages)

    def page(self, page_number: int) -> bytes:
        """Raw bytes of one page."""
        return self._pages[page_number]

    def pages(self) -> Tuple[bytes, ...]:
        """All raw pages in physical order."""
        return self._pages

    @property
    def size_in_bytes(self) -> int:
        """Total image size in bytes."""
        return len(self._pages) * self.codec.page_size

    def fingerprint(self) -> str:
        """SHA-256 over the concatenated pages (used to compare images)."""
        digest = hashlib.sha256()
        for page in self._pages:
            digest.update(page)
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiskImage):
            return NotImplemented
        return self._pages == other._pages

    def __hash__(self) -> int:
        return hash(self._pages)

    # ------------------------------------------------------------------ #
    # Decoded views
    # ------------------------------------------------------------------ #

    def decoded_slots(self) -> List[object]:
        """Every record slot in physical order (``None`` marks gaps)."""
        slots: List[object] = []
        for page in self._pages:
            slots.extend(self.codec.decode_page(page))
        return slots

    def stored_values(self) -> List[object]:
        """The non-gap record values in physical order."""
        return [slot for slot in self.decoded_slots() if slot is not None]

    def occupancy_profile(self, buckets: int = 16) -> List[float]:
        """Fraction of occupied slots in each of ``buckets`` physical regions.

        This is the observer's bread-and-butter statistic: in a
        history-dependent layout the profile carries a visible imprint of
        where insertions and deletions clustered; in a history-independent
        layout it is statistically flat regardless of history.
        """
        slots = self.decoded_slots()
        if not slots or buckets <= 0:
            return [0.0] * max(0, buckets)
        profile: List[float] = []
        per_bucket = max(1, len(slots) // buckets)
        for bucket in range(buckets):
            start = bucket * per_bucket
            stop = len(slots) if bucket == buckets - 1 else start + per_bucket
            chunk = slots[start:stop]
            if not chunk:
                profile.append(0.0)
                continue
            occupied = sum(1 for slot in chunk if slot is not None)
            profile.append(occupied / len(chunk))
        return profile

    def gap_run_lengths(self) -> List[int]:
        """Lengths of maximal runs of consecutive gap slots.

        Long gap runs in specific places are another forensic signal of
        deletions (the "depression in the sand pile" from the paper's
        introduction).
        """
        runs: List[int] = []
        current = 0
        for slot in self.decoded_slots():
            if slot is None:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return runs

    def diff_pages(self, other: "DiskImage") -> List[int]:
        """Page numbers at which two images differ (images must be comparable)."""
        if self.codec.page_size != other.codec.page_size:
            raise ConfigurationError("images use different page sizes")
        longest = max(len(self._pages), len(other._pages))
        blank = b"\x00" * self.codec.page_size
        differing = []
        for number in range(longest):
            mine = self._pages[number] if number < len(self._pages) else blank
            theirs = other._pages[number] if number < len(other._pages) else blank
            if mine != theirs:
                differing.append(number)
        return differing

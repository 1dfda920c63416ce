"""A page-addressed file with I/O counting.

:class:`PagedFile` is the byte-level analogue of
:class:`repro.memory.block_device.BlockDevice`: it stores fixed-size byte
pages, counts page transfers as reads and writes, and can be backed either by
memory (the default, used in tests and benches) or by a real file on disk
(used by the persistence examples, so that the "steal the disk" scenario is
literal: the file *is* the artifact the observer gets).

A file-backed pager opens its file once per pass: :meth:`PagedFile.write_pages`,
:meth:`PagedFile.read_all` and :meth:`PagedFile.peek_all` each hold one
handle across their pages, and no handle outlives the call.

The pager makes no placement decisions itself; history-independent placement
is the job of :mod:`repro.storage.snapshot`, which shuffles page order via
the uniform arena allocator before handing pages to the pager.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.memory.stats import IOStats


class PagedFile:
    """Fixed-size byte pages addressed by page number.

    Parameters
    ----------
    page_size:
        Size of every page in bytes.
    path:
        Optional filesystem path.  When given, pages are written to (and read
        from) that file at offset ``page_number * page_size``; otherwise the
        pages live in an in-memory dictionary.
    """

    def __init__(self, page_size: int = 4096, path: Optional[str] = None) -> None:
        if page_size <= 0:
            raise ConfigurationError("page_size must be positive, got %r"
                                     % (page_size,))
        self.page_size = page_size
        self.path = path
        self._pages: Dict[int, bytes] = {}
        self._num_pages = 0
        self.stats = IOStats()
        if path is not None and os.path.exists(path):
            self._num_pages = os.path.getsize(path) // page_size

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of pages the file currently holds."""
        return self._num_pages

    @property
    def size_in_bytes(self) -> int:
        """Total size of the file in bytes."""
        return self._num_pages * self.page_size

    # ------------------------------------------------------------------ #
    # Page I/O
    # ------------------------------------------------------------------ #

    def write_page(self, page_number: int, data: bytes) -> None:
        """Write one page; pads short data with zeros, rejects oversized data."""
        self.write_pages([(page_number, data)])

    def write_pages(self, pages: Iterable[Tuple[int, bytes]],
                    fsync: bool = False) -> None:
        """Write ``(page number, data)`` pairs in order, each as
        :meth:`write_page` does, through one file handle (fsynced at the
        end when ``fsync`` is set) when the pager is file-backed."""
        handle = None
        try:
            for page_number, data in pages:
                if page_number < 0:
                    raise ConfigurationError(
                        "page_number must be non-negative")
                if len(data) > self.page_size:
                    raise CapacityError("page data is %d bytes, page size is %d"
                                        % (len(data), self.page_size))
                padded = data + b"\x00" * (self.page_size - len(data))
                self.stats.writes += 1
                if self.path is None:
                    self._pages[page_number] = padded
                else:
                    if handle is None:
                        handle = open(self.path, "r+b"
                                      if os.path.exists(self.path) else "w+b")
                    handle.seek(page_number * self.page_size)
                    handle.write(padded)
                self._num_pages = max(self._num_pages, page_number + 1)
            if handle is not None and fsync:
                handle.flush()
                os.fsync(handle.fileno())
        finally:
            if handle is not None:
                handle.close()

    def append_page(self, data: bytes) -> int:
        """Write ``data`` as a new page at the end; returns its page number."""
        page_number = self._num_pages
        self.write_page(page_number, data)
        return page_number

    def read_page(self, page_number: int) -> bytes:
        """Read one page (charges one read I/O)."""
        return self._read_pages([page_number])[0]

    def read_all(self) -> List[bytes]:
        """Read every page in order (charges one read per page)."""
        return self._read_pages(range(self._num_pages))

    def peek_page(self, page_number: int) -> bytes:
        """Read one page *without* charging an I/O (observer access)."""
        return self._read_pages([page_number], charge=False)[0]

    def peek_all(self) -> List[bytes]:
        """Read every page in order without charging (observer access)."""
        return self._read_pages(range(self._num_pages), charge=False)

    def truncate(self) -> None:
        """Drop every page (the file becomes empty)."""
        self._pages.clear()
        self._num_pages = 0
        if self.path is not None and os.path.exists(self.path):
            os.truncate(self.path, 0)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _read_pages(self, numbers: Iterable[int],
                    charge: bool = True) -> List[bytes]:
        """The pages ``numbers``, read through one file handle when the
        pager is file-backed; a missing page number raises."""
        blank = b"\x00" * self.page_size
        pages: List[bytes] = []
        handle = None
        try:
            for page_number in numbers:
                if not 0 <= page_number < self._num_pages:
                    raise ConfigurationError(
                        "page %r does not exist (file has %d pages)"
                        % (page_number, self._num_pages))
                if charge:
                    self.stats.reads += 1
                if self.path is None:
                    pages.append(self._pages.get(page_number, blank))
                    continue
                if handle is None:
                    handle = open(self.path, "rb")
                handle.seek(page_number * self.page_size)
                data = handle.read(self.page_size)
                pages.append(data + blank[len(data):])
        finally:
            if handle is not None:
                handle.close()
        return pages

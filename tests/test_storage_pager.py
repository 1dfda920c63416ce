"""The paged file: in-memory and file-backed page I/O with counting."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.storage.pager import PagedFile


def test_rejects_non_positive_page_size():
    with pytest.raises(ConfigurationError):
        PagedFile(page_size=0)


def test_write_read_round_trip_in_memory():
    pager = PagedFile(page_size=64)
    pager.write_page(0, b"hello")
    assert pager.read_page(0) == b"hello" + b"\x00" * 59
    assert len(pager) == 1
    assert pager.size_in_bytes == 64


def test_append_page_returns_consecutive_numbers():
    pager = PagedFile(page_size=32)
    assert pager.append_page(b"a") == 0
    assert pager.append_page(b"b") == 1
    assert len(pager) == 2


def test_write_page_rejects_oversized_data():
    pager = PagedFile(page_size=16)
    with pytest.raises(CapacityError):
        pager.write_page(0, b"x" * 17)


def test_write_page_rejects_negative_number():
    pager = PagedFile(page_size=16)
    with pytest.raises(ConfigurationError):
        pager.write_page(-1, b"x")


def test_read_missing_page_rejected():
    pager = PagedFile(page_size=16)
    with pytest.raises(ConfigurationError):
        pager.read_page(0)


def test_io_counting():
    pager = PagedFile(page_size=32)
    pager.write_page(0, b"a")
    pager.write_page(1, b"b")
    pager.read_page(0)
    pager.read_all()
    assert pager.stats.writes == 2
    assert pager.stats.reads == 3


def test_peek_does_not_charge_io():
    pager = PagedFile(page_size=32)
    pager.write_page(0, b"secret")
    reads_before = pager.stats.reads
    assert pager.peek_page(0).startswith(b"secret")
    assert pager.stats.reads == reads_before


def test_sparse_write_fills_intermediate_pages():
    pager = PagedFile(page_size=32)
    pager.write_page(3, b"late")
    assert len(pager) == 4
    assert pager.read_page(1) == b"\x00" * 32


def test_truncate_empties_the_file():
    pager = PagedFile(page_size=32)
    pager.write_page(0, b"a")
    pager.truncate()
    assert len(pager) == 0
    with pytest.raises(ConfigurationError):
        pager.read_page(0)


def test_file_backed_round_trip(tmp_path):
    path = str(tmp_path / "snapshot.db")
    pager = PagedFile(page_size=64, path=path)
    pager.write_page(0, b"page zero")
    pager.write_page(2, b"page two")
    assert pager.read_page(0).startswith(b"page zero")
    assert pager.read_page(2).startswith(b"page two")
    # A new pager over the same path sees the persisted pages.
    reopened = PagedFile(page_size=64, path=path)
    assert len(reopened) == 3
    assert reopened.read_page(2).startswith(b"page two")


def test_file_backed_truncate(tmp_path):
    path = str(tmp_path / "snapshot.db")
    pager = PagedFile(page_size=64, path=path)
    pager.write_page(0, b"data")
    pager.truncate()
    assert len(PagedFile(page_size=64, path=path)) == 0


def test_a_file_backed_pass_opens_one_handle_and_closes_it(tmp_path,
                                                           monkeypatch):
    """``write_pages`` and ``read_all`` each open the file once for all
    their pages and close it on return, also when a page is refused part
    way through the pass."""
    import builtins

    handles = []
    real_open = builtins.open

    def recording_open(*args, **kwargs):
        handle = real_open(*args, **kwargs)
        handles.append(handle)
        return handle

    monkeypatch.setattr(builtins, "open", recording_open)
    pager = PagedFile(page_size=32, path=str(tmp_path / "pages.db"))
    pager.write_pages([(number, bytes([number])) for number in range(8)])
    assert len(handles) == 1
    assert [page[0] for page in pager.read_all()] == list(range(8))
    assert len(handles) == 2
    with pytest.raises(CapacityError):
        pager.write_pages([(8, b"ok"), (9, b"x" * 33)])
    assert len(handles) == 3
    assert all(handle.closed for handle in handles)
    assert len(pager) == 9 and pager.stats.writes == 9

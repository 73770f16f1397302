"""Unit tests for the page file."""

import pytest

from repro.errors import PageNotFoundError
from repro.sim import DiskModel, SimDisk, VirtualClock
from repro.storage import PageFile


@pytest.fixture
def pagefile():
    clock = VirtualClock()
    disk = SimDisk(DiskModel.hdd(), clock)
    return PageFile(disk, page_size=4096)


def test_write_then_read_roundtrips(pagefile):
    pagefile.write_page(3, ("payload",))
    assert pagefile.read_page(3) == ("payload",)


def test_missing_page_raises(pagefile):
    with pytest.raises(PageNotFoundError):
        pagefile.read_page(42)


def test_read_charges_one_page_of_io(pagefile):
    pagefile.write_page(0, "x")
    before = pagefile.disk.stats.bytes_read
    pagefile.read_page(0)
    assert pagefile.disk.stats.bytes_read - before == 4096


def test_page_address_is_id_times_size(pagefile):
    pagefile.write_page(0, "a")
    pagefile.write_page(1, "b")  # physically adjacent
    assert pagefile.disk.stats.seeks == 1  # second write was sequential


def test_write_run_is_one_transfer(pagefile):
    before = pagefile.disk.stats.seeks
    pagefile.write_run(10, ["a", "b", "c", "d"])
    assert pagefile.disk.stats.seeks == before + 1
    assert pagefile.read_page(12) == "c"


def test_read_run_returns_payloads_in_order(pagefile):
    pagefile.write_run(5, ["a", "b", "c"])
    seeks_before = pagefile.disk.stats.seeks
    assert pagefile.read_run(5, 3) == ["a", "b", "c"]
    assert pagefile.disk.stats.seeks == seeks_before + 1


def test_read_run_missing_page_raises(pagefile):
    pagefile.write_page(0, "a")
    with pytest.raises(PageNotFoundError):
        pagefile.read_run(0, 2)


def test_empty_run_is_free(pagefile):
    before = pagefile.disk.stats.busy_seconds
    assert pagefile.read_run(0, 0) == []
    pagefile.write_run(0, [])
    assert pagefile.disk.stats.busy_seconds == before


def test_free_run_removes_without_io(pagefile):
    pagefile.write_run(0, ["a", "b", "c"])
    pagefile.write_page(5, "f")
    busy = pagefile.disk.stats.busy_seconds
    pagefile.free_run(1, 5)  # pages 3 and 4 were never written
    assert 0 in pagefile and 5 not in pagefile
    assert 1 not in pagefile and 2 not in pagefile
    assert pagefile.disk.stats.busy_seconds == busy


def test_peek_does_not_charge_io(pagefile):
    pagefile.write_page(0, "a")
    busy = pagefile.disk.stats.busy_seconds
    assert pagefile.peek(0) == "a"
    assert pagefile.disk.stats.busy_seconds == busy


def test_invalid_page_size_rejected():
    clock = VirtualClock()
    disk = SimDisk(DiskModel.hdd(), clock)
    with pytest.raises(ValueError):
        PageFile(disk, page_size=0)


def test_len_counts_pages(pagefile):
    pagefile.write_page(0, "a")
    pagefile.write_page(9, "b")
    assert len(pagefile) == 2

"""Unit tests for the simulated device cost model."""

import random

import pytest

from repro.sim import DiskModel, SimDisk, VirtualClock


@pytest.fixture
def hdd():
    clock = VirtualClock()
    return SimDisk(DiskModel.hdd(), clock), clock


def test_first_access_is_a_seek(hdd):
    disk, clock = hdd
    disk.read(0, 4096)
    assert disk.stats.seeks == 1
    assert clock.now >= disk.model.read_access_seconds


def test_sequential_read_charges_no_seek(hdd):
    disk, _ = hdd
    disk.read(0, 4096)
    disk.read(4096, 4096)
    assert disk.stats.seeks == 1  # only the first access seeks


def test_non_sequential_read_seeks(hdd):
    disk, _ = hdd
    disk.read(0, 4096)
    disk.read(1 << 20, 4096)
    assert disk.stats.seeks == 2


def test_transfer_time_matches_bandwidth():
    clock = VirtualClock()
    model = DiskModel.hdd()
    disk = SimDisk(model, clock)
    nbytes = 10 * 1024 * 1024
    disk.read(0, nbytes)
    expected = model.read_access_seconds + nbytes / model.seq_read_bandwidth
    assert clock.now == pytest.approx(expected)


def test_write_then_read_at_same_offset_seeks(hdd):
    # The head moved past the written range; re-reading it repositions.
    disk, _ = hdd
    disk.write(0, 4096)
    disk.read(0, 4096)
    assert disk.stats.seeks == 2


def test_interleaved_read_write_streams_seek(hdd):
    disk, _ = hdd
    disk.read(0, 4096)
    disk.write(1 << 20, 4096)
    disk.read(4096, 4096)
    assert disk.stats.seeks == 3


def test_zero_byte_access_is_free(hdd):
    disk, clock = hdd
    before = clock.now
    assert disk.read(0, 0) == 0.0
    assert clock.now == before
    assert disk.stats.read_ops == 0


def test_negative_access_rejected(hdd):
    disk, _ = hdd
    with pytest.raises(ValueError):
        disk.read(-1, 10)
    with pytest.raises(ValueError):
        disk.write(0, -10)


def test_counters_track_bytes(hdd):
    disk, _ = hdd
    disk.read(0, 100)
    disk.write(200, 300)
    assert disk.stats.bytes_read == 100
    assert disk.stats.bytes_written == 300
    assert disk.stats.read_ops == 1
    assert disk.stats.write_ops == 1


def test_ssd_random_writes_cost_more_than_reads():
    model = DiskModel.ssd()
    assert model.write_access_seconds > model.read_access_seconds


def test_hdd_access_dwarfs_small_transfer():
    # Section 2.1: "the seek cost generally dwarfs the transfer cost".
    model = DiskModel.hdd()
    transfer = 1000 / model.seq_read_bandwidth
    assert model.read_access_seconds > 100 * transfer


def test_shared_clock_across_devices():
    clock = VirtualClock()
    a = SimDisk(DiskModel.hdd(), clock, name="a")
    b = SimDisk(DiskModel.hdd(), clock, name="b")
    a.read(0, 4096)
    t = clock.now
    b.read(0, 4096)
    assert clock.now > t


def test_single_hdd_matches_paper_write_amp_arithmetic():
    # Section 2.2: two seeks for a 1000-byte record vs 10us sequential
    # gives a write amplification near 1000.
    model = DiskModel.single_hdd()
    two_seeks = 2 * model.write_access_seconds
    sequential = 1000 / model.seq_write_bandwidth
    assert two_seeks / sequential == pytest.approx(1000, rel=0.1)


def test_a_striped_members_booking_matches_a_plain_access():
    """``_access`` books an access inline at the clock's time;
    ``_service_at`` books a striped array member's sub-access the same
    way at a given issue time: the same end, wait, seek, counters and
    traced events.  (An array is a data device, which nothing runs
    behind the foreground on, so its members book foreground accesses
    only.)"""
    model = DiskModel.hdd()
    clock = VirtualClock()
    plain = SimDisk(model, clock)
    member = SimDisk(model, VirtualClock())
    plain.start_trace()
    member.start_trace()
    rng = random.Random(5)
    for _ in range(400):
        clock.advance(rng.choice([0.0, 1e-4, 5e-3]))
        is_write = rng.random() < 0.5
        offset = rng.choice([max(0, plain._head), 4096 * rng.randrange(4096)])
        nbytes = 4096 * rng.randint(1, 64)
        issue_at = clock.now
        seeks = plain.stats.seeks
        access = plain.write if is_write else plain.read
        latency = access(offset, nbytes)
        cost = (
            (model.write_access_seconds, model.seq_write_bandwidth)
            if is_write
            else (model.read_access_seconds, model.seq_read_bandwidth)
        )
        end, _wait, seeked = member._service_at(
            issue_at, offset, nbytes, *cost, is_write
        )
        assert clock.now == end and latency == end - issue_at
        assert plain.stats.seeks - seeks == seeked
        assert plain.busy_until == member.busy_until
    assert plain.stats == member.stats
    assert plain.stop_trace() == member.stop_trace()  # waits included

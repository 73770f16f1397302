"""Unit tests for the buffer manager (CLOCK and LRU eviction)."""

import pytest

from repro.sim import DiskModel, SimDisk, VirtualClock
from repro.storage import BufferManager, EvictionPolicy, PageFile


def make_buffer(capacity=4, policy=EvictionPolicy.CLOCK):
    clock = VirtualClock()
    disk = SimDisk(DiskModel.hdd(), clock)
    pagefile = PageFile(disk, page_size=4096)
    return BufferManager(pagefile, capacity, policy), pagefile


def test_miss_reads_from_device():
    buffer, pagefile = make_buffer()
    pagefile.write_page(0, "a")
    assert buffer.get(0) == "a"
    assert buffer.misses == 1


def test_hit_is_free():
    buffer, pagefile = make_buffer()
    pagefile.write_page(0, "a")
    buffer.get(0)
    busy = pagefile.disk.stats.busy_seconds
    assert buffer.get(0) == "a"
    assert buffer.hits == 1
    assert pagefile.disk.stats.busy_seconds == busy


def test_capacity_is_enforced():
    buffer, pagefile = make_buffer(capacity=2)
    for i in range(5):
        pagefile.write_page(i, f"p{i}")
        buffer.get(i)
    assert len(buffer) <= 2
    assert buffer.evictions == 3


def test_dirty_eviction_writes_back():
    buffer, pagefile = make_buffer(capacity=1)
    buffer.put(0, "dirty")
    pagefile.write_page(1, "other")
    buffer.get(1)  # evicts page 0
    assert buffer.dirty_writebacks == 1
    assert pagefile.peek(0) == "dirty"


def test_clean_eviction_skips_writeback():
    buffer, pagefile = make_buffer(capacity=1)
    pagefile.write_page(0, "a")
    pagefile.write_page(1, "b")
    buffer.get(0)
    buffer.get(1)
    assert buffer.dirty_writebacks == 0


def test_put_overwrites_resident_payload():
    buffer, pagefile = make_buffer()
    buffer.put(0, "v1")
    buffer.put(0, "v2")
    assert buffer.get(0) == "v2"
    assert len(buffer) == 1


def test_flush_page_clears_dirty_bit():
    buffer, pagefile = make_buffer()
    buffer.put(0, "dirty")
    buffer.flush_page(0)
    assert pagefile.peek(0) == "dirty"
    buffer.flush_page(0)  # second flush is a no-op
    assert buffer.dirty_writebacks == 1


def test_flush_all_writes_in_page_order():
    buffer, pagefile = make_buffer(capacity=8)
    for page_id in (5, 1, 3):
        buffer.put(page_id, f"p{page_id}")
    written = buffer.flush_all()
    assert written == 3
    assert pagefile.peek(1) == "p1"
    assert pagefile.peek(5) == "p5"


def test_clock_second_chance():
    buffer, pagefile = make_buffer(capacity=3, policy=EvictionPolicy.CLOCK)
    for i in range(3):
        pagefile.write_page(i, f"p{i}")
        buffer.get(i)
    pagefile.write_page(3, "p3")
    buffer.get(3)  # sweep clears all bits, evicts page 0
    assert 0 not in buffer
    buffer.get(1)  # second chance: re-set page 1's reference bit
    pagefile.write_page(4, "p4")
    buffer.get(4)  # victim must be an unreferenced frame, not page 1
    assert 1 in buffer


def test_lru_evicts_least_recent():
    buffer, pagefile = make_buffer(capacity=2, policy=EvictionPolicy.LRU)
    pagefile.write_page(0, "p0")
    pagefile.write_page(1, "p1")
    pagefile.write_page(2, "p2")
    buffer.get(0)
    buffer.get(1)
    buffer.get(0)  # 0 is now most recent
    buffer.get(2)  # evicts 1
    assert 0 in buffer
    assert 1 not in buffer


def test_invalidate_drops_without_writeback():
    buffer, pagefile = make_buffer()
    buffer.put(0, "dirty")
    buffer.invalidate(0)
    assert 0 not in buffer
    assert 0 not in pagefile
    assert buffer.dirty_writebacks == 0


def test_drop_all_simulates_crash():
    buffer, pagefile = make_buffer()
    buffer.put(0, "lost")
    buffer.drop_all()
    assert len(buffer) == 0
    assert 0 not in pagefile


def test_hit_rate():
    buffer, pagefile = make_buffer()
    pagefile.write_page(0, "a")
    buffer.get(0)
    buffer.get(0)
    buffer.get(0)
    assert buffer.hit_rate == pytest.approx(2 / 3)


def test_invalid_capacity_rejected():
    clock = VirtualClock()
    pagefile = PageFile(SimDisk(DiskModel.hdd(), clock))
    with pytest.raises(ValueError):
        BufferManager(pagefile, 0)


def test_flush_nonresident_page_raises():
    buffer, _ = make_buffer()
    from repro.errors import StorageError

    with pytest.raises(StorageError):
        buffer.flush_page(99)


# ---------------------------------------------------------------------------
# the CLOCK ring holds a page at most once
# ---------------------------------------------------------------------------


def test_reinstalled_page_gets_a_whole_revolution():
    """A page invalidated and installed again before the hand reached
    its old slot used to sit in the ring twice: the sweep cleared its
    reference bit at the stale slot and evicted it at the new one, ahead
    of every page older than it."""
    buffer, pagefile = make_buffer(capacity=3)
    for i in range(4):
        pagefile.write_page(i, f"p{i}")
    for i in range(3):
        buffer.get(i)
    buffer.invalidate(1)
    buffer.get(1)  # back in, now the newest install
    buffer.get(3)  # one sweep: clears 0, 2, 1, wraps, evicts the oldest
    assert 0 not in buffer
    assert 1 in buffer and 2 in buffer and 3 in buffer


def test_ring_never_outgrows_the_pool():
    buffer, pagefile = make_buffer(capacity=3)
    for i in range(3):
        pagefile.write_page(i, f"p{i}")

    def ring():
        frame, ids = buffer._ring.next, []
        while frame is not buffer._ring:
            ids.append(frame.page_id)
            frame = frame.next
        return ids

    for _ in range(50):  # never full, so the hand never sweeps
        for i in range(3):
            buffer.get(i)
        assert ring() == [0, 1, 2]
        for i in range(3):
            buffer.invalidate(i)
        assert ring() == []


def test_invalidating_the_page_under_the_hand_moves_the_hand_on():
    buffer, pagefile = make_buffer(capacity=3)
    for i in range(6):
        pagefile.write_page(i, f"p{i}")
    for i in range(4):
        buffer.get(i)  # evicts 0; the hand rests on 1, every bit cleared
    buffer.invalidate(1)
    buffer.get(4)  # a frame is free: no eviction
    assert buffer.evictions == 1
    buffer.get(5)  # the hand is on 2 (unreferenced): evicted at once
    assert 2 not in buffer and 3 in buffer and 4 in buffer


# ---------------------------------------------------------------------------
# offered pages: admitted on the second miss
# ---------------------------------------------------------------------------


def full_pool(capacity=3, policy=EvictionPolicy.CLOCK):
    buffer, pagefile = make_buffer(capacity, policy)
    for i in range(capacity):
        pagefile.write_page(i, f"p{i}")
        buffer.get(i)
    return buffer


def test_offer_installs_while_a_frame_is_free():
    buffer, _ = make_buffer(capacity=3)
    buffer.offer(10, ["a", "b"], 2)
    assert buffer.lookup_block(10, 2) == "a"
    assert (buffer.offered, buffer.deferred, buffer.evictions) == (2, 0, 0)


@pytest.mark.parametrize("policy", list(EvictionPolicy))
def test_full_pool_admits_on_the_second_miss(policy):
    buffer = full_pool(policy=policy)
    buffer.offer(10, ["a", "b", "readahead"], 2)
    assert 10 not in buffer and 11 not in buffer
    assert (buffer.offered, buffer.deferred, buffer.evictions) == (2, 2, 0)
    buffer.offer(10, ["a", "b", "readahead"], 2)
    assert buffer.lookup_block(10, 2) == "a"
    assert 12 not in buffer  # only the first `npages` are on offer
    assert (buffer.offered, buffer.deferred, buffer.evictions) == (4, 2, 2)


def test_lookup_block_wants_every_page_and_never_reads():
    buffer, pagefile = make_buffer(capacity=4)
    pagefile.write_page(0, "head")
    pagefile.write_page(1, "tail")
    buffer.get(0)
    reads = pagefile.disk.stats.read_ops
    assert buffer.lookup_block(0, 2) is None  # page 1 is missing
    assert (buffer.hits, buffer.misses) == (0, 3)
    buffer.get(1)
    assert buffer.lookup_block(0, 2) == "head"
    assert (buffer.hits, buffer.misses) == (2, 4)
    assert pagefile.disk.stats.read_ops == reads + 1  # the get, nothing else


def test_offer_leaves_resident_pages_alone():
    buffer, pagefile = make_buffer(capacity=4)
    buffer.put(0, "dirty")
    buffer.offer(0, ["stale", "tail"], 2)
    assert buffer.get(0) == "dirty"
    assert buffer.lookup_block(0, 2) == "dirty"  # page 1 came in beside it


def test_ghost_list_is_bounded_by_the_pool_size():
    buffer = full_pool()
    for page_id in range(10, 14):  # four pages through a three-page list
        buffer.offer(page_id, ["x"], 1)
    assert list(buffer._ghost) == [11, 12, 13]
    buffer.offer(10, ["x"], 1)  # forgotten: a first miss again
    assert 10 not in buffer
    assert buffer.ghost_bytes == 3 * 8


def test_ghost_list_counts_pages_not_blocks():
    buffer = full_pool()
    buffer.offer(10, ["a", "b"], 2)
    buffer.offer(20, ["c", "d"], 2)  # 4 pages > 3: the older block goes
    assert list(buffer._ghost) == [20]
    buffer.offer(10, ["a", "b"], 2)
    assert 10 not in buffer
    buffer.offer(10, ["a", "b"], 2)
    assert buffer.lookup_block(10, 2) == "a"
    assert buffer._ghost_pages == sum(buffer._ghost.values()) == 0


@pytest.mark.parametrize("forget", ["invalidate", "drop_all"])
def test_forgetting_a_page_clears_its_ghost_entry(forget):
    """A freed page id is handed out again by the region allocator: the
    first miss on the new page must not count as the old one's second."""
    buffer = full_pool()
    buffer.offer(10, ["old"], 1)
    if forget == "invalidate":
        buffer.invalidate(10)
    else:
        buffer.drop_all()
        for i in range(3):
            buffer.get(i)
    buffer.offer(10, ["new"], 1)
    assert 10 not in buffer
    buffer.offer(10, ["new"], 1)
    assert buffer.lookup_block(10, 1) == "new"

"""I/O-pattern assertions via device tracing.

The device trace lets tests assert *how* an engine performs I/O — the
claims the whole paper is built on — not just how much.
"""

from repro.core import BLSM, BLSMOptions
from repro.sim import DiskModel, SimDisk, VirtualClock


def test_trace_records_events():
    clock = VirtualClock()
    disk = SimDisk(DiskModel.hdd(), clock)
    disk.start_trace()
    disk.write(0, 4096)
    disk.read(0, 4096)
    events = disk.stop_trace()
    assert len(events) == 2
    assert events[0].kind == "write"
    assert events[1].kind == "read"
    assert events[0].seek is True  # first access positions the head
    assert events[1].seek is True  # read after write repositions
    assert events[0].service > 0
    assert events[1].time >= events[0].time


def test_trace_off_by_default_and_after_stop():
    clock = VirtualClock()
    disk = SimDisk(DiskModel.hdd(), clock)
    disk.write(0, 10)
    disk.start_trace()
    disk.write(10, 10)
    assert len(disk.stop_trace()) == 1
    disk.write(20, 10)
    assert disk.stop_trace() == []


def test_merge_output_is_written_sequentially():
    # The defining property of log-structured writes: merge output goes
    # to disk as long sequential runs, not scattered pages.
    tree = BLSM(BLSMOptions(c0_bytes=32 * 1024, buffer_pool_pages=32))
    tree.stasis.data_disk.start_trace()
    for i in range(1500):
        tree.put(b"key%05d" % i, bytes(64))
    tree.drain()
    events = tree.stasis.data_disk.stop_trace()
    writes = [e for e in events if e.kind == "write"]
    assert writes, "the drain must have written a component"
    seeking_writes = sum(1 for e in writes if e.seek)
    # A handful of repositionings (extent starts), not one per page.
    assert seeking_writes <= max(4, len(writes) // 4)
    written = sum(e.nbytes for e in writes)
    assert written >= 1500 * 80 * 0.8  # bulk of the data moved


def test_blind_writes_never_read_the_data_disk():
    tree = BLSM(BLSMOptions(c0_bytes=1 << 20, buffer_pool_pages=8))
    tree.stasis.data_disk.start_trace()
    for i in range(500):
        tree.put(b"key%05d" % i, bytes(64))
    events = tree.stasis.data_disk.stop_trace()
    assert all(e.kind != "read" for e in events)


def test_uncached_point_read_is_one_seek_one_block():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024, buffer_pool_pages=2))
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(64))
    tree.compact()
    tree.stasis.data_disk.start_trace()
    assert tree.get(b"key01000") is not None
    events = tree.stasis.data_disk.stop_trace()
    reads = [e for e in events if e.kind == "read"]
    assert 1 <= len(reads) <= 2  # the block (plus a possible spill page)
    assert sum(1 for e in reads if e.seek) == 1


def test_log_appends_batch_into_few_forces():
    # Size-triggered batching turns thousands of appends into a handful
    # of large forces.  The appends stream on at the log's one tail,
    # after the tree's first manifest record; the flush's force is a
    # durability barrier and pays one head positioning (SimDisk.sync_barrier).
    tree = BLSM(BLSMOptions(c0_bytes=1 << 20))
    tree.stasis.log_disk.start_trace()
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(300))
    tree.flush_log()
    events = tree.stasis.log_disk.stop_trace()
    writes = [e for e in events if e.kind == "write"]
    assert writes
    assert len(writes) <= 4  # 2000 appends coalesced into a few forces
    assert [e.seek for e in writes] == [False] * (len(writes) - 1) + [True]

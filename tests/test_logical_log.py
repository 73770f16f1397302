"""Unit tests for the logical log and its durability modes."""

import copy
import pickle

import pytest

from repro.sim import DiskModel, SimDisk, VirtualClock
from repro.storage import DurabilityMode, LogicalLog, LogicalRecord


def make_log(mode, group_bytes=512 * 1024):
    clock = VirtualClock()
    disk = SimDisk(DiskModel.hdd(), clock)
    return LogicalLog(disk, mode, group_commit_bytes=group_bytes)


def test_logical_record_is_an_immutable_tuple_with_named_fields():
    record = LogicalRecord(7, "put", b"key", b"value", 99)
    assert isinstance(record, tuple)
    assert (record.seqno, record.op, record.key, record.value) == (
        7, "put", b"key", b"value"
    )
    assert record.checksum == 99
    assert record.nbytes == 24 + 3 + 5
    assert LogicalRecord(8, "delete", b"key", None).nbytes == 24 + 3
    with pytest.raises(AttributeError):
        record.seqno = 8
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == (
        "LogicalRecord(seqno=7, op='put', key=b'key', value=b'value', "
        "checksum=99)"
    )


def test_sync_mode_forces_every_write():
    log = make_log(DurabilityMode.SYNC)
    log.log(0, "put", b"k", b"v")
    assert log.durable_records == 1


def test_async_mode_groups_commits():
    log = make_log(DurabilityMode.ASYNC, group_bytes=200)
    log.log(0, "put", b"k0", b"v" * 50)
    assert log.durable_records == 0  # below the group threshold
    log.log(1, "put", b"k1", b"v" * 150)
    assert log.durable_records == 2  # threshold crossed, both flushed


def test_none_mode_never_logs():
    log = make_log(DurabilityMode.NONE)
    assert log.log(0, "put", b"k", b"v") == 0.0
    log.force()
    assert log.durable_records == 0
    assert log.disk.stats.bytes_written == 0


def test_sync_forces_pay_one_barrier_each():
    # A force is a durability barrier: every forced write repositions
    # (SimDisk.sync_barrier), so per-write syncing pays one access per
    # write — the cost group commit exists to amortize.
    log = make_log(DurabilityMode.SYNC)
    for i in range(5):
        log.log(i, "put", b"k%d" % i, b"v")
    assert log.forces == 5
    assert log.disk.stats.seeks == 5


def test_async_batches_amortize_the_barrier():
    # Unsynced batching pays a single barrier for the whole buffer.
    log = make_log(DurabilityMode.ASYNC)
    for i in range(5):
        log.log(i, "put", b"k%d" % i, b"v")
    log.force()
    assert log.forces == 1
    assert log.disk.stats.seeks == 1


def test_crash_loses_unforced_records():
    log = make_log(DurabilityMode.ASYNC)
    log.log(0, "put", b"k", b"v")
    log.crash()
    assert log.durable_records == 0
    assert list(log.replay()) == []


def test_replay_yields_seqno_order():
    log = make_log(DurabilityMode.SYNC)
    log.log(2, "put", b"b", b"2")
    log.log(1, "put", b"a", b"1")
    seqnos = [record.seqno for record in log.replay()]
    assert seqnos == [1, 2]


def test_truncate_drops_covered_records():
    log = make_log(DurabilityMode.SYNC)
    for i in range(5):
        log.log(i, "put", b"k%d" % i, b"v")
    log.truncate(3)
    assert log.truncated_below == 3
    seqnos = [record.seqno for record in log.replay()]
    assert seqnos == [3, 4]


def test_truncate_never_moves_backwards():
    log = make_log(DurabilityMode.SYNC)
    log.truncate(10)
    log.truncate(5)
    assert log.truncated_below == 10


def test_delete_records_have_no_value():
    log = make_log(DurabilityMode.SYNC)
    log.log(0, "delete", b"k", None)
    record = next(iter(log.replay()))
    assert record.value is None
    assert record.op == "delete"


def test_retain_ranges_keeps_exact_coverage():
    log = make_log(DurabilityMode.SYNC)
    for seqno, key in enumerate([b"a", b"b", b"a", b"c", b"a"]):
        log.log(seqno, "put", key, b"v")
    # Resident: a folded record for 'a' covering [2, 4], nothing else.
    log.retain_ranges({b"a": (2, 4)})
    kept = [(r.key, r.seqno) for r in log.replay()]
    assert kept == [(b"a", 2), (b"a", 4)]


def test_retain_ranges_empty_drops_everything():
    log = make_log(DurabilityMode.SYNC)
    log.log(0, "put", b"a", b"v")
    log.retain_ranges({})
    assert list(log.replay()) == []
    assert log.truncated_below >= 1


def test_retain_ranges_charges_checkpoint_write():
    log = make_log(DurabilityMode.SYNC)
    log.log(0, "put", b"a", b"v")
    written = log.disk.stats.bytes_written
    log.retain_ranges({b"a": (0, 0)})
    assert log.disk.stats.bytes_written > written


def test_retain_ranges_noop_in_none_mode():
    log = make_log(DurabilityMode.NONE)
    assert log.retain_ranges({b"a": (0, 5)}) == 0.0
    assert log.disk.stats.bytes_written == 0


def test_retain_ranges_truncates_below_the_lowest_kept_seqno():
    log = make_log(DurabilityMode.SYNC)
    for seqno, key in enumerate([b"a", b"b", b"c", b"b", b"d"]):
        log.log(seqno, "put", key, b"v")
    log.retain_ranges({b"b": (3, 3), b"d": (4, 4)})
    assert [r.seqno for r in log.replay()] == [3, 4]
    assert log.truncated_below == 3
    # Nothing kept: the floor passes every logged write, pending included.
    log = make_log(DurabilityMode.ASYNC)
    log.log(0, "put", b"a", b"v")
    log.force()
    log.log(5, "put", b"b", b"v")
    log.retain_ranges({})
    assert log.truncated_below == 6


def test_retain_ranges_leaves_pending_alone():
    log = make_log(DurabilityMode.ASYNC)
    log.log(0, "put", b"a", b"v")  # pending, not yet durable
    log.retain_ranges({})
    log.force()
    assert [r.seqno for r in log.replay()] == [0]


def test_replay_charges_read_io():
    log = make_log(DurabilityMode.SYNC)
    log.log(0, "put", b"k", b"v" * 100)
    before = log.disk.stats.bytes_read
    list(log.replay())
    assert log.disk.stats.bytes_read > before

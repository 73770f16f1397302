"""Unit tests for the logical log and its durability modes."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BLSM, BLSMOptions
from repro.sim import DiskModel, SimDisk, VirtualClock
from repro.errors import CrashPoint
from repro.shard import (
    MigrationController,
    MigrationThrottle,
    RangePartitioner,
    ShardedEngine,
    crash_and_recover,
    plan_split,
)
from repro.storage import DurabilityMode, LogicalLog, LogicalRecord
from tests.test_wal import _TornDisk


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


def test_replay_after_a_tear_reads_only_the_persisted_bytes():
    disk = _TornDisk(DiskModel.hdd(), VirtualClock())
    log = LogicalLog(disk, DurabilityMode.ASYNC)
    value = bytes(100 - 24 - 2)  # 100-byte records
    for seqno in range(3):
        log.log(seqno, "put", b"k%d" % seqno, value)
    log.force()
    for seqno in range(3, 6):
        log.log(seqno, "put", b"k%d" % seqno, value)
    disk.tear_fraction = 0.5  # 150 of 300 bytes: seqno 3 and half of 4
    with pytest.raises(CrashPoint):
        log.force()
    log.crash()
    before = disk.stats.bytes_read
    assert [record.seqno for record in log.replay()] == [0, 1, 2, 3]
    assert disk.stats.bytes_read - before == 300 + 150
    assert log.torn_records_dropped == 1


_PUT = st.tuples(st.just("put"), st.integers(0, 40), st.integers(1, 400))
_TREE_OPS = st.lists(
    st.one_of(
        _PUT,
        _PUT,
        _PUT,
        st.tuples(st.just("delete"), st.integers(0, 40)),
        st.tuples(st.just("merge"), st.integers(1, 64 * 1024)),
        st.tuples(st.just("force")),
        st.tuples(st.just("crash")),
    ),
    min_size=40,
    max_size=160,
)


def _assert_replay_reads_head_to_tail(disk, file, recover):
    """Return ``recover()``, which must read ``file`` once, from its
    lowest live placement to its tail (nothing if no record is live)."""
    live = list(file.placed)
    disk.start_trace()
    recovered = recover()
    reads = [(e.offset, e.nbytes) for e in disk.stop_trace()]
    if live:
        head = min(live)
        assert reads == [(head, file.tail - head)]
    else:
        assert reads == []
    return recovered


def _journal_run(ops):
    """``ops`` on a two-shard fleet whose merges are migration steps: a
    crash recovers the fleet, replaying its migration journal."""
    options = BLSMOptions(
        c0_bytes=8 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.SYNC,
        observability=False,
    )
    engine = ShardedEngine(
        options, shards=2, partitioner=RangePartitioner([b"k020"])
    )
    MigrationController(engine, chunk_keys=4, throttle=MigrationThrottle(1.0))
    for op in ops + [("crash",)]:
        kind = op[0]
        controller = engine.migration
        if kind == "put":
            engine.put(b"k%03d" % op[1], bytes(op[2]))
        elif kind == "delete":
            engine.delete(b"k%03d" % op[1])
        elif kind == "merge" and controller.active:
            controller.step()
        elif kind == "merge":
            plan = plan_split(engine, op[1] % 2)
            if plan is not None:
                controller.start(plan)
        elif kind == "force":
            engine.flush()
        elif kind == "crash":
            journal = controller.journal
            engine = _assert_replay_reads_head_to_tail(
                journal.disk, journal.file, lambda: crash_and_recover(engine)
            )


@pytest.mark.parametrize(
    "mode",
    [
        DurabilityMode.SYNC,
        DurabilityMode.ASYNC,
        DurabilityMode.GROUP,
        "manifest-wal",
        "migration-journal",
    ],
)
@settings(max_examples=30, deadline=None)
@given(ops=_TREE_OPS)
def test_replay_reads_the_log_from_its_head_to_its_tail(mode, ops):
    """Retention keeps what C0 holds, scattered by snowshoveling; replay
    reads every byte from the lowest live placement to the tail.  So does
    the replay of the manifest WAL (truncated below each base manifest)
    and of the migration journal, which are the same log file."""
    if mode == "migration-journal":
        _journal_run(ops)
        return
    options = BLSMOptions(
        c0_bytes=8 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.ASYNC if mode == "manifest-wal" else mode,
        observability=False,
    )
    tree = BLSM(options)
    stasis = tree.stasis
    log = stasis.wal if mode == "manifest-wal" else stasis.logical_log
    replay = log.records if mode == "manifest-wal" else log.replay
    for op in ops + [("crash",)]:
        kind = op[0]
        if kind == "put":
            tree.put(b"k%03d" % op[1], bytes(op[2]))
        elif kind == "delete":
            tree.delete(b"k%03d" % op[1])
        elif kind == "merge":
            tree.step_m01(op[1])
        elif kind == "force":
            tree.flush_log()
        else:
            stasis.crash()
            _assert_replay_reads_head_to_tail(
                stasis.log_disk, log.file, lambda: list(replay())
            )
            tree = BLSM.recover(stasis, options)

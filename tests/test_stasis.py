"""Unit tests for the Stasis storage facade."""

import pytest

from repro.core.kernel import replay_log
from repro.errors import CorruptionError, RecoveryError
from repro.faults.plan import FaultPlan, FaultRule
from repro.memtable import MemTable
from repro.sim import DiskModel
from repro.storage import DurabilityMode, Stasis


def test_default_construction():
    stasis = Stasis()
    assert stasis.page_size == 4096
    assert stasis.clock.now == 0.0


def test_manifest_commit_and_recovery():
    stasis = Stasis()
    stasis.commit_manifest({"version": 1})
    stasis.commit_manifest({"version": 2})
    assert stasis.recover_manifest() == {"version": 2}


def test_recover_without_manifest_raises():
    stasis = Stasis()
    with pytest.raises(RecoveryError):
        stasis.recover_manifest()


def test_crash_preserves_committed_manifest():
    stasis = Stasis()
    stasis.commit_manifest({"version": 1})
    stasis.crash()
    assert stasis.recover_manifest() == {"version": 1}


def test_crash_drops_buffer_pool():
    stasis = Stasis()
    stasis.buffer.put(0, "dirty")
    stasis.crash()
    assert 0 not in stasis.buffer
    assert 0 not in stasis.pagefile


def test_checkpoint_truncates_wal():
    # A manifest that names no component is its own edit: each commit
    # writes a base and truncates the WAL below it.
    stasis = Stasis()
    for version in range(10):
        stasis.commit_manifest({"version": version})
    records = list(stasis.wal.records())
    assert len(records) == 1
    assert records[0].payload == {"version": 9}
    assert stasis.recover_manifest() == {"version": 9}


def test_wal_stays_bounded_across_many_merges():
    # Without base rewrites, every merge's manifest record would
    # accumulate in the WAL forever; a base follows once the edits
    # since the last one reach its size, so recovery replay stays
    # bounded.
    import random

    from repro.core import BLSM, BLSMOptions

    tree = BLSM(BLSMOptions(c0_bytes=8 * 1024, buffer_pool_pages=16))
    rng = random.Random(1)
    for i in range(6000):
        tree.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    durable_manifests = sum(1 for _ in tree.stasis.wal.records())
    # Dozens of merges ran; the WAL holds only the records since the
    # last base, not one per merge since the beginning.
    assert durable_manifests < 40


def test_recover_helper_replays_logical_log():
    stasis = Stasis(durability=DurabilityMode.SYNC)
    stasis.commit_manifest({"version": 1})
    stasis.logical_log.log(0, "put", b"a", b"1")
    stasis.logical_log.log(1, "put", b"b", b"2")
    stasis.crash()
    memtable = MemTable(1 << 20)
    assert stasis.recover_manifest() == {"version": 1}
    assert replay_log(stasis, memtable, 0) == 2
    assert [(r.key, r.value, r.seqno) for r in memtable] == [
        (b"a", b"1", 0),
        (b"b", b"2", 1),
    ]


def test_logs_live_on_separate_device():
    stasis = Stasis()
    stasis.commit_manifest({"v": 1})
    assert stasis.log_disk.stats.bytes_written > 0
    assert stasis.data_disk.stats.bytes_written == 0


def test_io_summary_keys():
    stasis = Stasis(disk_model=DiskModel.ssd())
    summary = stasis.io_summary()
    for key in ("data_seeks", "data_bytes_read", "busy_seconds"):
        assert key in summary


# ----------------------------------------------------------------------
# One log file: the manifest WAL and the logical log share one tail
# ----------------------------------------------------------------------


def test_the_wal_and_the_logical_log_are_one_file():
    stasis = Stasis(durability=DurabilityMode.GROUP)
    assert stasis.wal.file is stasis.logical_log.file
    stasis.logical_log.log(0, "put", b"a", b"1")  # staged, not forced
    stasis.commit_manifest({"version": 1})
    # The manifest's force wrote the staged write ahead of it.
    assert stasis.logical_log.durable_seqno == 0
    assert [type(r).__name__ for r in stasis.wal.file.durable] == [
        "LogicalRecord",
        "WALRecord",
    ]


def test_a_corrupt_manifest_write_leaves_a_logical_record_readable():
    plan = FaultPlan(armed=False)
    stasis = Stasis(durability=DurabilityMode.SYNC, fault_plan=plan)
    stasis.logical_log.log(0, "put", b"key", b"v" * 50)  # forced, clean
    plan.add(FaultRule(kind="corrupt", device="log", op="write", at_access=1))
    plan.arm()
    stasis.commit_manifest({"version": 1})
    plan.disarm()
    stasis.crash()
    with pytest.raises(CorruptionError):
        stasis.recover_manifest()
    assert [(r.seqno, r.key) for r in stasis.logical_log.replay()] == [
        (0, b"key")
    ]


@pytest.mark.parametrize("mode", [DurabilityMode.SYNC, DurabilityMode.GROUP])
def test_a_manifest_commit_costs_at_most_one_positioning_in_all(mode):
    # The commit and the merge's checkpoint write at the log's one tail,
    # so the next logical force's sync barrier is the only positioning.
    stasis = Stasis(durability=mode, observability=False)
    log, stats = stasis.logical_log, stasis.log_disk.stats

    def write(seqno):
        log.log(seqno, "put", b"k%d" % seqno, bytes(100))
        if mode is DurabilityMode.GROUP:
            stasis.group_commit.commit(seqno, seqno, 1)

    write(0)
    seeks = stats.seeks
    stasis.commit_manifest({"version": 1})
    log.retain_ranges({b"k0": (0, 0)})
    write(1)
    assert stats.seeks - seeks == 1


def test_a_recovery_reads_the_log_device_once():
    from repro.core import BLSM, BLSMOptions

    options = BLSMOptions(
        c0_bytes=8 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.ASYNC,
        observability=False,
    )
    tree = BLSM(options)
    for i in range(400):
        tree.put(b"key%04d" % (i * 7 % 300), bytes(60))
    tree.flush_log()
    stasis = tree.stasis
    file = stasis.logical_log.file
    assert {type(r).__name__ for r in file.durable} == {
        "LogicalRecord",
        "WALRecord",
    }
    stasis.crash()
    head, tail = file.head, file.tail
    stasis.log_disk.start_trace()
    BLSM.recover(stasis, options)
    reads = [(e.offset, e.nbytes) for e in stasis.log_disk.stop_trace()]
    assert reads == [(head, tail - head)]

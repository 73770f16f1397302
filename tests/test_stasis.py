"""Unit tests for the Stasis storage facade."""

import pytest

from repro.core.kernel import replay_log
from repro.errors import RecoveryError
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
    stasis = Stasis()
    for version in range(10):
        stasis.commit_manifest({"version": version})
    stasis.checkpoint_wal()
    records = list(stasis.wal.records())
    assert len(records) == 1
    assert records[0].payload == {"version": 9}
    assert stasis.recover_manifest() == {"version": 9}


def test_wal_stays_bounded_across_many_merges():
    # Without checkpointing, every merge's manifest record would
    # accumulate in the WAL forever; the trees checkpoint at major
    # merges so recovery replay stays bounded.
    import random

    from repro.core import BLSM, BLSMOptions

    tree = BLSM(BLSMOptions(c0_bytes=8 * 1024, buffer_pool_pages=16))
    rng = random.Random(1)
    for i in range(6000):
        tree.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    durable_manifests = sum(1 for _ in tree.stasis.wal.records())
    # Dozens of merges ran; the WAL holds only the records since the
    # last checkpoint, not one per merge since the beginning.
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

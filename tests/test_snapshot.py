"""MVCC snapshot reads: pinned views that survive switches and merges."""

import pytest

from repro.core.compaction.tree import CompactionTree
from repro.core.kernel import TreeKernel
from repro.core.options import BLSMOptions
from repro.core.partitioned import PartitionedBLSM
from repro.core.tree import BLSM
from repro.core.versions import SortedRun, VersionSet
from repro.engines import EngineConfig, build_engine
from repro.records import Record, RecordKind


def _small_tree(tree_cls=BLSM, **overrides) -> TreeKernel:
    options = BLSMOptions(
        c0_bytes=6 * 1024,
        buffer_pool_pages=16,
        compaction_policy="leveled" if tree_cls is CompactionTree else "blsm3",
        **overrides,
    )
    return tree_cls(options)


def _fill(tree: TreeKernel, count: int, tag: str = "v0") -> None:
    # Keys 0..count-1 in a scattered order: ascending inserts are one
    # endless snowshovel run, which never installs a component.
    for i in (n * 37 % count for n in range(count)):
        tree.put(b"key-%06d" % i, (f"{tag}-{i:06d}").encode() + b"x" * 40)


def _c0_turnovers(tree: TreeKernel) -> int:
    """Times C0 was switched out from under readers: rotated (frozen or
    flushed whole) or, on the partitioned tree, which only ever
    snowshovels, drained into a partition by a finished C0:C1 pass."""
    if isinstance(tree, PartitionedBLSM):
        return tree.versions.completed_frees + tree.versions.deferred_frees
    return tree.runtime.metrics.counter("memtable.rotations").value


# ---------------------------------------------------------------------------
# Snapshot isolation
# ---------------------------------------------------------------------------


# Each case below takes the tree class; under its own name it runs on
# BLSM, and test_snapshot_case_on_the_other_layouts runs the same body
# on the other two.


def test_snapshot_isolated_from_later_writes(tree_cls=BLSM):
    tree = _small_tree(tree_cls)
    _fill(tree, 20, tag="old")
    with tree.snapshot() as snap:
        tree.put(b"key-000003", b"new-000003")
        tree.delete(b"key-000007")
        tree.put(b"key-999999", b"brand-new")
        assert snap.get(b"key-000003") == b"old-000003" + b"x" * 40
        assert snap.get(b"key-000007") == b"old-000007" + b"x" * 40
        assert snap.get(b"key-999999") is None
    # The live tree sees the new world.
    assert tree.get(b"key-000003") == b"new-000003"
    assert tree.get(b"key-000007") is None
    assert tree.get(b"key-999999") == b"brand-new"
    tree.close()


def test_snapshot_multi_get_matches_point_gets(tree_cls=BLSM):
    tree = _small_tree(tree_cls)
    _fill(tree, 10)
    with tree.snapshot() as snap:
        keys = [b"key-%06d" % i for i in range(12)]
        assert snap.multi_get(keys) == [snap.get(key) for key in keys]
    tree.close()


# ---------------------------------------------------------------------------
# Paused scans across memtable switches and merge installs
# ---------------------------------------------------------------------------


def test_paused_scan_survives_memtable_switch(tree_cls=BLSM):
    # The bLSM acceptance scenario: a scan paused mid-iteration while
    # the memtable rotates (and merges install) underneath it completes
    # without a restart and yields exactly the snapshot-time rows —
    # zero blocked-read stalls, no row seen twice, no row skipped.
    # snowshovel=False uses the freeze/rotate C0 discipline — the
    # "memtable switch" the acceptance scenario names.
    tree = _small_tree(tree_cls, snowshovel=False)
    _fill(tree, 200, tag="old")
    expected = [(key, value) for key, value in tree.scan(b"")]
    before = _c0_turnovers(tree)

    rows = []
    with tree.snapshot() as snap:
        scan = snap.scan(b"")
        for _ in range(5):
            rows.append(next(scan))
        # Interleave enough writes to rotate C0 and run merges while
        # the scan is paused.
        _fill(tree, 400, tag="new")
        assert _c0_turnovers(tree) > before, "workload never switched C0"
        rows.extend(scan)
    assert rows == expected
    keys = [key for key, _ in rows]
    assert keys == sorted(set(keys)), "a restart would repeat or skip rows"
    tree.close()


def test_merge_install_defers_frees_past_live_snapshot(tree_cls=BLSM):
    # A merge retiring a component a snapshot still pins must defer the
    # free (zombie) until the last pin drops — the direct evidence that
    # the read never blocked behind the install.
    tree = _small_tree(tree_cls, snowshovel=False)
    _fill(tree, 200, tag="old")
    tree.flush_log()
    snap = tree.snapshot()
    _fill(tree, 600, tag="new")
    assert tree.versions.deferred_frees > 0, (
        "no merge retired a pinned component; workload too small"
    )
    zombies = tree.versions.zombie_count
    assert zombies > 0
    freed_before = tree.versions.completed_frees
    snap.close()
    assert tree.versions.zombie_count == 0
    assert tree.versions.completed_frees >= freed_before + zombies
    tree.close()


@pytest.mark.parametrize(
    "tree_cls", [PartitionedBLSM, CompactionTree], ids=lambda cls: cls.__name__
)
@pytest.mark.parametrize(
    "case",
    [
        test_snapshot_isolated_from_later_writes,
        test_snapshot_multi_get_matches_point_gets,
        test_paused_scan_survives_memtable_switch,
        test_merge_install_defers_frees_past_live_snapshot,
    ],
    ids=lambda case: case.__name__,
)
def test_snapshot_case_on_the_other_layouts(case, tree_cls):
    case(tree_cls)


# ---------------------------------------------------------------------------
# VersionSet mechanics
# ---------------------------------------------------------------------------


class _FakeTable:
    def __init__(self):
        self.freed = False

    def free(self):
        self.freed = True


def test_versionset_pin_refcounts():
    versions = VersionSet()
    table = _FakeTable()
    versions.pin(table)
    versions.pin(table)
    versions.retire(table)
    assert not table.freed  # two pins outstanding
    versions.unpin(table)
    assert not table.freed  # one pin left
    versions.unpin(table)
    assert table.freed
    assert versions.deferred_frees == 1
    assert versions.completed_frees == 1
    assert versions.pinned_count == versions.zombie_count == 0


def test_versionset_retire_unpinned_frees_immediately():
    versions = VersionSet()
    table = _FakeTable()
    versions.retire(table)
    assert table.freed
    assert versions.deferred_frees == 0
    assert versions.completed_frees == 1


def test_versionset_crash_drops_pins_without_freeing():
    # Recovery's orphan-extent sweep reclaims zombies; the crashed
    # process must not "free" storage it no longer owns.
    versions = VersionSet()
    table = _FakeTable()
    versions.pin(table)
    versions.retire(table)
    versions.crash()
    assert not table.freed
    assert versions.pinned_count == versions.zombie_count == 0


def test_ram_source_is_a_point_in_time_view():
    # The contract the eager copy used to provide, now without copying:
    # what a RAM source showed when the view opened is what it shows
    # forever, whatever is added to the underlying run afterwards.
    run = SortedRun(
        [
            Record(b"a", b"1", RecordKind.BASE, seqno=0),
            Record(b"b", b"2", RecordKind.BASE, seqno=1),
        ]
    )
    source = run.prefix()
    run.append(Record(b"c", b"3", RecordKind.BASE, seqno=2))
    assert source.get(b"a").value == b"1"
    assert source.get(b"c") is None
    assert [r.key for r in source.scan(b"", None)] == [b"a", b"b"]
    assert [r.key for r in source.scan(b"b", b"z")] == [b"b"]
    # ...and no list was copied to get it.
    assert source._run is run
    assert run.get(b"c").value == b"3"
    assert [r.key for r in run.scan(b"b", None)] == [b"b", b"c"]


# ---------------------------------------------------------------------------
# Engine surface
# ---------------------------------------------------------------------------


def test_materialized_snapshot_fallback_for_flat_engines():
    engine = build_engine("bitcask", EngineConfig())
    try:
        engine.put(b"k1", b"before")
        with engine.snapshot() as snap:
            engine.put(b"k1", b"after")
            engine.put(b"k2", b"new")
            assert snap.get(b"k1") == b"before"
            assert snap.get(b"k2") is None
            assert list(snap.scan(b"")) == [(b"k1", b"before")]
        assert engine.get(b"k1") == b"after"
    finally:
        engine.close()


def test_blsm_engine_snapshot_is_tree_backed():
    engine = build_engine(
        "blsm", EngineConfig(c0_bytes=32 * 1024, cache_pages=16)
    )
    try:
        engine.put(b"k", b"v")
        with engine.snapshot() as snap:
            engine.put(b"k", b"v2")
            assert snap.get(b"k") == b"v"
    finally:
        engine.close()

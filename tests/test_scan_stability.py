"""Scans interleaved with merges/compactions/splits (Section 4.4.1).

The paper hit this in its merge-thread implementation: batched scans
could observe a tree component deleted mid-scan, fixed with logical
timestamps on tree roots.  These tests pause scans at arbitrary points,
mutate the engine underneath (forcing merges, compactions and leaf
splits), and require the resumed scan to stay correct: sorted, no
duplicates, and containing every key that existed for the whole scan.
"""

import random

import pytest

from repro.baselines import BTreeEngine, CompactionEngine
from repro.core import BLSM, BLSMOptions, CompactionTree, PartitionedBLSM
from repro.engines import LEVELDB_OPTIONS


def check_interleaved_scan(engine, writer, stable_keys, scan_from=b""):
    """Drive a scan one row at a time, running ``writer`` between rows."""
    seen = []
    for n, (key, _value) in enumerate(engine.scan(scan_from)):
        seen.append(key)
        writer(n)
    assert seen == sorted(seen), "scan emitted out of order"
    assert len(seen) == len(set(seen)), "scan emitted duplicates"
    missing = [k for k in stable_keys if k not in set(seen)]
    assert not missing, f"scan missed {len(missing)} stable keys"


def test_blsm_scan_survives_compaction_under_it():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024))
    for i in range(1500):
        tree.put(b"key%05d" % (i % 800), bytes(64))
    tree.drain()
    scan = tree.scan(b"key")
    rows = [next(scan) for _ in range(5)]
    tree.compact()  # frees the components the scan was reading
    rest = list(scan)
    keys = [k for k, _ in rows + rest]
    assert keys == sorted(set(keys))
    assert len(keys) == 800


def test_blsm_scan_with_interleaved_writes():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024))
    stable = [b"key%05d" % i for i in range(600)]
    for key in stable:
        tree.put(key, bytes(64))
    rng = random.Random(0)

    def writer(n):
        for _ in range(10):
            tree.put(b"key%05d" % rng.randrange(600), bytes(64))

    check_interleaved_scan(tree, writer, stable)


def test_partitioned_scan_survives_splits_under_it():
    tree = PartitionedBLSM(
        BLSMOptions(c0_bytes=16 * 1024), max_partition_bytes=32 * 1024
    )
    stable = [b"key%05d" % i for i in range(800)]
    for key in stable:
        tree.put(key, bytes(64))
    rng = random.Random(1)

    def writer(n):
        for _ in range(8):
            tree.put(b"key%05d" % rng.randrange(800), bytes(64))

    check_interleaved_scan(tree, writer, stable)
    assert tree.partition_count >= 1

    # ...and what it returns is the snapshot: exactly the rows live when
    # the scan opened, while the partitions it crosses split under it.
    tree = PartitionedBLSM(
        BLSMOptions(c0_bytes=16 * 1024), max_partition_bytes=32 * 1024
    )
    model = {}

    def write(count):
        for _ in range(count):
            key = b"key%05d" % rng.randrange(5000)
            model[key] = b"%06d" % rng.randrange(10**6) + bytes(58)
            tree.put(key, model[key])

    write(1500)
    at_open = sorted(model.items())
    partitions = tree.partition_count
    scan = tree.scan(b"")
    rows = [next(scan) for _ in range(50)]
    write(3000)
    assert tree.partition_count > partitions
    assert tree.versions.deferred_frees > 0  # a pinned component was replaced
    rows.extend(scan)
    assert rows == at_open
    versions = tree.versions
    assert versions.pinned_count == versions.zombie_count == 0
    assert versions.live_views == 0
    tree.drain()
    assert set(tree.stasis.regions.allocated_extents) == {
        extent for table in tree._live_tables() for extent in table.extents
    }


def test_leveldb_scan_survives_compaction_under_it():
    def leveldb():
        return CompactionEngine(
            BLSMOptions(
                c0_bytes=8 * 1024, level_base_bytes=32 * 1024,
                buffer_pool_pages=32, **LEVELDB_OPTIONS,
            )
        )

    engine = leveldb()
    stable = [b"key%05d" % i for i in range(700)]
    for key in stable:
        engine.put(key, bytes(64))
    rng = random.Random(2)

    def writer(n):
        for _ in range(8):
            engine.put(b"key%05d" % rng.randrange(700), bytes(64))

    check_interleaved_scan(engine, writer, stable)

    # ...and what it returns is the snapshot: exactly the rows live when
    # the scan opened, while file-granularity compactions replace the
    # files it is reading (no restart from a cursor).
    engine = leveldb()
    tree = engine.tree
    model = {}

    def write(count):
        for _ in range(count):
            key = b"key%05d" % rng.randrange(5000)
            model[key] = b"%06d" % rng.randrange(10**6) + bytes(58)
            engine.put(key, model[key])

    write(1500)
    at_open = sorted(model.items())
    scan = engine.scan(b"")
    rows = [next(scan) for _ in range(50)]
    finished = len(engine.trace("merge_finish"))
    write(3000)
    assert len(engine.trace("merge_finish")) > finished
    assert tree.versions.deferred_frees > 0  # a pinned file was replaced
    rows.extend(scan)
    assert rows == at_open
    versions = tree.versions
    assert versions.pinned_count == versions.zombie_count == 0
    assert versions.live_views == 0
    tree.drain()  # no merge holds an output under construction
    assert set(tree.stasis.regions.allocated_extents) == {
        extent for table in tree._live_tables() for extent in table.extents
    }


def test_btree_scan_survives_leaf_splits_under_it():
    engine = BTreeEngine(buffer_pool_pages=64, page_size=4096)
    stable = [b"key%05d" % i for i in range(400)]
    for key in stable:
        engine.put(key, bytes(64))
    rng = random.Random(3)

    def writer(n):
        # Interleave inserts of *new* keys ahead of the cursor to force
        # splits in leaves the scan has not reached yet.
        engine.put(b"key%05d-x%03d" % (rng.randrange(400), n), bytes(64))

    check_interleaved_scan(engine, writer, stable)


def test_scan_restart_respects_limit():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024))
    for i in range(500):
        tree.put(b"key%05d" % i, bytes(64))
    tree.drain()
    scan = tree.scan(b"key", limit=10)
    rows = [next(scan) for _ in range(3)]
    tree.compact()
    rows.extend(scan)
    assert len(rows) == 10
    assert [k for k, _ in rows] == [b"key%05d" % i for i in range(10)]


def test_scan_restart_respects_hi_bound():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024))
    for i in range(500):
        tree.put(b"key%05d" % i, bytes(64))
    tree.drain()
    scan = tree.scan(b"key00100", b"key00200")
    rows = [next(scan) for _ in range(5)]
    tree.compact()
    rows.extend(scan)
    keys = [k for k, _ in rows]
    assert keys == [b"key%05d" % i for i in range(100, 200)]


def _replace_every_component(tree):
    """Rewrite the on-disk components a paused scan is reading."""
    if isinstance(tree, PartitionedBLSM):  # no compact(): merge it all again
        for i in range(300):
            tree.put(b"key%05d" % (i * 37 % 300), bytes(64))
        tree.drain()
    else:
        tree.compact()


@pytest.mark.parametrize("pause_at", [0, 1, 7, 50])
def test_blsm_scan_paused_at_various_points(pause_at, tree_cls=BLSM):
    policy = "leveled" if tree_cls is CompactionTree else "blsm3"
    tree = tree_cls(BLSMOptions(c0_bytes=16 * 1024, compaction_policy=policy))
    for i in range(300):
        tree.put(b"key%05d" % i, bytes(64))
    tree.drain()
    scan = tree.scan(b"key")
    rows = []
    for _ in range(pause_at):
        rows.append(next(scan))
    retired = tree.versions.completed_frees + tree.versions.deferred_frees
    _replace_every_component(tree)
    assert tree.versions.completed_frees + tree.versions.deferred_frees > retired
    rows.extend(scan)
    assert [k for k, _ in rows] == [b"key%05d" % i for i in range(300)]


@pytest.mark.parametrize("tree_cls", [PartitionedBLSM, CompactionTree])
@pytest.mark.parametrize("pause_at", [0, 1, 7, 50])
def test_scan_paused_at_various_points_on_the_other_layouts(pause_at, tree_cls):
    test_blsm_scan_paused_at_various_points(pause_at, tree_cls)

"""Behavioural tests for the partitioned bLSM tree (Section 4.2.2)."""

import random

import pytest

from repro.core import BLSMOptions, PartitionedBLSM
from repro.errors import EngineClosedError
from repro.storage import DurabilityMode


def small_tree(**overrides):
    max_partition = overrides.pop("max_partition_bytes", 64 * 1024)
    defaults = dict(c0_bytes=32 * 1024, buffer_pool_pages=64)
    defaults.update(overrides)
    return PartitionedBLSM(
        BLSMOptions(**defaults), max_partition_bytes=max_partition
    )


def test_put_get_roundtrip():
    tree = small_tree()
    tree.put(b"k", b"v")
    assert tree.get(b"k") == b"v"
    assert tree.get(b"missing") is None


def test_model_equivalence_with_splits():
    tree = small_tree()
    rng = random.Random(5)
    model = {}
    for i in range(8000):
        action = rng.random()
        key = b"key%06d" % rng.randrange(4000)
        if action < 0.8:
            value = b"v%06d" % i
            tree.put(key, value)
            model[key] = value
        elif action < 0.9:
            tree.delete(key)
            model.pop(key, None)
        elif key in model:
            tree.apply_delta(key, b"+D")
            model[key] += b"+D"
    assert tree.partition_count > 1  # splits happened
    assert sum(1 for k, v in model.items() if tree.get(k) != v) == 0


def test_scan_across_partition_boundaries():
    tree = small_tree()
    model = {}
    for i in range(6000):
        key = b"key%06d" % (i % 3000)
        value = b"v%d" % i
        tree.put(key, value)
        model[key] = value
    tree.drain()
    assert tree.partition_count > 1
    expected = sorted(model.items())
    assert list(tree.scan(b"")) == expected
    # A scan straddling a boundary:
    boundary = tree.partition_ranges()[1][0]
    lo = boundary[:-1]  # just below the second partition's low key
    got = list(tree.scan(lo, limit=50))
    model_slice = [(k, v) for k, v in expected if k >= lo][:50]
    assert got == model_slice


def test_partitions_tile_the_keyspace():
    tree = small_tree()
    for i in range(6000):
        tree.put(b"key%06d" % (i % 3000), bytes(32))
    tree.drain()
    ranges = tree.partition_ranges()
    assert ranges[0][0] == b""
    assert ranges[-1][1] is None
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo  # no gaps, no overlaps


def test_two_seek_scans_outside_merging_partition():
    # Section 3.3: with partitioning, most of the tree needs only two
    # seeks per scan because each partition holds at most C1 + C2.
    tree = small_tree()
    for i in range(6000):
        tree.put(b"key%06d" % (i % 3000), bytes(32))
    tree.drain()
    ranges = tree.partition_ranges()
    assert len(ranges) > 1
    lo, hi = ranges[0][0], ranges[0][1]
    assert tree.components_in_range(lo, hi) <= 2


def test_greedy_selection_targets_hot_partitions():
    # Concentrate writes in one key range: the hot partition should
    # absorb the merge activity while cold partitions stay untouched.
    tree = small_tree(c0_bytes=16 * 1024)
    for i in range(4000):  # build several partitions of cold data
        tree.put(b"key%06d" % (i % 2000), bytes(32))
    tree.drain()
    assert tree.partition_count > 1
    cold_ids = {
        id(p.c2)
        for p in tree._partitions[1:]
        if p.c2 is not None
    }
    # Hammer the first partition's range only.
    for i in range(3000):
        tree.put(b"key0000%02d" % (i % 100), b"hot%d" % i)
    untouched = sum(
        1
        for p in tree._partitions[1:]
        if p.c2 is not None and id(p.c2) in cold_ids
    )
    assert untouched >= max(1, (tree.partition_count - 1) // 2)


def test_tombstones_collected_per_partition():
    tree = small_tree()
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(32))
    tree.drain()
    for i in range(2000):
        tree.delete(b"key%05d" % i)
    tree.drain()
    # Force every partition's C1 down into C2 (tombstones drop there).
    for partition in list(tree._partitions):
        if partition.c1 is not None and partition in tree._partitions:
            tree._start(partition, promote=True)
            tree._m01.run_to_completion()
            tree._finish_m01()
    assert list(tree.scan(b"key")) == []


def test_deltas_fold_across_partition_levels():
    tree = small_tree()
    tree.put(b"k", b"base")
    tree.drain()
    tree.apply_delta(b"k", b"+1")
    tree.apply_delta(b"k", b"+2")
    assert tree.get(b"k") == b"base+1+2"
    tree.drain()
    assert tree.get(b"k") == b"base+1+2"


def test_insert_if_not_exists():
    tree = small_tree()
    assert tree.insert_if_not_exists(b"k", b"v1")
    assert not tree.insert_if_not_exists(b"k", b"v2")
    assert tree.get(b"k") == b"v1"


def test_read_modify_write():
    tree = small_tree()
    tree.put(b"n", b"1")
    assert tree.read_modify_write(b"n", lambda v: v + b"1") == b"11"


def test_recovery_restores_partitions_and_memtable():
    options = BLSMOptions(
        c0_bytes=32 * 1024, buffer_pool_pages=64,
        durability=DurabilityMode.SYNC,
    )
    tree = PartitionedBLSM(options, max_partition_bytes=64 * 1024)
    rng = random.Random(9)
    model = {}
    for i in range(6000):
        key = b"key%06d" % rng.randrange(3000)
        value = b"v%d" % i
        tree.put(key, value)
        model[key] = value
    partitions_before = tree.partition_count
    stasis = tree.stasis
    stasis.crash()
    recovered = PartitionedBLSM.recover(
        stasis, options, max_partition_bytes=64 * 1024
    )
    assert recovered.partition_count == partitions_before
    assert sum(1 for k, v in model.items() if recovered.get(k) != v) == 0


def test_crash_mid_merge_is_safe():
    options = BLSMOptions(
        c0_bytes=32 * 1024, durability=DurabilityMode.SYNC
    )
    tree = PartitionedBLSM(options, max_partition_bytes=64 * 1024)
    model = {}
    for i in range(3000):
        key = b"key%05d" % (i % 1500)
        tree.put(key, b"v%d" % i)
        model[key] = b"v%d" % i
    tree.step_m01(2000)  # leave a merge in flight
    stasis = tree.stasis
    stasis.crash()
    recovered = PartitionedBLSM.recover(stasis, options)
    assert sum(1 for k, v in model.items() if recovered.get(k) != v) == 0


def test_write_latency_stays_bounded_under_uniform_load():
    tree = small_tree(c0_bytes=64 * 1024)
    rng = random.Random(3)
    worst = 0.0
    for i in range(8000):
        before = tree.stasis.clock.now
        tree.put(b"user%09d" % rng.randrange(10**9), bytes(64))
        worst = max(worst, tree.stasis.clock.now - before)
    assert worst < 0.1  # no pass-sized stalls


def test_closed_tree_rejects_operations():
    tree = small_tree()
    tree.close()
    with pytest.raises(EngineClosedError):
        tree.put(b"k", b"v")


def test_stats_surface():
    tree = small_tree()
    tree.put(b"k", b"v")
    stats = tree.stats()
    for key in ("partitions", "c0", "disk_bytes", "clock_seconds"):
        assert key in stats


def test_engine_adapter():
    from repro.baselines import PartitionedBLSMEngine

    engine = PartitionedBLSMEngine(
        BLSMOptions(c0_bytes=32 * 1024), max_partition_bytes=64 * 1024
    )
    engine.put(b"k", b"v")
    assert engine.get(b"k") == b"v"
    assert engine.insert_if_not_exists(b"k2", b"w")
    engine.apply_delta(b"k", b"+d")
    assert engine.get(b"k") == b"v+d"
    assert list(engine.scan(b"k", limit=2)) == [(b"k", b"v+d"), (b"k2", b"w")]
    assert "partitions" in engine.io_summary()
    engine.close()

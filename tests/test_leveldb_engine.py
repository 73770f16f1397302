"""Behavioural tests for the LevelDB baseline: the ``leveldb`` policy.

LevelDB is a compaction policy of the tree kernel (file-granularity
leveling, ten-fold levels, no Bloom filters) paced by the ``leveldb``
scheduler (compaction gets 4x the bytes each write wrote).
"""

import random

import pytest

from repro.baselines import CompactionEngine
from repro.core import BLSMOptions, CompactionTree
from repro.core.scheduler import LevelDBScheduler
from repro.engines import LEVELDB_OPTIONS, build_engine
from repro.errors import EngineClosedError


def small_engine(**overrides):
    defaults = dict(
        c0_bytes=8 * 1024,
        level_base_bytes=32 * 1024,
        buffer_pool_pages=64,
    )
    defaults.update(overrides)
    return CompactionEngine(BLSMOptions(**defaults, **LEVELDB_OPTIONS))


def test_put_get_roundtrip():
    engine = small_engine()
    engine.put(b"k", b"v")
    assert engine.get(b"k") == b"v"
    assert engine.get(b"missing") is None


def test_memtable_flush_creates_l0_files():
    engine = small_engine()
    for i in range(200):
        engine.put(b"key%04d" % i, bytes(64))
    assert sum(engine.io_summary()["level_runs"]) > 0


def test_model_equivalence_under_churn():
    engine = small_engine()
    rng = random.Random(6)
    model = {}
    for i in range(4000):
        action = rng.random()
        key = b"key%05d" % rng.randrange(1500)
        if action < 0.75:
            value = b"v%05d" % i
            engine.put(key, value)
            model[key] = value
        elif action < 0.85:
            engine.delete(key)
            model.pop(key, None)
        elif key in model:
            engine.apply_delta(key, b"+D")
            model[key] += b"+D"
    mismatches = sum(1 for k, v in model.items() if engine.get(k) != v)
    assert mismatches == 0


def test_scan_matches_model():
    engine = small_engine()
    rng = random.Random(8)
    model = {}
    for i in range(3000):
        key = b"key%05d" % rng.randrange(1200)
        value = b"v%d" % i
        engine.put(key, value)
        model[key] = value
    expected = sorted(model.items())[:300]
    lo = expected[0][0]
    got = list(engine.scan(lo, limit=300))
    assert got == expected[:300]


def test_levels_form_and_grow():
    engine = small_engine()
    rng = random.Random(9)
    for i in range(6000):
        engine.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    manager = engine.tree.manager
    assert manager.level_count >= 2  # at least L1 exists
    assert manager.level_bytes(1) > 0
    # Below L0 a level is one run of key-disjoint files in key order.
    for level in range(1, manager.level_count):
        files = manager.runs(level)
        for left, right in zip(files, files[1:]):
            assert left.max_key < right.min_key
        # ...each at most a quarter of the level base, plus one record.
        assert all(table.nbytes < 8 * 1024 + 200 for table in files)


def test_reads_probe_multiple_components():
    # Without Bloom filters an absent in-range key probes L0 files and
    # one file per level: O(levels) seeks (Table 1).
    engine = small_engine(buffer_pool_pages=2)
    rng = random.Random(10)
    for i in range(5000):
        engine.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    stats = engine.tree.stasis.data_disk.stats
    before = stats.seeks
    n = 50
    for i in range(n):
        engine.get(b"key%06dx" % rng.randrange(10**6))
    assert (stats.seeks - before) / n > 1.5


def outrun_the_share(seed):
    """An L1 of sixteen memtables: under uniform inserts each L0 merge
    rewrites nearly all of it, more than the 4x share of the eight
    flushes between the L0 trigger and the stop trigger pays for."""
    engine = small_engine(level_base_bytes=128 * 1024)
    rng = random.Random(seed)
    for i in range(4000):
        engine.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    return engine


def test_l0_stop_trigger_causes_stall():
    engine = outrun_the_share(11)
    stops = engine.trace("level0_full")
    assert stops
    assert all(
        event.data["runs"] == CompactionTree.L0_STOP_TRIGGER for event in stops
    )
    assert engine.runtime.metrics.get("writes.stall_seconds").max > 0.01
    # The stop drained L0 below its trigger before the flush went on.
    assert engine.tree.manager.run_count(0) < CompactionTree.L0_STOP_TRIGGER


def test_slowdown_trigger_sleeps():
    engine = outrun_the_share(12)
    slowdowns = engine.trace("level0_slowdown")
    assert slowdowns
    assert all(
        engine.tree.policy.slowdown_trigger
        <= event.data["runs"]
        < CompactionTree.L0_STOP_TRIGGER
        for event in slowdowns
    )


def test_the_scheduler_hands_compaction_four_times_the_write():
    engine = small_engine()
    tree = engine.tree
    assert isinstance(tree.scheduler, LevelDBScheduler)
    budgets = []
    real = tree.step_m01
    tree.step_m01 = lambda budget: budgets.append(budget) or real(budget)
    engine.put(b"k", bytes(100))
    assert budgets == [int(4 * (16 + 1 + 100))]


def test_tombstones_eventually_collected():
    engine = small_engine()
    for i in range(300):
        engine.put(b"key%03d" % i, bytes(64))
    for i in range(300):
        engine.delete(b"key%03d" % i)
    # Push everything down: repeated filler writes drive compactions.
    for i in range(3000):
        engine.put(b"zz%06d" % i, bytes(64))
    assert engine.get(b"key000") is None
    assert list(engine.scan(b"key", b"kez")) == []


def test_blind_delta_is_zero_seek():
    engine = small_engine()
    engine.put(b"k", b"base")
    seeks = engine.tree.stasis.data_disk.stats.seeks
    engine.apply_delta(b"k", b"+d")
    assert engine.tree.stasis.data_disk.stats.seeks == seeks
    assert engine.get(b"k") == b"base+d"


def test_insert_if_not_exists_works_but_seeks():
    engine = small_engine(buffer_pool_pages=2)
    rng = random.Random(13)
    for i in range(4000):
        engine.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    assert engine.insert_if_not_exists(b"key0000001x", b"v")
    assert not engine.insert_if_not_exists(b"key0000001x", b"w")
    stats = engine.tree.stasis.data_disk.stats
    before = stats.seeks
    engine.insert_if_not_exists(b"key%06dy" % rng.randrange(10**6), b"v")
    assert stats.seeks > before  # the existence check paid real I/O


def test_closed_engine_rejects_operations():
    engine = small_engine()
    engine.close()
    with pytest.raises(EngineClosedError):
        engine.put(b"k", b"v")


def test_compaction_preserves_data_across_many_levels():
    engine = small_engine(c0_bytes=4 * 1024, level_base_bytes=16 * 1024)
    model = {}
    rng = random.Random(14)
    for i in range(8000):
        key = b"key%05d" % rng.randrange(4000)
        value = b"v%d" % i
        engine.put(key, value)
        model[key] = value
    assert engine.tree.manager.level_count >= 3  # L0, L1 and L2
    sample = rng.sample(sorted(model), 500)
    assert all(engine.get(k) == model[k] for k in sample)


def test_compact_moves_an_all_level0_tree_into_level1_files():
    engine = small_engine()
    tree = engine.tree
    model = {}
    for i in range(600):  # three flushes: under the L0 trigger of four
        key = b"key%05d" % (i * 7919 % 600)
        model[key] = b"v%04d" % i
        engine.put(key, model[key])
    tree.drain()
    manager = tree.manager
    assert manager.run_count(0) >= 2 and manager.level_bytes(1) == 0
    tree.compact()
    assert manager.run_count(0) == 0
    files = manager.runs(1)
    assert len(files) >= 2  # cut at a quarter of the level base
    assert all(left.max_key < right.min_key for left, right in zip(files, files[1:]))
    assert list(engine.scan(b"")) == sorted(model.items())
    tree.compact()  # a second compaction keeps the shape
    assert manager.run_count(0) == 0 and manager.runs(1)


def test_the_registry_builds_the_baseline_from_the_policy():
    engine = build_engine("leveldb", c0_bytes=64 * 1024, cache_pages=16)
    assert engine.name == "LevelDB"
    options = engine.tree.options
    assert (options.c0_bytes, options.level_base_bytes) == (8 * 1024, 128 * 1024)
    assert not options.with_bloom_filters
    assert engine.tree.policy.name == "leveldb"
    with pytest.raises(ValueError, match="leveldb scheduler never drains"):
        BLSMOptions(scheduler="leveldb")

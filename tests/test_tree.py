"""Behavioural tests for the bLSM tree."""

import random

import pytest

from repro.core import BLSM, BLSMOptions
from repro.core.tree import MAX_R, MIN_R
from repro.errors import EngineClosedError


def small_tree(**overrides):
    defaults = dict(c0_bytes=64 * 1024, buffer_pool_pages=64)
    defaults.update(overrides)
    return BLSM(BLSMOptions(**defaults))


def test_put_get_roundtrip():
    tree = small_tree()
    tree.put(b"k", b"v")
    assert tree.get(b"k") == b"v"
    assert tree.get(b"missing") is None


def test_overwrite_wins():
    tree = small_tree()
    tree.put(b"k", b"v1")
    tree.put(b"k", b"v2")
    assert tree.get(b"k") == b"v2"


def test_delete_hides_key():
    tree = small_tree()
    tree.put(b"k", b"v")
    tree.delete(b"k")
    assert tree.get(b"k") is None


def test_delete_survives_drain_and_compact():
    tree = small_tree()
    tree.put(b"k", b"v")
    tree.drain()
    tree.delete(b"k")
    tree.drain()
    assert tree.get(b"k") is None
    tree.compact()
    assert tree.get(b"k") is None


@pytest.mark.parametrize("scheduler", ["naive", "gear", "spring_gear"])
def test_drain_and_compact_empty_c0_without_snowshoveling(scheduler):
    tree = small_tree(c0_bytes=16 * 1024, snowshovel=False, scheduler=scheduler)
    rng = random.Random(0)
    expected = {}
    for i in range(2000):
        key = b"key%04d" % rng.randrange(900)
        value = b"v%05d" % i + bytes(20)
        tree.put(key, value)
        expected[key] = value
    tree.drain()
    assert tree.component_sizes()["c0"] == 0
    tree.compact()
    sizes = tree.component_sizes()
    assert sizes["c2"] > 0
    assert [name for name, nbytes in sizes.items() if nbytes] == ["c2"]
    assert all(tree.get(key) == value for key, value in expected.items())


def test_deltas_fold_across_levels():
    tree = small_tree()
    tree.put(b"k", b"base")
    tree.drain()  # base now on disk
    tree.apply_delta(b"k", b"+1")
    tree.apply_delta(b"k", b"+2")
    assert tree.get(b"k") == b"base+1+2"
    tree.drain()
    assert tree.get(b"k") == b"base+1+2"


def test_a_read_that_folds_deltas_leaves_c0_untouched():
    tree = small_tree()
    tree.put(b"k", b"base")
    tree.drain()
    tree.apply_delta(b"k", b"+1")
    tree.drain()
    assert tree.get(b"k") == b"base+1"
    assert tree._memtable.get(b"k") is None


def test_dangling_delta_unreadable():
    tree = small_tree()
    tree.apply_delta(b"ghost", b"+1")
    assert tree.get(b"ghost") is None


def test_insert_if_not_exists_semantics():
    tree = small_tree()
    assert tree.insert_if_not_exists(b"k", b"v1") is True
    assert tree.insert_if_not_exists(b"k", b"v2") is False
    assert tree.get(b"k") == b"v1"


def test_insert_if_not_exists_after_delete():
    tree = small_tree()
    tree.put(b"k", b"v")
    tree.drain()
    tree.delete(b"k")
    assert tree.insert_if_not_exists(b"k", b"v2") is True
    assert tree.get(b"k") == b"v2"


def test_read_modify_write():
    tree = small_tree()
    tree.put(b"counter", b"1")
    result = tree.read_modify_write(b"counter", lambda v: v + b"1")
    assert result == b"11"
    assert tree.get(b"counter") == b"11"


def test_scan_merges_all_levels():
    tree = small_tree()
    tree.put(b"a", b"old-a")
    tree.put(b"c", b"old-c")
    tree.drain()
    tree.put(b"b", b"mem-b")
    tree.put(b"c", b"mem-c")  # shadows disk version
    got = list(tree.scan(b"a", b"z"))
    assert got == [(b"a", b"old-a"), (b"b", b"mem-b"), (b"c", b"mem-c")]


def test_scan_limit():
    tree = small_tree()
    for i in range(20):
        tree.put(b"k%02d" % i, b"v")
    got = list(tree.scan(b"k05", limit=3))
    assert [k for k, _ in got] == [b"k05", b"k06", b"k07"]


def test_scan_skips_deleted():
    tree = small_tree()
    for key in (b"a", b"b", b"c"):
        tree.put(key, b"v")
    tree.drain()
    tree.delete(b"b")
    assert [k for k, _ in tree.scan(b"a", b"z")] == [b"a", b"c"]


def test_promotion_creates_c2():
    tree = small_tree(c0_bytes=16 * 1024)
    rng = random.Random(0)
    for i in range(6000):
        tree.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    tree.compact()
    sizes = tree.component_sizes()
    assert sizes["c2"] > 0
    assert sizes["c0"] == sizes["c1"] == sizes["c1_prime"] == 0


def test_r_grows_with_data():
    tree = small_tree(c0_bytes=8 * 1024)
    assert tree.r == MIN_R
    rng = random.Random(0)
    for i in range(8000):
        tree.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    assert MIN_R < tree.r <= MAX_R


def test_reads_prefer_newest_level():
    tree = small_tree()
    tree.put(b"k", b"v-c2-era")
    tree.compact()
    tree.put(b"k", b"v-c1-era")
    tree.drain()
    tree.put(b"k", b"v-c0")
    assert tree.get(b"k") == b"v-c0"


def test_blind_writes_do_not_seek():
    tree = small_tree(c0_bytes=1 << 20)
    seeks_before = tree.stasis.data_disk.stats.seeks
    for i in range(100):
        tree.put(b"key%03d" % i, bytes(64))
    assert tree.stasis.data_disk.stats.seeks == seeks_before


def test_insert_if_not_exists_absent_key_is_zero_seek():
    # The Section 3.1.2 claim: the C2 Bloom filter answers the
    # existence check without touching disk.
    tree = small_tree(c0_bytes=8 * 1024)
    rng = random.Random(0)
    for i in range(4000):
        tree.put(b"key%06d" % rng.randrange(10**6), bytes(64))
    tree.compact()
    seeks_before = tree.stasis.data_disk.stats.seeks
    inserted = tree.insert_if_not_exists(b"zz-definitely-new", b"v")
    assert inserted
    assert tree.stasis.data_disk.stats.seeks == seeks_before


def test_point_read_from_c2_is_one_seek():
    tree = small_tree(c0_bytes=8 * 1024, buffer_pool_pages=2)
    keys = [b"key%06d" % i for i in range(2000)]
    for key in keys:
        tree.put(key, bytes(64))
    tree.compact()
    seeks_before = tree.stasis.data_disk.stats.seeks
    assert tree.get(keys[1000]) is not None
    assert tree.stasis.data_disk.stats.seeks - seeks_before <= 1


def test_without_bloom_filters_reads_probe_every_level():
    with_bloom = small_tree(c0_bytes=8 * 1024)
    without = small_tree(c0_bytes=8 * 1024, with_bloom_filters=False,
                         buffer_pool_pages=2)
    rng = random.Random(0)
    keys = [b"key%06d" % rng.randrange(10**6) for _ in range(4000)]
    for tree in (with_bloom, without):
        for key in keys:
            tree.put(key, bytes(64))
    for tree in (with_bloom, without):
        before = tree.stasis.data_disk.stats.seeks
        for i in range(50):
            # In-range but absent: only a Bloom filter avoids the probe.
            tree.get(b"key%06dabsent" % rng.randrange(10**6))
        tree.absent_seeks = tree.stasis.data_disk.stats.seeks - before
    assert without.absent_seeks > 5 * max(1, with_bloom.absent_seeks)


def test_closed_tree_rejects_operations():
    tree = small_tree()
    tree.put(b"k", b"v")
    tree.close()
    with pytest.raises(EngineClosedError):
        tree.put(b"x", b"y")
    with pytest.raises(EngineClosedError):
        tree.get(b"k")
    tree.close()  # idempotent


def test_stats_surface():
    tree = small_tree()
    tree.put(b"k", b"v")
    stats = tree.stats()
    for field in ("c0", "c1", "c2", "r", "clock_seconds", "next_seqno"):
        assert field in stats


def test_space_reclaimed_after_compaction():
    # Overwriting the same keys repeatedly must not leak disk space.
    tree = small_tree(c0_bytes=16 * 1024)
    for round_ in range(5):
        for i in range(500):
            tree.put(b"key%04d" % i, bytes(64))
        tree.drain()
    tree.compact()
    live = tree.component_sizes()["c2"]
    allocated_pages = sum(
        e.length for e in tree.stasis.regions.allocated_extents
    )
    assert allocated_pages * 4096 < 3 * live + 64 * 4096


def test_bloom_filters_do_not_help_scans():
    # Section 3.3's opening claim: "Scan operations do not benefit from
    # Bloom filters and must examine each tree component."
    seeks = {}
    for with_bloom in (True, False):
        tree = small_tree(
            c0_bytes=8 * 1024,
            with_bloom_filters=with_bloom,
            buffer_pool_pages=2,
        )
        for i in range(3000):
            tree.put(b"key%05d" % (i % 1500), bytes(64))
        before = tree.stasis.data_disk.stats.seeks
        for start in range(0, 1500, 100):
            list(tree.scan(b"key%05d" % start, limit=3))
        seeks[with_bloom] = tree.stasis.data_disk.stats.seeks - before
    assert seeks[True] == seeks[False]


def test_repr_is_informative():
    tree = small_tree()
    tree.put(b"k", b"v")
    text = repr(tree)
    assert "BLSM(" in text and "c0=" in text and "r=" in text


def test_key_count_estimate():
    tree = small_tree()
    for i in range(10):
        tree.put(b"k%d" % i, b"v")
    assert tree.key_count_estimate() == 10

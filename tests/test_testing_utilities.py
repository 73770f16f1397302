"""Tests for the public model-based testing utilities."""

import pytest

from repro.baselines import BLSMEngine, BTreeEngine, CompactionEngine
from repro.core import BLSM, BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.records import Record
from repro.testing import check_blsm_invariants, generate_trace, run_trace


def test_run_model_workload_on_all_engines():
    from repro.baselines import BitCaskEngine, PartitionedBLSMEngine

    engines = [
        BLSMEngine(BLSMOptions(c0_bytes=16 * 1024, buffer_pool_pages=16)),
        PartitionedBLSMEngine(
            BLSMOptions(c0_bytes=16 * 1024, buffer_pool_pages=16),
            max_partition_bytes=32 * 1024,
        ),
        BTreeEngine(buffer_pool_pages=16, page_size=4096),
        CompactionEngine(
            BLSMOptions(
                c0_bytes=8 * 1024, level_base_bytes=32 * 1024,
                buffer_pool_pages=16, **LEVELDB_OPTIONS,
            )
        ),
        BitCaskEngine(),
    ]
    # Same seed, same trace: every engine agrees with the one oracle.
    trace = generate_trace(2000, seed=7, keyspace=1000, value_bytes=64)
    for engine in engines:
        assert run_trace(engine, trace) is None


def test_invariant_checker_accepts_healthy_tree():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024))
    for i in range(2000):
        tree.put(b"key%05d" % (i % 900), b"v%d" % i)
    tree.drain()
    check_blsm_invariants(tree)


def test_invariant_checker_detects_corruption():
    tree = BLSM(BLSMOptions(c0_bytes=16 * 1024))
    for i in range(2000):
        tree.put(b"key%05d" % (i % 900), b"v%d" % i)
    tree.drain()
    assert tree._c1 is not None or tree._c1_prime is not None
    component = tree._c1 or tree._c1_prime
    component.key_count += 1  # sabotage the accounting
    with pytest.raises(AssertionError):
        check_blsm_invariants(tree)


def freeze_mode_tree():
    return BLSM(BLSMOptions(c0_bytes=16 * 1024, snowshovel=False))


def test_invariant_checker_walks_the_frozen_c0():
    tree = freeze_mode_tree()
    for i in range(2000):
        tree.put(b"key%05d" % (i % 900), b"v%d" % i)
    tree.drain()
    assert tree._frozen is None
    check_blsm_invariants(tree)
    on_disk = next(
        c for c in (tree._c1, tree._c1_prime, tree._c2) if c is not None
    )
    newest = max(on_disk.iter_records(), key=lambda record: record.seqno)
    # Plant a C0' holding a version older than the one on disk.
    tree._frozen = tree._new_memtable()
    tree._frozen.put(Record.base(newest.key, b"stale", 0))
    with pytest.raises(AssertionError, match="version inversion"):
        check_blsm_invariants(tree)


def test_invariant_checker_accepts_a_freeze_mode_tree_mid_pass():
    tree = freeze_mode_tree()
    checked = 0
    for i in range(4000):
        tree.put(b"key%05d" % (i % 900), b"v%d" % i)
        if i % 50 == 0 and tree._frozen is not None and tree._m01 is not None:
            check_blsm_invariants(tree)
            checked += 1
    assert checked

"""Tests for the public model-based testing utilities."""

import pytest

from repro.baselines import BLSMEngine, BTreeEngine, CompactionEngine
from repro.core import BLSM, BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.storage import DurabilityMode
from repro.testing import (
    check_blsm_invariants,
    crash_recover_check,
    run_model_workload,
    verify_against_model,
)


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
    models = []
    for engine in engines:
        model = run_model_workload(engine, operations=2000, seed=7)
        verify_against_model(engine, model)
        models.append(sorted(model.items()))
    # Same seed, same stream: every engine converges to the same state.
    assert all(m == models[0] for m in models[1:])


def test_checkpoint_callback_fires():
    engine = BLSMEngine(BLSMOptions(c0_bytes=16 * 1024))
    calls = []
    run_model_workload(
        engine,
        operations=500,
        checkpoint_every=100,
        on_checkpoint=lambda e, m: calls.append(len(m)),
        seed=1,
    )
    assert len(calls) == 5


def test_invalid_fractions_rejected():
    engine = BLSMEngine(BLSMOptions(c0_bytes=16 * 1024))
    with pytest.raises(ValueError):
        run_model_workload(
            engine, operations=10,
            delta_fraction=0.5, delete_fraction=0.5, read_fraction=0.5,
        )


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


def test_crash_recover_check_roundtrip():
    options = BLSMOptions(
        c0_bytes=16 * 1024, durability=DurabilityMode.SYNC
    )
    tree = BLSM(options)
    model = {}
    for i in range(1200):
        key = b"key%04d" % (i % 500)
        tree.put(key, b"v%d" % i)
        model[key] = b"v%d" % i
    recovered = crash_recover_check(tree, model)
    assert recovered.get(b"key0001") == model[b"key0001"]

"""Deep fuzzing, gated behind ``-m slow``.

The default test run keeps these out (they multiply the suite's wall
time); run them before a release:

    pytest tests/test_deep_fuzz.py -m slow
"""

import random

import pytest

from repro.baselines import (
    BitCaskEngine,
    BLSMEngine,
    BTreeEngine,
    CompactionEngine,
    PartitionedBLSMEngine,
)
from repro.core import BLSM, BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.storage import DurabilityMode
from repro.testing import (
    check_blsm_invariants,
    check_partitioned_invariants,
    run_model_workload,
    verify_against_model,
)

pytestmark = pytest.mark.slow


def engine_matrix():
    yield "blsm", BLSMEngine(
        BLSMOptions(c0_bytes=48 * 1024, buffer_pool_pages=32)
    )
    yield "blsm-all-options", BLSMEngine(
        BLSMOptions(
            c0_bytes=48 * 1024,
            buffer_pool_pages=32,
            delta_read_repair=True,
            persist_bloom_filters=True,
            compression_ratio=0.6,
            durability=DurabilityMode.SYNC,
        )
    )
    yield "blsm-extras", BLSMEngine(
        BLSMOptions(
            c0_bytes=48 * 1024, scheduler="naive", extra_components=True
        )
    )
    yield "partitioned", PartitionedBLSMEngine(
        BLSMOptions(c0_bytes=48 * 1024, buffer_pool_pages=32),
        max_partition_bytes=96 * 1024,
    )
    yield "btree", BTreeEngine(buffer_pool_pages=32, page_size=4096)
    yield "leveldb", CompactionEngine(
        BLSMOptions(
            c0_bytes=16 * 1024,
            level_base_bytes=64 * 1024,
            buffer_pool_pages=32,
            **LEVELDB_OPTIONS,
        )
    )
    yield "bitcask", BitCaskEngine(garbage_threshold=0.5)


@pytest.mark.parametrize("name,engine", engine_matrix())
def test_hundred_thousand_op_soak(name, engine):
    model = run_model_workload(
        engine, operations=100_000, keyspace=8000, seed=42
    )
    verify_against_model(engine, model)
    if name.startswith("blsm"):
        check_blsm_invariants(engine.tree)
    if name == "partitioned":
        check_partitioned_invariants(engine.tree)


def test_crash_storm():
    options = BLSMOptions(
        c0_bytes=24 * 1024,
        delta_read_repair=True,
        persist_bloom_filters=True,
        durability=DurabilityMode.SYNC,
    )
    tree = BLSM(options)
    rng = random.Random(7)
    model: dict[bytes, bytes] = {}
    for crash_round in range(30):
        for _ in range(rng.randrange(200, 1200)):
            key = b"key%05d" % rng.randrange(1500)
            roll = rng.random()
            if roll < 0.55:
                value = b"v%08d" % rng.randrange(10**8)
                tree.put(key, value)
                model[key] = value
            elif roll < 0.7:
                tree.delete(key)
                model.pop(key, None)
            elif roll < 0.85 and key in model:
                tree.apply_delta(key, b"+D")
                model[key] += b"+D"
            else:
                assert tree.get(key) == model.get(key)
        tree.step_m01(rng.randrange(1, 50_000))  # random merge freeze-point
        stasis = tree.stasis
        stasis.crash()
        tree = BLSM.recover(stasis, options)
        bad = sum(1 for k, v in model.items() if tree.get(k) != v)
        assert bad == 0, crash_round
    check_blsm_invariants(tree)

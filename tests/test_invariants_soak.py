"""Soak tests: long mixed workloads with periodic deep invariant checks.

These run tens of thousands of operations against each engine and
verify structural invariants the unit tests cannot see — version
ordering across levels, space accounting, partition tiling, range
confinement — at multiple points during the run and at the end.
"""

import random

import pytest

from repro.core import BLSM, BLSMOptions, PartitionedBLSM
from repro.testing import check_blsm_invariants, check_partitioned_invariants


@pytest.mark.parametrize("seed", [0, 1])
def test_blsm_soak(seed):
    tree = BLSM(BLSMOptions(c0_bytes=24 * 1024, buffer_pool_pages=32))
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    for i in range(15000):
        action = rng.random()
        key = b"key%06d" % rng.randrange(3000)
        if action < 0.65:
            value = b"v%06d" % i
            tree.put(key, value)
            model[key] = value
        elif action < 0.80:
            tree.delete(key)
            model.pop(key, None)
        elif action < 0.90 and key in model:
            tree.apply_delta(key, b"+D")
            model[key] += b"+D"
        else:
            assert tree.get(key) == model.get(key)
        if i % 5000 == 4999:
            check_blsm_invariants(tree)
    check_blsm_invariants(tree)
    mismatches = sum(1 for k, v in model.items() if tree.get(k) != v)
    assert mismatches == 0
    assert list(tree.scan(b"")) == sorted(model.items())
    tree.compact()
    check_blsm_invariants(tree)
    assert list(tree.scan(b"")) == sorted(model.items())


@pytest.mark.parametrize("seed", [0, 1])
def test_partitioned_soak(seed):
    tree = PartitionedBLSM(
        BLSMOptions(c0_bytes=24 * 1024, buffer_pool_pages=32),
        max_partition_bytes=48 * 1024,
    )
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    for i in range(15000):
        action = rng.random()
        key = b"key%06d" % rng.randrange(3000)
        if action < 0.7:
            value = b"v%06d" % i
            tree.put(key, value)
            model[key] = value
        elif action < 0.85:
            tree.delete(key)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
        if i % 5000 == 4999:
            check_partitioned_invariants(tree)
    check_partitioned_invariants(tree)
    assert tree.partition_count > 1
    mismatches = sum(1 for k, v in model.items() if tree.get(k) != v)
    assert mismatches == 0
    assert list(tree.scan(b"")) == sorted(model.items())


def test_blsm_soak_with_all_options_enabled():
    from repro.storage import DurabilityMode

    options = BLSMOptions(
        c0_bytes=24 * 1024,
        buffer_pool_pages=32,
        persist_bloom_filters=True,
        durability=DurabilityMode.SYNC,
    )
    tree = BLSM(options)
    rng = random.Random(9)
    model: dict[bytes, bytes] = {}
    for i in range(8000):
        action = rng.random()
        key = b"key%06d" % rng.randrange(1500)
        if action < 0.6:
            value = b"v%06d" % i
            tree.put(key, value)
            model[key] = value
        elif action < 0.75:
            tree.delete(key)
            model.pop(key, None)
        elif action < 0.85 and key in model:
            tree.apply_delta(key, b"+D")
            model[key] += b"+D"
        else:
            assert tree.get(key) == model.get(key)
    check_blsm_invariants(tree)
    # Crash and recover with everything on; contents must survive.
    stasis = tree.stasis
    stasis.crash()
    recovered = BLSM.recover(stasis, options)
    assert sum(1 for k, v in model.items() if recovered.get(k) != v) == 0
    check_blsm_invariants(recovered)

"""Property-based tests for the partitioned tree and range snowshovel."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import BLSMOptions, PartitionedBLSM
from repro.memtable import MemTable, SnowshovelCursor
from repro.records import Record
from repro.storage import DurabilityMode
from tests.test_snowshovel import drain

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=0, max_size=32)



def tiny_tree():
    return PartitionedBLSM(
        BLSMOptions(c0_bytes=2048, buffer_pool_pages=16),
        max_partition_bytes=4096,
    )


@settings(max_examples=30)
@given(st.lists(st.tuples(keys, st.integers(0, 2), values), max_size=120))
def test_partitioned_matches_dict_model(operations):
    tree = tiny_tree()
    model = {}
    for key, op, value in operations:
        if op == 0:
            tree.put(key, value)
            model[key] = value
        elif op == 1:
            tree.delete(key)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
    for key, value in model.items():
        assert tree.get(key) == value
    assert list(tree.scan(b"")) == sorted(model.items())


@settings(max_examples=30)
@given(st.lists(st.tuples(keys, values), max_size=80))
def test_partitions_always_tile_keyspace(writes):
    tree = tiny_tree()
    for key, value in writes:
        tree.put(key, value)
    tree.drain()
    ranges = tree.partition_ranges()
    assert ranges[0][0] == b""
    assert ranges[-1][1] is None
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo


@settings(max_examples=30)
@given(st.lists(st.tuples(keys, values), max_size=60))
def test_partitioned_crash_recovery(writes):
    options = BLSMOptions(
        c0_bytes=2048, buffer_pool_pages=16, durability=DurabilityMode.SYNC
    )
    tree = PartitionedBLSM(options, max_partition_bytes=4096)
    model = {}
    for key, value in writes:
        tree.put(key, value)
        model[key] = value
    stasis = tree.stasis
    stasis.crash()
    recovered = PartitionedBLSM.recover(
        stasis, options, max_partition_bytes=4096
    )
    for key, value in model.items():
        assert recovered.get(key) == value


@settings(max_examples=30)
@given(
    st.lists(keys, min_size=1, max_size=60, unique=True),
    st.binary(min_size=1, max_size=4),
    st.binary(min_size=1, max_size=4),
)
def test_range_snowshovel_stays_in_bounds(all_keys, bound_a, bound_b):
    lo, hi = min(bound_a, bound_b), max(bound_a, bound_b)
    if lo == hi:
        hi = hi + b"\xff"
    table = MemTable(1 << 20)
    for i, key in enumerate(all_keys):
        table.put(Record.base(key, b"v", i))
    drained = drain(SnowshovelCursor(table, lo, hi))
    expected = sorted(k for k in all_keys if lo <= k < hi)
    assert drained == expected
    # Everything outside the range is untouched.
    remaining = sorted(record.key for record in table)
    assert remaining == sorted(k for k in all_keys if not lo <= k < hi)


@settings(max_examples=30)
@given(st.lists(st.tuples(keys, values), max_size=80), st.integers(0, 20))
def test_partitioned_scan_with_interleaved_writes(writes, pause_every):
    tree = tiny_tree()
    model = {}
    for key, value in writes:
        tree.put(key, value)
        model[key] = value
    rng = random.Random(0)
    seen = []
    extra = list(model)
    for n, (key, _) in enumerate(tree.scan(b"")):
        seen.append(key)
        if extra and pause_every and n % (pause_every + 1) == 0:
            tree.put(extra[rng.randrange(len(extra))], b"rewrite")
    assert seen == sorted(set(seen))
    assert set(model) <= set(seen)

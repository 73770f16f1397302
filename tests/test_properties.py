"""Property-based tests (hypothesis) for core structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines import BTreeEngine, CompactionEngine
from repro.bloom import BloomFilter
from repro.core import BLSM, BLSMOptions
from repro.core.versions import Prefix, TreeSnapshot, VersionSet
from repro.engines import LEVELDB_OPTIONS
from repro.memtable import MemTable, replacement_selection_runs
from repro.records import Record, fold, resolve
from repro.sstable import SSTableBuilder
from repro.storage import DurabilityMode, RegionAllocator, Stasis

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=0, max_size=32)


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, st.integers(0, 2), values), max_size=120))
def test_memtable_matches_dict(operations):
    table = MemTable(1 << 30)
    model = {}
    for seqno, (key, op, value) in enumerate(operations):
        if op == 0:
            table.put(Record.base(key, value, seqno))
            model[key] = value
        elif op == 1:
            record = table.get(key)
            assert (record and record.value) == model.get(key)
        else:
            record = table.remove(key)
            assert (record and record.value) == model.pop(key, None)
    assert [record.key for record in table] == sorted(model)


@settings(max_examples=40)
@given(st.lists(keys, unique=True, max_size=80))
def test_bloom_never_false_negative(members):
    bloom = BloomFilter.for_capacity(max(1, len(members)))
    for key in members:
        bloom.add(key)
    assert all(key in bloom for key in members)


@settings(max_examples=40)
@given(st.lists(keys, min_size=1, max_size=200), st.integers(1, 20))
def test_replacement_selection_partitions_sorted_runs(arrivals, memory):
    runs = replacement_selection_runs(arrivals, memory)
    assert sorted(k for run in runs for k in run) == sorted(arrivals)
    for run in runs:
        assert run == sorted(run)
    # The defining property: every run except the last is at least one
    # memory-full (replacement selection never emits short runs early).
    for run in runs[:-1]:
        assert len(run) >= min(memory, len(arrivals))


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, st.integers(0, 2), values), max_size=100))
def test_blsm_matches_dict_model(operations):
    tree = BLSM(BLSMOptions(c0_bytes=2048, buffer_pool_pages=16))
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


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, st.booleans(), values), max_size=80))
def test_blsm_deltas_match_semantic_model(operations):
    tree = BLSM(BLSMOptions(c0_bytes=2048, buffer_pool_pages=16))
    model = {}
    for key, is_delta, value in operations:
        if is_delta:
            tree.apply_delta(key, value)
            if key in model and model[key] is not None:
                model[key] = model[key] + value
            else:
                model.setdefault(key, None)  # dangling delta
        else:
            tree.put(key, value)
            model[key] = value
    for key, value in model.items():
        assert tree.get(key) == value


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, values), max_size=60))
def test_blsm_survives_crash_with_sync_log(writes):
    options = BLSMOptions(
        c0_bytes=2048, buffer_pool_pages=16, durability=DurabilityMode.SYNC
    )
    tree = BLSM(options)
    model = {}
    for key, value in writes:
        tree.put(key, value)
        model[key] = value
    stasis = tree.stasis
    stasis.crash()
    recovered = BLSM.recover(stasis, options)
    for key, value in model.items():
        assert recovered.get(key) == value


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, st.integers(0, 1), values), max_size=80))
def test_btree_matches_dict_model(operations):
    engine = BTreeEngine(buffer_pool_pages=8, page_size=1024)
    model = {}
    for key, op, value in operations:
        if op == 0:
            engine.put(key, value)
            model[key] = value
        else:
            engine.delete(key)
            model.pop(key, None)
    for key, value in model.items():
        assert engine.get(key) == value
    assert [k for k, _ in engine.scan(b"")] == sorted(model)


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, values), max_size=80))
def test_leveldb_matches_dict_model(writes):
    engine = CompactionEngine(
        BLSMOptions(
            c0_bytes=512, level_base_bytes=2048, buffer_pool_pages=16,
            **LEVELDB_OPTIONS,
        )
    )
    model = {}
    for key, value in writes:
        engine.put(key, value)
        model[key] = value
    for key, value in model.items():
        assert engine.get(key) == value
    assert list(engine.scan(b"")) == sorted(model.items())


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, st.integers(0, 1), values), max_size=100))
def test_bitcask_matches_dict_model(operations):
    from repro.baselines import BitCaskEngine

    engine = BitCaskEngine(garbage_threshold=0.3)  # compact aggressively
    model = {}
    for key, op, value in operations:
        if op == 0:
            engine.put(key, value)
            model[key] = value
        else:
            engine.delete(key)
            model.pop(key, None)
    for key, value in model.items():
        assert engine.get(key) == value
    assert list(engine.scan(b"")) == sorted(model.items())


@settings(max_examples=40)
@given(
    st.lists(st.lists(st.tuples(keys, values), max_size=30), max_size=4)
)
def test_scan_over_runs_yields_newest_wins_rows(source_specs):
    # A snapshot scan over hand-built runs (newest first) returns, in
    # key order, each key once with its newest run's value.
    runs = []
    oracle = {}
    for i, pairs in enumerate(source_specs):
        unique = dict(pairs)
        run = MemTable(1 << 20)
        for k, v in unique.items():
            run.put(Record.base(k, v, 1000 - i))
        runs.append(Prefix(run))
        for key, value in unique.items():
            oracle.setdefault(key, value)  # the newest run seen first wins
    with TreeSnapshot(VersionSet(), MemTable(1 << 20), (runs,)) as snap:
        assert list(snap.scan(b"")) == sorted(oracle.items())


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 2), values), min_size=1, max_size=10))
def test_fold_chain_equals_resolve(version_specs):
    # Folding versions pairwise (what merges do) must agree with
    # resolving the full chain (what reads do).
    kinds = {0: Record.base, 1: Record.delta}
    chain = []
    for seqno, (kind, value) in enumerate(version_specs):
        if kind == 2:
            chain.append(Record.tombstone(b"k", seqno))
        else:
            chain.append(kinds[kind](b"k", value, seqno))
    newest_first = list(reversed(chain))
    folded = chain[0]
    for newer in chain[1:]:
        folded = fold(newer, folded)
    assert resolve([folded]) == resolve(newest_first)


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, values), min_size=1, max_size=60))
def test_sstable_roundtrip(pairs):
    unique = dict(pairs)
    stasis = Stasis(buffer_pool_pages=16)
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=len(unique))
    for i, (key, value) in enumerate(sorted(unique.items())):
        builder.add(Record.base(key, value, i))
    table = builder.finish()
    for key, value in unique.items():
        assert table.get(key).value == value
    assert [r.key for r in table.iter_records()] == sorted(unique)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 30), st.booleans()), max_size=60))
def test_region_allocator_never_overlaps(steps):
    allocator = RegionAllocator()
    live = []
    for length, should_free in steps:
        if should_free and live:
            allocator.free(live.pop(random.Random(length).randrange(len(live))))
        else:
            live.append(allocator.allocate(length))
        spans = sorted((e.start, e.end) for e in live)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2  # no overlap


@settings(max_examples=40)
@given(st.lists(st.tuples(keys, values), max_size=100), st.integers(0, 3))
def test_scan_prefix_consistency(writes, prefix_len):
    tree = BLSM(BLSMOptions(c0_bytes=2048, buffer_pool_pages=16))
    model = {}
    for key, value in writes:
        tree.put(key, value)
        model[key] = value
    lo = bytes(prefix_len)
    expected = sorted((k, v) for k, v in model.items() if k >= lo)
    assert list(tree.scan(lo)) == expected

"""C0's ordered-map contract, checked on :class:`MemTable`: sorted
iteration, ``first_key`` / ``ceiling`` / open-ended ``scan``, overwrite,
remove-then-reuse, and a dict model."""

import random

from hypothesis import given, settings, strategies as st

from repro.memtable import MemTable
from repro.records import Record


def _put(table, key, value, seqno=0):
    table.put(Record.base(key, value, seqno))


def _value(table, key):
    record = table.get(key)
    return None if record is None else record.value


def test_insert_and_get():
    table = MemTable(1 << 20)
    _put(table, b"b", b"2")
    assert _value(table, b"b") == b"2"
    assert table.get(b"a") is None


def test_overwrite_returns_old_value():
    table = MemTable(1 << 20)
    _put(table, b"k", b"1", 1)
    _put(table, b"k", b"2", 2)
    assert _value(table, b"k") == b"2"
    assert len(table) == 1
    assert table._keys == [b"k"]


def test_iteration_is_sorted():
    table = MemTable(1 << 20)
    keys = [b"%04d" % i for i in random.Random(0).sample(range(1000), 200)]
    for key in keys:
        _put(table, key, key)
    assert [record.key for record in table] == sorted(keys)


def test_remove():
    table = MemTable(1 << 20)
    _put(table, b"a", b"1")
    _put(table, b"b", b"2")
    assert table.remove(b"a").value == b"1"
    assert table.get(b"a") is None
    assert len(table) == 1
    assert table.remove(b"missing") is None


def test_remove_all_then_reuse():
    table = MemTable(1 << 20)
    for i in range(50):
        _put(table, b"%02d" % i, b"%d" % i)
    for i in range(50):
        assert table.remove(b"%02d" % i).value == b"%d" % i
    assert len(table) == 0 and table.is_empty and table.nbytes == 0
    _put(table, b"new", b"99")
    assert _value(table, b"new") == b"99"
    assert table.first_key() == b"new"


def test_first():
    table = MemTable(1 << 20)
    assert table.first_key() is None
    _put(table, b"m", b"1")
    _put(table, b"a", b"2")
    assert table.first_key() == b"a"


def test_ceiling():
    table = MemTable(1 << 20)
    for key in (b"b", b"d", b"f"):
        _put(table, key, key)
    assert table.ceiling(b"a").key == b"b"
    assert table.ceiling(b"d").key == b"d"
    assert table.ceiling(b"e").key == b"f"
    assert table.ceiling(b"g") is None
    assert table.ceiling_key(b"e") == b"f"
    assert table.ceiling_key(b"g") is None


def test_iter_from():
    table = MemTable(1 << 20)
    for i in range(10):
        _put(table, b"%02d" % i, b"%d" % i)
    assert [r.value for r in table.scan(b"05", None)] == [
        b"5", b"6", b"7", b"8", b"9"
    ]
    assert list(table.scan(b"99", None)) == []


def test_contains():
    table = MemTable(1 << 20)
    _put(table, b"x", b"1")
    assert table.get(b"x") is not None
    assert table.get(b"y") is None


def test_large_random_workload_against_dict():
    table = MemTable(1 << 30)
    rng = random.Random(42)
    model = {}
    for seqno in range(5000):
        key = b"%03d" % rng.randrange(300)
        action = rng.random()
        if action < 0.6:
            value = b"%d" % rng.randrange(10**6)
            _put(table, key, value, seqno)
            model[key] = value
        elif action < 0.9:
            assert _value(table, key) == model.get(key)
        else:
            removed = table.remove(key)
            assert (removed and removed.value) == model.pop(key, None)
    assert [record.key for record in table] == sorted(model)
    assert len(table) == len(model)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=8),
            st.integers(0, 2),
            st.binary(max_size=24),
        ),
        max_size=120,
    ),
    probe=st.binary(min_size=1, max_size=8),
)
def test_matches_dict_model(ops, probe):
    table = MemTable(1 << 30)
    model = {}
    for seqno, (key, op, value) in enumerate(ops):
        if op == 0:
            _put(table, key, value, seqno)
            model[key] = value
        elif op == 1:
            assert _value(table, key) == model.get(key)
        else:
            removed = table.remove(key)
            assert (removed and removed.value) == model.pop(key, None)
    assert len(table) == len(model)
    # Sorted iteration and ordered successor steps are what a merge's
    # single pass and the snowshovel drain depend on.
    ordered = [(key, model[key]) for key in sorted(model)]
    assert [(r.key, r.value) for r in table] == ordered
    assert table.first_key() == (ordered[0][0] if ordered else None)
    tail = [pair for pair in ordered if pair[0] >= probe]
    ceiling = table.ceiling(probe)
    assert (ceiling and (ceiling.key, ceiling.value)) == (
        tail[0] if tail else None
    )
    assert [(r.key, r.value) for r in table.scan(probe, None)] == tail

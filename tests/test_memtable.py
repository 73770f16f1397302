"""Unit tests for the C0 memtable."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memtable import MemTable, SnowshovelCursor
from repro.records import Record, fold


def test_put_and_get():
    table = MemTable(1024)
    record = Record.base(b"k", b"v", 1)
    table.put(record)
    assert table.get(b"k") == record


def test_byte_accounting_on_insert_and_overwrite():
    table = MemTable(10_000)
    table.put(Record.base(b"k", b"v" * 10, 1))
    first = table.nbytes
    table.put(Record.base(b"k", b"v" * 50, 2))
    assert table.nbytes == first + 40
    assert len(table) == 1


def test_fill_fraction():
    table = MemTable(100)
    table.put(Record.base(b"k", b"v" * 34, 1))  # 16 + 1 + 34 = 51 bytes
    assert table.fill_fraction == pytest.approx(0.51)


def test_newer_write_supersedes():
    table = MemTable(1024)
    table.put(Record.base(b"k", b"old", 1))
    table.put(Record.base(b"k", b"new", 2))
    assert table.get(b"k").value == b"new"


def test_delta_folds_onto_resident_base():
    table = MemTable(1024)
    table.put(Record.base(b"k", b"v", 1))
    table.put(Record.delta(b"k", b"+d", 2))
    record = table.get(b"k")
    assert record.is_base
    assert record.value == b"v+d"


def test_delta_without_base_stays_delta():
    table = MemTable(1024)
    table.put(Record.delta(b"k", b"+d", 1))
    assert table.get(b"k").is_delta


def test_tombstone_supersedes():
    table = MemTable(1024)
    table.put(Record.base(b"k", b"v", 1))
    table.put(Record.tombstone(b"k", 2))
    assert table.get(b"k").is_tombstone


def test_remove_updates_bytes():
    table = MemTable(1024)
    table.put(Record.base(b"k", b"v", 1))
    removed = table.remove(b"k")
    assert removed is not None
    assert table.nbytes == 0
    assert table.is_empty


def test_remove_missing_returns_none():
    table = MemTable(1024)
    assert table.remove(b"nope") is None


def test_iteration_sorted():
    table = MemTable(10_000)
    for i in (5, 1, 3, 2, 4):
        table.put(Record.base(b"%d" % i, b"", i))
    assert [r.key for r in table] == [b"1", b"2", b"3", b"4", b"5"]


def test_iter_from_and_scan():
    table = MemTable(10_000)
    for i in range(10):
        table.put(Record.base(b"%02d" % i, b"", i))
    assert [r.key for r in table.iter_from(b"07")] == [b"07", b"08", b"09"]
    assert [r.key for r in table.scan(b"03", b"06")] == [b"03", b"04", b"05"]
    assert [r.key for r in table.scan(b"08", None)] == [b"08", b"09"]


def test_first_and_ceiling_key():
    table = MemTable(1024)
    assert table.first_key() is None
    table.put(Record.base(b"m", b"", 1))
    table.put(Record.base(b"c", b"", 2))
    assert table.first_key() == b"c"
    assert table.ceiling_key(b"d") == b"m"
    assert table.ceiling_key(b"z") is None


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        MemTable(0)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=8),
            st.integers(0, 2),
            st.binary(max_size=24),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_tombstones_folds_and_replay_duplicates_match_a_fold_model(ops):
    table = MemTable(1 << 30, seed=5)
    model = {}
    records = []
    for seqno, (key, op, value) in enumerate(ops):
        if op == 0:
            record = Record.base(key, value, seqno)
        elif op == 1:
            record = Record.tombstone(key, seqno)
        else:
            record = Record.delta(key, value, seqno)
        records.append(record)
        table.put(record)
        model[key] = fold(record, model[key]) if key in model else record

    def check():
        assert table.nbytes == sum(r.nbytes for r in model.values())
        assert list(table) == [model[key] for key in sorted(model)]
        for key in model:
            assert table.get(key) == model[key]

    check()
    # A crash replay re-puts records C0 already holds: nothing moves.
    for record in records:
        table.put(record)
    check()


class _View:
    """A reader registered on C0, as an open snapshot is."""

    def __init__(self, table):
        self.table = table
        self.copy = None
        table.attach_view(self)

    def materialize(self):
        self.copy = list(self.table)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 6), st.integers(0, 15), st.binary(max_size=6)
        ),
        max_size=80,
    ),
    bounds=st.tuples(st.integers(0, 16), st.integers(0, 16)),
)
def test_the_index_and_the_skip_list_hold_the_same_records(ops, bounds):
    """Base, tombstone and delta puts on resident and absent keys,
    replayed duplicates, drains through a cursor over ``[lo, hi)``,
    removals of absent keys and snapshots materialised by the next
    write: after every step the hash index and the skip list hold the
    same pairs, and ``get`` agrees with a fold model."""
    lo, hi = sorted(b"%02d" % bound for bound in bounds)
    hi = None if hi == b"16" else hi
    table = MemTable(1 << 20, seed=3)
    cursor = SnowshovelCursor(table, lo, hi)
    model: dict[bytes, Record] = {}
    written: list[Record] = []
    view = opened = None
    position = lo  # the model's cursor
    for seqno, (op, k, value) in enumerate(ops, start=1):
        key = b"%02d" % k
        if op <= 3:
            if op == 3 and written:  # a replayed duplicate: an older seqno
                record = written[k % len(written)]
            elif op == 1:
                record = Record.tombstone(key, seqno)
            elif op == 2:
                record = Record.delta(key, value, seqno)
            else:
                record = Record.base(key, value, seqno)
            written.append(record)
            table.put(record)
            old = model.get(record.key)
            model[record.key] = record if old is None else fold(record, old)
        elif op == 4:  # drain up to k % 4 + 1 records of the run
            for _ in range(k % 4 + 1):
                run = [
                    x for x in sorted(model)
                    if x >= position and (hi is None or x < hi)
                ]
                got = cursor.next_record()
                if not run:
                    assert got is None
                    cursor.start_new_run()
                    position = lo
                    break
                assert got == model.pop(run[0])
                position = got.key + b"\x00"
        elif op == 5:
            assert table.remove(b"x" + key) is None
        elif view is None:  # open a snapshot; the next mutation copies
            view, opened = _View(table), [model[x] for x in sorted(model)]
        if view is not None and view.copy is not None:
            assert view.copy == opened
            view = None
        pairs = list(table._tree)
        assert pairs == sorted(table._index.items())
        assert pairs == sorted(model.items())
        for probe in range(17):
            assert table.get(b"%02d" % probe) == model.get(b"%02d" % probe)
        assert table.nbytes == sum(r.nbytes for r in model.values())

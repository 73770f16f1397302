"""Unit tests for snowshoveling (replacement selection)."""

import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memtable import MemTable, SnowshovelCursor, replacement_selection_runs
from repro.memtable.snowshovel import run_length_multiplier
from repro.records import Record


def fill(table, keys, start_seqno=0):
    for i, key in enumerate(keys):
        table.put(Record.base(key, b"v", start_seqno + i))


def head(cursor):
    """The run's next record, or ``None`` at its end."""
    keys, index, start, end = cursor.span()
    return index[keys[start]] if start < end else None


def take(cursor):
    """Take the run's next record off C0 as a merge step takes what it
    drained: one slice moved into an overlay, the cursor past it."""
    keys, index, start, end = cursor.span()
    if start == end:
        raise StopIteration("snowshovel run exhausted")
    record = index[keys[start]]
    cursor.take(start + 1, record.nbytes, record.key, MemTable(1 << 30))
    return record


def advance_past(cursor, key):
    """Move the cursor past ``key`` taking nothing, as a merge step does
    that wrote only the downstream tree's records up to ``key``."""
    start = cursor.span()[2]
    cursor.take(start, 0, key, None)


def drain(cursor):
    """Take the rest of the cursor's run; the keys, in order."""
    keys = []
    while head(cursor) is not None:
        keys.append(take(cursor).key)
    return keys


class TestSnowshovelCursor:
    def test_drains_in_key_order(self):
        table = MemTable(10_000)
        fill(table, [b"c", b"a", b"b"])
        assert drain(SnowshovelCursor(table)) == [b"a", b"b", b"c"]
        assert table.is_empty

    def test_inserts_ahead_of_cursor_join_run(self):
        table = MemTable(10_000)
        fill(table, [b"b", b"d"])
        cursor = SnowshovelCursor(table)
        assert take(cursor).key == b"b"
        table.put(Record.base(b"c", b"v", 10))  # lands ahead of cursor
        assert drain(cursor) == [b"c", b"d"]

    def test_inserts_behind_cursor_wait_for_next_run(self):
        table = MemTable(10_000)
        fill(table, [b"b", b"d"])
        cursor = SnowshovelCursor(table)
        assert take(cursor).key == b"b"
        table.put(Record.base(b"a", b"v", 10))  # behind the cursor
        assert drain(cursor) == [b"d"]  # run over; 'a' remains
        with pytest.raises(StopIteration):
            take(cursor)
        # The next run is a fresh cursor at lo, as each C0:C1 pass builds.
        assert drain(SnowshovelCursor(table)) == [b"a"]

    def test_advance_past_skips_intermediate_keys(self):
        table = MemTable(10_000)
        fill(table, [b"a", b"m"])
        cursor = SnowshovelCursor(table)
        assert take(cursor).key == b"a"
        advance_past(cursor, b"k")
        table.put(Record.base(b"c", b"v", 10))  # now behind the cursor
        assert drain(cursor) == [b"m"]
        assert table.get(b"c") is not None

    def test_advance_past_never_moves_backwards(self):
        table = MemTable(10_000)
        fill(table, [b"x"])
        cursor = SnowshovelCursor(table)
        advance_past(cursor, b"m")
        advance_past(cursor, b"c")  # earlier key: must not rewind
        table.put(Record.base(b"d", b"v", 10))  # between c and m
        assert head(cursor).key == b"x"


class TestReplacementSelection:
    def test_sorted_input_is_one_run(self):
        # Best case (Section 4.2): sorted arrivals stream straight out.
        keys = [b"%05d" % i for i in range(1000)]
        runs = replacement_selection_runs(keys, memory_items=50)
        assert len(runs) == 1
        assert runs[0] == keys

    def test_reverse_input_runs_are_memory_sized(self):
        # Worst case: reverse order gives runs exactly one memory-full.
        keys = [b"%05d" % i for i in range(999, -1, -1)]
        runs = replacement_selection_runs(keys, memory_items=50)
        assert len(runs) == 20
        assert all(len(run) == 50 for run in runs)

    def test_random_input_doubles_run_length(self):
        rng = random.Random(11)
        keys = [b"%07d" % rng.randrange(10**7) for _ in range(20000)]
        multiplier = run_length_multiplier(keys, memory_items=500)
        assert 1.7 < multiplier < 2.4  # Section 4.2's factor of ~2

    def test_runs_are_sorted_and_complete(self):
        rng = random.Random(3)
        keys = [b"%05d" % rng.randrange(10**5) for _ in range(2000)]
        runs = replacement_selection_runs(keys, memory_items=100)
        flattened = [key for run in runs for key in run]
        assert sorted(flattened) == sorted(keys)
        for run in runs:
            assert run == sorted(run)

    def test_small_input_single_run(self):
        runs = replacement_selection_runs([b"b", b"a"], memory_items=10)
        assert runs == [[b"a", b"b"]]

    def test_empty_input(self):
        assert replacement_selection_runs([], memory_items=4) == []
        assert run_length_multiplier([], 4) == 0.0

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            replacement_selection_runs([b"a"], memory_items=0)


# ---------------------------------------------------------------------------
# The drain against a sorted-list model
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 47), st.integers(1, 5)),
        max_size=120,
    ),
    bounds=st.tuples(st.integers(0, 48), st.integers(0, 48)),
)
def test_the_drain_matches_a_sorted_list_model(ops, bounds):
    """One partition's ``[lo, hi)`` drained while C0 takes inserts ahead
    of and behind the cursor, overwrites of resident keys, removals that
    do not go through the cursor, new runs (a fresh cursor at ``lo``)
    and drains to empty; what it drains and what C0 keeps match a
    sorted list after every step."""
    lo, hi = sorted(b"%02d" % bound for bound in bounds)
    hi = None if hi == b"48" else hi
    table = MemTable(1 << 20)
    cursor = SnowshovelCursor(table, lo, hi)
    model: list[bytes] = []  # resident keys, sorted
    position = lo  # the model's cursor
    seqno = 0

    def in_run(key):
        return key >= position and (hi is None or key < hi)

    for op, k, n in ops:
        key = b"%02d" % k
        seqno += 1
        if op in (0, 1):  # write: a new key, or an overwrite of a resident
            if op == 1 and model:
                key = model[k % len(model)]
            table.put(Record.base(key, b"v%d" % seqno, seqno))
            if key not in model:
                bisect.insort(model, key)
        elif op in (2, 3):  # drain n records, or to the end of the run
            for _ in range(n if op == 2 else len(model) + 1):
                expected = next((x for x in model if in_run(x)), None)
                record = head(cursor)
                assert (record and record.key) == expected
                if record is None:
                    break
                assert take(cursor) is record
                model.remove(record.key)
                position = record.key + b"\x00"
        elif op == 4:
            cursor = SnowshovelCursor(table, lo, hi)
            position = lo
        elif op == 5 and model:  # a removal that does not use the cursor
            victim = model.pop(k % len(model))
            assert table.remove(victim).key == victim
        elif op == 6:
            advance_past(cursor, key)
            position = max(position, key + b"\x00")
        assert [record.key for record in table] == model

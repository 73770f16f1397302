"""Unit tests for the incremental merge process."""

import pytest

from repro.core.merge import (
    EmptySource,
    FrozenSource,
    MergeProcess,
    SnowshovelSource,
)
from repro.memtable import MemTable
from repro.records import Record
from repro.sstable import SSTableBuilder
from repro.storage import Stasis


@pytest.fixture
def stasis():
    return Stasis(buffer_pool_pages=64)


def make_table(stasis, keys, tree_id=1, seqno=0):
    builder = SSTableBuilder(stasis, tree_id=tree_id, expected_keys=len(keys))
    for i, key in enumerate(sorted(keys)):
        builder.add(Record.base(key, b"old", seqno + i))
    return builder.finish()


def make_memtable(keys, seqno=100):
    table = MemTable(1 << 20)
    for i, key in enumerate(keys):
        table.put(Record.base(key, b"new", seqno + i))
    return table


class TestSources:
    def test_empty_source(self):
        source = EmptySource()
        assert source.peek() is None
        with pytest.raises(StopIteration):
            source.pop()

    def test_frozen_source_orders(self):
        records = [Record.base(b"a", b"", 0), Record.base(b"b", b"", 1)]
        source = FrozenSource(iter(records))
        assert source.peek().key == b"a"
        assert source.pop().key == b"a"
        assert source.pop().key == b"b"
        assert source.peek() is None

    def test_snowshovel_source_sees_live_inserts(self):
        table = make_memtable([b"b"])
        source = SnowshovelSource(table)
        assert source.pop().key == b"b"
        table.put(Record.base(b"c", b"", 200))
        assert source.peek().key == b"c"


class TestMergeProcess:
    def test_merge_into_empty_level(self, stasis):
        memtable = make_memtable([b"a", b"b", b"c"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=7,
            input_bytes=memtable.nbytes,
            expected_keys=3,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.done
        assert process.output.key_count == 3
        assert memtable.is_empty

    def test_merge_combines_and_prefers_newer(self, stasis):
        old = make_table(stasis, [b"a", b"b"])
        memtable = make_memtable([b"b", b"c"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=8,
            input_bytes=memtable.nbytes + old.nbytes,
            expected_keys=4,
            drop_tombstones=False,
        )
        process.run_to_completion()
        out = process.output
        assert out.key_count == 3
        assert out.get(b"b").value == b"new"
        assert out.get(b"a").value == b"old"

    def test_step_respects_budget(self, stasis):
        memtable = make_memtable([b"k%03d" % i for i in range(100)])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=9,
            input_bytes=memtable.nbytes,
            expected_keys=100,
            drop_tombstones=False,
        )
        worked = process.step(100)
        assert 0 < worked <= 200  # may overshoot by at most one record
        assert not process.done
        assert 0 < process.inprogress < 1

    def test_inprogress_reaches_one(self, stasis):
        memtable = make_memtable([b"a"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=10,
            input_bytes=memtable.nbytes,
            expected_keys=1,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.inprogress == 1.0
        assert process.step(1000) == 0  # completed merges do nothing

    def test_tombstones_dropped_at_bottom(self, stasis):
        old = make_table(stasis, [b"a"])
        memtable = MemTable(1 << 20)
        memtable.put(Record.tombstone(b"a", 50))
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=11,
            input_bytes=old.nbytes + memtable.nbytes,
            expected_keys=2,
            drop_tombstones=True,
        )
        process.run_to_completion()
        assert process.output is None  # everything merged away

    def test_tombstones_kept_mid_tree(self, stasis):
        old = make_table(stasis, [b"a"])
        memtable = MemTable(1 << 20)
        memtable.put(Record.tombstone(b"a", 50))
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=12,
            input_bytes=old.nbytes + memtable.nbytes,
            expected_keys=2,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.output.get(b"a").is_tombstone

    def test_overlay_keeps_consumed_records_readable(self, stasis):
        memtable = make_memtable([b"a", b"b"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=13,
            input_bytes=memtable.nbytes,
            expected_keys=2,
            drop_tombstones=False,
        )
        process.step(1)  # consumes at least record a
        assert memtable.get(b"a") is None
        assert process.overlay_get(b"a") is not None
        assert [r.key for r in process.overlay.scan(b"a", None)] == [b"a"]

    def test_seqno_tracking(self, stasis):
        memtable = make_memtable([b"a", b"b"], seqno=40)
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=14,
            input_bytes=memtable.nbytes,
            expected_keys=2,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.min_seqno_consumed == 40
        assert process.max_seqno_consumed == 41

    def test_abort_frees_partial_output(self, stasis):
        memtable = make_memtable([b"k%03d" % i for i in range(200)])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=15,
            input_bytes=memtable.nbytes,
            expected_keys=200,
            drop_tombstones=False,
        )
        process.step(1000)
        process.abort()
        assert process.done
        assert stasis.regions.allocated_extents == []

    def test_live_insert_ahead_of_cursor_joins_pass(self, stasis):
        memtable = make_memtable([b"b", b"y"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=16,
            input_bytes=memtable.nbytes,
            expected_keys=4,
            drop_tombstones=False,
        )
        process.step(1)  # emits b
        memtable.put(Record.base(b"m", b"mid", 500))
        process.run_to_completion()
        keys = [r.key for r in process.output.iter_records()]
        assert keys == [b"b", b"m", b"y"]

    def test_cursor_tracks_older_source_output(self, stasis):
        # A fresh insert between the snowshovel cursor and a key already
        # emitted from C1 must wait for the next pass (ordering).
        old = make_table(stasis, [b"m", b"z"])
        memtable = make_memtable([b"a"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=17,
            input_bytes=old.nbytes + memtable.nbytes,
            expected_keys=4,
            drop_tombstones=False,
        )
        # Consume 'a' and 'm' (two records); then insert 'c' < 'm'.
        process.step(2 * 30)
        memtable.put(Record.base(b"c", b"late", 600))
        process.run_to_completion()
        keys = [r.key for r in process.output.iter_records()]
        assert keys == [b"a", b"m", b"z"]
        assert memtable.get(b"c") is not None  # waits for the next pass

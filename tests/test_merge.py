"""Unit tests for the incremental merge process, the only merge executor."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.merge import (
    EmptySource,
    FrozenSource,
    MergedSource,
    MergeProcess,
    SnowshovelSource,
    StreamSource,
    _AccessDeferred,
)
from repro.memtable import MemTable
from repro.records import Record, RecordKind
from repro.sim import DiskModel
from repro.sstable import SSTableBuilder
from repro.sstable.iterator import merge_records
from repro.storage import Stasis
from repro.storage.stasis import WAIT, StepGate


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
        assert process.overlay.get(b"a") is not None
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


# ---------------------------------------------------------------------------
# Differential: the record-at-a-time step the merge loop replaced
# ---------------------------------------------------------------------------
#
# ``ReferenceMerge`` is MergeProcess with the previous inner loop, kept
# here as the reference: both inputs peeked for every record, one record
# (or one equal-key pair) folded through ``merge_records`` per iteration,
# an on-disk input read one record at a time (``_gated_records``), and
# C0 drained by a search from the skip list's head for every peek.  Two
# worlds rebuilt from one seed run the same steps and C0 writes; the
# bytes each step consumes, the device trace, the outputs and what C0
# and a snapshot hold must all agree.

KEYS = [b"k%05d" % i for i in range(400)]


def _gated_records(table, gate):
    """The table one record at a time, ``WAIT`` where the gate puts its
    next streaming run off."""
    for run in table.iter_runs(gate):
        if run is WAIT:
            yield WAIT
        else:
            yield from run


class _ReferenceStream:
    """An input read one record at a time; ``WAIT`` defers the step."""

    def __init__(self, records) -> None:
        self._iterator = iter(records)
        self._head = WAIT

    def peek(self):
        head = self._head
        if head is WAIT:
            head = self._head = next(self._iterator, None)
            if head is WAIT:
                raise _AccessDeferred
        return head

    def pop(self):
        record = self._head
        if record is WAIT:
            record = self.peek()
        if record is None:
            raise StopIteration("source exhausted")
        self._head = next(self._iterator, None)
        return record


class _ReferenceDrain:
    """C0 in ``[lo, hi)``, searched from the skip list's head each time."""

    def __init__(self, memtable, lo=b"", hi=None) -> None:
        self._memtable = memtable
        self._hi = hi
        self._cursor = lo

    def peek(self):
        return next(self._memtable.scan(self._cursor, self._hi), None)

    def pop(self):
        head = self.peek()
        if head is None:
            raise StopIteration("drain exhausted")
        assert self._memtable.remove(head.key) is head
        self._cursor = head.key + b"\x00"
        return head

    def advance_past(self, key):
        successor = key + b"\x00"
        if successor > self._cursor:
            self._cursor = successor


class ReferenceMerge(MergeProcess):
    """MergeProcess stepping one output record per loop iteration."""

    def _open_stream(self, table):
        self._readahead_pages += min(self._stasis.streaming_pages, table.npages)
        return _ReferenceStream(_gated_records(table, self._gate))

    def step(self, budget_bytes):
        if self.done or budget_bytes <= 0:
            return 0
        stats = self._stats
        reads, writes = stats.read_ops, stats.write_ops
        seeks, write_seeks = stats.seeks, stats.write_seeks
        self._gate.open()
        consumed = 0
        try:
            while consumed < budget_bytes:
                newer_head = self._newer.peek()
                older_head = self._older.peek()
                if newer_head is None and older_head is None:
                    self._complete()
                    break
                consumed += self._emit_one(newer_head, older_head)
        except _AccessDeferred:
            pass
        self.bytes_read += consumed
        self.read_calls += stats.read_ops - reads
        self.write_calls += stats.write_ops - writes
        self.seeks += stats.seeks - seeks
        self.write_seeks += stats.write_seeks - write_seeks
        if consumed == 0 and not self.done and not self._gate.clear:
            return 1
        return consumed

    def _emit_one(self, newer_head, older_head):
        consumed = 0
        group = []
        take_newer = newer_head is not None and (
            older_head is None or newer_head.key <= older_head.key
        )
        take_older = older_head is not None and (
            newer_head is None or older_head.key <= newer_head.key
        )
        if take_newer:
            record = self._newer.pop()
            group.append(record)
            consumed += record.nbytes
            self._took_newer(record)
        if take_older:
            record = self._older.pop()
            group.append(record)
            consumed += record.nbytes
            if self._track_overlay:
                self._newer.advance_past(record.key)
        merged = merge_records(group, drop_tombstones=self._drop_tombstones)
        if merged is not None:
            self._builder.add(merged)
            if (
                self._split_output_bytes is not None
                and self._builder.nbytes >= self._split_output_bytes
            ):
                self._rotate_builder()
        return consumed


def _version(rng, key, seqno):
    roll = rng.random()
    if roll < 0.12:
        return Record.tombstone(key, seqno)
    value = bytes([seqno % 251]) * rng.choice((8, 200, 1500, 3000, 6000))
    if roll < 0.3:
        return Record.delta(key, value, seqno)
    return Record.base(key, value, seqno)


def _component(stasis, rng, keys, seqno, tree_id):
    if not keys:
        return None
    builder = SSTableBuilder(stasis, tree_id=tree_id, expected_keys=len(keys))
    for i, key in enumerate(sorted(keys)):
        builder.add(_version(rng, key, seqno + i))
    return builder.finish()


class _View:
    """A snapshot reading C0 in place: copies it before the first change."""

    def __init__(self, memtable) -> None:
        self.memtable = memtable
        self.copy = None

    def materialize(self):
        self.copy = list(self.memtable)


def _differential_world(seed, reference):
    """Build one merge from ``seed`` and run its script; report what the
    device, the output and C0 saw."""
    rng = random.Random(seed)
    kind = ("m01", "m12", "frozen")[seed % 3]
    stasis = Stasis(disk_model=DiskModel.ssd(), buffer_pool_pages=16)
    lo, hi = b"", None
    if kind == "m01" and rng.random() < 0.5:  # one partition's range
        a, b = sorted(rng.sample(range(len(KEYS)), 2))
        lo, hi = KEYS[a], KEYS[b] if rng.random() < 0.8 else None
    in_range = [k for k in KEYS if lo <= k and (hi is None or k < hi)]
    older = _component(
        stasis, rng, rng.sample(in_range, rng.randrange(len(in_range) + 1)),
        1, tree_id=1,
    )
    memtable = MemTable(1 << 30)
    for i, key in enumerate(rng.sample(KEYS, rng.randrange(1, 200))):
        memtable.put(_version(rng, key, 10_000 + i))
    if kind == "m12":
        newer = _component(
            stasis, rng, rng.sample(KEYS, rng.randrange(1, 300)), 5_000, 2
        )
    elif kind == "frozen":
        newer = (_ReferenceStream if reference else FrozenSource)(
            iter(list(memtable))
        )
    else:
        drain = _ReferenceDrain if reference else SnowshovelSource
        newer = drain(memtable, lo, hi)
    split = rng.choice((None, None, 8_192, 60_000))
    ids = iter(range(100, 10_000))
    process = (ReferenceMerge if reference else MergeProcess)(
        stasis,
        newer=newer,
        older=older,
        tree_id=3,
        input_bytes=memtable.nbytes + (older.nbytes if older else 0),
        expected_keys=len(memtable) + (older.key_count if older else 0),
        drop_tombstones=rng.random() < 0.5,
        split_output_bytes=split,
        tree_id_source=(lambda: next(ids)) if split else None,
    )
    disk = stasis.data_disk
    disk.start_trace()
    worked, views, prefixes, script = [], [], [], set()
    seqno = 20_000
    while not process.done:
        roll = rng.random()
        if roll < 0.25 and kind == "m01":  # a C0 write, ahead or behind
            seqno += 1
            key = rng.choice(KEYS)
            script.add("put-ahead" if key >= newer._cursor else "put-behind")
            memtable.put(_version(rng, key, seqno))
        elif roll < 0.28 and kind == "m01":  # a snapshot opens on C0
            view = _View(memtable)
            memtable.attach_view(view)
            views.append(view)
            prefixes.append(process.overlay.prefix())
        else:
            budget = rng.choice(
                (1, rng.randrange(1, 300), rng.randrange(300, 12_000),
                 rng.randrange(12_000, 200_000), 1 << 30)
            )
            worked.append(process.step(budget))
            script.add(f"budget-{budget}")
    trace = [
        (e.kind, e.offset, e.nbytes, e.seek, e.time) for e in disk.stop_trace()
    ]
    outputs = [
        (
            table.blocks, table.extents, table.key_count, table.nbytes,
            table.max_key, table.bloom.to_bytes(), table.bloom.ninserted,
            list(table.iter_records()),
        )
        for table in process.outputs
    ]
    return {
        "steps": worked,
        "trace": trace,
        "outputs": outputs,
        "counts": (
            process.bytes_read, process.newer_bytes_read,
            process.min_seqno_consumed, process.max_seqno_consumed,
            process.read_calls, process.seeks, process.write_calls,
            process.write_seeks,
        ),
        "overlay": list(process.overlay.records),
        "snapshots": [
            (view.copy, list(prefix.scan(b"", None)))
            for view, prefix in zip(views, prefixes)
        ],
        "c0": list(memtable),
        "clock": stasis.clock.now,
        "process": process,
        "script": script,
    }


@pytest.mark.parametrize("seed", range(60))
def test_the_merge_loop_matches_the_record_at_a_time_reference(seed):
    new = _differential_world(seed, reference=False)
    old = _differential_world(seed, reference=True)
    assert new["steps"] == old["steps"]
    assert new["trace"] == old["trace"]
    for key in ("outputs", "counts", "overlay", "snapshots", "c0", "clock"):
        assert new[key] == old[key], key


def test_the_differential_cases_cover_what_the_loop_must_keep(monkeypatch):
    """The seeds reach every case the loop must keep: 1-byte and
    unbounded budgets, gate deferrals of either input, equal keys with
    deltas and tombstones folded both with and without the tombstone
    drop, split outputs, C0 writes on both sides of the cursor, and a
    snapshot of C0 taken mid-drain."""
    seen = set()
    deferred = []
    peek = StreamSource.peek

    def deferring_peek(self):
        try:
            return peek(self)
        except _AccessDeferred:
            deferred.append(self)
            raise

    def folding(group, drop_tombstones):
        kinds = "/".join(record.kind.name for record in group)
        seen.add(f"fold-{kinds}-drop={drop_tombstones}")
        return merge_records(group, drop_tombstones=drop_tombstones)

    monkeypatch.setattr(StreamSource, "peek", deferring_peek)
    monkeypatch.setattr("repro.core.merge.merge_records", folding)
    for seed in range(60):
        kind = ("m01", "m12", "frozen")[seed % 3]
        world = _differential_world(seed, reference=False)
        seen |= world["script"]
        process = world["process"]
        for source in deferred:
            side = "newer" if source is process._newer else "older"
            seen.add(f"deferred-{side}-{kind}")
        deferred.clear()
        if len(world["outputs"]) > 1:
            seen.add(f"split-{kind}")
        if any(copy for copy, _ in world["snapshots"]):
            seen.add("snapshot")
    assert {
        "budget-1", f"budget-{1 << 30}",
        "deferred-older-m01", "deferred-newer-m12", "deferred-older-m12",
        "deferred-older-frozen",
        "fold-DELTA/BASE-drop=True", "fold-DELTA/TOMBSTONE-drop=False",
        "fold-TOMBSTONE/BASE-drop=True", "fold-TOMBSTONE/DELTA-drop=False",
        "split-m01", "split-m12",
        "put-ahead", "put-behind", "snapshot",
    } <= seen


def _paged_table(stasis, prefix, tree_id, n=200):
    """Records of about a page each: several streaming runs per table."""
    builder = SSTableBuilder(stasis, tree_id=tree_id, expected_keys=n)
    for i in range(n):
        builder.add(Record.base(prefix + b"%04d" % i, bytes(4000), i))
    return builder.finish()


def test_a_deferred_peek_keeps_the_bytes_the_run_took():
    """C1':C2 with the newer input's first run wholly below the older
    head: the step copies that run, finds the newer input's next run
    deferred by the gate, and still reports the bytes it copied."""
    results = []
    for reference in (False, True):
        stasis = Stasis(disk_model=DiskModel.ssd(), buffer_pool_pages=16)
        newer = _paged_table(stasis, b"a", 2)
        older = _paged_table(stasis, b"z", 1)
        process = (ReferenceMerge if reference else MergeProcess)(
            stasis,
            newer=newer,
            older=older,
            tree_id=3,
            input_bytes=newer.nbytes + older.nbytes,
            expected_keys=400,
            drop_tombstones=False,
        )
        results.append([process.step(1 << 30) for _ in range(3)])
    new, old = results
    assert new == old
    runs = list(newer.iter_runs())
    assert len(runs) > 2
    # Step 1 reads the newer head and may not read the older one; step 2
    # reads the older head and copies the newer input's first run.
    assert new[:2] == [1, sum(record.nbytes for record in runs[0])]


# ---------------------------------------------------------------------------
# Differential: the k-way policy merge MergeProcess replaced
# ---------------------------------------------------------------------------
#
# ``ReferenceKWayMerge`` is the policy trees' former PolicyMergeJob loop,
# kept as the reference for MergeProcess over k newest-first runs (the
# newest k - 1 drained as one MergedSource): every input's head is
# peeked, all versions of the smallest key are taken at once, folded by
# one ``merge_records`` and counted in the bytes consumed.  Its inputs
# are the same gated StreamSources MergeProcess reads: PolicyMergeJob's
# ``kway_merge`` generator held a group back while the gate put off its
# successor's read (the group's bytes landed in the next step), where a
# stream returns the record and defers the next peek.  It cuts outputs
# at ``split_output_bytes`` as LevelDB's file-granularity merges do.


class ReferenceKWayMerge:
    """One group of equal keys across all k inputs per loop iteration."""

    def __init__(self, stasis, inputs, tree_id, drop_tombstones, split, ids):
        self._stasis = stasis
        self._stats = stasis.data_disk.stats
        self._gate = StepGate(self._stats)
        self._sources = [StreamSource(table, self._gate) for table in inputs]
        self._drop = drop_tombstones
        self._keys = sum(table.key_count for table in inputs)
        self._split, self._ids = split, ids
        self._builder = self._new_builder(
            tree_id, sum(table.nbytes for table in inputs)
        )
        self.outputs = []
        self.done = False

    def _new_builder(self, tree_id, expected_bytes):
        return SSTableBuilder(
            self._stasis, tree_id=tree_id, expected_bytes=expected_bytes,
            expected_keys=self._keys, gate=self._gate,
        )

    def _close(self):
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)

    def step(self, budget_bytes):
        if self.done or budget_bytes <= 0:
            return 0
        self._gate.open()
        consumed = 0
        try:
            while consumed < budget_bytes:
                heads = [source.peek() for source in self._sources]
                keys = [head.key for head in heads if head is not None]
                if not keys:
                    self._close()
                    self.done = True
                    break
                key = min(keys)
                group = [
                    source.pop()
                    for source, head in zip(self._sources, heads)
                    if head is not None and head.key == key
                ]
                consumed += sum(record.nbytes for record in group)
                merged = merge_records(group, drop_tombstones=self._drop)
                if merged is None:
                    continue
                self._builder.add(merged)
                if self._split and self._builder.nbytes >= self._split:
                    self._close()
                    self._builder = self._new_builder(
                        next(self._ids), self._split
                    )
        except _AccessDeferred:
            pass
        if consumed == 0 and not self.done and not self._gate.clear:
            return 1
        return consumed


def _kway_world(seed, reference):
    """k = 1 + seed % 6 overlapping runs merged by one implementation."""
    rng = random.Random(seed)
    k = 1 + seed % 6
    stasis = Stasis(disk_model=DiskModel.ssd(), buffer_pool_pages=16)
    inputs = [  # newest first: a newer run holds higher seqnos
        _component(
            stasis, rng, rng.sample(KEYS, rng.randrange(1, 160)),
            (k - run) * 100_000, tree_id=10 + run,
        )
        for run in range(k)
    ]
    drop = rng.random() < 0.5
    split = rng.choice((None, None, 8_192, 60_000))
    ids = iter(range(100, 10_000))
    if reference:
        merge = ReferenceKWayMerge(stasis, inputs, 3, drop, split, ids)
    else:
        merge = MergeProcess(
            stasis,
            inputs[:-1],
            inputs[-1],
            3,
            input_bytes=sum(table.nbytes for table in inputs),
            expected_keys=sum(table.key_count for table in inputs),
            drop_tombstones=drop,
            split_output_bytes=split,
            tree_id_source=(lambda: next(ids)) if split else None,
        )
    disk = stasis.data_disk
    disk.start_trace()
    steps, budgets = [], set()
    while not merge.done:
        budget = rng.choice(
            (1, rng.randrange(1, 300), rng.randrange(300, 12_000),
             rng.randrange(12_000, 200_000), 2**30)
        )
        budgets.add(budget)
        steps.append(merge.step(budget))
    trace = [
        (e.kind, e.offset, e.nbytes, e.seek, e.time) for e in disk.stop_trace()
    ]
    return {
        "steps": steps,
        "trace": trace,
        "records": [list(table.iter_records()) for table in merge.outputs],
        "extents": [len(table.extents) for table in merge.outputs],
        "bloom": [table.bloom.to_bytes() for table in merge.outputs],
        "clock": stasis.clock.now,
        "k": k,
        "drop": drop,
        "split": len(merge.outputs) > 1,
        "budgets": budgets,
    }


@pytest.mark.parametrize("seed", range(60))
def test_a_kway_merge_matches_the_policy_merge_it_replaced(seed):
    new = _kway_world(seed, reference=False)
    old = _kway_world(seed, reference=True)
    assert new["steps"] == old["steps"]
    for key in ("records", "extents", "bloom", "trace", "clock"):
        assert new[key] == old[key], key
    assert sum(new["steps"]) >= sum(
        record.nbytes for run in new["records"] for record in run
    )


def test_the_kway_cases_cover_what_the_merged_source_must_keep(monkeypatch):
    """The seeds reach k = 1 ... 6, merged-source folds of every kind
    pair (the tombstone drop off) and then against the oldest input
    with the drop on and off, a deferred read inside the merged source,
    split outputs of a merge of three or more runs, and 1-byte and
    unbounded budgets."""
    seen = set()
    peek = StreamSource.peek
    merged = []

    def deferring_peek(self):
        try:
            return peek(self)
        except _AccessDeferred:
            if merged and self in merged[-1]._children:
                seen.add("deferred-in-merged-source")
            raise

    def folding(group, drop_tombstones=False):
        kinds = "/".join(record.kind.name for record in group)
        seen.add(f"fold-{kinds}-drop={drop_tombstones}")
        return merge_records(group, drop_tombstones=drop_tombstones)

    init = MergedSource.__init__

    def tracking_init(self, children):
        init(self, children)
        merged.append(self)

    monkeypatch.setattr(StreamSource, "peek", deferring_peek)
    monkeypatch.setattr(MergedSource, "__init__", tracking_init)
    monkeypatch.setattr("repro.core.merge.merge_records", folding)
    for seed in range(60):
        world = _kway_world(seed, reference=False)
        seen.add(f"k={world['k']}")
        if world["split"] and world["k"] >= 3:
            seen.add("split-kway")
        seen |= {f"budget-{b}" for b in world["budgets"] if b in (1, 2**30)}
    kinds = ("BASE", "DELTA", "TOMBSTONE")
    assert {f"k={k}" for k in range(1, 7)} <= seen
    assert {
        f"fold-{newer}/{older}-drop=False" for newer in kinds for older in kinds
    } <= seen
    assert {
        "fold-DELTA/BASE-drop=True", "fold-TOMBSTONE/BASE-drop=True",
        "deferred-in-merged-source", "split-kway", "budget-1",
        f"budget-{2**30}",
    } <= seen


_VERSION = st.tuples(
    st.sampled_from(list(RecordKind)),
    st.binary(max_size=6),
    st.integers(1, 9),  # seqno gap to the next older version
    st.booleans(),  # carries the coverage of an earlier fold
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VERSION, min_size=2, max_size=7), st.booleans())
def test_folding_the_newest_versions_first_is_the_same_fold(versions, drop):
    """What MergedSource relies on: one fold of a key's versions equals
    folding its newest k - 1 first (the drop off) and then the oldest."""
    group, seqno = [], 1000
    for kind, value, gap, covered in versions:  # newest first
        if kind is RecordKind.TOMBSTONE:
            value = b""
        first = seqno - gap + 1 if covered else -1
        group.append(Record(b"k", value, kind, seqno, first_seqno=first))
        seqno -= gap
    newest = merge_records(group[:-1])
    assert merge_records(
        [newest, group[-1]], drop_tombstones=drop
    ) == merge_records(group, drop_tombstones=drop)

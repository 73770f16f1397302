"""Streaming merge writes: one sequential unit, both directions.

``SSTableBuilder`` writes behind ``Stasis.streaming_pages`` (the unit
merge inputs are read in), a merge step gets one data-device access
(``StepGate``) without losing budget to it, and ASYNC's size-triggered
log appends stream instead of paying a barrier each, written behind on
the log device's one writer, where ASYNC's merge commits and log
checkpoints run too.
"""

import hashlib
import math
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BLSM, BLSMOptions
from repro.core.compaction import CompactionTree
from repro.core.merge import MergeProcess
from repro.core.partitioned import PartitionedBLSM
from repro.engines import build_engine
from repro.faults.crashpoints import enumerate_crash_points
from repro.obs.summary import format_summary, merge_io_by_level
from repro.memtable import MemTable
from repro.records import Record
from repro.sim import DiskModel, SimDisk, StripedDisk, VirtualClock
from repro.sim.disk import MIB
from repro.sstable import SSTableBuilder
from repro.storage import DurabilityMode, LogicalLog, Stasis
from repro.storage.stasis import StepGate
from repro.ycsb.generator import make_key, make_value

PAGE = 4096
KIB = 1024


def write_pages(disk, work):
    """Page counts of the writes ``work()`` issues on ``disk``."""
    disk.start_trace()
    work()
    return [e.nbytes // PAGE for e in disk.stop_trace() if e.kind == "write"]


def run_stream(engine, ops, seed, sizes=(1000,), keyspace=8_000, reads=True):
    rng = random.Random(seed)
    for i in range(ops):
        key = b"user%06d" % rng.randrange(keyspace)
        roll = rng.random()
        if roll < 0.70:
            engine.put(key, bytes([i % 251]) * rng.choice(sizes))
        elif roll < 0.85:
            engine.apply_delta(key, b"+%d" % i)
        elif roll < 0.95:
            engine.delete(key)
        elif reads:
            engine.get(key)


# ---------------------------------------------------------------------------
# (a) every builder write is one streaming unit
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(20, 9000), min_size=1, max_size=4),
    records=st.integers(50, 1500),
    reserve=st.sampled_from([0, 1, 10**9]),
)
def test_builder_writes_whole_units(sizes, records, reserve):
    """Only the last write of an extent (or of the component) is short."""
    stasis = Stasis(observability=False)
    unit = stasis.streaming_pages
    rng = random.Random(records)
    nbytes = [rng.choice(sizes) for _ in range(records)]
    # 0 reserves nothing, 1 the 16-page minimum (both force growth);
    # the huge one gives the whole build a single extent.
    expected = min(reserve, sum(nbytes) + 64 * records)
    builder = SSTableBuilder(
        stasis, tree_id=1, expected_bytes=expected, expected_keys=records
    )
    tables = []

    def build():
        for i, n in enumerate(nbytes):
            builder.add(Record.base(b"k%08d" % i, bytes(n), i))
        tables.append(builder.finish())

    writes = write_pages(stasis.data_disk, build)
    (table,) = tables
    assert max(writes) <= unit
    assert sum(1 for pages in writes if pages < unit) <= len(table.extents)
    assert sum(writes) == sum(block.npages for block in table.blocks)


@pytest.mark.parametrize("name", ["blsm", "blsm-part", "leveled"])
@settings(max_examples=6, deadline=None)
@given(
    sizes=st.lists(st.integers(300, 6000), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_engine_data_writes_are_streaming_units(name, sizes, seed):
    engine = build_engine(
        name, c0_bytes=128 * KIB, cache_pages=32, observability=False
    )
    stasis = engine.tree.stasis
    unit = stasis.streaming_pages
    assert unit == 308
    extents = []
    allocate = stasis.regions.allocate
    stasis.regions.allocate = lambda n: extents.append(n) or allocate(n)
    ops = 3 * MIB * len(sizes) // sum(sizes)  # about 2 MiB of puts
    writes = write_pages(
        stasis.data_disk,
        lambda: run_stream(engine, ops, seed, sizes, keyspace=20_000),
    )
    assert writes and max(writes) <= unit
    # Each extent ends with at most one short write (the component's
    # last run is its last extent's).
    assert sum(1 for pages in writes if pages < unit) <= len(extents)
    if max(extents) >= 2 * unit:
        assert unit in writes


def test_ssd_keeps_the_64_page_floor():
    engine = build_engine(
        "blsm", disk=DiskModel.ssd(), c0_bytes=256 * KIB, cache_pages=32,
        observability=False,
    )
    stasis = engine.tree.stasis
    assert stasis.streaming_pages == 64
    writes = write_pages(
        stasis.data_disk, lambda: run_stream(engine, 4_000, 1)
    )
    assert max(writes) == 64 and writes.count(64) > 10


def test_striped_array_writes_behind_n_member_units():
    stasis = Stasis(
        disk_model=DiskModel.hdd_member(), data_stripes=2, observability=False
    )
    member = DiskModel.hdd_member().streaming_read_bytes
    assert stasis.streaming_pages == math.ceil(2 * member / PAGE) == 615
    builder = SSTableBuilder(
        stasis, tree_id=1, expected_bytes=4 * MIB, expected_keys=4000
    )

    def build():
        for i in range(4000):
            builder.add(Record.base(b"k%08d" % i, bytes(1000), i))
        builder.finish()

    writes = write_pages(stasis.data_disk, build)
    assert writes[:-1] == [stasis.streaming_pages] * (len(writes) - 1)


def test_write_behind_constant_is_only_the_floor():
    """``WRITE_BEHIND_PAGES`` is no second unit: one use, as the floor."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    uses = [
        (path.name, line.strip())
        for path in src.rglob("*.py")
        for line in path.read_text().splitlines()
        if re.search(r"\bWRITE_BEHIND_PAGES\b", line)
    ]
    assert [name for name, _ in uses] == ["stasis.py"] * len(uses)
    code = [line for _, line in uses if not line.startswith(("#", '"', "`"))]
    assert code == ["WRITE_BEHIND_PAGES = 64", "WRITE_BEHIND_PAGES,"]


# ---------------------------------------------------------------------------
# (b) a merge step gets one device access
# ---------------------------------------------------------------------------


def log_steps(monkeypatch, cls, outputs=lambda merge: len(merge.outputs)):
    """Per ``cls.step`` call: (accesses, closed an output, return value)."""
    log = []
    real = cls.step

    def step(self, budget_bytes):
        stats = self._stats
        before = stats.read_ops + stats.write_ops
        closed = outputs(self)
        worked = real(self, budget_bytes)
        log.append(
            (
                stats.read_ops + stats.write_ops - before,
                self.done or outputs(self) != closed,
                worked,
            )
        )
        return worked

    monkeypatch.setattr(cls, "step", step)
    return log


@pytest.fixture
def step_log(monkeypatch):
    return log_steps(monkeypatch, MergeProcess)


def assert_one_access_per_step(log):
    assert log
    # Closing an output flushes its tail whatever the step has touched:
    # the step that completes the merge, or rotates a partition's output.
    assert max(n for n, closed, _ in log if not closed) == 1
    # The access costs the step no budget: it goes on consuming.
    assert any(n == 1 and worked > 1 for n, _, worked in log)
    # 0 means "could not run", never "touched the device and stopped".
    assert all(worked > 0 for n, closed, worked in log if n and not closed)


def fetched_a_head_only(log):
    """Steps that opened an on-disk input and could not consume yet."""
    return [n == 1 and worked == 1 for n, _, worked in log]


@pytest.mark.parametrize("scheduler", ["spring_gear", "gear", "naive"])
def test_blsm_steps_touch_the_device_once(step_log, scheduler):
    tree = BLSM(
        BLSMOptions(
            c0_bytes=256 * KIB, buffer_pool_pages=32, scheduler=scheduler,
            observability=False,
        )
    )
    run_stream(tree, 6_000, 3, reads=False)
    assert tree._c2 is not None  # both merge levels ran
    assert_one_access_per_step(step_log)
    # C1':C2 opens two on-disk inputs: one read per step.
    assert any(fetched_a_head_only(step_log))
    tree.drain()
    assert tree._memtable.is_empty and tree._m01 is None
    tree.compact()
    sizes = tree.component_sizes()
    assert sizes["c0"] == sizes["c1"] == sizes["c1_prime"] == 0 < sizes["c2"]
    assert_one_access_per_step(step_log)


def test_frozen_c0_steps_touch_the_device_once_too(step_log):
    """A frozen C0' over C1 (no snowshovel)."""
    tree = BLSM(
        BLSMOptions(
            c0_bytes=256 * KIB, buffer_pool_pages=32, snowshovel=False,
            scheduler="naive", observability=False,
        )
    )
    run_stream(tree, 4_000, 5, reads=False)
    tree.compact()
    assert tree._frozen is None and tree.component_sizes()["c1"] == 0
    assert_one_access_per_step(step_log)
    assert any(fetched_a_head_only(step_log))


def test_level0_runs_over_level1_step_once_too(step_log):
    """Every input on disk: under the naive scheduler level-0 runs pile
    up to the stop trigger, then merge into level 1 in one stall."""
    tree = CompactionTree(
        BLSMOptions(
            c0_bytes=64 * KIB, buffer_pool_pages=32,
            compaction_policy="leveled", scheduler="naive",
            observability=False,
        )
    )
    run_stream(tree, 4_000, 5, reads=False)
    tree.compact()
    assert tree.manager.run_count(0) == 0
    assert_one_access_per_step(step_log)
    assert any(fetched_a_head_only(step_log))


def test_partitioned_steps_touch_the_device_once(step_log):
    tree = PartitionedBLSM(
        BLSMOptions(c0_bytes=256 * KIB, buffer_pool_pages=32, observability=False)
    )
    run_stream(tree, 6_000, 3, reads=False)
    assert len(tree._partitions) > 1
    assert_one_access_per_step(step_log)
    tree.drain()
    assert tree._memtable.is_empty and not tree.merging


@pytest.mark.parametrize("name", ["leveled", "tiered", "leveldb"])
def test_policy_jobs_touch_the_device_once(monkeypatch, name):
    log = log_steps(monkeypatch, MergeProcess)
    engine = build_engine(
        name, c0_bytes=256 * KIB, cache_pages=32, observability=False
    )
    run_stream(engine, 6_000, 3, reads=False)
    assert_one_access_per_step(log)
    # Opening k runs is k reads: one per step.
    heads = fetched_a_head_only(log)
    assert any(a and b for a, b in zip(heads, heads[1:]))
    engine.tree.compact()
    assert_one_access_per_step(log)


def test_force_drain_sees_a_merge_start_as_progress(step_log):
    """A stall loop must not give up on a step that only fetched a head."""
    tree = BLSM(
        BLSMOptions(
            c0_bytes=256 * KIB, buffer_pool_pages=32, scheduler="naive",
            observability=False,
        )
    )
    for i in range(3_000):
        tree.put(b"k%06d" % ((i * 7919) % 3_000), bytes(1000))
        # The naive scheduler drains a full C0 to empty inside the put.
        assert tree.c0_fill_fraction < 1.0
    assert any(fetched_a_head_only(step_log))


def test_a_frozen_c0_is_taken_in_key_order_one_budget_at_a_time():
    """A merge over a frozen C0' reads nothing when it opens, a budget
    ends on the record that spends it, and the table stays intact."""
    stasis = Stasis(observability=False)
    frozen = MemTable(1 << 20)
    for i in (2, 0, 1):
        frozen.put(Record.base(b"k%d" % i, b"v", i))
    stats = stasis.data_disk.stats
    accesses = stats.read_ops + stats.write_ops
    process = MergeProcess(
        stasis, frozen, None, 1, input_bytes=frozen.nbytes,
        expected_keys=3, drop_tombstones=False,
    )
    assert process.bytes_read == 0  # opening takes nothing
    nbytes = Record.base(b"k0", b"v", 0).nbytes
    assert process.step(1) == nbytes  # ends on the first record
    assert process.step(nbytes + 1) == 2 * nbytes  # on the one past it
    assert process.step(1 << 30) == 0 and process.done
    assert stats.read_ops + stats.write_ops > accesses  # the output
    assert [r.key for r in process.output.iter_records()] == [
        b"k0", b"k1", b"k2"
    ]
    assert [r.key for r in frozen] == [b"k0", b"k1", b"k2"]


def test_a_gated_stream_waits_for_the_next_step():
    """The second run of an input is not read in a step that has already
    touched the device: the step ends with the first run taken, and the
    next step reads the second."""
    stasis = Stasis(observability=False)
    unit = stasis.streaming_pages
    builder = SSTableBuilder(stasis, tree_id=1, expected_bytes=2 * unit * PAGE)
    for i in range(2 * unit):  # about one page each: two runs and a bit
        builder.add(Record.base(b"k%08d" % i, bytes(4000), i))
    table = builder.finish()
    first = table.read_run(0)[0]
    stats = stasis.data_disk.stats
    process = MergeProcess(
        stasis, table, None, 2, input_bytes=table.nbytes,
        expected_keys=table.key_count, drop_tombstones=False,
    )
    reads = stats.read_ops
    worked = process.step(1 << 30)
    assert stats.read_ops == reads + 1
    assert worked == sum(record.nbytes for record in first)
    assert not process.done
    worked = process.step(1)
    assert stats.read_ops == reads + 2
    assert worked == first[0].nbytes  # the second run's first record


def open_gate(gate, stats):
    """Open ``gate`` as a merge step does on entry."""
    gate.mark = stats.read_ops + stats.write_ops


def test_a_write_behind_waits_in_the_builder():
    stasis = Stasis(observability=False)
    unit = stasis.streaming_pages
    gate = StepGate(stasis.data_disk.stats)
    builder = SSTableBuilder(
        stasis, tree_id=1, expected_bytes=4 * unit * PAGE, gate=gate
    )
    added = iter(range(10**6))

    def add_pages(n):
        for _ in range(n):
            i = next(added)
            builder.add(Record.base(b"k%08d" % i, bytes(4000), i))

    open_gate(gate, stasis.data_disk.stats)
    stasis.data_disk.read(0, PAGE)  # the step's one access is spent
    writes = write_pages(stasis.data_disk, lambda: add_pages(unit + 50))
    assert writes == [] and len(builder._pending) >= unit
    open_gate(gate, stasis.data_disk.stats)  # next step: one unit
    assert write_pages(stasis.data_disk, lambda: add_pages(2)) == [unit]
    assert write_pages(stasis.data_disk, lambda: add_pages(unit)) == []
    open_gate(gate, stasis.data_disk.stats)
    tail = write_pages(stasis.data_disk, builder.finish)
    assert tail[0] == unit and max(tail) <= unit


# ---------------------------------------------------------------------------
# (c) what the tree holds does not change
# ---------------------------------------------------------------------------

# state_digest() of this stream at the parent commit (0974e37).
PARENT_DIGEST = "17538c63b531ee2efe036591ef4d94a64f14af174c55940b1599ea894db1946a"


def test_state_digest_matches_the_parent_commit():
    engine = build_engine(
        "blsm", c0_bytes=512 * KIB, cache_pages=32, observability=False
    )
    run_stream(engine, 20_000, 16, sizes=range(20, 1500))
    assert engine.state_digest() == PARENT_DIGEST


# The benchmark's ingest load at 3 000 records: the clock, data seeks,
# bytes read and written, and state_digest() as the record-at-a-time
# merge loop left them (1549b4c), but for the clock, which moved when
# manifest commits began logging version edits (shorter WAL forces),
# when ASYNC log appends began running behind on the log writer, and
# when ASYNC manifest commits and checkpoints followed them there.
# Host-CPU changes to the write path must leave every one in place.
# At these two seeds a step that drops the bytes of a run the gate cut
# short moves the clock and the seeks.
INGEST_TRACE = {
    6: ("0.26961914062499986", 69, 10993664, 13447168,
        "bb5a3509804282b39014f5fe82d039bc54a24d627ab715658bb7ddb35a9c89cf"),
    8: ("0.2593652343749998", 64, 11276288, 13729792,
        "90167c05daa3e0d0d8124203b9cd6a01cda59b7f41b1d18614b1501f821cb730"),
}


@pytest.mark.parametrize("seed", sorted(INGEST_TRACE))
def test_the_ingest_load_keeps_its_device_trace(seed):
    records = 3000
    keys = [make_key(i, False) for i in range(records)]
    random.Random(seed).shuffle(keys)
    rng = random.Random(seed * 7919 + 17)
    pool = [make_value(rng, 1000) for _ in range(32)]
    engine = build_engine(
        "blsm",
        c0_bytes=2 * MIB * records // 45_000,  # the benchmark's C0 : data
        cache_pages=9,
        disk=DiskModel.hdd(),
        scheduler="spring_gear",
        durability="async",
        observability=False,
    )
    for i, key in enumerate(keys):
        engine.put(key, pool[i % len(pool)])
    stats = engine.tree.stasis.data_disk.stats
    assert (
        repr(engine.clock.now),
        stats.seeks,
        stats.bytes_read,
        stats.bytes_written,
        engine.state_digest(),
    ) == INGEST_TRACE[seed]


# ---------------------------------------------------------------------------
# (d) who pays the log barrier
# ---------------------------------------------------------------------------


def make_log(mode):
    disk = SimDisk(DiskModel.hdd(), VirtualClock())
    return LogicalLog(disk, mode), disk


def append_once(log, n=0):
    """Log 1000-byte puts from seqno ``n`` until one more append has
    been issued; the next seqno."""
    forces = log.forces
    while log.forces == forces:
        log.log(n, "put", b"k%08d" % n, bytes(1000))
        n += 1
    return n


def test_async_appends_charge_bandwidth_only():
    log, disk = make_log(DurabilityMode.ASYNC)
    value = bytes(1000)
    n = 0
    while log.forces < 8:  # 8 x 512 KiB of puts
        log.log(n, "put", b"k%08d" % n, value)
        n += 1
    stats = disk.stats
    assert stats.write_ops == 8 and stats.bytes_written >= 8 * 512 * KIB
    model = DiskModel.hdd()
    # The head starts nowhere: one positioning, then pure transfer.
    assert stats.seeks == 1
    assert stats.busy_seconds == pytest.approx(
        model.write_access_seconds
        + stats.bytes_written / model.seq_write_bandwidth
    )
    assert log.durable_records == n - log.pending_count


def test_a_wal_commit_costs_the_log_no_positioning():
    stasis = Stasis(observability=False)  # ASYNC; the WAL shares the tail
    log, stats = stasis.logical_log, stasis.log_disk.stats
    n = append_once(log)
    seeks = stats.seeks
    n = append_once(log, append_once(log, n))
    assert stats.seeks == seeks  # streaming
    stasis.commit_manifest({"generation": 1})  # written at the tail
    n = append_once(log, n)
    assert stats.seeks == seeks  # the head never moved away
    append_once(log, n)
    assert stats.seeks == seeks


def test_explicit_and_sync_forces_still_pay_the_barrier():
    log, disk = make_log(DurabilityMode.ASYNC)
    for i in range(3):
        log.log(i, "put", b"k%d" % i, b"v")
        log.force()  # flush_log / close: a durability request
    assert disk.stats.seeks == 3
    log, disk = make_log(DurabilityMode.SYNC)
    for i in range(5):
        log.log(i, "put", b"k%d" % i, b"v")
    assert log.forces == disk.stats.seeks == 5


def test_group_forces_pay_one_barrier_each():
    engine = build_engine(
        "blsm", durability="group", c0_bytes=256 * KIB, observability=False
    )
    stasis = engine.tree.stasis
    for i in range(20):
        engine.commit_batch([("put", b"k%04d" % i, bytes(100))])
    queue = stasis.group_commit
    assert queue.forces == 20
    # Each leader force repositions for the log and again for the WAL.
    assert stasis.log_disk.stats.seeks >= queue.forces


def test_an_async_append_runs_behind_on_the_log_writer():
    log, disk = make_log(DurabilityMode.ASYNC)
    clock = disk.clock
    append_once(log)
    stats = disk.stats
    assert clock.now == 0.0  # the writer runs it, not the caller
    assert log.writer.now == disk.busy_until > 0.0
    assert stats.bg_busy_seconds == stats.busy_seconds > 0.0
    assert stats.fg_wait_seconds == 0.0


def test_an_append_due_while_one_is_in_flight_waits_for_the_writer():
    log, disk = make_log(DurabilityMode.ASYNC)
    clock = disk.clock
    n = append_once(log)
    in_flight = log.writer.now
    n = append_once(log, n)
    assert clock.now == in_flight  # waited for exactly the first append
    assert log.writer.now > in_flight  # the second is in flight now
    clock.advance(1.0)  # the writer is idle by the third
    now = clock.now
    append_once(log, n)
    assert clock.now == now
    assert log.writer.now > now


def test_a_write_waits_for_the_log_writer_through_the_commit_queue():
    stasis = Stasis(observability=False)  # ASYNC
    log, queue = stasis.logical_log, stasis.group_commit
    drains = []
    drain = queue.drain
    queue.drain = lambda *until: (
        drains.append(stasis.clock.now) or drain(*until)
    )
    n = append_once(log)
    assert drains == []  # the writer was idle
    in_flight = log.writer.now
    append_once(log, n)
    assert drains == [0.0]
    assert stasis.clock.now == in_flight


def test_an_empty_force_waits_for_an_append_in_flight():
    log, disk = make_log(DurabilityMode.ASYNC)
    append_once(log)
    assert log.pending_count == 0
    log.force()  # BTreeEngine.flush / close: nothing left to write
    assert disk.clock.now == log.writer.now > 0.0


@pytest.mark.parametrize("barrier", ["force", "wal"])
def test_a_foreground_barrier_queues_behind_an_append(barrier):
    stasis = Stasis(observability=False)  # ASYNC
    log, stats = stasis.logical_log, stasis.log_disk.stats
    n = append_once(log)
    in_flight = log.writer.now
    if barrier == "force":  # flush_log / close
        log.log(n, "put", b"k%08d" % n, bytes(1000))
        log.force()
        # The caller (at time 0) waited behind the append for the device.
        assert stats.fg_wait_seconds == in_flight > 0.0
        assert stasis.clock.now > in_flight
    else:
        stasis.commit_manifest({"generation": 1})
        # The commit queued behind the append on the writer; the caller
        # did not wait for either.
        assert stasis.clock.now == 0.0
        assert log.writer.now == stasis.log_disk.busy_until > in_flight
        assert stats.fg_wait_seconds == 0.0
        assert stats.bg_busy_seconds == stats.busy_seconds


# ---------------------------------------------------------------------------
# (e) who waits for a merge's commit
# ---------------------------------------------------------------------------


def complete_a_merge(durability):
    """Load a bLSM until a C0:C1 merge runs, then step it to completion
    by hand; the tree and the clock and device deltas of the step that
    completed it (which commits its manifest and checkpoints the log)."""
    tree = BLSM(
        BLSMOptions(
            c0_bytes=64 * KIB,
            buffer_pool_pages=16,
            durability=durability,
            observability=False,
        )
    )
    stasis = tree.stasis
    i = 0
    while tree._m01 is None or tree._c1 is None:
        tree.put(b"user%06d" % (i * 7919 % 10_000), bytes(500))
        i += 1
    data, log = stasis.data_disk.stats, stasis.log_disk.stats
    while True:
        before = (stasis.clock.now, data.snapshot(), log.snapshot())
        tree.step_m01(1 << 20)
        if tree._m01 is None:
            break
    now, data0, log0 = before
    return tree, stasis.clock.now - now, data.delta(data0), log.delta(log0)


def test_an_async_merge_completion_costs_its_caller_only_data_device_time():
    tree, elapsed, data, log = complete_a_merge(DurabilityMode.ASYNC)
    assert data.write_ops > 0 and data.bg_busy_seconds == 0.0
    assert elapsed == pytest.approx(data.busy_seconds + data.fg_wait_seconds)
    # The manifest commit and the checkpoint: all of it on the writer.
    assert log.write_ops >= 2
    assert log.bg_busy_seconds == log.busy_seconds > 0.0
    assert log.fg_wait_seconds == 0.0
    writer = tree.stasis.logical_log.writer
    assert writer.now > tree.stasis.clock.now


@pytest.mark.parametrize(
    "durability", [DurabilityMode.SYNC, DurabilityMode.GROUP]
)
def test_sync_and_group_merge_commits_still_run_on_the_callers_clock(
    durability,
):
    _tree, elapsed, data, log = complete_a_merge(durability)
    assert log.write_ops >= 2 and log.bg_busy_seconds == 0.0
    assert elapsed == pytest.approx(
        data.busy_seconds + data.fg_wait_seconds
        + log.busy_seconds + log.fg_wait_seconds
    )


def test_a_flush_after_a_merge_completion_waits_for_its_commit():
    tree, _elapsed, _data, _log = complete_a_merge(DurabilityMode.ASYNC)
    stasis = tree.stasis
    committed = stasis.logical_log.writer.now
    assert committed > stasis.clock.now
    tree.flush_log()
    assert stasis.clock.now >= committed


def test_the_first_ticket_waits_for_a_commit_in_flight():
    stasis = Stasis(observability=False)  # ASYNC
    clock, log = stasis.clock, stasis.logical_log
    queue = stasis.group_commit
    stasis.commit_manifest({"generation": 1})
    committed = log.writer.now
    assert committed > clock.now == 0.0
    log.log(0, "put", b"k0", bytes(100))
    ticket = queue.submit(0, 0, 1)
    # It waited for the commit, so its leader force started at once.
    assert ticket.enqueued_at == committed
    assert ticket.durable_at is not None and ticket.leader
    # From here on a commit runs on the caller's clock.
    queue.wait(ticket)
    before = clock.now
    stasis.commit_manifest({"generation": 2})
    assert clock.now > before
    assert log.writer.now <= clock.now


def build_component(stasis, tree_id, keys):
    """A one-extent component of ``keys`` through the real builder."""
    builder = SSTableBuilder(
        stasis, tree_id, expected_bytes=keys * 1000, expected_keys=keys
    )
    for i in range(keys):
        builder.add(Record.base(b"k%06d" % i, bytes(1000), i))
    return builder.finish()


def test_a_write_into_space_an_inflight_commit_freed_waits_for_it():
    stasis = Stasis(observability=False)  # ASYNC
    old = build_component(stasis, 1, 200)
    clock, writer = stasis.clock, stasis.logical_log.writer
    stasis.commit_manifest({"generation": 1})  # drops the component ...
    committed = writer.now
    assert committed > clock.now
    old.free()  # ... whose extent goes straight back to the allocator
    drains = []
    drain = stasis.group_commit.drain
    stasis.group_commit.drain = lambda *until: (
        drains.append(until) or drain(*until)
    )
    stasis.data_disk.start_trace()
    new = build_component(stasis, 2, 200)
    first = stasis.data_disk.stop_trace()[0]
    assert new.extents[0].start == old.extents[0].start  # reused space
    # The builder's first write waited for the commit, through drain.
    assert drains == [(committed,)]
    assert first.time - first.service - first.wait == pytest.approx(committed)


def test_a_builder_writing_into_a_freed_extent_waits_for_the_commit():
    stasis = Stasis(observability=False)  # ASYNC
    old = build_component(stasis, 1, 200)
    writer = stasis.logical_log.writer
    stasis.commit_manifest({"generation": 1})
    committed = writer.now
    old.free()
    stasis.data_disk.start_trace()
    new = build_component(stasis, 2, 200)
    write = stasis.data_disk.stop_trace()[0]
    assert new.extents[0].start == old.extents[0].start
    assert write.time - write.service - write.wait == pytest.approx(committed)
    # The clock has passed the commit, so the next check drops its hold.
    stasis.await_commit(old.extents[0].start, 1)
    assert stasis._held == []


def test_a_write_into_fresh_space_does_not_wait_for_a_commit():
    stasis = Stasis(observability=False)  # ASYNC
    old = build_component(stasis, 1, 200)
    clock, writer = stasis.clock, stasis.logical_log.writer
    stasis.commit_manifest({"generation": 1})
    assert writer.now > clock.now  # in flight, but the space is not freed
    now = clock.now
    stasis.data_disk.start_trace()
    new = build_component(stasis, 2, 200)
    first = stasis.data_disk.stop_trace()[0]
    assert new.extents[0].start >= old.extents[0].end
    assert first.time - first.service - first.wait == pytest.approx(now)


def device_trace_digest(durability, tickets=None):
    """Both devices' traced accesses and the clock after 1 500 writes
    (commit batches under GROUP, or with ``tickets``, every fourth one
    waited on)."""
    if tickets is None:
        tickets = durability == "group"
    engine = build_engine(
        "blsm",
        durability=durability,
        c0_bytes=64 * KIB,
        cache_pages=16,
        observability=False,
    )
    stasis = engine.tree.stasis
    stasis.log_disk.start_trace()
    stasis.data_disk.start_trace()
    rng = random.Random(5)
    for i in range(1500):
        key = b"user%06d" % rng.randrange(2000)
        if tickets:
            engine.commit_batch([("put", key, bytes(200))], wait=i % 4 == 3)
        else:
            engine.put(key, bytes(200))
    engine.flush()
    events = (stasis.log_disk.stop_trace(), stasis.data_disk.stop_trace())
    return hashlib.sha256(
        repr((engine.clock.now, events)).encode()
    ).hexdigest()[:16]


# device_trace_digest() pinned when the manifest WAL and the logical log
# began sharing one tail (manifest commits and checkpoints moved to it;
# before: "3f58e70d8480372a" and "cda0a4ed2844a294", unmoved since ASYNC
# appends went onto the log writer, as SYNC and GROUP forces were
# already on the caller's clock or the group-commit writer).
BARRIER_TRACES = {"sync": "2151a18960721017", "group": "63b2c440aca20364"}


@pytest.mark.parametrize("durability", sorted(BARRIER_TRACES))
def test_sync_and_group_device_traces_are_unchanged(durability):
    assert device_trace_digest(durability) == BARRIER_TRACES[durability]


def test_async_tickets_group_as_when_commits_ran_on_the_callers_clock():
    # Under ASYNC too a ticket's leader force starts when the writer is
    # idle.  Once sessions commit through tickets, commits and
    # checkpoints run on the caller's clock, so nothing run behind
    # regroups them: the devices see exactly GROUP's accesses, as
    # before any commit ran behind.
    assert device_trace_digest("async", tickets=True) == BARRIER_TRACES["group"]


def test_crash_point_enumeration_outcome_is_unchanged():
    report = enumerate_crash_points(engine="blsm", ops=120, every=1, seed=0)
    # The same counts as at the parent commit: the crash configuration's
    # components are smaller than either write-behind unit.
    assert report.ok
    assert report.total_accesses == report.points_tested == 120
    assert report.crashes_triggered == report.recoveries_verified == 120


# ---------------------------------------------------------------------------
# striped accounting
# ---------------------------------------------------------------------------


def test_striped_access_books_its_critical_path():
    """4 MiB over 2 members: four chunks per member, back to back.  A
    member's later chunks queue behind its own first one; that is
    service, not waiting."""
    model = DiskModel.hdd_member()
    array = StripedDisk(model, VirtualClock(), stripes=2, chunk_bytes=512 * KIB)
    latency = array.write(0, 4 * MIB)
    per_member = model.write_access_seconds + 2 * MIB / model.seq_write_bandwidth
    assert latency == pytest.approx(per_member)  # 21.7 ms
    stats = array.stats
    assert stats.busy_seconds == pytest.approx(per_member)  # was 4.2 ms
    assert stats.queue_wait_seconds == 0.0
    assert stats.seeks == stats.write_seeks == 2
    assert stats.sequential_efficiency == pytest.approx(
        1 - model.write_access_seconds / per_member
    )


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["blsm", "blsm-part", "leveled"])
def test_merge_events_count_writes_and_write_seeks(name):
    engine = build_engine(name, c0_bytes=256 * KIB, cache_pages=32)
    run_stream(engine, 4_000, 2, reads=False)
    finished = engine.trace("merge_finish")
    assert finished
    for event in finished:
        assert 0 <= event.get("write_seeks") <= event.get("writes")
        assert event.get("write_seeks") <= event.get("seeks")
    assert any(event.get("writes") > 0 for event in finished)
    stats = engine.tree.stasis.data_disk.stats
    assert 0 < stats.write_seeks <= stats.seeks
    progress = engine.trace("merge_progress")
    assert all(e.get("writes") is not None for e in progress)
    # `repro trace`'s merge table sums the finish events per level.
    table = merge_io_by_level(engine.trace())
    assert sum(row[0] for row in table.values()) == len(finished)
    assert sum(row[3] for row in table.values()) == sum(
        event.get("writes") for event in finished
    )
    lines = format_summary(engine.trace())
    assert any(line.endswith("write seeks") for line in lines)


def test_merge_buffers_count_one_unit_per_running_builder():
    tree = BLSM(BLSMOptions(c0_bytes=256 * KIB, buffer_pool_pages=16))
    unit = tree.stasis.streaming_pages
    i = 0
    while tree._m01 is None or tree._m12 is not None:
        tree.put(b"key%06d" % ((i * 7919) % 100_000), bytes(1000))
        i += 1
    c1_pages = tree._c1.npages if tree._c1 is not None else 0
    assert tree._m01.buffer_pages == min(unit, c1_pages) + unit
    assert tree.memory_footprint()["merge_buffers"] == (
        tree._m01.buffer_pages * PAGE
    )

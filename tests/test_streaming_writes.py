"""Streaming merge writes: one sequential unit, both directions.

``SSTableBuilder`` writes behind ``Stasis.streaming_pages`` (the unit
merge inputs are read in), a merge step gets one data-device access
(``StepGate``) without losing budget to it, and ASYNC's size-triggered
log appends stream instead of paying a barrier each.
"""

import math
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BLSM, BLSMOptions
from repro.core.merge import (
    FrozenSource,
    MergeProcess,
    StreamSource,
    _AccessDeferred,
)
from repro.core.partitioned import PartitionedBLSM
from repro.engines import build_engine
from repro.faults.crashpoints import enumerate_crash_points
from repro.obs.summary import format_summary, merge_io_by_level
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


def test_frozen_c0_and_extra_components_step_once_too(step_log):
    """Both inputs on disk (an extra component over C1), no snowshovel."""
    tree = BLSM(
        BLSMOptions(
            c0_bytes=256 * KIB, buffer_pool_pages=32, snowshovel=False,
            extra_components=True, scheduler="naive", observability=False,
        )
    )
    run_stream(tree, 4_000, 5, reads=False)
    tree.compact()
    assert tree.component_sizes()["extras"] == 0
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


def test_one_background_dispatch_is_one_access(step_log):
    tree = BLSM(
        BLSMOptions(
            c0_bytes=256 * KIB, buffer_pool_pages=32, background_merges=True,
            log_disk_model=DiskModel.hdd(), observability=False,
        )
    )
    dispatches = []
    for name in ("step_m01", "step_m12"):
        real = getattr(tree, name)

        def dispatch(budget, real=real):
            stats = tree.stasis.data_disk.stats
            before = stats.read_ops + stats.write_ops
            steps = len(step_log)
            worked = real(budget)
            finished = any(done for _, done, _ in step_log[steps:])
            if not finished:
                dispatches.append(stats.read_ops + stats.write_ops - before)
            return worked

        setattr(tree, name, dispatch)
    run_stream(tree, 6_000, 3, reads=False)
    assert tree._c2 is not None
    assert max(dispatches) == 1
    tree.compact()
    sizes = tree.component_sizes()
    assert sizes["c0"] == sizes["c1"] == sizes["c1_prime"] == 0 < sizes["c2"]


def test_frozen_source_fetches_nothing_before_the_first_peek():
    pulled = []

    def records():
        for i in range(3):
            pulled.append(i)
            yield Record.base(b"k%d" % i, b"v", i)

    source = FrozenSource(records())
    assert pulled == []  # opening reads nothing
    assert source.peek().key == b"k0" and pulled == [0]
    assert source.pop().key == b"k0" and pulled == [0, 1]
    assert source.peek().key == b"k1" and source.peek().key == b"k1"
    assert [source.pop().key, source.pop().key] == [b"k1", b"k2"]
    assert source.peek() is None
    with pytest.raises(StopIteration):
        source.pop()


def test_a_gated_stream_waits_for_the_next_step():
    """The second run of an input is not read in a step that has already
    touched the device; the head stays unfetched until the gate reopens."""
    stasis = Stasis(observability=False)
    unit = stasis.streaming_pages
    builder = SSTableBuilder(stasis, tree_id=1, expected_bytes=2 * unit * PAGE)
    for i in range(2 * unit):  # about one page each: two runs and a bit
        builder.add(Record.base(b"k%08d" % i, bytes(4000), i))
    table = builder.finish()
    stats = stasis.data_disk.stats
    gate = StepGate(stats)
    gate.open()
    source = StreamSource(table, gate)
    reads = stats.read_ops
    assert source.peek().key == b"k%08d" % 0 and stats.read_ops == reads + 1
    assert not gate.clear
    popped = 1
    source.pop()
    while source._pos < len(source._run):  # drain the first run
        source.pop()
        popped += 1
    with pytest.raises(_AccessDeferred):
        source.peek()
    assert stats.read_ops == reads + 1
    gate.open()
    assert source.peek().key == b"k%08d" % popped
    assert stats.read_ops == reads + 2


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

    gate.open()
    stasis.data_disk.read(0, PAGE)  # the step's one access is spent
    writes = write_pages(stasis.data_disk, lambda: add_pages(unit + 50))
    assert writes == [] and len(builder._pending) >= unit
    gate.open()  # next step: the first block closed writes one unit
    assert write_pages(stasis.data_disk, lambda: add_pages(2)) == [unit]
    assert write_pages(stasis.data_disk, lambda: add_pages(unit)) == []
    gate.open()
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
# merge loop left them (1549b4c).  Host-CPU changes to the write path
# must leave every one in place.  At these two seeds a step that drops
# the bytes of a run the gate cut short moves the clock and the seeks.
INGEST_TRACE = {
    6: ("0.3725002090136211", 69, 10993664, 13447168,
        "bb5a3509804282b39014f5fe82d039bc54a24d627ab715658bb7ddb35a9c89cf"),
    8: ("0.36736824989318856", 64, 11276288, 13729792,
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


def test_a_wal_commit_costs_the_log_one_positioning():
    stasis = Stasis(observability=False)  # ASYNC; the WAL shares the device
    log, stats = stasis.logical_log, stasis.log_disk.stats
    n = 0

    def append_once():
        nonlocal n
        forces = log.forces
        while log.forces == forces:
            log.log(n, "put", b"k%08d" % n, bytes(1000))
            n += 1

    append_once()
    seeks = stats.seeks
    append_once()
    append_once()
    assert stats.seeks == seeks  # streaming
    stasis.commit_manifest({"generation": 1})  # forced: its own barrier
    seeks = stats.seeks
    append_once()
    assert stats.seeks == seeks + 1  # the head moved away
    append_once()
    assert stats.seeks == seeks + 1


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


def test_striped_access_still_nets_out_waiting_behind_other_accesses():
    model = DiskModel.hdd_member()
    clock = VirtualClock()
    array = StripedDisk(model, clock, stripes=2, chunk_bytes=512 * KIB)
    from repro.sim.clock import Timeline

    background = Timeline("bg")
    with clock.running_on(background):
        array.write(0, 512 * KIB)  # member 0 busy, in the background
    first = array.stats.busy_seconds
    # The foreground reads member 0 only: it queues behind that write.
    latency = array.read(0, 512 * KIB)
    service = model.read_access_seconds + 512 * KIB / model.seq_read_bandwidth
    assert latency == pytest.approx(first + service)
    assert array.stats.busy_seconds == pytest.approx(first + service)
    assert array.stats.fg_wait_seconds == pytest.approx(first)
    assert array.stats.bg_busy_seconds == pytest.approx(first)


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

"""Streaming merge reads: one sequential-read unit, taken from the device.

``DiskModel.streaming_read_bytes`` (twice what the device transfers in
one positioning time) becomes ``Stasis.streaming_pages``, and every
sequential reader — merge inputs, compactions, recovery scans — reads
runs of that many pages.  Only reads and virtual time depend on it:
what a tree holds, builds and writes does not.
"""

import math
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BLSM, BLSMOptions
from repro.core.merge import MergeProcess
from repro.core.partitioned import PartitionedBLSM
from repro.engines import build_engine
from repro.errors import CorruptionError, CrashPoint
from repro.faults import FaultPlan, FaultRule
from repro.memtable.memtable import MemTable
from repro.records import Record
from repro.sim import DiskModel, SimDisk, StripedDisk, VirtualClock
from repro.sim.disk import MIB
from repro.sstable import SSTableBuilder
from repro.storage import DurabilityMode, Stasis
from repro.storage.stasis import WRITE_BEHIND_PAGES

PAGE = 4096


def build_table(stasis, keys, value_bytes=1000, tree_id=1):
    """One component of uniform records, laid out in one extent."""
    nbytes = len(keys) * Record.base(keys[0], bytes(value_bytes), 0).nbytes
    builder = SSTableBuilder(
        stasis, tree_id=tree_id, expected_bytes=nbytes, expected_keys=len(keys)
    )
    for seqno, key in enumerate(keys):
        builder.add(Record.base(key, bytes(value_bytes), seqno))
    table = builder.finish()
    assert len(table.extents) == 1
    return table


def data_reads(stasis, work):
    """Page counts of the data-device reads ``work()`` issues."""
    stasis.data_disk.start_trace()
    work()
    events = stasis.data_disk.stop_trace()
    return [e.nbytes // PAGE for e in events if e.kind == "read"]


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------


def test_streaming_unit_comes_from_the_device_model():
    hdd, ssd = DiskModel.hdd(), DiskModel.ssd()
    assert hdd.streaming_read_bytes == pytest.approx(1.2 * MIB)
    assert Stasis(disk_model=hdd).streaming_pages == 308
    # An SSD positions in 40 us: the builder's write-behind unit is the floor.
    assert ssd.streaming_read_bytes < WRITE_BEHIND_PAGES * PAGE
    assert Stasis(disk_model=ssd).streaming_pages == WRITE_BEHIND_PAGES == 64
    # Positioning costs at most a third of a streaming access.
    transfer = hdd.streaming_read_bytes / hdd.seq_read_bandwidth
    assert hdd.read_access_seconds / (hdd.read_access_seconds + transfer) == (
        pytest.approx(1 / 3)
    )


def test_a_striped_array_streams_from_every_member():
    member = DiskModel.hdd_member()
    array = StripedDisk(member, VirtualClock(), stripes=4)
    assert array.streaming_read_bytes == 4 * member.streaming_read_bytes
    striped = Stasis(disk_model=member, data_stripes=4)
    single = Stasis(disk_model=member)
    assert striped.streaming_pages == math.ceil(
        4 * member.streaming_read_bytes / PAGE
    )
    assert striped.streaming_pages > 3 * single.streaming_pages


@pytest.mark.parametrize("model", [DiskModel.hdd(), DiskModel.ssd()])
def test_merge_reads_each_input_in_streaming_runs(model):
    stasis = Stasis(disk_model=model)
    run = stasis.streaming_pages
    newer = build_table(stasis, [b"k%06d" % i for i in range(0, 4000, 2)])
    older = build_table(stasis, [b"k%06d" % i for i in range(1, 6001, 2)], tree_id=2)
    assert newer.npages > run and older.npages > 2 * run

    def merge():
        MergeProcess(
            stasis,
            newer=newer,
            older=older,
            tree_id=3,
            input_bytes=newer.nbytes + older.nbytes,
            expected_keys=newer.key_count + older.key_count,
            drop_tombstones=True,
        ).run_to_completion()

    reads = data_reads(stasis, merge)
    assert len(reads) == sum(
        math.ceil(table.npages / run) for table in (newer, older)
    )
    assert max(reads) == run
    # Every read but each input's last is a full streaming run.
    assert sum(1 for pages in reads if pages < run) <= 2
    assert sum(reads) == newer.npages + older.npages


def test_recovery_scans_and_compactions_stream_too():
    stasis = Stasis()
    table = build_table(stasis, [b"k%06d" % i for i in range(3000)])
    reads = data_reads(stasis, lambda: list(table.iter_records()))
    assert reads == [308] * (table.npages // 308) + [table.npages % 308]
    engine = build_engine("leveldb", c0_bytes=1 << 20, observability=False)
    disk = engine.tree.stasis.data_disk
    disk.start_trace()
    for i in range(6000):
        engine.put(b"k%06d" % ((i * 7919) % 6000), bytes(1000))
    biggest = max(e.nbytes for e in disk.stop_trace() if e.kind == "read")
    assert 64 * PAGE < biggest <= 308 * PAGE


# ---------------------------------------------------------------------------
# only seeks and virtual time depend on the unit
# ---------------------------------------------------------------------------


def load(disk, records=5000):
    engine = build_engine(
        "blsm", disk=disk, c0_bytes=256 * 1024, cache_pages=32,
        observability=False,
    )
    rng = random.Random(1)
    user_bytes = 0
    for i in range(records):
        key, value = b"user%06d" % rng.randrange(3 * records), bytes(200)
        engine.put(key, value)
        user_bytes += len(key) + len(value)
    state = {
        "digest": engine.state_digest(),
        "components": engine.tree.component_sizes(),
        "pages": engine.tree.stasis.streaming_pages,
    }
    # The running builders hold up to one unit each that is not on the
    # device yet; finish the merges so every byte is counted.
    engine.tree.compact()
    io = engine.io_summary()
    written = io["data_bytes_written"] + io["log_bytes_written"]
    return {
        **state,
        "compacted": engine.tree.component_sizes(),
        "written": written,
        "write_amp": written / user_bytes,
        "read_ops": engine.tree.stasis.data_disk.stats.read_ops,
    }


@pytest.fixture(scope="module")
def reference():
    return load(DiskModel.ssd())


@settings(max_examples=12, deadline=None)
@given(
    access=st.floats(min_value=20e-6, max_value=10e-3),
    bandwidth=st.floats(min_value=50 * MIB, max_value=1000 * MIB),
)
def test_contents_and_writes_do_not_depend_on_the_streaming_size(
    reference, access, bandwidth
):
    got = load(DiskModel("any", access, access, bandwidth, bandwidth))
    assert got["pages"] == max(64, math.ceil(2 * access * bandwidth / PAGE))
    for same in ("digest", "components", "compacted", "written", "write_amp"):
        assert got[same] == reference[same]
    # A larger unit never needs more reads for the same merges.
    assert got["pages"] >= reference["pages"]
    assert got["read_ops"] <= reference["read_ops"]


# ---------------------------------------------------------------------------
# faults landing inside a streaming read
# ---------------------------------------------------------------------------


def faulty_table(rules=()):
    plan = FaultPlan(list(rules), armed=False)
    stasis = Stasis(fault_plan=plan)
    table = build_table(stasis, [b"k%06d" % i for i in range(3000)])
    assert table.npages > 2 * stasis.streaming_pages
    return stasis, plan, table


def test_transient_error_inside_a_streaming_read_is_retried():
    stasis, plan, table = faulty_table(
        [FaultRule(kind="transient", device="data", op="read", every=1, count=2)]
    )
    plan.arm()
    reads = data_reads(stasis, lambda: list(table.iter_records()))
    assert plan.fired_by_kind == {"transient": 2}
    assert stasis.runtime.metrics.value("retry.retries") == 2
    # The failed attempts never reached the device; the retries did.
    assert reads[0] == 308 and sum(reads) == table.npages


def test_corruption_inside_a_streaming_read_names_the_page():
    stasis, _plan, table = faulty_table()
    bad = table.extents[0].start + 308 + 117  # inside the second run
    stasis.data_disk.mark_corrupt(bad * PAGE + 5, 1)
    stream = table.iter_records()
    first_run = [next(stream) for _ in range(100)]  # the first run is clean
    assert len(first_run) == 100
    with pytest.raises(CorruptionError, match=rf"page {bad} failed"):
        list(stream)
    assert stasis.pagefile.corrupt_reads == 1


def crash_load(plan, spy=None):
    options = BLSMOptions(
        c0_bytes=512 * 1024,
        buffer_pool_pages=32,
        durability=DurabilityMode.SYNC,
        fault_plan=plan,
    )
    tree = BLSM(options)
    if spy is not None:
        spy(tree.stasis.data_disk)
    plan.arm()
    rng = random.Random(3)
    model = {}
    try:
        for i in range(6000):
            key, value = b"user%05d" % rng.randrange(9000), b"%06d" % i + bytes(994)
            tree.put(key, value)
            model[key] = value
    except CrashPoint:
        model.pop(key, None)  # the in-flight write was never acknowledged
        return tree, model, True
    finally:
        plan.disarm()
    return tree, model, False


def test_crash_point_inside_a_streaming_read_recovers():
    full_runs = []

    def spy(disk):
        real = disk.read

        def read(offset, nbytes):
            if nbytes == 308 * PAGE:
                full_runs.append(disk.plan.access_count + 1)
            return real(offset, nbytes)

        disk.read = read

    _tree, _model, crashed = crash_load(FaultPlan(armed=False), spy)
    assert not crashed and len(full_runs) >= 2
    target = full_runs[len(full_runs) // 2]
    tree, model, crashed = crash_load(FaultPlan.crash_at(target))
    assert crashed and tree.stasis.fault_plan.access_count == target
    tree.stasis.crash()
    recovered = BLSM.recover(tree.stasis, tree.options)
    assert {k: recovered.get(k) for k in model} == model


# ---------------------------------------------------------------------------
# Bloom filters sized for the run a snowshovel pass plans for (§4.4.3)
# ---------------------------------------------------------------------------


def components(tree):
    if isinstance(tree, PartitionedBLSM):
        found = [c for p in tree._partitions for c in (p.c1, p.c2)]
    else:
        found = [tree._c1, tree._c1_prime, tree._c2]
    return [c for c in found if c is not None]


@pytest.mark.parametrize("kind", ["blsm", "blsm-part"])
def test_snowshovel_built_filters_stay_under_one_percent(kind):
    engine = build_engine(
        kind, c0_bytes=2 << 20, cache_pages=128, observability=False
    )
    # 22 000 records end the bLSM load with C1, C1' and C2 all present
    # (three-component phase: 21-23 k; 20 000 now ends just after a
    # promotion, with two).
    for i in range(22_000):
        engine.put(b"user%012d" % ((i * 2_654_435_761) % 2**32), bytes(1000))
    absent = [b"none%012d" % i for i in range(20_000)]
    built = components(engine.tree)
    assert len(built) >= 3
    for component in built:
        bloom = component.bloom
        assert bloom.expected_false_positive_rate() <= 0.012
        false_positives = sum(1 for key in absent if key in bloom)
        assert false_positives / len(absent) <= 0.015


def test_bloom_keys_sizes_the_filter_not_the_reservation():
    sized, plain = [], []
    for out, bloom_keys in ((sized, 4000), (plain, None)):
        stasis = Stasis()
        builder = SSTableBuilder(
            stasis, tree_id=1, expected_bytes=100_000, expected_keys=1000,
            bloom_keys=bloom_keys,
        )
        out.extend([builder._bloom.nbits, stasis.regions.allocated_extents])
    assert sized[0] == pytest.approx(4 * plain[0], rel=0.01)
    assert sized[1] == plain[1]


# ---------------------------------------------------------------------------
# accounting and observability
# ---------------------------------------------------------------------------


def test_merge_buffers_are_counted_while_merges_are_open():
    tree = BLSM(BLSMOptions(c0_bytes=256 * 1024, buffer_pool_pages=16))
    assert tree.memory_footprint()["merge_buffers"] == 0
    i = 0
    while tree._m12 is None or tree._m01 is None or tree._c1 is None:
        tree.put(b"key%06d" % ((i * 7919) % 100_000), bytes(1000))
        i += 1
    run = tree.stasis.streaming_pages
    streams = [tree._c1, tree._c1_prime] + ([tree._c2] if tree._c2 else [])
    expected = sum(min(run, table.npages) for table in streams)
    expected += 2 * run  # one write-behind unit per running builder
    assert tree.memory_footprint()["merge_buffers"] == expected * PAGE
    assert tree._m12.buffer_pages >= min(run, tree._c1_prime.npages) + 64
    tree.compact()
    assert tree.memory_footprint()["merge_buffers"] == 0


def test_the_snowshovel_overlay_is_ram_the_footprint_shows():
    tree = BLSM(BLSMOptions(c0_bytes=256 * 1024, buffer_pool_pages=16))
    assert tree.memory_footprint()["merge_overlay"] == 0
    i = 0
    while tree._m01 is None or len(tree._m01.overlay) < 50:
        tree.put(b"key%06d" % ((i * 7919) % 100_000), bytes(1000))
        i += 1
    held = sum(record.nbytes for record in tree._m01.overlay)
    assert tree.memory_footprint()["merge_overlay"] == held > 0
    tree.drain()
    assert tree.memory_footprint()["merge_overlay"] == 0
    # A frozen C0' is counted under "c0"; its pass keeps no overlay.
    tree = BLSM(BLSMOptions(c0_bytes=256 * 1024, snowshovel=False))
    while tree._m01 is None:
        tree.put(b"key%06d" % ((i * 7919) % 100_000), bytes(1000))
        i += 1
    assert tree.memory_footprint()["merge_overlay"] == 0


def test_seek_seconds_and_sequential_efficiency():
    model = DiskModel.hdd()
    disk = SimDisk(model, VirtualClock())
    assert disk.stats.sequential_efficiency == 1.0  # idle: nothing wasted
    disk.read(0, 308 * PAGE)
    assert disk.stats.seek_seconds == model.read_access_seconds
    assert disk.stats.sequential_efficiency == pytest.approx(2 / 3, abs=2e-3)
    disk.read(308 * PAGE, 308 * PAGE)  # continues: no positioning
    assert disk.stats.seek_seconds == model.read_access_seconds
    array = StripedDisk(DiskModel.hdd_member(), VirtualClock(), stripes=2)
    array.read(0, 1 * MIB)  # one chunk per member, positioned in parallel
    assert array.stats.seek_seconds == pytest.approx(5e-3)
    assert 0.0 < array.stats.sequential_efficiency < 1.0
    assert sum(m.stats.seek_seconds for m in array.members) == pytest.approx(10e-3)


@pytest.mark.parametrize("observability", [True, False])
def test_io_summary_reports_streaming_vs_seeking(observability):
    engine = build_engine(
        "blsm", c0_bytes=1 << 20, cache_pages=32, observability=observability
    )
    for i in range(6000):
        engine.put(b"key%06d" % ((i * 7919) % 6000), bytes(1000))
    after_load = engine.io_summary()["data_sequential_efficiency"]
    assert 0.4 < after_load < 1.0  # merges stream
    for i in range(300):
        engine.get(b"key%06d" % ((i * 104_729) % 6000))
    after_reads = engine.io_summary()["data_sequential_efficiency"]
    assert after_reads < after_load  # point reads seek
    rows = {row["disk"]: row for row in engine.runtime.device_summary()}
    assert rows["hdd-data"]["sequential_efficiency"] == after_reads
    assert "log_sequential_efficiency" in engine.io_summary()


@pytest.mark.parametrize("kind", ["blsm", "blsm-part", "leveled"])
def test_merge_events_carry_the_passes_reads_and_seeks(kind):
    engine = build_engine(kind, c0_bytes=128 * 1024, cache_pages=16)
    for i in range(2500):
        engine.put(b"key%06d" % ((i * 7919) % 2500), bytes(500))
    events = engine.runtime.trace.events()
    finished = [e for e in events if e.etype == "merge_finish"]
    progress = [e for e in events if e.etype == "merge_progress"]
    assert finished and progress
    for event in finished + progress:
        assert event.get("reads") >= 0 and event.get("seeks") >= 0
    # A pass that rewrote an on-disk component read it and positioned.
    assert any(e.get("reads") > 0 and e.get("seeks") > 0 for e in finished)


def test_memtable_ceiling_returns_the_record():
    table = MemTable(1 << 20)
    for i in (10, 20, 30):
        table.put(Record.base(b"k%02d" % i, b"v", i))
    assert table.ceiling(b"").key == b"k10"
    assert table.ceiling(b"k20").seqno == 20
    assert table.ceiling(b"k21").key == table.ceiling_key(b"k21") == b"k30"
    assert table.ceiling(b"k31") is None


# ---------------------------------------------------------------------------
# one rule, no knob
# ---------------------------------------------------------------------------


def test_the_hand_picked_chunk_knobs_are_gone():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    pattern = re.compile(r"merge_chunk_bytes|chunk_pages|flush_chunk_pages")
    offenders = [
        str(path)
        for path in src.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert not hasattr(BLSMOptions(), "merge_chunk_bytes")

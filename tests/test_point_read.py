"""Point reads: what they cost, what they leave behind when they fail.

``BLSM.get`` checks C0's hash index, then each on-disk component's Bloom
filter, and reads at most one block through the pool (Section 3.1).
These tests hold

* the device trace: a ``read_cold``-shaped tree (data 40 x the pool,
  10 % of reads for keys never inserted, HDD) makes exactly the pinned
  device accesses under CLOCK, LRU and a striped data device — a
  CPU-only change to the read path moves none of them;
* the call budget: one ``get`` that misses C0, passes one Bloom filter
  and faults a two-page block makes a fixed number of Python calls — one
  frame per layer, and a pool miss that recycles its victim's frame —
  so a wrapper added to the read path fails here;
* the blast radius: a read whose block fails verification (or runs out
  of retries) fails that read and leaves nothing of the block in the
  pool or on its ghost list, and the engine stays open.
"""

import hashlib
import random
import sys

import pytest

from repro.baselines import BLSMEngine
from repro.core import BLSM, BLSMOptions
from repro.errors import CorruptionError, IOFaultError
from repro.faults import FaultPlan, FaultRule
from repro.storage import EvictionPolicy
from tests.test_scan_pool import MID, PAGE, fill_pool, table_and_reads

# ---------------------------------------------------------------------------
# the device trace
# ---------------------------------------------------------------------------

RECORDS = 3000
ADDRESSED = 3334  # keys past RECORDS were never inserted: 10 % of reads
READS = 2000


def read_cold_shaped(policy, stripes, seed):
    """Load ~3 MB (C0 a tenth of it, the pool a fortieth), then read
    ``READS`` uniform keys; what the read phase cost and returned."""
    engine = BLSMEngine(
        BLSMOptions(
            c0_bytes=300 * 1024,
            buffer_pool_pages=18,
            eviction_policy=policy,
            data_stripes=stripes,
            observability=False,
        )
    )
    order = list(range(RECORDS))
    # Not a read seed: the keys left in C0 must not be the ones read.
    random.Random(99).shuffle(order)
    for i in order:
        engine.put(b"user%06d" % i, b"%06d" % i * 166)
    engine.flush()
    stasis = engine.tree.stasis
    metrics = stasis.runtime.metrics
    io0 = stasis.data_disk.stats.snapshot()
    counters = (
        "buffer.hits", "buffer.misses", "buffer.evictions",
        "bloom.negatives", "bloom.hits", "bloom.false_positives",
    )
    before = [metrics.value(name) for name in counters]
    rng = random.Random(seed)
    values = hashlib.sha256()
    for _ in range(READS):
        value = engine.get(b"user%06d" % rng.randrange(ADDRESSED))
        values.update(b"-" if value is None else value)
    io = stasis.data_disk.stats.delta(io0)
    return (
        repr(engine.clock.now), io.seeks, io.bytes_read,
        *(int(metrics.value(name) - b) for name, b in zip(counters, before)),
        values.hexdigest()[:16],
    )


#: (clock, seeks, bytes read, pool hits, misses, evictions, Bloom
#: negatives, hits, false positives, digest of the values read) per
#: (policy, data stripes, read seed).  The clock is the load's as well:
#: it moved alone when manifest commits began logging version edits,
#: again when ASYNC log appends began running behind on the log writer,
#: again when ASYNC manifest commits and checkpoints followed them, and
#: again when the manifest WAL and the logical log began sharing one
#: tail (fewer log positionings).
TRACE_PINS = {
    (EvictionPolicy.CLOCK, 1, 0): (
        "3.8353513256711107", 1459, 11993088,
        90, 2928, 2910, 1416, 1506, 3, "245c214a02e079ba",
    ),
    (EvictionPolicy.CLOCK, 1, 1): (
        "3.842851325671111", 1462, 11993088,
        80, 2928, 2910, 1389, 1502, 2, "77a431cbd23bcb1f",
    ),
    (EvictionPolicy.LRU, 1, 0): (
        "3.832818773587777", 1458, 11984896,
        92, 2926, 2908, 1416, 1506, 3, "245c214a02e079ba",
    ),
    (EvictionPolicy.LRU, 1, 1): (
        "3.842851325671111", 1462, 11993088,
        80, 2928, 2910, 1389, 1502, 2, "77a431cbd23bcb1f",
    ),
    (EvictionPolicy.CLOCK, 2, 0): (
        "3.830800544421109", 1465, 11993088,
        90, 2928, 2910, 1416, 1506, 3, "245c214a02e079ba",
    ),
    (EvictionPolicy.CLOCK, 2, 1): (
        "3.85080054442111", 1473, 11993088,
        80, 2928, 2910, 1389, 1502, 2, "77a431cbd23bcb1f",
    ),
}


@pytest.mark.parametrize("policy, stripes, seed", list(TRACE_PINS))
def test_the_read_path_keeps_its_device_trace(policy, stripes, seed):
    assert read_cold_shaped(policy, stripes, seed) == TRACE_PINS[
        policy, stripes, seed
    ]


# ---------------------------------------------------------------------------
# the call budget
# ---------------------------------------------------------------------------


def one_component_tree(**options):
    """1500 keys of 1000 B compacted into one component of two-page
    blocks, C0 empty; the component and the keys."""
    tree = BLSM(
        BLSMOptions(c0_bytes=64 * 1024, buffer_pool_pages=16, **options)
    )
    keys = [b"user%06d" % i for i in range(1500)]
    for key in keys:
        tree.put(key, bytes(1000))
    tree.compact()
    with tree.snapshot() as snap:
        (table,) = snap._tables
    assert len(tree._memtable) == 0 and tree._m01 is None
    return tree, table, keys


#: Python calls of that ``get``: BLSM.get, the version walk
#: (``records.lookup``), C0's index, SSTable.get, the Bloom probe and two
#: pool misses, each five: ``BufferManager.get``, the page file, the
#: device's ``read`` and its ``_access`` (which reads, books and moves
#: the requester's time in place) and ``_install`` (which sweeps to the
#: victim and reuses its frame).  The walk meets a base record, so it
#: never calls ``records.resolve``.
GET_CALLS = 15


def test_a_cold_point_read_makes_a_fixed_number_of_calls():
    tree, table, keys = one_component_tree(observability=False)
    rng = random.Random(4)
    while len(tree.stasis.buffer) < tree.stasis.buffer.capacity_pages:
        tree.get(rng.choice(keys[:700]))  # a full pool: the read evicts
    victim = keys[1000]
    block = next(b for b in reversed(table.blocks) if b.first_key <= victim)
    assert block.npages == 2 and block.first_page_id not in tree.stasis.buffer
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        value = tree.get(victim)
    finally:
        sys.setprofile(None)
    assert value == bytes(1000)
    assert calls == GET_CALLS


# ---------------------------------------------------------------------------
# a failed point read fails the read, not the engine
# ---------------------------------------------------------------------------


def _forgotten(buffer, pages):
    return not any(p in buffer or p in buffer._ghost for p in pages) and (
        buffer._ghost_pages == sum(buffer._ghost.values())
    )


@pytest.mark.parametrize("bad", [0, 1], ids=["first-page", "continuation"])
@pytest.mark.parametrize("fault", ["corrupt", "retries"])
def test_a_failed_point_read_caches_nothing_of_its_block(fault, bad):
    plan = FaultPlan([], armed=False)
    stasis, table, records, _ = table_and_reads(fault_plan=plan)
    fill_pool(stasis, table)
    buffer = stasis.buffer
    block = table.blocks[100]
    first = block.first_page_id
    pages = range(first, first + block.npages)
    key = records[MID].key
    list(table.scan(key, limit=1))  # landed once, pool full: a ghost entry
    assert first in buffer._ghost
    if fault == "corrupt":
        stasis.data_disk.mark_corrupt((first + bad) * PAGE + 9, 1)
        error = CorruptionError
    else:  # every try at page `first + bad` fails: accesses bad+1 .. bad+4
        plan.rules = [
            FaultRule(kind="transient", device="data", op="read", at_access=n)
            for n in range(bad + 1, bad + 5)
        ]
        plan.arm()
        error = IOFaultError
    with pytest.raises(error, match=rf"page {first + bad}\b"):
        table.get(key)
    assert _forgotten(buffer, pages)
    # Every other block still reads; healed, this one reads again.
    assert table.get(records[0].key) == records[0]
    plan.disarm()
    stasis.data_disk.clear_corruption(first * PAGE, block.npages * PAGE)
    misses = buffer.misses
    assert table.get(key) == records[MID]
    assert buffer.misses == misses + block.npages


@pytest.mark.parametrize("bad", [0, 1], ids=["first-page", "continuation"])
def test_engine_survives_a_corrupt_page_under_a_point_read(bad):
    plan = FaultPlan([], armed=False)
    tree, table, keys = one_component_tree(fault_plan=plan)
    block = table.blocks[40]
    victim = keys[sum(b.nrecords for b in table.blocks[:40]) + 1]
    page = block.first_page_id + bad
    tree.stasis.data_disk.mark_corrupt(page * PAGE, PAGE)
    with pytest.raises(CorruptionError, match=f"page {page} "):
        tree.get(victim)
    pages = range(block.first_page_id, block.first_page_id + block.npages)
    assert _forgotten(tree.stasis.buffer, pages)
    # The failure stays with that read: the engine is open for business.
    with pytest.raises(CorruptionError, match=f"page {page} "):
        tree.get(victim)
    assert [k for k, _ in tree.scan(keys[0], limit=5)] == keys[:5]
    assert tree.get(keys[-1]) == bytes(1000)
    tree.put(b"after", b"ok")
    assert tree.get(b"after") == b"ok"
    tree.close()

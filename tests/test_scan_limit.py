"""Limit-aware scan reads: a component reads as many blocks as the
caller can consume, not a fixed sixteen.

``SSTable.scan(limit=n)`` sizes its first read to one block (for a
start in mid-block) plus ``n`` over the mean records per block, doubles
on every refill up to the sixteen-block readahead, and behaves exactly
as before when no limit is given.
"""

import pytest

from repro.baselines import CompactionEngine, PartitionedBLSMEngine
from repro.core import BLSM, BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.records import Record
from repro.shard import ShardedEngine
from repro.sstable import SSTableBuilder
from repro.storage import Stasis

RECORDS = 2100  # 7 per two-page block: 300 blocks


@pytest.fixture
def table_and_reads():
    """A 300-block component plus the page counts of every read_run."""
    stasis = Stasis(buffer_pool_pages=64)
    records = [
        Record.base(b"key%06d" % i, b"v" * 1000, i) for i in range(RECORDS)
    ]
    builder = SSTableBuilder(
        stasis,
        tree_id=1,
        expected_bytes=sum(r.nbytes for r in records),
        expected_keys=RECORDS,
    )
    for record in records:
        builder.add(record)
    table = builder.finish()
    assert {block.nrecords for block in table.blocks[:-1]} == {7}
    reads: list[int] = []
    read_run = stasis.pagefile.read_run

    def counting_read_run(first, count):
        reads.append(count)
        return read_run(first, count)

    stasis.pagefile.read_run = counting_read_run
    return table, records, reads


MID_BLOCK = 703  # record 3 of block 100


@pytest.mark.parametrize(
    "limit, first_read_blocks",
    [(1, 2), (4, 2), (8, 3), (100, 16), (None, 16)],
)
def test_first_read_is_sized_to_the_limit(
    table_and_reads, limit, first_read_blocks
):
    table, records, reads = table_and_reads
    lo = records[MID_BLOCK].key
    want = records[MID_BLOCK : MID_BLOCK + (limit or 50)]
    rows = []
    for record in table.scan(lo, limit=limit):
        rows.append(record)
        if len(rows) == len(want):
            break
    assert rows == want
    assert reads[0] == first_read_blocks * 2  # two pages per block
    if limit is not None and limit <= 8:
        # The mid-block start is covered: no refill to deliver `limit`.
        assert len(reads) == 1


def test_refills_double_up_to_the_readahead(table_and_reads):
    table, records, reads = table_and_reads
    assert list(table.scan(records[0].key, limit=1)) == records
    blocks = [pages // 2 for pages in reads]
    assert blocks[:5] == [2, 4, 8, 16, 16]
    assert max(blocks) == 16
    assert sum(blocks) == len(table.blocks)


def test_no_limit_reads_as_before(table_and_reads):
    table, records, reads = table_and_reads
    assert list(table.scan(records[0].key)) == records
    assert set(reads[:-1]) == {32}  # sixteen two-page blocks per read


def test_hi_bound_still_stops_the_read(table_and_reads):
    table, records, reads = table_and_reads
    lo, hi = records[MID_BLOCK].key, records[MID_BLOCK + 2].key
    rows = list(table.scan(lo, hi, limit=100))
    assert rows == records[MID_BLOCK : MID_BLOCK + 2]
    assert reads == [2]  # one block: the next one starts past `hi`


def test_short_scan_reads_kilobytes_not_a_third_of_a_megabyte():
    # What the benchmark's scan_short measures: device bytes per scan.
    tree = BLSM(BLSMOptions(c0_bytes=256 * 1024, buffer_pool_pages=32))
    for i in range(6000):
        tree.put(b"user%012d" % ((i * 7919) % 6000), bytes(1000))
    tree.drain()
    stats = tree.stasis.data_disk.stats
    before = stats.bytes_read
    scans = 50
    for i in range(scans):
        rows = list(tree.scan(b"user%012d" % (i * 101 + 3), limit=4))
        assert len(rows) == 4
    per_scan = (stats.bytes_read - before) / scans
    assert per_scan <= 64 * 1024  # was ~380 KB: 16 blocks x 3 components
    before = stats.bytes_read
    assert len(list(tree.scan(b"user%012d" % 3))) == 5997
    assert stats.bytes_read - before >= 5997 * 1000  # unlimited: unchanged
    tree.close()


def test_tombstone_heavy_component_forces_refills():
    # C2 holds every key; the newer components bury most of a range in
    # tombstones, so a limit-4 scan consumes far more than four records
    # from each component and must refill to find its rows.
    tree = BLSM(BLSMOptions(c0_bytes=64 * 1024, buffer_pool_pages=32))
    model = {}
    for i in range(3000):
        key = b"k%06d" % i
        tree.put(key, b"v" * 200)
        model[key] = b"v" * 200
    tree.drain()
    for i in range(100, 2400):
        if i % 300:
            key = b"k%06d" % i
            tree.delete(key)
            del model[key]
    tree.drain()
    reads: list[int] = []
    read_run = tree.stasis.pagefile.read_run

    def counting_read_run(first, count):
        reads.append(count)
        return read_run(first, count)

    tree.stasis.pagefile.read_run = counting_read_run
    for limit in (1, 4, 100, None):
        reads.clear()
        rows = list(tree.scan(b"k000101", limit=limit))
        expected = [(k, model[k]) for k in sorted(model) if k >= b"k000101"]
        assert rows == (expected if limit is None else expected[:limit])
        if limit == 4:
            # More reads than components: at least one refilled.
            components = sum(
                c is not None for c in (tree._c1, tree._c1_prime, tree._c2)
            )
            assert len(reads) > components
    tree.close()


def _engines():
    small = dict(c0_bytes=32 * 1024, buffer_pool_pages=16)
    yield "partitioned", PartitionedBLSMEngine(
        BLSMOptions(**small), max_partition_bytes=64 * 1024
    )
    yield "leveldb", CompactionEngine(
        BLSMOptions(
            c0_bytes=16 * 1024, level_base_bytes=64 * 1024,
            buffer_pool_pages=16, **LEVELDB_OPTIONS,
        )
    )
    yield "sharded", ShardedEngine(BLSMOptions(**small), shards=4)


@pytest.mark.parametrize("limit", [1, 4, 100, None])
def test_every_tree_passes_the_limit_down_and_stays_correct(limit):
    for name, engine in _engines():
        model = {}
        for i in range(900):
            key = b"key-%06d" % ((i * 37) % 900)
            engine.put(key, b"v%06d" % i + bytes(150))
            model[key] = b"v%06d" % i + bytes(150)
        for i in range(0, 900, 3):
            engine.delete(b"key-%06d" % i)
            del model[b"key-%06d" % i]
        expected = [(k, model[k]) for k in sorted(model) if k >= b"key-000101"]
        rows = list(engine.scan(b"key-000101", None, limit))
        assert rows == (expected if limit is None else expected[:limit]), name
        engine.close()

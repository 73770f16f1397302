"""Unit tests for on-disk tree components (builder and reader)."""

import dataclasses

import pytest

from repro.errors import StorageError
from repro.records import Record
from repro.sstable import SSTableBuilder
from repro.sstable.reader import Block
from repro.storage import Stasis


@pytest.fixture
def stasis():
    return Stasis(buffer_pool_pages=64)


def build(stasis, n=100, value_bytes=100, with_bloom=True, tree_id=1):
    builder = SSTableBuilder(
        stasis,
        tree_id=tree_id,
        expected_bytes=n * (value_bytes + 24),
        expected_keys=n,
        with_bloom=with_bloom,
    )
    for i in range(n):
        builder.add(Record.base(b"key%05d" % i, b"v" * value_bytes, i))
    return builder.finish()


def test_build_and_point_lookup(stasis):
    table = build(stasis)
    record = table.get(b"key00042")
    assert record is not None
    assert record.seqno == 42
    assert table.get(b"key99999") is None


def test_a_block_reprs_as_the_generated_dataclass_repr(stasis):
    """Manifests are sized by their repr, so the hand-written
    ``Block.__repr__`` must print what the generated one printed."""
    generated = dataclasses.make_dataclass(
        "Block",
        [(field.name, field.type) for field in dataclasses.fields(Block)],
        frozen=True,
    )
    blocks = [*build(stasis).blocks, Block(b"k'\x00\"", 0, 1, 0)]
    for block in blocks:
        assert repr(block) == repr(generated(*dataclasses.astuple(block)))


def test_metadata(stasis):
    table = build(stasis, n=50)
    assert table.key_count == 50
    assert table.min_key == b"key00000"
    assert table.max_key == b"key00049"
    assert table.nbytes == 50 * (16 + 8 + 100)


def test_out_of_order_add_rejected(stasis):
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=10)
    builder.add(Record.base(b"b", b"", 0))
    with pytest.raises(StorageError):
        builder.add(Record.base(b"a", b"", 1))
    with pytest.raises(StorageError):
        builder.add(Record.base(b"b", b"", 2))  # duplicates also rejected


def pack_inline(builder, records):
    """Pack ``records`` by the builder's rule as a merge step does: append,
    add the bytes, hand the block to ``settle`` at ``due``, and write
    behind once writing is due."""
    block, held, due = builder.block, builder.held, builder.due
    for record in records:
        block.append(record)
        held += record.nbytes
        if held >= due:
            block, held, due, stop = builder.settle(held)
            if stop:
                builder.held = held
                builder.write_behind()
    builder.held = held


def test_a_step_packing_inline_builds_what_add_builds(stasis):
    records = [
        Record.base(b"key%05d" % i, b"v" * (50 + 97 * i % 900), i)
        for i in range(400)
    ]
    one = SSTableBuilder(stasis, tree_id=1, expected_keys=400)
    for record in records:
        one.add(record)
    inline = SSTableBuilder(stasis, tree_id=2, expected_keys=400)
    pack_inline(inline, records)
    a, b = one.finish(), inline.finish()
    assert [
        (blk.first_key, blk.npages, blk.nrecords) for blk in a.blocks
    ] == [(blk.first_key, blk.npages, blk.nrecords) for blk in b.blocks]
    assert list(a.iter_records()) == list(b.iter_records()) == records


def test_a_block_that_starts_below_the_last_one_is_rejected(stasis):
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=100)
    big = b"x" * 3000
    pack_inline(builder, [Record.base(b"k%02d" % i, big, i) for i in (5, 6)])
    with pytest.raises(StorageError):  # a block from k01 closes after k06
        pack_inline(
            builder, [Record.base(b"k%02d" % i, big, i) for i in (1, 2, 3)]
        )


def test_a_finish_whose_write_fails_can_be_called_again(stasis):
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=10)
    builder.add(Record.base(b"a", b"v", 0))
    pagefile = stasis.pagefile

    def failing(first_page_id, payloads):
        raise OSError("write failed")

    pagefile.write_run = failing
    with pytest.raises(OSError):
        builder.finish()
    del pagefile.write_run
    table = builder.finish()
    assert [r.key for r in table.iter_records()] == [b"a"]


def test_empty_builder_returns_none(stasis):
    builder = SSTableBuilder(stasis, tree_id=1, expected_bytes=4096)
    assert builder.finish() is None
    assert stasis.regions.allocated_extents == []


def test_double_finish_rejected(stasis):
    builder = SSTableBuilder(stasis, tree_id=1)
    builder.add(Record.base(b"a", b"", 0))
    builder.finish()
    with pytest.raises(StorageError):
        builder.finish()


def test_bloom_skips_io_for_absent_keys(stasis):
    table = build(stasis)
    busy = stasis.data_disk.stats.busy_seconds
    assert table.get(b"zzz-not-there") is None
    assert stasis.data_disk.stats.busy_seconds == busy  # zero seeks


def test_no_bloom_reads_a_block_for_in_range_miss(stasis):
    table = build(stasis, with_bloom=False)
    reads = stasis.data_disk.stats.read_ops
    assert table.get(b"key00042x") is None  # in range, absent
    assert stasis.data_disk.stats.read_ops > reads


def test_point_lookup_costs_one_block(stasis):
    table = build(stasis)
    stats = stasis.data_disk.stats
    seeks = stats.seeks
    table.get(b"key00042")
    assert stats.seeks == seeks + 1


def test_scan_range(stasis):
    table = build(stasis)
    keys = [r.key for r in table.scan(b"key00010", b"key00020")]
    assert keys == [b"key%05d" % i for i in range(10, 20)]


def test_scan_unbounded_tail(stasis):
    table = build(stasis, n=20)
    keys = [r.key for r in table.scan(b"key00015")]
    assert keys == [b"key%05d" % i for i in range(15, 20)]


def test_iter_records_complete_and_sorted(stasis):
    table = build(stasis, n=300)
    records = list(table.iter_records())
    assert len(records) == 300
    assert [r.key for r in records] == sorted(r.key for r in records)


def test_iter_records_is_sequential_io(stasis):
    table = build(stasis, n=500)
    seeks = stasis.data_disk.stats.seeks
    list(table.iter_records())
    # Streaming-size reads over one extent: few seeks, not per-page.
    assert stasis.data_disk.stats.seeks - seeks <= 4


def test_build_writes_sequentially(stasis):
    stats = stasis.data_disk.stats
    build(stasis, n=1000)
    # ~1000 * 124B = 124KB over 4K pages: ~31 pages; chunked flushes over
    # one extent must not seek per page.
    assert stats.seeks <= 4
    assert stats.bytes_written >= 1000 * 116


def test_oversized_record_spans_pages(stasis):
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=2)
    big = Record.base(b"big", b"x" * 10_000, 0)  # > 2 pages
    builder.add(big)
    builder.add(Record.base(b"small", b"y", 1))
    table = builder.finish()
    block = table.blocks[0]
    assert block.npages == 3
    got = table.get(b"big")
    assert got is not None and len(got.value) == 10_000


def test_spanning_record_read_charges_all_pages(stasis):
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=1)
    builder.add(Record.base(b"big", b"x" * 10_000, 0))
    table = builder.finish()
    before = stasis.data_disk.stats.bytes_read
    table.get(b"big")
    assert stasis.data_disk.stats.bytes_read - before == 3 * 4096


def test_free_releases_space(stasis):
    table = build(stasis)
    pages = table.npages
    table.free()
    assert stasis.regions.free_pages() >= pages
    table.free()  # idempotent


def test_extent_tail_trimmed(stasis):
    # The builder over-allocates from an estimate; finish returns the tail.
    builder = SSTableBuilder(
        stasis, tree_id=1, expected_bytes=100 * 4096, expected_keys=10
    )
    for i in range(10):
        builder.add(Record.base(b"k%d" % i, b"v" * 100, i))
    table = builder.finish()
    assert table.npages < 100


def test_growth_after_estimate_exhausted(stasis):
    # The estimate promises two pages of records; the minimum extent
    # holds sixteen.  500 x 424 B = 52 dense pages outrun both.
    builder = SSTableBuilder(
        stasis, tree_id=1, expected_bytes=2 * 4096, expected_keys=20
    )
    for i in range(500):
        builder.add(Record.base(b"k%03d" % i, b"v" * 400, i))
    table = builder.finish()
    assert table.key_count == 500
    assert len(table.extents) >= 2
    assert table.npages <= 54  # grown as needed, the tail trimmed
    assert [r.key for r in table.iter_records()] == [b"k%03d" % i for i in range(500)]


def test_abandon_frees_everything(stasis):
    builder = SSTableBuilder(
        stasis, tree_id=1, expected_bytes=50 * 4096, expected_keys=50
    )
    for i in range(50):
        builder.add(Record.base(b"k%02d" % i, b"v" * 200, i))
    builder.abandon()
    assert stasis.regions.allocated_extents == []


def test_reads_use_buffer_cache(stasis):
    table = build(stasis)
    table.get(b"key00042")
    busy = stasis.data_disk.stats.busy_seconds
    table.get(b"key00042")  # same block: cache hit
    assert stasis.data_disk.stats.busy_seconds == busy

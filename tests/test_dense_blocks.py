"""The dense block layout: blocks fill the pages they own.

A block reaches one page, then keeps accepting records while they fit
in the ``ceil(bytes / page)`` pages it already owns, and closes before
the record that would need one more.  These tests pin the rule itself
(a hypothesis property over arbitrary record sizes and compression
ratios), what follows from it (fill, one extent per uniform build, a
device-bytes regression guard) and the counters that make the padding
visible from inside.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core import BLSM, BLSMOptions
from repro.core.components import describe_component, rebuild_component
from repro.records import Record
from repro.sstable import SSTableBuilder
from repro.sstable.bloom_store import persist_bloom
from repro.storage import Stasis
from repro.storage.wal import _RECORD_OVERHEAD

PAGE = 4096


def disk_bytes(record, ratio):
    return max(8, int(record.nbytes * ratio))


def build(stasis, sizes, ratio=1.0, reserve=True):
    records = [
        Record.base(b"k%06d" % i, b"v" * size, i)
        for i, size in enumerate(sizes)
    ]
    builder = SSTableBuilder(
        stasis,
        tree_id=1,
        expected_bytes=(
            sum(disk_bytes(r, ratio) for r in records) if reserve else 0
        ),
        expected_keys=len(records),
        compression_ratio=ratio,
    )
    for record in records:
        builder.add(record)
    return records, builder.finish()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sizes=st.lists(
        st.one_of(
            st.integers(0, 300),  # many records per page
            st.integers(300, 4200),  # around a page
            st.integers(4200, 13000),  # jumbo: several pages each
        ),
        min_size=1,
        max_size=120,
    ),
    ratio=st.sampled_from([1.0, 0.75, 0.5, 0.1]),
    reserve=st.booleans(),
)
def test_every_block_fills_the_pages_it_owns(sizes, ratio, reserve):
    stasis = Stasis(buffer_pool_pages=64)
    records, table = build(stasis, sizes, ratio, reserve)

    position = 0
    for index, block in enumerate(table.blocks):
        members = records[position : position + block.nrecords]
        position += block.nrecords
        held = sum(disk_bytes(r, ratio) for r in members)
        assert block.first_key == members[0].key
        assert block.npages == max(1, math.ceil(held / PAGE))
        if index < len(table.blocks) - 1:
            # Closed by the rule, not by finish(): it had reached a
            # page and the next record needed one more.
            following = disk_bytes(records[position], ratio)
            assert held >= PAGE
            assert held + following > block.npages * PAGE
    assert position == len(records)
    assert table.nbytes == sum(disk_bytes(r, ratio) for r in records)
    assert 0.0 < table.page_fill <= 1.0

    # Every read path returns exactly what went in.
    assert list(table.iter_records()) == records
    assert list(table.scan(b"")) == records
    assert list(table.scan(b"", limit=1)) == records  # refills to the end
    for record in records[:: max(1, len(records) // 10)]:
        assert table.get(record.key) == record
    rebuilt = rebuild_component(
        stasis, describe_component(table), BLSMOptions()
    )
    assert list(rebuilt.iter_records()) == records
    assert rebuilt.page_fill == table.page_fill


@pytest.mark.parametrize(
    "value_bytes, min_fill",
    [(100, 0.95), (1000, 0.85), (3000, 0.70), (5000, 0.60)],
)
def test_uniform_build_is_one_extent_and_full(value_bytes, min_fill):
    stasis = Stasis(buffer_pool_pages=64)
    _, table = build(stasis, [value_bytes] * 2000)
    assert len(table.extents) == 1
    assert table.npages == sum(block.npages for block in table.blocks)
    assert table.page_fill >= min_fill


def test_sub_page_records_keep_two_page_blocks():
    # No point read gets larger than under the padded layout: blocks of
    # sub-page records still own two pages, they are just full.
    stasis = Stasis(buffer_pool_pages=64)
    records, table = build(stasis, [1000] * 700)
    per_block = 2 * PAGE // records[0].nbytes
    assert {block.npages for block in table.blocks[:-1]} == {2}
    assert {block.nrecords for block in table.blocks[:-1]} == {per_block}
    before = stasis.data_disk.stats.bytes_read
    assert table.get(b"k000350") is not None
    assert stasis.data_disk.stats.bytes_read - before == 2 * PAGE


def loaded_tree(records, value_bytes, c0_bytes=512 * 1024):
    tree = BLSM(BLSMOptions(c0_bytes=c0_bytes, buffer_pool_pages=64))
    keys = [b"user%012d" % i for i in range(records)]
    random.Random(0).shuffle(keys)
    for key in keys:
        tree.put(key, bytes(value_bytes))
    tree.drain()
    return tree


@pytest.mark.parametrize(
    "value_bytes, min_fill, max_overhead",
    [(1000, 0.85, 1.25), (100, 0.95, 1.05)],
)
def test_load_fill_and_padding_guard(value_bytes, min_fill, max_overhead):
    tree = loaded_tree(20_000, value_bytes)
    components = [
        c for c in (tree._c1, tree._c1_prime, tree._c2) if c is not None
    ]
    assert components
    for component in components:
        # Every block but the last, which is the component's tail and
        # however short its last records leave it (a 3-block C1 of 100 B
        # values reads 0.915 whole, 0.99 without it).  Records are
        # uniform, so each is nbytes / key_count bytes.
        body = component.blocks[:-1]
        record_bytes = component.nbytes / component.key_count
        assert body, component
        assert sum(b.nrecords for b in body) * record_bytes >= min_fill * (
            PAGE * sum(b.npages for b in body)
        )
    # C2 is built from fixed inputs, so its reservation is exact.
    assert tree._c2 is not None and len(tree._c2.extents) == 1
    # Device bytes written per record byte written: the layout's whole
    # overhead.  It was 1.97 (1 KB values) when blocks were half padding.
    metrics = tree.runtime.metrics
    packed = metrics.value("sstable.bytes_packed")
    padded = metrics.value("sstable.bytes_padded")
    written = tree.stasis.io_summary()["data_bytes_written"]
    # Nothing else writes the data device; a merge still in flight
    # holds back about one streaming unit of write-behind.
    unit = tree.stasis.streaming_pages
    assert 0 <= packed + padded - written <= 2 * unit * PAGE
    assert (packed + padded) / packed <= max_overhead
    view = tree.level_view()
    fills = [run["page_fill"] for level in view["levels"] for run in level]
    assert fills == [c.page_fill for c in components]
    tree.close()


def test_manifest_record_size_is_its_repr_length():
    # Descriptors memoise their repr; the WAL must still be charged
    # exactly len(repr(manifest)) of a plain-dict manifest.
    tree = loaded_tree(3000, 1000, c0_bytes=128 * 1024)
    manifest = tree._manifest()

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, tuple) and not hasattr(value, "_fields"):
            return tuple(plain(item) for item in value)
        return value

    assert type(manifest["c2"]) is not dict  # the memoising descriptor
    assert repr(manifest) == repr(plain(manifest))
    wal = tree.stasis.wal
    tree.stasis.commit_manifest(manifest)
    logged = list(wal.records())[-1]
    assert logged.payload is manifest
    assert logged.nbytes == _RECORD_OVERHEAD + len(repr(plain(manifest)))
    tree.close()


def test_descriptor_is_memoised_until_the_filter_is_persisted():
    stasis = Stasis(buffer_pool_pages=64)
    _, table = build(stasis, [200] * 300)
    first = describe_component(table)
    assert describe_component(table) is first
    assert first["bloom"] is None
    persist_bloom(stasis, table)
    second = describe_component(table)
    assert second is not first
    assert second["bloom"]["extent"] == table.bloom_extent
    assert repr(second) == repr(dict(second))


def test_cli_shows_page_fill_and_layout_overhead(capsys):
    code = main(
        [
            "trace", "--engine", "blsm", "--records", "600", "--ops", "0",
            "--c0-bytes", "65536", "--cache-pages", "16",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "page fill" in out
    assert "of padding" in out
    code = main(["amplification", "--max-ratio", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "device bytes" in out and "record bytes" in out
    assert "layout overhead" in out

"""Tests for RAM accounting (Appendix A's read-fanout inputs)."""

import math

from repro.core import BLSM, BLSMOptions
from repro.records import Record
from repro.sstable import SSTableBuilder
from repro.storage import Stasis


def test_index_ram_scales_with_blocks():
    stasis = Stasis()
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=400)
    for i in range(400):
        builder.add(Record.base(b"key%04d" % i, b"v" * 500, i))
    table = builder.finish()
    per_block = table.index_ram_bytes() / len(table.blocks)
    # One entry per block: first key (8 bytes here) + pointer + length.
    assert 20 <= per_block <= 40
    assert table.index_ram_bytes() < table.nbytes / 10


def test_memory_footprint_roles():
    tree = BLSM(BLSMOptions(c0_bytes=64 * 1024, buffer_pool_pages=16))
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(100))
    footprint = tree.memory_footprint()
    for role in ("index", "bloom", "c0", "cache"):
        assert role in footprint
        assert footprint[role] >= 0
    assert footprint["cache"] == 16 * 4096
    assert footprint["c0"] == tree.component_sizes()["c0"]


def test_footprint_index_appears_after_merge():
    tree = BLSM(BLSMOptions(c0_bytes=64 * 1024))
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(100))
    before = tree.memory_footprint()
    tree.drain()
    after = tree.memory_footprint()
    assert before["index"] == 0 or after["index"] >= before["index"]
    assert after["index"] > 0
    assert after["bloom"] > 0
    assert after["c0"] == 0


def test_read_fanout_is_data_over_index():
    tree = BLSM(BLSMOptions(c0_bytes=128 * 1024))
    for i in range(1000):
        key = (b"user%05d" % i).ljust(100, b"x")  # Appendix A key shape
        tree.put(key, bytes(1000))
    tree.compact()
    footprint = tree.memory_footprint()
    data = tree.component_sizes()["c2"]
    fanout = data / footprint["index"]
    assert 20 < fanout < 80  # the appendix's ~40x


def test_no_bloom_means_zero_bloom_ram():
    tree = BLSM(
        BLSMOptions(c0_bytes=32 * 1024, with_bloom_filters=False)
    )
    for i in range(1500):
        tree.put(b"key%05d" % i, bytes(64))
    tree.drain()
    assert tree.memory_footprint()["bloom"] == 0


def test_bloom_ram_is_the_packed_bits_whether_or_not_probed():
    """``memory_footprint()["bloom"]`` is the paper's packed footprint:
    ceil(nbits / 8) per component.  A probe allocates the filter's host
    tiles (T = 1 + ceil((k - 1) / 2) bytes per bit) and moves nothing."""
    tree = BLSM(BLSMOptions(c0_bytes=64 * 1024))
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(100))
    tree.drain()
    blooms = [
        component.bloom
        for component in (tree._c1, tree._c1_prime, tree._c2)
        if component is not None and component.bloom is not None
    ]
    assert blooms and all(bloom._tiles is None for bloom in blooms)
    packed = sum((bloom.nbits + 7) // 8 for bloom in blooms)
    assert tree.memory_footprint()["bloom"] == packed
    assert tree.get(b"key00001") is not None
    assert tree.memory_footprint()["bloom"] == packed
    for bloom in blooms:
        tiles = 1 + math.ceil((bloom.nhashes - 1) / 2)
        assert len(bloom._tiles) == tiles * bloom.nbits

"""A component's Bloom filter is filled when it is first read.

``SSTableBuilder`` hands each closed block's record tuple to
``BloomFilter.defer``; the keys are hashed on the first probe or
``to_bytes``.  These tests hold

* the digest: a copy of the module's template blake2b state, fed a
  key, digests to ``blake2b(key, digest_size=16)``;
* equivalence: a filter filled from deferred block tuples has the bits,
  the key count and the answers of one filled eagerly by ``update`` —
  and both set the bits of the closed form ``h1 + i*h2 (mod m)``;
* laziness: a finished component has hashed nothing until its first
  ``get`` / ``might_contain``, which hashes every key once, and
  ``persist_bloom`` fills the filter before writing its bytes;
* independence from the device: the fill issues no I/O and does not
  read pages back, so a corrupt-marked data page changes no bit;
* recovery: ``rebuild_component`` without a persisted filter still
  scans (and is charged for) the whole component when it is called.
"""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.bloom.filter as filter_module
from repro.bloom import BloomFilter
from repro.core import BLSMOptions
from repro.core.components import describe_component, rebuild_component
from repro.errors import CorruptionError
from repro.faults import FaultPlan
from repro.records import Record
from repro.sim.stats import IOStats
from repro.sstable import SSTableBuilder
from repro.sstable.bloom_store import load_bloom, persist_bloom
from repro.storage import Stasis

PAGE = 4096


def closed_form_bits(keys, nbits, nhashes):
    """The filter's bit array, computed without ``BloomFilter``."""
    bits = bytearray((nbits + 7) // 8)
    for key in keys:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(nhashes):
            bit = (h1 + i * h2) % nbits
            bits[bit >> 3] |= 1 << (bit & 7)
    return bytes(bits)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
@example(b"")
@example(b"k" * 128)  # exactly one blake2b block
@example(b"k" * 129)  # one byte into the second
@example(bytes(range(256)) * 2)
def test_the_template_digest_is_the_blake2b_of_the_key(key):
    template = filter_module._TEMPLATE
    state = template.copy()
    state.update(key)
    assert state.digest() == hashlib.blake2b(key, digest_size=16).digest()
    # The filter's fill and probe hash through the same copies: the
    # closed form's bits, the key found, the template left empty.
    bloom = BloomFilter(4099, 7)
    bloom.update([key])
    assert bloom.to_bytes() == closed_form_bits([key], 4099, 7)
    assert key in bloom
    assert template.digest() == hashlib.blake2b(digest_size=16).digest()


def blocks_of(keys, cuts):
    """``keys`` as record tuples, split before every index in ``cuts``."""
    records = [Record.base(key, b"v", i) for i, key in enumerate(keys)]
    edges = [0, *sorted(cuts), len(records)]
    return [tuple(records[a:b]) for a, b in zip(edges, edges[1:])]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(st.binary(min_size=1, max_size=12), max_size=150),
    st.lists(st.integers(0, 150), max_size=12),
    st.lists(st.binary(min_size=1, max_size=12), max_size=40),
    st.integers(64, 3000),
    st.integers(1, 9),
)
def test_a_deferred_fill_equals_the_eager_fill(keys, cuts, probes, nbits, k):
    cuts = [c for c in cuts if c <= len(keys)]
    eager = BloomFilter(nbits, k)
    eager.update(iter(keys))
    deferred = BloomFilter(nbits, k)  # read through its probes first
    persisted = BloomFilter(nbits, k)  # read through to_bytes first
    for block in blocks_of(keys, cuts):
        deferred.defer(block)
        persisted.defer(block)
    assert deferred.ninserted == persisted.ninserted == eager.ninserted
    assert eager.ninserted == len(keys)
    for key in keys + probes:
        assert (key in deferred) == (key in eager)
    assert all(key in deferred for key in keys)
    expected = closed_form_bits(keys, nbits, k)
    assert persisted.to_bytes() == eager.to_bytes() == expected
    assert deferred.to_bytes() == expected
    assert deferred.ninserted == len(keys)


def test_blocks_deferred_after_a_probe_are_filled_by_the_next():
    bloom = BloomFilter.for_capacity(200)
    (first,) = blocks_of([b"a%03d" % i for i in range(100)], [])
    (second,) = blocks_of([b"b%03d" % i for i in range(100)], [])
    bloom.defer(first)
    assert b"a000" in bloom and b"b000" not in bloom
    bloom.defer(second)
    assert all(r.key in bloom for r in first + second)
    assert bloom.ninserted == 200


def build(stasis, n=600, value_bytes=100):
    """A component of ``n`` records; the records and the component."""
    records = [
        Record.base(b"key%06d" % i, b"v" * value_bytes, i) for i in range(n)
    ]
    builder = SSTableBuilder(
        stasis,
        tree_id=1,
        expected_bytes=sum(r.nbytes for r in records),
        expected_keys=n,
    )
    for record in records:
        builder.add(record)
    return records, builder.finish()


def eager_bits(table, records):
    bloom = BloomFilter(table.bloom.nbits, table.bloom.nhashes)
    bloom.update(r.key for r in records)
    return bloom.to_bytes()


def count_hashes(monkeypatch):
    """Count every key the filter module hashes from now on: each digest
    starts from a copy of the module's template state."""
    calls = [0]
    template = filter_module._TEMPLATE

    class Counting:
        def copy(self):
            calls[0] += 1
            return template.copy()

    monkeypatch.setattr(filter_module, "_TEMPLATE", Counting())
    return calls


@pytest.mark.parametrize("first_read", ["might_contain", "get"])
def test_a_component_hashes_no_key_until_it_is_first_probed(
    monkeypatch, first_read
):
    hashed = count_hashes(monkeypatch)
    stasis = Stasis(buffer_pool_pages=16)
    records, table = build(stasis)
    assert len(table.blocks) > 1
    assert hashed[0] == 0
    assert table.bloom.ninserted == len(records)
    getattr(table, first_read)(b"key999999x")
    assert hashed[0] == len(records) + 1  # the fill, then the probe
    assert table.get(records[7].key) == records[7]
    assert hashed[0] == len(records) + 2  # one hash per probe from now on
    assert table.bloom.to_bytes() == eager_bits(table, records)


def test_persisting_a_filter_fills_it_first(monkeypatch):
    hashed = count_hashes(monkeypatch)
    stasis = Stasis(buffer_pool_pages=16)
    records, table = build(stasis)
    persist_bloom(stasis, table)
    assert hashed[0] == len(records)
    desc = describe_component(table)["bloom"]
    loaded = load_bloom(stasis, desc)
    assert loaded.to_bytes() == eager_bits(table, records)
    assert loaded.ninserted == len(records)
    assert all(r.key in loaded for r in records)


def test_the_fill_issues_no_device_io():
    stasis = Stasis(buffer_pool_pages=16)
    records, table = build(stasis)
    before = stasis.data_disk.stats.snapshot()
    pool = len(stasis.buffer)
    clock = stasis.clock.now
    assert table.might_contain(records[0].key)
    assert table.bloom.to_bytes() == eager_bits(table, records)
    assert stasis.data_disk.stats.delta(before) == IOStats()
    assert len(stasis.buffer) == pool and stasis.clock.now == clock


def test_a_corrupt_data_page_changes_no_filled_bit():
    plan = FaultPlan([], armed=False)
    stasis = Stasis(buffer_pool_pages=16, fault_plan=plan)
    records, table = build(stasis)
    for extent in table.extents:
        stasis.data_disk.mark_corrupt(extent.start * PAGE, extent.length * PAGE)
    with pytest.raises(CorruptionError):  # the device really is unreadable
        list(table.iter_records())
    assert all(table.might_contain(r.key) for r in records)
    assert table.bloom.to_bytes() == eager_bits(table, records)


#: Device bytes one ``rebuild_component`` of ``build()``'s component reads
#: when the filter was not persisted: every page of the component, read
#: when the call is made.
REBUILD_READ_BYTES = 19 * PAGE


def test_a_rebuild_without_a_persisted_filter_scans_the_component_now():
    stasis = Stasis(buffer_pool_pages=16)
    records, table = build(stasis)
    pages = sum(block.npages for block in table.blocks)
    assert pages * PAGE == REBUILD_READ_BYTES
    desc = describe_component(table)
    assert desc["bloom"] is None
    before = stasis.data_disk.stats.snapshot()
    rebuilt = rebuild_component(stasis, desc, BLSMOptions())
    assert stasis.data_disk.stats.delta(before).bytes_read == REBUILD_READ_BYTES
    assert rebuilt.bloom.ninserted == len(records)
    after = stasis.data_disk.stats.snapshot()
    rng = random.Random(0)
    for record in rng.sample(records, 20):
        assert rebuilt.might_contain(record.key)
    assert stasis.data_disk.stats.delta(after) == IOStats()
    assert rebuilt.bloom.to_bytes() == table.bloom.to_bytes()

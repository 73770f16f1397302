"""Edge-case tests across modules."""

import pytest

from repro.baselines import BLSMEngine, PartitionedBLSMEngine
from repro.core import BLSM, BLSMOptions, PartitionedBLSM
from repro.core.scheduler import SpringGearScheduler
from repro.errors import DuplicateKeyError, EngineClosedError
from repro.memtable import MemTable
from repro.records import Record


class TestOptionsValidation:
    def test_watermark_ordering(self):
        # The marks are the spring's constants, checked where it is built.
        with pytest.raises(ValueError):
            SpringGearScheduler(low_water=0.9, high_water=0.5)
        with pytest.raises(ValueError):
            SpringGearScheduler(low_water=-0.1)

    def test_scheduler_name(self):
        with pytest.raises(ValueError):
            BLSMOptions(scheduler="wibble")

    def test_c0_bytes_positive(self):
        with pytest.raises(ValueError):
            BLSMOptions(c0_bytes=0)

    def test_compression_ratio_range(self):
        with pytest.raises(ValueError):
            BLSMOptions(compression_ratio=1.5)
        BLSMOptions(compression_ratio=1.0)  # boundary is legal


class TestInsertUnique:
    def test_raises_on_duplicate(self):
        engine = BLSMEngine(BLSMOptions(c0_bytes=8 * 1024))
        engine.insert_unique(b"k", b"v")
        with pytest.raises(DuplicateKeyError) as excinfo:
            engine.insert_unique(b"k", b"w")
        assert excinfo.value.key == b"k"
        assert engine.get(b"k") == b"v"

    def test_works_on_every_engine(self):
        from repro.baselines import BTreeEngine
        from repro.engines import build_engine

        for engine in (
            BLSMEngine(BLSMOptions(c0_bytes=8 * 1024)),
            BTreeEngine(buffer_pool_pages=8),
            build_engine("leveldb", c0_bytes=32 * 1024, cache_pages=8),
            PartitionedBLSMEngine(BLSMOptions(c0_bytes=8 * 1024)),
        ):
            engine.insert_unique(b"a", b"1")
            with pytest.raises(DuplicateKeyError):
                engine.insert_unique(b"a", b"2")


class TestEmptyTrees:
    def test_empty_scan(self):
        tree = BLSM(BLSMOptions(c0_bytes=8 * 1024))
        assert list(tree.scan(b"")) == []
        assert list(tree.scan(b"a", b"z", limit=5)) == []

    def test_empty_partitioned_scan(self):
        tree = PartitionedBLSM(BLSMOptions(c0_bytes=8 * 1024))
        assert list(tree.scan(b"")) == []

    def test_drain_and_compact_on_empty(self):
        tree = BLSM(BLSMOptions(c0_bytes=8 * 1024))
        tree.drain()
        tree.compact()
        assert tree.component_sizes()["c2"] == 0

    def test_empty_range_scan(self):
        tree = BLSM(BLSMOptions(c0_bytes=8 * 1024))
        for i in range(10):
            tree.put(b"k%02d" % i, b"v")
        assert list(tree.scan(b"k05", b"k05")) == []  # empty interval
        assert list(tree.scan(b"z")) == []  # past all keys


class TestClosedEngines:
    def test_partitioned_closed(self):
        tree = PartitionedBLSM(BLSMOptions(c0_bytes=8 * 1024))
        tree.close()
        with pytest.raises(EngineClosedError):
            tree.get(b"k")
        with pytest.raises(EngineClosedError):
            list(tree.scan(b""))
        with pytest.raises(EngineClosedError):
            tree.drain()

    def test_scan_generator_created_before_close(self):
        tree = BLSM(BLSMOptions(c0_bytes=8 * 1024))
        tree.put(b"k", b"v")
        scan = tree.scan(b"")  # generator not yet started
        tree.close()
        with pytest.raises(EngineClosedError):
            next(scan)


class TestMemtableCoverage:
    def test_fold_in_memtable_tracks_coverage(self):
        # Log retention depends on folded memtable records carrying the
        # full seqno range of the writes they incorporate.
        table = MemTable(1 << 16)
        table.put(Record.base(b"k", b"v", 5))
        table.put(Record.delta(b"k", b"+1", 8))
        table.put(Record.delta(b"k", b"+2", 11))
        record = table.get(b"k")
        assert record.seqno == 11
        assert record.coverage_start == 5

    def test_superseding_base_resets_coverage(self):
        table = MemTable(1 << 16)
        table.put(Record.base(b"k", b"v", 5))
        table.put(Record.delta(b"k", b"+1", 8))
        table.put(Record.base(b"k", b"fresh", 12))
        assert table.get(b"k").coverage_start == 12


class TestZeroByteValues:
    def test_empty_values_roundtrip_everywhere(self):
        tree = BLSM(BLSMOptions(c0_bytes=4096))
        tree.put(b"empty", b"")
        assert tree.get(b"empty") == b""
        tree.drain()
        assert tree.get(b"empty") == b""
        tree.compact()
        assert tree.get(b"empty") == b""
        assert list(tree.scan(b"")) == [(b"empty", b"")]


class TestHugeRecords:
    def test_record_larger_than_c0(self):
        tree = BLSM(BLSMOptions(c0_bytes=4096, buffer_pool_pages=8))
        big = bytes(20_000)  # bigger than C0 itself
        tree.put(b"big", big)
        assert tree.get(b"big") == big
        tree.drain()
        assert tree.get(b"big") == big
        for i in range(50):
            tree.put(b"small%02d" % i, b"x")
        assert tree.get(b"big") == big

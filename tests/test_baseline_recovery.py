"""Crash recovery for the baseline engines (B-Tree and LevelDB).

LevelDB recovers through the tree kernel's two-phase path: the newest
manifest names its files, the logical log replays the memtable.
"""

import random

from repro.baselines import BTreeEngine, CompactionEngine
from repro.core import BLSMOptions, CompactionTree
from repro.engines import LEVELDB_OPTIONS
from repro.storage import DurabilityMode, Stasis


def btree_stasis():
    return Stasis(page_size=4096, buffer_pool_pages=64,
                  durability=DurabilityMode.SYNC)


class TestBTreeRecovery:
    def test_recover_empty(self):
        stasis = btree_stasis()
        engine = BTreeEngine.recover(stasis)
        assert engine.get(b"anything") is None

    def test_replay_without_checkpoint(self):
        stasis = btree_stasis()
        engine = _btree_over(stasis)
        model = {}
        rng = random.Random(1)
        for i in range(1200):
            key = b"key%04d" % rng.randrange(500)
            value = b"v%04d" % i
            engine.put(key, value)
            model[key] = value
        stasis.crash()
        recovered = BTreeEngine.recover(stasis)
        assert all(recovered.get(k) == v for k, v in model.items())

    def test_checkpoint_bounds_replay(self):
        stasis = btree_stasis()
        engine = _btree_over(stasis)
        for i in range(800):
            engine.put(b"key%04d" % i, b"old")
        engine.checkpoint()
        assert stasis.logical_log.durable_records == 0
        engine.put(b"post", b"crash-me")
        stasis.crash()
        recovered = BTreeEngine.recover(stasis)
        assert recovered.get(b"key0042") == b"old"
        assert recovered.get(b"post") == b"crash-me"

    def test_deletes_replayed(self):
        stasis = btree_stasis()
        engine = _btree_over(stasis)
        engine.put(b"k", b"v")
        engine.checkpoint()
        engine.delete(b"k")
        stasis.crash()
        recovered = BTreeEngine.recover(stasis)
        assert recovered.get(b"k") is None

    def test_replay_reads_each_logged_write_once(self):
        # A delete and the put after it are two records under two
        # seqnos: replay reads the three records' bytes, each once.
        stasis = btree_stasis()
        engine = _btree_over(stasis)
        engine.put(b"a", b"1" * 50)
        engine.delete(b"a")
        engine.put(b"b", b"2" * 200)
        stasis.crash()
        before = stasis.log_disk.stats.bytes_read
        recovered = BTreeEngine.recover(stasis)
        framing = 24
        assert stasis.log_disk.stats.bytes_read - before == (
            (framing + 1 + 50) + (framing + 1) + (framing + 1 + 200)
        )
        assert recovered.get(b"a") is None
        assert recovered.get(b"b") == b"2" * 200

    def test_recovery_does_not_log_the_writes_it_replays(self):
        # Five SYNC puts, then two crash-and-recover rounds: each round
        # replays each write once and leaves the log's durable records
        # as it found them.
        stasis = btree_stasis()
        engine = _btree_over(stasis)
        for i in range(5):
            engine.put(b"k%d" % i, b"v%d" % i)
        log = stasis.logical_log
        logged = [(r.seqno, r.op, r.key, r.value) for r in log.file.durable]
        assert [seqno for seqno, *_ in logged] == [0, 1, 2, 3, 4]
        for _round in range(2):
            stasis.crash()
            replayed = []
            replay = log.replay

            def counted():
                for record in replay():
                    replayed.append(record.seqno)
                    yield record

            log.replay = counted
            recovered = BTreeEngine.recover(stasis)
            del log.replay
            assert replayed == [0, 1, 2, 3, 4]
            assert [
                (r.seqno, r.op, r.key, r.value) for r in log.file.durable
            ] == logged
            assert log.pending_count == 0
            for i in range(5):
                assert recovered.get(b"k%d" % i) == b"v%d" % i
        recovered.put(b"k5", b"v5")  # takes the seqno after the replayed ones
        assert log.file.durable[-1].seqno == 5

    def test_recovered_engine_keeps_working(self):
        stasis = btree_stasis()
        engine = _btree_over(stasis)
        engine.put(b"a", b"1")
        engine.checkpoint()
        stasis.crash()
        recovered = BTreeEngine.recover(stasis)
        recovered.put(b"b", b"2")
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"b") == b"2"
        assert [k for k, _ in recovered.scan(b"")] == [b"a", b"b"]


def _btree_over(stasis: Stasis) -> BTreeEngine:
    return BTreeEngine(stasis=stasis)


def leveldb_options():
    return BLSMOptions(
        c0_bytes=8 * 1024,
        level_base_bytes=32 * 1024,
        buffer_pool_pages=32,
        durability=DurabilityMode.SYNC,
        **LEVELDB_OPTIONS,
    )


def leveldb_over():
    return CompactionEngine(leveldb_options())


def recover_leveldb(stasis):
    return CompactionEngine.from_tree(
        CompactionTree.recover(stasis, leveldb_options())
    )


class TestLevelDBRecovery:
    def test_recover_empty(self):
        engine = leveldb_over()
        stasis = engine.tree.stasis
        stasis.crash()
        recovered = recover_leveldb(stasis)
        assert recovered.get(b"anything") is None

    def test_recover_files_and_memtable(self):
        engine = leveldb_over()
        stasis = engine.tree.stasis
        rng = random.Random(2)
        model = {}
        for i in range(3000):
            key = b"key%05d" % rng.randrange(1500)
            value = b"v%05d" % i
            engine.put(key, value)
            model[key] = value
        stasis.crash()
        recovered = recover_leveldb(stasis)
        mismatches = sum(
            1 for k, v in model.items() if recovered.get(k) != v
        )
        assert mismatches == 0
        assert list(recovered.scan(b"")) == sorted(model.items())

    def test_log_rotates_at_flush(self):
        engine = leveldb_over()
        for i in range(600):  # several memtable flushes
            engine.put(b"key%04d" % i, bytes(64))
        # Only the current memtable's writes remain in the log.
        resident = len(engine.tree._memtable)
        assert engine.tree.stasis.logical_log.durable_records <= resident

    def test_torn_compaction_leaves_no_leaks(self):
        engine = leveldb_over()
        stasis = engine.tree.stasis
        rng = random.Random(3)
        for i in range(2500):
            engine.put(b"key%05d" % rng.randrange(1200), bytes(64))
        stasis.crash()
        recovered = recover_leveldb(stasis)
        from repro.core.components import (
            component_extents,
            describe_component,
        )

        live = set()
        for table in recovered.tree._live_tables():
            live.update(component_extents(describe_component(table)))
        assert set(stasis.regions.allocated_extents) == live

    def test_recovered_engine_keeps_working(self):
        engine = leveldb_over()
        stasis = engine.tree.stasis
        engine.put(b"a", b"1")
        stasis.crash()
        recovered = recover_leveldb(stasis)
        for i in range(1500):
            recovered.put(b"more%04d" % i, bytes(64))
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"more0000") is not None

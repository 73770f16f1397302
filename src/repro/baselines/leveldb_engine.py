"""Leveled LSM engine with a partition scheduler: the LevelDB stand-in.

The paper uses LevelDB to isolate three design decisions it makes the
other way (Section 1): many exponentially sized levels instead of three,
no Bloom filters, and a partition scheduler (file-granularity compaction)
instead of a level scheduler.  This engine makes the same choices as
LevelDB circa 2012:

* a small memtable flushed to overlapping L0 files;
* levels L1..Ln of non-overlapping files, each level ~10x the previous;
* compaction units of one file plus its overlaps in the next level,
  selected round-robin within the most over-budget level ("fair");
* L0-count write throttling: a 1 ms sleep per write at the slowdown
  trigger, and a hard stall (compact until clear) at the stop trigger —
  LevelDB's literal behaviour, and the source of the long pauses in
  Figure 7 (right);
* reads probe every overlapping L0 file plus one file per deeper level:
  O(levels) seeks (Table 1).

Compaction work is time-sliced onto the write path (the background
thread's share of a saturated device), but a compaction *unit* under
uniform inserts spans much of a level, so keeping up is impossible and
the stop trigger fires — the paper's argument that partitioning alone
is inadequate (Section 3.2).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.baselines.interface import KVEngine
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record, resolve
from repro.sim.clock import VirtualClock
from repro.sim.disk import DiskModel
from repro.sstable.builder import SSTableBuilder
from repro.sstable.iterator import kway_merge, merge_records
from repro.sstable.reader import SSTable
from repro.storage.logical_log import DurabilityMode
from repro.storage.stasis import Stasis


class _CompactionJob:
    """One partition-scheduler unit: inputs -> files in a target level."""

    def __init__(
        self,
        engine: "LevelDBEngine",
        inputs_newest_first: list[SSTable],
        target_level: int,
        drop_tombstones: bool,
    ) -> None:
        self.engine = engine
        self.inputs = inputs_newest_first
        self.target_level = target_level
        self.drop_tombstones = drop_tombstones
        self.input_bytes = max(1, sum(t.nbytes for t in self.inputs))
        self.input_keys = sum(t.key_count for t in self.inputs)
        self.bytes_read = 0
        self.outputs: list[SSTable] = []
        self.done = False
        self._groups = kway_merge(
            [table.iter_records() for table in self.inputs]
        )
        self._builder: SSTableBuilder | None = None

    def step(self, budget_bytes: int) -> int:
        """Consume up to ``budget_bytes`` of input; return bytes consumed."""
        if self.done:
            return 0
        consumed = 0
        while consumed < budget_bytes:
            group = next(self._groups, None)
            if group is None:
                self._finish_builder()
                self.done = True
                break
            consumed += sum(record.nbytes for record in group)
            merged = merge_records(group, drop_tombstones=self.drop_tombstones)
            if merged is None:
                continue
            if self._builder is None:
                self._builder = self.engine._new_builder(
                    self.input_bytes, self.input_keys
                )
            self._builder.add(merged)
            if self._builder.nbytes >= self.engine.file_bytes:
                self._finish_builder()
        self.bytes_read += consumed
        return consumed

    def _finish_builder(self) -> None:
        if self._builder is None:
            return
        table = self._builder.finish()
        self._builder = None
        if table is not None:
            self.outputs.append(table)


class LevelDBEngine(KVEngine):
    """Multi-level leveled LSM without Bloom filters."""

    name = "LevelDB"

    def __init__(
        self,
        disk_model: DiskModel | None = None,
        page_size: int = 4096,
        buffer_pool_pages: int = 256,
        memtable_bytes: int = 256 * 1024,
        file_bytes: int = 512 * 1024,
        level_base_bytes: int | None = None,
        level_growth: int = 10,
        l0_compaction_trigger: int = 4,
        l0_slowdown_trigger: int = 8,
        l0_stop_trigger: int = 12,
        slowdown_sleep_seconds: float = 1e-3,
        compaction_share: float = 4.0,
        durability: DurabilityMode = DurabilityMode.ASYNC,
        seed: int = 0,
        stasis: Stasis | None = None,
    ) -> None:
        if stasis is not None:
            self.stasis = stasis
        else:
            self.stasis = Stasis(
                disk_model=disk_model,
                page_size=page_size,
                buffer_pool_pages=buffer_pool_pages,
                durability=durability,
            )
        self.memtable_bytes = memtable_bytes
        self.file_bytes = file_bytes
        self.level_base_bytes = (
            level_base_bytes if level_base_bytes is not None else 4 * memtable_bytes
        )
        self.level_growth = level_growth
        self.l0_compaction_trigger = l0_compaction_trigger
        self.l0_slowdown_trigger = l0_slowdown_trigger
        self.l0_stop_trigger = l0_stop_trigger
        self.slowdown_sleep_seconds = slowdown_sleep_seconds
        self.compaction_share = compaction_share
        self._seed = seed
        self._memtable = MemTable(memtable_bytes, seed=seed)
        self._l0: list[SSTable] = []  # newest first; ranges overlap
        self._levels: list[list[SSTable]] = []  # L1.. sorted, disjoint
        self._job: _CompactionJob | None = None
        self._round_robin: dict[int, int] = {}
        self._next_seqno = 0
        self._next_tree_id = 1
        self._compaction_epoch = 0
        self._closed = False
        self.stall_seconds = 0.0
        self.slowdown_events = 0
        self.stop_events = 0

    @property
    def clock(self) -> VirtualClock:
        return self.stasis.clock

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._write(Record.base(key, value, self._take_seqno()), "put")

    def delete(self, key: bytes) -> None:
        self._write(Record.tombstone(key, self._take_seqno()), "delete")

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        """LevelDB-style blind delta (zero seeks, Table 1)."""
        self._write(Record.delta(key, delta, self._take_seqno()), "delta")

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        """Without Bloom filters the existence check probes every
        overlapping file: O(levels) seeks — the Section 5.2 weakness."""
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        versions: list[Record] = []
        if self._collect(self._memtable.get(key), versions):
            return resolve(versions)
        for table in self._l0:
            if self._collect(table.get(key), versions):
                return resolve(versions)
        for level in self._levels:
            table = self._file_covering(level, key)
            if table is not None and self._collect(table.get(key), versions):
                break
        return resolve(versions)

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Merged scan over the memtable, L0 and every level.

        Compaction can retire the files a paused scan is reading, so the
        scan validates a compaction epoch after each row and restarts
        from its cursor when the file set changed.
        """
        self._check_open()
        cursor = lo
        emitted = 0
        while True:
            epoch = self._compaction_epoch
            restart = False
            remaining = None if limit is None else limit - emitted
            sources: list[Iterator[Record]] = [self._memtable.scan(cursor, hi)]
            sources.extend(
                table.scan(cursor, hi, limit=remaining) for table in self._l0
            )
            for level in self._levels:
                sources.append(self._scan_level(level, cursor, hi, remaining))
            for group in kway_merge(sources):
                value = resolve(group)
                if value is None:
                    continue
                yield group[0].key, value
                cursor = group[0].key + b"\x00"
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
                if self._compaction_epoch != epoch:
                    restart = True
                    break
            if not restart:
                return

    def flush(self) -> None:
        self.stasis.logical_log.force()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True

    def io_summary(self) -> dict[str, Any]:
        summary = self.stasis.io_summary()
        summary["l0_files"] = len(self._l0)
        summary["levels"] = [len(level) for level in self._levels]
        summary["stall_seconds"] = self.stall_seconds
        return summary

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _manifest(self) -> dict[str, Any]:
        from repro.core.components import describe_component

        return {
            "l0": tuple(describe_component(t) for t in self._l0),
            "levels": tuple(
                tuple(describe_component(t) for t in level)
                for level in self._levels
            ),
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
        }

    @classmethod
    def recover(cls, stasis: Stasis, **engine_options: Any) -> "LevelDBEngine":
        """Rebuild from the newest manifest plus logical-log replay.

        The manifest restores the file set (L0 and every level); the
        log replays the memtable lost at crash; extents a torn
        compaction allocated but never committed are freed.
        """
        from repro.core.components import rebuild_component
        from repro.core.kernel import free_orphan_extents, replay_log
        from repro.core.options import BLSMOptions
        from repro.errors import RecoveryError

        engine = cls(stasis=stasis, **engine_options)
        rebuild_options = BLSMOptions(with_bloom_filters=False)
        try:
            manifest = stasis.recover_manifest()
        except RecoveryError:
            manifest = None
        if manifest is not None:
            engine._l0 = [
                rebuild_component(stasis, desc, rebuild_options)
                for desc in manifest["l0"]
            ]
            engine._levels = [
                [
                    rebuild_component(stasis, desc, rebuild_options)
                    for desc in level
                ]
                for level in manifest["levels"]
            ]
            engine._next_seqno = manifest["next_seqno"]
            engine._next_tree_id = manifest["next_tree_id"]
        free_orphan_extents(
            stasis, engine._l0 + [t for lvl in engine._levels for t in lvl]
        )
        engine._next_seqno = replay_log(
            stasis, engine._memtable, engine._next_seqno
        )
        return engine

    def level_bytes(self, level: int) -> int:
        """Total bytes in level ``level`` (1-based; 0 means L0)."""
        if level == 0:
            return sum(table.nbytes for table in self._l0)
        if level - 1 < len(self._levels):
            return sum(table.nbytes for table in self._levels[level - 1])
        return 0

    # ------------------------------------------------------------------
    # Write path and compaction scheduling
    # ------------------------------------------------------------------

    def _write(self, record: Record, op: str) -> None:
        self._check_open()
        value = record.value if op != "delete" else None
        self.stasis.logical_log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        # Background compaction's share of the saturated device,
        # time-sliced onto the write path.
        self._compaction_tick(int(self.compaction_share * record.nbytes))
        if self._memtable.nbytes >= self.memtable_bytes:
            self._rotate_memtable()

    def _rotate_memtable(self) -> None:
        if len(self._l0) >= self.l0_stop_trigger:
            # Hard stop: writes cease until L0 drains (unbounded pause).
            self.stop_events += 1
            before = self.clock.now
            while len(self._l0) >= self.l0_compaction_trigger:
                if self._compaction_tick(1 << 30) == 0:
                    break
            self.stall_seconds += self.clock.now - before
        elif len(self._l0) >= self.l0_slowdown_trigger:
            self.slowdown_events += 1
            self.clock.advance(self.slowdown_sleep_seconds)
            self.stall_seconds += self.slowdown_sleep_seconds
        self._flush_memtable()

    def _flush_memtable(self) -> None:
        if self._memtable.is_empty:
            return
        builder = self._new_builder(
            self._memtable.nbytes, len(self._memtable)
        )
        for record in self._memtable:
            builder.add(record)
        table = builder.finish()
        if table is not None:
            self._l0.insert(0, table)
        self._memtable = MemTable(self.memtable_bytes, seed=self._seed)
        # LevelDB rotates its log with the memtable: every logged write
        # is now durable in the L0 file, so the old log retires whole.
        self.stasis.commit_manifest(self._manifest())
        self.stasis.logical_log.truncate(self._next_seqno)

    def _compaction_tick(self, budget_bytes: int) -> int:
        """Advance the active compaction job, picking a new one if idle."""
        if budget_bytes <= 0:
            return 0
        if self._job is None and not self._pick_job():
            return 0
        assert self._job is not None
        worked = self._job.step(budget_bytes)
        if self._job.done:
            self._install_job(self._job)
            self._job = None
        return worked

    def _pick_job(self) -> bool:
        """Partition scheduler: choose the next compaction unit."""
        if len(self._l0) >= self.l0_compaction_trigger:
            self._job = self._build_l0_job()
            return True
        worst_level, worst_ratio = 0, 1.0
        for index in range(len(self._levels)):
            limit = self._level_limit(index + 1)
            ratio = self.level_bytes(index + 1) / limit
            if ratio > worst_ratio:
                worst_level, worst_ratio = index + 1, ratio
        if worst_level == 0:
            return False
        self._job = self._build_level_job(worst_level)
        return True

    def _build_l0_job(self) -> _CompactionJob:
        """All L0 files plus every overlapping L1 file -> new L1 files.

        Under uniform inserts each L0 file spans the whole keyspace, so
        this unit rewrites essentially all of L1 — the reason L0 backs
        up no matter how "fair" the scheduler is (Section 3.2).
        """
        inputs = list(self._l0)
        lo = min(t.min_key for t in inputs if t.min_key is not None)
        hi = max(t.max_key for t in inputs if t.max_key is not None)
        overlaps = self._overlapping(1, lo, hi)
        # Inputs stay readable in their levels until the job installs.
        return _CompactionJob(
            self, inputs + overlaps, target_level=1,
            drop_tombstones=self._is_bottom(1),
        )

    def _build_level_job(self, level: int) -> _CompactionJob:
        files = self._levels[level - 1]
        index = self._round_robin.get(level, 0) % len(files)
        self._round_robin[level] = index + 1
        chosen = files[index]
        lo, hi = chosen.min_key, chosen.max_key
        assert lo is not None and hi is not None
        overlaps = self._overlapping(level + 1, lo, hi)
        return _CompactionJob(
            self, [chosen] + overlaps, target_level=level + 1,
            drop_tombstones=self._is_bottom(level + 1),
        )

    def _install_job(self, job: _CompactionJob) -> None:
        """Atomically swap a finished job's inputs for its outputs."""
        self._compaction_epoch += 1  # paused scans must restart
        input_ids = {id(table) for table in job.inputs}
        self._l0 = [t for t in self._l0 if id(t) not in input_ids]
        for index in range(len(self._levels)):
            self._levels[index] = [
                t for t in self._levels[index] if id(t) not in input_ids
            ]
        self._ensure_level(job.target_level)
        target = self._levels[job.target_level - 1]
        target.extend(job.outputs)
        target.sort(key=lambda t: t.min_key or b"")
        self.stasis.commit_manifest(self._manifest())
        for table in job.inputs:
            table.free()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError()

    def _take_seqno(self) -> int:
        seqno = self._next_seqno
        self._next_seqno += 1
        return seqno

    def _take_tree_id(self) -> int:
        tree_id = self._next_tree_id
        self._next_tree_id += 1
        return tree_id

    def _new_builder(
        self, expected_bytes: int, expected_keys: int
    ) -> SSTableBuilder:
        # An output file closes at file_bytes: reserve two files' worth
        # at most, for records of the inputs' mean size.
        limit = 2 * self.file_bytes
        if expected_bytes > limit:
            expected_keys = expected_keys * limit // expected_bytes
            expected_bytes = limit
        return SSTableBuilder(
            self.stasis,
            tree_id=self._take_tree_id(),
            expected_bytes=expected_bytes,
            expected_keys=expected_keys,
            with_bloom=False,  # stock 2012 LevelDB has no Bloom filters
        )

    @staticmethod
    def _collect(record: Record | None, versions: list[Record]) -> bool:
        if record is None:
            return False
        versions.append(record)
        return not record.is_delta

    @staticmethod
    def _file_covering(level: list[SSTable], key: bytes) -> SSTable | None:
        for table in level:
            if table.min_key is None or table.max_key is None:
                continue
            if table.min_key <= key <= table.max_key:
                return table
        return None

    @staticmethod
    def _scan_level(
        level: list[SSTable], lo: bytes, hi: bytes | None, limit: int | None
    ) -> Iterator[Record]:
        for table in level:
            if table.max_key is not None and table.max_key < lo:
                continue
            if hi is not None and table.min_key is not None and table.min_key >= hi:
                break
            yield from table.scan(lo, hi, limit=limit)

    def _overlapping(self, level: int, lo: bytes, hi: bytes) -> list[SSTable]:
        if level - 1 >= len(self._levels):
            return []
        found = []
        for table in self._levels[level - 1]:
            if table.min_key is None or table.max_key is None:
                continue
            if table.max_key >= lo and table.min_key <= hi:
                found.append(table)
        return found

    def _ensure_level(self, level: int) -> None:
        while len(self._levels) < level:
            self._levels.append([])

    def _level_limit(self, level: int) -> int:
        return self.level_base_bytes * (self.level_growth ** (level - 1))

    def _is_bottom(self, target_level: int) -> bool:
        for deeper in range(target_level, len(self._levels)):
            if self._levels[deeper]:
                return False
        return True

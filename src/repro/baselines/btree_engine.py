"""Update-in-place B-Tree engine: the InnoDB stand-in (Section 2.2).

Inner nodes live in RAM (the paper's analysis assumes keys fit in memory
and counts only leaf-page I/O); leaves are disk pages managed by the
buffer pool.  The cost structure is the one the paper reasons about:

* point lookup — one seek when the leaf is uncached;
* update — read the leaf (one seek), dirty it in the pool, and pay a
  second, random write when the page is evicted or flushed: two seeks;
* ``insert_if_not_exists`` — must read the leaf even for absent keys,
  which is why bulk loads that check for duplicates collapse (§5.2);
* scans — one seek per *physically discontiguous* leaf.  Splits place
  new leaves wherever the allocator has space, so a randomly updated
  tree fragments and long scans degrade (§5.6).

InnoDB uses 16 KB pages (§5.3); that is the default here.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.baselines.interface import KVEngine
from repro.errors import EngineClosedError, RecoveryError
from repro.records import Record, apply_delta
from repro.sim.clock import VirtualClock
from repro.sim.disk import DiskModel
from repro.storage.buffer import EvictionPolicy
from repro.storage.logical_log import DurabilityMode
from repro.storage.stasis import Stasis


class BTreeEngine(KVEngine):
    """A disk-resident update-in-place B+-Tree over the buffer pool."""

    name = "InnoDB"

    def __init__(
        self,
        disk_model: DiskModel | None = None,
        page_size: int = 16 * 1024,
        buffer_pool_pages: int = 256,
        eviction_policy: EvictionPolicy = EvictionPolicy.CLOCK,
        durability: DurabilityMode = DurabilityMode.ASYNC,
        prefetch_leaves: int = 0,
        stasis: Stasis | None = None,
    ) -> None:
        """``prefetch_leaves``: on a leaf miss, also fault in this many
        physically following pages — InnoDB-style read-ahead.  It helps
        sequential scans of an unfragmented tree and is counterproductive
        for random point reads (wasted bandwidth, polluted cache), one
        of the "hard coded optimizations" the paper blames for InnoDB's
        read-throughput gap (Section 5.3)."""
        if stasis is not None:
            self.stasis = stasis
        else:
            self.stasis = Stasis(
                disk_model=disk_model,
                page_size=page_size,
                buffer_pool_pages=buffer_pool_pages,
                eviction_policy=eviction_policy,
                durability=durability,
            )
        self.prefetch_leaves = prefetch_leaves
        # The in-RAM inner level: sorted (first_key, page_id) per leaf.
        self._leaf_keys: list[bytes] = []
        self._leaf_ids: list[int] = []
        self._next_seqno = 0
        self._closed = False

    @property
    def clock(self) -> VirtualClock:
        return self.stasis.clock

    @property
    def leaf_count(self) -> int:
        return len(self._leaf_ids)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        index = self._leaf_index(key)
        if index is None:
            return None
        records = self._read_leaf(index)
        position = bisect.bisect_left(records, key, key=lambda r: r.key)
        if position < len(records) and records[position].key == key:
            return records[position].value
        return None

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        seqno = self._take_seqno()
        self._log(seqno, "put", key, value)
        self._upsert(Record.base(key, value, seqno))

    def delete(self, key: bytes) -> None:
        self._check_open()
        index = self._leaf_index(key)
        if index is None:
            return
        self._log(self._take_seqno(), "delete", key, None)
        self._remove(index, key)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        """B-Trees have no blind-write primitive: a delta is a full
        read-modify-write of the leaf (Table 1: two seeks)."""
        self._check_open()
        current = self.get(key)
        base = current if current is not None else b""
        self.put(key, apply_delta(base, delta))

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        self._check_open()
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Key-cursor leaf walk.

        The cursor (not a leaf index) drives the walk, so leaf splits
        performed by writes interleaved with a paused scan cannot skip
        or duplicate records — the next leaf is re-resolved from the
        cursor every step.
        """
        self._check_open()
        cursor = lo
        emitted = 0
        while self._leaf_ids:
            index = self._leaf_index(cursor)
            assert index is not None
            for record in self._read_leaf(index):
                if record.key < cursor:
                    continue
                if hi is not None and record.key >= hi:
                    return
                yield record.key, record.value
                emitted += 1
                cursor = record.key + b"\x00"
                if limit is not None and emitted >= limit:
                    return
            # Step past this leaf: re-resolve from the next leaf's low key.
            next_index = self._leaf_index(cursor)
            if next_index is None:
                return
            if next_index == index:
                if index + 1 >= len(self._leaf_keys):
                    return
                cursor = max(cursor, self._leaf_keys[index + 1])

    def bulk_load(self, items: Iterator[tuple[bytes, bytes]]) -> int:
        """Load pre-sorted data at sequential speed (Section 5.2:
        InnoDB requires sorted input for reasonable load throughput).

        Returns the number of records loaded.  The tree must be empty.
        """
        self._check_open()
        if self._leaf_ids:
            raise ValueError("bulk_load requires an empty tree")
        page_size = self.stasis.page_size
        leaf: list[Record] = []
        leaf_bytes = 0
        loaded = 0
        last_key: bytes | None = None
        for key, value in items:
            if last_key is not None and key <= last_key:
                raise ValueError("bulk_load input must be sorted and unique")
            last_key = key
            record = Record.base(key, value, self._take_seqno())
            self._log(record.seqno, "put", key, value)
            if leaf and leaf_bytes + record.nbytes > page_size:
                self._append_leaf(tuple(leaf))
                leaf, leaf_bytes = [], 0
            leaf.append(record)
            leaf_bytes += record.nbytes
            loaded += 1
        if leaf:
            self._append_leaf(tuple(leaf))
        return loaded

    def flush(self) -> None:
        self.stasis.logical_log.force()
        self.stasis.buffer.flush_all()

    def checkpoint(self) -> None:
        """Make the whole tree durable and truncate the logical log.

        Classic checkpointing: force every dirty leaf, commit the inner
        level (the leaf directory) as a manifest, then drop the log
        records the flushed pages now cover.
        """
        self.flush()
        self.stasis.commit_manifest(
            {
                "leaf_keys": tuple(self._leaf_keys),
                "leaf_ids": tuple(self._leaf_ids),
                "next_seqno": self._next_seqno,
            }
        )
        self.stasis.logical_log.truncate(self._next_seqno)

    @classmethod
    def recover(
        cls,
        stasis: Stasis,
        prefetch_leaves: int = 0,
    ) -> "BTreeEngine":
        """Rebuild from the last checkpoint plus logical-log replay.

        Pages flushed by the checkpoint are durable; writes after it are
        re-applied from the logical log (they are idempotent: puts and
        deletes of full values).  A replayed write is applied under its
        own seqno and is not logged again: it is already in the log,
        where it stays until the next checkpoint, so a second recovery
        replays it once more, and only once.
        """
        engine = cls.__new__(cls)
        engine.stasis = stasis
        engine.prefetch_leaves = prefetch_leaves
        engine._closed = False
        try:
            manifest = stasis.recover_manifest()
        except RecoveryError:
            # Never checkpointed: an empty tree plus full log replay.
            manifest = {"leaf_keys": (), "leaf_ids": (), "next_seqno": 0}
        engine._leaf_keys = list(manifest["leaf_keys"])
        engine._leaf_ids = list(manifest["leaf_ids"])
        engine._next_seqno = manifest["next_seqno"]
        for record in stasis.logical_log.replay():
            if record.seqno < manifest["next_seqno"]:
                continue  # already durable via the checkpoint
            if record.op == "delete":
                index = engine._leaf_index(record.key)
                if index is not None:
                    engine._remove(index, record.key)
            else:
                assert record.value is not None
                engine._upsert(
                    Record.base(record.key, record.value, record.seqno)
                )
            engine._next_seqno = max(engine._next_seqno, record.seqno + 1)
        return engine

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True

    def io_summary(self) -> dict[str, Any]:
        return self.stasis.io_summary()

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

    def _log(
        self, seqno: int, op: str, key: bytes, value: bytes | None
    ) -> None:
        """Log one write under its own seqno (replay and the log's
        placements are per seqno)."""
        self.stasis.logical_log.log(seqno, op, key, value)

    def _leaf_index(self, key: bytes) -> int | None:
        """Index of the leaf whose range covers ``key`` (RAM-only)."""
        if not self._leaf_ids:
            return None
        return max(0, bisect.bisect_right(self._leaf_keys, key) - 1)

    def _read_leaf(self, index: int) -> tuple[Record, ...]:
        page_id = self._leaf_ids[index]
        if self.prefetch_leaves and page_id not in self.stasis.buffer:
            self._prefetch_from(page_id)
        return self.stasis.buffer.get(page_id)

    def _prefetch_from(self, page_id: int) -> None:
        """Fault in ``page_id`` plus the physically following pages.

        Read-ahead reads whatever is physically next — on a fragmented
        tree those pages are usually *not* the logically next leaves,
        which is exactly why the paper finds prefetching
        counterproductive for random reads.
        """
        count = 1
        while (
            count <= self.prefetch_leaves
            and (page_id + count) in self.stasis.pagefile
        ):
            count += 1
        payloads = self.stasis.pagefile.read_run(page_id, count)
        for offset, payload in enumerate(payloads):
            self.stasis.buffer.put(page_id + offset, payload, dirty=False)

    def _write_leaf(self, index: int, records: tuple[Record, ...]) -> None:
        self.stasis.buffer.put(self._leaf_ids[index], records, dirty=True)

    def _append_leaf(self, records: tuple[Record, ...]) -> None:
        """Bulk-load path: write a full leaf sequentially, bypass cache."""
        extent = self.stasis.regions.allocate(1)
        self.stasis.pagefile.write_page(extent.start, records)
        self._leaf_keys.append(records[0].key)
        self._leaf_ids.append(extent.start)

    def _upsert(self, record: Record) -> None:
        index = self._leaf_index(record.key)
        if index is None:
            extent = self.stasis.regions.allocate(1)
            self._leaf_keys.append(record.key)
            self._leaf_ids.append(extent.start)
            self.stasis.buffer.put(extent.start, (record,), dirty=True)
            return
        records = list(self._read_leaf(index))
        position = bisect.bisect_left(records, record.key, key=lambda r: r.key)
        if position < len(records) and records[position].key == record.key:
            records[position] = record
        else:
            records.insert(position, record)
        if sum(r.nbytes for r in records) > self.stasis.page_size:
            self._split_leaf(index, records)
        else:
            self._write_leaf(index, tuple(records))

    def _remove(self, index: int, key: bytes) -> None:
        records = list(self._read_leaf(index))
        position = bisect.bisect_left(records, key, key=lambda r: r.key)
        if position < len(records) and records[position].key == key:
            del records[position]
            self._write_leaf(index, tuple(records))

    def _split_leaf(self, index: int, records: list[Record]) -> None:
        """Split an overflowing leaf in half.

        The new right sibling is allocated wherever the allocator has
        space — *not* next to its logical neighbour — which is precisely
        how update-in-place trees fragment (Section 5.6).
        """
        middle = len(records) // 2
        left, right = tuple(records[:middle]), tuple(records[middle:])
        self._write_leaf(index, left)
        extent = self.stasis.regions.allocate(1)
        self._leaf_keys.insert(index + 1, right[0].key)
        self._leaf_ids.insert(index + 1, extent.start)
        self.stasis.buffer.put(extent.start, right, dirty=True)

    def fragmentation(self) -> float:
        """Fraction of logically adjacent leaves not physically adjacent."""
        if len(self._leaf_ids) < 2:
            return 0.0
        breaks = sum(
            1
            for left, right in zip(self._leaf_ids, self._leaf_ids[1:])
            if right != left + 1
        )
        return breaks / (len(self._leaf_ids) - 1)

"""The tree kernel: everything about an LSM tree that is not its layout.

The paper builds one substrate (Section 4.4: Stasis logs, rate-limited
merge threads, snapshot-consistent reads) and presents partitioning
(Sections 3.3, 4.2.2) as a layout composed with it; the compaction
design-space literature draws the same line (layout, trigger and
granularity are policy, the rest is mechanism).  :class:`TreeKernel` is
that mechanism, once: the storage substrate, seqno and tree-id
counters, C0, the write API down to the logical log, the read path
(``get``, ``snapshot`` and scans over the installed
:class:`~repro.core.versions.Version`), the durability barrier, the
scheduler's merge host (each gear's step: a merge started when idle,
then one budgeted step on the caller's clock; the progress estimators
and the gear-1 deficit; the C0 stall loop), the merge and stall
instrumentation, exact log retention and crash recovery.

A layout — :class:`repro.core.tree.BLSM`'s three slots,
:class:`repro.core.compaction.tree.CompactionTree`'s policy-owned
levels, :class:`repro.core.partitioned.PartitionedBLSM`'s key-range
partitions — subclasses the kernel and supplies:

* ``_init_layout(**layout)`` — its empty component structure and
  scheduler;
* its on-disk component set, installed with ``versions.install``
  wherever it changes, newest first per key range, and ``_ram``: one
  tuple per installed range of the in-RAM sources behind C0 there (a
  frozen C0', a merge overlay), newest first, updated where those slots
  change.  ``get`` and ``snapshot`` are not hooks: they read C0, then
  the key's range's ``_ram`` and on-disk components, so the probe order
  (Section 3.1) is stated once, by what the layout installs;
* per gear: the running merge slot (``_m01`` / ``_m12``),
  ``_start_*`` (False when nothing can start), ``_*_can_start``,
  ``_finish_*`` (install, then clear the slot) and
  ``_*_next_input_bytes``; a layout without a second gear leaves gear 1
  to the kernel's idle defaults;
* ``m01_debt_per_byte`` and ``_m01_fills`` (the bytes and size ratio
  of what gear 0 fills);
* ``_manifest`` / ``_restore_layout`` / ``_live_tables`` — its durable
  root and how to read it back.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.components import (
    component_extents,
    describe_component,
    rebuild_component,
)
from repro.core.merge import MergeProcess
from repro.core.options import BLSMOptions
from repro.core.progress import outprogress
from repro.core.scheduler import make_scheduler
from repro.core.versions import (
    Prefix,
    TreeSnapshot,
    VersionSet,
    _range_lo,
    scan_view,
)
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record, RecordKind, lookup
from repro.sstable.bloom_store import persist_bloom
from repro.sstable.reader import SSTable
from repro.storage.group_commit import CommitTicket
from repro.storage.stasis import Stasis

__all__ = ["TreeKernel", "replay_log"]

OP_PUT = "put"
OP_DELETE = "delete"
OP_DELTA = "delta"
_BASE = RecordKind.BASE


def replay_log(stasis: Stasis, memtable: MemTable, next_seqno: int) -> int:
    """Recovery phase 2: replay the logical log into a fresh C0.

    Returns the seqno the next write takes: past ``next_seqno`` (the
    manifest's) and past every replayed record.
    """
    for record in stasis.logical_log.replay():
        if record.op == OP_DELETE:
            memtable.put(Record.tombstone(record.key, record.seqno))
        elif record.op == OP_DELTA:
            memtable.put(Record.delta(record.key, record.value, record.seqno))
        else:
            memtable.put(Record.base(record.key, record.value, record.seqno))
        next_seqno = max(next_seqno, record.seqno + 1)
    return next_seqno


class TreeKernel:
    """Log, C0, write path, reads, snapshots, merge stepping and recovery."""

    # The RAM sources behind C0, one tuple per installed range: none
    # for a layout whose C0 flushes whole.
    _ram: Sequence[tuple[MemTable, ...]] = ((),)

    def __init__(
        self,
        options: BLSMOptions | None = None,
        stasis: Stasis | None = None,
        **layout: Any,
    ) -> None:
        self._boot(options, stasis, **layout)
        self.stasis.commit_manifest(self._manifest())

    def _boot(
        self,
        options: BLSMOptions | None,
        stasis: Stasis | None,
        **layout: Any,
    ) -> None:
        """Everything construction and recovery share: the substrate,
        an empty C0, instrumentation, then the layout's own structure."""
        self.options = options if options is not None else self._default_options()
        self.stasis = (
            stasis if stasis is not None else Stasis.from_options(self.options)
        )
        self.runtime = self.stasis.runtime
        self._log = self.stasis.logical_log
        self._trace = self.runtime.trace
        self.versions = VersionSet(self.runtime)
        self._next_seqno = 0
        self._next_tree_id = 1
        self._closed = False
        self._memtable = self._new_memtable()
        metrics = self.runtime.metrics
        self._ctr_rotations = metrics.counter("memtable.rotations")
        self._ctr_memtable_full = metrics.counter("memtable.full_events")
        self._gauge_fill = metrics.gauge("memtable.fill")
        self._ctr_stalls = metrics.counter("writes.stalls")
        self._hist_stall = metrics.histogram("writes.stall_seconds")
        self._merge_obs = {
            gear: (
                metrics.counter(f"merge.{gear}.passes"),
                metrics.counter(f"merge.{gear}.bytes"),
                metrics.counter(f"merge.{gear}.seconds"),
            )
            for gear in ("c0c1", "c1c2")
        }
        self._init_layout(**layout)

    # ------------------------------------------------------------------
    # Layout hooks
    # ------------------------------------------------------------------

    @staticmethod
    def _default_options() -> BLSMOptions:
        return BLSMOptions()

    @cached_property
    def _c0_capacity(self) -> int:
        """Usable bytes of the active C0 (fixed for the tree's life)."""
        return self.options.c0_bytes

    def _init_layout(self, **layout: Any) -> None:
        """Create the empty on-disk structure and the scheduler
        (``layout``: the constructor's layout keywords, if it has any)."""
        raise NotImplementedError

    def _on_write(self, nbytes: int) -> None:
        """A record of ``nbytes`` just landed in C0: hand it to pacing."""
        self._gauge_fill.value = self.c0_fill_fraction  # Gauge.set, inline
        self.scheduler.on_write(nbytes)

    def _manifest(self) -> dict[str, Any]:
        """The durable root: both counters plus the component set."""
        raise NotImplementedError

    def _restore_layout(self, manifest: dict[str, Any]) -> None:
        """Rebuild the component set ``_manifest`` described."""
        raise NotImplementedError

    def _live_tables(self) -> Iterable[SSTable]:
        """Every on-disk component the layout references."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Blind write of a full base record: zero seeks (Table 1)."""
        # _write, inline: every write of a load comes through here.
        if self._closed:
            raise EngineClosedError()
        seqno = self._next_seqno
        self._next_seqno = seqno + 1
        record = Record(key, value, _BASE, seqno)
        self._log.log(seqno, OP_PUT, key, value)
        self._memtable.put(record)
        self._on_write(record.nbytes)

    def delete(self, key: bytes) -> None:
        """Write a tombstone; physical space is reclaimed by merges."""
        self._write(Record.tombstone(key, self._take_seqno()), OP_DELETE)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        """Zero-seek partial update; folded onto the base record by reads
        and merges (Section 3.1.1)."""
        self._write(Record.delta(key, delta, self._take_seqno()), OP_DELTA)

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        """Insert ``key`` only if absent; returns whether it inserted.

        The existence check consults C0 and then the Bloom filters of
        the on-disk components; for a genuinely new key in the bLSM
        tree this costs zero seeks with probability ~(1 - FPR)^3
        (Section 3.1.2).
        """
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    def read_modify_write(
        self, key: bytes, update: Callable[[bytes | None], bytes]
    ) -> bytes:
        """Read the current value, apply ``update``, write the result.

        One seek for the read; the write is blind (Table 1: one seek
        total vs. a B-Tree's two).
        """
        new_value = update(self.get(key))
        self.put(key, new_value)
        return new_value

    def write_batch(
        self,
        ops: Iterable[tuple[str, bytes, bytes | None]],
        session: int = 0,
        wait: bool = True,
    ) -> CommitTicket:
        """Apply a batch of mutations and commit them as one ticket.

        The batch's records are applied to C0 and staged in the logical
        log, then committed through the Stasis group-commit queue.  Under
        :class:`~repro.storage.logical_log.DurabilityMode.GROUP` and
        ASYNC the ticket resolves when a force covers the batch: a
        leader's (several sessions' batches share one force) or a
        manifest commit's, which forces every staged record.  Under SYNC
        each write was forced as it was logged, so the ticket resolves
        once the log device has finished those forces.
        With ``wait=False`` the ticket is returned unresolved and the
        caller acknowledges the commit at ``ticket.durable_at`` once a
        later force (or a drain) resolves it.
        """
        self._check_open()
        first = self._next_seqno
        count = 0
        for op, key, value in ops:
            if op == OP_PUT:
                assert value is not None
                self.put(key, value)
            elif op == OP_DELETE:
                self.delete(key)
            elif op == OP_DELTA:
                assert value is not None
                self.apply_delta(key, value)
            else:
                raise ValueError(f"unknown batch op {op!r}")
            count += 1
        if count == 0:
            now = self.stasis.clock.now
            return CommitTicket(
                session=session,
                first_seqno=first,
                last_seqno=first - 1,
                ops=0,
                enqueued_at=now,
                leader=True,
                group_size=1,
                durable_at=now,
                durable_lsn=self.stasis.logical_log.durable_seqno,
            )
        return self.stasis.group_commit.commit(
            first, self._next_seqno - 1, count, session=session, wait=wait
        )

    def _write(self, record: Record, op: str) -> None:
        if self._closed:  # _check_open inline: a frame fewer per write
            raise EngineClosedError()
        value = record.value if op != OP_DELETE else None
        self._log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        self._on_write(record.nbytes)

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup; at most ``1 + N/100`` seeks (Section 3.1).

        C0, then the other RAM sources of the key's range and that
        range's on-disk components, newest first; the walk stops at the
        first base record or tombstone and folds any deltas above it
        (Section 3.1.1).
        """
        if self._closed:  # _check_open inline: a frame fewer per read
            raise EngineClosedError()
        ranges = self.versions.current.ranges
        index = bisect_right(ranges, key, key=_range_lo) - 1
        return lookup(
            key, (self._memtable, *self._ram[index], *ranges[index][2])
        )

    def snapshot(self) -> TreeSnapshot:
        """Open a consistent point-in-time read view of the tree.

        Opening does no I/O and copies nothing.  C0 is read in place,
        copy-on-write: only a write that lands while the snapshot is
        open makes it take a copy, just before that write.  The other
        RAM sources are read through
        :class:`~repro.core.versions.Prefix` views, and the on-disk
        components are one reference on the installed
        :class:`~repro.core.versions.Version`, which defers their
        ``free()`` past the snapshot's lifetime.  Reads through the
        snapshot charge the device clock exactly like live reads.
        """
        if self._closed:  # _check_open inline: a frame fewer per scan
            raise EngineClosedError()
        return TreeSnapshot(
            self.versions,
            self._memtable,
            [tuple(map(Prefix, ram)) for ram in self._ram],
        )

    def scan(
        self,
        lo: bytes,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan: merge every component (Section 3.3's 2-3 seeks).

        The scan runs against a :class:`TreeSnapshot`, so merges
        completing (or the memtable switching) while the caller holds
        the scan paused are invisible: no restart, no stall, no row ever
        observed twice.  The epoch-restart loop this replaced re-walked
        the component set from the cursor at every merge install —
        Section 4.4.1's logical-timestamp validation — which blocked
        paused scans behind merge progress.  The snapshot opens at the
        first ``next`` (a scan never iterated opens none) and closes
        when the scan is exhausted, closed or collected.
        """
        return scan_view(None, self.snapshot, lo, hi, limit)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush_log(self) -> None:
        """Force the logical log (durability barrier).

        Pending group-commit tickets resolve first — a flush must not
        leave a session's acknowledged-later batch behind its barrier.
        """
        self.stasis.group_commit.drain()
        self.stasis.logical_log.force()

    def close(self) -> None:
        """Force the log and mark the tree closed."""
        if self._closed:
            return
        self.flush_log()
        self._closed = True

    # ------------------------------------------------------------------
    # Merge stepping
    # ------------------------------------------------------------------

    _m01: MergeProcess | None = None
    _m12: MergeProcess | None = None
    _m01_gear = "c0c1"  # the counters gear 0's running merge books to

    def _attach_scheduler(self) -> None:
        """Build ``options.scheduler`` with this tree as its merge host."""
        self.scheduler = make_scheduler(self.options.scheduler)
        self.scheduler.attach(self)

    @property
    def c0_fill_fraction(self) -> float:
        """Fill of the active memtable; the spring's displacement."""
        return self._memtable.fill_fraction

    @property
    def merging(self) -> bool:
        """Whether either gear has a merge running."""
        return self._m01 is not None or self._m12 is not None

    @property
    def m01_inprogress(self) -> float:
        """Gear 0's smooth progress (Section 4.1); 1.0 when none is due."""
        if self._m01 is not None:
            return self._m01.inprogress
        return 0.0 if self._m01_can_start() else 1.0

    @property
    def m12_deficit(self) -> float:
        """How far gear 1's inprogress lags gear 0's outprogress
        (Section 4.1); 0 when gear 1 has nothing to run."""
        m12 = self._m12
        if m12 is None and not self._m12_can_start():
            return 0.0
        m01 = self._m01
        filled, ratio = self._m01_fills()
        return outprogress(
            self.m01_inprogress if m01 is None else m01.inprogress,
            filled,
            self._c0_capacity,
            ratio,
        ) - (0.0 if m12 is None else m12.inprogress)

    @property
    def m01_input_bytes(self) -> int:
        """Total input of gear 0's active (or next) merge, in bytes."""
        if self._m01 is not None:
            return self._m01.input_bytes
        return max(1, self._m01_next_input_bytes())

    @property
    def m12_input_bytes(self) -> int:
        """Total input of gear 1's active (or next) merge, in bytes."""
        if self._m12 is not None:
            return self._m12.input_bytes
        return max(1, self._m12_next_input_bytes())

    def step_m01(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of gear 0's merge on the caller's
        clock, which pays its device time (docs/concurrency.md: Section
        5.1's merge threads are budgeted steps here), starting one when
        idle and installing it when done; 0 when it could not run.  The
        merge books its own progress (:meth:`MergeProcess.report_to`)."""
        if budget_bytes <= 0 or (self._m01 is None and not self._start_m01()):
            return 0
        merge = self._m01
        worked = merge.step(budget_bytes)
        if merge.done:
            self._finish_m01()
        return worked

    def step_m12(self, budget_bytes: int) -> int:
        """As :meth:`step_m01`, for gear 1."""
        if budget_bytes <= 0 or (self._m12 is None and not self._start_m12()):
            return 0
        merge = self._m12
        worked = merge.step(budget_bytes)
        if merge.done:
            self._finish_m12()
        return worked

    def force_drain(self, target_fill: float, chunk: int) -> None:
        """Block the writer until C0 drops to ``target_fill`` (stall path).

        The writer drives both gears ``chunk`` bytes at a time; it gives
        up only when nothing can run.
        """
        if not self._c0_overfull(target_fill):
            return
        with self._stall(
            "merge_backpressure",
            "memtable_full",
            fill=self.c0_fill_fraction,
            c0_bytes=self._memtable.nbytes,
        ):
            while self._c0_overfull(target_fill):
                # A step that completes its merge may consume nothing:
                # gear 0 gets a second try, which starts the next one.
                if not (
                    self.step_m01(chunk)
                    or self.step_m12(chunk)
                    or self.step_m01(chunk)
                ):
                    break  # nothing can make progress

    def _c0_overfull(self, target_fill: float) -> bool:
        return self._memtable.fill_fraction > target_fill

    # A layout without a second gear: gear 1 never has work.
    def _m12_can_start(self) -> bool:
        return False

    def _start_m12(self) -> bool:
        return False

    def _m12_next_input_bytes(self) -> int:
        return 0

    def _merge_started(self, gear: str, merge: Any, **where: Any) -> None:
        passes, ctr_bytes, ctr_seconds = self._merge_obs[gear]
        passes.inc()
        merge.report_to(gear, ctr_bytes, ctr_seconds, self._trace)
        self._trace.emit(
            "merge_start", level=gear, **where, input_bytes=merge.input_bytes
        )

    def _merge_finished(
        self, gear: str, merge: Any, output_bytes: int, **where: Any
    ) -> None:
        self.runtime.trace.emit(
            "merge_finish",
            level=gear,
            **where,
            output_bytes=output_bytes,
            reads=merge.read_calls,
            seeks=merge.seeks,
            writes=merge.write_calls,
            write_seeks=merge.write_seeks,
        )

    @contextmanager
    def _stall(self, cause: str, event: str, **fields: Any) -> Iterator[None]:
        """Bracket the loop that blocks a writer behind merge progress."""
        self._ctr_memtable_full.inc()
        self.runtime.trace.emit(event, **fields)
        started = self.stasis.clock.now
        with self.runtime.trace.span("stall", cause=cause):
            yield
        self._ctr_stalls.inc()
        self._hist_stall.observe(self.stasis.clock.now - started)

    # ------------------------------------------------------------------
    # C0 and the logs
    # ------------------------------------------------------------------

    def _new_memtable(self) -> MemTable:
        return MemTable(self._c0_capacity)

    def _retain_log(self, *memtables: MemTable | None) -> None:
        """Checkpoint the log down to the writes still resident in memory.

        Everything a completed merge consumed is durable; what remains
        replayable is exactly the contents of ``memtables``.
        Snowshoveling keeps old records in C0 across passes, so the
        retained set stays large (Section 4.4.2 notes this recovery
        cost).  Retention is exact, not a seqno prefix: replaying a
        record a component already contains would double-apply deltas.
        """
        coverage: dict[bytes, tuple[int, int]] = {}
        for table in memtables:
            if table is None:
                continue
            for record in table:
                bounds = coverage.get(record.key)
                start, end = record.coverage_start, record.seqno
                if bounds is not None:
                    start = min(start, bounds[0])
                    end = max(end, bounds[1])
                coverage[record.key] = (start, end)
        self.stasis.logical_log.retain_ranges(coverage)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        stasis: Stasis,
        options: BLSMOptions | None = None,
        **layout: Any,
    ) -> "TreeKernel":
        """Rebuild a tree from durable state after ``stasis.crash()``.

        Two phases, per Section 4.4.2:

        1. The physical WAL, read once, yields the newest committed
           manifest: a physically consistent set of on-disk components
           (merges commit atomically, so a torn merge simply never
           appears in it; the extents it allocated are freed).  Bloom
           filters are not persisted unless ``persist_bloom_filters``
           is set (Section 4.4.3), so they are rebuilt by scanning each
           component — a real, charged recovery cost.
        2. The logical log is replayed to rebuild C0 from the writes
           that had not yet reached a durable component.  In the
           degraded ``NONE`` durability mode this phase is empty and
           those writes are lost — "older (up to a well-defined point
           in time) updates are available, but recent updates may be
           lost".

        ``layout`` takes the same keywords as the class's constructor.
        """
        tree = cls.__new__(cls)
        tree._boot(options, stasis, **layout)
        manifest = stasis.recover_manifest()
        tree._next_tree_id = manifest["next_tree_id"]
        tree._restore_layout(manifest)
        live = {  # free what a torn merge allocated but never committed
            extent
            for table in tree._live_tables()
            for extent in component_extents(describe_component(table))
        }
        for extent in stasis.regions.allocated_extents:
            if extent not in live:
                stasis.pagefile.free_run(extent.start, extent.length)
                stasis.regions.free(extent)
        tree._next_seqno = replay_log(
            stasis, tree._memtable, manifest["next_seqno"]
        )
        return tree

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

    def _maybe_persist_bloom(self, component: SSTable | None) -> None:
        if component is not None and self.options.persist_bloom_filters:
            persist_bloom(self.stasis, component)

    def _rebuild_component(self, desc: dict[str, Any] | None) -> SSTable | None:
        return rebuild_component(self.stasis, desc, self.options)

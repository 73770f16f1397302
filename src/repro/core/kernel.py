"""The tree kernel: everything about an LSM tree that is not its layout.

The paper builds one substrate (Section 4.4: Stasis logs, rate-limited
merge threads, snapshot-consistent reads) and presents partitioning
(Sections 3.3, 4.2.2) as a layout composed with it; the compaction
design-space literature draws the same line (layout, trigger and
granularity are policy, the rest is mechanism).  :class:`TreeKernel` is
that mechanism, once: the storage substrate, seqno and tree-id
counters, C0, the write API down to the logical log, delta read-repair,
snapshot scans, the durability barrier, one budgeted merge step on the
caller's clock or a background timeline, the merge and stall
instrumentation, whole-C0 flushes, exact log retention and crash
recovery.

A layout — :class:`repro.core.tree.BLSM`'s three slots,
:class:`repro.core.compaction.tree.CompactionTree`'s policy-owned
levels, :class:`repro.core.partitioned.PartitionedBLSM`'s key-range
partitions — subclasses the kernel and supplies:

* ``_init_layout(**layout)`` — its empty component structure, merge
  timelines and scheduler;
* ``get`` (the probe order, finished by :meth:`TreeKernel._resolve_read`)
  and ``snapshot`` (the same order, pinned);
* ``_on_write(nbytes)`` — what a write triggers: pacing, merge
  selection, stalls;
* merge selection, start and install, stepping through
  :meth:`TreeKernel._step_merge` and retiring replaced components
  through ``self.versions``;
* ``_manifest`` / ``_restore_layout`` / ``_live_tables`` — its durable
  root and how to read it back.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.core.components import (
    component_extents,
    describe_component,
    rebuild_component,
)
from repro.core.options import BLSMOptions
from repro.core.scheduler import make_scheduler
from repro.core.versions import TreeSnapshot, VersionSet
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record, resolve
from repro.sim.clock import Timeline
from repro.sstable.bloom_store import persist_bloom
from repro.sstable.builder import SSTableBuilder
from repro.sstable.reader import SSTable
from repro.storage.group_commit import CommitTicket
from repro.storage.stasis import Stasis

__all__ = ["TreeKernel", "replay_log"]

OP_PUT = "put"
OP_DELETE = "delete"
OP_DELTA = "delta"


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
    """Log, C0, write path, snapshots, merge stepping and recovery."""

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
        self.versions = VersionSet(self.runtime)
        self._next_seqno = 0
        self._next_tree_id = 1
        self._closed = False
        self._timelines: list[Timeline] = []
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

    @property
    def _c0_capacity(self) -> int:
        """Usable bytes of the active C0."""
        return self.options.c0_bytes

    def _init_layout(self, **layout: Any) -> None:
        """Create the empty on-disk structure, timelines and scheduler
        (``layout``: the constructor's layout keywords, if it has any)."""
        raise NotImplementedError

    def get(self, key: bytes) -> bytes | None:
        """Point lookup, newest component to oldest."""
        raise NotImplementedError

    def snapshot(self) -> TreeSnapshot:
        """Pin a consistent point-in-time read view of the tree."""
        raise NotImplementedError

    def _on_write(self, nbytes: int) -> None:
        """A record of ``nbytes`` just landed in C0: pace merges, stall."""
        raise NotImplementedError

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
        self._write(Record.base(key, value, self._take_seqno()), OP_PUT)

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
        log, then committed through the Stasis group-commit queue: under
        :class:`~repro.storage.logical_log.DurabilityMode.GROUP` the
        ticket resolves when a leader's force covers the batch (several
        sessions' batches share one force); under SYNC/ASYNC each write
        forced per its mode already, so the ticket is trivially durable.
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
        self._check_open()
        value = record.value if op != OP_DELETE else None
        self.stasis.logical_log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        self._on_write(record.nbytes)

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------

    def _resolve_read(self, key: bytes, versions: list[Record]) -> bytes | None:
        """Fold the versions ``get`` collected; repair a delta chain."""
        value = resolve(versions)
        if (
            self.options.delta_read_repair
            and value is not None
            and len(versions) > 1
            and versions[0].is_delta
        ):
            # Section 5.6: a read that had to fold deltas inserts the
            # merged tuple into C0, so the next read stops there.  The
            # repair is logged like any write: it may fold over (and
            # therefore subsume) logged deltas still resident in C0, and
            # exact log retention would otherwise drop those deltas with
            # nothing durable to replace them.
            self._write(Record.base(key, value, self._take_seqno()), OP_PUT)
        return value

    def scan(
        self,
        lo: bytes,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan: merge every component (Section 3.3's 2-3 seeks).

        The scan runs against a pinned :class:`TreeSnapshot`, so merges
        completing (or the memtable switching) while the caller holds
        the scan paused are invisible: no restart, no stall, no row ever
        observed twice.  The epoch-restart loop this replaced re-walked
        the component set from the cursor at every merge install —
        Section 4.4.1's logical-timestamp validation — which blocked
        paused scans behind merge progress.
        """
        self._check_open()
        with self.snapshot() as snap:
            yield from snap.scan(lo, hi, limit)

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
        """Force logs and mark the tree closed."""
        if self._closed:
            return
        self.flush_log()
        self.stasis.wal.force()
        self._closed = True

    # ------------------------------------------------------------------
    # Merge stepping
    # ------------------------------------------------------------------

    def _attach_scheduler(self) -> None:
        """Build ``options.scheduler`` with this tree as its merge host."""
        opts = self.options
        self.scheduler = make_scheduler(
            opts.scheduler, opts.low_water, opts.high_water, opts.max_tick_bytes
        )
        self.scheduler.attach(self)

    def _new_timeline(self, name: str) -> Timeline | None:
        """One merge worker's timeline (Section 5.1's merge threads),
        when ``options.background_merges`` is set.

        Merge I/O dispatched to a :class:`~repro.sim.clock.Timeline`
        advances the timeline and the device busy horizons instead of
        the writer's clock.  A worker whose timeline is ahead of the
        clock is *busy* — new merge work is not dispatched to it, which
        bounds merge progress by device speed and keeps C0-fill
        backpressure meaningful (docs/concurrency.md).
        """
        if not self.options.background_merges:
            return None
        timeline = Timeline(name)
        self._timelines.append(timeline)
        return timeline

    def _wait_for_background(self) -> bool:
        """Advance the clock to the next background completion, if any.

        This is the stall path's genuine *waiting*: the foreground has
        nothing it can do until a merge worker frees up, so virtual time
        passes without any foreground service being charged.  Returns
        whether there was anything to wait for.
        """
        clock = self.stasis.clock
        horizons = [
            timeline.now for timeline in self._timelines if timeline.busy(clock)
        ]
        if not horizons:
            return False
        clock.advance_to(min(horizons))
        return True

    def _merge_started(self, gear: str, merge: Any, **where: Any) -> None:
        self._merge_obs[gear][0].inc()
        self.runtime.trace.emit(
            "merge_start", level=gear, **where, input_bytes=merge.input_bytes
        )

    def _step_merge(
        self,
        gear: str,
        merge: Any,
        budget_bytes: int,
        timeline: Timeline | None,
        finish: Callable[[], None],
    ) -> int:
        """Run one budgeted step of ``merge``; install it when done.

        Without a timeline the step runs on the caller's clock.  With
        one (which the caller has found idle) the work is dispatched to
        the worker: the step, and the install if it completes the merge,
        advance the timeline and the device horizons, not the writer.
        """
        clock = self.stasis.clock
        if timeline is None:
            started = clock.now
            worked = merge.step(budget_bytes)
            seconds = clock.now - started
        else:
            started = timeline.catch_up(clock)
            with clock.running_on(timeline):
                worked = merge.step(budget_bytes)
                if merge.done:
                    finish()
            seconds = timeline.now - started
        if worked:
            _passes, ctr_bytes, ctr_seconds = self._merge_obs[gear]
            ctr_bytes.inc(worked)
            ctr_seconds.inc(seconds)
            trace = self.runtime.trace
            if trace.enabled:  # skip the kwargs build when tracing is off
                trace.emit(
                    "merge_progress",
                    level=gear,
                    worked=worked,
                    seconds=seconds,
                    inprogress=merge.inprogress,
                    reads=merge.read_calls,
                    seeks=merge.seeks,
                    writes=merge.write_calls,
                    write_seeks=merge.write_seeks,
                )
        if timeline is None and merge.done:
            finish()
        return worked

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
        return MemTable(self._c0_capacity, seed=self.options.seed)

    def _flush_c0(self, kind: str) -> SSTable | None:
        """Write the whole memtable out as one component and start a
        fresh C0; the caller installs the component, commits the
        manifest and only then truncates the log, so a crash between
        the two replays onto state that already contains the component
        — idempotent because replay rebuilds C0 from scratch."""
        memtable = self._memtable
        builder = SSTableBuilder(
            self.stasis,
            tree_id=self._take_tree_id(),
            expected_bytes=memtable.nbytes,
            expected_keys=len(memtable),
            with_bloom=self.options.with_bloom_filters,
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            compression_ratio=self.options.compression_ratio,
        )
        for record in memtable:
            builder.add(record)
        table = builder.finish()
        self._memtable = self._new_memtable()
        self._ctr_rotations.inc()
        self.runtime.trace.emit(
            "memtable_rotate", kind=kind, frozen_bytes=memtable.nbytes
        )
        return table

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
                for page_id in range(extent.start, extent.end):
                    stasis.pagefile.free_page(page_id)
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

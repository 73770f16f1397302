"""The bLSM tree (Figure 1 and Sections 3-4).

Structure: an in-memory component C0 (a memtable) and three on-disk slots.

* ``C1`` — the component the continuous C0:C1 merge rebuilds.  Each merge
  *pass* consumes one snowshovel run of C0 (or a frozen C0' when
  snowshoveling is off) together with the current C1 and writes a new C1.
* ``C1'`` — a full C1 promoted for merging downstream; it exists only to
  support the ongoing C1:C2 merge (Section 3.3).
* ``C2`` — the largest component; tombstones are garbage-collected when
  they reach it.

Reads walk C0, C1, C1', C2 (newest to oldest), skip components whose
Bloom filter rejects the key, and terminate at the first base record or
tombstone (Section 3.1.1).  ``insert_if_not_exists`` is zero-seek in the
common case because the largest component's Bloom filter answers the
existence check (Section 3.1.2).

Merges run incrementally on the write path under a pluggable scheduler;
all I/O advances the shared virtual clock, so a scheduler that lets a
merge fall behind produces exactly the write-latency spikes the paper
measures.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator

from repro.core.components import (
    component_extents,
    component_row,
    describe_component,
    rebuild_component,
)
from repro.core.merge import FrozenSource, MergeProcess, SnowshovelSource  # noqa: F401
from repro.core.options import BLSMOptions
from repro.core.progress import outprogress
from repro.core.scheduler import make_scheduler
from repro.core.versions import RamSource, TreeSnapshot, VersionSet
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record, resolve
from repro.sim.clock import Timeline
from repro.sstable.reader import SSTable
from repro.storage.group_commit import CommitTicket
from repro.storage.recovery import recover as storage_recover
from repro.storage.region import Extent
from repro.storage.stasis import Stasis

_OP_PUT = "put"
_OP_DELETE = "delete"
_OP_DELTA = "delta"


class BLSM:
    """A three-level log structured merge tree with Bloom filters."""

    def __init__(
        self,
        options: BLSMOptions | None = None,
        stasis: Stasis | None = None,
    ) -> None:
        self.options = options if options is not None else BLSMOptions()
        opts = self.options
        if stasis is not None:
            self.stasis = stasis
        else:
            self.stasis = Stasis(
                disk_model=opts.disk_model,
                page_size=opts.page_size,
                buffer_pool_pages=opts.buffer_pool_pages,
                eviction_policy=opts.eviction_policy,
                durability=opts.durability,
                fault_plan=opts.fault_plan,
                retry=opts.retry,
                capacity_bytes=opts.capacity_bytes,
                log_disk_model=opts.log_disk_model,
                data_stripes=opts.data_stripes,
                stripe_chunk_bytes=opts.stripe_chunk_bytes,
                observability=opts.observability,
            )
        self._memtable = MemTable(
            self._c0_capacity, seed=opts.seed, kind=opts.memtable
        )
        self._frozen: MemTable | None = None  # C0' (non-snowshovel mode)
        self._c1: SSTable | None = None
        self._c1_prime: SSTable | None = None
        self._c2: SSTable | None = None
        self._extras: list[SSTable] = []  # §3.2 workaround components
        self._m01: MergeProcess | None = None
        self._m01_extra: SSTable | None = None
        self._m12: MergeProcess | None = None
        self._promotion_pending = False
        self._next_seqno = 0
        self._next_tree_id = 1
        self._r = opts.min_r
        self._merge_epoch = 0
        self._closed = False
        self._init_timelines()
        self._init_obs()
        self.scheduler = make_scheduler(
            opts.scheduler, opts.low_water, opts.high_water, opts.max_tick_bytes
        )
        self.scheduler.attach(self)
        self.stasis.commit_manifest(self._manifest())

    def _init_timelines(self) -> None:
        """Create the per-merge background timelines (Section 5.1's merge
        threads) when ``options.background_merges`` is set.

        Each merge level gets its own :class:`~repro.sim.clock.Timeline`:
        merge I/O dispatched to it advances the timeline and the device
        busy horizons instead of the writer's clock.  A worker whose
        timeline is ahead of the clock is *busy* — new merge work is not
        dispatched to it, which bounds merge progress by device speed and
        keeps C0-fill backpressure meaningful (docs/concurrency.md).
        """
        if self.options.background_merges:
            self._bg01: Timeline | None = Timeline("merge-c0c1")
            self._bg12: Timeline | None = Timeline("merge-c1c2")
        else:
            self._bg01 = None
            self._bg12 = None

    def _wait_for_background(self) -> bool:
        """Advance the clock to the next background completion, if any.

        This is the stall path's genuine *waiting*: the foreground has
        nothing it can do until a merge worker frees up, so virtual time
        passes without any foreground service being charged.  Returns
        whether there was anything to wait for.
        """
        clock = self.stasis.clock
        horizons = [
            timeline.now
            for timeline in (self._bg01, self._bg12)
            if timeline is not None and timeline.busy(clock)
        ]
        if not horizons:
            return False
        clock.advance_to(min(horizons))
        return True

    def _init_obs(self) -> None:
        """Bind this tree's instrumentation to the runtime's registry."""
        self.runtime = self.stasis.runtime
        self.versions = VersionSet(self.runtime)
        metrics = self.runtime.metrics
        self._ctr_rotations = metrics.counter("memtable.rotations")
        self._ctr_memtable_full = metrics.counter("memtable.full_events")
        self._gauge_fill = metrics.gauge("memtable.fill")
        self._ctr_stalls = metrics.counter("writes.stalls")
        self._hist_stall = metrics.histogram("writes.stall_seconds")
        self._merge_obs = {
            level: (
                metrics.counter(f"merge.{level}.passes"),
                metrics.counter(f"merge.{level}.bytes"),
                metrics.counter(f"merge.{level}.seconds"),
            )
            for level in ("c0c1", "c1c2")
        }

    def _note_merge_progress(
        self, level: str, worked: int, seconds: float, merge: MergeProcess
    ) -> None:
        _passes, ctr_bytes, ctr_seconds = self._merge_obs[level]
        ctr_bytes.inc(worked)
        ctr_seconds.inc(seconds)
        trace = self.runtime.trace
        if trace.enabled:  # skip the kwargs build when tracing is off
            trace.emit(
                "merge_progress",
                level=level,
                worked=worked,
                seconds=seconds,
                inprogress=merge.inprogress,
                reads=merge.read_calls,
                seeks=merge.seeks,
                writes=merge.write_calls,
                write_seeks=merge.write_seeks,
            )

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Blind write of a full base record: zero seeks (Table 1)."""
        self._write(Record.base(key, value, self._take_seqno()), _OP_PUT)

    def delete(self, key: bytes) -> None:
        """Write a tombstone; physical space is reclaimed by merges."""
        self._write(Record.tombstone(key, self._take_seqno()), _OP_DELETE)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        """Zero-seek partial update; folded onto the base record by reads
        and merges (Section 3.1.1)."""
        self._write(Record.delta(key, delta, self._take_seqno()), _OP_DELTA)

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        """Insert ``key`` only if absent; returns whether it inserted.

        The existence check consults C0 and then the Bloom filters of
        C1/C1'/C2; for a genuinely new key this costs zero seeks with
        probability ~(1 - FPR)^3 (Section 3.1.2).
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
            if op == "put":
                assert value is not None
                self.put(key, value)
            elif op == "delete":
                self.delete(key)
            elif op == "delta":
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

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup; at most ``1 + N/100`` seeks (Section 3.1)."""
        self._check_open()
        versions: list[Record] = []
        if self._collect(self._memtable.get(key), versions):
            return resolve(versions)
        if self._frozen is not None and self._collect(
            self._frozen.get(key), versions
        ):
            return resolve(versions)
        if self._m01 is not None and self._collect(
            self._m01.overlay_get(key), versions
        ):
            return resolve(versions)
        stopped = False
        for extra in self._extras:  # newest first (§3.2 workaround)
            if self._collect(extra.get(key), versions):
                stopped = True
                break
        if not stopped:
            for component in (self._c1, self._c1_prime, self._c2):
                if component is None:
                    continue
                if self._collect(component.get(key), versions):
                    break
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
            self._write(Record.base(key, value, self._take_seqno()), _OP_PUT)
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
        observed twice.  The epoch-restart loop this replaces re-walked
        the component set from the cursor at every merge install —
        Section 4.4.1's logical-timestamp validation — which blocked
        paused scans behind merge progress.
        """
        self._check_open()
        with self.snapshot() as snap:
            yield from snap.scan(lo, hi, limit)

    def snapshot(self) -> TreeSnapshot:
        """Pin a consistent point-in-time read view of the tree.

        Opening is O(1) and does no I/O: nothing is copied.  C0 is read
        in place, copy-on-write — only if a write lands while the
        snapshot is open does it take one O(|C0|) copy, just before that
        write.  A frozen C0' never changes and is referenced as is; the
        snowshovel overlay is append-only, so its current length bounds
        the view.  On-disk components are pinned in the
        :class:`VersionSet`, which defers their ``free()`` past the
        snapshot's lifetime.  Reads through the snapshot charge the
        device clock exactly like live reads.
        """
        self._check_open()
        older_ram: list[RamSource] = []
        if self._frozen is not None:
            older_ram.append(self._frozen)
        if self._m01 is not None:
            older_ram.append(self._m01.overlay.prefix())
        tables = list(self._extras)  # newest first (§3.2 workaround)
        tables.extend(
            component
            for component in (self._c1, self._c1_prime, self._c2)
            if component is not None
        )
        return TreeSnapshot(
            self.versions, self._memtable, older_ram, tables, engine="blsm"
        )

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

    def drain(self) -> None:
        """Push all of C0 into C1 (complete outstanding C0:C1 passes).

        With background merges, steps that find their worker busy return
        0; the loop then *waits* (advances the clock to the worker's
        completion) rather than concluding no progress is possible.
        """
        self._check_open()
        while True:
            if self.step_m01(1 << 30):
                continue
            if self._memtable.is_empty and self._frozen is None and self._m01 is None:
                return
            if self.step_m12(1 << 30) == 0:
                if self.step_m01(1 << 30) == 0:
                    if self._wait_for_background():
                        continue
                    return

    def compact(self) -> None:
        """Merge everything into a single C2 component (major compaction)."""
        self.drain()
        while self._m12 is not None or self._c1_prime is not None:
            if self.step_m12(1 << 30) == 0 and not self._wait_for_background():
                break
        if self._c1 is not None:
            self._c1_prime = self._c1
            self._c1 = None
            while self._m12 is not None or self._c1_prime is not None:
                if self.step_m12(1 << 30) == 0 and not self._wait_for_background():
                    break

    def close(self) -> None:
        """Force logs and mark the tree closed."""
        if self._closed:
            return
        self.flush_log()
        self.stasis.wal.force()
        self._closed = True

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------

    @property
    def c0_fill_fraction(self) -> float:
        """Fill of the active memtable; the spring's displacement."""
        return self._memtable.fill_fraction

    @property
    def m01_inprogress(self) -> float:
        """The C0:C1 merge's smooth progress estimator (Section 4.1)."""
        if self._m01 is not None:
            return self._m01.inprogress
        return 0.0 if self._m01_can_start() else 1.0

    @property
    def m01_outprogress(self) -> float:
        """Where C1 stands within the R passes that fill it (Section 4.1)."""
        c1_bytes = self._c1.nbytes if self._c1 is not None else 0
        return outprogress(
            self.m01_inprogress, c1_bytes, self._c0_capacity, self._r
        )

    @property
    def m12_inprogress(self) -> float:
        """The C1':C2 merge's smooth progress estimator (Section 4.1)."""
        if self._m12 is not None:
            return self._m12.inprogress
        return 0.0 if self._c1_prime is not None else 1.0

    @property
    def m01_input_bytes(self) -> int:
        """Total input of the active (or next) C0:C1 merge, in bytes."""
        if self._m01 is not None:
            return self._m01.input_bytes
        c1_bytes = self._c1.nbytes if self._c1 is not None else 0
        return max(1, self._c0_source_bytes() + c1_bytes)

    @property
    def m12_input_bytes(self) -> int:
        """Total input of the active (or next) C1':C2 merge, in bytes."""
        if self._m12 is not None:
            return self._m12.input_bytes
        c1p = self._c1_prime.nbytes if self._c1_prime is not None else 0
        c2 = self._c2.nbytes if self._c2 is not None else 0
        return max(1, c1p + c2)

    def write_amplification_estimate(self) -> float:
        """Bytes of merge I/O each written byte eventually costs.

        Used by the spring-and-gear scheduler to convert a write into a
        merge-work budget.  Derived from current component sizes: each
        C0:C1 pass reads and writes ``run + |C1|`` bytes to consume
        ``run`` bytes of C0; each promotion reads and writes
        ``|C1'| + |C2|`` to consume ``R * C0`` bytes.
        """
        run_bytes = self._expected_run_bytes()
        c1_bytes = self._c1.nbytes if self._c1 is not None else 0
        amp01 = 2.0 * (run_bytes + c1_bytes) / run_bytes
        promo_bytes = max(1.0, self._r * self._c0_capacity)
        c2_bytes = self._c2.nbytes if self._c2 is not None else 0
        amp12 = 2.0 * (promo_bytes + c2_bytes) / promo_bytes
        return amp01 + amp12

    def step_m01(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of C0:C1 merge work.

        With background merges, the work is dispatched to the C0:C1
        worker's timeline; if that worker is still servicing previously
        dispatched I/O (its timeline is ahead of the clock), nothing is
        dispatched and 0 is returned — the scheduler's deficit carries
        over, exactly as when a synchronous step runs out of budget.
        """
        if budget_bytes <= 0:
            return 0
        timeline = self._bg01
        if timeline is not None and timeline.busy(self.stasis.clock):
            return 0
        if self._m01 is None and not self._start_m01():
            return 0
        merge = self._m01
        assert merge is not None
        if timeline is None:
            started = self.stasis.clock.now
            worked = merge.step(budget_bytes)
            elapsed = self.stasis.clock.now - started
        else:
            timeline.catch_up(self.stasis.clock)
            started = timeline.now
            with self.stasis.clock.running_on(timeline):
                worked = merge.step(budget_bytes)
                if merge.done:
                    self._finish_m01()
            elapsed = timeline.now - started
        if worked:
            self._note_merge_progress("c0c1", worked, elapsed, merge)
        if self._m01 is merge and merge.done:
            self._finish_m01()
        return worked

    def step_m12(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of C1':C2 merge work.

        Background-merge dispatch gating works exactly as in
        :meth:`step_m01`, on the C1':C2 worker's own timeline.
        """
        if budget_bytes <= 0:
            return 0
        timeline = self._bg12
        if timeline is not None and timeline.busy(self.stasis.clock):
            return 0
        if self._m12 is None and not self._start_m12():
            return 0
        merge = self._m12
        assert merge is not None
        if timeline is None:
            started = self.stasis.clock.now
            worked = merge.step(budget_bytes)
            elapsed = self.stasis.clock.now - started
        else:
            timeline.catch_up(self.stasis.clock)
            started = timeline.now
            with self.stasis.clock.running_on(timeline):
                worked = merge.step(budget_bytes)
                if merge.done:
                    self._finish_m12()
            elapsed = timeline.now - started
        if worked:
            self._note_merge_progress("c1c2", worked, elapsed, merge)
        if self._m12 is merge and merge.done:
            self._finish_m12()
        return worked

    def force_drain(self, target_fill: float, chunk: int) -> None:
        """Block the writer until C0 drops to ``target_fill`` (stall path).

        With snowshoveling, C0:C1 merge work directly removes records
        from C0.  Without it, the active memtable only empties when it is
        frozen into C0', which requires the previous pass to finish.

        With ``extra_components`` (the Section 3.2 workaround) there is
        no stall at all: a full C0 is flushed to an extra overlapping
        component, trading scan performance for write availability.
        """
        if self.options.extra_components:
            self._flush_extra()
            return
        if not self._c0_overfull(target_fill):
            return
        self._ctr_memtable_full.inc()
        self.runtime.trace.emit(
            "memtable_full",
            fill=self.c0_fill_fraction,
            c0_bytes=self._memtable.nbytes,
        )
        started = self.stasis.clock.now
        with self.runtime.trace.span("stall", cause="merge_backpressure"):
            while self._c0_overfull(target_fill):
                if self._relieve_c0(chunk):
                    continue
                if self._wait_for_background():
                    continue  # wait for a busy merge worker, then retry
                break  # nothing can make progress
        self._ctr_stalls.inc()
        self._hist_stall.observe(self.stasis.clock.now - started)

    def _flush_extra(self) -> None:
        """Flush the whole memtable to an extra overlapping component."""
        if self._memtable.is_empty:
            return
        from repro.sstable.builder import SSTableBuilder

        builder = SSTableBuilder(
            self.stasis,
            tree_id=self._take_tree_id(),
            expected_bytes=self._memtable.nbytes,
            expected_keys=len(self._memtable),
            with_bloom=self.options.with_bloom_filters,
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            compression_ratio=self.options.compression_ratio,
        )
        for record in self._memtable:
            builder.add(record)
        table = builder.finish()
        if table is not None:
            self._extras.insert(0, table)  # newest first
        flushed = self._memtable.nbytes
        self._memtable = MemTable(
            self._c0_capacity,
            seed=self.options.seed,
            kind=self.options.memtable,
        )
        self._ctr_rotations.inc()
        self.runtime.trace.emit(
            "memtable_rotate", kind="extra_flush", frozen_bytes=flushed
        )
        self._merge_epoch += 1  # paused scans re-resolve (memtable swap)
        self.stasis.commit_manifest(self._manifest())
        self._truncate_logical_log()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def r(self) -> float:
        """Current target size ratio between adjacent levels."""
        return self._r

    def component_sizes(self) -> dict[str, int]:
        """Bytes per component (0 for empty slots)."""
        return {
            "c0": self._memtable.nbytes
            + (self._frozen.nbytes if self._frozen is not None else 0),
            "c1": self._c1.nbytes if self._c1 is not None else 0,
            "c1_prime": self._c1_prime.nbytes if self._c1_prime is not None else 0,
            "c2": self._c2.nbytes if self._c2 is not None else 0,
            "extras": sum(extra.nbytes for extra in self._extras),
        }

    def level_view(self) -> dict[str, Any]:
        """Layout snapshot in the generalized N-level vocabulary.

        Maps the paper's fixed slots onto levels so cross-policy tooling
        (``repro bench --policy``, docs/compaction.md) can render every
        engine the same way: level 0 holds the §3.2 extra components
        (overlapping runs, like any L0), level 1 C1 and C1', level 2 C2.
        """
        levels: list[list[dict[str, Any]]] = [
            [component_row(extra) for extra in self._extras],
            [
                component_row(c)
                for c in (self._c1, self._c1_prime)
                if c is not None
            ],
            [component_row(self._c2)] if self._c2 is not None else [],
        ]
        return {
            "policy": "blsm3",
            "memtable_bytes": self._memtable.nbytes
            + (self._frozen.nbytes if self._frozen is not None else 0),
            "levels": levels,
            "max_bytes": [
                int(self._c0_capacity),
                int(self._r * self._c0_capacity),
                int(self._r * self._r * self._c0_capacity),
            ],
        }

    def memory_footprint(self) -> dict[str, int]:
        """RAM consumed per role (Appendix A's accounting).

        ``index`` is the in-RAM block indexes of every on-disk
        component; ``bloom`` their filters (~1.25 bytes/key at a 1 %
        FPR); ``c0`` the memtable payload; ``cache`` the buffer pool's
        configured capacity in bytes and ``cache_ghost`` its admission
        history (one page id per frame); ``merge_buffers`` what the
        running merges hold: one streaming unit of read-ahead per open
        input stream and one of write-behind per running builder.
        """
        index = 0
        bloom = 0
        for component in (self._c1, self._c1_prime, self._c2):
            if component is None:
                continue
            index += component.index_ram_bytes()
            if component.bloom is not None:
                bloom += component.bloom.nbytes
        return {
            "index": index,
            "bloom": bloom,
            "c0": self._memtable.nbytes
            + (self._frozen.nbytes if self._frozen is not None else 0),
            "cache": self.options.buffer_pool_pages * self.stasis.page_size,
            "cache_ghost": self.stasis.buffer.ghost_bytes,
            "merge_buffers": self.stasis.page_size
            * sum(
                merge.buffer_pages
                for merge in (self._m01, self._m12)
                if merge is not None
            ),
        }

    def key_count_estimate(self) -> int:
        """Keys across all components (counts duplicates once per level)."""
        total = len(self._memtable)
        if self._frozen is not None:
            total += len(self._frozen)
        for component in (self._c1, self._c1_prime, self._c2):
            if component is not None:
                total += component.key_count
        return total

    def stats(self) -> dict[str, Any]:
        """Operational counters for benchmarks and examples."""
        summary = self.stasis.io_summary()
        summary.update(self.component_sizes())
        summary["r"] = self._r
        summary["next_seqno"] = self._next_seqno
        summary["clock_seconds"] = self.stasis.clock.now
        return summary

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls, stasis: Stasis, options: BLSMOptions | None = None
    ) -> "BLSM":
        """Rebuild a tree from durable state after ``stasis.crash()``.

        Phase 1 restores the component set from the newest committed
        manifest and frees extents orphaned by torn merges.  Phase 2
        replays the logical log into a fresh C0.  Bloom filters are not
        persisted (Section 4.4.3), so they are rebuilt by scanning each
        component — a real, charged recovery cost.
        """
        tree = cls.__new__(cls)
        tree.options = options if options is not None else BLSMOptions()
        tree.stasis = stasis
        tree._memtable = MemTable(
            tree._c0_capacity,
            seed=tree.options.seed,
            kind=tree.options.memtable,
        )
        tree._frozen = None
        tree._m01 = None
        tree._m01_extra = None
        tree._m12 = None
        tree._promotion_pending = False
        tree._merge_epoch = 0
        tree._closed = False
        tree._init_timelines()
        tree._init_obs()
        tree.scheduler = make_scheduler(
            tree.options.scheduler,
            tree.options.low_water,
            tree.options.high_water,
            tree.options.max_tick_bytes,
        )
        tree.scheduler.attach(tree)

        def replay(record) -> None:
            if record.op == _OP_DELETE:
                tree._memtable.put(Record.tombstone(record.key, record.seqno))
            elif record.op == _OP_DELTA:
                tree._memtable.put(
                    Record.delta(record.key, record.value, record.seqno)
                )
            else:
                tree._memtable.put(
                    Record.base(record.key, record.value, record.seqno)
                )
            tree._next_seqno = max(tree._next_seqno, record.seqno + 1)

        manifest = stasis.recover_manifest()
        tree._next_seqno = manifest["next_seqno"]
        tree._next_tree_id = manifest["next_tree_id"]
        tree._r = manifest["r"]
        tree._c1 = tree._rebuild_component(manifest["c1"])
        tree._c1_prime = tree._rebuild_component(manifest["c1_prime"])
        tree._c2 = tree._rebuild_component(manifest["c2"])
        tree._extras = [
            tree._rebuild_component(desc)
            for desc in manifest.get("extras", ())
        ]
        tree._free_orphan_extents(manifest)
        storage_recover(stasis, replay)
        return tree

    def __repr__(self) -> str:
        sizes = self.component_sizes()
        return (
            f"BLSM(c0={sizes['c0']}, c1={sizes['c1']}, "
            f"c1'={sizes['c1_prime']}, c2={sizes['c2']}, "
            f"r={self._r:.2f}, t={self.stasis.clock.now:.3f}s)"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @property
    def _c0_capacity(self) -> int:
        """Usable active-C0 bytes.

        Without snowshoveling, RAM is split between C0 and the frozen C0'
        being merged, halving the pool (Section 4.2.1).
        """
        if self.options.snowshovel:
            return self.options.c0_bytes
        return max(1, self.options.c0_bytes // 2)

    def _take_seqno(self) -> int:
        seqno = self._next_seqno
        self._next_seqno += 1
        return seqno

    def _write(self, record: Record, op: str) -> None:
        self._check_open()
        value = record.value if op != _OP_DELETE else None
        self.stasis.logical_log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        self._gauge_fill.set(self._memtable.fill_fraction)
        if not self.options.snowshovel and self._memtable.fill_fraction >= 1.0:
            if self._frozen is None:
                self._freeze_memtable()
        self.scheduler.on_write(record.nbytes)

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError()

    @staticmethod
    def _collect(record: Record | None, versions: list[Record]) -> bool:
        """Append a found version; return True to terminate the walk."""
        if record is None:
            return False
        versions.append(record)
        return not record.is_delta

    def _freeze_memtable(self) -> None:
        self._frozen = self._memtable
        self._memtable = MemTable(
            self._c0_capacity,
            seed=self.options.seed,
            kind=self.options.memtable,
        )
        self._ctr_rotations.inc()
        self.runtime.trace.emit(
            "memtable_rotate", kind="freeze", frozen_bytes=self._frozen.nbytes
        )

    def _expected_run_bytes(self) -> int:
        """How much C0 one merge pass is expected to consume."""
        if self.options.snowshovel:
            # Replacement selection doubles run length for random input.
            return max(1, 2 * self._c0_capacity)
        return max(1, self._c0_capacity)

    def _c0_source_bytes(self) -> int:
        if self.options.snowshovel:
            return self._memtable.nbytes
        return self._frozen.nbytes if self._frozen is not None else 0

    def _m01_can_start(self) -> bool:
        if self._promotion_pending:
            return False  # C1 is full and waiting on the C1':C2 merge
        if self._extras:
            return True  # drain the §3.2 workaround components first
        if self.options.snowshovel:
            return not self._memtable.is_empty
        return self._frozen is not None

    def _start_m01(self) -> bool:
        if not self._m01_can_start():
            return False
        self._m01_extra = None
        if self._extras:
            # Oldest extra first: it sits directly above C1 in recency.
            self._m01_extra = self._extras[-1]
            newer = self._m01_extra
            newer_bytes = self._m01_extra.nbytes
            newer_keys = run_keys = self._m01_extra.key_count
        elif self.options.snowshovel:
            newer = SnowshovelSource(self._memtable)
            newer_bytes = self._memtable.nbytes
            newer_keys = len(self._memtable)
            # Keys keep joining the run while the pass drains it: size
            # the filter for the run the scheduler plans for (§4.4.3).
            run_keys = max(
                newer_keys,
                math.ceil(self._expected_run_bytes() * newer_keys / newer_bytes),
            )
        else:
            assert self._frozen is not None
            newer = FrozenSource(iter(self._frozen))
            newer_bytes = self._frozen.nbytes
            newer_keys = run_keys = len(self._frozen)
        c1_bytes = self._c1.nbytes if self._c1 is not None else 0
        c1_keys = self._c1.key_count if self._c1 is not None else 0
        drop = self._c1_prime is None and self._c2 is None
        # Starting a snowshovel pass moves live memtable records into
        # the merge overlay; paused scans must restart so their sources
        # include it (the same epoch mechanism as merge completion).
        self._merge_epoch += 1
        self._m01 = MergeProcess(
            self.stasis,
            newer=newer,
            older=self._c1,
            tree_id=self._take_tree_id(),
            input_bytes=newer_bytes + c1_bytes,
            expected_keys=newer_keys + c1_keys,
            drop_tombstones=drop,
            with_bloom=self.options.with_bloom_filters,
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            compression_ratio=self.options.compression_ratio,
            bloom_keys=run_keys + c1_keys,
        )
        self._merge_obs["c0c1"][0].inc()
        self.runtime.trace.emit(
            "merge_start", level="c0c1", input_bytes=self._m01.input_bytes
        )
        return True

    def _start_m12(self) -> bool:
        if self._c1_prime is None:
            return False
        c2_bytes = self._c2.nbytes if self._c2 is not None else 0
        c2_keys = self._c2.key_count if self._c2 is not None else 0
        self._m12 = MergeProcess(
            self.stasis,
            newer=self._c1_prime,
            older=self._c2,
            tree_id=self._take_tree_id(),
            input_bytes=self._c1_prime.nbytes + c2_bytes,
            expected_keys=self._c1_prime.key_count + c2_keys,
            drop_tombstones=True,  # C2 is the bottom level
            with_bloom=self.options.with_bloom_filters,
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            compression_ratio=self.options.compression_ratio,
        )
        self._merge_obs["c1c2"][0].inc()
        self.runtime.trace.emit(
            "merge_start", level="c1c2", input_bytes=self._m12.input_bytes
        )
        return True

    def _finish_m01(self) -> None:
        assert self._m01 is not None and self._m01.done
        old_c1 = self._c1
        self._c1 = self._m01.output
        self.runtime.trace.emit(
            "merge_finish",
            level="c0c1",
            output_bytes=self._c1.nbytes if self._c1 is not None else 0,
            reads=self._m01.read_calls,
            seeks=self._m01.seeks,
            writes=self._m01.write_calls,
            write_seeks=self._m01.write_seeks,
        )
        self._m01 = None
        consumed_extra = self._m01_extra
        self._m01_extra = None
        if consumed_extra is not None:
            self._extras = [e for e in self._extras if e is not consumed_extra]
        if not self.options.snowshovel:
            self._frozen = None
        self._maybe_persist_bloom(self._c1)
        self.stasis.commit_manifest(self._manifest())
        self._merge_epoch += 1  # historical: scans now pin snapshots
        self.versions.retire(old_c1)
        self.versions.retire(consumed_extra)
        self._truncate_logical_log()
        if (
            self._c1 is not None
            and self._c1.nbytes >= self._r * self._c0_capacity
        ):
            self._try_promote()

    def _finish_m12(self) -> None:
        assert self._m12 is not None and self._m12.done
        old_c2 = self._c2
        old_c1_prime = self._c1_prime
        self._c2 = self._m12.output
        self.runtime.trace.emit(
            "merge_finish",
            level="c1c2",
            output_bytes=self._c2.nbytes if self._c2 is not None else 0,
            reads=self._m12.read_calls,
            seeks=self._m12.seeks,
            writes=self._m12.write_calls,
            write_seeks=self._m12.write_seeks,
        )
        self._c1_prime = None
        self._m12 = None
        self._recompute_r()
        self._maybe_persist_bloom(self._c2)
        self.stasis.commit_manifest(self._manifest())
        # Major merges are rare: a good moment to drop superseded
        # manifest records so WAL replay stays bounded.
        self.stasis.checkpoint_wal()
        self._merge_epoch += 1  # historical: scans now pin snapshots
        self.versions.retire(old_c2)
        self.versions.retire(old_c1_prime)
        if self._promotion_pending:
            self._promotion_pending = False
            self._try_promote()

    def _try_promote(self) -> None:
        """Move a full C1 into the C1' slot, or mark the promotion pending."""
        if self._c1 is None:
            return
        if self._c1_prime is not None:
            self._promotion_pending = True  # Figure 4's danger state
            return
        self._c1_prime = self._c1
        self._c1 = None
        self.stasis.commit_manifest(self._manifest())

    def _recompute_r(self) -> None:
        """R = sqrt(|data| / |C0|) for a two-on-disk-level tree (§2.3.1)."""
        data_bytes = self._c2.nbytes if self._c2 is not None else 0
        ratio = math.sqrt(max(1.0, data_bytes / self._c0_capacity))
        self._r = min(self.options.max_r, max(self.options.min_r, ratio))

    def _truncate_logical_log(self) -> None:
        """Checkpoint the log down to the writes still resident in memory.

        Everything a completed merge consumed is durable; what remains
        replayable is exactly the memtable's (and frozen C0's) contents.
        Snowshoveling keeps old records in C0 across passes, so the
        retained set stays large (Section 4.4.2 notes this recovery
        cost).  Retention is exact, not a seqno prefix: replaying a
        record a component already contains would double-apply deltas.
        """
        coverage: dict[bytes, tuple[int, int]] = {}
        for table in (self._memtable, self._frozen):
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

    def _c0_overfull(self, target_fill: float) -> bool:
        if self.options.snowshovel:
            return self._memtable.fill_fraction > target_fill
        # Without snowshoveling the active memtable cannot shrink; the
        # writer is blocked only while both halves are full.
        return self._memtable.fill_fraction >= 1.0 and self._frozen is not None

    def _relieve_c0(self, chunk: int) -> bool:
        if not self.options.snowshovel and self._frozen is None:
            if self._memtable.fill_fraction >= 1.0:
                self._freeze_memtable()
                return True
        if self.step_m01(chunk):
            return True
        if self.step_m12(chunk):
            return True
        return self.step_m01(chunk) > 0

    def _take_tree_id(self) -> int:
        tree_id = self._next_tree_id
        self._next_tree_id += 1
        return tree_id

    # -- manifest ------------------------------------------------------

    def _maybe_persist_bloom(self, component: SSTable | None) -> None:
        if component is not None and self.options.persist_bloom_filters:
            from repro.sstable.bloom_store import persist_bloom

            persist_bloom(self.stasis, component)

    def _manifest(self) -> dict[str, Any]:
        return {
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
            "r": self._r,
            "c1": describe_component(self._c1),
            "c1_prime": describe_component(self._c1_prime),
            "c2": describe_component(self._c2),
            "extras": tuple(
                describe_component(extra) for extra in self._extras
            ),
        }

    def _rebuild_component(self, desc: dict[str, Any] | None) -> SSTable | None:
        return rebuild_component(self.stasis, desc, self.options)

    def _free_orphan_extents(self, manifest: dict[str, Any]) -> None:
        """Free extents a torn merge allocated but never committed."""
        live: set[Extent] = set()
        for name in ("c1", "c1_prime", "c2"):
            live.update(component_extents(manifest[name]))
        for desc in manifest.get("extras", ()):
            live.update(component_extents(desc))
        for extent in self.stasis.regions.allocated_extents:
            if extent not in live:
                for page_id in range(extent.start, extent.end):
                    self.stasis.pagefile.free_page(page_id)
                self.stasis.regions.free(extent)

"""An LSM tree whose on-disk layout is owned by a pluggable policy.

Where :class:`repro.core.tree.BLSM` hardcodes the paper's three on-disk
slots, a :class:`CompactionTree` pairs one memtable with a
:class:`~repro.core.compaction.manager.LevelManager` and delegates every
layout decision — how many runs a level may hold, what merges are due —
to a :class:`~repro.core.compaction.policy.CompactionPolicy`.  The tree
keeps bLSM's *mechanisms* (logical logging, budget-stepped merges paced
by the write path, manifest-committed installs, epoch-validated scans,
log-replay recovery) and swaps only the *policy*, which is exactly the
factoring the compaction design-space literature argues for (Sarkar et
al.; Luo & Carey, PAPERS.md).

Differences from the bLSM tree, all policy-neutral:

* C0 is flushed whole to a level-0 run when full (the LevelDB shape)
  instead of being consumed incrementally by snowshovel merges, so the
  logical log truncates to a simple seqno prefix at each flush.
* Backpressure is level-0 run count, not C0 fill: once L0 accumulates
  ``options.level0_stop_trigger`` runs the writer stalls and drives
  merge work inline until L0 drains below the policy's trigger.
* At most two merge jobs run at a time — one with source level 0
  (driven by :meth:`step_m01`) and one deeper (driven by
  :meth:`step_m12`) — which is how the existing merge schedulers'
  two-gear surface maps onto N levels without modification.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.core.compaction.manager import LevelManager
from repro.core.compaction.merge import PolicyMergeJob
from repro.core.compaction.policy import CompactionPolicy, MergePlan, make_policy
from repro.core.options import BLSMOptions
from repro.core.progress import outprogress
from repro.core.scheduler import make_scheduler
from repro.core.versions import TreeSnapshot, VersionSet
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record, resolve
from repro.sstable.builder import SSTableBuilder
from repro.storage.group_commit import CommitTicket
from repro.storage.recovery import recover as storage_recover
from repro.storage.region import Extent
from repro.storage.stasis import Stasis

_OP_PUT = "put"
_OP_DELETE = "delete"
_OP_DELTA = "delta"

__all__ = ["CompactionTree"]


class CompactionTree:
    """A policy-parameterized LSM tree over the generalized level manager."""

    def __init__(
        self,
        options: BLSMOptions | None = None,
        stasis: Stasis | None = None,
    ) -> None:
        self.options = options if options is not None else BLSMOptions(
            compaction_policy="leveled"
        )
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
        self._policy = self._make_policy(opts)
        self._memtable = MemTable(
            opts.c0_bytes, seed=opts.seed, kind=opts.memtable
        )
        self._manager = LevelManager(self._base_bytes(opts), opts.level_ratio)
        self._job0: PolicyMergeJob | None = None
        self._jobn: PolicyMergeJob | None = None
        self._next_seqno = 0
        self._next_tree_id = 1
        self._merge_epoch = 0
        self._closed = False
        self._init_obs()
        self.scheduler = make_scheduler(
            opts.scheduler, opts.low_water, opts.high_water, opts.max_tick_bytes
        )
        self.scheduler.attach(self)
        self.stasis.commit_manifest(self._manifest())

    @staticmethod
    def _make_policy(opts: BLSMOptions) -> CompactionPolicy:
        return make_policy(
            opts.compaction_policy,
            level0_trigger=opts.level0_trigger,
            fanout=opts.tier_fanout,
        )

    @staticmethod
    def _base_bytes(opts: BLSMOptions) -> int:
        """Level-1 byte budget: L0's worth of whole-memtable flushes."""
        if opts.level_base_bytes is not None:
            return opts.level_base_bytes
        return max(1, opts.level0_trigger * opts.c0_bytes)

    def _init_obs(self) -> None:
        """Bind instrumentation under the same metric names as the bLSM
        tree, so dashboards and trace consumers work across policies."""
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
        self, level: str, worked: int, seconds: float, job: PolicyMergeJob
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
                inprogress=job.inprogress,
                reads=job.read_calls,
                seeks=job.seeks,
                writes=job.write_calls,
                write_seeks=job.write_seeks,
            )

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Blind write of a full base record: zero seeks."""
        self._write(Record.base(key, value, self._take_seqno()), _OP_PUT)

    def delete(self, key: bytes) -> None:
        """Write a tombstone; space is reclaimed by bottom-level merges."""
        self._write(Record.tombstone(key, self._take_seqno()), _OP_DELETE)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        """Zero-seek partial update; folded by reads and merges."""
        self._write(Record.delta(key, delta, self._take_seqno()), _OP_DELTA)

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        """Insert ``key`` only if absent; returns whether it inserted."""
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    def read_modify_write(
        self, key: bytes, update: Callable[[bytes | None], bytes]
    ) -> bytes:
        """Read the current value, apply ``update``, write the result."""
        new_value = update(self.get(key))
        self.put(key, new_value)
        return new_value

    def write_batch(
        self,
        ops: Iterable[tuple[str, bytes, bytes | None]],
        session: int = 0,
        wait: bool = True,
    ) -> CommitTicket:
        """Apply a batch and commit it through Stasis group commit.

        Same contract as :meth:`repro.core.tree.BLSM.write_batch`: the
        records land in the memtable and the staged log; the returned
        ticket resolves when a leader's force covers the batch.
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
        """Point lookup: probe runs newest-to-oldest, stop at a base.

        Recency is a total order over the structure (data only flows
        downward), so the memtable followed by
        :meth:`LevelManager.iter_tables` *is* the correct probe order
        for every policy; Bloom filters skip most absent probes.
        """
        self._check_open()
        versions: list[Record] = []
        if self._collect(self._memtable.get(key), versions):
            return resolve(versions)
        for table in self._manager.iter_tables():
            if self._collect(table.get(key), versions):
                break
        return resolve(versions)

    def scan(
        self,
        lo: bytes,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan across every run, against a pinned snapshot.

        A merge installing (or the memtable flushing) underneath a
        paused scan is invisible: the snapshot pinned the run set at
        scan start, so there is no restart and no row is observed twice
        — same semantics as :meth:`repro.core.tree.BLSM.scan`.
        """
        self._check_open()
        with self.snapshot() as snap:
            yield from snap.scan(lo, hi, limit)

    def snapshot(self) -> TreeSnapshot:
        """Pin a consistent point-in-time read view of the tree.

        Opening is O(1): the memtable is read in place, copy-on-write —
        one O(|C0|) copy only if a write lands while the snapshot is
        open.  Every on-disk run is pinned in the :class:`VersionSet` so
        merge installs defer their frees past the snapshot's lifetime.
        """
        self._check_open()
        return TreeSnapshot(
            self.versions,
            self._memtable,
            [],
            list(self._manager.iter_tables()),
            engine=self._policy.name,
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
        """Flush C0 and run every due merge to completion."""
        self._check_open()
        if not self._memtable.is_empty:
            self._flush_memtable()
        while self.step_m01(1 << 30) or self.step_m12(1 << 30):
            pass

    def compact(self) -> None:
        """Merge everything into a single bottom-level run."""
        self.drain()
        tables = list(self._manager.iter_tables())
        if len(tables) <= 1:
            return
        bottom = self._manager.deepest_nonempty()
        assert bottom is not None
        plan = MergePlan(
            bottom, bottom, include_target=True, label="compact"
        )
        job = PolicyMergeJob(
            self.stasis,
            plan,
            tables,
            self._take_tree_id(),
            drop_tombstones=True,
            options=self.options,
        )
        while not job.done:
            job.step(1 << 30)
        self._install_job(job, gear="c1c2")

    def close(self) -> None:
        """Force logs and mark the tree closed."""
        if self._closed:
            return
        self.flush_log()
        self.stasis.wal.force()
        self._closed = True

    # ------------------------------------------------------------------
    # Scheduler interface (the two-gear surface over N levels)
    # ------------------------------------------------------------------

    @property
    def c0_fill_fraction(self) -> float:
        """Fill of the active memtable; the spring's displacement."""
        return self._memtable.fill_fraction

    @property
    def m01_inprogress(self) -> float:
        """Progress of the level-0 merge job (1.0 when none is due)."""
        if self._job0 is not None:
            return self._job0.inprogress
        return 0.0 if self._next_plan(shallow=True) is not None else 1.0

    @property
    def m01_outprogress(self) -> float:
        """Level 1's standing within its geometric budget."""
        return outprogress(
            self.m01_inprogress,
            self._manager.level_bytes(1),
            self.options.c0_bytes,
            self._manager.ratio,
        )

    @property
    def m12_inprogress(self) -> float:
        """Progress of the deep merge job (1.0 when none is due)."""
        if self._jobn is not None:
            return self._jobn.inprogress
        return 0.0 if self._next_plan(shallow=False) is not None else 1.0

    @property
    def m01_input_bytes(self) -> int:
        """Input size of the active (or next) level-0 merge."""
        if self._job0 is not None:
            return self._job0.input_bytes
        return max(
            1, self._manager.level_bytes(0) + self._manager.level_bytes(1)
        )

    @property
    def m12_input_bytes(self) -> int:
        """Input size of the active (or next) deep merge."""
        if self._jobn is not None:
            return self._jobn.input_bytes
        deep = self._manager.total_bytes() - self._manager.level_bytes(0)
        return max(1, deep)

    def write_amplification_estimate(self) -> float:
        """Analytic bytes of merge I/O per written byte (policy-owned)."""
        levels = self._manager.deepest_nonempty()
        depth = max(1, (levels if levels is not None else 0) + 1)
        return max(
            2.0,
            self._policy.estimated_write_amplification(
                depth, self._manager.ratio
            ),
        )

    def step_m01(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of level-0-sourced merge work."""
        return self._step_gear("c0c1", budget_bytes)

    def step_m12(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of deeper merge work."""
        return self._step_gear("c1c2", budget_bytes)

    def force_drain(self, target_fill: float, chunk: int) -> None:
        """Scheduler stall hook: flush a full C0, then drain L0 overflow."""
        self._check_open()
        if (
            self._memtable.fill_fraction >= 1.0
            and self._memtable.fill_fraction > target_fill
        ):
            self._flush_memtable()
        chunk = max(1, chunk)
        while self._manager.run_count(0) >= self._policy.max_runs(0):
            if self.step_m01(chunk) == 0 and self.step_m12(chunk) == 0:
                break

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------

    def _busy_levels(self) -> set[int]:
        busy: set[int] = set()
        for job in (self._job0, self._jobn):
            if job is not None:
                busy.add(job.plan.source_level)
                busy.add(job.plan.target_level)
        return busy

    def _next_plan(self, shallow: bool) -> MergePlan | None:
        """The most urgent due plan for one gear (L0-sourced or deeper)."""
        for plan in self._policy.plan_merges(self._manager, self._busy_levels()):
            if (plan.source_level == 0) == shallow:
                return plan
        return None

    def _start_job(self, plan: MergePlan) -> PolicyMergeJob:
        inputs = list(self._manager.runs(plan.source_level))
        if plan.include_target and plan.target_level != plan.source_level:
            inputs.extend(self._manager.runs(plan.target_level))
        job = PolicyMergeJob(
            self.stasis,
            plan,
            inputs,
            self._take_tree_id(),
            drop_tombstones=self._policy.drop_tombstones(self._manager, plan),
            options=self.options,
        )
        gear = "c0c1" if plan.source_level == 0 else "c1c2"
        self._merge_obs[gear][0].inc()
        self.runtime.trace.emit(
            "merge_start",
            level=gear,
            plan=plan.label,
            input_bytes=job.input_bytes,
        )
        return job

    def _step_gear(self, gear: str, budget_bytes: int) -> int:
        if budget_bytes <= 0:
            return 0
        shallow = gear == "c0c1"
        job = self._job0 if shallow else self._jobn
        if job is None:
            plan = self._next_plan(shallow)
            if plan is None:
                return 0
            job = self._start_job(plan)
            if shallow:
                self._job0 = job
            else:
                self._jobn = job
        started = self.stasis.clock.now
        worked = job.step(budget_bytes)
        elapsed = self.stasis.clock.now - started
        if worked:
            self._note_merge_progress(gear, worked, elapsed, job)
        if job.done:
            if shallow:
                self._job0 = None
            else:
                self._jobn = None
            self._install_job(job, gear)
        return worked

    def _install_job(self, job: PolicyMergeJob, gear: str) -> None:
        """Swap a finished job's inputs for its output, durably.

        Ordering mirrors the bLSM tree: install in memory, commit the
        manifest (the durability point), bump the merge epoch so paused
        scans restart, then free the inputs' extents.
        """
        self._manager.install(job.inputs, job.plan.target_level, job.output)
        self.runtime.trace.emit(
            "merge_finish",
            level=gear,
            plan=job.plan.label,
            output_bytes=job.output.nbytes if job.output is not None else 0,
            reads=job.read_calls,
            seeks=job.seeks,
            writes=job.write_calls,
            write_seeks=job.write_seeks,
        )
        self.stasis.commit_manifest(self._manifest())
        self._merge_epoch += 1  # historical: scans now pin snapshots
        for table in job.inputs:
            self.versions.retire(table)

    # ------------------------------------------------------------------
    # Write internals
    # ------------------------------------------------------------------

    def _write(self, record: Record, op: str) -> None:
        self._check_open()
        value = record.value if op != _OP_DELETE else None
        self.stasis.logical_log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        self._gauge_fill.set(self._memtable.fill_fraction)
        if self._memtable.fill_fraction >= 1.0:
            self._stall_for_level0()
            self._flush_memtable()
        self.scheduler.on_write(record.nbytes)

    def _stall_for_level0(self) -> None:
        """Hard backpressure: too many L0 runs blocks the writer.

        The writer drives merge work inline (charged to its own clock —
        the latency spike the paper's schedulers exist to avoid) until
        L0 drops below the policy's trigger.
        """
        if self._manager.run_count(0) < self.options.level0_stop_trigger:
            return
        self._ctr_memtable_full.inc()
        self.runtime.trace.emit(
            "level0_full", runs=self._manager.run_count(0)
        )
        started = self.stasis.clock.now
        with self.runtime.trace.span("stall", cause="level0_backpressure"):
            while self._manager.run_count(0) >= self._policy.max_runs(0):
                if self.step_m01(1 << 30) == 0 and self.step_m12(1 << 30) == 0:
                    break
        self._ctr_stalls.inc()
        self._hist_stall.observe(self.stasis.clock.now - started)

    def _flush_memtable(self) -> None:
        """Flush the whole memtable as level 0's newest run.

        The manifest commits before the log truncates, so a crash
        between the two replays onto state that already contains the
        run — idempotent because replay rebuilds C0 from scratch.
        """
        if self._memtable.is_empty:
            return
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
        flushed = self._memtable.nbytes
        if table is not None:
            self._manager.add_run(0, table)
        self._memtable = MemTable(
            self.options.c0_bytes,
            seed=self.options.seed,
            kind=self.options.memtable,
        )
        self._ctr_rotations.inc()
        self.runtime.trace.emit(
            "memtable_rotate", kind="flush", frozen_bytes=flushed
        )
        self._merge_epoch += 1  # paused scans re-resolve (memtable swap)
        self.stasis.commit_manifest(self._manifest())
        self.stasis.logical_log.truncate(self._next_seqno)

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

    def _take_seqno(self) -> int:
        seqno = self._next_seqno
        self._next_seqno += 1
        return seqno

    def _take_tree_id(self) -> int:
        tree_id = self._next_tree_id
        self._next_tree_id += 1
        return tree_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def policy(self) -> CompactionPolicy:
        """The layout-owning policy object."""
        return self._policy

    @property
    def manager(self) -> LevelManager:
        """The level structure (read-only use outside the tree)."""
        return self._manager

    def level_view(self) -> dict[str, Any]:
        """Layout snapshot: per-level runs, budgets, memtable fill."""
        return {
            "policy": self._policy.name,
            "memtable_bytes": self._memtable.nbytes,
            "levels": self._manager.level_view(),
            "max_bytes": [
                self._manager.max_bytes(level)
                for level in range(self._manager.level_count)
            ],
        }

    def stats(self) -> dict[str, Any]:
        """Operational counters for benchmarks and examples."""
        summary = self.stasis.io_summary()
        summary["policy"] = self._policy.name
        summary["level_runs"] = [
            self._manager.run_count(level)
            for level in range(self._manager.level_count)
        ]
        summary["next_seqno"] = self._next_seqno
        summary["clock_seconds"] = self.stasis.clock.now
        return summary

    def __repr__(self) -> str:
        runs = "/".join(
            str(self._manager.run_count(level))
            for level in range(self._manager.level_count)
        )
        return (
            f"CompactionTree(policy={self._policy.name}, "
            f"c0={self._memtable.nbytes}, runs={runs or '-'}, "
            f"t={self.stasis.clock.now:.3f}s)"
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls, stasis: Stasis, options: BLSMOptions | None = None
    ) -> "CompactionTree":
        """Rebuild a tree from durable state after ``stasis.crash()``.

        Identical two-phase shape to :meth:`BLSM.recover`: the newest
        committed manifest restores the level structure (Bloom filters
        rebuilt by scanning — a charged cost), orphaned extents from
        torn merges are freed, and the logical log replays into a fresh
        memtable.
        """
        tree = cls.__new__(cls)
        tree.options = options if options is not None else BLSMOptions(
            compaction_policy="leveled"
        )
        tree.stasis = stasis
        tree._policy = cls._make_policy(tree.options)
        tree._memtable = MemTable(
            tree.options.c0_bytes,
            seed=tree.options.seed,
            kind=tree.options.memtable,
        )
        tree._job0 = None
        tree._jobn = None
        tree._next_seqno = 0
        tree._next_tree_id = 1
        tree._merge_epoch = 0
        tree._closed = False
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
        tree._manager = LevelManager.rebuild(
            stasis,
            manifest["levels"],
            cls._base_bytes(tree.options),
            tree.options.level_ratio,
            tree.options,
        )
        tree._free_orphan_extents()
        storage_recover(stasis, replay)
        return tree

    # -- manifest ------------------------------------------------------

    def _manifest(self) -> dict[str, Any]:
        return {
            "policy": self._policy.name,
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
            "levels": self._manager.describe(),
        }

    def _free_orphan_extents(self) -> None:
        """Free extents a torn merge allocated but never committed."""
        live: set[Extent] = self._manager.live_extents()
        for extent in self.stasis.regions.allocated_extents:
            if extent not in live:
                for page_id in range(extent.start, extent.end):
                    self.stasis.pagefile.free_page(page_id)
                self.stasis.regions.free(extent)

"""An LSM tree whose on-disk layout is owned by a pluggable policy.

Where :class:`repro.core.tree.BLSM` hardcodes the paper's three on-disk
slots, a :class:`CompactionTree` pairs one memtable with a
:class:`~repro.core.compaction.manager.LevelManager` and delegates every
layout decision — how many runs a level may hold, what merges are due —
to a :class:`~repro.core.compaction.policy.CompactionPolicy`.  The tree
keeps bLSM's *mechanisms* — all of
:class:`~repro.core.kernel.TreeKernel`: logical logging, budget-stepped
merges paced by the write path, snapshot-pinned scans, log-replay
recovery — and swaps only the *policy*, which is exactly the factoring
the compaction design-space literature argues for (Sarkar et al.; Luo &
Carey, PAPERS.md).

Differences from the bLSM tree, all policy-neutral:

* C0 is flushed whole to a level-0 run when full (the LevelDB shape)
  instead of being consumed incrementally by snowshovel merges, so the
  logical log truncates to a simple seqno prefix at each flush.
* Backpressure is level-0 run count, not C0 fill: once L0 accumulates
  :attr:`CompactionTree.L0_STOP_TRIGGER` runs the writer stalls and
  drives merge work inline until L0 drains below the policy's trigger.
* At most two merge jobs run at a time — one with source level 0
  (driven by :meth:`step_m01`) and one deeper (driven by
  :meth:`step_m12`) — which is how the existing merge schedulers'
  two-gear surface maps onto N levels without modification.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from repro.core.compaction.manager import LevelManager
from repro.core.compaction.policy import CompactionPolicy, MergePlan, make_policy
from repro.core.kernel import TreeKernel
from repro.core.merge import MergeProcess
from repro.core.options import BLSMOptions
from repro.core.progress import outprogress
from repro.core.versions import TreeSnapshot
from repro.records import Record, RecordKind
from repro.sstable.reader import SSTable

__all__ = ["CompactionTree"]


class _Job(NamedTuple):
    """A running plan: what it consumes and the merge executing it."""

    plan: MergePlan
    inputs: list[SSTable]
    merge: MergeProcess


class CompactionTree(TreeKernel):
    """A policy-parameterized LSM tree over the generalized level manager."""

    L0_STOP_TRIGGER = 12
    """Level-0 runs at which a flushing writer stalls (LevelDB's stop
    trigger, the same for every policy)."""

    L0_SLOWDOWN_SECONDS = 1e-3
    """What a flush sleeps from the policy's slowdown trigger on."""

    @staticmethod
    def _default_options() -> BLSMOptions:
        return BLSMOptions(compaction_policy="leveled")

    def _init_layout(self) -> None:
        opts = self.options
        self._policy = make_policy(
            opts.compaction_policy,
            level0_trigger=opts.level0_trigger,
            fanout=opts.tier_fanout,
        )
        self._manager = LevelManager(
            self._base_bytes(opts),
            opts.level_ratio,
            file_levels=self._policy.granularity == "file",
        )
        self._jobs: dict[str, _Job] = {}  # by gear: "c0c1", "c1c2"
        self._attach_scheduler()

    @staticmethod
    def _base_bytes(opts: BLSMOptions) -> int:
        """Level-1 byte budget: L0's worth of whole-memtable flushes."""
        if opts.level_base_bytes is not None:
            return opts.level_base_bytes
        return max(1, opts.level0_trigger * opts.c0_bytes)

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup: probe runs newest-to-oldest, stop at a base.

        Recency is a total order over the structure (data only flows
        downward), so C0 followed by :meth:`LevelManager.sources` *is*
        the probe order for every policy; Bloom filters skip most absent
        probes.
        """
        self._check_open()
        record = self._memtable.get(key)
        if record is None:
            versions: list[Record] = []
        elif record.kind is RecordKind.DELTA:
            versions = [record]
        else:
            return record.value if record.kind is RecordKind.BASE else None
        for source in self._manager.sources():
            record = source.get(key)
            if record is not None:
                versions.append(record)
                if record.kind is not RecordKind.DELTA:
                    break
        return self._resolve_read(key, versions)

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
            self._manager.sources(),
            engine=self._policy.name,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Flush C0 and run every due merge to completion."""
        self._check_open()
        if not self._memtable.is_empty:
            self._flush_memtable()
        while self.step_m01(1 << 30) or self.step_m12(1 << 30):
            pass

    def compact(self) -> None:
        """Merge everything into a single bottom-level run.

        On a file-granularity tree level 0 only ever takes memtable
        flushes, so the bottom run is level 1 or deeper, cut into
        key-disjoint files.
        """
        self.drain()
        manager = self._manager
        bottom = manager.deepest_nonempty()
        if bottom is None:
            return
        if manager.file_levels:
            bottom = max(1, bottom)
        tables = list(manager.iter_tables())
        if len(tables) == 1 and manager.runs(bottom) == tables:
            return  # already one run at the bottom
        plan = MergePlan(bottom, bottom, include_target=True, label="compact")
        job = _Job(plan, tables, self._new_merge(tables, drop=True))
        job.merge.run_to_completion()
        self._install_job(job, gear="c1c2")

    # ------------------------------------------------------------------
    # Scheduler interface (the two-gear surface over N levels)
    # ------------------------------------------------------------------

    @property
    def c0_fill_fraction(self) -> float:
        """Fill of the active memtable; the spring's displacement."""
        return self._memtable.fill_fraction

    @property
    def merging(self) -> bool:
        """Whether a merge job is running in either gear."""
        return bool(self._jobs)

    def _inprogress(self, gear: str) -> float:
        job = self._jobs.get(gear)
        if job is not None:
            return job.merge.inprogress
        return 0.0 if self._next_plan(gear) is not None else 1.0

    @property
    def m01_inprogress(self) -> float:
        """Progress of the level-0 merge job (1.0 when none is due)."""
        return self._inprogress("c0c1")

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
        return self._inprogress("c1c2")

    @property
    def m01_input_bytes(self) -> int:
        """Input size of the active (or next) level-0 merge."""
        if "c0c1" in self._jobs:
            return self._jobs["c0c1"].merge.input_bytes
        return max(
            1, self._manager.level_bytes(0) + self._manager.level_bytes(1)
        )

    @property
    def m12_input_bytes(self) -> int:
        """Input size of the active (or next) deep merge."""
        if "c1c2" in self._jobs:
            return self._jobs["c1c2"].merge.input_bytes
        deep = self._manager.total_bytes() - self._manager.level_bytes(0)
        return max(1, deep)

    def m01_debt_per_byte(self) -> float:
        """Analytic bytes of merge I/O per written byte (policy-owned).

        Policy merges do not drain C0, so the spring has no rest point
        here; the policy's whole-tree estimate stands in as the debt.
        """
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
        self._drain_level0(max(1, chunk))

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------

    def _next_plan(self, gear: str) -> MergePlan | None:
        """The most urgent due plan for one gear (L0-sourced or deeper)."""
        busy = {
            level
            for job in self._jobs.values()
            for level in (job.plan.source_level, job.plan.target_level)
        }
        for plan in self._policy.plan_merges(self._manager, busy):
            if (plan.source_level == 0) == (gear == "c0c1"):
                return plan
        return None

    def _new_merge(self, inputs: list[SSTable], drop: bool) -> MergeProcess:
        """A merge of ``inputs`` (newest first) into the plan's output."""
        opts = self.options
        nbytes = sum(table.nbytes for table in inputs)
        keys = sum(table.key_count for table in inputs)
        split = None
        if self._policy.granularity == "file":
            # Files of a quarter of the level base (LevelDB: 2 MB under a
            # 10 MB L1), each sized for records of the inputs' mean size.
            split = max(1, self._manager.base_bytes // 4)
            keys = max(1, keys * split // max(1, nbytes))
        return MergeProcess(
            self.stasis,
            inputs[:-1],
            inputs[-1],
            self._take_tree_id(),
            input_bytes=nbytes,
            expected_keys=keys,
            drop_tombstones=drop,
            with_bloom=opts.with_bloom_filters,
            bloom_false_positive_rate=opts.bloom_false_positive_rate,
            split_output_bytes=split,
            tree_id_source=self._take_tree_id if split is not None else None,
            compression_ratio=opts.compression_ratio,
        )

    def _step_gear(self, gear: str, budget_bytes: int) -> int:
        if budget_bytes <= 0:
            return 0
        job = self._jobs.get(gear)
        if job is None:
            plan = self._next_plan(gear)
            if plan is None:
                return 0
            inputs = list(plan.inputs)
            source, target = plan.source_level, plan.target_level
            if not inputs:  # level granularity: every run of the levels
                inputs = list(self._manager.runs(source))
                if plan.include_target and target != source:
                    inputs.extend(self._manager.runs(target))
            self._policy.plan_started(self._manager, plan)
            drop = self._policy.drop_tombstones(self._manager, plan)
            job = _Job(plan, inputs, self._new_merge(inputs, drop))
            self._jobs[gear] = job
            self._merge_started(gear, job.merge, plan=plan.label)
        return self._step_merge(
            gear, job.merge, budget_bytes, None,
            lambda: self._install_job(self._jobs.pop(gear), gear),
        )

    def _install_job(self, job: _Job, gear: str) -> None:
        """Swap a finished job's inputs for its outputs, durably.

        Ordering mirrors the bLSM tree: install in memory, commit the
        manifest (the durability point), then retire the inputs — their
        extents are freed once no snapshot pins them.
        """
        outputs = job.merge.outputs
        self._manager.install(job.inputs, job.plan.target_level, outputs)
        self._merge_finished(
            gear,
            job.merge,
            sum(table.nbytes for table in outputs),
            plan=job.plan.label,
        )
        self.stasis.commit_manifest(self._manifest())
        for table in job.inputs:
            self.versions.retire(table)

    # ------------------------------------------------------------------
    # Write internals
    # ------------------------------------------------------------------

    def _on_write(self, nbytes: int) -> None:
        self._gauge_fill.set(self._memtable.fill_fraction)
        if self._memtable.fill_fraction >= 1.0:
            self._stall_for_level0()
            self._flush_memtable()
        self.scheduler.on_write(nbytes)

    def _stall_for_level0(self) -> None:
        """Level-0 backpressure on a flushing writer.

        At :attr:`L0_STOP_TRIGGER` runs the writer drives merge work
        inline (charged to its own clock — the latency spike the paper's
        schedulers exist to avoid) until L0 drops below the policy's
        trigger.  From the policy's slowdown trigger on, the flush
        sleeps :attr:`L0_SLOWDOWN_SECONDS` first.
        """
        runs = self._manager.run_count(0)
        if runs >= self.L0_STOP_TRIGGER:
            with self._stall("level0_backpressure", "level0_full", runs=runs):
                self._drain_level0(1 << 30)
        elif runs >= (self._policy.slowdown_trigger or self.L0_STOP_TRIGGER):
            with self._stall("level0_slowdown", "level0_slowdown", runs=runs):
                self.stasis.clock.advance(self.L0_SLOWDOWN_SECONDS)

    def _drain_level0(self, chunk: int) -> None:
        """Merge until level 0 is below the policy's trigger (or stuck)."""
        while self._manager.run_count(0) >= self._policy.max_runs(0):
            if self.step_m01(chunk) == 0 and self.step_m12(chunk) == 0:
                break

    def _flush_memtable(self) -> None:
        """Flush the whole memtable as level 0's newest run.

        The flush empties C0 whole, so the log truncates to a seqno
        prefix instead of the exact retention snowshoveling needs.
        """
        if self._memtable.is_empty:
            return
        table = self._flush_c0("flush")
        if table is not None:
            self._manager.add_run(0, table)
        self.stasis.commit_manifest(self._manifest())
        self.stasis.logical_log.truncate(self._next_seqno)

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

    # -- manifest ------------------------------------------------------

    def _manifest(self) -> dict[str, Any]:
        return {
            "policy": self._policy.name,
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
            "levels": self._manager.describe(),
        }

    def _restore_layout(self, manifest: dict[str, Any]) -> None:
        empty = self._manager
        self._manager = LevelManager.rebuild(
            self.stasis,
            manifest["levels"],
            empty.base_bytes,
            empty.ratio,
            self.options,
            empty.file_levels,
        )

    def _live_tables(self) -> Iterable[SSTable]:
        return self._manager.iter_tables()

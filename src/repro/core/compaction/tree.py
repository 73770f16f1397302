"""An LSM tree whose on-disk layout is owned by a pluggable policy.

Where :class:`repro.core.tree.BLSM` hardcodes the paper's three on-disk
slots, a :class:`CompactionTree` pairs one memtable with a
:class:`~repro.core.compaction.manager.LevelManager` and delegates every
layout decision — how many runs a level may hold, what merges are due —
to a :class:`~repro.core.compaction.policy.CompactionPolicy`.  The tree
keeps bLSM's *mechanisms* — all of
:class:`~repro.core.kernel.TreeKernel`: logical logging, budget-stepped
merges paced by the write path, snapshot scans, log-replay
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
* At most two merges run at a time — gear 0 with source level 0 and
  gear 1 deeper — which is how the kernel's two-gear merge host maps
  onto N levels, and every scheduler paces every policy.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.compaction.manager import LevelManager
from repro.core.compaction.policy import (
    L0_TRIGGER,
    CompactionPolicy,
    MergePlan,
    make_policy,
)
from repro.core.kernel import TreeKernel
from repro.core.merge import MergeProcess
from repro.core.options import BLSMOptions
from repro.sstable.builder import SSTableBuilder
from repro.sstable.reader import SSTable

__all__ = ["CompactionTree"]


class _PlanMerge(MergeProcess):
    """The merge executing one plan, with the input runs it replaces."""

    def __init__(
        self, plan: MergePlan, inputs: list[SSTable], *args: Any, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.plan = plan
        self.inputs = inputs


class CompactionTree(TreeKernel):
    """A policy-parameterized LSM tree over the generalized level manager."""

    L0_STOP_TRIGGER = 12
    """Level-0 runs at which a flushing writer stalls (LevelDB's stop
    trigger, the same for every policy; the L0 merge is due from
    :data:`~repro.core.compaction.policy.L0_TRIGGER` runs)."""

    L0_SLOWDOWN_SECONDS = 1e-3
    """What a flush sleeps from the policy's slowdown trigger on."""

    @staticmethod
    def _default_options() -> BLSMOptions:
        return BLSMOptions(compaction_policy="leveled")

    def _init_layout(self) -> None:
        opts = self.options
        self._policy = make_policy(opts.compaction_policy, opts.tier_fanout)
        self._manager = LevelManager(
            self._base_bytes(opts),
            opts.level_ratio,
            file_levels=self._policy.granularity == "file",
        )
        self._m01: _PlanMerge | None = None  # source level 0
        self._m12: _PlanMerge | None = None  # deeper
        self._attach_scheduler()

    @staticmethod
    def _base_bytes(opts: BLSMOptions) -> int:
        """Level-1 byte budget: L0's worth of whole-memtable flushes."""
        if opts.level_base_bytes is not None:
            return opts.level_base_bytes
        return max(1, L0_TRIGGER * opts.c0_bytes)

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
        merge = self._new_merge(plan, tables, drop=True)
        merge.run_to_completion()
        self._install(merge, gear="c1c2")

    # ------------------------------------------------------------------
    # Merge host: gear 0 merges out of level 0, gear 1 deeper
    # ------------------------------------------------------------------

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

    def _m01_fills(self) -> tuple[int, float]:
        return self._manager.level_bytes(1), self._manager.ratio

    def _m01_can_start(self) -> bool:
        return self._next_plan(0) is not None

    def _m12_can_start(self) -> bool:
        return self._next_plan(1) is not None

    def _m01_next_input_bytes(self) -> int:
        return self._manager.level_bytes(0) + self._manager.level_bytes(1)

    def _m12_next_input_bytes(self) -> int:
        return self._manager.total_bytes() - self._manager.level_bytes(0)

    def _start_m01(self) -> bool:
        self._m01 = self._start_plan("c0c1", self._next_plan(0))
        return self._m01 is not None

    def _start_m12(self) -> bool:
        self._m12 = self._start_plan("c1c2", self._next_plan(1))
        return self._m12 is not None

    def _finish_m01(self) -> None:
        merge, self._m01 = self._m01, None
        self._install(merge, "c0c1")

    def _finish_m12(self) -> None:
        merge, self._m12 = self._m12, None
        self._install(merge, "c1c2")

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

    def _next_plan(self, gear: int) -> MergePlan | None:
        """The most urgent due plan for one gear (L0-sourced or deeper)."""
        busy = {
            level
            for merge in (self._m01, self._m12)
            if merge is not None
            for level in (merge.plan.source_level, merge.plan.target_level)
        }
        for plan in self._policy.plan_merges(self._manager, busy):
            if (plan.source_level == 0) == (gear == 0):
                return plan
        return None

    def _start_plan(self, gear: str, plan: MergePlan | None) -> _PlanMerge | None:
        if plan is None:
            return None
        inputs = list(plan.inputs)
        source, target = plan.source_level, plan.target_level
        if not inputs:  # level granularity: every run of the levels
            inputs = list(self._manager.runs(source))
            if plan.include_target and target != source:
                inputs.extend(self._manager.runs(target))
        self._policy.plan_started(self._manager, plan)
        drop = self._policy.drop_tombstones(self._manager, plan)
        merge = self._new_merge(plan, inputs, drop)
        self._merge_started(gear, merge, plan=plan.label)
        return merge

    def _new_merge(
        self, plan: MergePlan, inputs: list[SSTable], drop: bool
    ) -> _PlanMerge:
        """A merge of ``inputs`` (newest first) into the plan's output."""
        opts = self.options
        nbytes = sum(table.nbytes for table in inputs)
        keys = sum(table.key_count for table in inputs)
        split = None
        if self._policy.granularity == "file":
            # Files of a quarter of the level base (LevelDB: 2 MB under a
            # 10 MB L1).
            split = max(1, self._manager.base_bytes // 4)
        return _PlanMerge(
            plan,
            inputs,
            self.stasis,
            inputs[:-1],
            inputs[-1],
            self._take_tree_id(),
            input_bytes=nbytes,
            expected_keys=keys,
            drop_tombstones=drop,
            with_bloom=opts.with_bloom_filters,
            split_output_bytes=split,
            tree_id_source=self._take_tree_id if split is not None else None,
            compression_ratio=opts.compression_ratio,
        )

    def _install(self, merge: _PlanMerge, gear: str) -> None:
        """Swap a finished merge's inputs for its outputs, durably.

        Ordering mirrors the bLSM tree: install in memory, commit the
        manifest (the durability point), then retire the inputs — their
        extents are freed once no snapshot's version names them.
        """
        outputs = merge.outputs
        self._manager.install(merge.inputs, merge.plan.target_level, outputs)
        self.versions.install(self._manager.sources())
        self._merge_finished(
            gear,
            merge,
            sum(table.nbytes for table in outputs),
            plan=merge.plan.label,
        )
        self.stasis.commit_manifest(self._manifest())
        for table in merge.inputs:
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
        prefix instead of the exact retention snowshoveling needs.  It
        truncates only after the manifest naming the run commits: a
        crash between the two replays onto state that already holds the
        run, which is idempotent because replay rebuilds C0 from scratch.
        """
        memtable = self._memtable
        if memtable.is_empty:
            return
        builder = SSTableBuilder(
            self.stasis,
            tree_id=self._take_tree_id(),
            expected_bytes=memtable.nbytes,
            expected_keys=len(memtable),
            with_bloom=self.options.with_bloom_filters,
            compression_ratio=self.options.compression_ratio,
        )
        for record in memtable:
            builder.add(record)
        table = builder.finish()
        self._memtable = self._new_memtable()
        self._ctr_rotations.inc()
        self.runtime.trace.emit(
            "memtable_rotate", kind="flush", frozen_bytes=memtable.nbytes
        )
        self._manager.add_run(0, table)
        self.versions.install(self._manager.sources())
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
        self.versions.install(self._manager.sources())

    def _live_tables(self) -> Iterable[SSTable]:
        return self._manager.iter_tables()

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

This module is the layout only; the log, C0, the write API, scans,
merge stepping and recovery are :class:`~repro.core.kernel.TreeKernel`.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.core.components import component_row, describe_component
from repro.core.kernel import TreeKernel
from repro.core.merge import FrozenSource, MergeProcess, SnowshovelSource  # noqa: F401
from repro.core.options import BLSMOptions
from repro.core.progress import outprogress
from repro.core.versions import RamSource, TreeSnapshot
from repro.memtable.memtable import MemTable
from repro.records import Record, RecordKind
from repro.sstable.reader import SSTable


class BLSM(TreeKernel):
    """A three-level log structured merge tree with Bloom filters."""

    def _init_layout(self) -> None:
        self._frozen: MemTable | None = None  # C0' (non-snowshovel mode)
        self._c1: SSTable | None = None
        self._c1_prime: SSTable | None = None
        self._c2: SSTable | None = None
        self._extras: list[SSTable] = []  # §3.2 workaround components
        self._m01: MergeProcess | None = None
        self._m01_extra: SSTable | None = None
        self._m12: MergeProcess | None = None
        self._promotion_pending = False
        self._r = self.options.min_r
        # Each merge level gets its own worker (Section 5.1's threads).
        self._bg01 = self._new_timeline("merge-c0c1")
        self._bg12 = self._new_timeline("merge-c1c2")
        self._attach_scheduler()

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup; at most ``1 + N/100`` seeks (Section 3.1).

        A base record or tombstone in C0 answers at once; otherwise the
        walk goes on through C0', the merge overlay, the §3.2 extras
        (newest first) and C1, C1', C2, and stops at the first base
        record or tombstone (Section 3.1.1).
        """
        self._check_open()
        record = self._memtable.get(key)
        if record is None:
            versions: list[Record] = []
        elif record.kind is RecordKind.DELTA:
            versions = [record]
        else:
            return record.value if record.kind is RecordKind.BASE else None
        overlay = self._m01.overlay if self._m01 is not None else None
        for source in (
            self._frozen, overlay, *self._extras,
            self._c1, self._c1_prime, self._c2,
        ):
            if source is None:
                continue
            record = source.get(key)
            if record is not None:
                versions.append(record)
                if record.kind is not RecordKind.DELTA:
                    break
        return self._resolve_read(key, versions)

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

    def m01_debt_per_byte(self) -> float:
        """Input bytes the C0:C1 merge consumes per byte it drains from C0.

        The spring's conversion from a write to a ``step_m01`` budget, in
        that method's own unit: a pass consumes ``run + |C1|`` input
        bytes to remove ``run`` bytes from C0, where a snowshovel run is
        about twice what C0 holds now (Section 4.2) and a frozen pass
        consumes exactly C0'.
        """
        doubling = 2 if self.options.snowshovel else 1
        run_bytes = max(1, doubling * self._c0_source_bytes())
        c1_bytes = self._c1.nbytes if self._c1 is not None else 0
        return (run_bytes + c1_bytes) / run_bytes

    def step_m01(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of C0:C1 merge work.

        With background merges, the work is dispatched to the C0:C1
        worker's timeline; if that worker is still servicing previously
        dispatched I/O (its timeline is ahead of the clock), nothing is
        dispatched and 0 is returned — the scheduler's deficit carries
        over, exactly as when a synchronous step runs out of budget.
        """
        timeline = self._bg01
        if budget_bytes <= 0 or (
            timeline is not None and timeline.busy(self.stasis.clock)
        ):
            return 0
        if self._m01 is None and not self._start_m01():
            return 0
        return self._step_merge(
            "c0c1", self._m01, budget_bytes, timeline, self._finish_m01
        )

    def step_m12(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of C1':C2 merge work.

        Background-merge dispatch gating works exactly as in
        :meth:`step_m01`, on the C1':C2 worker's own timeline.
        """
        timeline = self._bg12
        if budget_bytes <= 0 or (
            timeline is not None and timeline.busy(self.stasis.clock)
        ):
            return 0
        if self._m12 is None and not self._start_m12():
            return 0
        return self._step_merge(
            "c1c2", self._m12, budget_bytes, timeline, self._finish_m12
        )

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
        with self._stall(
            "merge_backpressure",
            "memtable_full",
            fill=self.c0_fill_fraction,
            c0_bytes=self._memtable.nbytes,
        ):
            while self._c0_overfull(target_fill):
                if self._relieve_c0(chunk):
                    continue
                if self._wait_for_background():
                    continue  # wait for a busy merge worker, then retry
                break  # nothing can make progress

    def _flush_extra(self) -> None:
        """Flush the whole memtable to an extra overlapping component."""
        if self._memtable.is_empty:
            return
        table = self._flush_c0("extra_flush")
        if table is not None:
            self._extras.insert(0, table)  # newest first
        self.stasis.commit_manifest(self._manifest())
        self._retain_log(self._memtable, self._frozen)

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
        (``repro policies``, docs/compaction.md) can render every
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
        input stream and one of write-behind per running builder;
        ``merge_overlay`` the records a running snowshovel pass has
        taken out of C0, held readable until its output installs.
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
            "merge_overlay": (
                self._m01.overlay_bytes if self._m01 is not None else 0
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

    def _on_write(self, nbytes: int) -> None:
        self._gauge_fill.set(self._memtable.fill_fraction)
        if not self.options.snowshovel and self._memtable.fill_fraction >= 1.0:
            if self._frozen is None:
                self._freeze_memtable()
        self.scheduler.on_write(nbytes)

    def _freeze_memtable(self) -> None:
        self._frozen = self._memtable
        self._memtable = self._new_memtable()
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
        self._merge_started("c0c1", self._m01)
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
        self._merge_started("c1c2", self._m12)
        return True

    def _finish_m01(self) -> None:
        assert self._m01 is not None and self._m01.done
        old_c1 = self._c1
        self._c1 = self._m01.output
        self._merge_finished(
            "c0c1", self._m01, self._c1.nbytes if self._c1 is not None else 0
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
        self.versions.retire(old_c1)
        self.versions.retire(consumed_extra)
        self._retain_log(self._memtable, self._frozen)
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
        self._merge_finished(
            "c1c2", self._m12, self._c2.nbytes if self._c2 is not None else 0
        )
        self._c1_prime = None
        self._m12 = None
        self._recompute_r()
        self._maybe_persist_bloom(self._c2)
        self.stasis.commit_manifest(self._manifest())
        # Major merges are rare: a good moment to drop superseded
        # manifest records so WAL replay stays bounded.
        self.stasis.checkpoint_wal()
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

    # -- manifest ------------------------------------------------------

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

    def _restore_layout(self, manifest: dict[str, Any]) -> None:
        self._r = manifest["r"]
        self._c1 = self._rebuild_component(manifest["c1"])
        self._c1_prime = self._rebuild_component(manifest["c1_prime"])
        self._c2 = self._rebuild_component(manifest["c2"])
        self._extras = [
            self._rebuild_component(desc)
            for desc in manifest.get("extras", ())
        ]

    def _live_tables(self) -> Iterable[SSTable]:
        slots = (self._c1, self._c1_prime, self._c2, *self._extras)
        return [table for table in slots if table is not None]

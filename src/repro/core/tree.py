"""The bLSM tree (Figure 1 and Sections 3-4).

Structure: an in-memory component C0 (a memtable) and three on-disk slots.

* ``C1`` — the component the continuous C0:C1 merge rebuilds.  Each merge
  *pass* consumes one snowshovel run of C0 (or a frozen C0' when
  snowshoveling is off) together with the current C1 and writes a new C1.
* ``C1'`` — a full C1 promoted for merging downstream; it exists only to
  support the ongoing C1:C2 merge (Section 3.3).
* ``C2`` — the largest component; tombstones are garbage-collected when
  they reach it.

Reads walk C0, C0' or the merge overlay, C1, C1', C2 (newest to
oldest), skip components whose Bloom filter rejects the key, and
terminate at the first base record or tombstone (Section 3.1.1).
``insert_if_not_exists`` is zero-seek in the common case because the
largest component's Bloom filter answers the existence check
(Section 3.1.2).

Merges run incrementally on the write path under a pluggable scheduler;
all I/O advances the shared virtual clock, so a scheduler that lets a
merge fall behind produces exactly the write-latency spikes the paper
measures.

This module is the layout only; the log, C0, the write API, reads,
merge stepping and recovery are :class:`~repro.core.kernel.TreeKernel`.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Iterable

from repro.core.components import component_row, describe_component
from repro.core.kernel import TreeKernel
from repro.core.merge import MergeProcess
from repro.core.options import BLSMOptions
from repro.memtable.memtable import MemTable
from repro.memtable.snowshovel import SnowshovelCursor
from repro.sstable.reader import SSTable

MIN_R = 2.0
"""Lower clamp on the size ratio R between adjacent levels."""

MAX_R = 10.0
"""Upper clamp on R."""


def target_r(data_bytes: float, c0_bytes: float) -> float:
    """R = sqrt(|data| / |C0|), clamped to ``[MIN_R, MAX_R]`` (§2.3.1)."""
    return min(MAX_R, max(MIN_R, math.sqrt(max(1.0, data_bytes / c0_bytes))))


class BLSM(TreeKernel):
    """A three-level log structured merge tree with Bloom filters."""

    def _init_layout(self) -> None:
        self._frozen: MemTable | None = None  # C0' (non-snowshovel mode)
        self._c1: SSTable | None = None
        self._c1_prime: SSTable | None = None
        self._c2: SSTable | None = None
        self._m01: MergeProcess | None = None
        self._m12: MergeProcess | None = None
        self._promotion_pending = False
        self._r = MIN_R
        self._attach_scheduler()

    # ------------------------------------------------------------------
    # Read path: C0, ``_ram`` (C0' or the merge overlay), the Version
    # ------------------------------------------------------------------

    def _publish(self) -> None:
        """Install the on-disk component set in read order (C1, C1', C2)
        for reads and snapshots."""
        self.versions.install(
            component
            for component in (self._c1, self._c1_prime, self._c2)
            if component is not None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Push all of C0 into C1 (complete outstanding C0:C1 passes)."""
        self._check_open()
        while True:
            if (
                not self.options.snowshovel
                and self._frozen is None
                and self._m01 is None
                and not self._memtable.is_empty
            ):
                # A C0 below capacity is never frozen by the write path.
                self._freeze_memtable()
            if self.step_m01(1 << 30):
                continue
            if self._memtable.is_empty and self._frozen is None and self._m01 is None:
                return
            if self.step_m12(1 << 30) == 0 and self.step_m01(1 << 30) == 0:
                return

    def compact(self) -> None:
        """Merge everything into a single C2 component (major compaction)."""
        self.drain()
        while self._m12 is not None or self._c1_prime is not None:
            if self.step_m12(1 << 30) == 0:
                break
        if self._c1 is not None:
            self._c1_prime = self._c1
            self._c1 = None
            self._publish()
            while self._m12 is not None or self._c1_prime is not None:
                if self.step_m12(1 << 30) == 0:
                    break

    # ------------------------------------------------------------------
    # Merge host: gear 0 is the C0:C1 merge, gear 1 the C1':C2 merge
    # ------------------------------------------------------------------

    # bench/ledger.py wraps step_m01, step_m12 and force_drain in this
    # class's own dict, so all three stay in its body.
    step_m01 = TreeKernel.step_m01
    step_m12 = TreeKernel.step_m12
    force_drain = TreeKernel.force_drain

    def m01_debt_per_byte(self) -> float:
        """Input bytes the C0:C1 merge consumes per byte it drains from C0.

        The spring's conversion from a write to a ``step_m01`` budget, in
        that method's own unit: a pass consumes ``run + |C1|`` input
        bytes to remove ``run`` bytes from C0, where a snowshovel run is
        about twice what C0 holds now (Section 4.2) and a frozen pass
        consumes exactly C0'.
        """
        if self.options.snowshovel:
            run_bytes = 2 * self._memtable.nbytes or 1
        else:
            run_bytes = self._c0_source_bytes() or 1
        c1 = self._c1
        c1_bytes = c1.nbytes if c1 is not None else 0
        return (run_bytes + c1_bytes) / run_bytes

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
        }

    def level_view(self) -> dict[str, Any]:
        """Layout snapshot in the generalized N-level vocabulary.

        Maps the paper's fixed slots onto levels so cross-policy tooling
        (``repro policies``, docs/compaction.md) can render every
        engine the same way: level 0 is always empty (C0 never flushes
        whole, it merges into C1), level 1 holds C1 and C1', level 2 C2.
        """
        levels: list[list[dict[str, Any]]] = [
            [],
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
                self._m01.overlay.nbytes if self._m01 is not None else 0
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

    @cached_property
    def _c0_capacity(self) -> int:
        """Usable active-C0 bytes.

        Without snowshoveling, RAM is split between C0 and the frozen C0'
        being merged, halving the pool (Section 4.2.1).
        """
        if self.options.snowshovel:
            return self.options.c0_bytes
        return max(1, self.options.c0_bytes // 2)

    def _on_write(self, nbytes: int) -> None:
        fill = self._memtable.fill_fraction
        self._gauge_fill.value = fill  # Gauge.set, inline
        if fill >= 1.0 and self._frozen is None and not self.options.snowshovel:
            self._freeze_memtable()
        self.scheduler.on_write(nbytes)

    def _freeze_memtable(self) -> None:
        self._frozen = self._memtable
        self._ram = [(self._frozen,)]
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

    def _m01_next_input_bytes(self) -> int:
        c1_bytes = self._c1.nbytes if self._c1 is not None else 0
        return self._c0_source_bytes() + c1_bytes

    def _m01_fills(self) -> tuple[int, float]:
        return (self._c1.nbytes if self._c1 is not None else 0), self._r

    def _m12_can_start(self) -> bool:
        return self._c1_prime is not None

    def _m12_next_input_bytes(self) -> int:
        c1p = self._c1_prime.nbytes if self._c1_prime is not None else 0
        return c1p + (self._c2.nbytes if self._c2 is not None else 0)

    def _m01_can_start(self) -> bool:
        if self._promotion_pending:
            return False  # C1 is full and waiting on the C1':C2 merge
        if self.options.snowshovel:
            return not self._memtable.is_empty
        return self._frozen is not None

    def _start_m01(self) -> bool:
        if not self._m01_can_start():
            return False
        newer: SnowshovelCursor | MemTable
        if self.options.snowshovel:
            newer = SnowshovelCursor(self._memtable)
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
            newer = self._frozen  # read in key order, left intact
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
            compression_ratio=self.options.compression_ratio,
            bloom_keys=run_keys + c1_keys,
        )
        if self.options.snowshovel:
            self._ram = [(self._m01.overlay,)]  # what it drained from C0
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
        self._publish()
        if not self.options.snowshovel:
            self._frozen = None
        self._ram = [()]  # C0' merged, or the overlay's records installed
        self._maybe_persist_bloom(self._c1)
        self.stasis.commit_manifest(self._manifest())
        self.versions.retire(old_c1)
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
        self._publish()
        self._recompute_r()
        self._maybe_persist_bloom(self._c2)
        self.stasis.commit_manifest(self._manifest())
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
        self._publish()
        self.stasis.commit_manifest(self._manifest())

    def _recompute_r(self) -> None:
        """R for a two-on-disk-level tree: C2 is the data (§2.3.1)."""
        data_bytes = self._c2.nbytes if self._c2 is not None else 0
        self._r = target_r(data_bytes, self._c0_capacity)

    def _c0_overfull(self, target_fill: float) -> bool:
        if self.options.snowshovel:
            return self._memtable.fill_fraction > target_fill
        # Without snowshoveling the active memtable cannot shrink (it
        # empties when frozen into C0', once the previous pass is done):
        # the writer is blocked only while both halves are full.
        return self._memtable.fill_fraction >= 1.0 and self._frozen is not None

    # -- manifest ------------------------------------------------------

    def _manifest(self) -> dict[str, Any]:
        return {
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
            "r": self._r,
            "c1": describe_component(self._c1),
            "c1_prime": describe_component(self._c1_prime),
            "c2": describe_component(self._c2),
        }

    def _restore_layout(self, manifest: dict[str, Any]) -> None:
        self._r = manifest["r"]
        self._c1 = self._rebuild_component(manifest["c1"])
        self._c1_prime = self._rebuild_component(manifest["c1_prime"])
        self._c2 = self._rebuild_component(manifest["c2"])
        self._publish()

    def _live_tables(self) -> Iterable[SSTable]:
        slots = (self._c1, self._c1_prime, self._c2)
        return [table for table in slots if table is not None]

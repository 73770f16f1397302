"""Partitioned bLSM (Sections 2.3.2, 3.3, 4.2.2 — the paper's next step).

"Partitioning is the best way to allow LSM-Trees to leverage write skew:
breaking the LSM-Tree into smaller trees and merging the trees according
to their update rates concentrates merge activity on frequently updated
key ranges" (Section 2.3.2).  The paper's prototype defers this ("we
have not yet implemented partitioning"); this module implements it as a
layout over the same substrate (:class:`~repro.core.kernel.TreeKernel`),
paced by the same schedulers, as Section 4.3 envisions for the spring.

Design:

* One global C0 (memtable) absorbs all writes, as in Figure 3.
* The keyspace is divided into disjoint range *partitions*; each owns a
  two-component stack C1ᵖ (recent merges) and C2ᵖ (bulk), with its own
  C0:C1ᵖ and C1ᵖ:C2ᵖ merges.
* A **greedy partition selector** (Figure 3's policy) starts the merge
  with the best ratio of C0 bytes freed to merge I/O — skewed writes
  concentrate C0 in hot ranges, so hot partitions merge often and cold
  partitions rarely, and distribution shifts never force a bulk copy of
  disjoint cold data (the stall source of Section 4.2.2).
* Only one merge runs at a time (the device is serial): it is the
  kernel's gear 0, whichever kind the selector picked (a promotion books
  as ``c1c2``), and there is no gear 1.  The scheduler paces it like
  bLSM's C0:C1 merge — under the spring, merges pause below the low
  water mark and writes feel proportional backpressure as C0 fills.
* Oversized partitions split during their C1ᵖ:C2ᵖ merge — the merge
  emits multiple output components, each seeding a new partition.
* Scans touch at most **two** components per partition they cross
  (Section 3.3's two-seek scans), because only the partition currently
  being merged has an extra in-flight component.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable

from repro.core.components import describe_component
from repro.core.kernel import TreeKernel
from repro.core.merge import MergeProcess, SnowshovelSource
from repro.core.options import BLSMOptions
from repro.core.tree import target_r
from repro.core.versions import TreeSnapshot
from repro.records import lookup
from repro.sstable.reader import SSTable
from repro.storage.stasis import Stasis

_LO = attrgetter("lo")


@dataclass
class Partition:
    """One key-range partition: ``[lo, hi)`` with a two-level stack."""

    lo: bytes
    hi: bytes | None  # None = unbounded
    c1: SSTable | None = None
    c2: SSTable | None = None
    m01: MergeProcess | None = None
    m12: MergeProcess | None = None
    merge_rounds: int = 0
    """C0:C1 merges completed since the last C1:C2 merge."""
    last_run_bytes: int = 0
    """C0 bytes the most recent C0:C1ᵖ merge consumed — the partition's
    observed share of the write stream, which sizes its promotion
    threshold under skew."""

    @property
    def disk_bytes(self) -> int:
        total = self.c1.nbytes if self.c1 is not None else 0
        if self.c2 is not None:
            total += self.c2.nbytes
        return total

    @property
    def merging(self) -> bool:
        return self.m01 is not None or self.m12 is not None

    def covers(self, key: bytes) -> bool:
        return key >= self.lo and (self.hi is None or key < self.hi)


class PartitionedBLSM(TreeKernel):
    """A range-partitioned bLSM tree with greedy merge selection."""

    def __init__(
        self,
        options: BLSMOptions | None = None,
        stasis: Stasis | None = None,
        max_partition_bytes: int | None = None,
    ) -> None:
        super().__init__(
            options, stasis, max_partition_bytes=max_partition_bytes
        )

    def _init_layout(self, max_partition_bytes: int | None = None) -> None:
        self.max_partition_bytes = (
            max_partition_bytes
            if max_partition_bytes is not None
            else 4 * self.options.c0_bytes
        )
        self._partitions: list[Partition] = [Partition(lo=b"", hi=None)]
        # One merge runs at a time (the greedy selector serializes them),
        # so one background timeline models the merge worker.
        self._m01: MergeProcess | None = None
        self._m01_partition: Partition | None = None
        self._bg01 = self._new_timeline("merge-worker")
        self._attach_scheduler()

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        partition = self._partition_for(key)
        m01 = partition.m01
        return lookup(key, (
            self._memtable, None if m01 is None else m01.overlay,
            partition.c1, partition.c2,
        ))

    def snapshot(self) -> TreeSnapshot:
        """Open a consistent point-in-time read view of the tree.

        One key range per partition behind the shared C0, each with the
        partition's merge-overlay prefix (while its C0:C1ᵖ pass is
        open) and its at most two components: a scan opens the ranges
        it crosses one at a time, so a short scan touches only the
        partition it lands in — the two-seek property partitioning
        exists to provide (Section 3.3) — and a merge or split
        committing underneath it is invisible.
        """
        self._check_open()
        older_ram = [
            (p.m01.overlay.prefix(),) if p.m01 is not None else ()
            for p in self._partitions
        ]
        return TreeSnapshot(
            self.versions, self._memtable, older_ram, engine="blsm-part"
        )

    def _publish(self) -> None:
        """Install one range per partition, its C1ᵖ before its C2ᵖ."""
        self.versions.install(ranges=[
            (p.lo, p.hi, tuple(c for c in (p.c1, p.c2) if c is not None))
            for p in self._partitions
        ])

    # ------------------------------------------------------------------
    # Merge host: gear 0 is the one merge worker, picked greedily
    # ------------------------------------------------------------------

    def _pick_merge(self) -> tuple[Partition, bool] | None:
        """Figure 3's greedy policy: free the most C0 per byte of I/O.

        Returns the partition and whether its merge is a promotion.
        Promotions (C1ᵖ:C2ᵖ merges) take priority for partitions whose
        C1 has grown past its share, to keep per-partition stacks at two
        components.
        """
        overdue = self._most_overdue_promotion()
        if overdue is not None:
            return overdue, True
        c0_by_partition = self._c0_bytes_by_partition()
        best: Partition | None = None
        best_score = 0.0
        for partition, c0_bytes in zip(self._partitions, c0_by_partition):
            if c0_bytes <= 0:
                continue
            c1_bytes = partition.c1.nbytes if partition.c1 is not None else 0
            cost = 2.0 * (c0_bytes + c1_bytes)  # read + write both inputs
            score = c0_bytes / cost
            if score > best_score:
                best, best_score = partition, score
        return None if best is None else (best, False)

    def _m01_can_start(self) -> bool:
        return (
            not self._memtable.is_empty
            or self._most_overdue_promotion() is not None
        )

    def _m01_next_input_bytes(self) -> int:
        pick = self._pick_merge()
        if pick is None:
            return 0
        partition, promote = pick
        if promote:
            return partition.disk_bytes
        c1_bytes = partition.c1.nbytes if partition.c1 is not None else 0
        return self._range_size(partition)[0] + c1_bytes

    def _start_m01(self) -> bool:
        pick = self._pick_merge()
        if pick is not None:
            self._start(*pick)
        return pick is not None

    def _start(self, partition: Partition, promote: bool) -> None:
        """Start ``partition``'s C0:C1ᵖ pass, or its promotion, as gear 0."""
        self._m01_partition = partition
        self._m01_gear = "c1c2" if promote else "c0c1"
        start = self._start_promotion if promote else self._start_pass
        self._m01 = start(partition)
        self._merge_started(
            self._m01_gear, self._m01, partition=partition.lo.hex()
        )

    def _most_overdue_promotion(self) -> Partition | None:
        worst: Partition | None = None
        worst_ratio = 1.0
        for partition in self._partitions:
            if partition.c1 is None:
                continue
            ratio = partition.c1.nbytes / self._promotion_threshold(partition)
            if ratio > worst_ratio:
                worst, worst_ratio = partition, ratio
        return worst

    def _promotion_threshold(self, partition: Partition) -> float:
        """The C1ᵖ size at which promoting minimizes amortized merge cost.

        Section 2.3.1's optimization, applied per partition: with a run
        of ``run`` C0 bytes per pass and a bulk of ``|C2ᵖ|``, total merge
        I/O is minimized when ``|C1ᵖ| = sqrt(run * |C2ᵖ|)`` — cold
        partitions (tiny runs) promote rarely, hot ones often, which is
        exactly how partitioning leverages write skew.
        """
        # A bulk load's giant streamed run is not the steady-state run
        # size; cap the estimate at two C0s (the snowshovel expectation).
        run = max(1.0, float(partition.last_run_bytes or self._c0_share()))
        run = min(run, 2.0 * self.options.c0_bytes)
        c2 = float(partition.c2.nbytes) if partition.c2 is not None else 0.0
        optimum = math.sqrt(run * max(run, c2))
        # Never promote below one run; never defer past R runs.
        return min(max(optimum, run), self._target_r() * max(run, self._c0_share()))

    def _c0_bytes_by_partition(self) -> list[int]:
        totals = [0] * len(self._partitions)
        index = 0
        for record in self._memtable:
            while (
                self._partitions[index].hi is not None
                and record.key >= self._partitions[index].hi
            ):
                index += 1
            totals[index] += record.nbytes
        return totals

    def _c0_share(self) -> float:
        """Expected C0 bytes per partition under uniform load."""
        return self.options.c0_bytes / max(1, len(self._partitions))

    def _target_r(self) -> float:
        data = sum(partition.disk_bytes for partition in self._partitions)
        return target_r(data, self.options.c0_bytes)

    def m01_debt_per_byte(self) -> float:
        """Input bytes ``step_m01`` consumes per byte drained from C0.

        Partitioning caps each merge's inputs at one partition's stack,
        so the estimate uses the *average* partition rather than the
        whole tree.  The one gear runs C0:C1ᵖ and C1ᵖ:C2ᵖ merges
        alike, so both terms are in the debt, each in input bytes.
        """
        share = max(1.0, self._c0_share())
        average_c1 = sum(
            p.c1.nbytes if p.c1 is not None else 0 for p in self._partitions
        ) / max(1, len(self._partitions))
        debt01 = (share + average_c1) / share
        average_c2 = sum(
            p.c2.nbytes if p.c2 is not None else 0 for p in self._partitions
        ) / max(1, len(self._partitions))
        promo = max(1.0, self._target_r() * share)
        debt12 = (promo + average_c2) / promo
        return debt01 + debt12

    # ------------------------------------------------------------------
    # Merge lifecycle
    # ------------------------------------------------------------------

    def _start_pass(self, partition: Partition) -> MergeProcess:
        source = SnowshovelSource(self._memtable, partition.lo, partition.hi)
        c0_bytes, c0_keys = self._range_size(partition)
        c1_bytes = partition.c1.nbytes if partition.c1 is not None else 0
        c1_keys = partition.c1.key_count if partition.c1 is not None else 0
        # A partition with no C2 writes bottom-level output, so the merge
        # may split it directly into new partitions — this is how bulk
        # loads (one giant snowshovel run) partition the keyspace.
        bottom = partition.c2 is None
        # Keys keep joining the run while the pass drains it: size the
        # filter for this range's share of two C0s, the snowshovel
        # expectation (§4.4.3), never for less than the keys present.
        run_keys = max(
            c0_keys,
            math.ceil(2 * self.options.c0_bytes * c0_keys / self._memtable.nbytes),
        )
        partition.m01 = MergeProcess(
            self.stasis,
            newer=source,
            older=partition.c1,
            tree_id=self._take_tree_id(),
            input_bytes=c0_bytes + c1_bytes,
            expected_keys=len(self._memtable) + c1_keys,
            drop_tombstones=bottom,
            with_bloom=self.options.with_bloom_filters,
            split_output_bytes=self.max_partition_bytes if bottom else None,
            tree_id_source=self._take_tree_id if bottom else None,
            compression_ratio=self.options.compression_ratio,
            bloom_keys=run_keys + c1_keys,
        )
        return partition.m01

    def _start_promotion(self, partition: Partition) -> MergeProcess:
        assert partition.c1 is not None
        c2_bytes = partition.c2.nbytes if partition.c2 is not None else 0
        c2_keys = partition.c2.key_count if partition.c2 is not None else 0
        partition.m12 = MergeProcess(
            self.stasis,
            newer=partition.c1,
            older=partition.c2,
            tree_id=self._take_tree_id(),
            input_bytes=partition.c1.nbytes + c2_bytes,
            expected_keys=partition.c1.key_count + c2_keys,
            drop_tombstones=True,
            with_bloom=self.options.with_bloom_filters,
            split_output_bytes=self.max_partition_bytes,
            tree_id_source=self._take_tree_id,
            compression_ratio=self.options.compression_ratio,
        )
        return partition.m12

    def _finish_m01(self) -> None:
        partition, process = self._m01_partition, self._m01
        assert partition is not None and process is not None
        self._m01 = self._m01_partition = None
        self._merge_finished(
            self._m01_gear,
            process,
            sum(t.nbytes for t in process.outputs),
            partition=partition.lo.hex(),
        )
        if process is partition.m01:
            old_c1 = partition.c1
            partition.m01 = None
            partition.merge_rounds += 1
            run_bytes = process.newer_bytes_read
            if process.output is not None or not process.outputs:
                # Ordinary (non-splitting) pass: the output is the new C1.
                partition.c1 = process.output
                partition.last_run_bytes = run_bytes
                self._publish()
                self._maybe_persist_bloom(partition.c1)
            else:
                # Bottom-level pass: outputs land as C2 of (possibly
                # several) partitions, splitting an oversized range.
                partition.c1 = None
                self._install_split_outputs(
                    partition, process.outputs, run_bytes
                )
                self._publish()
                for table in process.outputs:
                    self._maybe_persist_bloom(table)
            self.stasis.commit_manifest(self._manifest())
            self.versions.retire(old_c1)
            self._retain_log(self._memtable)
        else:
            assert process is partition.m12
            old_c1, old_c2 = partition.c1, partition.c2
            outputs = process.outputs
            partition.m12 = None
            partition.merge_rounds = 0
            partition.c1 = None
            self._install_split_outputs(
                partition, outputs, partition.last_run_bytes
            )
            self._publish()
            for table in outputs:
                self._maybe_persist_bloom(table)
            self.stasis.commit_manifest(self._manifest())
            # C1ᵖ:C2ᵖ merges are rare per partition: checkpoint the WAL
            # so manifest replay stays bounded.
            self.stasis.checkpoint_wal()
            self.versions.retire(old_c1)
            self.versions.retire(old_c2)

    def _install_split_outputs(
        self,
        partition: Partition,
        outputs: list[SSTable],
        run_bytes: int,
    ) -> None:
        """Replace a partition with one partition per output component.

        A single output refreshes the partition's C2 in place; several
        split it, with boundaries at each output's first key.  The
        partition's observed C0 share is divided among the children.
        """
        index = self._partitions.index(partition)
        if not outputs:
            partition.c2 = None
            return
        share = max(1, run_bytes // len(outputs))
        replacements: list[Partition] = []
        for i, table in enumerate(outputs):
            lo = partition.lo if i == 0 else outputs[i].min_key
            hi = (
                partition.hi
                if i == len(outputs) - 1
                else outputs[i + 1].min_key
            )
            assert lo is not None
            replacements.append(
                Partition(lo=lo, hi=hi, c2=table, last_run_bytes=share)
            )
        self._partitions[index : index + 1] = replacements

    def _range_size(self, partition: Partition) -> tuple[int, int]:
        """``(bytes, keys)`` of C0 that fall in the partition's range."""
        nbytes = keys = 0
        for record in self._memtable.scan(partition.lo, partition.hi):
            nbytes += record.nbytes
            keys += 1
        return nbytes, keys

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Push all of C0 into the partitions' stacks."""
        self._check_open()
        while not self._memtable.is_empty or self._m01 is not None:
            if self.step_m01(1 << 30) == 0 and not self._wait_for_background():
                break

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    def partition_ranges(self) -> list[tuple[bytes, bytes | None]]:
        """The current partition boundaries, in key order."""
        return [(p.lo, p.hi) for p in self._partitions]

    def components_in_range(self, lo: bytes, hi: bytes | None) -> int:
        """On-disk components a scan of ``[lo, hi)`` must consult."""
        count = 0
        start = self._partition_index(lo)
        for partition in self._partitions[start:]:
            if hi is not None and partition.lo >= hi:
                break
            count += sum(
                1 for c in (partition.c1, partition.c2) if c is not None
            )
        return count

    def stats(self) -> dict[str, Any]:
        summary = self.stasis.io_summary()
        summary["partitions"] = len(self._partitions)
        summary["c0"] = self._memtable.nbytes
        summary["disk_bytes"] = sum(p.disk_bytes for p in self._partitions)
        summary["clock_seconds"] = self.stasis.clock.now
        return summary

    def __repr__(self) -> str:
        return (
            f"PartitionedBLSM(partitions={len(self._partitions)}, "
            f"c0={self._memtable.nbytes}, "
            f"disk={sum(p.disk_bytes for p in self._partitions)}, "
            f"t={self.stasis.clock.now:.3f}s)"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _partition_index(self, key: bytes) -> int:
        return max(0, bisect.bisect_right(self._partitions, key, key=_LO) - 1)

    def _partition_for(self, key: bytes) -> Partition:
        partition = self._partitions[self._partition_index(key)]
        assert partition.covers(key)
        return partition

    def _manifest(self) -> dict[str, Any]:
        return {
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
            "partitions": tuple(
                {
                    "lo": p.lo,
                    "hi": p.hi,
                    "c1": describe_component(p.c1),
                    "c2": describe_component(p.c2),
                }
                for p in self._partitions
            ),
        }

    def _restore_layout(self, manifest: dict[str, Any]) -> None:
        self._partitions = [
            Partition(
                lo=desc["lo"],
                hi=desc["hi"],
                c1=self._rebuild_component(desc["c1"]),
                c2=self._rebuild_component(desc["c2"]),
            )
            for desc in manifest["partitions"]
        ]
        self._publish()

    def _live_tables(self) -> Iterable[SSTable]:
        return [
            component
            for partition in self._partitions
            for component in (partition.c1, partition.c2)
            if component is not None
        ]

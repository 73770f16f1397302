"""Partitioned bLSM (Sections 2.3.2, 3.3, 4.2.2 — the paper's next step).

"Partitioning is the best way to allow LSM-Trees to leverage write skew:
breaking the LSM-Tree into smaller trees and merging the trees according
to their update rates concentrates merge activity on frequently updated
key ranges" (Section 2.3.2).  The paper's prototype defers this ("we
have not yet implemented partitioning"); this module implements it on
top of the same substrate, composed with the spring scheduler exactly as
Section 4.3 envisions.

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
* The **spring** applies as before: merges pause below the low water
  mark and writes feel proportional backpressure as C0 fills; only one
  merge runs at a time (the device is serial).
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
from typing import Any, Callable, Iterator

from repro.core.components import (
    component_extents,
    describe_component,
    rebuild_component,
)
from repro.core.merge import MergeProcess, RangeSnowshovelSource
from repro.core.options import BLSMOptions
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record, resolve
from repro.sim.clock import Timeline
from repro.sstable.iterator import kway_merge
from repro.sstable.reader import SSTable
from repro.storage.stasis import Stasis

_OP_PUT = "put"
_OP_DELETE = "delete"
_OP_DELTA = "delta"


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


class PartitionedBLSM:
    """A range-partitioned bLSM tree with greedy merge selection."""

    def __init__(
        self,
        options: BLSMOptions | None = None,
        stasis: Stasis | None = None,
        max_partition_bytes: int | None = None,
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
        self.max_partition_bytes = (
            max_partition_bytes
            if max_partition_bytes is not None
            else 4 * opts.c0_bytes
        )
        self._memtable = MemTable(
            opts.c0_bytes, seed=opts.seed, kind=opts.memtable
        )
        self._partitions: list[Partition] = [Partition(lo=b"", hi=None)]
        self._next_seqno = 0
        self._next_tree_id = 1
        self._merge_epoch = 0
        self._closed = False
        # One merge runs at a time (the greedy selector serializes them),
        # so one background timeline models the merge worker.
        self._bg: Timeline | None = (
            Timeline("merge-worker") if opts.background_merges else None
        )
        self._init_obs()
        self.stasis.commit_manifest(self._manifest())

    def _init_obs(self) -> None:
        """Bind this tree's instrumentation to the runtime's registry."""
        self.runtime = self.stasis.runtime
        metrics = self.runtime.metrics
        self._gauge_fill = metrics.gauge("memtable.fill")
        self._gauge_pressure = metrics.gauge("scheduler.pressure")
        self._ctr_memtable_full = metrics.counter("memtable.full_events")
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

    # ------------------------------------------------------------------
    # Write API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._write(Record.base(key, value, self._take_seqno()), _OP_PUT)

    def delete(self, key: bytes) -> None:
        self._write(Record.tombstone(key, self._take_seqno()), _OP_DELETE)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        self._write(Record.delta(key, delta, self._take_seqno()), _OP_DELTA)

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    def read_modify_write(
        self, key: bytes, update: Callable[[bytes | None], bytes]
    ) -> bytes:
        new_value = update(self.get(key))
        self.put(key, new_value)
        return new_value

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        versions: list[Record] = []
        if self._collect(self._memtable.get(key), versions):
            return resolve(versions)
        partition = self._partition_for(key)
        if partition.m01 is not None and self._collect(
            partition.m01.overlay_get(key), versions
        ):
            return resolve(versions)
        for component in (partition.c1, partition.c2):
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
            # Section 5.6's repair, as in BLSM.get: logged, so exact log
            # retention keeps the writes it subsumes reconstructible.
            self._write(Record.base(key, value, self._take_seqno()), _OP_PUT)
        return value

    def scan(
        self,
        lo: bytes,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan: two seeks per crossed partition (Section 3.3).

        Partitions are opened lazily, one range at a time, so a short
        scan touches only the components of the partition it lands in —
        the two-seek property partitioning exists to provide.  Scans
        are epoch-validated like :meth:`BLSM.scan`: a merge committing
        while the caller holds a paused scan triggers a transparent
        restart from the scan cursor against the current components.
        """
        self._check_open()
        cursor = lo
        emitted = 0
        while True:
            if hi is not None and cursor >= hi:
                return
            epoch = self._merge_epoch
            partition = self._partitions[self._partition_index(cursor)]
            bound = partition.hi
            if hi is not None and (bound is None or hi < bound):
                bound = hi
            restart = False
            remaining = None if limit is None else limit - emitted
            for group in kway_merge(
                self._partition_sources(partition, cursor, bound, remaining)
            ):
                value = resolve(group)
                if value is None:
                    continue
                yield group[0].key, value
                cursor = group[0].key + b"\x00"
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
                if self._merge_epoch != epoch:
                    restart = True
                    break
            if restart:
                continue  # re-resolve the partition from the cursor
            if partition.hi is None:
                return  # the last partition is exhausted
            cursor = max(cursor, partition.hi)

    def _partition_sources(
        self,
        partition: Partition,
        lo: bytes,
        hi: bytes | None,
        limit: int | None,
    ) -> list[Iterator[Record]]:
        sources: list[Iterator[Record]] = [self._memtable.scan(lo, hi)]
        if partition.m01 is not None:
            sources.append(partition.m01.overlay_scan(lo, hi))
        for component in (partition.c1, partition.c2):
            if component is not None:
                sources.append(component.scan(lo, hi, limit=limit))
        return sources

    # ------------------------------------------------------------------
    # Scheduler (spring + greedy partition selection)
    # ------------------------------------------------------------------

    def _write(self, record: Record, op: str) -> None:
        self._check_open()
        value = record.value if op != _OP_DELETE else None
        self.stasis.logical_log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        self._on_write(record.nbytes)

    def _on_write(self, nbytes: int) -> None:
        opts = self.options
        fill = self._memtable.fill_fraction
        self._gauge_fill.set(fill)
        if fill <= opts.low_water:
            self._gauge_pressure.set(0.0)
            return
        pressure = min(
            1.0, (fill - opts.low_water) / (opts.high_water - opts.low_water)
        )
        self._gauge_pressure.set(pressure)
        amplification = self._write_amplification_estimate()
        budget = min(
            opts.max_tick_bytes, int(2.0 * pressure * amplification * nbytes) + 1
        )
        self.merge_step(budget)
        if self._memtable.fill_fraction >= 1.0:
            self._ctr_memtable_full.inc()
            self.runtime.trace.emit(
                "memtable_full",
                fill=self._memtable.fill_fraction,
                c0_bytes=self._memtable.nbytes,
            )
            started = self.stasis.clock.now
            with self.runtime.trace.span("stall", cause="merge_backpressure"):
                while self._memtable.fill_fraction > opts.high_water:
                    if self.merge_step(opts.max_tick_bytes):
                        continue
                    if self._wait_for_background():
                        continue  # wait for the busy merge worker
                    break
            self._ctr_stalls.inc()
            self._hist_stall.observe(self.stasis.clock.now - started)

    def merge_step(self, budget_bytes: int) -> int:
        """Advance the active merge, starting the best one when idle.

        With background merges, work is dispatched to the merge worker's
        timeline; while the worker is still servicing previously
        dispatched I/O, nothing is dispatched and 0 is returned.
        """
        if budget_bytes <= 0:
            return 0
        timeline = self._bg
        if timeline is not None and timeline.busy(self.stasis.clock):
            return 0
        active = self._active_merge()
        if active is None:
            active = self._start_best_merge()
        if active is None:
            return 0
        partition, process = active
        level = "c1c2" if process is partition.m12 else "c0c1"
        if timeline is None:
            started = self.stasis.clock.now
            worked = process.step(budget_bytes)
            seconds = self.stasis.clock.now - started
        else:
            timeline.catch_up(self.stasis.clock)
            started = timeline.now
            with self.stasis.clock.running_on(timeline):
                worked = process.step(budget_bytes)
                if process.done:
                    self._finish_merge(partition, process)
            seconds = timeline.now - started
        if worked:
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
                    inprogress=process.inprogress,
                    reads=process.read_calls,
                    seeks=process.seeks,
                    writes=process.write_calls,
                    write_seeks=process.write_seeks,
                )
        if timeline is None and process.done:
            self._finish_merge(partition, process)
        return worked

    def _wait_for_background(self) -> bool:
        """Advance the clock to the merge worker's completion, if busy."""
        timeline = self._bg
        if timeline is None or not timeline.busy(self.stasis.clock):
            return False
        self.stasis.clock.advance_to(timeline.now)
        return True

    def _active_merge(self) -> tuple[Partition, MergeProcess] | None:
        for partition in self._partitions:
            if partition.m12 is not None:
                return partition, partition.m12
            if partition.m01 is not None:
                return partition, partition.m01
        return None

    def _start_best_merge(self) -> tuple[Partition, MergeProcess] | None:
        """Figure 3's greedy policy: free the most C0 per byte of I/O.

        Promotions (C1ᵖ:C2ᵖ merges) take priority for partitions whose
        C1 has grown past its share, to keep per-partition stacks at two
        components.
        """
        overdue = self._most_overdue_promotion()
        if overdue is not None:
            return overdue, self._start_m12(overdue)
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
        if best is None:
            return None
        return best, self._start_m01(best)

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
        ratio = math.sqrt(max(1.0, data / self.options.c0_bytes))
        return min(self.options.max_r, max(self.options.min_r, ratio))

    def _write_amplification_estimate(self) -> float:
        """Per-byte merge I/O under the greedy policy.

        Partitioning caps each merge's inputs at one partition's stack,
        so the estimate uses the *average* partition rather than the
        whole tree.
        """
        share = max(1.0, self._c0_share())
        average_c1 = sum(
            p.c1.nbytes if p.c1 is not None else 0 for p in self._partitions
        ) / max(1, len(self._partitions))
        amp01 = 2.0 * (share + average_c1) / share
        average_c2 = sum(
            p.c2.nbytes if p.c2 is not None else 0 for p in self._partitions
        ) / max(1, len(self._partitions))
        promo = max(1.0, self._target_r() * share)
        amp12 = 2.0 * (promo + average_c2) / promo
        return amp01 + amp12

    # ------------------------------------------------------------------
    # Merge lifecycle
    # ------------------------------------------------------------------

    def _start_m01(self, partition: Partition) -> MergeProcess:
        source = RangeSnowshovelSource(
            self._memtable, partition.lo, partition.hi
        )
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
        # Paused scans must restart to pick up the merge overlay (the
        # range snowshovel moves live memtable records into it).
        self._merge_epoch += 1
        partition.m01 = MergeProcess(
            self.stasis,
            newer=source,
            older=partition.c1,
            tree_id=self._take_tree_id(),
            input_bytes=c0_bytes + c1_bytes,
            expected_keys=len(self._memtable) + c1_keys,
            drop_tombstones=bottom,
            with_bloom=self.options.with_bloom_filters,
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            split_output_bytes=self.max_partition_bytes if bottom else None,
            tree_id_source=self._take_tree_id if bottom else None,
            compression_ratio=self.options.compression_ratio,
            bloom_keys=run_keys + c1_keys,
        )
        self._merge_obs["c0c1"][0].inc()
        self.runtime.trace.emit(
            "merge_start",
            level="c0c1",
            input_bytes=partition.m01.input_bytes,
            partition=partition.lo.hex(),
        )
        return partition.m01

    def _start_m12(self, partition: Partition) -> MergeProcess:
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
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            split_output_bytes=self.max_partition_bytes,
            tree_id_source=self._take_tree_id,
            compression_ratio=self.options.compression_ratio,
        )
        self._merge_obs["c1c2"][0].inc()
        self.runtime.trace.emit(
            "merge_start",
            level="c1c2",
            input_bytes=partition.m12.input_bytes,
            partition=partition.lo.hex(),
        )
        return partition.m12

    def _finish_merge(self, partition: Partition, process: MergeProcess) -> None:
        self._merge_epoch += 1  # paused scans must re-resolve components
        self.runtime.trace.emit(
            "merge_finish",
            level="c0c1" if process is partition.m01 else "c1c2",
            output_bytes=sum(t.nbytes for t in process.outputs),
            partition=partition.lo.hex(),
            reads=process.read_calls,
            seeks=process.seeks,
            writes=process.write_calls,
            write_seeks=process.write_seeks,
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
                self._maybe_persist_bloom(partition.c1)
            else:
                # Bottom-level pass: outputs land as C2 of (possibly
                # several) partitions, splitting an oversized range.
                partition.c1 = None
                for table in process.outputs:
                    self._maybe_persist_bloom(table)
                self._install_split_outputs(
                    partition, process.outputs, run_bytes
                )
            self.stasis.commit_manifest(self._manifest())
            if old_c1 is not None:
                old_c1.free()
            self._truncate_logical_log()
        else:
            assert process is partition.m12
            old_c1, old_c2 = partition.c1, partition.c2
            outputs = process.outputs
            partition.m12 = None
            partition.merge_rounds = 0
            partition.c1 = None
            for table in outputs:
                self._maybe_persist_bloom(table)
            self._install_split_outputs(
                partition, outputs, partition.last_run_bytes
            )
            self.stasis.commit_manifest(self._manifest())
            # C1ᵖ:C2ᵖ merges are rare per partition: checkpoint the WAL
            # so manifest replay stays bounded.
            self.stasis.checkpoint_wal()
            if old_c1 is not None:
                old_c1.free()
            if old_c2 is not None:
                old_c2.free()

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
        for record in self._memtable.iter_from(partition.lo):
            if partition.hi is not None and record.key >= partition.hi:
                break
            nbytes += record.nbytes
            keys += 1
        return nbytes, keys

    def _truncate_logical_log(self) -> None:
        """Exact log retention (see :meth:`BLSM._truncate_logical_log`)."""
        coverage = {
            record.key: (record.coverage_start, record.seqno)
            for record in self._memtable
        }
        self.stasis.logical_log.retain_ranges(coverage)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Push all of C0 into the partitions' stacks."""
        self._check_open()
        while not self._memtable.is_empty or self._active_merge() is not None:
            if self.merge_step(1 << 30) == 0 and not self._wait_for_background():
                break

    def flush_log(self) -> None:
        self.stasis.logical_log.force()

    def close(self) -> None:
        if self._closed:
            return
        self.flush_log()
        self.stasis.wal.force()
        self._closed = True

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    @property
    def c0_fill_fraction(self) -> float:
        return self._memtable.fill_fraction

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

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        stasis: Stasis,
        options: BLSMOptions | None = None,
        max_partition_bytes: int | None = None,
    ) -> "PartitionedBLSM":
        """Rebuild from the newest committed manifest plus log replay."""
        tree = cls.__new__(cls)
        tree.options = options if options is not None else BLSMOptions()
        tree.stasis = stasis
        tree.max_partition_bytes = (
            max_partition_bytes
            if max_partition_bytes is not None
            else 4 * tree.options.c0_bytes
        )
        tree._memtable = MemTable(
            tree.options.c0_bytes,
            seed=tree.options.seed,
            kind=tree.options.memtable,
        )
        tree._merge_epoch = 0
        tree._closed = False
        tree._bg = (
            Timeline("merge-worker")
            if tree.options.background_merges
            else None
        )
        tree._init_obs()
        manifest = stasis.recover_manifest()
        tree._next_seqno = manifest["next_seqno"]
        tree._next_tree_id = manifest["next_tree_id"]
        tree._partitions = [
            Partition(
                lo=desc["lo"],
                hi=desc["hi"],
                c1=tree._rebuild_component(desc["c1"]),
                c2=tree._rebuild_component(desc["c2"]),
            )
            for desc in manifest["partitions"]
        ]
        tree._free_orphan_extents()
        for record in stasis.logical_log.replay():
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
        return tree

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

    @staticmethod
    def _collect(record: Record | None, versions: list[Record]) -> bool:
        if record is None:
            return False
        versions.append(record)
        return not record.is_delta

    def _partition_index(self, key: bytes) -> int:
        los = [partition.lo for partition in self._partitions]
        return max(0, bisect.bisect_right(los, key) - 1)

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
                    "c1": self._describe(p.c1),
                    "c2": self._describe(p.c2),
                }
                for p in self._partitions
            ),
        }

    def _maybe_persist_bloom(self, component: SSTable | None) -> None:
        if component is not None and self.options.persist_bloom_filters:
            from repro.sstable.bloom_store import persist_bloom

            persist_bloom(self.stasis, component)

    def _describe(self, component: SSTable | None) -> dict[str, Any] | None:
        return describe_component(component)

    def _rebuild_component(self, desc: dict[str, Any] | None) -> SSTable | None:
        return rebuild_component(self.stasis, desc, self.options)

    def _free_orphan_extents(self) -> None:
        live = set()
        for partition in self._partitions:
            for component in (partition.c1, partition.c2):
                live.update(component_extents(describe_component(component)))
        for extent in self.stasis.regions.allocated_extents:
            if extent not in live:
                for page_id in range(extent.start, extent.end):
                    self.stasis.pagefile.free_page(page_id)
                self.stasis.regions.free(extent)

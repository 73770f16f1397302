"""The Stasis facade: one object owning the whole storage stack.

Engines construct a :class:`Stasis` and get a shared virtual clock, a data
device with a page file, buffer manager and region allocator, and two logs
on a dedicated log device (physical WAL for the tree manifest, logical log
for individual writes) — the architecture of Section 4.4.2.

A *manifest* is the engine's durable root metadata (which tree components
exist, their extents, key counts and timestamps).  ``commit_manifest``
makes a new manifest durable atomically: it appends one WAL record and
forces the WAL, mirroring how "Stasis ensures each tree merge runs in its
own atomic and durable transaction".

Fault injection: pass a :class:`~repro.faults.plan.FaultPlan` and both
devices become :class:`~repro.faults.disk.FaultyDisk` instances sharing
the plan (so access indices count globally across data and log I/O — the
crash-point harness enumerates one boundary sequence).  A
:class:`~repro.faults.retry.RetryPolicy` (defaulted when a plan is
present) is bound to the clock as a
:class:`~repro.faults.retry.RetryExecutor` and threaded through the page
file and both logs' force paths, which transitively hardens the buffer
manager and merge I/O.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import RecoveryError
from repro.faults.disk import FaultyDisk
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryExecutor, RetryPolicy
from repro.obs.runtime import EngineRuntime
from repro.sim.clock import VirtualClock
from repro.sim.disk import DiskModel, SimDisk, StripedDisk
from repro.sim.stats import IOStats
from repro.storage.buffer import BufferManager, EvictionPolicy
from repro.storage.group_commit import GroupCommitQueue
from repro.storage.logical_log import DurabilityMode, LogicalLog
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, PageFile
from repro.storage.region import RegionAllocator
from repro.storage.wal import WriteAheadLog

_MANIFEST_KIND = "manifest"

WRITE_BEHIND_PAGES = 64
"""Floor of :attr:`Stasis.streaming_pages`, the one sequential unit.

Readers and writers both move ``streaming_pages`` per access; on a device
whose positioning is cheap (the SSD model) the derived unit would fall
below this many pages, and this floor applies instead.
"""

WAIT: Any = object()
"""What a gated merge input yields instead of a record while the step's
one data-device access is spent (see :class:`StepGate`)."""


class StepGate:
    """One data-device access per merge step.

    A merge step calls :meth:`open` on entry.  The step's sequential
    readers and its builder ask :attr:`clear` before each streaming
    access: the first goes through (and moves the device's counters, so
    the gate closes by itself), a later one is put off to the next step —
    an input stream yields :data:`WAIT` instead of reading its next run,
    the builder keeps buffering.  One step therefore never stacks two
    streaming units of device time on whoever runs it, and it loses no
    budget to the access it did make.
    """

    __slots__ = ("_stats", "_mark")

    def __init__(self, stats: IOStats) -> None:
        self._stats = stats
        self._mark = -1

    def open(self) -> None:
        self._mark = self._stats.read_ops + self._stats.write_ops

    @property
    def clear(self) -> bool:
        """Whether the device is untouched since :meth:`open`."""
        return self._stats.read_ops + self._stats.write_ops == self._mark


class Stasis:
    """Transactional storage substrate over simulated devices."""

    def __init__(
        self,
        disk_model: DiskModel | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool_pages: int = 1024,
        eviction_policy: EvictionPolicy = EvictionPolicy.CLOCK,
        durability: DurabilityMode = DurabilityMode.ASYNC,
        clock: VirtualClock | None = None,
        runtime: EngineRuntime | None = None,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        capacity_bytes: int | None = None,
        log_disk_model: DiskModel | None = None,
        data_stripes: int = 1,
        stripe_chunk_bytes: int = 512 * 1024,
        observability: bool = True,
    ) -> None:
        model = disk_model if disk_model is not None else DiskModel.hdd()
        log_model = log_disk_model if log_disk_model is not None else model
        if data_stripes < 1:
            raise ValueError(f"data_stripes must be >= 1, got {data_stripes}")
        if runtime is None:
            runtime = EngineRuntime(clock=clock, observability=observability)
        elif clock is not None and runtime.clock is not clock:
            raise ValueError("runtime and clock arguments disagree")
        self.runtime = runtime
        self.clock = runtime.clock
        self.fault_plan = fault_plan
        if fault_plan is not None:
            if data_stripes > 1:
                raise ValueError(
                    "fault injection is not supported on a striped data "
                    "device (the crash-point harness needs one serial "
                    "access sequence)"
                )
            self.data_disk: SimDisk = FaultyDisk(
                model,
                self.clock,
                name=f"{model.name}-data",
                runtime=runtime,
                capacity_bytes=capacity_bytes,
                plan=fault_plan,
            )
            self.log_disk: SimDisk = FaultyDisk(
                model,
                self.clock,
                name=f"{log_model.name}-log",
                runtime=runtime,
                plan=fault_plan,
            )
            if retry is None:
                retry = RetryPolicy()
        elif data_stripes > 1:
            self.data_disk = StripedDisk(
                model,
                self.clock,
                stripes=data_stripes,
                chunk_bytes=stripe_chunk_bytes,
                name=f"{model.name}-data",
                runtime=runtime,
                capacity_bytes=capacity_bytes,
            )
            self.log_disk = SimDisk(
                log_model, self.clock, name=f"{log_model.name}-log", runtime=runtime
            )
        else:
            self.data_disk = SimDisk(
                model,
                self.clock,
                name=f"{model.name}-data",
                runtime=runtime,
                capacity_bytes=capacity_bytes,
            )
            self.log_disk = SimDisk(
                log_model, self.clock, name=f"{log_model.name}-log", runtime=runtime
            )
        self.retry_policy = retry
        self.retry = (
            RetryExecutor(retry, self.clock, runtime=runtime)
            if retry is not None
            else None
        )
        self.pagefile = PageFile(self.data_disk, page_size, retry=self.retry)
        self.streaming_pages = max(
            WRITE_BEHIND_PAGES,
            math.ceil(self.data_disk.streaming_read_bytes / page_size),
        )
        """Pages per access of every sequential reader and writer (merge
        inputs, recovery scans, the component builder's write-behind):
        the data device's streaming unit, floored at
        ``WRITE_BEHIND_PAGES``."""
        self.buffer = BufferManager(
            self.pagefile, buffer_pool_pages, eviction_policy, runtime=runtime
        )
        self.regions = RegionAllocator()
        self.wal = WriteAheadLog(self.log_disk, retry=self.retry)
        self.logical_log = LogicalLog(self.log_disk, durability, retry=self.retry)
        self.group_commit = GroupCommitQueue(self)
        self._committed_manifest: Any = None

    @classmethod
    def from_options(cls, options: Any) -> "Stasis":
        """The substrate a tree's :class:`~repro.core.options.BLSMOptions`
        describe (devices, pool, durability, faults, observability)."""
        return cls(
            disk_model=options.disk_model,
            page_size=options.page_size,
            buffer_pool_pages=options.buffer_pool_pages,
            eviction_policy=options.eviction_policy,
            durability=options.durability,
            fault_plan=options.fault_plan,
            retry=options.retry,
            capacity_bytes=options.capacity_bytes,
            log_disk_model=options.log_disk_model,
            data_stripes=options.data_stripes,
            stripe_chunk_bytes=options.stripe_chunk_bytes,
            observability=options.observability,
        )

    @property
    def page_size(self) -> int:
        return self.pagefile.page_size

    def commit_manifest(self, manifest: Any) -> None:
        """Durably install a new manifest (one forced WAL record)."""
        self.wal.append(_MANIFEST_KIND, manifest)
        self.wal.force()
        self._committed_manifest = manifest

    def recover_manifest(self) -> Any:
        """Return the newest durable manifest, replaying the WAL.

        Raises:
            RecoveryError: if no manifest was ever committed.
        """
        manifest = None
        for record in self.wal.records():
            if record.kind == _MANIFEST_KIND:
                manifest = record.payload
        if manifest is None:
            raise RecoveryError("no committed manifest found in the WAL")
        return manifest

    def checkpoint_wal(self) -> None:
        """Truncate the WAL to only the newest manifest record."""
        if self._committed_manifest is None:
            return
        keep_lsn = self.wal.append(_MANIFEST_KIND, self._committed_manifest)
        self.wal.force()
        self.wal.truncate(keep_lsn)

    def crash(self) -> None:
        """Simulate a crash: volatile state is lost, durable state kept.

        Drops the buffer pool (dirty pages included) and un-forced log
        tails.  The page file and forced log records survive.
        """
        self.buffer.drop_all()
        self.wal.crash()
        self.logical_log.crash()
        self.group_commit.crash()

    def io_summary(self) -> dict[str, Any]:
        """Combined device counters, for benchmark reporting.

        Values come from each device's :class:`~repro.sim.stats.IOStats`,
        which is kept whether or not ``observability`` is on (the
        metrics registry's ``disk.*`` counters are not).
        """
        data = self.data_disk.stats
        log = self.log_disk.stats
        # Background work can be queued beyond the foreground clock; the
        # observation window ends at the furthest device horizon.
        elapsed = max(
            self.clock.now, self.data_disk.busy_until, self.log_disk.busy_until
        )
        busy = data.busy_seconds + log.busy_seconds
        bg_busy = data.bg_busy_seconds + log.bg_busy_seconds
        return {
            "data_seeks": data.seeks,
            "data_bytes_read": data.bytes_read,
            "data_bytes_written": data.bytes_written,
            "log_bytes_written": log.bytes_written,
            "busy_seconds": busy,
            "fg_busy_seconds": busy - bg_busy,
            "bg_busy_seconds": bg_busy,
            "fg_wait_seconds": data.fg_wait_seconds + log.fg_wait_seconds,
            "data_utilization": (
                data.busy_seconds / elapsed if elapsed > 0 else 0.0
            ),
            "log_utilization": (
                log.busy_seconds / elapsed if elapsed > 0 else 0.0
            ),
            "data_sequential_efficiency": data.sequential_efficiency,
            "log_sequential_efficiency": log.sequential_efficiency,
            "buffer_hit_rate": self.buffer.hit_rate,
            "buffer_offered": self.buffer.offered,
            "buffer_deferred": self.buffer.deferred,
        }

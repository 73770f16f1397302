"""The Stasis facade: one object owning the whole storage stack.

Engines construct a :class:`Stasis` and get a shared virtual clock, a data
device with a page file, buffer manager and region allocator, and two logs
on a dedicated log device (physical WAL for the tree manifest, logical log
for individual writes) — the architecture of Section 4.4.2 — as two
record streams of one :class:`~repro.storage.logfile.LogFile`.

A *manifest* is the engine's durable root metadata (which tree components
exist, their extents, key counts and timestamps).  ``commit_manifest``
makes a new manifest durable atomically: it appends one WAL record and
forces the log file, mirroring how "Stasis ensures each tree merge runs
in its own atomic and durable transaction"; the force writes the
logical records staged ahead of it too (the write-ahead rule).

The record is a *version edit* (LevelDB's VersionEdit → MANIFEST): the
manifest with every component the previous committed manifest already
described replaced by its tree id, so a commit logs the scalars, the
new components in full and the rest by name.  Components are the dicts
of the manifest that carry a ``"tree_id"``; the layouts build nothing
else for the log.  A *base* is a full manifest: the first commit writes
one, so does a commit whose edit names no earlier component, and once
the edits logged since the last base reach that base's own size, the
commit forces the full manifest after its edit and truncates the WAL
below it.  Recovery folds the edits, in LSN order, over the newest
base.

Fault injection: pass a :class:`~repro.faults.plan.FaultPlan` and both
devices become :class:`~repro.faults.disk.FaultyDisk` instances sharing
the plan (so access indices count globally across data and log I/O — the
crash-point harness enumerates one boundary sequence).  A
:class:`~repro.faults.retry.RetryPolicy` (defaulted when a plan is
present) is bound to the clock as a
:class:`~repro.faults.retry.RetryExecutor` and threaded through the page
file and the log file's force path, which transitively hardens the buffer
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
from repro.storage.region import Extent, RegionAllocator
from repro.storage.wal import WriteAheadLog, record_bytes

_BASE_KIND = "manifest"
_EDIT_KIND = "edit"


class _Named:
    """An edit's entry for a component the previous manifest described."""

    __slots__ = ("tree_id",)

    def __init__(self, tree_id: int) -> None:
        self.tree_id = tree_id

    def __repr__(self) -> str:
        return f"#{self.tree_id}"


class ManifestEntry(dict):
    """One component's manifest entry, rendered once.

    An entry is never changed after it is made (a component that
    changes gets a new one), so its ``repr`` — what sizes every WAL
    record naming it (:func:`~repro.storage.wal.record_bytes`) — is
    the plain dict's text, kept from the first time it is asked for.
    """

    __slots__ = ("_text",)

    def __repr__(self) -> str:
        try:
            return self._text
        except AttributeError:
            self._text: str = dict.__repr__(self)
            return self._text


def _map_components(node: Any, fn: Any) -> Any:
    """``node`` rebuilt with ``fn`` applied to every component in it (a
    descriptor dict with a ``"tree_id"``, or an edit's :class:`_Named`)."""
    cls = type(node)
    if cls is ManifestEntry:
        return fn(node)
    if cls is dict:
        if "tree_id" in node:
            return fn(node)
        return {key: _map_components(value, fn) for key, value in node.items()}
    if cls is tuple:
        return tuple(_map_components(value, fn) for value in node)
    if cls is _Named:
        return fn(node)
    return node

WRITE_BEHIND_PAGES = 64
"""Floor of :attr:`Stasis.streaming_pages`, the one sequential unit.

Readers and writers both move ``streaming_pages`` per access; on a device
whose positioning is cheap (the SSD model) the derived unit would fall
below this many pages, and this floor applies instead.
"""

WAIT: Any = object()
"""What a merge input's next run is while the step's one data-device
access is spent (see :class:`StepGate`): it is read by a later step."""


class StepGate:
    """One data-device access per merge step.

    A merge step opens the gate on entry: it sets :attr:`mark` to the
    device's access count (reads plus writes).  The step's input reads
    and its builder ask :attr:`clear` before each streaming access: the
    first goes through (and moves the device's counters, so the gate
    closes by itself), a later one is put off to the next step — an
    input's next run waits (:data:`WAIT`), the builder keeps buffering.  One step
    therefore never stacks two streaming units of device time on whoever
    runs it, and it loses no budget to the access it did make.

    A clear gate also keeps the device's counters as they stood before
    the step's first access (:attr:`before`: reads, writes, seeks, write
    seeks), so a step that touched the device can book what it did
    without reading them when it does not.
    """

    __slots__ = ("_stats", "mark", "before")

    def __init__(self, stats: IOStats) -> None:
        self._stats = stats
        self.mark = -1
        self.before = (0, 0, 0, 0)

    def keep(self) -> bool:
        """Whether the device is untouched since the gate opened; if it
        is, its counters now become :attr:`before` (an access may come:
        one the gate lets through, or an output's closing flush, which
        it does not govern)."""
        stats = self._stats
        if stats.read_ops + stats.write_ops != self.mark:
            return False
        self.before = (
            stats.read_ops, stats.write_ops, stats.seeks, stats.write_seeks
        )
        return True

    clear = property(
        keep, doc="Whether the device is untouched since the gate opened."
    )


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
        log_disk_model: DiskModel | None = None,
        data_stripes: int = 1,
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
                name=f"{model.name}-data",
                runtime=runtime,
            )
            self.log_disk = SimDisk(
                log_model, self.clock, name=f"{log_model.name}-log", runtime=runtime
            )
        else:
            self.data_disk = SimDisk(
                model, self.clock, name=f"{model.name}-data", runtime=runtime
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
        self.logical_log = LogicalLog(self.log_disk, durability, retry=self.retry)
        self.wal = WriteAheadLog(self.logical_log.file)  # one file, one tail
        self.group_commit = GroupCommitQueue(self)
        # The manifest log's state: each component of the last committed
        # manifest by tree id, the newest base's size and the edit bytes
        # logged since it.
        self._named: dict[int, dict[str, Any]] = {}
        self._base_bytes = 0
        self._edit_bytes = 0
        # When the last commit run behind on the log writer is done, and
        # the extents released since, each held until that time.
        self._commit_done = 0.0
        self._held: list[tuple[Extent, float]] = []

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
            log_disk_model=options.log_disk_model,
            data_stripes=options.data_stripes,
            observability=options.observability,
        )

    @property
    def page_size(self) -> int:
        return self.pagefile.page_size

    def commit_manifest(self, manifest: Any) -> None:
        """Durably install a new manifest: one forced WAL record, its
        version edit (or a base; see the module docstring).

        Where the logical log writes it behind
        (:meth:`LogicalLog.bookkeeping`), the commit runs on the log
        writer, so its caller pays no log-device time; the components
        it drops are released while it may still be in flight
        (:meth:`release`).
        """
        with self.logical_log.bookkeeping() as writer:
            self._commit(manifest)
        if writer is not None:
            self._commit_done = writer.now

    def release(self, extent: Extent) -> None:
        """Free an extent of a retired component.

        A component is retired right after the commit that dropped it,
        which may still be on the log writer; until it is done, a write
        into the extent waits for it (:meth:`await_commit`).
        """
        self.regions.free(extent)
        if self._commit_done:
            self._held.append((extent, self._commit_done))

    def await_commit(self, first_page: int, npages: int) -> None:
        """Hold a data write into ``npages`` pages from ``first_page``
        until the commit that released them is done.

        A write into a released extent before the commit that dropped
        its component is durable would overwrite a component the
        durable manifest still names.  Such a write waits for the
        commit, through the commit queue's ``drain``; a write into space
        no commit in flight released does not wait.  Holds the clock has
        passed are dropped.
        """
        if not self._held:
            return
        now = self.clock.now
        end = first_page + npages
        until = now
        held = [(extent, done) for extent, done in self._held if done > now]
        for extent, done in held:
            if extent.start < end and first_page < extent.end and done > until:
                until = done
        self._held = held
        if until > now:
            self.group_commit.drain(until)

    def _commit(self, manifest: Any) -> None:
        """Log ``manifest`` as an edit or a base and force the log."""
        previous = self._named
        named: dict[int, dict[str, Any]] = {}
        kept: list[int] = []

        def name(desc: dict[str, Any]) -> Any:
            tree_id = desc["tree_id"]
            named[tree_id] = desc
            known = previous.get(tree_id)
            if known is desc or known == desc:
                kept.append(tree_id)
                return _Named(tree_id)
            return desc

        edit = _map_components(manifest, name)
        if not kept:
            self._write_base(manifest)
        else:
            nbytes = record_bytes(edit)
            self.wal.append(_EDIT_KIND, edit, nbytes)
            self.wal.force()
            self._edit_bytes += nbytes
            if self._edit_bytes >= self._base_bytes:
                self._write_base(manifest)
        self._named = named

    def _write_base(self, manifest: Any) -> None:
        """Force the full manifest, then drop every record below it."""
        nbytes = record_bytes(manifest)
        lsn = self.wal.append(_BASE_KIND, manifest, nbytes)
        self.wal.force()
        self.wal.truncate(lsn)
        self._base_bytes = nbytes
        self._edit_bytes = 0

    def recover_manifest(self) -> Any:
        """Return the newest durable manifest: the newest base with every
        later edit folded over it, in LSN order.

        Raises:
            RecoveryError: if no manifest was ever committed.
        """
        manifest = None
        named: dict[int, dict[str, Any]] = {}
        for record in self.wal.records():
            if record.kind == _BASE_KIND:
                self._base_bytes, self._edit_bytes = record.nbytes, 0
            else:
                self._edit_bytes += record.nbytes
            previous, named = named, {}

            def resolve(entry: Any) -> dict[str, Any]:
                desc = previous[entry.tree_id] if type(entry) is _Named else entry
                named[desc["tree_id"]] = desc
                return desc

            manifest = _map_components(record.payload, resolve)
        if manifest is None:
            raise RecoveryError("no committed manifest found in the WAL")
        self._named = named
        return manifest

    def crash(self) -> None:
        """Simulate a crash: volatile state is lost, durable state kept.

        Drops the buffer pool (dirty pages included) and the log's
        un-forced tail.  The page file and forced log records survive.
        """
        self.buffer.drop_all()
        self.logical_log.crash()  # and the WAL's records: one file
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
        bg_busy = log.bg_busy_seconds  # only the log writer runs behind
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

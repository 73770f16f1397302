"""Simulated storage devices.

A :class:`SimDisk` is a serial device with a head position.  An access that
does not continue from the previous access is a *seek* and is charged the
model's access time; every access is charged transfer time at the model's
sequential bandwidth.  This is exactly the cost model the paper uses in its
own arithmetic (Section 2.2: "Modern hard disks transfer 100-200MB/sec, and
have mean access times over 5ms").

Each device also keeps a ``busy_until`` horizon on the shared virtual time
axis: a request issued at time *t* starts at ``max(t, busy_until)`` and the
horizon advances to its completion.  A *synchronous* requester (the
application, and the merge steps it runs) advances the foreground
:class:`~repro.sim.clock.VirtualClock` to completion; a *background*
requester (the log writer, a :class:`~repro.sim.clock.Timeline` installed
via ``clock.running_on(timeline)``) advances only its own timeline and the
device horizon.  Foreground latency therefore includes *queueing behind*
background work but never the background work itself — service time
versus device contention (Section 5.1's dedicated log disk).

:class:`StripedDisk` models that RAID-0 array: N member devices, each with
its own head and busy horizon, striped in fixed-size chunks.  A logical
access fans out to the members it covers and completes when the slowest
member finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import DeviceFullError
from repro.sim.clock import VirtualClock
from repro.sim.stats import IOStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.runtime import EngineRuntime


@dataclass(frozen=True)
class IOEvent:
    """One traced device access (enable with :meth:`SimDisk.start_trace`)."""

    time: float
    kind: str  # "read" or "write"
    offset: int
    nbytes: int
    seek: bool
    service: float
    wait: float = 0.0  # time spent queued behind the busy horizon
    background: bool = False  # issued from a background Timeline

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class DiskModel:
    """Performance parameters of a storage device.

    Attributes:
        name: human-readable device name (appears in benchmark output).
        read_access_seconds: head-positioning cost of a non-sequential read.
        write_access_seconds: head-positioning cost of a non-sequential
            write.  SSDs penalize random writes far more than random reads
            (Section 5.4), so the two are modelled separately.
        seq_read_bandwidth: sequential read bandwidth, bytes per second.
        seq_write_bandwidth: sequential write bandwidth, bytes per second.
    """

    name: str
    read_access_seconds: float
    write_access_seconds: float
    seq_read_bandwidth: float
    seq_write_bandwidth: float

    @property
    def streaming_read_bytes(self) -> float:
        """The least a read must move to count as *streaming*.

        Twice what the device transfers in one positioning time, so
        positioning costs at most a third of the access.  Every
        sequential reader (merge inputs, recovery scans) reads runs of
        this size; measured alternatives are in docs/simulation.md.
        """
        return 2 * self.read_access_seconds * self.seq_read_bandwidth

    @classmethod
    def hdd(cls) -> "DiskModel":
        """Two 10K RPM enterprise SATA drives in RAID 0 (Section 5.1).

        Each drive transfers 110-130 MB/s and has a mean access time over
        5 ms (Section 2.2); striping doubles bandwidth and, with a deep
        queue, roughly halves the effective access time.
        """
        return cls(
            name="hdd",
            read_access_seconds=2.5e-3,
            write_access_seconds=2.5e-3,
            seq_read_bandwidth=240 * MIB,
            seq_write_bandwidth=240 * MIB,
        )

    @classmethod
    def ssd(cls) -> "DiskModel":
        """Two OCZ Vertex 2 SSDs in RAID 0 (Section 5.1).

        Each drive provides 285 (275) MB/s sequential reads (writes) and
        tens of thousands of read IOPS, but severely penalizes random
        writes (Section 5.4).
        """
        return cls(
            name="ssd",
            read_access_seconds=40e-6,
            write_access_seconds=250e-6,
            seq_read_bandwidth=570 * MIB,
            seq_write_bandwidth=550 * MIB,
        )

    @classmethod
    def single_hdd(cls) -> "DiskModel":
        """One commodity hard disk, matching the Section 2.2 arithmetic

        (5 ms access, 100 MB/s transfer; two seeks for a 1000-byte
        update-in-place write yield a write amplification near 1000).
        """
        return cls(
            name="single-hdd",
            read_access_seconds=5e-3,
            write_access_seconds=5e-3,
            seq_read_bandwidth=100 * MIB,
            seq_write_bandwidth=100 * MIB,
        )

    @classmethod
    def hdd_member(cls) -> "DiskModel":
        """One drive of the Section 5.1 HDD array, for explicit striping
        via :class:`StripedDisk` (half the RAID-0 profile's bandwidth)."""
        return cls(
            name="hdd-member",
            read_access_seconds=5e-3,
            write_access_seconds=5e-3,
            seq_read_bandwidth=120 * MIB,
            seq_write_bandwidth=120 * MIB,
        )


class SimDisk:
    """A serial simulated device charging costs to a shared virtual clock.

    All offsets and sizes are in bytes.  The device keeps a single head
    position; an access at an offset other than where the previous access
    ended counts as a seek.  Large sequential runs (merge output, log
    appends) are therefore charged bandwidth only, while scattered accesses
    (B-Tree page writes, uncached point reads) pay the access time — the
    distinction the whole paper turns on.

    The ``busy_until`` horizon serializes requesters on this device:
    every access starts no earlier than the previous one completed,
    regardless of whether it was issued by the foreground clock or a
    background timeline (see the module docstring).
    """

    def __init__(
        self,
        model: DiskModel,
        clock: VirtualClock,
        name: str | None = None,
        runtime: "EngineRuntime | None" = None,
        capacity_bytes: int | None = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.model = model
        self.clock = clock
        self.name = name if name is not None else model.name
        self.capacity_bytes = capacity_bytes
        self.stats = IOStats()
        self.busy_until = 0.0  # horizon: when the last queued access ends
        self._head = -1  # byte offset where the previous access ended
        self._trace: list[IOEvent] | None = None
        self.runtime = runtime
        # The per-access metrics/trace dispatch below is the hot path's
        # single biggest fixed cost; precompute one flag so the fast
        # path (no runtime, or observability off) pays one attribute
        # load instead of ~a dozen counter updates and a trace emit.
        self._obs = runtime is not None and runtime.observability
        if runtime is not None:
            runtime.register_disk(self)
        if self._obs:
            prefix = f"disk.{self.name}"
            metrics = runtime.metrics
            self._ctr_seeks = metrics.counter(f"{prefix}.seeks")
            self._ctr_read_ops = metrics.counter(f"{prefix}.read_ops")
            self._ctr_write_ops = metrics.counter(f"{prefix}.write_ops")
            self._ctr_bytes_read = metrics.counter(f"{prefix}.bytes_read")
            self._ctr_bytes_written = metrics.counter(f"{prefix}.bytes_written")
            self._ctr_busy = metrics.counter(f"{prefix}.busy_seconds")
            self._ctr_fg_busy = metrics.counter(f"{prefix}.fg_busy_seconds")
            self._ctr_bg_busy = metrics.counter(f"{prefix}.bg_busy_seconds")
            self._ctr_fg_wait = metrics.counter(f"{prefix}.fg_wait_seconds")
            self._ctr_bg_wait = metrics.counter(f"{prefix}.bg_wait_seconds")
            self._gauge_backlog = metrics.gauge(f"{prefix}.backlog_seconds")

    def start_trace(self) -> None:
        """Record every access as an :class:`IOEvent` (debugging aid)."""
        self._trace = []

    def stop_trace(self) -> list[IOEvent]:
        """Stop tracing and return the recorded events."""
        events = self._trace if self._trace is not None else []
        self._trace = None
        return events

    def read(self, offset: int, nbytes: int) -> float:
        """Service a read; advance the requester's timeline; return the
        observed latency (queue wait plus service time)."""
        model = self.model
        return self._access(
            offset, nbytes,
            model.read_access_seconds, model.seq_read_bandwidth, False,
        )

    def write(self, offset: int, nbytes: int) -> float:
        """Service a write; advance the requester's timeline; return the
        observed latency (queue wait plus service time)."""
        model = self.model
        return self._access(
            offset, nbytes,
            model.write_access_seconds, model.seq_write_bandwidth, True,
        )

    def _validate(self, offset: int, nbytes: int, is_write: bool) -> None:
        if offset < 0 or nbytes < 0:
            raise ValueError(
                f"invalid access: offset={offset} nbytes={nbytes}"
            )
        if (
            is_write
            and nbytes > 0
            and self.capacity_bytes is not None
            and offset + nbytes > self.capacity_bytes
        ):
            raise DeviceFullError(offset, nbytes, self.capacity_bytes)

    def _access(
        self,
        offset: int,
        nbytes: int,
        access_seconds: float,
        bandwidth: float,
        is_write: bool,
    ) -> float:
        if offset < 0 or nbytes <= 0 or (
            is_write and self.capacity_bytes is not None
        ):
            self._validate(offset, nbytes, is_write)
            if nbytes == 0:
                return 0.0
        # The requester: the log writer's timeline if it is installed, else
        # the foreground clock.  Both keep their position in ``now``;
        # every access of every device passes here, so it reads and
        # moves that in place and books the access inline (one frame;
        # :meth:`_service_at` is the same booking for a striped array's
        # members, issued at the array's time).
        clock = self.clock
        timeline = clock._active_timeline
        requester = clock if timeline is None else timeline
        issue_at = requester.now
        stats = self.stats
        sequential = offset == self._head
        service = nbytes / bandwidth
        if not sequential:
            service += access_seconds
            stats.seeks += 1
            stats.write_seeks += is_write
            stats.seek_seconds += access_seconds
        start = max(issue_at, self.busy_until)
        wait = start - issue_at
        end = start + service
        self.busy_until = end
        if is_write:
            stats.write_ops += 1
            stats.bytes_written += nbytes
        else:
            stats.read_ops += 1
            stats.bytes_read += nbytes
        stats.busy_seconds += service
        stats.queue_wait_seconds += wait
        if timeline is not None:
            stats.bg_busy_seconds += service
        else:
            stats.fg_wait_seconds += wait
        self._head = offset + nbytes
        if self._obs or self._trace is not None:
            self._record(
                issue_at, offset, nbytes, is_write, 0 if sequential else 1,
                service, wait, end, timeline is not None,
            )
        requester.now = end  # end >= issue_at: time never goes back
        return end - issue_at

    def _service_at(
        self,
        issue_at: float,
        offset: int,
        nbytes: int,
        access_seconds: float,
        bandwidth: float,
        is_write: bool,
    ) -> tuple[float, float, bool]:
        """Book one access issued at ``issue_at``; return
        ``(end_time, queue_wait, seeked)``.

        :meth:`_access`'s booking, for a :class:`StripedDisk` member: it
        advances the device horizon and all counters but *not* the clock
        — the array fans one logical access out to several members, all
        issued at once, and advances the clock itself.  An array is only
        ever a data device, which nothing runs behind the foreground on,
        so its members book foreground accesses only.
        """
        stats = self.stats
        sequential = offset == self._head
        service = nbytes / bandwidth
        if not sequential:
            service += access_seconds
            stats.seeks += 1
            stats.write_seeks += is_write
            stats.seek_seconds += access_seconds
        start = max(issue_at, self.busy_until)
        wait = start - issue_at
        end = start + service
        self.busy_until = end
        if is_write:
            stats.write_ops += 1
            stats.bytes_written += nbytes
        else:
            stats.read_ops += 1
            stats.bytes_read += nbytes
        stats.busy_seconds += service
        stats.queue_wait_seconds += wait
        stats.fg_wait_seconds += wait
        self._head = offset + nbytes
        if self._obs or self._trace is not None:
            self._record(
                issue_at, offset, nbytes, is_write, 0 if sequential else 1,
                service, wait, end, False,
            )
        return end, wait, not sequential

    def _record(
        self,
        issue_at: float,
        offset: int,
        nbytes: int,
        is_write: bool,
        seeks: int,
        service: float,
        wait: float,
        end: float,
        background: bool,
    ) -> None:
        """Report a booked access to the metrics registry and trace (when
        observability is on) and to :meth:`start_trace`'s list."""
        kind = "write" if is_write else "read"
        if self._obs:
            if seeks:
                self._ctr_seeks.inc(seeks)
            if is_write:
                self._ctr_write_ops.inc()
                self._ctr_bytes_written.inc(nbytes)
            else:
                self._ctr_read_ops.inc()
                self._ctr_bytes_read.inc(nbytes)
            self._ctr_busy.inc(service)
            if background:
                self._ctr_bg_busy.inc(service)
                self._ctr_bg_wait.inc(wait)
            else:
                self._ctr_fg_busy.inc(service)
                self._ctr_fg_wait.inc(wait)
            self._gauge_backlog.set(max(0.0, self.busy_until - issue_at))
            self.runtime.trace.emit(
                "disk_io",
                disk=self.name,
                kind=kind,
                nbytes=nbytes,
                seek=seeks > 0,
                busy=service,
                wait=wait,
                background=background,
            )
        if self._trace is not None:
            self._trace.append(
                IOEvent(
                    time=end,
                    kind=kind,
                    offset=offset,
                    nbytes=nbytes,
                    seek=seeks > 0,
                    service=service,
                    wait=wait,
                    background=background,
                )
            )

    def _charge_wasted(self, seconds: float) -> None:
        """Charge extra device time (injected faults) to the requester."""
        timeline = self.clock.active_timeline
        if timeline is not None:
            timeline.advance_to(timeline.now + seconds)
        else:
            self.clock.advance(seconds)
        self.stats.busy_seconds += seconds

    @property
    def streaming_read_bytes(self) -> float:
        """This device's streaming-read unit (see :class:`DiskModel`)."""
        return self.model.streaming_read_bytes

    def sync_barrier(self) -> None:
        """Forget head-sequentiality after a durability barrier.

        A force (fsync) waits for the platter to pass the tail sector and
        drains the device queue; by the time the *next* append is issued
        the head has rotated past it, so that append repositions even
        though its offset is numerically contiguous.  This is why a
        synchronous log commit is bound by access latency while an
        unsynced streaming log is bound by bandwidth (Sections 2.2 and
        4.4.2) — and why group commit, which amortizes one barrier across
        many commits, is worth modelling at all.
        """
        self._head = -1

    # -- fault-query surface -------------------------------------------
    #
    # Checksummed consumers (pagefile, logs) ask the device whether a byte
    # range was corrupted.  A plain SimDisk never corrupts anything; a
    # FaultyDisk (repro.faults.disk) overrides these with real bookkeeping,
    # so consumer code is uniform across healthy and hostile devices.

    def corrupted(self, offset: int, nbytes: int) -> bool:
        """Whether any byte of ``[offset, offset + nbytes)`` is corrupt."""
        return False

    def mark_corrupt(self, offset: int, nbytes: int) -> None:
        """Flag a byte range as corrupted (no-op on a healthy device)."""

    def clear_corruption(self, offset: int, nbytes: int) -> None:
        """Heal a byte range (no-op on a healthy device)."""

    def __repr__(self) -> str:
        return f"SimDisk(name={self.name!r}, model={self.model.name!r})"


class StripedDisk(SimDisk):
    """RAID-0 over N member devices (Section 5.1's data arrays).

    The logical byte space is divided into ``chunk_bytes`` chunks dealt
    round-robin across the members.  Each member keeps its own head and
    busy horizon, so a large sequential access streams from all members
    in parallel (bandwidth scales with N) while members stay individually
    serial.  A logical access completes when its slowest member chunk
    does; consecutive chunks on the same member coalesce into one member
    access (they are physically contiguous).

    The aggregate presents the full :class:`SimDisk` surface under one
    device name: consumers (page file, logs) and the metrics registry see
    a single device whose counters sum the members'.  Members are built
    without a runtime so device-level metrics are not double-counted;
    per-member counters remain available via :attr:`members`.  An array
    is only ever a data device, and only the log device's writer runs
    behind the foreground, so every access runs on the caller's clock.
    """

    def __init__(
        self,
        model: DiskModel,
        clock: VirtualClock,
        stripes: int,
        chunk_bytes: int = 512 * KIB,
        name: str | None = None,
        runtime: "EngineRuntime | None" = None,
        capacity_bytes: int | None = None,
    ) -> None:
        if stripes < 2:
            raise ValueError(f"stripes must be >= 2, got {stripes}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        super().__init__(
            model, clock, name=name, runtime=runtime, capacity_bytes=capacity_bytes
        )
        self.chunk_bytes = chunk_bytes
        self.members = [
            SimDisk(model, clock, name=f"{self.name}.m{i}")
            for i in range(stripes)
        ]

    def _split(
        self, offset: int, nbytes: int
    ) -> list[tuple[int, int, int]]:
        """Map ``[offset, offset + nbytes)`` to ``(member, offset, nbytes)``
        runs, coalescing physically contiguous chunks per member."""
        chunk = self.chunk_bytes
        stripes = len(self.members)
        runs: list[tuple[int, int, int]] = []
        position = offset
        remaining = nbytes
        while remaining > 0:
            index = position // chunk
            within = position % chunk
            member = index % stripes
            member_offset = (index // stripes) * chunk + within
            span = min(remaining, chunk - within)
            if runs and runs[-1][0] == member and (
                runs[-1][1] + runs[-1][2] == member_offset
            ):
                last = runs[-1]
                runs[-1] = (last[0], last[1], last[2] + span)
            else:
                runs.append((member, member_offset, span))
            position += span
            remaining -= span
        return runs

    def _access(
        self,
        offset: int,
        nbytes: int,
        access_seconds: float,
        bandwidth: float,
        is_write: bool,
    ) -> float:
        self._validate(offset, nbytes, is_write)
        if nbytes == 0:
            return 0.0
        issue_at = self.clock.now
        end = issue_at
        wait = 0.0
        seeked = 0
        first_wait: dict[int, float] = {}
        for member, member_offset, span in self._split(offset, nbytes):
            sub_end, sub_wait, sub_seeked = self.members[member]._service_at(
                issue_at,
                member_offset,
                span,
                access_seconds,
                bandwidth,
                is_write,
            )
            seeked += sub_seeked
            # A member's later sub-requests queue behind its own first
            # one; only the first's wait was spent behind other accesses.
            first_wait.setdefault(member, sub_wait)
            if sub_end >= end:
                end = sub_end
                wait = first_wait[member]
        self.busy_until = max(self.busy_until, end)
        # Aggregate accounting: the array was "busy" for the access's
        # critical path — the member that finished last, from the start
        # of its first sub-request to the end of its last; seeks count
        # member head repositionings, which happen in parallel (one
        # positioning time on the critical path).
        latency = end - issue_at
        service = latency - wait
        self.stats.seeks += seeked
        if seeked:
            self.stats.seek_seconds += min(access_seconds, service)
        if is_write:
            self.stats.write_seeks += seeked
            self.stats.write_ops += 1
            self.stats.bytes_written += nbytes
        else:
            self.stats.read_ops += 1
            self.stats.bytes_read += nbytes
        self.stats.busy_seconds += service
        self.stats.queue_wait_seconds += wait
        self.stats.fg_wait_seconds += wait
        if self._obs or self._trace is not None:
            self._record(
                issue_at, offset, nbytes, is_write, seeked,
                service, wait, end, False,
            )
        self.clock.advance_to(end)
        return latency

    @property
    def streaming_read_bytes(self) -> float:
        """A streaming read keeps every member streaming at once."""
        return len(self.members) * self.model.streaming_read_bytes

    def sync_barrier(self) -> None:
        """A barrier drains every member's queue (see base class)."""
        super().sync_barrier()
        for member in self.members:
            member.sync_barrier()

    def __repr__(self) -> str:
        return (
            f"StripedDisk(name={self.name!r}, model={self.model.name!r}, "
            f"stripes={len(self.members)}, chunk={self.chunk_bytes})"
        )

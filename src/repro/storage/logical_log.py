"""Logical log providing per-write durability.

bLSM uses "a second, logical, log to provide durability for individual
writes" (Section 4.4.2).  Each application write appends one logical
record; the log is truncated once the covered writes reach a durable tree
component (a completed C0:C1 merge).  Snowshoveling delays truncation,
because C0 is never atomically emptied — the paper calls this out as a
recovery cost.

Three durability modes are supported, matching the paper and contemporary
practice (Section 4.4.2 and 5.1):

* ``SYNC`` — force the log on every write (commit-latency bound).
* ``ASYNC`` — size-triggered batching; append the buffer when it exceeds
  a threshold.  This is the paper's benchmark configuration ("none of
  the systems sync their logs at commit"), so the append is *not* a
  durability barrier: the log streams at device bandwidth, written
  behind on the log device's one writer (:attr:`LogicalLog.writer`).
* ``GROUP`` — leader-based group commit: ``log()`` only stages the
  record; a :class:`~repro.storage.group_commit.GroupCommitQueue` owns
  every force, so concurrent sessions amortize one force across their
  batches (Stasis group commit, Section 4.4.2).  Durability of an
  individual write is acknowledged by its commit ticket, never by
  ``log()`` returning.
* ``NONE`` — the degraded mode: no logging at all; after a crash, writes
  since the last completed merge are lost, which the paper notes is
  acceptable for high-throughput replication.

Hardening (fault-injection layer): records are checksummed at append
time.  A force torn mid-record by a :class:`~repro.errors.CrashPoint`
leaves the straddling record with a broken checksum; replay detects it
and *drops* it — a logical record is a single acknowledged-or-not write,
so dropping the torn (never-acknowledged) record is exactly the
durable-by-contract outcome.  Silent corruption marks on replayed ranges
raise :class:`~repro.errors.CorruptionError`.  An optional
:class:`~repro.faults.retry.RetryExecutor` absorbs transient force
failures with backoff.

Who pays the barrier (:meth:`SimDisk.sync_barrier`, one head positioning
per call): every SYNC write, every GROUP leader force, and every explicit
:meth:`LogicalLog.force` (``flush_log``, ``close``) in any mode.  ASYNC's
size-triggered appends do not; they reposition only when something else
(a WAL manifest commit, which is always forced) moved the log device's
head in between.

Who waits for the log device: the log device has one writer,
:attr:`LogicalLog.writer`, a :class:`~repro.sim.clock.Timeline`.
GROUP's leader forces run on it, and so does everything ASYNC writes
there: the size-triggered appends, the WAL manifest commits
(:meth:`~repro.storage.stasis.Stasis.commit_manifest`, under NONE too,
which logs nothing else) and the :meth:`retain_ranges` checkpoint, each
queued behind what the writer has in flight (:meth:`behind`;
:meth:`bookkeeping` picks the clock for a commit or a checkpoint).  Their
service, a repositioning included, is background time, so the step
that completes a merge costs its caller only its data-device time.  A
writer waits for an append only when its next buffer fills while the
previous append is still in flight, and it waits through the commit
queue's ``drain``, as a GROUP commit waits through its ``wait``; a
data-device write into an extent that a commit still in flight freed
waits for that commit the same way
(:meth:`~repro.storage.stasis.Stasis.await_commit`).  Everything else
runs on its caller's clock and queues behind the writer's work through
the device's ``busy_until``: SYNC forces, explicit forces, and under
SYNC and GROUP the manifest commits and checkpoints too, and so do a
store's commits and checkpoints once its sessions commit through
tickets: a leader force starts when the writer is idle, so a commit on
the writer would regroup the tickets.  An explicit force with nothing
left to write still waits for the writer.  The writer issues each
access where a foreground one would have been issued, so the device
access sequence, and with it every crash point, does not move.
"""

from __future__ import annotations

import enum
from contextlib import nullcontext
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from repro.errors import CorruptionError, CrashPoint
from repro.sim.clock import RunningOn, Timeline
from repro.sim.disk import SimDisk
from repro.storage.checksum import CORRUPTION_MASK, payload_checksum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor
    from repro.storage.group_commit import GroupCommitQueue

_RECORD_OVERHEAD = 24  # simulated framing per logical record
_ON_CALLER = nullcontext()  # bookkeeping on the caller's own clock


class DurabilityMode(enum.Enum):
    """How eagerly the logical log is forced to disk."""

    SYNC = "sync"
    ASYNC = "async"
    GROUP = "group"
    NONE = "none"


class LogicalRecord(tuple):
    """One logged application write (an immutable tuple).

    ``op`` is an opaque tag (``put``, ``delete``, ``delta``); replay hands
    records back to the engine, which knows how to reapply them.  The
    fields are ``seqno``, ``op``, ``key``, ``value``, ``checksum`` and
    ``nbytes``, the simulated on-disk size, computed once at
    construction because every append and force reads it.

    A tuple subclass rather than a frozen dataclass: the log builds one
    per write, and a frozen dataclass's ``__init__`` cost a microsecond.
    """

    __slots__ = ()

    def __new__(
        cls,
        seqno: int,
        op: str,
        key: bytes,
        value: bytes | None,
        checksum: int = 0,
    ) -> "LogicalRecord":
        nbytes = _RECORD_OVERHEAD + len(key)
        if value is not None:
            nbytes += len(value)
        return tuple.__new__(cls, (seqno, op, key, value, checksum, nbytes))

    seqno = property(itemgetter(0), doc="The write's sequence number.")
    op = property(itemgetter(1), doc="``put``, ``delete`` or ``delta``.")
    key = property(itemgetter(2), doc="The written key.")
    value = property(itemgetter(3), doc="The value or delta (None: delete).")
    checksum = property(
        itemgetter(4), doc="Payload checksum (0 on a device that never "
        "corrupts)."
    )
    nbytes = property(itemgetter(5), doc="Simulated on-disk size in bytes.")

    def __getnewargs__(self) -> tuple:
        return self[:5]  # what copy and pickle pass back to __new__

    def __repr__(self) -> str:
        return (
            f"LogicalRecord(seqno={self[0]!r}, op={self[1]!r}, "
            f"key={self[2]!r}, value={self[3]!r}, checksum={self[4]!r})"
        )


class LogicalLog:
    """Sequential operation log with group commit and truncation."""

    def __init__(
        self,
        disk: SimDisk,
        mode: DurabilityMode = DurabilityMode.ASYNC,
        group_commit_bytes: int = 512 * 1024,
        retry: "RetryExecutor | None" = None,
    ) -> None:
        self.disk = disk
        self.mode = mode
        self.group_commit_bytes = group_commit_bytes
        self.retry = retry
        self._durable: list[LogicalRecord] = []
        self._pending: list[LogicalRecord] = []
        self._pending_bytes = 0
        self._tail_offset = 0
        self._truncated_below = 0  # seqnos below this are covered by trees
        self._offsets: dict[int, tuple[int, int]] = {}  # seqno -> (offset, nbytes)
        self._torn: set[int] = set()  # seqnos whose write was torn mid-record
        self._durable_seqno = -1  # highest seqno fully persisted by a force
        self.torn_records_dropped = 0
        self.forces = 0  # completed non-empty forces and ASYNC appends
        #: The log device's one writer: ASYNC's appends and GROUP's
        #: leader forces run on it, ahead of the caller's clock.
        self.writer = Timeline("log")
        #: The commit queue that drives :attr:`writer` (it sets this);
        #: an ASYNC append waits for the writer through its ``drain``.
        self.commit_queue: "GroupCommitQueue | None" = None
        self._append_end = 0.0  # when the last ASYNC append is written
        # A device that never corrupts or tears (plain SimDisk) can never
        # fail read-back verification, so skip the per-append checksum —
        # it sits on the write hot path.  Fault-capable devices pay.
        self._checksummed = type(disk).corrupted is not SimDisk.corrupted

    @property
    def truncated_below(self) -> int:
        """Lowest seqno still covered by the log."""
        return self._truncated_below

    @property
    def durable_records(self) -> int:
        """Number of records currently durable (post-truncation)."""
        return len(self._durable)

    @property
    def durable_seqno(self) -> int:
        """Highest seqno a completed force fully persisted (-1 if none).

        This is the LSN a group-commit leader hands to its followers:
        every record at or below it survived the leader's force.
        Truncation never lowers it — covered writes stay durable, just in
        a tree component instead of the log.
        """
        return self._durable_seqno

    @property
    def pending_count(self) -> int:
        """Staged (appended but not yet forced) records."""
        return len(self._pending)

    def log(self, seqno: int, op: str, key: bytes, value: bytes | None) -> float:
        """Append one write; return the virtual time its caller spent on
        the log (a SYNC force, or a wait for the log writer), if any."""
        mode = self.mode
        if mode is DurabilityMode.NONE:
            return 0.0
        record = LogicalRecord(
            seqno,
            op,
            key,
            value,
            payload_checksum(seqno, op, key, value)
            if self._checksummed
            else 0,
        )
        self._pending.append(record)
        self._pending_bytes += record.nbytes
        if mode is DurabilityMode.SYNC:
            return self.force()
        if mode is DurabilityMode.GROUP:
            # The GroupCommitQueue owns every force; log() only stages.
            return 0.0
        if self._pending_bytes >= self.group_commit_bytes:
            return self._append_behind()
        return 0.0

    def bookkeeping(self) -> "RunningOn | nullcontext[None]":
        """The clock a manifest commit or a checkpoint runs on.

        :meth:`behind` (``with`` binds :attr:`writer`) under ASYNC, and
        NONE, which logs nothing else.  The caller's own clock (``with``
        binds ``None``) under SYNC and GROUP, and once sessions commit
        through tickets: a leader force starts when the writer is idle,
        so a commit on the writer would hold it and regroup the tickets
        (:meth:`GroupCommitQueue.submit
        <repro.storage.group_commit.GroupCommitQueue.submit>`).
        """
        mode = self.mode
        if mode is DurabilityMode.ASYNC or mode is DurabilityMode.NONE:
            queue = self.commit_queue
            if queue is None or not queue.submitted:
                return self.behind()
        return _ON_CALLER

    def behind(self) -> RunningOn:
        """Charge the block to :attr:`writer`, queued behind what it has
        in flight and starting no earlier than the requester (the
        caller's clock, or the merge timeline that runs the caller).

        Use as ``with log.behind():``.  The accesses inside are issued
        where the block runs, so the device access sequence is the one a
        foreground write would give; only the clocks differ.
        """
        clock = self.disk.clock
        active = clock.active_timeline
        self.writer.advance_to((clock if active is None else active).now)
        return clock.running_on(self.writer)

    def _append_behind(self) -> float:
        """ASYNC's size-triggered append, written behind on :attr:`writer`.

        One buffer fills while the previous one is in flight: the caller
        waits only for an append the writer is still writing, and
        returns that wait.  Other work on the writer (a manifest commit,
        a checkpoint, a leader force) holds no append buffer, so it is
        no reason to wait.  The caller waits through the commit queue's
        ``drain``: with no commit staged that is exactly this wait (a
        staged ``wait=False`` commit is forced first, as at any drain).
        The append is issued here, at the same point of the device's
        access sequence as a foreground one would be.
        """
        clock = self.disk.clock
        before = clock.now
        in_flight = self._append_end
        if in_flight > before:
            if self.commit_queue is not None:
                self.commit_queue.drain(in_flight)
            else:
                clock.advance_to(in_flight)
        with self.behind():
            self.force(sync=False)
        self._append_end = self.writer.now
        return clock.now - before

    def force(self, sync: bool = True) -> float:
        """Write buffered records sequentially; return service time.

        ``sync=False`` is ASYNC's size-triggered append: the same write
        without the durability barrier, so it continues from wherever the
        log device's head is.

        A :class:`~repro.errors.CrashPoint` mid-write models a torn force:
        fully-persisted records stay durable, the straddler stays on disk
        with a broken checksum (dropped at replay), later records are
        lost.  The crash re-raises — the process is dead.

        Off the writer, a force is a barrier even with nothing to write:
        its caller waits for an append still in flight (a write queues
        behind it on the device anyway).
        """
        if not self._pending:
            clock = self.disk.clock
            active = clock.active_timeline
            if active is self.writer:
                return 0.0
            requester = clock if active is None else active
            before = requester.now
            return requester.advance_to(self.writer.now) - before
        offset = self._tail_offset
        nbytes = self._pending_bytes
        # A force is a durability barrier: the write it issues pays head
        # positioning even though the log is numerically sequential (see
        # SimDisk.sync_barrier).  This is what makes per-commit syncing
        # access-bound and gives group commit something to amortize.
        if sync:
            self.disk.sync_barrier()
        try:
            service = self._write(offset, nbytes)
        except CrashPoint as crash:
            self._absorb_torn_force(offset, crash.persisted_bytes)
            raise
        self.forces += 1
        pending = self._pending
        offsets = self._offsets
        cursor = offset
        top = self._durable_seqno
        for seqno, _op, _key, _value, _checksum, size in pending:
            offsets[seqno] = (cursor, size)
            cursor += size
            if seqno > top:
                top = seqno
        self._tail_offset += nbytes
        self._durable.extend(pending)
        self._durable_seqno = top
        pending.clear()
        self._pending_bytes = 0
        return service

    def _write(self, offset: int, nbytes: int) -> float:
        if self.retry is not None:
            return self.retry.run(
                lambda: self.disk.write(offset, nbytes), what="log.force"
            )
        return self.disk.write(offset, nbytes)

    def _absorb_torn_force(self, offset: int, persisted: int) -> None:
        """Account a force interrupted after ``persisted`` bytes."""
        cursor = 0
        for record in self._pending:
            if cursor + record.nbytes <= persisted:
                self._offsets[record.seqno] = (offset + cursor, record.nbytes)
                self._durable.append(record)
                self._durable_seqno = max(self._durable_seqno, record.seqno)
            elif cursor < persisted:
                # Only its prefix reached the device: place just that.
                self._offsets[record.seqno] = (offset + cursor, persisted - cursor)
                self._durable.append(record)
                self._torn.add(record.seqno)
            cursor += record.nbytes
        self._tail_offset = offset + persisted
        self._pending.clear()
        self._pending_bytes = 0

    def truncate(self, below_seqno: int) -> None:
        """Drop durable records whose seqno is below ``below_seqno``.

        Called when a merge completes and the covered writes are durable in
        an on-disk tree component.
        """
        self._truncated_below = max(self._truncated_below, below_seqno)
        dropped = [
            r for r in self._durable if r.seqno < self._truncated_below
        ]
        self._durable = [
            record for record in self._durable if record.seqno >= self._truncated_below
        ]
        for record in dropped:
            self._offsets.pop(record.seqno, None)
            self._torn.discard(record.seqno)

    def retain_ranges(self, coverage: dict[bytes, tuple[int, int]]) -> float:
        """Exact truncation: keep only the writes still resident in C0.

        A completed merge makes every consumed write durable, but
        snowshoveling consumes C0 out of seqno order, so the un-durable
        writes are not a seqno *prefix* — they are exactly the records
        still resident in C0.  A resident record may be a *fold* of
        several writes, so per key the whole covered seqno range
        ``[coverage_start, seqno]`` is retained; replaying it in order
        reconstructs the fold.  Retention is exact because replaying a
        write a durable component already contains would double-apply
        deltas.

        A small checkpoint record describing the retained set is charged
        to the log device, on the clock :meth:`bookkeeping` names.
        Returns the charge's latency on whichever clock ran it.

        Args:
            coverage: per key, the (coverage_start, seqno) range of the
                resident record.
        """
        if self.mode is DurabilityMode.NONE:
            return 0.0
        # One pass over the durable records: keep or drop each, and
        # track the highest seqno logged and the lowest one kept.
        bounds_of = coverage.get
        offsets, torn = self._offsets, self._torn
        kept: list[LogicalRecord] = []
        top = max((record.seqno for record in self._pending), default=-1)
        floor: int | None = None
        for record in self._durable:
            seqno = record.seqno
            if seqno > top:
                top = seqno
            bounds = bounds_of(record.key)
            if bounds is not None and bounds[0] <= seqno <= bounds[1]:
                kept.append(record)
                if floor is None or seqno < floor:
                    floor = seqno
            else:
                offsets.pop(seqno, None)
                torn.discard(seqno)
        self._durable = kept
        checkpoint_bytes = 16 + 24 * len(coverage)
        with self.bookkeeping():
            service = self.disk.write(self._tail_offset, checkpoint_bytes)
        self._tail_offset += checkpoint_bytes
        if floor is None:
            floor = top + 1  # nothing retained: past every logged write
        self._truncated_below = max(self._truncated_below, floor)
        return service

    def replay(self) -> Iterator[LogicalRecord]:
        """Yield durable records in seqno order, charging replay I/O: one
        sequential read of ``[head, tail)``, from the lowest placement of
        a durable record to the end of what the log wrote (a torn
        record's persisted prefix, checkpoints and records truncated in
        between included: retention keeps whatever C0 still holds, which
        snowshoveling scatters across the span).

        Records whose read-back checksum fails because their force was
        torn are dropped (the write was never acknowledged); records whose
        byte range carries a silent-corruption mark raise
        :class:`~repro.errors.CorruptionError` — the write *was*
        acknowledged, so its loss must not be silent.
        """
        records = sorted(self._durable, key=lambda record: record.seqno)
        if records:
            offsets = self._offsets
            head = min(offsets[record.seqno][0] for record in records)
            self.disk.read(head, self._tail_offset - head)
        for record in records:
            if self._readback_checksum(record) != record.checksum:
                if record.seqno in self._torn:
                    self._drop_torn(record)
                    continue
                raise CorruptionError(
                    f"logical record seqno={record.seqno} op={record.op!r} "
                    f"failed checksum verification"
                )
            yield record

    def _readback_checksum(self, record: LogicalRecord) -> int:
        """The checksum as recomputed from what the device returns."""
        if not self._checksummed:
            # No corruption marks exist on this device class, but a tear
            # (CrashPoint mid-force) is tracked in memory regardless of
            # checksumming — keep detecting it without recomputing CRCs.
            if record.seqno in self._torn:
                return record.checksum ^ CORRUPTION_MASK
            return record.checksum
        placement = self._offsets.get(record.seqno)
        damaged = record.seqno in self._torn or (
            placement is not None and self.disk.corrupted(*placement)
        )
        actual = payload_checksum(record.seqno, record.op, record.key, record.value)
        return actual ^ CORRUPTION_MASK if damaged else actual

    def _drop_torn(self, record: LogicalRecord) -> None:
        self._durable = [r for r in self._durable if r.seqno != record.seqno]
        self._offsets.pop(record.seqno, None)
        self._torn.discard(record.seqno)
        self.torn_records_dropped += 1
        runtime = self.disk.runtime
        if runtime is not None:
            runtime.metrics.counter("log.torn_records_dropped").inc()
            runtime.trace.emit("log_torn_record", seqno=record.seqno, op=record.op)

    def crash(self) -> None:
        """Simulate a crash: buffered (un-forced) records are lost."""
        self._pending.clear()
        self._pending_bytes = 0

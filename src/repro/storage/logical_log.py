"""Logical log providing per-write durability.

bLSM uses "a second, logical, log to provide durability for individual
writes" (Section 4.4.2).  Each application write appends one logical
record; the log is truncated once the covered writes reach a durable tree
component (a completed C0:C1 merge).  Snowshoveling delays truncation,
because C0 is never atomically emptied — the paper calls this out as a
recovery cost.

Four durability modes are supported, matching the paper and contemporary
practice (Section 4.4.2 and 5.1):

* ``SYNC`` — force the log on every write (commit-latency bound).
* ``ASYNC`` — size-triggered batching; append the buffer when it exceeds
  a threshold.  This is the paper's benchmark configuration ("none of
  the systems sync their logs at commit"): the append is *not* a
  durability barrier, and the log streams at device bandwidth.
* ``GROUP`` — leader-based group commit: ``log()`` only stages the
  record; a :class:`~repro.storage.group_commit.GroupCommitQueue` owns
  every force, so concurrent sessions amortize one (Section 4.4.2), and
  a write is acknowledged by its commit ticket, never by ``log()``.
* ``NONE`` — the degraded mode: no logging at all; after a crash, writes
  since the last completed merge are lost, which the paper notes is
  acceptable for high-throughput replication.

The log is one record stream of the tree's
:class:`~repro.storage.logfile.LogFile`, whose tail it shares with the
manifest :class:`~repro.storage.wal.WriteAheadLog`, so a crash leaves a
prefix of the writes.  A force pays a sync barrier (one head
positioning) on every SYNC write, GROUP leader force and explicit
:meth:`LogicalLog.force`; ASYNC's appends do not.  The log device has
one writer, :attr:`LogicalLog.writer` (a
:class:`~repro.sim.clock.Timeline`): GROUP's leader forces and ASYNC's
appends run on it, and so do ASYNC's (and NONE's) manifest commits and
:meth:`retain_ranges` checkpoints until sessions commit through tickets
(:meth:`bookkeeping`); docs/concurrency.md ("The log writer") has who
waits for whom.
"""

from __future__ import annotations

import enum
from contextlib import nullcontext
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from repro.sim.clock import RunningOn, Timeline
from repro.sim.disk import SimDisk
from repro.storage.checksum import payload_checksum
from repro.storage.logfile import LogFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor
    from repro.storage.group_commit import GroupCommitQueue

_RECORD_OVERHEAD = 24  # simulated framing per logical record
_ON_CALLER = nullcontext()  # bookkeeping on the caller's own clock
_SEQNO = itemgetter(0)


class DurabilityMode(enum.Enum):
    """How eagerly the logical log is forced to disk."""

    SYNC = "sync"
    ASYNC = "async"
    GROUP = "group"
    NONE = "none"


class LogicalRecord(tuple):
    """One logged application write (an immutable tuple).

    ``op`` is an opaque tag (``put``, ``delete``, ``delta``) the engine
    reapplies at replay.  ``nbytes`` is computed once at construction;
    a tuple, not a frozen dataclass, whose ``__init__`` cost a
    microsecond per write.
    """

    __slots__ = ()

    def __new__(
        cls, seqno: int, op: str, key: bytes, value: bytes | None, checksum: int = 0
    ) -> "LogicalRecord":
        nbytes = _RECORD_OVERHEAD + len(key)
        if value is not None:
            nbytes += len(value)
        return tuple.__new__(cls, (seqno, op, key, value, checksum, nbytes))

    seqno = property(itemgetter(0), doc="The write's sequence number.")
    op = property(itemgetter(1), doc="``put``, ``delete`` or ``delta``.")
    key = property(itemgetter(2), doc="The written key.")
    value = property(itemgetter(3), doc="The value or delta (None: delete).")
    checksum = property(itemgetter(4), doc="Payload checksum (0: unchecked).")
    nbytes = property(itemgetter(5), doc="Simulated on-disk size in bytes.")
    torn_counter = "log.torn_records_dropped"

    def crc(self) -> int:
        """The payload's checksum, recomputed."""
        return payload_checksum(self[0], self[1], self[2], self[3])

    def __getnewargs__(self) -> tuple:
        return self[:5]  # what copy and pickle pass back to __new__

    def __repr__(self) -> str:
        return (
            f"LogicalRecord(seqno={self[0]!r}, op={self[1]!r}, "
            f"key={self[2]!r}, value={self[3]!r}, checksum={self[4]!r})"
        )

    def __str__(self) -> str:
        return f"logical record seqno={self[0]} op={self[1]!r}"


_MINE = LogicalRecord.__instancecheck__  # whether a record is this log's


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
        self.file = LogFile(disk, retry, "log.force")
        self._truncated_below = 0  # seqnos below this are covered by trees
        self.forces = 0  # completed non-empty forces and ASYNC appends
        #: The log device's one writer: ASYNC's appends and GROUP's
        #: leader forces run on it, ahead of the caller's clock.
        self.writer = Timeline("log")
        #: The commit queue that drives :attr:`writer` (it sets this);
        #: an ASYNC append waits for the writer through its ``drain``.
        self.commit_queue: "GroupCommitQueue | None" = None
        self._append_end = 0.0  # when the last ASYNC append is written

    truncated_below = property(
        lambda self: self._truncated_below, doc="Lowest seqno still logged."
    )
    durable_records = property(
        lambda self: sum(1 for _ in self.file.of(LogicalRecord)),
        doc="Durable records (post-truncation).",
    )
    pending_count = property(
        lambda self: sum(map(_MINE, self.file.pending)),
        doc="Staged, unforced records.",
    )
    torn_records_dropped = property(
        lambda self: self.file.cuts.get(LogicalRecord, 0),
        doc="Torn records the log was cut at.",
    )

    @property
    def durable_seqno(self) -> int:
        """Highest seqno a completed force fully persisted (-1 if none):
        the LSN a group-commit leader hands its followers.  Truncation
        never lowers it (covered writes stay durable, in a component)."""
        return self.file.top.get(LogicalRecord, -1)

    def log(self, seqno: int, op: str, key: bytes, value: bytes | None) -> float:
        """Append one write; return the virtual time its caller spent on
        the log (a SYNC force, or a wait for the log writer), if any."""
        mode = self.mode
        if mode is DurabilityMode.NONE:
            return 0.0
        file = self.file
        checksum = payload_checksum(seqno, op, key, value) if file.checksummed else 0
        record = LogicalRecord(seqno, op, key, value, checksum)
        # LogFile.append, inlined: this runs once per write.
        file.pending.append(record)
        file.pending_bytes += record.nbytes
        if mode is DurabilityMode.ASYNC:
            if file.pending_bytes >= self.group_commit_bytes:
                return self._append_behind()
            return 0.0
        if mode is DurabilityMode.SYNC:
            return self.force()
        return 0.0  # GROUP: the GroupCommitQueue owns every force

    def bookkeeping(self) -> "RunningOn | nullcontext[None]":
        """The clock a manifest commit or a checkpoint runs on:
        :attr:`writer` (``with`` binds it), queued behind its work from
        the caller's time, under ASYNC and NONE; the caller's (``with``
        binds ``None``) under SYNC and GROUP and once sessions commit
        through tickets, which a commit held on the writer would
        regroup.  The accesses are issued where the block runs: only the
        clocks differ."""
        mode = self.mode
        if mode is DurabilityMode.ASYNC or mode is DurabilityMode.NONE:
            queue = self.commit_queue
            if queue is None or not queue.submitted:
                clock = self.disk.clock
                self.writer.advance_to(clock.now)
                return clock.running_on(self.writer)
        return _ON_CALLER

    def _append_behind(self) -> float:
        """ASYNC's append, written behind on :attr:`writer`.  The caller
        waits (through the commit queue's ``drain``) only for an append
        still in flight, whose buffer the next one needs; returns that."""
        clock = self.disk.clock
        before = clock.now
        in_flight = self._append_end
        if in_flight > before:
            if self.commit_queue is not None:
                self.commit_queue.drain(in_flight)
            else:
                clock.advance_to(in_flight)
        writer = self.writer
        writer.advance_to(clock.now)
        with clock.running_on(writer):
            self.force(sync=False)
        self._append_end = writer.now
        return clock.now - before

    def force(self, sync: bool = True) -> float:
        """Write buffered records sequentially; return service time.

        ``sync=False`` is ASYNC's append: no durability barrier.  A force
        with nothing to write still waits for an append in flight."""
        file = self.file
        if not file.pending:
            clock = self.disk.clock
            before = clock.now
            return clock.advance_to(self.writer.now) - before
        service = file.force(sync)
        self.forces += 1
        return service

    def truncate(self, below_seqno: int) -> None:
        """Drop durable records whose seqno is below ``below_seqno`` (a
        completed merge made them durable in a tree component)."""
        self._truncated_below = below = max(self._truncated_below, below_seqno)
        mine = filter(_MINE, self.file.durable)
        self.file.keep(LogicalRecord, [record[0] >= below for record in mine])

    def retain_ranges(self, coverage: dict[bytes, tuple[int, int]]) -> float:
        """Exact truncation: keep only the writes still resident in C0.

        Snowshoveling consumes C0 out of seqno order, so the writes a
        completed merge left un-durable are not a seqno *prefix*: they
        are the records still resident in C0.  A resident record may
        fold several writes, so per key the whole covered range
        ``[coverage_start, seqno]`` is retained (replaying it in order
        rebuilds the fold), and nothing else is: replaying a write a
        component already holds would double-apply deltas.

        A small checkpoint of the retained set is written on the clock
        :meth:`bookkeeping` names; returns its latency on that clock.
        """
        if self.mode is DurabilityMode.NONE:
            return 0.0
        file = self.file
        bounds_of = coverage.get
        mask: list[bool] = []
        keep = mask.append
        logged = list(filter(_MINE, file.durable))
        for record in logged:
            bounds = bounds_of(record[2])
            keep(bounds is not None and bounds[0] <= record[0] <= bounds[1])
        file.keep(LogicalRecord, mask)
        kept = list(compress(logged, mask))
        if kept:  # truncate below the lowest seqno kept
            floor = min(map(_SEQNO, kept))
        else:  # nothing retained: past every logged write
            logged += filter(_MINE, file.pending)
            floor = max(map(_SEQNO, logged), default=-1) + 1
        with self.bookkeeping():
            service = file.checkpoint(16 + 24 * len(coverage))
        self._truncated_below = max(self._truncated_below, floor)
        return service

    def replay(self) -> Iterator[LogicalRecord]:
        """Yield durable records in seqno order (one read of the log
        file from its head to its tail, whatever lies in between:
        snowshoveling scatters what retention keeps across the span)."""
        return self.file.replay(LogicalRecord)

    def crash(self) -> None:
        """Simulate a crash: buffered (un-forced) records are lost."""
        self.file.crash()

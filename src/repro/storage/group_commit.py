"""Leader-based group commit over the logical log (Section 4.4.2).

bLSM rides on Stasis' group commit: many sessions' writes are staged
into the log buffer, the first committer to reach the log becomes the
*leader*, issues one force covering every staged record, and the
waiting *followers* inherit the durability of that force instead of
issuing their own.  One device force amortizes across the whole group,
which is the difference between commit latency bounded by rotational
latency per session and per *group*.

On the virtual clock the queue drives the log device's one writer, the
logical log's :attr:`~repro.storage.logical_log.LogicalLog.writer`
:class:`~repro.sim.clock.Timeline`.  Committing a
batch stages its records (already appended by ``log()`` under
:class:`~repro.storage.logical_log.DurabilityMode.GROUP`) and enqueues
a :class:`CommitTicket`.  A force starts as soon as the log writer is
idle; every ticket enqueued by then joins the leader's group.  Tickets
enqueued *while* a force is in flight stack up and form the next
group — exactly the LevelDB/Stasis batching dynamic: the busier the log
device, the bigger the groups.

Durability contract: a ticket is acknowledged (``durable_at`` set)
only when a force covering its last seqno completes (a leader's, or a
manifest commit's: it forces every staged record of the log file).  On
a crash, unacknowledged staged records survive as a prefix: a torn
force is cut at the torn record.  Acknowledged tickets always replay
in full.  The crash matrix (``tests/test_group_commit.py``) enumerates
every force boundary to pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.stasis import Stasis

__all__ = ["CommitTicket", "GroupCommitQueue"]


@dataclass
class CommitTicket:
    """One session's pending commit: a staged batch awaiting a force.

    ``durable_at`` is ``None`` until a leader's force covers the
    ticket; afterwards it is the virtual time the acknowledgement
    became possible, and ``durable_lsn`` is the log's durable seqno
    the follower inherited from the leader.
    """

    session: int
    first_seqno: int
    last_seqno: int
    ops: int
    enqueued_at: float
    leader: bool = False
    group_size: int = 0
    durable_at: float | None = None
    durable_lsn: int = -1

    @property
    def durable(self) -> bool:
        return self.durable_at is not None

    @property
    def queue_delay(self) -> float:
        """Seconds between enqueue and acknowledgement (0 if pending)."""
        if self.durable_at is None:
            return 0.0
        return max(0.0, self.durable_at - self.enqueued_at)


class GroupCommitQueue:
    """The commit queue in front of the log file.

    One queue per :class:`~repro.storage.stasis.Stasis` instance (so
    one per shard in a sharded fleet — each shard's log device has its
    own log writer).  The queue is event-driven: every ``submit``
    drains whatever groups the log writer has had time to force, so no
    separate scheduler loop is needed on the virtual clock.
    """

    def __init__(self, stasis: "Stasis") -> None:
        self.stasis = stasis
        self._clock = stasis.clock
        #: The log device's one writer, shared with what ASYNC writes
        #: behind (appends, manifest commits, checkpoints); a caller
        #: that needs one of those done waits through :meth:`drain`.
        self.writer = stasis.logical_log.writer
        stasis.logical_log.commit_queue = self
        self._pending: list[CommitTicket] = []
        #: Whether a ticket was ever submitted: from then on manifest
        #: commits and checkpoints no longer run on the writer
        #: (:meth:`LogicalLog.bookkeeping
        #: <repro.storage.logical_log.LogicalLog.bookkeeping>`).
        self.submitted = False
        #: Leader-group sizes seen so far: {group size: occurrences}.
        self.group_sizes: dict[int, int] = {}
        self.commits = 0
        self.committed_ops = 0
        self.forces = 0
        self._instruments: tuple | None = None
        self._ctr_forces = None

    @property
    def pending(self) -> int:
        """Tickets staged but not yet covered by a force."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Session surface
    # ------------------------------------------------------------------

    def submit(
        self, first_seqno: int, last_seqno: int, ops: int, session: int = 0
    ) -> CommitTicket:
        """Stage a commit request; returns immediately with its ticket.

        The caller has already appended the batch's records to the
        logical log (``DurabilityMode.GROUP`` stages without forcing).
        The ticket is acknowledged asynchronously by a leader force;
        use :meth:`wait` (or :meth:`commit`) to block on it.

        A leader force starts when the writer is idle, so work that
        ASYNC wrote behind would hold it.  The first ticket therefore
        waits for the writer, and from then on commits and checkpoints
        run on their caller's clock, as under GROUP.
        """
        if last_seqno < first_seqno:
            raise ValueError(
                f"empty commit range [{first_seqno}, {last_seqno}]"
            )
        if not self.submitted:
            self.submitted = True
            self.drain()
        ticket = CommitTicket(
            session=session,
            first_seqno=first_seqno,
            last_seqno=last_seqno,
            ops=ops,
            enqueued_at=self._clock.now,
        )
        self._pending.append(ticket)
        self._drain_ready()
        return ticket

    def commit(
        self,
        first_seqno: int,
        last_seqno: int,
        ops: int,
        session: int = 0,
        wait: bool = True,
    ) -> CommitTicket:
        """Submit and (by default) block until the ticket is durable."""
        ticket = self.submit(first_seqno, last_seqno, ops, session=session)
        if wait:
            self.wait(ticket)
        return ticket

    def wait(self, ticket: CommitTicket) -> CommitTicket:
        """Advance virtual time until ``ticket`` is acknowledged."""
        clock = self._clock
        while ticket.durable_at is None:
            self._drain_ready()
            if ticket.durable_at is None and self.writer.busy(clock):
                clock.advance_to(self.writer.now)
        clock.advance_to(ticket.durable_at)
        return ticket

    def drain(self, until: float | None = None) -> None:
        """Force every pending group (a flush/close durability barrier),
        then wait for the log writer: until it is idle, or only until
        ``until``, the end of the one piece of its work the caller
        needs (an append, a manifest commit)."""
        clock = self._clock
        while self._pending:
            self._drain_ready()
            if self._pending and self.writer.busy(clock):
                clock.advance_to(self.writer.now)
        clock.advance_to(self.writer.now if until is None else until)

    def crash(self) -> None:
        """Unacknowledged tickets die with the process."""
        self._pending.clear()

    @property
    def forces_per_commit(self) -> float:
        """Device forces per committed batch (1.0 = no amortization)."""
        if self.commits == 0:
            return 0.0
        return self.forces / self.commits

    @property
    def forces_per_op(self) -> float:
        """Device forces per committed operation (SYNC would be 1.0)."""
        if self.committed_ops == 0:
            return 0.0
        return self.forces / self.committed_ops

    # ------------------------------------------------------------------
    # The log writer
    # ------------------------------------------------------------------

    def _drain_ready(self) -> None:
        """Force every group whose leader has had time to start.

        A force starting at time *t* covers exactly the tickets
        enqueued by *t*; tickets enqueued during the force form the
        next group.  The loop stops when the log writer is ahead of
        the foreground clock (a force is still in flight from the
        caller's point of view).
        """
        clock = self._clock
        writer = self.writer
        while self._pending and not writer.busy(clock):
            pending = self._pending
            start = max(writer.now, pending[0].enqueued_at)
            cut = len(pending)
            for index, ticket in enumerate(pending):
                if ticket.enqueued_at > start:
                    cut = index
                    break
            self._pending = pending[cut:]
            self._force_group(pending[:cut], start)

    def _force_group(self, tickets: list[CommitTicket], start: float) -> None:
        stasis = self.stasis
        log = stasis.logical_log
        writer = self.writer
        writer.advance_to(start)
        instruments = self._instruments
        if instruments is None:
            instruments = self._bind_instruments()
        commits, ops_ctr, group_size, queue_delay = instruments
        if log.file.pending:
            # The leader's force runs on the log writer:
            # followers and concurrent reads never charge for it, they
            # only feel it through the ticket's durable_at.
            with stasis.clock.running_on(writer):
                log.force()
            self.forces += 1
            forces = self._ctr_forces
            if forces is None:
                forces = self._ctr_forces = stasis.runtime.metrics.counter(
                    "commit.forces"
                )
            forces.inc()
        else:
            # Another force wrote the group's records (a manifest
            # commit's, on the caller's clock): durable once it is done.
            writer.advance_to(stasis.log_disk.busy_until)
        durable_at = writer.now
        durable_lsn = log.durable_seqno
        size = len(tickets)
        tickets[0].leader = True
        ops = 0
        for ticket in tickets:
            ticket.durable_at = durable_at
            ticket.durable_lsn = durable_lsn
            ticket.group_size = size
            ops += ticket.ops
            queue_delay.observe(max(0.0, durable_at - ticket.enqueued_at))
        self.commits += size
        self.committed_ops += ops
        self.group_sizes[size] = self.group_sizes.get(size, 0) + 1
        commits.inc(size)
        ops_ctr.inc(ops)
        group_size.observe(float(size))

    def _bind_instruments(self) -> tuple:
        """Look the commit metrics up once, on the first group: a
        registry lookup per force was measurable on the commit path.
        ``commit.forces`` is bound on the first force that writes, so an
        engine whose groups never force (SYNC) does not register it."""
        metrics = self.stasis.runtime.metrics
        self._instruments = (
            metrics.counter("commit.commits"),
            metrics.counter("commit.ops"),
            metrics.histogram("commit.group_size"),
            metrics.histogram("commit.queue_delay"),
        )
        return self._instruments

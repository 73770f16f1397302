"""Physical write-ahead log for metadata and space allocation.

Stasis "uses a write ahead log to manage bLSM's metadata and space
allocation; this log ensures a physically consistent version of the tree is
available at crash" (Section 4.4.2).  Index and data page contents are
*not* logged — merges force-write whole tree components through the page
file instead — so this log only carries small manifest records (which tree
components exist, their extents and key counts): version edits over a
periodically rewritten full manifest (:class:`~repro.storage.stasis.Stasis`).
The sharded router journals its migrations in one too
(:mod:`repro.shard.migration`).

Records take consecutive LSNs and replay in LSN order; ``truncate``
drops those below an LSN.  The :class:`~repro.storage.logfile.LogFile`
under the log writes and reads them.  A manifest record is only safe to
replay whole and in order, so replay **truncates the torn tail** at a
record a torn force cut short (the tail rolls back over it and all after
it), while a corruption mark raises :class:`~repro.errors.CorruptionError`:
a mid-log manifest cannot be safely dropped.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from repro.errors import LogError
from repro.sim.disk import SimDisk
from repro.storage.checksum import payload_checksum
from repro.storage.logfile import LogFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor

_RECORD_OVERHEAD = 32  # simulated on-disk framing per log record


def record_bytes(payload: Any) -> int:
    """Simulated size of a record carrying ``payload``: framing plus the
    length of its ``repr``."""
    return _RECORD_OVERHEAD + len(repr(payload))


class WALRecord(NamedTuple):
    """One physical log record (an immutable tuple)."""

    lsn: int
    kind: str
    payload: Any
    nbytes: int
    checksum: int = 0

    def crc(self) -> int:
        """The payload's checksum, recomputed."""
        return payload_checksum(self[0], self[1], self[2])

    def __str__(self) -> str:
        return f"WAL record lsn={self[0]} kind={self[1]!r}"


class WriteAheadLog:
    """Append-only physical log with explicit force and truncation.

    Records appended but not yet forced are lost by a simulated crash.
    """

    def __init__(
        self, disk: SimDisk, retry: "RetryExecutor | None" = None
    ) -> None:
        self.file = LogFile(disk, retry, "wal.force")
        self._next_lsn = 0
        self.torn_truncations = 0  # torn tails dropped at replay

    disk = property(lambda self: self.file.disk, doc="The log's device.")
    retry = property(
        lambda self: self.file.retry, doc="What absorbs transient faults."
    )
    next_lsn = property(
        lambda self: self._next_lsn, doc="The LSN the next record takes."
    )
    head_offset = property(
        lambda self: self.file.head, doc="Where replay starts reading."
    )
    tail_offset = property(
        lambda self: self.file.tail, doc="Where the next force writes."
    )
    pending_records = property(
        lambda self: len(self.file.pending), doc="Records the next force writes."
    )

    durable_lsn = property(
        lambda self: self.file.durable[-1].lsn + 1 if self.file.durable else 0,
        doc="One past the LSN of the newest forced record.",
    )
    live_bytes = property(
        lambda self: sum(map(attrgetter("nbytes"), self.file.durable)),
        doc="Bytes of the durable records.",
    )

    def append(self, kind: str, payload: Any, nbytes: int | None = None) -> int:
        """Buffer a ``kind`` record of ``payload`` (``nbytes`` on disk,
        estimated from its repr by default); return its LSN.  It becomes
        durable at the next ``force``."""
        if nbytes is None:
            nbytes = record_bytes(payload)
        lsn = self._next_lsn
        checksum = payload_checksum(lsn, kind, payload) if self.file.checksummed else 0
        self.file.append(WALRecord(lsn, kind, payload, nbytes, checksum))
        self._next_lsn += 1
        return lsn

    def force(self) -> float:
        """Write all buffered records sequentially; return service time."""
        return self.file.force(sync=False)

    def truncate(self, lsn: int) -> None:
        """Discard durable records with LSN strictly below ``lsn``, so
        replay reads only from the oldest retained one."""
        if lsn > self._next_lsn:
            raise LogError(f"cannot truncate past next LSN ({lsn} > {self._next_lsn})")
        self.file.keep([record[0] >= lsn for record in self.file.durable])

    def records(self) -> Iterator[WALRecord]:
        """Iterate durable records in LSN order (replay order), charging
        one read from the head to the tail (the paper notes replay "is
        extremely expensive").  A torn record truncates the tail: it and
        every later record are dropped, never replayed."""
        for record, torn in self.file.replay():
            if torn:
                self._truncate_torn_tail(record)
                return
            yield record

    def _truncate_torn_tail(self, record: WALRecord) -> None:
        """Drop the torn record and all after it; appends after recovery
        overwrite its bytes, as a log manager reuses its tail."""
        dropped = self.file.cut(record)
        self.torn_truncations += 1
        runtime = self.disk.runtime
        if runtime is not None:
            runtime.metrics.counter("wal.torn_tail_truncations").inc()
            runtime.trace.emit(
                "wal_torn_tail", from_lsn=record.lsn, dropped=dropped
            )

    def crash(self) -> None:
        """Simulate a crash: unforced records are lost."""
        self.file.crash()

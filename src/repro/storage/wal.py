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
drops those below an LSN.  They are one record stream of a
:class:`~repro.storage.logfile.LogFile`, which a tree's WAL shares with
its logical log.
"""

from __future__ import annotations

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

    torn_counter = "wal.torn_tail_truncations"

    def crc(self) -> int:
        """The payload's checksum, recomputed."""
        return payload_checksum(self[0], self[1], self[2])

    def __str__(self) -> str:
        return f"WAL record lsn={self[0]} kind={self[1]!r}"


_MINE = WALRecord.__instancecheck__  # whether a record is this log's


class WriteAheadLog:
    """Append-only physical log with explicit force and truncation.

    ``disk`` is the log's device, or the :class:`LogFile` of a log whose
    tail this one shares.  Records appended but not yet forced are lost
    by a simulated crash.
    """

    def __init__(
        self, disk: SimDisk | LogFile, retry: "RetryExecutor | None" = None
    ) -> None:
        shared = isinstance(disk, LogFile)
        self.file = disk if shared else LogFile(disk, retry, "wal.force")
        self._next_lsn = 0

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
        lambda self: sum(map(_MINE, self.file.pending)),
        doc="Records the next force writes.",
    )
    durable_lsn = property(
        lambda self: self.file.top.get(WALRecord, -1) + 1,
        doc="One past the LSN of the newest forced record.",
    )
    live_bytes = property(
        lambda self: sum(record.nbytes for record, _ in self.file.of(WALRecord)),
        doc="Bytes of the durable records.",
    )
    torn_truncations = property(
        lambda self: self.file.cuts.get(WALRecord, 0),
        doc="Torn records the log was cut at.",
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
        """Write every staged record of the file; return service time."""
        return self.file.force(sync=False)

    def truncate(self, lsn: int) -> None:
        """Discard durable records with LSN strictly below ``lsn``, so
        replay reads only from the oldest retained one."""
        if lsn > self._next_lsn:
            raise LogError(f"cannot truncate past next LSN ({lsn} > {self._next_lsn})")
        mine = filter(_MINE, self.file.durable)
        self.file.keep(WALRecord, [record[0] >= lsn for record in mine])

    def records(self) -> Iterator[WALRecord]:
        """Iterate durable records in LSN order (replay order), charging
        one read from the head to the tail (the paper notes replay "is
        extremely expensive")."""
        return self.file.replay(WALRecord)

    def crash(self) -> None:
        """Simulate a crash: unforced records are lost."""
        self.file.crash()

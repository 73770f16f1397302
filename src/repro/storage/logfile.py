"""One append-only log on a simulated device: the file under every log.

Stasis keeps two logs with two jobs (Section 4.4.2), the physical
:class:`~repro.storage.wal.WriteAheadLog` (the manifest; also the
router's migration journal) and the per-write
:class:`~repro.storage.logical_log.LogicalLog`.  As LevelDB serves its
write-ahead log and its MANIFEST with one record format, both are this
type and differ only in what their records mean.

A force writes the staged records back to back at the tail in one
device write (behind a sync barrier if asked; retried through an
optional :class:`~repro.faults.retry.RetryExecutor`), placing them once:
base offset plus cumulative sizes.  A :class:`~repro.errors.CrashPoint`
mid-write tears it: whole records are durable, the straddler is durable
with its persisted prefix placed (its read-back fails; what that means
is the owner's call), the rest are lost.  Replay reads ``[head, tail)``
once, from the oldest durable record, and checks each record's CRC
against what the device returns; a corruption mark raises
:class:`~repro.errors.CorruptionError`.  A plain
:class:`~repro.sim.disk.SimDisk` can neither corrupt nor tear, so its
records skip the CRC.

A record is a tuple whose item 0 is its id (an LSN or seqno, unique and
rising in log order), with ``nbytes``, the stored ``checksum``,
``crc()`` (the checksum recomputed) and a ``str`` naming it for errors.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import CorruptionError, CrashPoint
from repro.sim.disk import SimDisk
from repro.storage.checksum import CORRUPTION_MASK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor

_SIZE = attrgetter("nbytes")
_ID = itemgetter(0)


class LogFile:
    """A log's staged and durable records and where they lie on ``disk``;
    ``what`` names a retried force to ``retry``."""

    def __init__(
        self, disk: SimDisk, retry: "RetryExecutor | None", what: str
    ) -> None:
        self.disk = disk
        self.retry = retry
        self.what = what
        self.pending: list[Any] = []  # staged, in log order
        self.pending_bytes = 0
        self.durable: list[Any] = []  # forced, in log order
        self.placed: list[int] = []  # the offset of each durable record
        self.torn: dict[int, int] = {}  # id -> bytes a tear left of it
        self.tail = 0  # where the next force writes
        self.top = -1  # highest id a force fully persisted
        self.checksummed = type(disk).corrupted is not SimDisk.corrupted

    @property
    def head(self) -> int:
        """The offset of the oldest durable record (the tail if none)."""
        return min(self.placed) if self.placed else self.tail

    def append(self, record: Any) -> None:
        """Stage ``record`` for the next :meth:`force`."""
        self.pending.append(record)
        self.pending_bytes += record.nbytes

    def force(self, sync: bool) -> float:
        """Write the staged records at the tail, behind a sync barrier if
        ``sync``; return the service time.  A torn write is absorbed and
        re-raised: the process is dead."""
        pending = self.pending
        if not pending:
            return 0.0
        offset = self.tail
        nbytes = self.pending_bytes
        if sync:
            self.disk.sync_barrier()
        try:
            if self.retry is None:
                service = self.disk.write(offset, nbytes)
            else:
                service = self._write(offset, nbytes)
        except CrashPoint as crash:
            self._absorb_torn_force(offset, crash.persisted_bytes)
            raise
        self.placed.extend(accumulate(map(_SIZE, pending[:-1]), initial=offset))
        self.durable.extend(pending)
        self.top = max(self.top, max(map(_ID, pending)))
        self.tail = offset + nbytes
        pending.clear()
        self.pending_bytes = 0
        return service

    def _write(self, offset: int, nbytes: int) -> float:
        return self.retry.run(lambda: self.disk.write(offset, nbytes), what=self.what)

    def _absorb_torn_force(self, offset: int, persisted: int) -> None:
        end = offset + persisted
        cursor = offset
        for record in self.pending:
            if cursor >= end:
                break  # past the tear: never reached the device
            self.durable.append(record)
            self.placed.append(cursor)
            if cursor + record.nbytes > end:
                self.torn[record[0]] = end - cursor
            else:
                self.top = max(self.top, record[0])
            cursor += record.nbytes
        self.tail = end
        self.crash()

    def checkpoint(self, nbytes: int) -> float:
        """Write ``nbytes`` of the owner's bookkeeping at the tail."""
        service = self.disk.write(self.tail, nbytes)
        self.tail += nbytes
        return service

    def keep(self, mask: list[bool]) -> None:
        """Keep the durable records ``mask`` flags, drop the others."""
        self.durable = list(compress(self.durable, mask))
        self.placed = list(compress(self.placed, mask))
        if self.torn:
            self._forget_torn()

    def cut(self, record: Any) -> int:
        """Drop ``record`` and every later durable record, and roll the
        tail back to its offset; return how many were dropped."""
        index = self.durable.index(record)
        dropped = len(self.durable) - index
        self.tail = self.placed[index]
        del self.durable[index:], self.placed[index:]
        self._forget_torn()
        return dropped

    def _forget_torn(self) -> None:
        live = set(map(_ID, self.durable))
        self.torn = {id_: n for id_, n in self.torn.items() if id_ in live}

    def placements(self) -> Iterator[tuple[Any, int, int]]:
        """Each durable record in log order, its offset, and how many of
        its bytes the device holds (fewer than its size if torn)."""
        torn = self.torn
        for record, offset in zip(self.durable, self.placed):
            yield record, offset, torn.get(record[0], record.nbytes)

    def replay(self) -> Iterator[tuple[Any, bool]]:
        """Read ``[head, tail)`` once; yield each durable record in id
        order with whether a torn force left it unreadable."""
        if not self.durable:
            return
        head = self.head
        self.disk.read(head, self.tail - head)
        placed = sorted(self.placements(), key=lambda entry: entry[0][0])
        for record, offset, nbytes in placed:
            if self._readback_checksum(record, offset, nbytes) == record.checksum:
                yield record, False
            elif nbytes < record.nbytes:
                yield record, True
            else:
                raise CorruptionError(f"{record} failed checksum verification")

    def _readback_checksum(self, record: Any, offset: int, nbytes: int) -> int:
        """The checksum as recomputed from what the device returns."""
        torn = nbytes < record.nbytes
        if not self.checksummed:  # a tear is tracked even so
            return record.checksum ^ CORRUPTION_MASK if torn else record.checksum
        damaged = torn or self.disk.corrupted(offset, nbytes)
        return record.crc() ^ CORRUPTION_MASK if damaged else record.crc()

    def crash(self) -> None:
        """Simulate a crash: staged records are lost."""
        self.pending.clear()
        self.pending_bytes = 0

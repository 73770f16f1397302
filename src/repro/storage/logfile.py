"""One append-only log on a simulated device: the file under every log.

Stasis keeps two logs with two jobs on one log device (Section 4.4.2),
the physical :class:`~repro.storage.wal.WriteAheadLog` (the manifest)
and the per-write :class:`~repro.storage.logical_log.LogicalLog`: two
record *streams* of one file, one tail.  A stream is a record type; its
ids (LSNs, seqnos) collide with the other's, so each stream keeps its
own top id, truncation point and replay order.

A force writes every staged record of every stream at the tail in one
device write (behind a sync barrier if asked; retried through an
optional :class:`~repro.faults.retry.RetryExecutor`), so a manifest
commit forces the logical writes staged ahead of it: no component
becomes durable before the writes it holds.  A torn force
(:class:`~repro.errors.CrashPoint` mid-write) is **cut** at the torn
record by the next replay: it and every later record are dropped and
the tail rolls back, so a prefix of the log survives.  Replay reads
``[head, tail)`` once until the next write or crash, so a recovery
reads the device once for all streams; a corruption mark raises
:class:`~repro.errors.CorruptionError` for its record's stream only.

A record is a tuple whose item 0 is its id (unique and rising in log
order within its stream), with ``nbytes``, the stored ``checksum``,
``crc()`` (the checksum recomputed), a ``str`` naming it for errors and
``torn_counter``, the metric a cut at it counts under.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress
from operator import attrgetter, itemgetter, not_
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import CorruptionError, CrashPoint
from repro.sim.disk import SimDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor

_SIZE = attrgetter("nbytes")
_ID = itemgetter(0)


class LogFile:
    """The staged and durable records of every stream on one log, and
    where they lie on ``disk``; ``what`` names a retried force to
    ``retry``."""

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
        self.torn_at: int | None = None  # where a torn force's straddler lies
        self.tail = 0  # where the next force writes
        self.top: dict[type, int] = {}  # stream -> highest id fully forced
        self.cuts: dict[type, int] = {}  # stream -> tears cut at its records
        self.checksummed = type(disk).corrupted is not SimDisk.corrupted
        self._read = False  # whether a replay read [head, tail) as it is

    @property
    def head(self) -> int:
        """The offset of the oldest durable record (the tail if none)."""
        return self.placed[0] if self.placed else self.tail

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
        self._read = False
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
        # Ids rise in log order within a stream: each stream's last
        # staged record holds its new top.
        self.top.update(zip(map(type, pending), map(_ID, pending)))
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
                self.torn_at = cursor
            else:
                self.top[type(record)] = record[0]
            cursor += record.nbytes
        self.tail = end
        self.crash()

    def checkpoint(self, nbytes: int) -> float:
        """Write ``nbytes`` of an owner's bookkeeping at the tail."""
        self._read = False
        service = self.disk.write(self.tail, nbytes)
        self.tail += nbytes
        return service

    def of(self, stream: type) -> Iterator[tuple[Any, int]]:
        """The durable records of ``stream`` and their offsets, in log
        order."""
        mine = map(stream.__instancecheck__, self.durable)
        return compress(zip(self.durable, self.placed), mine)

    def keep(self, stream: type, flags: list[bool]) -> None:
        """Keep the durable records of ``stream`` that ``flags`` flags
        (one flag per record, in log order) and drop the others; the
        other streams' records stay."""
        offsets = compress(self.placed, map(stream.__instancecheck__, self.durable))
        dead = set(compress(offsets, map(not_, flags)))
        if dead:
            live = list(map(not_, map(dead.__contains__, self.placed)))
            self.durable = list(compress(self.durable, live))
            self.placed = list(compress(self.placed, live))

    def replay(self, stream: type) -> Iterator[Any]:
        """Yield the durable records of ``stream`` in id order.

        The first replay since the last write or crash reads ``[head,
        tail)`` once and cuts the log at a torn record; a corruption
        mark on one of ``stream``'s records raises."""
        if not self._read:
            if self.placed:
                self.disk.read(self.placed[0], self.tail - self.placed[0])
            self._read = True
        if self.torn_at is not None:
            self._cut()
        checksummed = self.checksummed
        for record, offset in sorted(self.of(stream), key=lambda e: e[0][0]):
            if checksummed and (
                self.disk.corrupted(offset, record.nbytes)
                or record.crc() != record.checksum
            ):
                raise CorruptionError(f"{record} failed checksum verification")
            yield record

    def _cut(self) -> None:
        """Drop the torn record and every record after it, and roll the
        tail back to its offset: appends after recovery overwrite its
        bytes, as a log manager reuses its tail."""
        offset, self.torn_at = self.torn_at, None
        index = bisect_left(self.placed, offset)
        cut = self.durable[index:]
        del self.durable[index:], self.placed[index:]
        self.tail = offset
        if cut:
            stream = type(cut[0])
            self.cuts[stream] = self.cuts.get(stream, 0) + 1
            runtime = self.disk.runtime
            if runtime is not None:
                runtime.metrics.counter(cut[0].torn_counter).inc()
                runtime.trace.emit("log_torn_cut", record=str(cut[0]), dropped=len(cut))

    def crash(self) -> None:
        """Simulate a crash: staged records are lost."""
        self.pending.clear()
        self.pending_bytes = 0
        self._read = False

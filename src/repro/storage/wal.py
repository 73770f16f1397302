"""Physical write-ahead log for metadata and space allocation.

Stasis "uses a write ahead log to manage bLSM's metadata and space
allocation; this log ensures a physically consistent version of the tree is
available at crash" (Section 4.4.2).  Index and data page contents are
*not* logged — merges force-write whole tree components through the page
file instead — so this log only carries small manifest records (which tree
components exist, their extents and key counts): version edits over a
periodically rewritten full manifest (:class:`~repro.storage.stasis.Stasis`).

The log lives on its own simulated device so appends are strictly
sequential, as the paper expects of dedicated logging hardware
(Section 5.1).

Hardening (fault-injection layer):

* Every record carries a CRC computed at append time.  A torn force — a
  :class:`~repro.errors.CrashPoint` raised mid-write by a faulty device —
  leaves the straddling record on disk with a bad checksum; replay
  detects it and **truncates the torn tail** instead of replaying
  garbage.  A corruption mark on a record's byte range (silent decay)
  raises :class:`~repro.errors.CorruptionError` instead, because a
  mid-log manifest cannot be safely dropped.
* ``truncate`` advances a durable *head offset*, so replay reads are
  charged from the head rather than from offset 0 — the log's replay
  cost stays proportional to its live tail, not its lifetime.
* An optional :class:`~repro.faults.retry.RetryExecutor` wraps the
  force-path device writes, absorbing transient faults with backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import CorruptionError, CrashPoint, LogError
from repro.sim.disk import SimDisk
from repro.storage.checksum import CORRUPTION_MASK, payload_checksum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor

_RECORD_OVERHEAD = 32  # simulated on-disk framing per log record


def record_bytes(payload: Any) -> int:
    """Simulated size of a record carrying ``payload``: framing plus the
    length of its ``repr``."""
    return _RECORD_OVERHEAD + len(repr(payload))


@dataclass(frozen=True)
class WALRecord:
    """One physical log record."""

    lsn: int
    kind: str
    payload: Any
    nbytes: int
    checksum: int = 0


class WriteAheadLog:
    """Append-only physical log with explicit force and truncation.

    Records appended but not yet forced are lost by a simulated crash.
    """

    def __init__(
        self, disk: SimDisk, retry: "RetryExecutor | None" = None
    ) -> None:
        self.disk = disk
        self.retry = retry
        self._records: list[WALRecord] = []  # durable (forced) records
        self._pending: list[WALRecord] = []  # appended, not yet forced
        self._next_lsn = 0
        self._head_offset = 0  # byte position of the oldest live record
        self._tail_offset = 0  # byte position appends continue from
        self._offsets: dict[int, tuple[int, int]] = {}  # lsn -> (offset, nbytes)
        self._torn: set[int] = set()  # lsns whose write was torn mid-record
        self.torn_truncations = 0  # torn tails dropped at replay
        # Plain SimDisk can neither corrupt nor tear, so read-back
        # verification can never fail there; skip the per-append
        # checksum (hot path) on such devices.  FaultyDisk overrides
        # ``corrupted`` and keeps full checksumming.
        self._checksummed = type(disk).corrupted is not SimDisk.corrupted

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record will receive."""
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        """One past the LSN of the newest forced record."""
        return self._records[-1].lsn + 1 if self._records else 0

    @property
    def head_offset(self) -> int:
        """Device offset replay starts from (advanced by ``truncate``)."""
        return self._head_offset

    @property
    def live_bytes(self) -> int:
        """Bytes of durable records replay would read."""
        return sum(record.nbytes for record in self._records)

    @property
    def tail_offset(self) -> int:
        """Device offset the next force appends at."""
        return self._tail_offset

    @property
    def pending_records(self) -> int:
        """Appended records the next force will make durable."""
        return len(self._pending)

    def append(self, kind: str, payload: Any, nbytes: int | None = None) -> int:
        """Buffer a record; it becomes durable at the next ``force``.

        Args:
            kind: record type tag, interpreted by recovery.
            payload: arbitrary immutable payload.
            nbytes: simulated record size; estimated from ``payload`` repr
                length when omitted.

        Returns:
            The LSN assigned to the record.
        """
        if nbytes is None:
            nbytes = record_bytes(payload)
        lsn = self._next_lsn
        record = WALRecord(
            lsn,
            kind,
            payload,
            nbytes,
            payload_checksum(lsn, kind, payload) if self._checksummed else 0,
        )
        self._next_lsn += 1
        self._pending.append(record)
        return record.lsn

    def force(self) -> float:
        """Write all buffered records sequentially; return service time.

        A :class:`~repro.errors.CrashPoint` raised by the device mid-write
        models a torn force: records whose bytes fully reached the device
        stay durable, the record straddling the tear stays on disk with a
        broken checksum (found at replay), and everything after it is
        lost.  The crash is re-raised — the process is dead.
        """
        if not self._pending:
            return 0.0
        nbytes = sum(record.nbytes for record in self._pending)
        offset = self._tail_offset
        try:
            service = self._write(offset, nbytes)
        except CrashPoint as crash:
            self._absorb_torn_force(offset, crash.persisted_bytes)
            raise
        cursor = offset
        for record in self._pending:
            self._offsets[record.lsn] = (cursor, record.nbytes)
            cursor += record.nbytes
        self._tail_offset += nbytes
        self._records.extend(self._pending)
        self._pending.clear()
        return service

    def _write(self, offset: int, nbytes: int) -> float:
        if self.retry is not None:
            return self.retry.run(
                lambda: self.disk.write(offset, nbytes), what="wal.force"
            )
        return self.disk.write(offset, nbytes)

    def _absorb_torn_force(self, offset: int, persisted: int) -> None:
        """Account a force interrupted after ``persisted`` bytes."""
        cursor = 0
        for record in self._pending:
            if cursor + record.nbytes <= persisted:
                # Fully on the platter before the tear: durable and intact.
                self._offsets[record.lsn] = (offset + cursor, record.nbytes)
                self._records.append(record)
            elif cursor < persisted:
                # Straddles the tear: its prefix is on disk, with a broken
                # checksum; the placement covers only that prefix.
                self._offsets[record.lsn] = (offset + cursor, persisted - cursor)
                self._records.append(record)
                self._torn.add(record.lsn)
            # Past the tear: never reached the device.
            cursor += record.nbytes
        self._tail_offset = offset + persisted
        self._pending.clear()

    def truncate(self, lsn: int) -> None:
        """Discard durable records with LSN strictly below ``lsn``.

        Advances the durable head offset to the oldest retained record, so
        subsequent replays are charged only for the live tail.
        """
        if lsn > self._next_lsn:
            raise LogError(f"cannot truncate past next LSN ({lsn} > {self._next_lsn})")
        kept = [record for record in self._records if record.lsn >= lsn]
        for record in self._records:
            if record.lsn < lsn:
                self._offsets.pop(record.lsn, None)
                self._torn.discard(record.lsn)
        self._records = kept
        if kept:
            self._head_offset = min(
                self._offsets[r.lsn][0] for r in kept if r.lsn in self._offsets
            )
        else:
            self._head_offset = self._tail_offset

    def records(self, from_lsn: int = 0) -> Iterator[WALRecord]:
        """Iterate durable records with LSN >= ``from_lsn`` (replay order).

        Charges a sequential read of the replayed bytes from the durable
        head (the paper notes replay "is extremely expensive"): what
        reached the device, so a torn record only its persisted prefix.  Each
        record's checksum is verified against what the device returns: a
        torn record truncates the tail (it and everything after it are
        dropped, never replayed); a corrupted record raises
        :class:`~repro.errors.CorruptionError`.
        """
        selected = [record for record in self._records if record.lsn >= from_lsn]
        offsets = self._offsets
        nbytes = sum(offsets[record.lsn][1] for record in selected)
        if nbytes:
            self.disk.read(self._head_offset, nbytes)
        for record in selected:
            if self._readback_checksum(record) != record.checksum:
                if record.lsn in self._torn:
                    self._truncate_torn_tail(record.lsn)
                    return
                raise CorruptionError(
                    f"WAL record lsn={record.lsn} kind={record.kind!r} "
                    f"failed checksum verification"
                )
            yield record

    def _readback_checksum(self, record: WALRecord) -> int:
        """The checksum as recomputed from what the device returns."""
        if not self._checksummed:
            # No corruption marks exist on this device class, but a tear
            # (CrashPoint mid-force) is tracked in memory regardless of
            # checksumming — keep detecting it without recomputing CRCs.
            if record.lsn in self._torn:
                return record.checksum ^ CORRUPTION_MASK
            return record.checksum
        placement = self._offsets.get(record.lsn)
        damaged = record.lsn in self._torn or (
            placement is not None and self.disk.corrupted(*placement)
        )
        actual = payload_checksum(record.lsn, record.kind, record.payload)
        return actual ^ CORRUPTION_MASK if damaged else actual

    def _truncate_torn_tail(self, lsn: int) -> None:
        """Drop the torn record and everything after it (replay-time).

        Also rolls the tail offset back to where the torn record began:
        its partial bytes are garbage, and leaving the tail past them
        would strand dead space inside the live extent — ``live_bytes``
        would claim bytes the device no longer meaningfully holds, and
        the ``head <= record extents <= tail`` accounting invariant
        (pinned by the WAL property test) would drift.  Appends after
        recovery overwrite the torn region, exactly as a real log
        manager re-uses the tail after tail truncation.
        """
        placement = self._offsets.get(lsn)
        dropped = [record for record in self._records if record.lsn >= lsn]
        self._records = [record for record in self._records if record.lsn < lsn]
        for record in dropped:
            self._offsets.pop(record.lsn, None)
            self._torn.discard(record.lsn)
        if placement is not None:
            self._tail_offset = placement[0]
        if not self._records:
            self._head_offset = self._tail_offset
        self.torn_truncations += 1
        runtime = self.disk.runtime
        if runtime is not None:
            runtime.metrics.counter("wal.torn_tail_truncations").inc()
            runtime.trace.emit(
                "wal_torn_tail", from_lsn=lsn, dropped=len(dropped)
            )

    def crash(self) -> None:
        """Simulate a crash: unforced records are lost."""
        self._pending.clear()

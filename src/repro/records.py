"""Record model: base records, deltas and tombstones.

Section 3.1.1 is built on the distinction between *base records* (a full
value) and *deltas* (a partial update that must be folded onto an older
version).  Reads walk tree components from newest to oldest and may stop at
the first **base record or tombstone** — early termination — because
updates to the same key are placed in tree levels consistent with their
write order.  Reads that encounter deltas must keep collecting until a base
record is found, then fold the deltas on in chronological order.

Delta semantics in this reproduction are byte-append: applying delta ``d``
to value ``v`` yields ``v + d``.  Any associative reconstruction rule would
exercise the same code paths; append keeps tests legible.

Tombstones record deletions: on-disk components are immutable, so a delete
is a write that wins over older versions until the tombstone reaches the
largest component and can be discarded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from dataclasses import field as _field

RECORD_HEADER_BYTES = 16  # simulated per-record framing on a data page


class RecordKind(enum.IntEnum):
    """What a stored version of a key represents."""

    BASE = 0
    DELTA = 1
    TOMBSTONE = 2


@dataclass(frozen=True, slots=True)
class Record:
    """One immutable version of a key.

    Attributes:
        key: the record key.
        value: full value for ``BASE``, partial update for ``DELTA``,
            empty for ``TOMBSTONE``.
        kind: what this version represents.
        seqno: global write sequence number; larger is newer.
        first_seqno: the oldest write folded into this record, or ``-1``
            meaning "just :attr:`seqno`".  A record produced by folding
            covers a whole range of writes; exact log retention keeps
            every log record in ``[coverage_start, seqno]`` so crash
            replay can reconstruct the fold.
    """

    key: bytes
    value: bytes
    kind: RecordKind
    seqno: int
    first_seqno: int = -1
    nbytes: int = _field(init=False, repr=False, compare=False)
    """Simulated on-disk footprint; precomputed because merge and
    memtable accounting read it several times per record and a derived
    property showed up in hot-path profiles."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "nbytes",
            RECORD_HEADER_BYTES + len(self.key) + len(self.value),
        )

    @property
    def coverage_start(self) -> int:
        """Oldest write this record's value incorporates."""
        return self.first_seqno if self.first_seqno >= 0 else self.seqno

    @property
    def is_base(self) -> bool:
        return self.kind is RecordKind.BASE

    @property
    def is_delta(self) -> bool:
        return self.kind is RecordKind.DELTA

    @property
    def is_tombstone(self) -> bool:
        return self.kind is RecordKind.TOMBSTONE

    def checksum_bytes(self) -> bytes:
        """Canonical byte rendering for payload checksums.

        :func:`repro.storage.checksum.payload_checksum` duck-types this
        method; one C-level ``%`` format replaces the dataclass ``repr``
        the generic renderer would otherwise fall back to, which
        dominated hot-path profiles (every page write and verify
        checksums its records).
        """
        return b"R%d,%d,%d,%d:%s,%d:%s;" % (
            self.kind,
            self.seqno,
            self.first_seqno,
            len(self.key),
            self.key,
            len(self.value),
            self.value,
        )

    @staticmethod
    def base(
        key: bytes, value: bytes, seqno: int, first_seqno: int = -1
    ) -> "Record":
        return Record(key, value, RecordKind.BASE, seqno, first_seqno)

    @staticmethod
    def delta(
        key: bytes, value: bytes, seqno: int, first_seqno: int = -1
    ) -> "Record":
        return Record(key, value, RecordKind.DELTA, seqno, first_seqno)

    @staticmethod
    def tombstone(key: bytes, seqno: int, first_seqno: int = -1) -> "Record":
        return Record(key, b"", RecordKind.TOMBSTONE, seqno, first_seqno)


def apply_delta(base_value: bytes, delta_value: bytes) -> bytes:
    """Fold one delta onto a base value (byte-append semantics)."""
    return base_value + delta_value


def resolve(versions_newest_first: list[Record]) -> bytes | None:
    """Collapse versions of one key into its current value.

    Only deltas with a seqno *greater than* the anchoring record's are
    applied: crash recovery conservatively replays log records that may
    already be folded into a durable component (log truncation lags, and
    snowshoveling lags it further — Section 4.4.2), so a replayed delta
    can reappear "above" a base that already includes it.  Base records
    and tombstones are idempotent under such duplication; the seqno
    guard makes deltas idempotent too.

    Args:
        versions_newest_first: all known versions of a single key, newest
            first (the order reads encounter them when walking C0, C1, C2).

    Returns:
        The current value, or ``None`` if the key is deleted or there is no
        base record to anchor the deltas.
    """
    deltas: list[Record] = []
    for record in versions_newest_first:
        kind = record.kind
        if kind is RecordKind.DELTA:
            # Distinct versions have strictly decreasing seqnos walking
            # down the tree; a delta that does not is a replay duplicate
            # of one already collected.
            if deltas and record.seqno >= deltas[-1].seqno:
                continue
            deltas.append(record)
            continue
        if kind is RecordKind.TOMBSTONE:
            return None
        value = record.value
        for delta_record in reversed(deltas):  # oldest delta first
            if delta_record.seqno > record.seqno:
                value = apply_delta(value, delta_record.value)
        return value
    return None


def fold(newer: Record, older: Record) -> Record:
    """Combine two versions of the same key during a merge.

    Merges keep at most one record per key per component.  A newer base or
    tombstone simply supersedes; a newer delta over an older base folds into
    a new base; a delta over a delta concatenates (still a delta); a delta
    over a tombstone has nothing to apply to and supersedes it as a dangling
    delta.

    A delta folded over a tombstone yields a tombstone: the deletion
    still shadows every older version of the key, and a dangling delta
    resolves to "no value" anyway — but it must not let reads walk past
    it and anchor on an older base in a deeper component.

    A "newer" record whose seqno does not exceed the older one's is a
    crash-replay duplicate (a defensive guard; exact log retention
    prevents these arising): the older record already incorporates it,
    so it folds to the older record unchanged.
    """
    if newer.key != older.key:
        raise ValueError("fold requires records with the same key")
    if newer.seqno <= older.seqno:
        return older  # replayed duplicate; already incorporated
    if not newer.is_delta:
        # A base or tombstone supersedes: coverage is its own.
        return newer
    # A delta extends the older record: coverage spans both.
    coverage = older.coverage_start
    if older.is_base:
        return Record(
            newer.key,
            apply_delta(older.value, newer.value),
            RecordKind.BASE,
            newer.seqno,
            first_seqno=coverage,
        )
    if older.is_delta:
        return Record(
            newer.key,
            apply_delta(older.value, newer.value),
            RecordKind.DELTA,
            newer.seqno,
            first_seqno=coverage,
        )
    # Delta over a tombstone: the deletion must keep shadowing deeper
    # versions, so the fold stays a tombstone (at the delta's seqno).
    return Record(newer.key, b"", RecordKind.TOMBSTONE, newer.seqno,
                  first_seqno=coverage)

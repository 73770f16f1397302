"""The in-memory tree component C0.

C0 is a small update-in-place tree that absorbs application writes
(Section 2.3.1).  It keeps at most one record per key: a newer write
supersedes, and a delta written over a resident version folds immediately
(C0 is update-in-place, unlike the append-only on-disk components), so
reads of hot keys stay cheap.

Two structures hold it: a hash index from key to record, which answers
point reads (``get``) and residency in one dict probe — every application
read checks C0 first, and most of them miss it — and the resident keys
as one sorted list.  An overwrite touches only the index; a new key is
appended when it sorts last and ``insort``-ed otherwise, and a removal
deletes it at its ``bisect`` position.  Ordered walks bisect and then
step along the list, so a merge is one pass: snowshoveling walks the
list from the first key at or after its cursor (Section 4.2) and takes
what a merge step drained out as one slice
(:class:`~repro.memtable.snowshovel.SnowshovelCursor`).

The memtable tracks its approximate byte footprint; the merge scheduler
uses the fill fraction of C0 as its primary progress signal
(Section 4.3).  It is the one in-RAM component type: a frozen C0', the
snowshovel merge overlay and a snapshot's copy of C0 (:meth:`copy`)
are memtables too.

Snapshots read C0 in place (copy-on-write): an open snapshot registers
with :meth:`MemTable.attach_view` and reads through ``get``/``scan``;
the first ``put``/``remove`` that finds views registered tells each to
take its own copy (``view.materialize()``) *before* mutating, then
forgets them.  With no view open a mutation pays one truthiness test.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Iterator

from repro.records import Record, RecordKind, fold


class MemTable:
    """Bounded-memory ordered map of key -> newest :class:`Record`."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._index: dict[bytes, Record] = {}
        self._keys: list[bytes] = []  # the index's keys, sorted
        self.nbytes = 0
        """Approximate bytes of record payload currently held."""
        # Open snapshots reading this table in place; emptied by the
        # first mutation (each view has copied by then) or by release.
        self._views: list[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def fill_fraction(self) -> float:
        """How full C0 is; the spring-and-gear scheduler's input signal."""
        return self.nbytes / self.capacity_bytes

    @property
    def is_empty(self) -> bool:
        return not self._keys

    @property
    def view_count(self) -> int:
        """Snapshots currently reading this table in place."""
        return len(self._views)

    def attach_view(self, view: Any) -> None:
        """Register a reader to be told before the next mutation.

        ``view.materialize()`` is called once, while the table still
        holds exactly what the reader has seen; after that the reader is
        on its own copy and the table no longer knows it.
        """
        self._views.append(view)

    def release_view(self, view: Any) -> None:
        """Forget a registered reader that closed before any mutation."""
        self._views.remove(view)

    def _detach_views(self) -> None:
        views, self._views = self._views, []
        for view in views:
            view.materialize()

    def put(self, record: Record) -> None:
        """Insert a record, folding onto any resident version of the key.

        The index says whether a version is resident.  The common case —
        a base record or tombstone over an older (or absent) version —
        folds to the new record unchanged; a delta *combines* with the
        resident version, and a replayed duplicate (older seqno) folds to
        the resident version itself.
        """
        if self._views:
            self._detach_views()
        key = record.key
        existing = self._index.get(key)
        if existing is None:
            self.nbytes += record.nbytes
            keys = self._keys
            if not keys or key > keys[-1]:
                keys.append(key)
            else:
                insort(keys, key)
        else:
            if (
                record.kind is RecordKind.DELTA
                or record.seqno <= existing.seqno
            ):
                record = fold(record, existing)
            self.nbytes += record.nbytes - existing.nbytes
        self._index[key] = record

    def get(self, key: bytes) -> Record | None:
        """Return the resident record for ``key``, or ``None``."""
        return self._index.get(key)

    def remove(self, key: bytes) -> Record | None:
        """Physically remove a key (used as records drain into C1)."""
        if self._views:
            self._detach_views()
        record = self._index.pop(key, None)
        if record is not None:
            del self._keys[bisect_left(self._keys, key)]
            self.nbytes -= record.nbytes
        return record

    def ordered(self) -> tuple[list[bytes], dict[bytes, Record]]:
        """The sorted key list and the index, read in place and not to be
        changed by the reader.  They are the same two objects for the
        table's life: every change edits them in place."""
        return self._keys, self._index

    def take_slice(
        self, start: int, stop: int, nbytes: int, into: "MemTable"
    ) -> None:
        """Move the records at sorted positions ``[start, stop)``, which
        hold ``nbytes``, to the tail of ``into`` in one slice (a merge
        step drained them).  Every key of ``into`` is below them, and no
        snapshot reads ``into`` in place."""
        if self._views:
            self._detach_views()
        keys = self._keys
        moved = keys[start:stop]
        del keys[start:stop]
        self.nbytes -= nbytes
        into._keys += moved
        into._index.update(zip(moved, map(self._index.pop, moved)))
        into.nbytes += nbytes

    def first_key(self) -> bytes | None:
        """Smallest resident key, or ``None`` when empty."""
        return self._keys[0] if self._keys else None

    def ceiling_key(self, key: bytes) -> bytes | None:
        """Smallest resident key >= ``key``, or ``None``."""
        keys = self._keys
        position = bisect_left(keys, key)
        return keys[position] if position < len(keys) else None

    def ceiling(self, key: bytes) -> Record | None:
        """The record of the smallest resident key >= ``key``, or ``None``."""
        keys = self._keys
        position = bisect_left(keys, key)
        return self._index[keys[position]] if position < len(keys) else None

    def copy(self) -> "MemTable":
        """An independent table with the same records (no views): two
        container copies, no work per record."""
        table = MemTable(self.capacity_bytes)
        table._index = self._index.copy()
        table._keys = self._keys.copy()
        table.nbytes = self.nbytes
        return table

    def __iter__(self) -> Iterator[Record]:
        index = self._index
        for key in self._keys:
            yield index[key]

    def scan(self, lo: bytes, hi: bytes | None) -> Iterator[Record]:
        """Records with lo <= key < hi (hi=None means unbounded)."""
        keys, index = self._keys, self._index
        start = bisect_left(keys, lo)
        end = len(keys) if hi is None else bisect_left(keys, hi, start)
        for position in range(start, end):
            yield index[keys[position]]

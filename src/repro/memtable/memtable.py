"""The in-memory tree component C0.

C0 is a small update-in-place tree that absorbs application writes
(Section 2.3.1).  It keeps at most one record per key: a newer write
supersedes, and a delta written over a resident version folds immediately
(C0 is update-in-place, unlike the append-only on-disk components), so
reads of hot keys stay cheap.

The ordered structure underneath is a skip list
(:class:`~repro.memtable.skiplist.SkipList`): O(log n) updates and
cheap ordered successor steps, so a merge is one pass and snowshoveling
can ``ceiling()`` the live structure (Section 4.2).  Beside it sits a
hash index from key to the same record, kept by ``put`` and ``remove``,
so a point read (``get``) is one dict probe instead of a skip-list
search: every application read checks C0 first, and most of them miss
it.  The skip list stays the only ordered structure — drains, scans
and snapshot copies walk it.

The memtable tracks its approximate byte footprint; the merge scheduler
uses the fill fraction of C0 as its primary progress signal
(Section 4.3).

Snapshots read C0 in place (copy-on-write): an open snapshot registers
with :meth:`MemTable.attach_view` and reads through ``get``/``scan``;
the first ``put``/``remove`` that finds views registered tells each to
take its own copy (``view.materialize()``) *before* mutating, then
forgets them.  With no view open a mutation pays one truthiness test.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.memtable.skiplist import SkipList
from repro.records import Record, RecordKind, fold


class MemTable:
    """Bounded-memory ordered map of key -> newest :class:`Record`."""

    def __init__(self, capacity_bytes: int, seed: int = 0) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._tree = SkipList(seed=seed)
        self._index: dict[bytes, Record] = {}  # the skip list's pairs, hashed
        self._nbytes = 0
        # Open snapshots reading this table in place; emptied by the
        # first mutation (each view has copied by then) or by release.
        self._views: list[Any] = []

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def nbytes(self) -> int:
        """Approximate bytes of record payload currently held."""
        return self._nbytes

    @property
    def fill_fraction(self) -> float:
        """How full C0 is; the spring-and-gear scheduler's input signal."""
        return self._nbytes / self.capacity_bytes

    @property
    def is_empty(self) -> bool:
        return len(self._tree) == 0

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
            self._nbytes += record.nbytes
        else:
            if (
                record.kind is RecordKind.DELTA
                or record.seqno <= existing.seqno
            ):
                record = fold(record, existing)
            self._nbytes += record.nbytes - existing.nbytes
        self._tree.insert(key, record)
        self._index[key] = record

    def get(self, key: bytes) -> Record | None:
        """Return the resident record for ``key``, or ``None``."""
        return self._index.get(key)

    def remove(self, key: bytes) -> Record | None:
        """Physically remove a key (used as records drain into C1)."""
        if self._views:
            self._detach_views()
        record = self._tree.remove(key)
        if record is not None:
            del self._index[key]
            self._nbytes -= record.nbytes
        return record

    def first_key(self) -> bytes | None:
        """Smallest resident key, or ``None`` when empty."""
        pair = self._tree.first()
        return pair[0] if pair else None

    def ceiling_key(self, key: bytes) -> bytes | None:
        """Smallest resident key >= ``key``, or ``None``."""
        pair = self._tree.ceiling(key)
        return pair[0] if pair else None

    def ceiling(self, key: bytes) -> Record | None:
        """The record of the smallest resident key >= ``key``, or ``None``."""
        pair = self._tree.ceiling(key)
        return pair[1] if pair else None

    def __iter__(self) -> Iterator[Record]:
        for _, record in self._tree:
            yield record

    def iter_from(self, key: bytes) -> Iterator[Record]:
        """Records with key >= ``key``, in key order."""
        for _, record in self._tree.iter_from(key):
            yield record

    def scan(self, lo: bytes, hi: bytes | None) -> Iterator[Record]:
        """Records with lo <= key < hi (hi=None means unbounded)."""
        for key, record in self._tree.iter_from(lo):
            if hi is not None and key >= hi:
                break
            yield record

"""MVCC version sets: reference-counted, immutable read views over tree
components.

The bLSM trees' components are already immutable once built — SSTables
never change after ``finish()``, and the update-in-place memtable swaps
whole :class:`~repro.records.Record` objects rather than mutating them.
That makes snapshot isolation cheap: each time a merge changes the
component set, the layout installs an immutable :class:`Version` naming
it; a reader takes one reference on the installed version, and a
superseded component's ``free()`` is deferred until the last version
naming it is released (LevelDB's refcounted ``Version``).

Four pieces:

* :class:`Version` — one installed on-disk component set, one tuple of
  components per key range (an unpartitioned layout has one range).
* :class:`VersionSet` — per-tree holder of the installed version, the
  superseded versions snapshots still reference, and *zombies*
  (components a merge retired while a referenced version named them).
  The tree calls :meth:`VersionSet.install` and then
  :meth:`VersionSet.retire` wherever it used to call ``table.free()``;
  the free happens immediately when no referenced version holds the
  table, or when the last one that does is released.
  ``deferred_frees`` counts how often a snapshot actually held a
  component past its retirement — the direct evidence that a read
  survived a merge install without blocking or restarting.
* :class:`Prefix` — an in-RAM table bounded by its last key when a
  snapshot opened.  Every in-RAM component is a
  :class:`~repro.memtable.memtable.MemTable` (C0, a frozen C0', the
  snowshovel merge overlay, a snapshot's copy of C0); C0' never changes
  and the overlay only grows at its tail, so the bound is an O(1)
  point-in-time view of either.
* :class:`TreeSnapshot` — the read view itself: C0, a :class:`Prefix`
  of each other RAM source and the referenced version, in recency
  order.  ``get``/``multi_get``/``scan`` walk exactly the sources
  :meth:`~repro.core.kernel.TreeKernel.get` walked at snapshot time;
  disk reads charge the virtual clock normally.  A partitioned tree's
  view is one such source list per key range behind the shared C0; a
  scan opens the ranges it crosses one at a time.  :func:`scan_view` is
  the one scan body, for a snapshot's own scans and for the tree's
  (which open and close their snapshot).

Cost contract: opening a snapshot is one reference on the installed
version, O(1) in the number of components and the size of C0, and does
no I/O; closing it drops the reference, O(1) unless a merge deferred a
free.  No RAM source is copied at open — the live memtable is read in
place, copy-on-write: the snapshot registers with the
:class:`~repro.memtable.memtable.MemTable`, whose first ``put`` or
``remove`` makes the snapshot take one copy of it
(:meth:`~repro.memtable.memtable.MemTable.copy`) before the mutation
lands (an in-flight scan resumes on the copy after its last key).  A
snapshot opened, read and closed with no write in between never
copies.  A frozen C0' and the merge overlay are read through a
:class:`Prefix`.  ``versions.cow_copies`` counts the copies taken,
``versions.live_views`` the snapshots currently open.

Scans built on snapshots never restart: the epoch-validation loop the
trees used (Section 4.4.1's logical timestamps) re-resolved the
component set after every merge install, forcing a re-descent from the
cursor.  A snapshot scan holds its sources for the scan's whole life,
so a merge, memtable switch or partition split underneath it is
invisible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from itertools import islice
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence,
)

from repro.records import Record, RecordKind, lookup, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtable.memtable import MemTable
    from repro.obs.runtime import EngineRuntime
    from repro.sstable.reader import SSTable


class Version:
    """One installed on-disk component set: immutable, reference-counted.

    ``ranges`` is ``((lo, hi, tables), ...)``: contiguous key ranges in
    key order, the first starting at ``b""`` and the last with
    ``hi=None``, each with the on-disk components (an SSTable, or a
    :class:`FileRun` of key-disjoint files) serving it, newest first.
    An unpartitioned layout's version is one range over the whole
    keyspace.  ``refs`` counts the snapshots holding the version.
    """

    __slots__ = ("ranges", "refs")

    def __init__(self, ranges: Sequence["VersionRange"]) -> None:
        self.ranges: tuple[VersionRange, ...] = tuple(ranges)
        self.refs = 0

    def tables(self) -> list[Any]:
        """Every on-disk component, a :class:`FileRun`'s files included,
        range by range, newest first."""
        return [
            table
            for _lo, _hi, sources in self.ranges
            for source in sources
            for table in (source.files if type(source) is FileRun else (source,))
        ]

    def table_ids(self) -> set[int]:
        """``id`` of every table in :meth:`tables`."""
        return set(map(id, self.tables()))


class VersionSet:
    """The installed :class:`Version` and the frees it defers.

    A layout calls :meth:`install` with the new component set at each
    point that set changes, then :meth:`retire` on what it replaced.  A
    snapshot takes one reference on the current version
    (:meth:`acquire`) and drops it at close (:meth:`release`); a retired
    table that a referenced version still names becomes a *zombie*,
    freed when the last version naming it is released.
    ``deferred_frees`` counts how often a snapshot actually held a
    component past its retirement — the direct evidence that a read
    survived a merge install without blocking or restarting.
    """

    def __init__(self, runtime: "EngineRuntime | None" = None) -> None:
        self._runtime = runtime
        self.current = Version(((b"", None, ()),))
        # Superseded versions that snapshots still reference.
        self._old: list[Version] = []
        # id(table) -> table: retired while a referenced version held it.
        self._zombies: dict[int, Any] = {}
        self.deferred_frees = 0
        self.completed_frees = 0
        self.live_views = 0  # snapshots opened and not yet closed
        self.cow_copies = 0  # snapshots a write forced to copy C0
        self._gauge_live_views = self._ctr_cow_copies = None
        if runtime is not None:
            metrics = runtime.metrics
            self._gauge_live_views = metrics.gauge("versions.live_views")
            self._ctr_cow_copies = metrics.counter("versions.cow_copies")

    def _held(self) -> list[Version]:
        """Every version some open snapshot references."""
        current = self.current
        return [current, *self._old] if current.refs else list(self._old)

    @property
    def pinned_count(self) -> int:
        """Distinct components the referenced versions hold."""
        return len(set().union(*(v.table_ids() for v in self._held())))

    @property
    def zombie_count(self) -> int:
        """Retired components kept alive only by referenced versions."""
        return len(self._zombies)

    def install(
        self,
        tables: Iterable[Any] = (),
        ranges: "Sequence[VersionRange] | None" = None,
    ) -> None:
        """Publish the layout's component set for snapshots opened next.

        ``tables`` (newest first) is an unpartitioned layout's whole
        set; a layout split by key passes ``ranges`` instead.  Called
        before the replaced components are retired, so a snapshot on
        the superseded version keeps them.
        """
        if ranges is None:
            ranges = ((b"", None, tuple(tables)),)
        old = self.current
        if old.refs:
            self._old.append(old)
        self.current = Version(ranges)

    def acquire(self) -> Version:
        """One reference on the current version, for a snapshot opening."""
        version = self.current
        version.refs += 1
        self._set_live_views(self.live_views + 1)
        return version

    def release(self, version: Version) -> None:
        """Drop a snapshot's reference; the last one on a superseded
        version frees the zombies no referenced version still names.
        A reference taken before :meth:`crash` is ignored."""
        if version is not self.current:
            if version not in self._old:
                return
            if version.refs == 1:
                self._old.remove(version)
        version.refs -= 1
        self._set_live_views(self.live_views - 1)
        if self._zombies and not version.refs:
            self._free_unheld(version)

    def _free_unheld(self, version: Version) -> None:
        held = set().union(*(v.table_ids() for v in self._held()))
        zombies = self._zombies
        for table in version.tables():
            key = id(table)
            if key in zombies and key not in held:
                del zombies[key]
                table.free()
                self.completed_frees += 1
                if self._runtime is not None:
                    self._runtime.metrics.counter("versions.zombie_frees").inc()

    def retire(self, table: Any) -> None:
        """Free ``table`` now, or defer the free while a referenced
        version holds it.

        Drop-in replacement for the ``table.free()`` calls at merge
        install sites: the installed version no longer names the
        component, but a snapshot on an older one may still read it.
        """
        if table is None:
            return
        key = id(table)
        if any(key in version.table_ids() for version in self._held()):
            self._zombies[key] = table
            self.deferred_frees += 1
            if self._runtime is not None:
                self._runtime.metrics.counter("versions.deferred_frees").inc()
        else:
            table.free()
            self.completed_frees += 1

    def _set_live_views(self, count: int) -> None:
        self.live_views = count
        if self._gauge_live_views is not None:
            self._gauge_live_views.set(count)

    def note_cow_copy(self) -> None:
        """A write landed under an open snapshot, which copied C0."""
        self.cow_copies += 1
        if self._ctr_cow_copies is not None:
            self._ctr_cow_copies.inc()

    def crash(self) -> None:
        """Volatile state is lost: references, zombies and open views
        evaporate.

        Zombie extents are *not* freed — the crashed process never got
        to it, and recovery's orphan-extent sweep reclaims them from the
        manifest, same as any torn merge's output.  The installed
        component set is durable and stays installed, unreferenced.
        """
        self.current = Version(self.current.ranges)
        self._old.clear()
        self._zombies.clear()
        self._set_live_views(0)


VersionRange = tuple[bytes, "bytes | None", Sequence["SSTable | FileRun"]]
"""``(lo, hi, tables)``: one key range ``[lo, hi)`` of a :class:`Version`
and the on-disk components that serve it, newest first."""

_range_lo = itemgetter(0)
BASE = RecordKind.BASE


class Prefix:
    """An in-RAM table as it stood when a snapshot opened: the records up
    to its last key then.

    A frozen C0' never changes and the snowshovel overlay only grows at
    its tail (the merge drains in ascending key order), so bounding
    either by the key past its last one is a point-in-time view without
    a copy.
    """

    __slots__ = ("_table", "_end")

    def __init__(self, table: "MemTable") -> None:
        keys = table._keys
        self._table = table
        self._end = keys[-1] + b"\x00" if keys else b""  # first key past it

    def get(self, key: bytes) -> Record | None:
        return self._table.get(key) if key < self._end else None

    def scan(self, lo: bytes, hi: bytes | None) -> Iterator[Record]:
        end = self._end
        return self._table.scan(lo, end if hi is None or hi > end else hi)


class FileRun:
    """Key-disjoint on-disk components in key order, read as one run: a
    point read probes the one file that can hold the key, a scan opens
    files from the one holding its start (a LevelDB level)."""

    __slots__ = ("files", "_max_keys")

    def __init__(self, files: Sequence["SSTable"]) -> None:
        self.files = tuple(files)
        self._max_keys = [table.max_key for table in self.files]

    def get(self, key: bytes) -> Record | None:
        index = bisect_left(self._max_keys, key)
        if index == len(self.files):
            return None
        return self.files[index].get(key)

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[Record]:
        for table in islice(self.files, bisect_left(self._max_keys, lo), None):
            if hi is not None and table.min_key >= hi:
                return
            yield from table.scan(lo, hi, limit=limit)


class TreeSnapshot:
    """An immutable, consistent read view over one tree.

    ``memtable`` is the live C0 and ``versions`` the tree's
    :class:`VersionSet`: the view takes one reference on its current
    :class:`Version`, the on-disk components in recency order (newest
    first) — the same order the live tree's read path walks.
    ``older_ram`` holds, for each range of that version in key order,
    the in-RAM sources behind C0 as :class:`Prefix` views (a frozen C0',
    a merge overlay), newest first.  The constructor registers with the
    memtable (copy-on-write, see :meth:`materialize`); :meth:`close` (or
    context-manager exit) undoes that and drops the reference,
    triggering any frees a merge deferred.
    """

    def __init__(
        self,
        versions: VersionSet,
        memtable: "MemTable",
        older_ram: Sequence[Sequence[Prefix]] = ((),),
    ) -> None:
        self._versions = versions
        self._version = versions.acquire()
        self._ram = older_ram
        # Read in place until a write is about to land on it.
        self._memtable: "MemTable | None" = memtable
        self._c0 = memtable
        self._released = False
        memtable.attach_view(self)

    @property
    def _tables(self) -> list[Any]:
        """The on-disk components the view holds (a FileRun's files)."""
        return self._version.tables()

    def materialize(self) -> None:
        """Take the snapshot's own copy of C0 (called by the memtable).

        The memtable calls this once, before the first mutation after
        the snapshot registered, then forgets the snapshot: the copy is
        exactly the state every read so far has seen.
        """
        assert self._memtable is not None
        self._c0 = self._memtable.copy()
        self._memtable = None
        self._versions.note_cow_copy()

    def get(self, key: bytes) -> bytes | None:
        """Point lookup against the snapshot's component set.

        Same termination rule as the live read path: collect versions
        newest-to-oldest, stop at the first base record or tombstone,
        fold deltas (Section 3.1.1).  Disk probes are charged normally.
        """
        ranges = self._version.ranges
        index = bisect_right(ranges, key, key=_range_lo) - 1
        return lookup(key, (self._c0, *self._ram[index], *ranges[index][2]))

    def multi_get(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Batched point lookups; results align with ``keys``."""
        return [self.get(key) for key in keys]

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan over the held component set (see :func:`scan_view`)."""
        return scan_view(self, None, lo, hi, limit)

    def close(self) -> None:
        """Release the memtable and the version reference (idempotent)."""
        if self._released:
            return
        self._released = True
        if self._memtable is not None:
            self._memtable.release_view(self)
        self._versions.release(self._version)

    def __enter__(self) -> "TreeSnapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "released" if self._released else "open"
        return (
            f"TreeSnapshot(ranges={len(self._version.ranges)}, "
            f"tables={len(self._tables)}, {state})"
        )


def scan_view(
    view: TreeSnapshot | None,
    open_view: "Callable[[], TreeSnapshot] | None",
    lo: bytes,
    hi: bytes | None = None,
    limit: int | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Rows ``lo <= key < hi`` of ``view``, merged newest-wins, in key
    order: the one scan body of :meth:`TreeSnapshot.scan` and
    :meth:`~repro.core.kernel.TreeKernel.scan`.

    With ``view=None`` the scan owns its snapshot: ``open_view()`` opens
    it at the first ``next`` and the scan closes it when exhausted,
    closed or collected.  Never restarts: the sources cannot change
    under the scan, no matter how many merges install or memtables
    switch while the caller holds it paused.  Ranges are opened one at
    a time, so a short scan touches only the components of the range it
    lands in.

    One frame does the range loop, the heap merge of the range's
    sources (source 0 is C0, the newest; a key's versions pop newest
    first, so a group is in recency order) and version resolution; each
    source is pulled exactly when its previous record leaves the heap.
    A write that lands on C0 while the scan is paused makes the view
    copy C0: the merge notices when it is about to pull C0's next
    record and resumes on the copy after the last key it took.
    """
    owned = view is None
    if owned:
        assert open_view is not None
        view = open_view()
    try:
        ranges = view._version.ranges
        landing = bisect_right(ranges, lo, key=_range_lo) - 1
        emitted = 0
        for index in range(landing, len(ranges)):
            range_lo, stop, tables = ranges[index]
            if hi is not None:
                if range_lo >= hi:
                    return
                if stop is None or hi < stop:
                    stop = hi
            start = lo if lo > range_lo else range_lo
            remaining = None if limit is None else limit - emitted
            c0 = view._c0
            sources = [c0.scan(start, stop)]
            for source in view._ram[index]:
                sources.append(source.scan(start, stop))
            for table in tables:
                sources.append(table.scan(start, stop, limit=remaining))
            heap = []
            for priority, source in enumerate(sources):
                record = next(source, None)
                if record is not None:
                    heap.append((record.key, priority, record))
            heapify(heap)
            while heap:
                key, priority, record = heap[0]
                group = None
                while True:  # pop the key's versions, newest first
                    if not priority and view._c0 is not c0:
                        # A write copied C0 while the scan was paused:
                        # the live iterator is no longer ours.
                        c0 = view._c0
                        sources[0] = c0.scan(key + b"\x00", stop)
                    successor = next(sources[priority], None)
                    if successor is None:
                        heappop(heap)
                    else:
                        heapreplace(heap, (successor.key, priority, successor))
                    if not heap or heap[0][0] != key:
                        break
                    if group is None:
                        group = [record]
                    _key, priority, record = heap[0]
                    group.append(record)
                if group is not None:
                    value = resolve(group)
                    if value is None:
                        continue
                elif record.kind is BASE:
                    value = record.value
                else:
                    continue  # a lone tombstone, or deltas with no base
                yield key, value
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
    finally:
        if owned:
            view.close()

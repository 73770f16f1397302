"""MVCC version sets: pinned, immutable read views over tree components.

The bLSM trees' components are already immutable once built — SSTables
never change after ``finish()``, and the update-in-place memtable swaps
whole :class:`~repro.records.Record` objects rather than mutating them.
That makes snapshot isolation cheap: a reader *pins* the component set
it can see, merges install new components for later readers, and a
superseded component's ``free()`` is deferred until the last pin drops.

Three pieces:

* :class:`VersionSet` — per-tree registry of pinned components and
  *zombies* (components a merge retired while still pinned).  The tree
  calls :meth:`VersionSet.retire` wherever it used to call
  ``table.free()``; the free happens immediately when unpinned, or at
  last-unpin otherwise.  ``deferred_frees`` counts how often a snapshot
  actually held a component past its retirement — the direct evidence
  that a read survived a merge install without blocking or restarting.
* :class:`SortedRun` — an append-only run of records in ascending key
  order (parallel ``keys``/``records`` lists: a range read is a
  ``bisect``, a point read one probe of a key -> position index).
  The snowshovel merge overlay is one; so is the copy a snapshot takes
  of C0.  Because a run only ever grows at its tail, its first ``n``
  records never change: :meth:`SortedRun.prefix` is an O(1)
  point-in-time view.
* :class:`TreeSnapshot` — the read view itself: RAM sources plus pinned
  on-disk components, in recency order.  ``get``/``multi_get``/``scan``
  walk exactly the source order the live tree would have walked at
  snapshot time; disk reads charge the virtual clock normally.  A
  partitioned tree's view is one such source list per key range
  behind the shared C0; a scan opens the ranges it crosses one at a
  time.

Cost contract: opening a snapshot is O(1) in the size of C0 and does no
I/O.  No RAM source is copied at open — the live memtable is read in
place, copy-on-write: the snapshot registers with the
:class:`~repro.memtable.memtable.MemTable`, whose first ``put`` or
``remove`` makes the snapshot take one O(|C0|) sorted copy before the
mutation lands (an in-flight scan resumes on the copy after its last
key).  A snapshot opened, read and closed with no write in between
never copies.  A frozen C0' is immutable while any reader can reach it
and is referenced as is; the merge overlay is a :class:`SortedRun`
prefix.  ``versions.cow_copies`` counts the copies taken,
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
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Protocol, Sequence

from repro.records import Record, resolve
from repro.sstable.iterator import kway_merge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtable.memtable import MemTable
    from repro.obs.runtime import EngineRuntime
    from repro.sstable.reader import SSTable


class VersionSet:
    """Pin registry deferring component frees past live snapshots."""

    def __init__(self, runtime: "EngineRuntime | None" = None) -> None:
        self._runtime = runtime
        # id(table) -> (table, pin_count); identity keys because SSTable
        # instances are the unit of pinning and carry no usable hash.
        self._pins: dict[int, tuple[Any, int]] = {}
        self._zombies: dict[int, Any] = {}  # retired while pinned
        self.deferred_frees = 0
        self.completed_frees = 0
        self.live_views = 0  # snapshots opened and not yet closed
        self.cow_copies = 0  # snapshots a write forced to copy C0
        self._gauge_live_views = self._ctr_cow_copies = None
        if runtime is not None:
            metrics = runtime.metrics
            self._gauge_live_views = metrics.gauge("versions.live_views")
            self._ctr_cow_copies = metrics.counter("versions.cow_copies")

    @property
    def pinned_count(self) -> int:
        """Distinct components currently pinned by live snapshots."""
        return len(self._pins)

    @property
    def zombie_count(self) -> int:
        """Retired components kept alive only by snapshot pins."""
        return len(self._zombies)

    def pin(self, table: Any) -> None:
        """Hold ``table``'s storage live until the matching unpin."""
        key = id(table)
        entry = self._pins.get(key)
        self._pins[key] = (table, entry[1] + 1 if entry else 1)

    def unpin(self, table: Any) -> None:
        """Drop one pin; frees the table if it was retired meanwhile."""
        key = id(table)
        entry = self._pins.get(key)
        if entry is None:
            return
        table_obj, count = entry
        if count > 1:
            self._pins[key] = (table_obj, count - 1)
            return
        del self._pins[key]
        zombie = self._zombies.pop(key, None)
        if zombie is not None:
            zombie.free()
            self.completed_frees += 1
            if self._runtime is not None:
                self._runtime.metrics.counter("versions.zombie_frees").inc()

    def retire(self, table: Any) -> None:
        """Free ``table`` now, or defer the free while snapshots pin it.

        Drop-in replacement for the ``table.free()`` calls at merge
        install sites: the manifest no longer references the component,
        but a pinned snapshot may still be reading it.
        """
        if table is None:
            return
        key = id(table)
        if key in self._pins:
            self._zombies[key] = table
            self.deferred_frees += 1
            if self._runtime is not None:
                self._runtime.metrics.counter("versions.deferred_frees").inc()
        else:
            table.free()
            self.completed_frees += 1

    def view_opened(self) -> None:
        """A snapshot opened (:class:`TreeSnapshot` calls this)."""
        self._set_live_views(self.live_views + 1)

    def view_closed(self) -> None:
        """A snapshot closed; one that outlived :meth:`crash` is ignored."""
        if self.live_views:
            self._set_live_views(self.live_views - 1)

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
        """Volatile state is lost: pins, zombies and open views evaporate.

        Zombie extents are *not* freed — the crashed process never got
        to it, and recovery's orphan-extent sweep reclaims them from the
        manifest, same as any torn merge's output.
        """
        self._pins.clear()
        self._zombies.clear()
        self._set_live_views(0)


class RamSource(Protocol):
    """What a snapshot reads an in-RAM component through."""

    def get(self, key: bytes) -> Record | None: ...

    def scan(self, lo: bytes, hi: bytes | None) -> Iterator[Record]: ...


KeyRange = tuple[
    bytes, "bytes | None", Sequence[RamSource], Sequence["SSTable | FileRun"]
]
"""``(lo, hi, older_ram, tables)``: one key range ``[lo, hi)`` of a
snapshot and the sources behind C0 that serve it, newest first."""

_range_lo = itemgetter(0)


class SortedRun:
    """Append-only run of records in strictly ascending key order.

    Parallel ``keys``/``records`` lists (range reads are a ``bisect``)
    plus a key -> position index, so a point read stays one hash probe —
    ``BLSM.get`` consults the merge overlay on every lookup made while a
    C0:C1 pass is open.  ``end`` bounds a read to the run's first
    ``end`` records, which appends never disturb — see :meth:`prefix`.
    """

    __slots__ = ("keys", "records", "_index")

    def __init__(self, records: Iterable[Record] = ()) -> None:
        self.records = list(records)
        self.keys = [record.key for record in self.records]
        self._index = {key: index for index, key in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def append(self, record: Record) -> None:
        """Add ``record``, whose key must exceed every key in the run."""
        keys = self.keys
        assert not keys or record.key > keys[-1], "run out of order"
        self._index[record.key] = len(keys)
        keys.append(record.key)
        self.records.append(record)

    def get(self, key: bytes, end: int | None = None) -> Record | None:
        index = self._index.get(key)
        if index is None or (end is not None and index >= end):
            return None
        return self.records[index]

    def scan(
        self, lo: bytes, hi: bytes | None, end: int | None = None
    ) -> Iterator[Record]:
        """Records with lo <= key < hi among the first ``end``."""
        keys, records = self.keys, self.records
        if end is None:
            end = len(keys)
        start = bisect_left(keys, lo, 0, end)
        if hi is not None:
            end = bisect_left(keys, hi, start, end)
        for index in range(start, end):
            yield records[index]

    def prefix(self) -> "RunPrefix":
        """A zero-copy view of the run as it stands now."""
        return RunPrefix(self, len(self.keys))


class RunPrefix:
    """The first ``end`` records of a :class:`SortedRun`."""

    __slots__ = ("_run", "_end")

    def __init__(self, run: SortedRun, end: int) -> None:
        self._run = run
        self._end = end

    def get(self, key: bytes) -> Record | None:
        return self._run.get(key, self._end)

    def scan(self, lo: bytes, hi: bytes | None) -> Iterator[Record]:
        return self._run.scan(lo, hi, self._end)


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

    ``memtable`` is the live C0, ``older_ram`` the in-RAM sources behind
    it that cannot change under a reader (a frozen C0', a merge-overlay
    prefix) and ``tables`` the on-disk components, all in recency order
    (newest first) — the same order the live tree's read path walks.
    A tree whose on-disk layout is split by key passes ``ranges``
    instead: contiguous ``(lo, hi, older_ram, tables)`` in key order,
    the first starting at ``b""`` and the last with ``hi=None``, all
    behind the one shared C0.  The constructor registers with the
    memtable (copy-on-write, see :meth:`materialize`) and pins every
    table in ``versions`` (a :class:`FileRun`'s files); :meth:`close`
    (or context-manager exit) undoes both, triggering any frees a merge
    deferred.
    """

    def __init__(
        self,
        versions: VersionSet,
        memtable: "MemTable",
        older_ram: Sequence[RamSource],
        tables: Sequence["SSTable | FileRun"],
        engine: str = "tree",
        ranges: "Sequence[KeyRange] | None" = None,
    ) -> None:
        self.engine = engine
        self._versions = versions
        # Read in place until a write is about to land on it.
        self._memtable: "MemTable | None" = memtable
        self._c0: RamSource = memtable
        if ranges is None:
            ranges = [(b"", None, older_ram, list(tables))]
        self._ranges: list[KeyRange] = list(ranges)
        self._tables = [
            table
            for _lo, _hi, _ram, on_disk in self._ranges
            for source in on_disk
            for table in (source.files if type(source) is FileRun else (source,))
        ]
        self._released = False
        memtable.attach_view(self)
        versions.view_opened()
        for table in self._tables:
            versions.pin(table)

    def materialize(self) -> None:
        """Take the snapshot's own copy of C0 (called by the memtable).

        The memtable calls this once, before the first mutation after
        the snapshot registered, then forgets the snapshot: the copy is
        exactly the state every read so far has seen.
        """
        assert self._memtable is not None
        self._c0 = SortedRun(self._memtable)  # iterates in key order
        self._memtable = None
        self._versions.note_cow_copy()

    def get(self, key: bytes) -> bytes | None:
        """Point lookup against the snapshot's component set.

        Same termination rule as the live read path: collect versions
        newest-to-oldest, stop at the first base record or tombstone,
        fold deltas (Section 3.1.1).  Disk probes are charged normally.
        """
        ranges = self._ranges
        _lo, _hi, ram, tables = ranges[bisect_right(ranges, key, key=_range_lo) - 1]
        versions: list[Record] = []
        for source in chain((self._c0,), ram, tables):
            record = source.get(key)
            if record is not None:
                versions.append(record)
                if not record.is_delta:
                    break
        return resolve(versions)

    def multi_get(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Batched point lookups; results align with ``keys``."""
        return [self.get(key) for key in keys]

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan over the pinned component set.

        Never restarts: the sources cannot change under the scan, no
        matter how many merges install or memtables switch while the
        caller holds it paused.  Ranges are opened one at a time, so a
        short scan touches only the components of the range it lands in.
        """
        ranges = self._ranges
        landing = bisect_right(ranges, lo, key=_range_lo) - 1
        emitted = 0
        for range_lo, range_hi, ram, tables in islice(ranges, landing, None):
            if hi is not None and range_lo >= hi:
                return
            start = lo if lo > range_lo else range_lo
            stop = range_hi
            if stop is None or (hi is not None and hi < stop):
                stop = hi
            remaining = None if limit is None else limit - emitted
            sources: list[Iterator[Record]] = [self._scan_c0(start, stop)]
            sources.extend(source.scan(start, stop) for source in ram)
            sources.extend(
                table.scan(start, stop, limit=remaining) for table in tables
            )
            for group in kway_merge(sources):
                value = resolve(group)
                if value is None:
                    continue
                yield group[0].key, value
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

    def _scan_c0(self, lo: bytes, hi: bytes | None) -> Iterator[Record]:
        source = self._c0
        for record in source.scan(lo, hi):
            yield record
            if self._c0 is not source:
                # A write landed while the scan was paused: the live
                # iterator is no longer ours; resume on the copy.
                yield from self._c0.scan(record.key + b"\x00", hi)
                return

    def close(self) -> None:
        """Release the memtable and the pinned components (idempotent)."""
        if self._released:
            return
        self._released = True
        if self._memtable is not None:
            self._memtable.release_view(self)
        self._versions.view_closed()
        for table in self._tables:
            self._versions.unpin(table)

    def __enter__(self) -> "TreeSnapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "released" if self._released else "pinned"
        return (
            f"TreeSnapshot({self.engine}, ranges={len(self._ranges)}, "
            f"tables={len(self._tables)}, {state})"
        )

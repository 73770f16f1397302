"""Incremental tree merges (Sections 2.3.1, 4.2, 4.4.1).

A :class:`MergeProcess` merges a newer source with an older source into a
new on-disk component, a bounded number of bytes at a time, so the
scheduler can interleave merge work with application writes.  In the
paper these are threads rate-limited by the scheduler; on the virtual
clock the same rate coupling is expressed by calling ``step`` with a byte
budget.  A step also gets only one data-device access
(:class:`~repro.storage.stasis.StepGate`), so whatever runs the step (an
application write, a background dispatch) pays for at most one streaming
unit of device time.

The newer source is a :class:`SnowshovelSource` draining the live
memtable (Section 4.2) over a key range — the one C0 drain,
:class:`~repro.memtable.snowshovel.SnowshovelCursor`, which bLSM runs
over the whole keyspace and the partitioned tree over one partition —
a :class:`FrozenSource` over a frozen C0', or an on-disk component;
the older source is the downstream component being rewritten.  An
on-disk input is a :class:`StreamSource`: it holds one streaming run of
the component (``SSTable.iter_runs``) as a list and reads the next when
the last record of one is taken.

A merge is one sequential pass over its inputs (Section 4.4.1), and
``step`` spends per record what that needs: a run of records with no
version in the other input is copied to the builder with one key
compare each, and only a key present in both inputs is folded
(``merge_records``).

It is the only merge: a policy tree's plan of ``k`` on-disk inputs
passes the newest ``k - 1`` as ``newer`` (one :class:`MergedSource`).
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.core.versions import SortedRun
from repro.memtable.snowshovel import SnowshovelCursor as SnowshovelSource
from repro.records import Record, RecordKind
from repro.sstable.builder import SSTableBuilder
from repro.sstable.iterator import merge_records
from repro.sstable.reader import SSTable
from repro.storage.stasis import WAIT, Stasis, StepGate

_TOMBSTONE = RecordKind.TOMBSTONE
_UNREAD = object()  # a head not fetched yet


class RecordSource(Protocol):
    """A peekable stream of records in increasing key order."""

    def peek(self) -> Record | None:
        """Next record without consuming it; ``None`` when exhausted."""
        ...

    def pop(self) -> Record:
        """Consume and return the next record."""
        ...


class EmptySource:
    """A source with no records (first merge into an empty level)."""

    def peek(self) -> Record | None:
        return None

    def pop(self) -> Record:
        raise StopIteration("empty source")


class _AccessDeferred(Exception):
    """An input needs the device and this step's one access is spent."""


class FrozenSource:
    """Drains a frozen memtable (C0') in key order.

    Nothing is fetched before the first ``peek``.
    """

    def __init__(self, records) -> None:
        self._iterator = iter(records)
        self._head = _UNREAD

    def peek(self) -> Record | None:
        if self._head is _UNREAD:
            self._head = next(self._iterator, None)
        return self._head

    def pop(self) -> Record:
        record = self.peek()
        if record is None:
            raise StopIteration("source exhausted")
        self._head = next(self._iterator, None)
        return record


class StreamSource:
    """Drains an on-disk component one streaming run at a time.

    Nothing is read before the first ``peek``.  Taking a run's last
    record reads the next run at once if the step's gate is still clear;
    otherwise the read waits, and ``peek`` raises :class:`_AccessDeferred`
    until a later step's gate lets it through.
    """

    def __init__(self, table: SSTable, gate: StepGate) -> None:
        self._runs = table.iter_runs(gate)
        self._run: list[Record] | None = []  # None once exhausted
        self._pos = 0

    def peek(self) -> Record | None:
        run = self._run
        if run is not None and self._pos == len(run):
            if not self._fetch():
                raise _AccessDeferred
            run = self._run
        return None if run is None else run[self._pos]

    def pop(self) -> Record:
        record = self.peek()
        if record is None:
            raise StopIteration("source exhausted")
        self._pos += 1
        if self._pos == len(self._run):  # type: ignore[arg-type]
            self._fetch()
        return record

    def _fetch(self) -> bool:
        """Take the next run; ``False`` when the gate puts the read off."""
        run = next(self._runs, None)
        if run is WAIT:
            return False
        self._run, self._pos = run, 0
        return True


class MergedSource:
    """On-disk inputs, newest first, as one source: the smallest head key
    with every version of it folded (no tombstone drop); ``taken`` is the
    bytes the last ``pop`` consumed.  ``peek`` reads every head before it
    changes anything, so a deferred read leaves no partial state."""

    def __init__(self, children: list[StreamSource]) -> None:
        self._children = children
        self._head: Record | None | object = _UNREAD
        self._holders: list[StreamSource] = []
        self.taken = 0

    def peek(self) -> Record | None:
        if self._head is _UNREAD:
            heads = [(child, child.peek()) for child in self._children]
            live = [(child, head) for child, head in heads if head is not None]
            key = min((head.key for _, head in live), default=None)
            group = [head for _, head in live if head.key == key]
            self._holders = [child for child, head in live if head.key == key]
            self.taken = sum(record.nbytes for record in group)
            self._head = merge_records(group) if group else None
        return self._head  # type: ignore[return-value]

    def pop(self) -> Record:
        record = self.peek()
        if record is None:
            raise StopIteration("source exhausted")
        for child in self._holders:
            child.pop()
        self._head = _UNREAD
        return record


class MergeProcess:
    """One merge between adjacent tree levels, executed incrementally."""

    def __init__(
        self,
        stasis: Stasis,
        newer: RecordSource | SSTable | Sequence[SSTable],
        older: SSTable | None,
        tree_id: int,
        input_bytes: int,
        expected_keys: int,
        drop_tombstones: bool,
        with_bloom: bool = True,
        bloom_false_positive_rate: float = 0.01,
        split_output_bytes: int | None = None,
        tree_id_source: "Callable[[], int] | None" = None,
        compression_ratio: float = 1.0,
        bloom_keys: int | None = None,
    ) -> None:
        self._stasis = stasis
        self._stats = stasis.data_disk.stats
        self._gate = StepGate(self._stats)
        # On-disk inputs are read as streams (``SSTable.iter_runs``);
        # each holds one streaming-size run of its pages in RAM.  A
        # stream reads nothing until ``step`` first peeks it.
        self._readahead_pages = 0
        if isinstance(newer, SSTable):
            newer = self._open_stream(newer)
        elif isinstance(newer, (list, tuple)):
            newer = self._open_streams(newer)
        self._newer: RecordSource = newer
        self._merged = newer if isinstance(newer, MergedSource) else None
        self._older: RecordSource = (
            self._open_stream(older) if older is not None else EmptySource()
        )
        # Data-device accesses this pass issued, and the head
        # repositionings among them, from ``IOStats`` deltas around
        # ``step``.
        self.read_calls = 0
        self.seeks = 0  # repositionings by reads and writes together
        self.write_calls = 0
        self.write_seeks = 0
        self._with_bloom = with_bloom
        self._bloom_fpr = bloom_false_positive_rate
        self._expected_keys = expected_keys
        # A snowshovel pass outgrows the keys present at its start; its
        # owner passes the run it plans for (Bloom sizing only: the
        # extent reservation keeps following ``expected_keys``).
        self._bloom_keys = bloom_keys
        self._compression_ratio = compression_ratio
        # Partitioned trees split oversized outputs into multiple
        # components, each becoming its own partition (Section 4.2.2).
        if split_output_bytes is not None and tree_id_source is None:
            raise ValueError("split_output_bytes requires tree_id_source")
        self._split_output_bytes = split_output_bytes
        self._tree_id_source = tree_id_source
        self._builder = self._new_builder(tree_id, input_bytes)
        self._drop_tombstones = drop_tombstones
        self.input_bytes = max(1, input_bytes)
        self.bytes_read = 0
        self.newer_bytes_read = 0  # consumed from the newer source only
        self.output: SSTable | None = None
        self.outputs: list[SSTable] = []
        self.done = False
        self.min_seqno_consumed: int | None = None
        self.max_seqno_consumed: int | None = None
        # Snowshoveling physically removes records from the live memtable
        # as they are consumed, but the half-built output component is not
        # yet visible to readers.  The overlay keeps those records
        # readable until the merge commits (in the real system they are
        # served from the in-progress tree, Figure 1).  Sources that
        # expose ``advance_past`` drain a live memtable and need it.
        # They emit in strictly ascending key order, so the overlay is
        # an append-only sorted run and a snapshot's view of it is a
        # prefix (no copy).
        self._track_overlay = hasattr(newer, "advance_past")
        self.overlay = SortedRun()

    @property
    def inprogress(self) -> float:
        """Fraction of input consumed (the paper's smooth estimator)."""
        if self.done:
            return 1.0
        return min(1.0, self.bytes_read / self.input_bytes)

    @property
    def buffer_pages(self) -> int:
        """Pages of RAM the merge holds while it runs (Appendix A).

        One streaming-size read-ahead per on-disk input stream plus the
        builder's write-behind, which is the same unit.
        """
        if self.done:
            return 0
        return self._readahead_pages + self._stasis.streaming_pages

    @property
    def overlay_bytes(self) -> int:
        """RAM the snowshovel overlay holds: what the pass took from C0."""
        return self.newer_bytes_read if self._track_overlay else 0

    def step(self, budget_bytes: int) -> int:
        """Consume up to ``budget_bytes`` of input; return bytes consumed.

        The step gets one data-device access (an input stream reading its
        next run, or the builder writing one behind) and ends early only
        when an input needs a second one; a write-behind that comes due
        after the access waits in the builder instead.  The step that
        starts a merge of two on-disk inputs fetches one head and cannot
        consume yet: it returns 1, so that 0 keeps meaning "could not
        run" to every caller.

        Completing the merge (building the output component) happens
        automatically when both sources drain; closing an output flushes
        its tail whatever the step has already touched.
        """
        if self.done or budget_bytes <= 0:
            return 0
        stats = self._stats
        reads, writes = stats.read_ops, stats.write_ops
        seeks, write_seeks = stats.seeks, stats.write_seeks
        self._gate.open()
        newer, older = self._newer, self._older
        drop, track = self._drop_tombstones, self._track_overlay
        consumed = 0
        try:
            while consumed < budget_bytes:
                newer_head = newer.peek()
                older_head = older.peek()
                if older_head is None:
                    if newer_head is None:
                        self._complete()
                        break
                    source, bound = newer, None
                elif newer_head is None:
                    source, bound = older, None
                elif newer_head.key < older_head.key:
                    source, bound = newer, older_head.key
                elif older_head.key < newer_head.key:
                    source, bound = older, newer_head.key
                else:
                    consumed += self._emit_next()
                    continue
                # Copy the records below the other input's head: none of
                # them has a second version to fold.
                from_newer = source is newer
                while True:
                    record = source.pop()
                    if from_newer:
                        consumed += self._took_newer(record)
                    else:
                        consumed += record.nbytes
                        if track:  # keep the snowshovel cursor at the output
                            newer.advance_past(record.key)  # type: ignore
                    if not (drop and record.kind is _TOMBSTONE):
                        self._emit(record)
                    if consumed >= budget_bytes:
                        break
                    head = source.peek()
                    if head is None or (
                        bound is not None and head.key >= bound
                    ):
                        break
        except _AccessDeferred:
            pass
        self.bytes_read += consumed
        self.read_calls += stats.read_ops - reads
        self.write_calls += stats.write_ops - writes
        self.seeks += stats.seeks - seeks
        self.write_seeks += stats.write_seeks - write_seeks
        if consumed == 0 and not self.done and not self._gate.clear:
            return 1
        return consumed

    def run_to_completion(self) -> int:
        """Consume all remaining input (the naive scheduler's behaviour)."""
        total = 0
        while not self.done:
            total += self.step(budget_bytes=1 << 30)
        return total

    def abort(self) -> None:
        """Tear the merge down, freeing the partially built output."""
        if not self.done:
            self.done = True
            self._builder.abandon()

    def _emit_next(self) -> int:
        """Fold the key both inputs hold next; return input bytes consumed."""
        newer = self._newer.pop()
        consumed = self._took_newer(newer)
        older = self._older.pop()
        if self._track_overlay:
            # The snowshovel cursor must not fall behind the merge's
            # output position (see SnowshovelCursor.advance_past).
            self._newer.advance_past(older.key)  # type: ignore[attr-defined]
        merged = merge_records(
            [newer, older], drop_tombstones=self._drop_tombstones
        )
        if merged is not None:
            self._emit(merged)
        return consumed + older.nbytes

    def _took_newer(self, record: Record) -> int:
        """Book a record taken from the newer input; return its bytes
        (a MergedSource's: every version it folded)."""
        nbytes = record.nbytes if self._merged is None else self._merged.taken
        self.newer_bytes_read += nbytes
        seqno = record.seqno
        if self.min_seqno_consumed is None or seqno < self.min_seqno_consumed:
            self.min_seqno_consumed = seqno
        if self.max_seqno_consumed is None or seqno > self.max_seqno_consumed:
            self.max_seqno_consumed = seqno
        if self._track_overlay:
            self.overlay.append(record)
        return nbytes

    def _emit(self, record: Record) -> None:
        self._builder.add(record)
        if (
            self._split_output_bytes is not None
            and self._builder.nbytes >= self._split_output_bytes
        ):
            self._rotate_builder()

    def _open_stream(self, table: SSTable) -> StreamSource:
        self._readahead_pages += min(self._stasis.streaming_pages, table.npages)
        return StreamSource(table, self._gate)

    def _open_streams(self, tables: Sequence[SSTable]) -> RecordSource:
        if not tables:
            return EmptySource()
        if len(tables) == 1:
            return self._open_stream(tables[0])
        return MergedSource([self._open_stream(table) for table in tables])

    def _new_builder(self, tree_id: int, expected_bytes: int) -> SSTableBuilder:
        return SSTableBuilder(
            self._stasis,
            tree_id=tree_id,
            expected_bytes=expected_bytes,
            expected_keys=self._expected_keys,
            with_bloom=self._with_bloom,
            bloom_false_positive_rate=self._bloom_fpr,
            compression_ratio=self._compression_ratio,
            bloom_keys=self._bloom_keys,
            gate=self._gate,
        )

    def _rotate_builder(self) -> None:
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)
        assert self._tree_id_source is not None
        assert self._split_output_bytes is not None
        self._builder = self._new_builder(
            self._tree_id_source(), self._split_output_bytes
        )

    def _complete(self) -> None:
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)
        if self._split_output_bytes is None:
            self.output = table
        self.done = True

"""Incremental tree merges (Sections 2.3.1, 4.2, 4.4.1).

A :class:`MergeProcess` merges a newer input with an older input into a
new on-disk component, a bounded number of bytes at a time, so the
scheduler can interleave merge work with application writes.  In the
paper these are threads rate-limited by the scheduler; on the virtual
clock the same rate coupling is expressed by calling ``step`` with a byte
budget.  A step also gets only one data-device access
(:class:`~repro.storage.stasis.StepGate`), so the write that runs the
step pays for at most one streaming unit of device time.

The newer input is C0 drained in place through a
:class:`~repro.memtable.snowshovel.SnowshovelCursor` (Section 4.2), over
the whole keyspace in bLSM and over one partition in the partitioned
tree; a frozen C0' (a memtable read in key order, left intact); or one
or more on-disk components.  The older input is the downstream
component being rewritten, or nothing.

A merge is one sequential pass over its inputs (Section 4.4.1), and a
step is one loop over them by index.  C0 is walked as its sorted key
list from the cursor's position; an on-disk input is walked as the list
of records of its current streaming run (``SSTable.read_run``), the
next run read when the last record of one is taken, if the step's
access is unspent (a read that fails leaves the input on that run).
Both heads and positions stay in locals: a stretch of records with no
version in the other input is copied with no per-record call (C0's
found with one ``bisect``), and only a key present in both inputs is
folded (``merge_records``).  Copied records go straight into the
output's open block by the builder's packing rule (append, add the
bytes, and call ``SSTableBuilder.settle`` once the block reaches its
``due``); ``settle`` decides every close and writes nothing.  The step
books what it took (positions, bytes, the last key) before it writes a
closed block behind and before every run read, so a read or write that
fails raises with every record taken so far booked.  What the step
drained from C0 leaves as one slice at its end
(``MemTable.take_slice``), appended to the overlay that keeps it
readable until the output installs, and the cursor moves past the last
key the step wrote.

It is the only merge: a policy tree's plan of ``k`` on-disk inputs
passes the newest ``k - 1`` as ``newer``, which the loop folds per key
(every version of the key those inputs hold, no tombstone drop) before
it meets the oldest.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Sequence

from repro.memtable.memtable import MemTable
from repro.memtable.snowshovel import SnowshovelCursor
from repro.records import Record, RecordKind
from repro.sstable.builder import SSTableBuilder
from repro.sstable.iterator import merge_records
from repro.sstable.reader import SSTable
from repro.storage.stasis import WAIT, Stasis, StepGate

_TOMBSTONE = RecordKind.TOMBSTONE
_NO_RUN: list[Record] = []  # what an absent older input reads as


class _Input:
    """An on-disk input: its current streaming run, the position in it,
    and the block its next run starts at."""

    __slots__ = ("table", "run", "pos", "next_block")

    def __init__(self, table: SSTable) -> None:
        self.table = table
        self.run: list[Record] = []  # nothing is read before the first step
        self.pos = 0
        self.next_block = 0


class MergeProcess:
    """One merge between adjacent tree levels, executed incrementally."""

    def __init__(
        self,
        stasis: Stasis,
        newer: SnowshovelCursor | MemTable | SSTable | Sequence[SSTable],
        older: SSTable | None,
        tree_id: int,
        input_bytes: int,
        expected_keys: int,
        drop_tombstones: bool,
        with_bloom: bool = True,
        split_output_bytes: int | None = None,
        tree_id_source: "Callable[[], int] | None" = None,
        compression_ratio: float = 1.0,
        bloom_keys: int | None = None,
    ) -> None:
        self._stasis = stasis
        self._clock = stasis.clock
        self._stats = stasis.data_disk.stats
        self._gate = StepGate(self._stats)
        # On-disk inputs are read one streaming-size run at a time; each
        # holds one run of its pages in RAM.
        self._readahead_pages = 0
        # The newer input: C0 through a cursor (drained, or a frozen C0'
        # walked in place), or on-disk components newest first.
        self._cursor: SnowshovelCursor | None = None
        self._newer: list[_Input] = []
        if isinstance(newer, SnowshovelCursor):
            self._cursor = newer
        elif isinstance(newer, MemTable):
            self._cursor = SnowshovelCursor(newer)
        else:
            tables = [newer] if isinstance(newer, SSTable) else list(newer)
            self._newer = [self._open(table) for table in tables]
        self._older = self._open(older) if older is not None else None
        # A drained C0 keeps what the pass took readable until the merge
        # commits (in the real system it is served from the in-progress
        # tree, Figure 1).  The pass takes keys in strictly ascending
        # order, so the overlay (a memtable, ``nbytes`` its RAM) only
        # grows at its tail and a snapshot's view of it is a prefix (no
        # copy).
        self.overlay = MemTable(max(1, input_bytes))
        self._into = self.overlay if isinstance(newer, SnowshovelCursor) else None
        # Data-device accesses this pass issued, and the head
        # repositionings among them, from ``IOStats`` deltas around the
        # steps that touched the device.
        self.read_calls = 0
        self.seeks = 0  # repositionings by reads and writes together
        self.write_calls = 0
        self.write_seeks = 0
        self._with_bloom = with_bloom
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
        self.input_bytes = max(1, input_bytes)
        self._builder = self._new_builder(
            tree_id,
            input_bytes
            if split_output_bytes is None
            else min(input_bytes, split_output_bytes),
        )
        self._drop_tombstones = drop_tombstones
        # The versions the newer inputs' next key gathered (several
        # on-disk newer inputs): who holds them and their bytes.
        self._holders: list[_Input] = []
        self._folded_bytes = 0
        self.bytes_read = 0
        self.newer_bytes_read = 0  # consumed from the newer input only
        self.inprogress = 0.0
        """Fraction of input consumed (the paper's smooth estimator), 1.0
        once done; the scheduler reads it after every write."""
        self.output: SSTable | None = None
        self.outputs: list[SSTable] = []
        self.done = False
        # Where each step's progress is booked (see report_to).
        self._report: tuple[str, Any, Any, Any] | None = None

    def report_to(
        self, gear: str, bytes_counter: Any, seconds_counter: Any, trace: Any
    ) -> None:
        """Book every step that worked to its owner's gear: the bytes it
        consumed and the virtual seconds it took to ``bytes_counter`` and
        ``seconds_counter``, and a ``merge_progress`` event to ``trace``
        while that records."""
        self._report = (gear, bytes_counter, seconds_counter, trace)

    @property
    def buffer_pages(self) -> int:
        """Pages of RAM the merge holds while it runs (Appendix A).

        One streaming-size read-ahead per on-disk input stream plus the
        builder's write-behind, which is the same unit.
        """
        if self.done:
            return 0
        return self._readahead_pages + self._stasis.streaming_pages

    def step(self, budget_bytes: int) -> int:
        """Consume up to ``budget_bytes`` of input; return bytes consumed.

        The step gets one data-device access (an input reading its next
        run, or the builder writing one behind) and ends early only when
        an input needs a second one; a write-behind that comes due after
        the access waits in the builder instead.  The step that starts a
        merge of two on-disk inputs reads one head and cannot consume
        yet: it returns 1, so that 0 keeps meaning "could not run" to
        every caller.  A read or write that fails raises with every
        record taken before it booked: a run read leaves its input at
        that run, so the next step reads it again.

        Completing the merge (building the output component) happens
        automatically when both inputs drain; closing an output flushes
        its tail whatever the step has already touched.
        """
        if self.done or budget_bytes <= 0:
            return 0
        started = self._clock.now
        stats = self._stats
        gate = self._gate
        gate.mark = stats.read_ops + stats.write_ops  # opened
        drop = self._drop_tombstones
        consumed = newer_bytes = 0
        last = None  # the key of the last record consumed
        # A head whose run waits for the next step's access ends the
        # step: no budget is left.
        budget = budget_bytes
        # The newer input, kind 0 (C0 by the cursor: its sorted keys and
        # index), 1 (one on-disk run) or 2 (several on-disk inputs folded
        # per key; none at all is that kind too).
        cursor = self._cursor
        if cursor is not None:
            kind = 0
            nlist, index, npos, nend = cursor.span()
            newer = index[nlist[npos]] if npos < nend else None
        elif len(self._newer) == 1:
            kind = 1
            source = self._newer[0]
            nlist, npos = source.run, source.pos
            nend = len(nlist)
            if npos < nend:
                newer = nlist[npos]
            else:  # its run is used up: the next is the step's access
                newer = run = self._next_run(source)
                if run is not None:
                    nlist, npos, nend = run, 0, len(run)
                    newer = run[0]
        else:
            kind = 2
            newer = self._fold_newer()
            if newer is WAIT:
                budget = 0
        # The older input: one on-disk run, or none.
        older_input = self._older
        if older_input is None:
            orun, opos, oend, older = _NO_RUN, 0, 0, None
        else:
            orun, opos = older_input.run, older_input.pos
            oend = len(orun)
            if opos < oend:
                older = orun[opos]
            else:
                older = run = self._next_run(older_input)
                if run is WAIT:
                    budget = 0
                elif run is not None:
                    orun, opos, oend = run, 0, len(run)
                    older = run[0]
        # The output's open block, packed here by the builder's rule:
        # records go in as they are taken, and ``settle`` looks at the
        # block once it reaches ``due``.  Nothing is written or read
        # before every record taken so far is booked in the locals
        # below, which the step writes back however it ends.
        builder = self._builder
        block, held, due = builder.block, builder.held, builder.due
        try:
            while consumed < budget:
                if older is not None and (
                    newer is None or older.key < newer.key
                ):
                    # Copy the older records below the newer head: none
                    # has a second version.  Taking a run's last record
                    # reads the next run first, if the access is unspent.
                    bound = None if newer is None else newer.key
                    final = oend - 1
                    start = opos
                    record = older
                    while True:
                        if opos == final:
                            if opos > start:
                                last = orun[opos - 1].key
                            run = self._next_run(older_input)  # type: ignore[arg-type]
                        opos += 1
                        nbytes = record.nbytes
                        consumed += nbytes
                        if not (drop and record.kind is _TOMBSTONE):
                            block.append(record)
                            held += nbytes
                            if held >= due:
                                block, held, due, stop = builder.settle(held)
                                if stop:
                                    break
                        if consumed >= budget or opos == oend:
                            break
                        record = orun[opos]
                        if bound is not None and record.key >= bound:
                            break
                    last = orun[opos - 1].key
                    if opos < oend:
                        older = orun[opos]
                    elif run is WAIT:
                        budget = 0
                    elif run is None:
                        older = None
                    else:
                        orun, opos, oend = run, 0, len(run)
                        older = run[0]
                elif newer is None:
                    builder.held = held
                    self._complete()
                    break
                elif older is not None and older.key == newer.key:
                    # Both inputs hold the key: fold its two versions.
                    # Every run read the take needs is made first, the
                    # newer input's before the older's, so a read that
                    # fails leaves both inputs on the key.
                    if kind == 0:
                        nrun = None
                    elif kind == 1:
                        nrun = self._next_run(source) if npos + 1 == nend else None
                    else:
                        nrun = self._holder_runs()
                    orun_next = (
                        self._next_run(older_input)  # type: ignore[arg-type]
                        if opos + 1 == oend
                        else None
                    )
                    merged = merge_records([newer, older], drop_tombstones=drop)
                    if merged is not None:
                        block.append(merged)
                        held += merged.nbytes
                        if held >= due:
                            block, held, due, stop = builder.settle(held)
                    taken = newer.nbytes if kind != 2 else self._folded_bytes
                    consumed += taken + older.nbytes
                    newer_bytes += taken
                    last = older.key
                    if kind == 0:
                        npos += 1
                        newer = index[nlist[npos]] if npos < nend else None
                    elif kind == 1:
                        if nrun is None or nrun is WAIT:
                            npos += 1
                            newer = nlist[npos] if npos < nend else nrun
                        else:
                            nlist, npos, nend = nrun, 0, len(nrun)
                            newer = nrun[0]
                    else:
                        self._take_folded(nrun)
                    if orun_next is None or orun_next is WAIT:
                        opos += 1
                        older = orun[opos] if opos < oend else orun_next
                    else:
                        orun, opos, oend = orun_next, 0, len(orun_next)
                        older = orun_next[0]
                    if builder.write_due:
                        builder, block, held, due = self._write(held)
                    if kind == 2:
                        newer = self._fold_newer()
                    if newer is WAIT or older is WAIT:
                        budget = 0
                    continue
                elif kind == 0:
                    # Copy the C0 records below the older head.
                    bound = (
                        nend
                        if older is None
                        else bisect_left(nlist, older.key, npos, nend)
                    )
                    taken = consumed
                    while npos < bound:
                        record = index[nlist[npos]]
                        npos += 1
                        nbytes = record.nbytes
                        consumed += nbytes
                        if not (drop and record.kind is _TOMBSTONE):
                            block.append(record)
                            held += nbytes
                            if held >= due:
                                block, held, due, stop = builder.settle(held)
                                if stop:
                                    break
                        if consumed >= budget:
                            break
                    newer_bytes += consumed - taken
                    last = record.key
                    newer = index[nlist[npos]] if npos < nend else None
                elif kind == 1:
                    # Copy the newer run's records below the older head,
                    # its last record as the older input's is.
                    bound = None if older is None else older.key
                    final = nend - 1
                    start = npos
                    taken = consumed
                    record = newer
                    while True:
                        if npos == final:
                            if npos > start:
                                last = nlist[npos - 1].key
                            newer_bytes += consumed - taken
                            taken = consumed
                            run = self._next_run(source)
                        npos += 1
                        nbytes = record.nbytes
                        consumed += nbytes
                        if not (drop and record.kind is _TOMBSTONE):
                            block.append(record)
                            held += nbytes
                            if held >= due:
                                block, held, due, stop = builder.settle(held)
                                if stop:
                                    break
                        if consumed >= budget or npos == nend:
                            break
                        record = nlist[npos]
                        if bound is not None and record.key >= bound:
                            break
                    newer_bytes += consumed - taken
                    last = nlist[npos - 1].key
                    if npos < nend:
                        newer = nlist[npos]
                    elif run is WAIT:
                        budget = 0
                    elif run is None:
                        newer = None
                    else:
                        nlist, npos, nend = run, 0, len(run)
                        newer = run[0]
                else:
                    # Copy the newer inputs' folded key below the older
                    # head.
                    self._take_folded()
                    if not (drop and newer.kind is _TOMBSTONE):
                        block.append(newer)
                        held += newer.nbytes
                        if held >= due:
                            block, held, due, stop = builder.settle(held)
                    consumed += self._folded_bytes
                    newer_bytes += self._folded_bytes
                    last = newer.key
                    if builder.write_due:
                        builder, block, held, due = self._write(held)
                    newer = self._fold_newer()
                    if newer is WAIT:
                        budget = 0
                    continue
                if builder.write_due:
                    builder, block, held, due = self._write(held)
        finally:
            # Write the step's state back: the open block's bytes (unless
            # closing the output closed it), what it took from C0 leaves
            # C0 as one slice, the cursor moves past the last key it
            # wrote, and the inputs keep their runs and positions.
            if block is builder.block:
                builder.held = held
            if kind == 0:
                if last is not None:
                    cursor.take(npos, newer_bytes, last, self._into)  # type: ignore[union-attr]
            elif kind == 1:
                source.run, source.pos = nlist, npos
            if older_input is not None:
                older_input.run, older_input.pos = orun, opos
            self.bytes_read += consumed
            self.newer_bytes_read += newer_bytes
            if not self.done:
                inprogress = self.bytes_read / self.input_bytes
                self.inprogress = inprogress if inprogress < 1.0 else 1.0
            if stats.read_ops + stats.write_ops != gate.mark:
                reads, writes, seeks, write_seeks = gate.before
                self.read_calls += stats.read_ops - reads
                self.write_calls += stats.write_ops - writes
                self.seeks += stats.seeks - seeks
                self.write_seeks += stats.write_seeks - write_seeks
        if consumed == 0 and not self.done and not gate.clear:
            consumed = 1  # it read a head: it ran
        report = self._report
        if consumed and report is not None:
            gear, bytes_counter, seconds_counter, trace = report
            seconds = self._clock.now - started
            bytes_counter.value += consumed  # Counter.inc, inline: both >= 0
            seconds_counter.value += seconds
            if trace.enabled:  # skip the kwargs build when tracing is off
                trace.emit(
                    "merge_progress",
                    level=gear,
                    worked=consumed,
                    seconds=seconds,
                    inprogress=self.inprogress,
                    reads=self.read_calls,
                    seeks=self.seeks,
                    writes=self.write_calls,
                    write_seeks=self.write_seeks,
                )
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
            self.inprogress = 1.0
            self._builder.abandon()

    def _open(self, table: SSTable) -> _Input:
        self._readahead_pages += min(self._stasis.streaming_pages, table.npages)
        return _Input(table)

    def _next_run(self, source: _Input) -> list[Record] | None | Any:
        """The run after ``source``'s current one: read now if the step's
        access is unspent, :data:`WAIT` if it is spent, ``None`` past the
        last."""
        table = source.table
        start = source.next_block
        if start == len(table.blocks):
            return None
        if not self._gate.clear:
            return WAIT
        run, source.next_block = table.read_run(start)
        return run

    def _fold_newer(self) -> Record | None | Any:
        """The newer on-disk inputs' next key with every version of it
        folded, newest first and no tombstone dropped; ``None`` past
        their end, :data:`WAIT` while an input's next run waits for the
        step's access.  Who holds the versions and their bytes are kept
        for :meth:`_take_folded`."""
        heads = []
        for source in self._newer:
            run, pos = source.run, source.pos
            if pos == len(run):
                run = self._next_run(source)
                if run is WAIT:
                    return WAIT
                if run is None:
                    continue
                source.run, source.pos, pos = run, 0, 0
            heads.append((source, run[pos]))
        if not heads:
            return None
        key = min(head.key for _, head in heads)
        group = [head for _, head in heads if head.key == key]
        self._holders = [source for source, head in heads if head.key == key]
        self._folded_bytes = sum(record.nbytes for record in group)
        return merge_records(group)

    def _holder_runs(self) -> list[Any]:
        """The run each holder of the folded key reads next, in order,
        for those whose run the key ends (``None`` for the rest).  Only
        the first read can go through, so a read that fails leaves no
        input changed."""
        return [
            self._next_run(source) if source.pos + 1 == len(source.run) else None
            for source in self._holders
        ]

    def _take_folded(self, runs: list[Any] | None = None) -> None:
        """Move every holder of the folded key past it (onto the run
        :meth:`_holder_runs` read for it, if any)."""
        if runs is None:
            runs = self._holder_runs()
        for source, run in zip(self._holders, runs):
            if run is None or run is WAIT:
                source.pos += 1
            else:
                source.run, source.pos = run, 0

    def _write(
        self, held: int
    ) -> tuple[SSTableBuilder, list[Record], int, int]:
        """The builder has writing to do, and the step has booked what
        it took: write behind what the gate lets through, and start the
        next output file if this one is full.  Returns the builder and
        its packing state after."""
        builder = self._builder
        builder.held = held
        builder.write_behind()
        if builder.full:
            self._rotate_builder()
            builder = self._builder
        return builder, builder.block, builder.held, builder.due

    def _new_builder(self, tree_id: int, expected_bytes: int) -> SSTableBuilder:
        """A builder for ``expected_bytes`` of the output.

        A split file is sized (extent reservation, Bloom filter) for its
        share of the merge's keys, at the merge's mean record size: it
        takes records until it reaches ``expected_bytes``, so it holds
        whole records, not exactly that many bytes.
        """
        keys, bloom_keys = self._expected_keys, self._bloom_keys
        if keys and expected_bytes < self.input_bytes:
            share = -(-keys * expected_bytes // self.input_bytes)
            expected_bytes = -(-share * self.input_bytes // keys)
            if bloom_keys is not None:
                bloom_keys = -(-bloom_keys * share // keys)
            keys = share
        return SSTableBuilder(
            self._stasis,
            tree_id=tree_id,
            expected_bytes=expected_bytes,
            expected_keys=keys,
            with_bloom=self._with_bloom,
            compression_ratio=self._compression_ratio,
            bloom_keys=bloom_keys,
            gate=self._gate,
            limit_bytes=self._split_output_bytes,
        )

    def _rotate_builder(self) -> None:
        self._gate.keep()  # closing the file writes whatever the gate says
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)
        assert self._tree_id_source is not None
        assert self._split_output_bytes is not None
        self._builder = self._new_builder(
            self._tree_id_source(), self._split_output_bytes
        )

    def _complete(self) -> None:
        self._gate.keep()  # closing the output writes whatever the gate says
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)
        if self._split_output_bytes is None:
            self.output = table
        self.done = True
        self.inprogress = 1.0

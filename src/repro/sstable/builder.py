"""Building on-disk tree components.

A builder receives records in strictly increasing key order (merges emit
them that way), packs them into blocks, and writes blocks sequentially
into contiguous extents from the region allocator.  Output I/O is buffered
and written behind ``Stasis.streaming_pages`` at a time — the unit merge
inputs are read in — so component construction is charged as sequential
bandwidth, the defining property of log-structured writes.  Only the
last write of an extent or of the component is shorter.

Blocks are dense.  A block grows until its records reach one page; from
then on it owns ``ceil(bytes / page_size)`` pages and keeps accepting
records while they still fit in those pages, closing *before* the record
that would need one more.  Sub-page records therefore give two-page
blocks that are nearly full, and a record larger than a page gives a
block of exactly the pages it spans; the only padding is the tail of a
block's last page.

The Bloom filter is sized up front from the expected key count (the merge
knows its inputs' key counts; Section 4.4.3: "we track the number of keys
in each tree component, and size the Bloom filter for a false positive
rate below 1%").  A build whose input grows while it runs (a snowshovel
pass) passes ``bloom_keys``, the keys it plans for, which sizes the
filter only: ``expected_keys`` also sizes the extent reservation.  When
a block closes, the builder hands the filter the record tuple it writes
(``BloomFilter.defer``); the filter hashes those keys when it is first
probed or persisted.  A component merged away before any read reaches
it therefore never hashes a key, while every answer and persisted byte
is what an eager fill gives.  The fill reads the tuples the builder
wrote, not the device, so it issues no I/O.
"""

from __future__ import annotations

import math

from repro.bloom import BloomFilter
from repro.errors import StorageError
from repro.records import Record
from repro.sstable.reader import Block, SSTable
from repro.storage.region import Extent
from repro.storage.stasis import Stasis, StepGate

_CONTINUATION = ("cont",)  # payload of pages 2..n of a multi-page block
_NEVER = 1 << 62  # a byte count no block reaches
_MIN_EXTENT_PAGES = 16

BLOOM_FALSE_POSITIVE_RATE = 0.01
"""Every component's filter target: 10 bits/key gives 1 % (Section 3.1)."""


class SSTableBuilder:
    """Accumulates sorted records into a new :class:`SSTable`."""

    def __init__(
        self,
        stasis: Stasis,
        tree_id: int,
        expected_bytes: int = 0,
        expected_keys: int | None = None,
        with_bloom: bool = True,
        compression_ratio: float = 1.0,
        bloom_keys: int | None = None,
        gate: StepGate | None = None,
        limit_bytes: int | None = None,
    ) -> None:
        if not 0.0 < compression_ratio <= 1.0:
            raise ValueError(
                f"compression_ratio must be in (0, 1], got {compression_ratio}"
            )
        self._stasis = stasis
        self._tree_id = tree_id
        self._page_size = stasis.page_size
        self._write_behind_pages = stasis.streaming_pages
        # A merge's gate puts a write-behind off to the merge's next step
        # when this step has already touched the device; the buffer then
        # runs past one unit by at most the step's budget.
        self._gate = gate
        # Rose-style column compression (Section 6): records occupy
        # ratio * size on disk, shrinking merge bandwidth by a constant
        # factor without affecting reads.  Decompression cost is CPU,
        # which the device model does not charge.
        # A record takes its own bytes on disk, or this share of them.
        self._ratio = None if compression_ratio == 1.0 else compression_ratio
        self._bloom: BloomFilter | None = None
        if with_bloom:
            capacity = bloom_keys or expected_keys or 1024
            self._bloom = BloomFilter.for_capacity(
                max(64, capacity), BLOOM_FALSE_POSITIVE_RATE
            )
        self._extents: list[Extent] = []
        self._next_page = 0  # next unused page id in the current extent
        self._extent_end = 0  # one past the current extent's last page
        self._blocks: list[Block] = []
        self._pending: list[tuple[int, object]] = []  # (page_id, payload)
        self._pending_breaks = 0  # extent boundaries inside the buffer
        # The open block, packed by one rule: a record goes into
        # ``block`` and its ``nbytes`` into ``held``, and once ``held``
        # reaches ``due``, :meth:`settle` looks at the block (after every
        # record when records are compressed: it counts the record's
        # bytes on disk instead).  :meth:`add` follows the rule; a merge
        # step follows it inline, on these three held in its locals.
        self.block: list[Record] = []
        self.held = 0
        self.due = 0
        self._cap = _NEVER  # the bytes of the pages the block owns
        self._limit_bytes = limit_bytes
        self._closed_bytes = 0  # of the blocks closed so far
        self._closed_keys = 0
        self._closed_last_key: bytes | None = None
        self._finished = False
        self.full = False
        """Whether the component has reached ``limit_bytes``."""
        self.write_due = False
        """Whether writing is due: a block closed since the last
        :meth:`write_behind` left a unit the gate lets through, or the
        component is :attr:`full`."""
        metrics = stasis.runtime.metrics
        self._ctr_packed = metrics.counter("sstable.bytes_packed")
        self._ctr_padded = metrics.counter("sstable.bytes_padded")
        self.settle(0)  # ``due``: the first page, or ``limit_bytes``
        if expected_bytes > 0:
            pages = self._pages_for(expected_bytes, expected_keys)
            self._grow(max(_MIN_EXTENT_PAGES, pages))

    @property
    def nbytes(self) -> int:
        """Record payload bytes added so far."""
        return self._closed_bytes + self.held

    @property
    def key_count(self) -> int:
        return self._closed_keys + len(self.block)

    def add(self, record: Record) -> bool:
        """Append one record; keys must be strictly increasing.  Writes
        behind what is due, and returns whether the component has
        reached ``limit_bytes`` (the caller starts the next one)."""
        if self._finished:
            raise StorageError("builder already finished")
        block = self.block
        last = block[-1].key if block else self._closed_last_key
        if last is not None and record.key <= last:
            raise StorageError(
                f"records must arrive in strictly increasing key order "
                f"({record.key!r} after {last!r})"
            )
        block.append(record)
        held = self.held + record.nbytes
        if held >= self.due:
            self.settle(held)
        else:
            self.held = held
        if self.write_due:
            self.write_behind()
        return self.full

    def write_behind(self) -> None:
        """Write the buffer's head while a unit is buffered, or the
        buffer has left an extent (that extent's last, short run), and
        the step's access (if any) is unspent."""
        self.write_due = False
        gate = self._gate
        while (
            len(self._pending) >= self._write_behind_pages
            or self._pending_breaks
        ) and (gate is None or gate.clear):
            self._flush_pending()

    def settle(self, held: int) -> tuple[list[Record], int, int, bool]:
        """The open block's bytes, ``held``, reached ``due``.  A block
        below a page takes every record; from there it owns
        ceil(bytes / page_size) pages, tops up the last one, and a record
        that would need one more opens the next block instead (this one
        closes first).  It writes nothing.  Returns the packing state
        after (``block``, ``held``, ``due``) and :attr:`write_due`."""
        cap, page_size = self._cap, self._page_size
        block, ratio = self.block, self._ratio
        if ratio is not None and block:
            nbytes = block[-1].nbytes
            held = held - nbytes + max(8, int(nbytes * ratio))
        self.held = held
        closed = held > cap
        if closed:
            record = block.pop()
            nbytes = (
                record.nbytes
                if ratio is None
                else max(8, int(record.nbytes * ratio))
            )
            self.held = held - nbytes
            self._close_block()
            block = self.block
            block.append(record)
            self.held = held = nbytes
            cap = _NEVER
        if cap == _NEVER and held >= page_size:
            cap = self._cap = -(-held // page_size) * page_size
        due = page_size if cap == _NEVER else cap + 1
        limit = self._limit_bytes
        if limit is not None:
            due = min(due, limit - self._closed_bytes)
            if self._closed_bytes + held >= limit:
                self.full = self.write_due = True
        if ratio is not None:
            due = 0
        self.due = due
        if closed and not self.write_due:
            gate = self._gate
            self.write_due = (
                len(self._pending) >= self._write_behind_pages
                or self._pending_breaks > 0
            ) and (gate is None or gate.clear)
        return block, held, due, self.write_due

    def _close_block(self) -> None:
        """Close the open block: it takes the pages its bytes need and
        joins the write-behind buffer.  (:meth:`settle` calls it and
        sets the next block's ``due``.)"""
        block = self.block
        # Blocks follow one another in key order, whoever packed them
        # (a merge step packs inline): a cheap check, once a block.
        after = self._closed_last_key
        if after is not None and block[0].key <= after:
            raise StorageError(
                f"records must arrive in strictly increasing key order "
                f"(a block from {block[0].key!r} after {after!r})"
            )
        held = self.held
        page_size = self._page_size
        npages = -(-held // page_size)  # math.ceil(held / page_size), held > 0
        self._ctr_packed.value += held  # Counter.inc, inline: both >= 0
        self._ctr_padded.value += npages * page_size - held
        payload = tuple(block)
        first_page = self._reserve(npages)
        if self._bloom is not None:
            self._bloom.defer(payload)
        self._blocks.append(Block(block[0].key, first_page, npages, len(block)))
        pending = self._pending
        pending.append((first_page, payload))
        for page_id in range(first_page + 1, first_page + npages):
            pending.append((page_id, _CONTINUATION))
        self._closed_bytes += held
        self._closed_keys += len(block)
        self._closed_last_key = block[-1].key
        self.block = []
        self.held = 0
        self._cap = _NEVER

    def finish(self) -> SSTable | None:
        """Flush everything and return the component (``None`` if empty).
        A write that fails raises and leaves the rest buffered: calling
        again writes it."""
        if self._finished:
            raise StorageError("builder already finished")
        if self.block:
            self._close_block()
        while self._pending:
            self._flush_pending()
        self._finished = True
        if not self._blocks:
            for extent in self._extents:
                self._stasis.regions.free(extent)
            return None
        self._trim_tail()
        return SSTable(
            self._stasis,
            self._blocks,
            self._extents,
            self._closed_keys,
            self._closed_bytes,
            self._bloom,
            self._tree_id,
            max_key=self._closed_last_key,
        )

    def abandon(self) -> None:
        """Discard a partially built component, freeing its space.

        Used when a merge is torn down (crash injection tests): the
        component was never committed to the manifest, so its pages are
        garbage.
        """
        self._finished = True
        for extent in self._extents:
            for page_id in range(extent.start, extent.end):
                self._stasis.pagefile.free_page(page_id)
            self._stasis.regions.free(extent)
        self._extents = []
        self._blocks = []
        self._pending = []
        self._pending_breaks = 0

    def _pages_for(
        self, expected_bytes: int, expected_keys: int | None
    ) -> int:
        """Pages a build of uniform records of the expected mean size fills.

        Follows the packing rule of :meth:`settle`, so a merge whose output
        matches its estimate lands in the one extent reserved up front.
        Without a key count the records are taken to be small.
        """
        page_size = self._page_size
        if not expected_keys:
            return math.ceil(expected_bytes / page_size)
        record = max(1, math.ceil(expected_bytes / expected_keys))
        # Records until the block reaches a page fix the pages it owns.
        opening = math.ceil(page_size / record) * record
        block_pages = math.ceil(opening / page_size)
        per_block = block_pages * page_size // record
        return math.ceil(expected_keys / per_block) * block_pages

    def _reserve(self, npages: int) -> int:
        """Claim ``npages`` contiguous page ids, growing extents as needed."""
        if self._next_page + npages > self._extent_end:
            # The block would straddle an extent boundary; waste the tail
            # (it is reclaimed with the extent) and start a fresh extent.
            self._grow(max(_MIN_EXTENT_PAGES, npages, self._estimated_growth()))
            if self._pending and self._pending[-1][0] + 1 != self._next_page:
                self._pending_breaks += 1
        first = self._next_page
        self._next_page += npages
        return first

    def _grow(self, pages: int) -> None:
        extent = self._stasis.regions.allocate(pages)
        self._extents.append(extent)
        self._next_page = extent.start
        self._extent_end = extent.end

    def _estimated_growth(self) -> int:
        used = sum(extent.length for extent in self._extents)
        return max(_MIN_EXTENT_PAGES, used // 4)

    def _flush_pending(self) -> None:
        """Write the head of the buffer as one transfer: up to one
        write-behind unit of pages, ending early at an extent boundary.
        A transfer into pages a commit still in flight freed waits for
        that commit first (:meth:`Stasis.await_commit`)."""
        pending = self._pending
        first_id = pending[0][0]
        limit = min(len(pending), self._write_behind_pages)
        n = 1
        while n < limit and pending[n][0] == first_id + n:
            n += 1
        self._stasis.await_commit(first_id, n)
        self._stasis.pagefile.write_run(
            first_id, [payload for _, payload in pending[:n]]
        )
        # Booked once the write succeeds: a write that fails leaves the
        # buffer as it was, for the next attempt.
        if n < len(pending) and pending[n][0] != first_id + n:
            self._pending_breaks -= 1
        del pending[:n]

    def _trim_tail(self) -> None:
        """Return the unused tail of the final extent to the allocator."""
        if not self._extents or self._next_page >= self._extent_end:
            return
        last = self._extents[-1]
        used = self._next_page - last.start
        if used <= 0:
            self._stasis.regions.free(last)
            self._extents.pop()
            return
        self._extents[-1] = self._stasis.regions.shrink(last, used)

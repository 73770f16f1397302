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
filter only: ``expected_keys`` also sizes the extent reservation.  A
block's keys go into the filter in one ``BloomFilter.update`` when the
block closes, so the filter is complete when the component is.
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
_MIN_EXTENT_PAGES = 16


class SSTableBuilder:
    """Accumulates sorted records into a new :class:`SSTable`."""

    def __init__(
        self,
        stasis: Stasis,
        tree_id: int,
        expected_bytes: int = 0,
        expected_keys: int | None = None,
        with_bloom: bool = True,
        bloom_false_positive_rate: float = 0.01,
        compression_ratio: float = 1.0,
        bloom_keys: int | None = None,
        gate: StepGate | None = None,
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
        self._compression_ratio = compression_ratio
        self._bloom: BloomFilter | None = None
        if with_bloom:
            capacity = bloom_keys or expected_keys or 1024
            self._bloom = BloomFilter.for_capacity(
                max(64, capacity), bloom_false_positive_rate
            )
        self._extents: list[Extent] = []
        self._next_page = 0  # next unused page id in the current extent
        self._extent_end = 0  # one past the current extent's last page
        self._blocks: list[Block] = []
        self._pending: list[tuple[int, object]] = []  # (page_id, payload)
        self._pending_breaks = 0  # extent boundaries inside the buffer
        self._current: list[Record] = []
        self._current_bytes = 0
        self._key_count = 0
        self._nbytes = 0
        self._last_key: bytes | None = None
        self._finished = False
        metrics = stasis.runtime.metrics
        self._ctr_packed = metrics.counter("sstable.bytes_packed")
        self._ctr_padded = metrics.counter("sstable.bytes_padded")
        if expected_bytes > 0:
            pages = self._pages_for(expected_bytes, expected_keys)
            self._grow(max(_MIN_EXTENT_PAGES, pages))

    @property
    def nbytes(self) -> int:
        """Record payload bytes added so far."""
        return self._nbytes

    @property
    def key_count(self) -> int:
        return self._key_count

    def add(self, record: Record) -> None:
        """Append one record; keys must be strictly increasing."""
        if self._finished:
            raise StorageError("builder already finished")
        if self._last_key is not None and record.key <= self._last_key:
            raise StorageError(
                f"records must arrive in strictly increasing key order "
                f"({record.key!r} after {self._last_key!r})"
            )
        self._last_key = record.key
        disk_bytes = max(8, int(record.nbytes * self._compression_ratio))
        held = self._current_bytes
        page_size = self._page_size
        # A block that has reached a page owns ceil(held / page_size)
        # pages: top up the last one, close before the record that
        # would need one more.
        if (
            held >= page_size
            and held + disk_bytes > -(-held // page_size) * page_size
        ):
            self._close_block()
            held = 0
        self._current.append(record)
        self._current_bytes = held + disk_bytes
        self._key_count += 1
        self._nbytes += disk_bytes

    def finish(self) -> SSTable | None:
        """Flush everything and return the component (``None`` if empty)."""
        if self._finished:
            raise StorageError("builder already finished")
        self._finished = True
        if self._current:
            self._close_block()
        while self._pending:
            self._flush_pending()
        if not self._blocks:
            for extent in self._extents:
                self._stasis.regions.free(extent)
            return None
        self._trim_tail()
        return SSTable(
            self._stasis,
            self._blocks,
            self._extents,
            self._key_count,
            self._nbytes,
            self._bloom,
            self._tree_id,
            max_key=self._last_key,
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

        Follows the close rule in :meth:`add`, so a merge whose output
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

    def _close_block(self) -> None:
        npages = max(1, math.ceil(self._current_bytes / self._page_size))
        self._ctr_packed.inc(self._current_bytes)
        self._ctr_padded.inc(npages * self._page_size - self._current_bytes)
        first_page = self._reserve(npages)
        if self._bloom is not None:
            self._bloom.update([record.key for record in self._current])
        self._blocks.append(
            Block(
                first_key=self._current[0].key,
                first_page_id=first_page,
                npages=npages,
                nrecords=len(self._current),
            )
        )
        self._pending.append((first_page, tuple(self._current)))
        for i in range(1, npages):
            self._pending.append((first_page + i, _CONTINUATION))
        self._current = []
        self._current_bytes = 0
        # A write-behind is due when a unit is buffered, or when the
        # buffer has left an extent (that extent's last, short run).
        gate = self._gate
        while (
            len(self._pending) >= self._write_behind_pages
            or self._pending_breaks
        ) and (gate is None or gate.clear):
            self._flush_pending()

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
        write-behind unit of pages, ending early at an extent boundary."""
        pending = self._pending
        first_id = pending[0][0]
        limit = min(len(pending), self._write_behind_pages)
        n = 1
        while n < limit and pending[n][0] == first_id + n:
            n += 1
        if n < len(pending) and pending[n][0] != first_id + n:
            self._pending_breaks -= 1
        self._stasis.pagefile.write_run(
            first_id, [payload for _, payload in pending[:n]]
        )
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

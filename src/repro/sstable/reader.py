"""Reading on-disk tree components.

An :class:`SSTable` is an immutable sorted run of records.  Its block
index (first key, page location per block) lives in RAM — the paper's
read-fanout analysis (Section 2.1, Appendix A) assumes index nodes fit in
memory and counts only leaf-page cache — so an uncached point lookup costs
exactly one block read: one seek plus the block's pages.

Three read paths exist:

* ``get`` goes through the buffer manager, one ``BufferManager.get``
  per page of the block: an application read.
* ``scan`` goes through the buffer manager for as long as the pool has
  the blocks it wants — the block holding its start key, then each next
  one — and from the first block the pool does not have it is a stream
  with a private readahead buffer.  Short scans over hot keys are the
  traffic a cache exists for (the paper's Stasis buffer manager serves
  every application page read, Section 4.4.2); a long scan's tail is
  not, and one that went through the pool would flush it.  The block a
  scan first had to go to the device for is offered to the pool and
  admitted on its second miss (``BufferManager.offer``).
* ``read_run`` bypasses the buffer manager and reads one run of pages
  of the device's streaming size, handing it over as one list of
  records (merge reads; the paper pins merge pages separately from the
  application cache and batches iterator operations, Section 4.4.1).
  ``iter_runs`` reads every run in turn and ``iter_records`` is the
  same stream one record at a time.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from repro.bloom import BloomFilter
from repro.errors import CorruptionError, IOFaultError
from repro.records import Record
from repro.storage.region import Extent
from repro.storage.stasis import Stasis

_KEY = operator.attrgetter("key")


def _from(records: tuple[Record, ...], lo: bytes) -> tuple[Record, ...]:
    """The records of a block's (key-ordered) tuple at or above ``lo``."""
    start = bisect_left(records, lo, key=_KEY)
    return records[start:] if start else records


@dataclass(frozen=True, repr=False)
class Block:
    """One indexed unit: ``npages`` consecutive pages holding records.

    The builder fills the pages a block owns (see
    :mod:`repro.sstable.builder`): sub-page records make nearly full
    two-page blocks, a record larger than a page makes a block of the
    pages it spans, so the device transfers little besides records (the
    paper's append-only data page format stores records that span
    multiple pages).  The record tuple is stored on the first page;
    the other pages are continuation sentinels that charge the block
    its true transfer size.
    """

    first_key: bytes
    first_page_id: int
    npages: int
    nrecords: int

    def __repr__(self) -> str:
        # The generated repr's text, without its reprlib.recursive_repr
        # frame: a manifest base is sized by its repr, which names every
        # block of every live component.
        return (
            f"Block(first_key={self.first_key!r}, "
            f"first_page_id={self.first_page_id!r}, "
            f"npages={self.npages!r}, nrecords={self.nrecords!r})"
        )


class SSTable:
    """An immutable on-disk tree component."""

    def __init__(
        self,
        stasis: Stasis,
        blocks: list[Block],
        extents: list[Extent],
        key_count: int,
        nbytes: int,
        bloom: BloomFilter | None,
        tree_id: int,
        max_key: bytes | None = None,
    ) -> None:
        self._stasis = stasis
        self.blocks = blocks
        self.extents = extents
        self.key_count = key_count
        self.nbytes = nbytes
        self.bloom = bloom
        self.tree_id = tree_id
        self._max_key = max_key
        self._first_keys = [block.first_key for block in blocks]
        self._freed = False
        self.bloom_extent: Extent | None = None
        """Where the persisted Bloom filter lives, if it was persisted."""
        self.descriptor: dict | None = None
        """The manifest entry describing this component, once one was made."""
        metrics = stasis.runtime.metrics
        self._ctr_bloom_negative = metrics.counter("bloom.negatives")
        self._ctr_bloom_hit = metrics.counter("bloom.hits")
        self._ctr_bloom_false_positive = metrics.counter("bloom.false_positives")

    @property
    def min_key(self) -> bytes | None:
        return self.blocks[0].first_key if self.blocks else None

    @property
    def max_key(self) -> bytes | None:
        """Largest key stored, or ``None`` when empty (set by the builder)."""
        return self._max_key

    @property
    def npages(self) -> int:
        """Pages across all extents (includes alignment waste)."""
        return sum(extent.length for extent in self.extents)

    @property
    def page_fill(self) -> float:
        """Record bytes over the bytes of the pages its blocks own.

        What is left of 1.0 is padding the device writes, reads and
        stores along with the records: the tail of each block's last
        page.
        """
        pages = sum(block.npages for block in self.blocks)
        if pages == 0:
            return 0.0
        return self.nbytes / (pages * self._stasis.page_size)

    def index_ram_bytes(self, pointer_bytes: int = 8) -> int:
        """RAM the in-memory block index consumes (Appendix A).

        One (first key, page pointer, length) entry per block; this is
        the "index nodes fit in RAM" cost the read-fanout analysis
        charges.
        """
        return sum(
            len(block.first_key) + pointer_bytes + 8 for block in self.blocks
        )

    def might_contain(self, key: bytes) -> bool:
        """Bloom-filter check; conservatively ``True`` with no filter."""
        return self.bloom is None or key in self.bloom

    def get(self, key: bytes) -> Record | None:
        """Point lookup through the buffer manager.

        Checks the Bloom filter first (Section 3.1): a negative answer
        costs zero I/O; a positive answer reads exactly one block, every
        page of it through the pool.  A page that fails verification (or
        runs out of retries) fails this read, not the engine, and nothing
        of the block stays cached (see :meth:`_forget_run`).
        """
        if not self.blocks:
            return None
        bloom = self.bloom
        if bloom is not None and key not in bloom:
            self._ctr_bloom_negative.value += 1  # zero-I/O rejection (§3.1)
            return None
        if self._max_key is not None and key > self._max_key:
            return None
        index = bisect_right(self._first_keys, key) - 1
        if index < 0:
            return None
        block = self.blocks[index]
        first = block.first_page_id
        buffer_get = self._stasis.buffer.get
        try:
            records = buffer_get(first)
            for page_id in range(first + 1, first + block.npages):
                buffer_get(page_id)  # charge continuation pages
        except (CorruptionError, IOFaultError):
            self._forget_run(first, block.npages)
            raise
        position = bisect_left(records, key, key=_KEY)
        if position < len(records) and records[position].key == key:
            if bloom is not None:
                self._ctr_bloom_hit.value += 1
            return records[position]
        if bloom is not None:  # paid a block read for nothing
            self._ctr_bloom_false_positive.value += 1
        return None

    def scan(
        self,
        lo: bytes,
        hi: bytes | None = None,
        readahead_blocks: int = 16,
        limit: int | None = None,
    ) -> Iterator[Record]:
        """Yield records with lo <= key < hi.

        Bloom filters do not help scans (Section 3.3); the first block
        access is the component's per-scan seek.  The block the scan
        lands on — the one holding ``lo`` — is an application read like
        ``get``'s and is looked up in the buffer pool, and so is each
        next block for as long as the pool holds it: a short scan over
        resident blocks never touches the device for this component.
        From the first block that is not resident the scan is a stream:
        blocks are read ``readahead_blocks`` at a time into a private
        readahead buffer (not the shared page cache, which interleaved
        component streams would thrash), so a long scan stays
        near-sequential per component.  The block the scan went to the
        device for — one per scan, the head of its first read — is
        offered to the pool (:meth:`BufferManager.offer`: admitted on
        its second miss once the pool is full, so one-shot scans cannot
        flush it).

        ``limit`` is the most records the caller will consume.  The
        first read is then sized to hold that many — one block for a
        start in mid-block plus ``limit`` over the mean records per
        block — and each refill doubles, up to ``readahead_blocks``;
        the caller may still read past ``limit`` (older versions and
        tombstones it skipped do not count against its own limit).
        """
        blocks = self.blocks
        if not blocks:
            return
        position = max(0, bisect_right(self._first_keys, lo) - 1)
        buffer = self._stasis.buffer
        clip = True  # only the first block read can hold keys below lo
        while True:  # application reads: from the pool while it has them
            if position == len(blocks):
                return
            block = blocks[position]
            if hi is not None and block.first_key >= hi:
                return
            records = buffer.lookup_block(block.first_page_id, block.npages)
            if records is None:
                break
            if clip:
                records, clip = _from(records, lo), False
            for record in records:
                if hi is not None and record.key >= hi:
                    return
                yield record
            position += 1
        nblocks = readahead_blocks
        if limit is not None:
            first = 1 + math.ceil(limit * len(blocks) / self.key_count)
            nblocks = min(first, readahead_blocks)
        group = self._contiguous_group(position, nblocks, hi)
        while group:  # the stream: private readahead from `block` on
            first_page = group[0].first_page_id
            count = group[-1].first_page_id + group[-1].npages - first_page
            try:
                payloads = self._stasis.pagefile.read_run(first_page, count)
            except (CorruptionError, IOFaultError):
                self._forget_run(first_page, count)
                raise
            if group[0] is block:
                buffer.offer(first_page, payloads, block.npages)
            for member in group:
                records = payloads[member.first_page_id - first_page]
                if clip:
                    records, clip = _from(records, lo), False
                for record in records:
                    if hi is not None and record.key >= hi:
                        return
                    yield record
            position += len(group)
            nblocks = min(2 * nblocks, readahead_blocks)
            group = self._contiguous_group(position, nblocks, hi)

    def _contiguous_group(
        self, position: int, limit: int, hi: bytes | None
    ) -> list[Block]:
        """Up to ``limit`` physically contiguous blocks from ``position``."""
        group: list[Block] = []
        for block in self.blocks[position : position + limit]:
            if hi is not None and block.first_key >= hi:
                break
            if group and (
                group[-1].first_page_id + group[-1].npages != block.first_page_id
            ):
                break
            group.append(block)
        return group

    def _forget_run(self, first_page_id: int, count: int) -> None:
        """Drop what the pool knows of a run whose read just failed.

        A read that fails verification (or runs out of retries) fails
        the scan or point read, not the engine, and nothing of the run
        (for a point read: the block) stays cached:
        resident copies and ghost entries of its pages go, so no later
        read is served from a range the device got wrong.
        """
        self._stasis.buffer.invalidate(first_page_id, count)

    def read_run(self, start: int) -> tuple[list[Record], int]:
        """Read the streaming run that begins at block ``start``: its
        records, and the block the next run begins at.

        This is the merge read path: it bypasses the buffer manager so
        merges do not evict the application's working set, and it reads
        contiguous pages ``Stasis.streaming_pages`` at a time, so the
        device spends most of each access transferring, not positioning.
        A run is a maximal group of physically contiguous blocks, closed
        once it holds ``streaming_pages``.  A read that fails raises and
        leaves nothing behind, so the caller can read the same run again.
        """
        run_pages = self._stasis.streaming_pages
        blocks = self.blocks
        end, pages = start + 1, blocks[start].npages
        while (
            end < len(blocks)
            and pages < run_pages
            and blocks[end - 1].first_page_id + blocks[end - 1].npages
            == blocks[end].first_page_id
        ):
            pages += blocks[end].npages
            end += 1
        first = blocks[start].first_page_id
        last = blocks[end - 1]
        payloads = self._stasis.pagefile.read_run(
            first, last.first_page_id + last.npages - first
        )
        return list(
            chain.from_iterable(
                payloads[block.first_page_id - first] for block in blocks[start:end]
            )
        ), end

    def iter_runs(self) -> Iterator[list[Record]]:
        """Yield all records in order, one list per streaming-size run
        (:meth:`read_run` from the first block to the last)."""
        start = 0
        while start < len(self.blocks):
            run, start = self.read_run(start)
            yield run

    def iter_records(self) -> Iterator[Record]:
        """Yield all records in order: :meth:`iter_runs`, flattened."""
        for run in self.iter_runs():
            yield from run

    def free(self) -> None:
        """Release the component's extents and cached pages.

        Deleted components can never be read again, so their buffered
        pages are dropped without writeback.
        """
        if self._freed:
            return
        self._freed = True
        extents = list(self.extents)
        if self.bloom_extent is not None:
            extents.append(self.bloom_extent)
        stasis = self._stasis
        for extent in extents:
            stasis.buffer.invalidate(extent.start, extent.length)
            stasis.pagefile.free_run(extent.start, extent.length)
            stasis.release(extent)

    def __repr__(self) -> str:
        return (
            f"SSTable(tree_id={self.tree_id}, keys={self.key_count}, "
            f"nbytes={self.nbytes}, blocks={len(self.blocks)})"
        )

"""Buffer manager with CLOCK (default) and LRU eviction.

Stasis's buffer manager was a tuning focus of the paper: the authors added
a CLOCK eviction policy because "LRU was a concurrency bottleneck" and an
improved writeback policy (Section 4.4.2).  In this reproduction the two
policies are also behaviourally different in a way the simulator can see:
dirty evictions are random writes charged to the device, which is how the
update-in-place B-Tree pays the second seek of its two-seek update
(Section 2.2).

Sequential bulk writers (tree merges) deliberately bypass the buffer
manager and write to the page file directly; the paper notes that "merge
threads avoid reading pre-images of pages they are about to overwrite".

Two ways in.  A page *demanded* by ``get`` is always installed.  A block
a scan read itself and *offers* (``offer``: the block the scan went to
the device for) is installed at once only while frames are free; once
admitting means evicting, it is installed on its second miss — the first
leaves its id on a ghost list that names at most ``capacity_pages`` pages
(2Q's A1out, Johnson & Shasha, VLDB '94).  Most blocks a scan lands on
are never landed on again, so one-shot scans cannot flush the pool and a
full-table scan evicts nothing.

``get`` runs once per page of every point read that passes a Bloom
filter, so it does its bookkeeping inline: a hit is one dict probe, one
counter bump and the frame's CLOCK bit (or LRU move).  A miss is one
more call, ``_install``, which ``put`` and ``offer`` share: in a full
pool it sweeps the hand to the victim, unlinks it, writes it back if
dirty and *recycles its frame* for the new page, relinked at the seam
— where a fresh frame would have gone — so a miss allocates nothing.
CLOCK frames live in a plain dict (the ring holds their order); only
LRU keeps an ``OrderedDict``, whose order is its policy.  Every count —
hits, misses, evictions, writebacks, offers — is kept once, in its
metrics-registry counter (``buffer.*``), and the attributes of the same
names read it back.  An eviction's ``buffer_evict`` trace event is built
only while the trace recorder is enabled.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.obs.metrics import Counter
from repro.storage.pagefile import PageFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.runtime import EngineRuntime


class EvictionPolicy(enum.Enum):
    """Which replacement policy the buffer manager runs."""

    CLOCK = "clock"
    LRU = "lru"


@dataclass(slots=True, eq=False)
class _Frame:
    page_id: int
    payload: Any
    referenced: bool = True
    dirty: bool = False
    # CLOCK ring links (unused under LRU, which orders by the frame dict).
    prev: "_Frame | None" = field(default=None, repr=False)
    next: "_Frame | None" = field(default=None, repr=False)


def _common(span: range, table: dict[int, Any]) -> list[int]:
    """The page ids of ``span`` that ``table`` holds, found by walking
    the smaller of the two."""
    if len(span) <= len(table):
        return list(filter(table.__contains__, span))
    return list(filter(span.__contains__, table))


class BufferManager:
    """A page cache of bounded size in front of a :class:`PageFile`.

    ``get`` faults pages in (charging a device read on miss); ``put``
    installs a new payload and marks the frame dirty; dirty frames are
    written back when evicted or when ``flush_all`` runs.  ``lookup_block``
    and ``offer`` are the scan path's pair: a residency test that never
    touches the device, and second-miss admission for what the scan then
    read itself.
    """

    def __init__(
        self,
        pagefile: PageFile,
        capacity_pages: int,
        policy: EvictionPolicy = EvictionPolicy.CLOCK,
        runtime: "EngineRuntime | None" = None,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError(
                f"capacity_pages must be positive, got {capacity_pages}"
            )
        self.pagefile = pagefile
        self.capacity_pages = capacity_pages
        self.policy = policy
        self._uses_clock = policy is EvictionPolicy.CLOCK
        # LRU's order is its frame dict's; CLOCK's is the ring below.
        self._frames: "dict[int, _Frame]" = (
            {} if self._uses_clock else OrderedDict()
        )
        # CLOCK order: a circular list through a sentinel that marks the
        # seam between the newest install and the oldest.  A frame is
        # linked exactly once and unlinked the moment it leaves the pool,
        # so a page id can never be swept twice per revolution.
        self._ring = _Frame(-1, None)
        self._ring.prev = self._ring.next = self._hand = self._ring
        # Blocks offered once and not admitted: first page id -> pages.
        self._ghost: "OrderedDict[int, int]" = OrderedDict()
        self._ghost_pages = 0
        self._trace = runtime.trace if runtime is not None else None
        # Every count lives in its counter, bumped in place (free-standing
        # counters when no runtime collects them).
        counter = runtime.metrics.counter if runtime is not None else Counter
        self._ctr_hits = counter("buffer.hits")
        self._ctr_misses = counter("buffer.misses")
        self._ctr_evictions = counter("buffer.evictions")
        self._ctr_writebacks = counter("buffer.dirty_writebacks")
        self._ctr_offered = counter("buffer.offered")
        self._ctr_deferred = counter("buffer.deferred")

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def get(self, page_id: int) -> Any:
        """Return a page payload, reading from the device on a miss."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self._ctr_hits.value += 1
            if self._uses_clock:
                frame.referenced = True
            else:
                self._frames.move_to_end(page_id)
            return frame.payload
        self._ctr_misses.value += 1
        payload = self.pagefile.read_page(page_id)
        self._install(page_id, payload, False)
        return payload

    def put(self, page_id: int, payload: Any, dirty: bool = True) -> None:
        """Install a payload for a page without reading the device."""
        frame = self._frames.get(page_id)
        if frame is None:
            self._install(page_id, payload, dirty)
            return
        frame.payload = payload
        frame.dirty = frame.dirty or dirty
        if self._uses_clock:
            frame.referenced = True
        else:
            self._frames.move_to_end(page_id)

    def lookup_block(self, first_page_id: int, npages: int) -> Any:
        """The first page's payload if all ``npages`` pages are resident.

        Never touches the device: a block with any page missing answers
        ``None`` and the caller reads it however it likes (a scan reads
        it together with its readahead, then calls :meth:`offer`).
        Counts ``npages`` hits or ``npages`` misses, like the ``get``
        per page it stands in for.
        """
        frames = self._frames
        head = frames.get(first_page_id)
        if head is not None:
            tail = range(first_page_id + 1, first_page_id + npages)
            if all(map(frames.__contains__, tail)):
                self._ctr_hits.value += npages
                if self._uses_clock:
                    head.referenced = True
                    for page_id in tail:
                        frames[page_id].referenced = True
                else:
                    frames.move_to_end(first_page_id)
                    for page_id in tail:
                        frames.move_to_end(page_id)
                return head.payload
        self._ctr_misses.value += npages
        return None

    def offer(self, first_page_id: int, payloads: list[Any], npages: int) -> None:
        """Offer a block the caller read: the first ``npages`` payloads.

        The block is installed if it fits in free frames or if this is
        its second miss (it is on the ghost list); otherwise it goes on
        the ghost list, pushing out the oldest blocks until the list
        names at most ``capacity_pages`` pages, and nothing is evicted.
        Pages already resident are left alone.
        """
        ghost = self._ghost
        if first_page_id in ghost:
            self._ghost_pages -= ghost.pop(first_page_id)
        elif len(self._frames) + npages > self.capacity_pages:
            ghost[first_page_id] = npages
            self._ghost_pages += npages
            while self._ghost_pages > self.capacity_pages:
                self._ghost_pages -= ghost.popitem(last=False)[1]
            self._ctr_offered.value += npages
            self._ctr_deferred.value += npages
            return
        self._ctr_offered.value += npages
        for i in range(npages):
            if first_page_id + i not in self._frames:
                self._install(first_page_id + i, payloads[i], False)

    def flush_page(self, page_id: int) -> None:
        """Write one dirty page back to the device."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise StorageError(f"page {page_id} is not resident")
        if frame.dirty:
            self.pagefile.write_page(page_id, frame.payload)
            self._ctr_writebacks.value += 1
            frame.dirty = False

    def flush_all(self) -> int:
        """Write back every dirty page, in page-id (elevator) order.

        Returns the number of pages written.
        """
        written = 0
        for page_id in sorted(self._frames):
            frame = self._frames[page_id]
            if frame.dirty:
                self.pagefile.write_page(page_id, frame.payload)
                self._ctr_writebacks.value += 1
                frame.dirty = False
                written += 1
        return written

    def invalidate(self, first_page_id: int, count: int = 1) -> None:
        """Drop ``count`` pages from ``first_page_id`` from the cache
        without writing them back.

        Used when a tree component is deleted: its pages can never be
        referenced again, so writeback would be wasted I/O.  The page
        ids may be handed out again, so the ghost list forgets the
        blocks that start in the span too.  Each side walks whichever
        is smaller, the span or what the pool holds.
        """
        span = range(first_page_id, first_page_id + count)
        frames = self._frames
        for page_id in _common(span, frames):
            frame = frames.pop(page_id)
            if self._uses_clock:
                if self._hand is frame:
                    self._hand = frame.next
                frame.prev.next = frame.next
                frame.next.prev = frame.prev
        ghost = self._ghost
        if ghost:
            for page_id in _common(span, ghost):
                self._ghost_pages -= ghost.pop(page_id)

    def drop_all(self) -> None:
        """Drop the entire cache without writeback (simulated crash)."""
        self._frames.clear()
        self._ring.prev = self._ring.next = self._hand = self._ring
        self._ghost.clear()
        self._ghost_pages = 0

    @property
    def hits(self) -> int:
        """Page lookups served from the pool."""
        return int(self._ctr_hits.value)

    @property
    def misses(self) -> int:
        """Page lookups that had to read the device (or, for a scan's
        ``lookup_block``, found the block incomplete)."""
        return int(self._ctr_misses.value)

    @property
    def evictions(self) -> int:
        """Frames reclaimed to make room for another page."""
        return int(self._ctr_evictions.value)

    @property
    def dirty_writebacks(self) -> int:
        """Dirty pages written back (on eviction or flush)."""
        return int(self._ctr_writebacks.value)

    @property
    def hit_rate(self) -> float:
        """Fraction of page lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def offered(self) -> int:
        """Pages of the blocks scans read themselves and offered."""
        return int(self._ctr_offered.value)

    @property
    def deferred(self) -> int:
        """Offered pages put on the ghost list instead of installed."""
        return int(self._ctr_deferred.value)

    @property
    def ghost_bytes(self) -> int:
        """RAM reserved for the ghost list: one page id per frame."""
        return 8 * self.capacity_pages

    def _install(self, page_id: int, payload: Any, dirty: bool) -> None:
        """Make ``page_id`` resident, evicting one page if the pool is full.

        CLOCK: the hand sweeps to the first unreferenced frame (clearing
        bits on the way), which is unlinked, written back if dirty and
        reused for the new page; the page goes in at the seam, as the
        newest install.  LRU evicts the least recently used frame.
        """
        frames = self._frames
        if len(frames) < self.capacity_pages:
            frame = _Frame(page_id, payload, True, dirty)
        else:
            if self._uses_clock:
                ring = self._ring
                frame = self._hand
                while frame is ring or frame.referenced:
                    frame.referenced = False
                    frame = frame.next
                victim_id = frame.page_id
                del frames[victim_id]
                after = frame.next
                frame.prev.next = after
                after.prev = frame.prev
                self._hand = after
            else:
                victim_id, frame = frames.popitem(last=False)
            if frame.dirty:
                self.pagefile.write_page(victim_id, frame.payload)
                self._ctr_writebacks.value += 1
            self._ctr_evictions.value += 1
            trace = self._trace
            if trace is not None and trace.enabled:
                trace.emit(
                    "buffer_evict", page_id=victim_id, dirty=frame.dirty
                )
            frame.page_id = page_id
            frame.payload = payload
            frame.referenced = True
            frame.dirty = dirty
        frames[page_id] = frame
        if self._uses_clock:
            seam = self._ring
            frame.prev, frame.next = seam.prev, seam
            seam.prev.next = frame
            seam.prev = frame
            if self._hand is seam:  # the hand had run off the newest end
                self._hand = frame

"""The pool that recycles its victim's frame against one that does not.

``BufferManager._install`` reuses the frame it evicts for the page it
installs.  ``ReferencePool`` below is the pool without that: a fresh
frame per miss, evicted by a separate CLOCK sweep (or LRU pop) and
unlinked by a separate step, its frames in an ``OrderedDict`` under
both policies.  Hypothesis drives both through the same random
``get`` / ``put`` / ``offer`` / ``invalidate`` / ``flush_page`` /
``flush_all`` / ``drop_all`` sequences; every returned payload and
raised error, the resident set, the CLOCK ring order, hand and
reference bits (the LRU order), every counter and the page order of
the dirty writebacks must agree after every step.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BufferManager, EvictionPolicy

PAGES = 12


class StubPageFile:
    """A page file that logs every page written and read."""

    def __init__(self):
        self.pages = {}
        self.reads = []
        self.writes = []

    def read_page(self, page_id):
        self.reads.append(page_id)
        return self.pages.get(page_id, f"disk{page_id}")

    def write_page(self, page_id, payload):
        self.writes.append((page_id, payload))
        self.pages[page_id] = payload


class RefFrame:
    __slots__ = ("page_id", "payload", "referenced", "dirty", "prev", "next")

    def __init__(self, page_id, payload, dirty=False):
        self.page_id = page_id
        self.payload = payload
        self.referenced = True
        self.dirty = dirty
        self.prev = self.next = None


class ReferencePool:
    """CLOCK / LRU with a fresh frame per install, second-miss offers."""

    def __init__(self, pagefile, capacity, policy):
        self.pagefile = pagefile
        self.capacity = capacity
        self.clock = policy is EvictionPolicy.CLOCK
        self.frames = OrderedDict()
        self.ring = RefFrame(-1, None)
        self.ring.prev = self.ring.next = self.hand = self.ring
        self.ghost = OrderedDict()
        self.ghost_pages = 0
        self.hits = self.misses = self.evictions = 0
        self.dirty_writebacks = self.offered = self.deferred = 0

    def get(self, page_id):
        frame = self.frames.get(page_id)
        if frame is not None:
            self.hits += 1
            self._touch(page_id, frame)
            return frame.payload
        self.misses += 1
        payload = self.pagefile.read_page(page_id)
        self._install(RefFrame(page_id, payload))
        return payload

    def put(self, page_id, payload, dirty):
        frame = self.frames.get(page_id)
        if frame is not None:
            frame.payload = payload
            frame.dirty = frame.dirty or dirty
            self._touch(page_id, frame)
            return
        self._install(RefFrame(page_id, payload, dirty))

    def offer(self, first, payloads, npages):
        if first in self.ghost:
            self.ghost_pages -= self.ghost.pop(first)
        elif len(self.frames) + npages > self.capacity:
            self.ghost[first] = npages
            self.ghost_pages += npages
            while self.ghost_pages > self.capacity:
                self.ghost_pages -= self.ghost.popitem(last=False)[1]
            self.offered += npages
            self.deferred += npages
            return
        self.offered += npages
        for i in range(npages):
            if first + i not in self.frames:
                self._install(RefFrame(first + i, payloads[i]))

    def invalidate(self, page_id):
        frame = self.frames.pop(page_id, None)
        if frame is not None:
            self._unlink(frame)
        self.ghost_pages -= self.ghost.pop(page_id, 0)

    def flush_page(self, page_id):
        frame = self.frames.get(page_id)
        if frame is None:
            raise StorageError(f"page {page_id} is not resident")
        if frame.dirty:
            self.pagefile.write_page(page_id, frame.payload)
            self.dirty_writebacks += 1
            frame.dirty = False

    def flush_all(self):
        written = 0
        for page_id in sorted(self.frames):
            frame = self.frames[page_id]
            if frame.dirty:
                self.pagefile.write_page(page_id, frame.payload)
                self.dirty_writebacks += 1
                frame.dirty = False
                written += 1
        return written

    def drop_all(self):
        self.frames.clear()
        self.ring.prev = self.ring.next = self.hand = self.ring
        self.ghost.clear()
        self.ghost_pages = 0

    def _touch(self, page_id, frame):
        if self.clock:
            frame.referenced = True
        else:
            self.frames.move_to_end(page_id)

    def _install(self, frame):
        while len(self.frames) >= self.capacity:
            self._evict_one()
        self.frames[frame.page_id] = frame
        if self.clock:
            seam = self.ring
            frame.prev, frame.next = seam.prev, seam
            seam.prev.next = frame
            seam.prev = frame
            if self.hand is seam:
                self.hand = frame

    def _evict_one(self):
        if self.clock:
            frame = self.hand
            while frame is self.ring or frame.referenced:
                frame.referenced = False
                frame = frame.next
            self.hand = frame
        else:
            frame = next(iter(self.frames.values()))
        del self.frames[frame.page_id]
        self._unlink(frame)
        if frame.dirty:
            self.pagefile.write_page(frame.page_id, frame.payload)
            self.dirty_writebacks += 1
        self.evictions += 1

    def _unlink(self, frame):
        if frame.next is None:
            return
        if self.hand is frame:
            self.hand = frame.next
        frame.prev.next = frame.next
        frame.next.prev = frame.prev


def observe(pool):
    """What a caller or a later step can see of a pool."""
    if isinstance(pool, ReferencePool):
        frames, ring, hand = pool.frames, pool.ring, pool.hand
        ghost, clock = pool.ghost, pool.clock
    else:
        frames, ring, hand = pool._frames, pool._ring, pool._hand
        ghost, clock = pool._ghost, pool.policy is EvictionPolicy.CLOCK
    ring_order, frame = [], ring.next
    while frame is not ring:
        ring_order.append((frame.page_id, frame.referenced))
        frame = frame.next
    return (
        sorted((p, f.payload, f.dirty) for p, f in frames.items()),
        ring_order if clock else list(frames),  # LRU: the dict's order
        hand.page_id,
        (pool.hits, pool.misses, pool.evictions, pool.dirty_writebacks,
         pool.offered, pool.deferred),
        list(ghost.items()),
    )


page = st.integers(0, PAGES - 1)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("get"), page),
        st.tuples(st.just("put"), page, st.booleans()),
        st.tuples(st.just("offer"), page, st.integers(1, 3)),
        st.tuples(st.just("invalidate"), page),
        st.tuples(st.just("flush_page"), page),
        st.tuples(st.just("flush_all")),
        st.tuples(st.just("drop_all")),
    ),
    max_size=80,
)


def apply(pool, step, n):
    """Run one step; its result, or the type of the error it raised."""
    name, *args = step
    try:
        if name == "put":
            return pool.put(args[0], f"put{n}", args[1])
        if name == "offer":
            first, npages = args
            return pool.offer(
                first, [f"offer{n}.{i}" for i in range(npages)], npages
            )
        return getattr(pool, name)(*args)
    except StorageError as error:
        return type(error)


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(list(EvictionPolicy)),
    capacity=st.integers(1, 8),
    steps=steps,
)
def test_a_recycled_frame_pool_matches_a_fresh_frame_pool(
    policy, capacity, steps
):
    real_file, ref_file = StubPageFile(), StubPageFile()
    pool = BufferManager(real_file, capacity, policy)
    reference = ReferencePool(ref_file, capacity, policy)
    for n, step in enumerate(steps):
        assert apply(pool, step, n) == apply(reference, step, n), step
        assert observe(pool) == observe(reference), step
        assert len(pool) == len(reference.frames) <= capacity
    assert real_file.reads == ref_file.reads
    assert real_file.writes == ref_file.writes

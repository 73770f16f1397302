"""A merge read or write that fails never truncates or scrambles the merge.

A C1':C2 merge reads C2 one streaming run at a time.  When a run's read
fails (its pages no longer pass verification, or the device keeps
failing past the retries), the step raises, and the merge stays on that
run: the next step reads it again, so a lasting fault keeps failing
loudly, and the merge installs only once it has read every record.
The C1':C2 cases load a bLSM tree until a C1':C2 merge has just started
over a C2 of some 300 blocks, make the blocks of C2 from a position on
unreadable, keep writing, then heal the device and run the merge to its
end.

A C0:C1 merge drains C0 in place behind a cursor while writes keep
landing in C0.  A step that raises, on a C1 read or on a write of the
output, still books every record it took: they leave C0, and the cursor
moves past the last key written, so a key written behind it while the
fault lasts waits for the next pass and the output stays in key order.
"""

import random
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.merge import MergeProcess
from repro.engines import build_engine
from repro.errors import CorruptionError, IOFaultError
from repro.faults.plan import FaultPlan
from repro.memtable import MemTable, SnowshovelCursor
from repro.records import Record
from repro.sstable import SSTableBuilder
from repro.storage import Stasis

KIB = 1024


class _Load:
    """The probe's load: 200-byte values under random keys, and the value
    each key was last written with (a write whose merge step raised has
    landed in C0 already)."""

    def __init__(self) -> None:
        self.engine = build_engine(
            "blsm", c0_bytes=64 * KIB, cache_pages=16, fault_plan=FaultPlan()
        )
        self.tree = self.engine.tree
        self.rng = random.Random(1)
        self.model: dict[bytes, bytes] = {}
        self.writes = 0

    def put(self, key: bytes | None = None) -> None:
        if key is None:
            key = b"key%08d" % self.rng.randrange(10**8)
        value = bytes([self.writes % 251]) * 200
        self.writes += 1
        self.model[key] = value
        self.engine.put(key, value)

    def until_a_c2_merge_starts(self, min_blocks: int = 300) -> None:
        tree = self.tree
        while True:
            running = tree._m12 is not None
            self.put()
            if (
                not running
                and tree._m12 is not None
                and tree._c2 is not None
                and len(tree._c2.blocks) >= min_blocks
            ):
                return

    def until_a_c1_merge_starts(self, min_blocks: int) -> None:
        tree = self.tree
        while True:
            running = tree._m01
            self.put()
            if (
                tree._m01 is not None
                and tree._m01 is not running
                and tree._c1 is not None
                and len(tree._c1.blocks) >= min_blocks
            ):
                return


def _fail_reads(load, error, first, component="_c2"):
    """Make the component's blocks from ``first`` on unreadable: corrupt
    on the device, or failing every read past the retries.  Returns the
    cure."""
    stasis = load.tree.stasis
    page = stasis.page_size
    ranges = [
        (block.first_page_id * page, block.npages * page)
        for block in getattr(load.tree, component).blocks[first:]
    ]
    if error is CorruptionError:
        for offset, nbytes in ranges:
            stasis.data_disk.mark_corrupt(offset, nbytes)

        def heal():
            for offset, nbytes in ranges:
                stasis.data_disk.clear_corruption(offset, nbytes)

        return heal
    pagefile = stasis.pagefile
    read_run = pagefile.read_run

    def failing(first_page_id, count):
        start, end = first_page_id * page, (first_page_id + count) * page
        if any(offset < end and start < offset + n for offset, n in ranges):
            raise IOFaultError("pagefile.read_run failed after 4 attempts")
        return read_run(first_page_id, count)

    pagefile.read_run = failing  # this engine's page file only
    return lambda: delattr(pagefile, "read_run")


def check_a_failed_read_leaves_the_merge_on_its_run(error, fraction):
    load = _Load()
    load.until_a_c2_merge_starts()
    tree = load.tree
    c2, merge = tree._c2, tree._m12
    heal = _fail_reads(load, error, int(len(c2.blocks) * fraction))
    raised = 0
    for _ in range(4_000):
        try:
            load.put()
        except error:
            raised += 1
        # Nothing installs while a run of C2 cannot be read.
        assert tree._c2 is c2 and tree._m12 is merge
        if raised == 3:  # the fault is met, and keeps failing loudly
            break
    assert raised == 3
    heal()
    while tree._m12 is merge:
        tree.step_m12(1 << 30)
    assert tree._c2 is not c2
    for key, value in load.model.items():
        assert load.engine.get(key) == value


@pytest.mark.parametrize("error", [CorruptionError, IOFaultError])
def test_a_failed_merge_read_is_read_again_and_nothing_is_lost(error):
    check_a_failed_read_leaves_the_merge_on_its_run(error, 0.5)


@settings(max_examples=3, deadline=None)
@example(error=CorruptionError, fraction=0.5)
@given(
    error=st.sampled_from([CorruptionError, IOFaultError]),
    fraction=st.floats(0.0, 0.95),
)
def test_a_failed_merge_read_never_truncates_wherever_it_fails(error, fraction):
    check_a_failed_read_leaves_the_merge_on_its_run(error, fraction)


def _fail_writes(load, merge):
    """Make every write into the merge's output fail past the retries.
    Returns the cure."""
    pagefile = load.tree.stasis.pagefile
    write_run = pagefile.write_run

    def failing(first_page_id, payloads):
        extents = merge._builder._extents
        if any(e.start <= first_page_id < e.end for e in extents):
            raise IOFaultError("pagefile.write_run failed after 4 attempts")
        return write_run(first_page_id, payloads)

    pagefile.write_run = failing  # this engine's page file only
    return lambda: delattr(pagefile, "write_run")


def _just_below(key):
    return b"key%08d" % (int(key[3:]) - 1)


def check_a_failed_c0_merge_step_keeps_the_output_in_order(fault, fraction):
    load = _Load()
    load.until_a_c1_merge_starts(min_blocks=40)
    tree = load.tree
    c1, merge = tree._c1, tree._m01
    c1_keys = [record.key for record in c1.iter_records()]
    if fault == "write":
        heal, error = _fail_writes(load, merge), IOFaultError
        end = len(c1_keys)
    else:
        first = int(len(c1.blocks) * fraction)
        heal = _fail_reads(load, fault, first, component="_c1")
        error = fault
        end = bisect_left(c1_keys, c1.blocks[first].first_key)
    # While the fault lasts, write random keys and keys just below the
    # C1 keys the merge took last before it: a key the output already
    # passed must wait for the next pass.
    below = [_just_below(key) for key in c1_keys[max(0, end - 64) : end]]
    raised = 0
    for step in range(4_000):
        try:
            load.put(below[step % len(below)] if step % 2 and below else None)
        except error:
            raised += 1
        assert tree._c1 is c1 and tree._m01 is merge
        if raised == 20:
            break
    assert raised == 20
    heal()
    while tree._m01 is merge:
        tree.step_m01(1 << 30)
    assert tree._c1 is not c1
    keys = [record.key for record in merge.output.iter_records()]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for key, value in load.model.items():
        assert load.engine.get(key) == value


@pytest.mark.parametrize("fault", [CorruptionError, IOFaultError, "write"])
def test_a_failed_c0_merge_step_books_what_it_took(fault):
    check_a_failed_c0_merge_step_keeps_the_output_in_order(fault, 0.5)


@settings(max_examples=3, deadline=None)
@given(
    fault=st.sampled_from([CorruptionError, IOFaultError, "write"]),
    fraction=st.floats(0.0, 0.95),
)
def test_a_failed_c0_merge_step_keeps_order_wherever_it_fails(fault, fraction):
    check_a_failed_c0_merge_step_keeps_the_output_in_order(fault, fraction)


def test_a_step_that_fails_at_a_run_end_moves_the_cursor_past_what_it_took():
    """A step copies C1's records up to the end of its first run, then
    fails to read the second: the cursor still moves past the last
    record it took, so a key written just behind that record waits for
    the next pass instead of joining the output out of order."""
    stasis = Stasis(buffer_pool_pages=64)
    value = b"v" * 200
    count = 3 * stasis.streaming_pages * stasis.page_size // 221
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=count)
    for i in range(count):
        builder.add(Record.base(b"k%06d" % i, value, i))
    c1 = builder.finish()
    run, second = c1.read_run(0)
    memtable = MemTable(1 << 20)
    memtable.put(Record.base(b"z", value, count))
    merge = MergeProcess(
        stasis,
        newer=SnowshovelCursor(memtable),
        older=c1,
        tree_id=2,
        input_bytes=c1.nbytes + memtable.nbytes,
        expected_keys=count + 1,
        drop_tombstones=False,
    )
    merge.step(10 * run[0].nbytes)  # reads the first run, takes ten
    pagefile = stasis.pagefile
    read_run = pagefile.read_run
    unreadable = c1.blocks[second].first_page_id

    def failing(first_page_id, npages):
        if first_page_id + npages > unreadable:
            raise IOFaultError("pagefile.read_run failed after 4 attempts")
        return read_run(first_page_id, npages)

    pagefile.read_run = failing
    with pytest.raises(IOFaultError):
        merge.step(1 << 30)  # the rest of the run, then its next one
    behind = run[20].key + b"x"
    memtable.put(Record.base(behind, value, count + 1))
    del pagefile.read_run
    merge.run_to_completion()
    keys = [record.key for record in merge.output.iter_records()]
    assert keys == [b"k%06d" % i for i in range(count)] + [b"z"]
    assert memtable.get(behind) is not None

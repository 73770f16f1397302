"""Copy-on-write snapshots: isolation under any interleaving, and the cost.

A snapshot no longer copies C0 when it opens: it reads the live
memtable in place and takes its own copy only if a write lands while it
is open (``core/versions.py``).  The stateful test holds the isolation
contract — every read through a snapshot answers from the state frozen
at open, whatever happens underneath — for both C0 disciplines and
all three layouts; the deterministic tests hold the
cost contract and the bookkeeping (registry, pins, gauges) around it.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import BLSM, BLSMOptions, PartitionedBLSM
from repro.core.compaction.tree import CompactionTree
from repro.engines import EngineConfig, build_engine
from repro.obs import format_version_summary
from repro.storage import DurabilityMode
from repro.testing import generate_trace, run_trace

keys = st.binary(min_size=1, max_size=4)
values = st.binary(min_size=0, max_size=24)


class _OpenSnapshot:
    """A snapshot under test, the model frozen when it opened, and at
    most one paused scan with the rows it has yet to yield."""

    def __init__(self, snap, model):
        self.snap = snap
        self.frozen = dict(model)
        self.scan = None
        self.remaining: list[tuple[bytes, bytes]] = []


class SnapshotMachine(RuleBasedStateMachine):
    """Writes, merges, memtable switches and crashes under open snapshots."""

    TREE = "blsm"
    SNOWSHOVEL = True

    @initialize()
    def setup(self):
        self.options = BLSMOptions(
            c0_bytes=2048,
            buffer_pool_pages=8,
            durability=DurabilityMode.SYNC,
            snowshovel=self.SNOWSHOVEL,
            compaction_policy="leveled" if self.TREE == "leveled" else "blsm3",
        )
        self.kernel = {
            "blsm": BLSM, "leveled": CompactionTree, "part": PartitionedBLSM
        }[self.TREE]
        # Partitions of a few records, so that snapshots span several.
        self.layout = (
            {"max_partition_bytes": 256} if self.TREE == "part" else {}
        )
        self.tree = self.kernel(self.options, **self.layout)
        self.model: dict[bytes, bytes] = {}
        self.open: list[_OpenSnapshot] = []
        self.opened = 0  # on the current tree (a crash starts a new one)

    # -- the world moves on ------------------------------------------------

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.tree.delete(key)
        self.model.pop(key, None)

    @rule(key=keys, delta=st.binary(min_size=1, max_size=6))
    def apply_delta(self, key, delta):
        self.tree.apply_delta(key, delta)
        if key in self.model:
            self.model[key] += delta

    @rule(budget=st.integers(1, 5000))
    def merge_step(self, budget):
        if self.kernel is PartitionedBLSM:
            self.tree.merge_step(budget)
        elif self.tree.step_m01(budget) == 0:
            self.tree.step_m12(budget)

    @rule()
    def switch_memtable(self):
        tree = self.tree
        if tree._memtable.is_empty:
            return
        if self.kernel is CompactionTree:
            tree._flush_memtable()
        elif self.SNOWSHOVEL or self.kernel is PartitionedBLSM:
            tree.drain()  # snowshoveling has no C0' to freeze into
        elif tree._frozen is None:
            tree._freeze_memtable()

    @rule()
    def crash_and_recover(self):
        stasis = self.tree.stasis
        stasis.crash()
        self.tree = self.kernel.recover(stasis, self.options, **self.layout)
        self.open.clear()  # views died with the process that held them
        self.opened = 0
        assert self.tree.versions.live_views == 0
        assert self.tree._memtable.view_count == 0

    # -- snapshots ---------------------------------------------------------

    @precondition(lambda self: len(self.open) < 4)
    @rule()
    def open_snapshot(self):
        self.open.append(_OpenSnapshot(self.tree.snapshot(), self.model))
        self.opened += 1

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 3), key=keys)
    def get_through_snapshot(self, index, key):
        view = self.open[index % len(self.open)]
        assert view.snap.get(key) == view.frozen.get(key)

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 3), lo=st.binary(max_size=2))
    def start_scan(self, index, lo):
        view = self.open[index % len(self.open)]
        view.scan = view.snap.scan(lo)
        view.remaining = sorted(
            (k, v) for k, v in view.frozen.items() if k >= lo
        )

    @precondition(lambda self: any(v.scan is not None for v in self.open))
    @rule(index=st.integers(0, 3), rows=st.integers(1, 5))
    def advance_paused_scan(self, index, rows):
        scanning = [v for v in self.open if v.scan is not None]
        view = scanning[index % len(scanning)]
        got = list(itertools.islice(view.scan, rows))
        assert got == view.remaining[:rows]
        view.remaining = view.remaining[rows:]

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 3))
    def close_snapshot(self, index):
        view = self.open.pop(index % len(self.open))
        if view.scan is not None:
            assert list(view.scan) == view.remaining
        view.snap.close()

    # -- bookkeeping -------------------------------------------------------

    @invariant()
    def gauges_match_open_snapshots(self):
        versions = self.tree.versions
        assert versions.live_views == len(self.open)
        assert versions.cow_copies <= self.opened  # at most one copy each
        if not self.open:
            assert versions.pinned_count == 0
            assert self.tree._memtable.view_count == 0

    def teardown(self):
        if not hasattr(self, "tree"):
            return  # setup itself failed; let that error surface
        for view in self.open:
            if view.scan is not None:
                assert list(view.scan) == view.remaining
            assert list(view.snap.scan(b"")) == sorted(view.frozen.items())
            view.snap.close()
        assert self.tree.versions.live_views == 0
        assert self.tree.versions.pinned_count == 0
        assert self.tree._memtable.view_count == 0
        assert list(self.tree.scan(b"")) == sorted(self.model.items())


for _kernel, _snowshovel in [
    *itertools.product(("blsm", "leveled"), (True, False)),
    # The partitioned tree only snowshovels; its snapshots are ranged.
    ("part", True),
]:
    _name = f"Test_{_kernel}_{'snowshovel' if _snowshovel else 'freeze'}"
    _machine = type(
        _name + "_Machine",
        (SnapshotMachine,),
        {"TREE": _kernel, "SNOWSHOVEL": _snowshovel},
    )
    _case = _machine.TestCase
    _case.settings = settings(
        max_examples=10, stateful_step_count=40, deadline=None
    )
    globals()[_name] = _case


# ---------------------------------------------------------------------------
# The cost contract
# ---------------------------------------------------------------------------


def _tree(c0_bytes: int = 64 * 1024, tree_cls=BLSM, **overrides):
    return tree_cls(
        BLSMOptions(
            c0_bytes=c0_bytes,
            buffer_pool_pages=16,
            compaction_policy="leveled" if tree_cls is CompactionTree else "blsm3",
            **overrides,
        )
    )


def _fill(tree, count: int, tag: bytes = b"v") -> None:
    # Scattered order: ascending inserts are one endless snowshovel run,
    # which never installs a component.
    for i in (n * 37 % count for n in range(count)):
        tree.put(b"key-%04d" % i, tag + b"-%04d" % i)


def test_open_scan_close_without_a_write_never_copies():
    tree = _tree()
    _fill(tree, 200)
    for round_ in range(1000):
        lo = b"key-%04d" % (round_ % 200)
        assert len(list(tree.scan(lo, limit=3))) == min(3, 200 - round_ % 200)
    assert tree.versions.cow_copies == 0
    assert tree.runtime.metrics.value("versions.cow_copies") == 0
    assert tree.versions.live_views == 0
    assert tree._memtable.view_count == 0
    tree.close()


# The view-lifecycle cases take the tree class: under their own names
# they run on BLSM, test_view_lifecycle_on_the_other_layouts runs the
# same bodies on the other two.


def test_write_under_open_views_copies_once_per_view(tree_cls=BLSM):
    tree = _tree(tree_cls=tree_cls)
    _fill(tree, 50, b"old")
    expected = list(tree.scan(b""))
    views = [tree.snapshot() for _ in range(5)]
    assert tree._memtable.view_count == 5
    assert tree.versions.live_views == 5
    assert tree.versions.cow_copies == 0

    tree.put(b"key-0003", b"new")
    assert tree.versions.cow_copies == 5
    assert tree._memtable.view_count == 0, "the write must empty the registry"

    _fill(tree, 50, b"newer")  # no view left to copy for
    assert tree.versions.cow_copies == 5
    for view in views:
        assert list(view.scan(b"")) == expected
        view.close()
    assert tree.versions.live_views == 0
    assert tree.runtime.metrics.value("versions.cow_copies") == 5
    assert tree.runtime.metrics.value("versions.live_views") == 0
    tree.close()


def test_paused_scan_resumes_on_the_copy_after_its_last_key():
    tree = _tree()
    _fill(tree, 40, b"old")
    expected = list(tree.scan(b""))
    snap = tree.snapshot()
    scan = snap.scan(b"")
    rows = [next(scan) for _ in range(7)]
    # Land writes on both sides of the cursor, plus a delete ahead of it.
    tree.put(b"key-0002", b"behind")
    tree.put(b"key-0007x", b"just-ahead")
    tree.delete(b"key-0020")
    assert tree.versions.cow_copies == 1
    rows.extend(scan)
    assert rows == expected
    snap.close()
    tree.close()


def test_never_closed_snapshot_costs_one_copy_and_leaves_the_registry(
    tree_cls=BLSM,
):
    tree = _tree(tree_cls=tree_cls)
    _fill(tree, 30)
    leaked = tree.snapshot()  # never closed
    _fill(tree, 300, b"later")
    assert tree.versions.cow_copies == 1
    assert tree._memtable.view_count == 0
    assert leaked.get(b"key-0001") == b"v-0001"
    tree.close()


def test_registry_and_pins_are_zero_after_close_and_after_crash(tree_cls=BLSM):
    tree = _tree(snowshovel=False, c0_bytes=6 * 1024, tree_cls=tree_cls)
    _fill(tree, 400)  # enough to put components on disk
    snap = tree.snapshot()
    assert tree.versions.pinned_count > 0
    assert tree._memtable.view_count == 1
    snap.close()
    snap.close()  # idempotent
    assert tree.versions.pinned_count == 0
    assert tree.versions.live_views == 0
    assert tree._memtable.view_count == 0

    orphan = tree.snapshot()
    assert tree.versions.live_views == 1
    tree.versions.crash()
    assert tree.versions.pinned_count == 0
    assert tree.versions.live_views == 0
    orphan.close()  # a view that outlived the crash must not go negative
    assert tree.versions.live_views == 0

    stasis = tree.stasis
    stasis.crash()
    recovered = tree_cls.recover(stasis, tree.options)
    assert recovered.versions.pinned_count == 0
    assert recovered.versions.live_views == 0
    assert recovered._memtable.view_count == 0
    recovered.close()


@pytest.mark.parametrize(
    "tree_cls", [PartitionedBLSM, CompactionTree], ids=lambda cls: cls.__name__
)
@pytest.mark.parametrize(
    "case",
    [
        test_write_under_open_views_copies_once_per_view,
        test_never_closed_snapshot_costs_one_copy_and_leaves_the_registry,
        test_registry_and_pins_are_zero_after_close_and_after_crash,
    ],
    ids=lambda case: case.__name__,
)
def test_view_lifecycle_on_the_other_layouts(case, tree_cls):
    case(tree_cls)


def test_snapshot_survives_the_merge_that_drains_what_it_reads():
    # Snowshoveling *removes* records from the live memtable into the
    # merge overlay: the removal is a write under the view, and the
    # overlay the view sees is the prefix that existed when it opened.
    tree = _tree(c0_bytes=8 * 1024)
    _fill(tree, 60)
    tree.step_m01(400)  # start a pass: some records now live in the overlay
    assert tree._m01 is not None and len(tree._m01.overlay) > 0
    expected = list(tree.scan(b""))
    with tree.snapshot() as snap:
        before = len(tree._m01.overlay)
        tree.step_m01(600)
        assert tree._m01 is None or len(tree._m01.overlay) > before
        assert list(snap.scan(b"")) == expected
        assert snap.get(b"key-0059") == b"v-0059"
    tree.close()


# ---------------------------------------------------------------------------
# Observability and the fuzz invariant
# ---------------------------------------------------------------------------


def test_trace_summary_shows_the_version_set_counters():
    tree = _tree()
    _fill(tree, 10)
    with tree.snapshot():
        tree.put(b"k", b"v")
    text = "\n".join(format_version_summary(tree.runtime.metrics))
    assert "C0 copies (write under view)" in text
    assert "views still open" in text
    assert "frees deferred past a view" in text
    tree.close()
    flat = build_engine("bitcask", EngineConfig())
    assert format_version_summary(flat.runtime.metrics) == []
    flat.close()


def test_fuzz_run_flags_a_snapshot_that_was_never_released():
    trace = generate_trace(seed=3, ops=200)
    config = EngineConfig(c0_bytes=32 * 1024, cache_pages=16)
    assert run_trace(build_engine("blsm", config), trace) is None

    engine = build_engine("blsm", config)
    leaked = engine.snapshot()
    divergence = run_trace(engine, trace, config="leaky")
    assert divergence is not None
    assert divergence.op == "end-of-run"
    assert divergence.actual[0] == 1
    leaked.close()

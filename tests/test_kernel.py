"""One tree kernel, three layouts.

Structural: the mechanism (log, C0, write path, snapshots, merge
stepping, recovery) is defined once, on :class:`TreeKernel`, and the
three tree classes define only their layout — plus the handful of names
the frozen benchmark's ledger patches with ``vars(owner)[attr]``, which
therefore have to stay in the class bodies it names.

Behavioural: what the layouts gained or stopped doing differently by
sharing it — one WAL read per recovery, ranged snapshots that open one
partition at a time, group commit on the partitioned tree.
"""

import inspect
import random

import pytest

from repro.baselines.blsm_engine import BLSMEngine
from repro.baselines.interface import KVEngine, WriteBatch
from repro.core import BLSM, BLSMOptions, CompactionTree, PartitionedBLSM
from repro.core.kernel import TreeKernel
from repro.core.merge import MergeProcess
from repro.core.progress import outprogress
from repro.core.versions import SortedRun, TreeSnapshot, VersionSet
from repro.engines import build_engine
from repro.memtable import MemTable
from repro.records import Record, RecordKind
from repro.storage import DurabilityMode

LAYOUTS = [BLSM, CompactionTree, PartitionedBLSM]

KERNEL_OWNED = {
    "put", "delete", "apply_delta", "insert_if_not_exists",
    "read_modify_write", "write_batch", "_write", "scan", "flush_log",
    "close", "recover", "_take_seqno", "_take_tree_id", "_check_open",
    "_maybe_persist_bloom", "_rebuild_component",
}

LAYOUT_HOOKS = {
    "_init_layout", "get", "snapshot", "_manifest", "_restore_layout",
    "_live_tables", "_start_m01", "_m01_can_start", "_finish_m01",
    "_m01_next_input_bytes", "m01_debt_per_byte",
}

#: The merge host every scheduler drives (Section 4.1's two gears).
MERGE_HOST = {
    "c0_fill_fraction", "merging", "m01_inprogress", "m12_deficit",
    "m01_input_bytes", "m12_input_bytes", "step_m01", "step_m12",
}


@pytest.mark.parametrize("cls", LAYOUTS, ids=lambda cls: cls.__name__)
def test_a_layout_defines_its_hooks_and_no_kernel_method(cls):
    assert issubclass(cls, TreeKernel)
    assert not KERNEL_OWNED & set(vars(cls))
    assert LAYOUT_HOOKS <= set(vars(cls))
    assert KERNEL_OWNED <= set(vars(TreeKernel))


@pytest.mark.parametrize("cls", LAYOUTS, ids=lambda cls: cls.__name__)
def test_every_layout_is_paced_through_the_kernels_merge_host(cls):
    # A layout may alias a kernel function (BLSM's ledger targets), never
    # redefine one; the dispatch gate and the stall loop live only there.
    kernel = vars(TreeKernel)
    for name in MERGE_HOST:
        assert vars(cls).get(name, kernel[name]) is kernel[name], name
    source = inspect.getsource(inspect.getmodule(cls))
    assert ".busy(" not in source
    assert "merge_backpressure" not in source


def _gear1_deficit_from_fields(tree):
    """``m12_deficit`` recomputed from the layout's own slots."""
    if isinstance(tree, BLSM):
        gear1_due = tree._c1_prime is not None
        gear0_due = not tree._promotion_pending and not tree._memtable.is_empty
        filled, ratio = (tree._c1.nbytes if tree._c1 else 0), tree._r
        ram = tree._c0_capacity
    else:
        busy = {
            level
            for merge in (tree._m01, tree._m12) if merge is not None
            for level in (merge.plan.source_level, merge.plan.target_level)
        }
        due = [p.source_level for p in tree.policy.plan_merges(tree.manager, busy)]
        gear1_due, gear0_due = any(due), 0 in due
        filled, ratio = tree.manager.level_bytes(1), tree.manager.ratio
        ram = tree.options.c0_bytes
    if tree._m12 is None and not gear1_due:
        return 0.0
    if tree._m01 is not None:
        m01 = tree._m01.inprogress
    else:
        m01 = 0.0 if gear0_due else 1.0
    m12 = tree._m12.inprogress if tree._m12 is not None else 0.0
    return outprogress(m01, filled, ram, ratio) - m12


@pytest.mark.parametrize("scheduler", ["gear", "spring_gear"])
@pytest.mark.parametrize("policy", ["blsm3", "leveled"])
def test_the_gear1_deficit_is_outprogress_minus_inprogress(policy, scheduler):
    options = BLSMOptions(
        c0_bytes=16 * 1024, compaction_policy=policy, scheduler=scheduler
    )
    tree = (BLSM if policy == "blsm3" else CompactionTree)(options)
    deficits = []

    def check():
        deficits.append(tree.m12_deficit)
        assert deficits[-1] == _gear1_deficit_from_fields(tree)

    step_m01 = tree.step_m01

    def step_then_check(budget):  # what the scheduler reads next
        worked = step_m01(budget)
        check()
        return worked

    tree.step_m01 = step_then_check
    rng = random.Random(11)
    for _ in range(6000):
        tree.put(b"key%05d" % rng.randrange(20000), bytes(rng.randrange(40, 200)))
        check()
    assert tree.runtime.metrics.value("merge.c1c2.passes") > 0
    assert any(d > 0 for d in deficits) and deficits.count(0.0) > 0


def test_the_benchmark_ledgers_targets_stay_where_it_looks():
    # bench/ledger.py wraps vars(owner)[attr]: an inherited or deleted
    # method is a KeyError in its install(), caught only by a traced run.
    from bench.ledger import _targets

    targets = _targets()
    owners = {owner for owner, *_ in targets}
    assert {BLSM, BLSMEngine, KVEngine, MergeProcess, MemTable} <= owners
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name, _kind in targets
        if attr not in vars(owner)
    ]
    assert missing == []


# ---------------------------------------------------------------------------
# Recovery reads the WAL once
# ---------------------------------------------------------------------------


def _build(cls):
    options = BLSMOptions(
        c0_bytes=8 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.SYNC,
        compaction_policy="leveled" if cls is CompactionTree else "blsm3",
    )
    return cls(options)


@pytest.mark.parametrize("cls", LAYOUTS, ids=lambda cls: cls.__name__)
def test_recovery_reads_each_log_once(cls):
    tree = _build(cls)
    model = {}
    for i in range(400):
        key, value = b"key%04d" % (i * 7 % 300), b"v%04d" % i + bytes(40)
        tree.put(key, value)
        model[key] = value
    tree.flush_log()
    stasis = tree.stasis
    stasis.crash()
    before = stasis.log_disk.stats.read_ops
    recovered = cls.recover(stasis, tree.options)
    # One scan of the WAL for the manifest, one of the logical log.
    assert stasis.log_disk.stats.read_ops - before == 2
    assert list(recovered.scan(b"")) == sorted(model.items())


# ---------------------------------------------------------------------------
# Snapshots over key ranges
# ---------------------------------------------------------------------------


def _base(key: bytes, value: bytes, seqno: int) -> Record:
    return Record(key, value, RecordKind.BASE, seqno=seqno)


def _ranged_snapshot() -> TreeSnapshot:
    memtable = MemTable(1 << 20)
    memtable.put(_base(b"c", b"c0-c", 10))
    memtable.put(_base(b"n", b"c0-n", 11))
    left = SortedRun(
        [_base(b"a", b"left-a", 0), _base(b"c", b"left-c", 1),
         # Out of its range on purpose: only routing keeps it unseen.
         _base(b"x", b"left-x", 2)]
    )
    right = SortedRun(
        [_base(b"m", b"right-m", 3), _base(b"x", b"right-x", 4),
         _base(b"z", b"right-z", 5)]
    )
    versions = VersionSet()
    versions.install(ranges=[(b"", b"m", ()), (b"m", None, ())])
    return TreeSnapshot(versions, memtable, ([left], [right]))


def test_ranged_snapshot_get_routes_to_the_range_holding_the_key():
    with _ranged_snapshot() as snap:
        assert snap.get(b"a") == b"left-a"
        assert snap.get(b"c") == b"c0-c"  # the shared C0 is newest
        assert snap.get(b"m") == b"right-m"  # a boundary key is the right's
        assert snap.get(b"x") == b"right-x"
        assert snap.get(b"l") is None


def test_ranged_snapshot_scan_crosses_a_boundary_once_per_key():
    with _ranged_snapshot() as snap:
        assert list(snap.scan(b"")) == [
            (b"a", b"left-a"), (b"c", b"c0-c"), (b"m", b"right-m"),
            (b"n", b"c0-n"), (b"x", b"right-x"), (b"z", b"right-z"),
        ]
        assert [k for k, _ in snap.scan(b"b", b"y")] == [b"c", b"m", b"n", b"x"]
        assert [k for k, _ in snap.scan(b"n")] == [b"n", b"x", b"z"]
        assert list(snap.scan(b"d", b"m")) == []


def test_ranged_snapshot_limit_counts_across_ranges():
    with _ranged_snapshot() as snap:
        assert [k for k, _ in snap.scan(b"", limit=3)] == [b"a", b"c", b"m"]
        assert [k for k, _ in snap.scan(b"c", limit=4)] == [b"c", b"m", b"n", b"x"]


def test_ranged_snapshot_resumes_on_its_copy_in_every_range():
    snap = _ranged_snapshot()
    memtable = snap._memtable
    scan = snap.scan(b"")
    rows = [next(scan) for _ in range(2)]  # paused inside the left range
    memtable.put(_base(b"b", b"late", 20))
    memtable.put(_base(b"p", b"late", 21))
    rows.extend(scan)
    assert [k for k, _ in rows] == [b"a", b"c", b"m", b"n", b"x", b"z"]
    snap.close()


# ---------------------------------------------------------------------------
# The partitioned tree on ranged snapshots
# ---------------------------------------------------------------------------


def _partitioned() -> tuple[PartitionedBLSM, list[bytes]]:
    tree = PartitionedBLSM(
        BLSMOptions(c0_bytes=16 * 1024, buffer_pool_pages=16),
        max_partition_bytes=32 * 1024,
    )
    keys = [b"key%05d" % i for i in range(2000)]
    order = list(keys)
    random.Random(5).shuffle(order)
    for key in order:
        tree.put(key, bytes(64))
    return tree, keys


def test_a_short_scan_opens_only_the_partition_it_lands_in():
    tree, keys = _partitioned()
    # Pins of pacing, re-pinned when the partitioned spring's budget
    # moved to merge_step's unit (before: 7 partitions, 207 reads,
    # "1.040913181"); the per-scan bound below is the claim.
    assert tree.partition_count == 6
    stats = tree.stasis.data_disk.stats
    total = 0
    for key in random.Random(5).sample(keys, 200):
        before = stats.read_ops
        assert [k for k, _ in tree.scan(key, limit=1)] == [key]
        reads = stats.read_ops - before
        landing = tree._partitions[tree._partition_index(key)]
        on_disk = sum(c is not None for c in (landing.c1, landing.c2))
        assert reads <= on_disk  # the pool may serve a landing block
        total += reads
    assert total == 210
    assert f"{tree.stasis.clock.now:.9f}" == "0.850655156"


def test_partitioned_engine_snapshot_is_a_pinned_view():
    engine = build_engine("blsm-part", c0_bytes=16 * 1024, cache_pages=16)
    for i in range(600):
        engine.put(b"key%05d" % i, bytes(64))
    reads = engine.tree.stasis.data_disk.stats.read_ops
    snap = engine.snapshot()
    assert isinstance(snap, TreeSnapshot)
    assert engine.tree.stasis.data_disk.stats.read_ops == reads  # O(1): no scan
    engine.put(b"key00003", b"after")
    assert snap.get(b"key00003") == bytes(64)
    snap.close()
    assert engine.tree.versions.pinned_count == 0
    engine.close()


def test_partitioned_sessions_share_a_group_commit_force():
    engine = build_engine(
        "blsm-part", c0_bytes=64 * 1024, cache_pages=16, durability="group"
    )
    log = engine.tree.stasis.log_disk.stats
    before = log.write_ops
    tickets = [
        engine.commit_batch(
            WriteBatch().put(b"s%d" % session, b"v"), session=session, wait=False
        )
        for session in range(8)
    ]
    engine.flush()  # drains the commit queue: no ticket stays behind it
    assert all(ticket.durable_at is not None for ticket in tickets)
    assert sorted(ticket.group_size for ticket in tickets) == [1] + [7] * 7
    assert log.write_ops - before == 2  # not one force per session
    engine.close()

"""The compaction design-space lab: policies, level manager, trees.

Covers the ISSUE 6 invariants: geometric level sizing
(``max_bytes(level) = base * ratio^level``), single-run L1+ levels (and
hence no in-level key-range overlap) under ``leveled``, bounded run
counts under ``tiered``, tombstone GC happening *only* at the bottom
level, plus conformance (dict-oracle parity for every policy) and crash
recovery round-trips for the policy trees.
"""

import random

import pytest

from repro.baselines.compaction_engine import CompactionEngine
from repro.core.compaction import (
    POLICY_NAMES,
    CompactionTree,
    LevelManager,
    MergePlan,
    make_policy,
    make_tree,
    recover_tree,
)
from repro.core.options import BLSMOptions
from repro.core.tree import BLSM
from repro.testing import generate_trace, run_trace

POLICIES = tuple(name for name in POLICY_NAMES if name != "blsm3")


def small_options(policy, **overrides):
    defaults = dict(
        compaction_policy=policy,
        c0_bytes=4 * 1024,
        buffer_pool_pages=64,
        level_ratio=3.0,
        level0_trigger=2,
        tier_fanout=3,
    )
    defaults.update(overrides)
    return BLSMOptions(**defaults)


def fill_tree(tree, ops=3000, keyspace=300, seed=7):
    rng = random.Random(seed)
    oracle = {}
    for i in range(ops):
        key = b"k%05d" % rng.randrange(keyspace)
        if rng.random() < 0.12:
            tree.delete(key)
            oracle.pop(key, None)
        else:
            value = b"v%08d" % i
            tree.put(key, value)
            oracle[key] = value
    return oracle


# ----------------------------------------------------------------------
# Level sizing and manager invariants
# ----------------------------------------------------------------------


def test_level_sizing_formula():
    manager = LevelManager(base_bytes=1000, ratio=3.0)
    for level in range(8):
        assert manager.max_bytes(level) == int(1000 * 3.0**level)


def test_manager_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LevelManager(base_bytes=0, ratio=3.0)
    with pytest.raises(ValueError):
        LevelManager(base_bytes=100, ratio=1.0)


def test_merge_plan_targets_same_or_next_level():
    MergePlan(1, 2, include_target=True, label="ok")
    MergePlan(2, 2, include_target=True, label="in-place")
    with pytest.raises(ValueError):
        MergePlan(1, 3, include_target=True, label="skip")
    with pytest.raises(ValueError):
        MergePlan(2, 1, include_target=True, label="up")


def test_options_validate_policy_fields():
    with pytest.raises(ValueError, match="unknown compaction policy"):
        BLSMOptions(compaction_policy="rocksdb")
    with pytest.raises(ValueError, match="level_ratio"):
        BLSMOptions(level_ratio=1.0)
    # The stop trigger is LevelDB's constant, not an option.
    with pytest.raises(TypeError, match="level0_stop_trigger"):
        BLSMOptions(level0_stop_trigger=12)
    with pytest.raises(ValueError, match="tier_fanout"):
        BLSMOptions(tier_fanout=1)


def test_make_policy_names():
    for name in POLICIES:
        assert make_policy(name).name == name
    with pytest.raises(ValueError, match="unknown compaction policy"):
        make_policy("blsm3")


def test_make_tree_dispatch():
    assert isinstance(make_tree(BLSMOptions()), BLSM)
    tree = make_tree(small_options("leveled"))
    assert isinstance(tree, CompactionTree)
    tree.close()


# ----------------------------------------------------------------------
# Layout invariants under sustained load
# ----------------------------------------------------------------------


def test_leveled_single_run_per_deep_level_and_no_overlap():
    tree = make_tree(small_options("leveled"))
    fill_tree(tree)
    tree.drain()
    manager = tree.manager
    for level in range(1, manager.level_count):
        runs = manager.runs(level)
        assert len(runs) <= 1, (level, len(runs))
        # With one run per level, key ranges within a level are
        # trivially disjoint; assert it through the run bounds anyway
        # so a future multi-run leveled variant inherits the check.
        spans = sorted(
            (run.min_key, run.max_key) for run in runs
        )
        for (_, prev_hi), (next_lo, _) in zip(spans, spans[1:]):
            assert prev_hi < next_lo
    tree.close()


def test_tiered_run_counts_bounded_after_drain():
    options = small_options("tiered")
    tree = make_tree(options)
    fill_tree(tree)
    tree.drain()
    manager = tree.manager
    policy = tree.policy
    for level in range(manager.level_count):
        assert manager.run_count(level) < policy.max_runs(level), level
    tree.close()


def test_lazy_leveled_bottom_is_single_run():
    tree = make_tree(small_options("lazy-leveled"))
    fill_tree(tree)
    tree.drain()
    manager = tree.manager
    bottom = manager.capacity_bottom()
    for level in range(bottom, manager.level_count):
        assert manager.run_count(level) <= 1, (level, bottom)
    tree.close()


def test_capacity_bottom_deepens_with_data():
    manager = LevelManager(base_bytes=1000, ratio=4.0)
    assert manager.capacity_bottom() == 1  # empty tree
    # capacity_bottom reads total_bytes(); fake levels via max_bytes math
    assert manager.max_bytes(2) == 16000
    class FakeTable:
        def __init__(self, nbytes):
            self.nbytes = nbytes
            self.key_count = 1
    manager._ensure_level(1)
    manager.levels[1].append(FakeTable(15000))
    assert manager.capacity_bottom() == 2
    manager.levels[1].append(FakeTable(40000))  # total 55000 <= 64000
    assert manager.capacity_bottom() == 3


# ----------------------------------------------------------------------
# Tombstone GC only at the bottom level
# ----------------------------------------------------------------------


def count_tombstones(tree):
    per_level = []
    for level in range(tree.manager.level_count):
        count = 0
        for run in tree.manager.runs(level):
            count += sum(
                1 for record in run.iter_records() if record.is_tombstone
            )
        per_level.append(count)
    return per_level


@pytest.mark.parametrize("policy", POLICIES)
def test_tombstones_survive_above_bottom_and_die_at_bottom(policy):
    tree = make_tree(small_options(policy))
    # Settle a base of live data at the bottom first.
    for i in range(400):
        tree.put(b"base%04d" % i, b"x" * 24)
    tree.drain()
    # Now delete keys that live only at the bottom; the tombstones must
    # survive every non-bottom merge (dropping one early would
    # resurrect the bottom-level value).
    for i in range(0, 400, 2):
        tree.delete(b"base%04d" % i)
    tree.drain()
    for i in range(0, 400, 2):
        assert tree.get(b"base%04d" % i) is None, (policy, i)
    for i in range(1, 400, 2):
        assert tree.get(b"base%04d" % i) is not None, (policy, i)
    # A full consolidation reaches the bottom with every older version
    # in its inputs: all tombstones are garbage-collected.
    tree.compact()
    assert sum(count_tombstones(tree)) == 0, count_tombstones(tree)
    for i in range(0, 400, 2):
        assert tree.get(b"base%04d" % i) is None, (policy, i)
    tree.close()


def test_drop_tombstones_rule():
    manager = LevelManager(base_bytes=1000, ratio=3.0)
    policy = make_policy("tiered", fanout=3)
    class FakeTable:
        nbytes = 10
        key_count = 1
    manager._ensure_level(2)
    manager.levels[1].append(FakeTable())
    manager.levels[2].append(FakeTable())
    # Merging into a non-bottom level never drops tombstones.
    plan = MergePlan(0, 1, include_target=False, label="t")
    assert not policy.drop_tombstones(manager, plan)
    # A tiering move into the *occupied* bottom level keeps tombstones:
    # older runs stay resident in the target.
    plan = MergePlan(1, 2, include_target=False, label="t")
    assert not policy.drop_tombstones(manager, plan)
    # A leveling move into the bottom consumes those older runs: GC.
    plan = MergePlan(1, 2, include_target=True, label="t")
    assert policy.drop_tombstones(manager, plan)
    # Tiering into an empty bottom is also safe.
    manager.levels[2].clear()
    plan = MergePlan(1, 2, include_target=False, label="t")
    assert policy.drop_tombstones(manager, plan)


# ----------------------------------------------------------------------
# Conformance and recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_tree_matches_dict_oracle(policy):
    trace = generate_trace(1500, seed=13, keyspace=120)
    engine = CompactionEngine(small_options(policy))
    assert run_trace(engine, trace, config=policy) is None


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_tree_crash_recovery_roundtrip(policy):
    from repro.storage import DurabilityMode

    options = small_options(policy, durability=DurabilityMode.SYNC)
    tree = make_tree(options)
    oracle = fill_tree(tree, ops=1200, keyspace=150)
    stasis = tree.stasis
    stasis.crash()
    recovered = recover_tree(stasis, options)
    assert dict(recovered.scan(b"")) == oracle
    # The recovered tree keeps serving writes and merges.
    for i in range(300):
        recovered.put(b"post%04d" % i, b"y")
    recovered.drain()
    assert recovered.get(b"post0000") == b"y"
    recovered.close()


def test_scheduler_surface_backpressure():
    """Level-0 overflow stalls the writer instead of growing unbounded."""
    options = small_options("tiered", scheduler="naive")
    tree = make_tree(options)
    fill_tree(tree, ops=4000, keyspace=400)
    assert (
        tree.manager.run_count(0) <= CompactionTree.L0_STOP_TRIGGER
    ), tree.manager.run_count(0)
    assert tree.stats()["policy"] == "tiered"
    tree.close()


def test_blsm_level_view_maps_slots_to_levels():
    tree = BLSM(BLSMOptions(c0_bytes=4 * 1024, buffer_pool_pages=32))
    for i in range(800):
        tree.put(b"k%04d" % (i % 120), b"v" * 20)
    tree.drain()
    view = tree.level_view()
    assert view["policy"] == "blsm3"
    assert len(view["levels"]) == 3
    assert len(view["max_bytes"]) == 3
    assert sum(len(level) for level in view["levels"]) >= 1
    tree.close()

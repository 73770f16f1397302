"""Crash-safe online shard migration: journal, protocol, recovery.

Covers the tentpole claims of the migration subsystem: every durable
transition is journaled before it takes effect, a crash at any step
recovers to a consistent ownership map, readers never observe staged
rows mid-copy, stale leases are fenced after the switch, and the
rebalancer closes the loop from load metrics to live split/merge plans.
Property tests compose journal fault schedules with in-flight
migrations and interleaved traffic, asserting oracle parity and the
mid-migration structural invariants after recovery.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import random

from repro.baselines import WriteBatch
from repro.core import BLSMOptions
from repro.errors import (
    CrashPoint,
    IOFaultError,
    MigrationError,
    RetryDeadlineError,
    ShardFanoutError,
    StaleOwnerError,
    TransientIOError,
)
from repro.faults import FaultPlan, FaultRule, RetryExecutor, RetryPolicy
from repro.faults.crashpoints import (
    enumerate_migration_crash_points,
    format_report,
)
from repro.shard import (
    HotShardDetector,
    MigrationController,
    MigrationJournal,
    MigrationPlan,
    MigrationThrottle,
    RangePartitioner,
    Rebalancer,
    ShardedEngine,
    attach_migration,
    crash_and_recover,
    live_migration_bench,
    plan_merge,
    plan_split,
    shard_range,
)
from repro.shard.migration import _replay_journal
from repro.sim.clock import VirtualClock
from repro.storage.logical_log import DurabilityMode
from repro.testing import check_sharded_invariants
from repro.testing.differential import default_fuzz_configs, run_trace
from repro.testing.trace import TraceOp, generate_trace


def small_options(**overrides):
    defaults = dict(
        c0_bytes=16 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.SYNC,
    )
    defaults.update(overrides)
    return BLSMOptions(**defaults)


def make_fleet(
    boundaries=(b"key-000060",), shards=2, chunk_keys=8, **overrides
):
    """A range-partitioned fleet with an attached, unthrottled controller."""
    engine = ShardedEngine(
        small_options(**overrides),
        shards=shards,
        partitioner=RangePartitioner(list(boundaries)),
    )
    controller = attach_migration(
        engine, chunk_keys=chunk_keys, throttle=MigrationThrottle(1.0)
    )
    return engine, controller


def key(i):
    return b"key-%06d" % i


def load_keys(engine, count=120, start=0):
    """Batch-load ``count`` sequential keys; returns the model dict."""
    model = {}
    for base in range(start, start + count, 32):
        batch = WriteBatch()
        for i in range(base, min(start + count, base + 32)):
            batch.put(key(i), b"v%06d" % i)
            model[key(i)] = b"v%06d" % i
        engine.apply_batch(batch)
    return model


def verify_model(engine, model):
    assert list(engine.scan(b"")) == sorted(model.items())


def step_until(controller, state, limit=10_000):
    """Step the controller until it reaches ``state``; returns step count."""
    steps = 0
    while controller.state != state:
        controller.step()
        steps += 1
        assert steps < limit, f"never reached state {state!r}"
    return steps


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


def test_shard_range_tiles_the_keyspace():
    part = RangePartitioner([b"g", b"p"])
    assert shard_range(part, 0) == (b"", b"g")
    assert shard_range(part, 1) == (b"g", b"p")
    assert shard_range(part, 2) == (b"p", None)


def test_plan_split_interior_donates_upper_half_rightward():
    engine, _ = make_fleet()
    load_keys(engine, 60)  # all on shard 0, below the boundary
    plan = plan_split(engine, 0)
    assert plan is not None
    assert (plan.kind, plan.source, plan.target) == ("split", 0, 1)
    assert plan.lo == key(30) and plan.hi == b"key-000060"
    assert plan.new_boundaries == (key(30),)
    engine.close()


def test_plan_split_last_shard_donates_lower_half_leftward():
    engine, _ = make_fleet()
    load_keys(engine, 60, start=100)  # all on shard 1, above the boundary
    plan = plan_split(engine, 1)
    assert plan is not None
    assert (plan.source, plan.target) == (1, 0)
    assert plan.lo == b"" or plan.lo < plan.hi
    assert plan.new_boundaries == (key(130),)
    engine.close()


def test_plan_split_returns_none_when_unsplittable():
    engine, _ = make_fleet()
    assert plan_split(engine, 0) is None  # empty shard
    assert plan_split(engine, 7) is None  # out of range
    hashed = ShardedEngine(small_options(), shards=2)
    assert plan_split(hashed, 0) is None  # hash partitioner
    engine.close()
    hashed.close()


def test_plan_merge_interior_keeps_a_sliver():
    # Boundaries must stay strictly increasing, so an interior shard
    # cannot donate its entire range: the plan keeps keys below
    # lo + b"\x00" and moves the rest.
    engine, _ = make_fleet(boundaries=(b"g", b"p"), shards=3)
    plan = plan_merge(engine, 1)
    assert plan is not None
    assert (plan.kind, plan.source, plan.target) == ("merge", 1, 2)
    assert plan.lo == b"g\x00" and plan.hi == b"p"
    assert plan.new_boundaries == (b"g", b"g\x00")
    engine.close()


def test_plan_merge_last_shard_cuts_past_its_last_live_key():
    engine, _ = make_fleet()
    load_keys(engine, 10, start=100)  # shard 1
    plan = plan_merge(engine, 1)
    assert plan is not None
    assert (plan.source, plan.target) == (1, 0)
    assert plan.hi == key(109) + b"\x00"
    assert plan.new_boundaries == (key(109) + b"\x00",)
    engine.close()


def test_plan_merge_returns_none_when_degenerate():
    engine, _ = make_fleet()
    assert plan_merge(engine, 1) is None  # last shard with no live keys
    engine.close()


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


def test_journal_force_makes_records_durable_and_charges_time():
    clock = VirtualClock()
    journal = MigrationJournal(clock=clock, force_seconds=1e-3)
    journal.append({"type": "init", "boundaries": [], "epoch": 0})
    journal.append({"type": "plan", "id": 1})
    assert len(journal.records) == 2
    assert journal.forces == 2
    assert clock.now == pytest.approx(2e-3)


def test_journal_crash_drops_only_the_volatile_tail():
    journal = MigrationJournal()
    journal.append({"type": "init"})
    journal._records.append({"type": "plan", "id": 1})  # never forced
    assert journal.crash() == 1
    assert [r["type"] for r in journal.records] == ["init"]
    assert journal.crash() == 0  # idempotent


def test_journal_retries_transient_faults_until_durable():
    plan = FaultPlan(
        [FaultRule(kind="transient", device="migration-journal", every=1, count=2)]
    )
    journal = MigrationJournal(fault_plan=plan)
    journal.append({"type": "init"})
    assert len(journal.records) == 1
    assert plan.fired_by_kind["transient"] == 2


def test_journal_persistent_fault_surfaces_typed():
    plan = FaultPlan(
        [FaultRule(kind="transient", device="migration-journal", every=1)]
    )
    journal = MigrationJournal(fault_plan=plan)
    with pytest.raises(IOFaultError):
        journal.append({"type": "init"})
    assert journal.records == []  # the failed append never became durable


def test_journal_deadline_bounds_persistent_retries():
    plan = FaultPlan(
        [FaultRule(kind="transient", device="migration-journal", every=1)]
    )
    journal = MigrationJournal(
        fault_plan=plan,
        retry_policy=RetryPolicy(
            max_attempts=50, base_backoff_seconds=0.4, deadline_seconds=1.0
        ),
    )
    with pytest.raises(RetryDeadlineError):
        journal.append({"type": "init"})
    # The executor never sleeps past the budget edge.
    assert journal.clock.now <= 1.0 + 50 * journal.force_seconds


def test_journal_crash_fault_kills_the_process_at_the_force():
    plan = FaultPlan([FaultRule(kind="crash", at_access=1, count=1)])
    journal = MigrationJournal(fault_plan=plan)
    with pytest.raises(CrashPoint):
        journal.append({"type": "init"})
    journal.crash()
    assert journal.records == []


def test_replay_journal_reconstructs_each_phase():
    journal = MigrationJournal()
    journal.append({"type": "init", "boundaries": [b"m"], "epoch": 0})
    plan_record = {
        "type": "plan", "id": 3, "kind": "split", "source": 0, "target": 1,
        "lo": b"f", "hi": b"m", "new_boundaries": [b"f"],
    }
    journal.append(plan_record)
    boundaries, previous, epoch, pending, next_id = _replay_journal(journal)
    assert boundaries == [b"m"] and previous is None and epoch == 0
    assert pending is not None and pending[1] == "copy"
    assert pending[0].plan_id == 3 and next_id == 4

    journal.append(
        {"type": "switch", "id": 3, "source": 0, "boundaries": [b"f"], "epoch": 1}
    )
    boundaries, previous, epoch, pending, _ = _replay_journal(journal)
    assert boundaries == [b"f"] and previous == [b"m"] and epoch == 1
    assert pending is not None and pending[1] == "retire"

    journal.append({"type": "prune", "id": 3, "pruned": 1})
    boundaries, previous, epoch, pending, _ = _replay_journal(journal)
    assert boundaries == [b"f"] and previous is None and epoch == 1
    assert pending is None


def test_replay_journal_aborted_plan_leaves_no_pending():
    journal = MigrationJournal()
    journal.append({"type": "init", "boundaries": [b"m"], "epoch": 0})
    journal.append(
        {"type": "plan", "id": 1, "kind": "split", "source": 0, "target": 1,
         "lo": b"f", "hi": b"m", "new_boundaries": [b"f"]}
    )
    journal.append({"type": "abort", "id": 1})
    _, _, _, pending, _ = _replay_journal(journal)
    assert pending is None


# ----------------------------------------------------------------------
# Controller lifecycle
# ----------------------------------------------------------------------


def test_start_rejects_malformed_plans():
    engine, controller = make_fleet(boundaries=(b"g", b"p"), shards=3)

    def plan(**overrides):
        fields = dict(
            plan_id=0, kind="split", source=0, target=1,
            lo=b"c", hi=b"g", new_boundaries=(b"c", b"p"),
        )
        fields.update(overrides)
        return MigrationPlan(**fields)

    with pytest.raises(MigrationError):  # not neighbours
        controller.start(plan(target=2, new_boundaries=(b"c", b"p")))
    with pytest.raises(MigrationError):  # same shard
        controller.start(plan(target=0))
    with pytest.raises(MigrationError):  # out of range
        controller.start(plan(source=5, target=4))
    with pytest.raises(MigrationError):  # empty donated range
        controller.start(plan(lo=b"g", hi=b"g"))
    with pytest.raises(MigrationError):  # wrong boundary count
        controller.start(plan(new_boundaries=(b"c",)))
    assert controller.state == "idle"
    engine.close()


def test_start_rejects_concurrent_migrations():
    engine, controller = make_fleet()
    load_keys(engine, 40)
    first = plan_split(engine, 0)
    controller.start(first)
    with pytest.raises(MigrationError):
        controller.start(plan_split(engine, 0) or first)
    engine.close()


def test_live_split_under_traffic_stays_oracle_correct():
    engine, controller = make_fleet()
    model = load_keys(engine, 120)
    plan = controller.start(plan_split(engine, 0))
    assert plan.plan_id >= 1
    rng = random.Random(7)
    ops = 0
    while controller.active:
        tag = controller.step()
        assert tag != "idle"
        # Interleave foreground traffic into the moving range.
        i = rng.randrange(120)
        if rng.random() < 0.3:
            engine.delete(key(i))
            model.pop(key(i), None)
        else:
            engine.put(key(i), b"w%06d" % ops)
            model[key(i)] = b"w%06d" % ops
        probe = key(rng.randrange(120))
        assert engine.get(probe) == model.get(probe)
        if ops % 8 == 0:
            check_sharded_invariants(engine)
        ops += 1
    assert controller.completed == 1
    assert engine.epoch == 1
    assert engine.partitioner.history_depth == 0
    assert tuple(engine.partitioner.boundaries) == plan.new_boundaries
    verify_model(engine, model)
    check_sharded_invariants(engine)
    engine.close()


def test_split_then_merge_round_trip():
    engine, controller = make_fleet()
    model = load_keys(engine, 80)
    controller.start(plan_split(engine, 0))
    controller.run_to_completion()
    merge = plan_merge(engine, 0)
    assert merge is not None
    controller.start(merge)
    controller.run_to_completion()
    assert controller.completed == 2
    assert engine.epoch == 2
    verify_model(engine, model)
    check_sharded_invariants(engine)
    engine.close()


def test_scan_mask_hides_staged_rows_mid_copy():
    engine, controller = make_fleet(chunk_keys=4)
    model = load_keys(engine, 60)
    controller.start(plan_split(engine, 0))
    # Advance partway through the copy so the target holds staged rows.
    for _ in range(4):
        controller.step()
    assert controller.state == "copy"
    mask = controller.mask_range()
    assert mask is not None and mask[0] == 1
    # Delete a staged key on the source: the target's staged copy must
    # not resurrect it through a scan, even with a limit.
    dead = key(40)
    engine.delete(dead)
    model.pop(dead, None)
    expected = sorted(model.items())
    assert list(engine.scan(b"", None, 10)) == expected[:10]
    assert list(engine.scan(b"")) == expected
    assert engine.get(dead) is None
    controller.run_to_completion()
    verify_model(engine, model)
    engine.close()


def test_catch_up_double_writes_and_requeues_deltas():
    engine, controller = make_fleet(chunk_keys=8)
    load_keys(engine, 60)
    plan = controller.start(plan_split(engine, 0))
    # During copy, mutations of the moving range only mark keys dirty.
    hot = plan.lo
    engine.put(hot, b"during-copy")
    assert hot in controller.dirty_keys()
    step_until(controller, "catch_up")
    # During catch-up a put double-writes and leaves the dirty set...
    engine.put(hot, b"during-catchup")
    assert hot not in controller.dirty_keys()
    staged = engine._on_shard(
        plan.target, lambda s: s.get(hot), "migrate_probe"
    )
    assert staged == b"during-catchup"
    # ...while a delta stays source-only and re-enters it (the target
    # may lack the base version; a staged dangling delta is garbage).
    engine.apply_delta(hot, b"+D")
    assert hot in controller.dirty_keys()
    controller.run_to_completion()
    assert engine.get(hot) == b"during-catchup+D"
    engine.close()


def test_abort_clears_staged_rows_and_allows_restart():
    engine, controller = make_fleet(chunk_keys=4)
    model = load_keys(engine, 60)
    plan = controller.start(plan_split(engine, 0))
    for _ in range(4):
        controller.step()
    controller.abort()
    assert controller.state == "idle"
    staged = engine._on_shard(
        plan.target, lambda s: list(s.scan(plan.lo, plan.hi)), "probe"
    )
    assert staged == []
    verify_model(engine, model)
    # The fleet is reusable: a fresh migration completes normally.
    controller.start(plan_split(engine, 0))
    controller.run_to_completion()
    verify_model(engine, model)
    engine.close()


def test_abort_after_switch_is_rejected():
    engine, controller = make_fleet()
    load_keys(engine, 40)
    controller.start(plan_split(engine, 0))
    step_until(controller, "retire")
    with pytest.raises(MigrationError):
        controller.abort()
    controller.run_to_completion()
    engine.close()


def test_controller_requires_range_partitioner():
    hashed = ShardedEngine(small_options(), shards=2)
    with pytest.raises(MigrationError):
        attach_migration(hashed)
    hashed.close()


# ----------------------------------------------------------------------
# Epoch fencing
# ----------------------------------------------------------------------


def test_stale_lease_is_fenced_after_the_switch():
    engine, controller = make_fleet()
    load_keys(engine, 60)
    moving = key(45)  # upper half of shard 0: donated by the split
    lease = engine.lease(moving)
    lease.put(moving, b"pre-switch")  # valid before the switch
    controller.start(plan_split(engine, 0))
    controller.run_to_completion()
    with pytest.raises(StaleOwnerError):
        lease.put(moving, b"post-switch")
    with pytest.raises(StaleOwnerError):
        lease.delete(moving)
    assert engine.get(moving) == b"pre-switch"
    # A fresh lease sees the new epoch and works.
    engine.lease(moving).put(moving, b"fresh")
    assert engine.get(moving) == b"fresh"
    engine.close()


def test_lease_rejects_rerouted_keys():
    engine, _ = make_fleet()
    lease = engine.lease(key(5))  # shard 0
    with pytest.raises(StaleOwnerError):
        lease.put(key(999999), b"x")  # routes to shard 1
    engine.close()


# ----------------------------------------------------------------------
# Throttle, detector, rebalancer
# ----------------------------------------------------------------------


def test_throttle_validates_fraction():
    with pytest.raises(ValueError):
        MigrationThrottle(0.0)
    with pytest.raises(ValueError):
        MigrationThrottle(1.5)


def test_throttle_defers_only_under_foreground_pressure():
    engine, _ = make_fleet()
    throttle = MigrationThrottle(0.01)
    throttle.begin(engine)
    engine.clock.advance(1.0)
    throttle.charge(0.9)  # way over a 1% share
    # No foreground batches since begin(): migrate at full speed.
    assert not throttle.should_defer(engine)
    engine.put(key(1), b"v")  # foreground arrives
    assert throttle.should_defer(engine)
    # The defer consumed the foreground observation; an idle interval
    # lets migration proceed again.
    assert not throttle.should_defer(engine)
    engine.close()


def test_hot_shard_detector_needs_enough_traffic():
    engine, _ = make_fleet()
    detector = HotShardDetector(engine, min_ops=64)
    for i in range(10):
        engine.put(key(i), b"v")
    assert detector.observe() == []  # too thin to judge
    for i in range(70):
        engine.put(key(i % 40), b"v")
    shares = detector.observe()
    assert shares and shares[0] > 0.9
    engine.close()


def test_rebalancer_splits_the_hot_shard():
    engine, controller = make_fleet()
    load_keys(engine, 80)
    rebalancer = Rebalancer(engine, controller, hot_share=0.5)
    for i in range(80):
        engine.put(key(i % 50), b"hot")  # hammer shard 0
    plan = rebalancer.maybe_rebalance()
    assert plan is not None and plan.kind == "split" and plan.source == 0
    assert controller.active
    # In-flight migration: further calls are no-ops.
    assert rebalancer.maybe_rebalance() is None
    controller.run_to_completion()
    engine.close()


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


def test_crash_mid_copy_restarts_the_copy_from_scratch():
    engine, controller = make_fleet(chunk_keys=4)
    model = load_keys(engine, 60)
    controller.start(plan_split(engine, 0))
    for _ in range(3):
        controller.step()
    assert controller.state == "copy"
    recovered = crash_and_recover(engine)
    assert recovered.migration is not None
    assert recovered.migration.state == "copy"
    assert recovered.epoch == 0  # never switched
    check_sharded_invariants(recovered)
    recovered.migration.run_to_completion()
    assert recovered.migration.completed == 1
    assert recovered.partitioner.history_depth == 0
    verify_model(recovered, model)
    check_sharded_invariants(recovered)
    recovered.close()


def test_crash_after_switch_rolls_forward_through_retire():
    engine, controller = make_fleet(chunk_keys=4)
    model = load_keys(engine, 60)
    plan = controller.start(plan_split(engine, 0))
    step_until(controller, "retire")
    recovered = crash_and_recover(engine)
    assert recovered.migration.state == "retire"
    assert recovered.epoch == 1
    assert recovered._fence_epochs[plan.source] == 1
    # The pre-switch mapping is kept as history so reads still reach the
    # un-retired source copies.
    assert recovered.partitioner.history_depth == 1
    verify_model(recovered, model)
    check_sharded_invariants(recovered)
    recovered.migration.run_to_completion()
    assert recovered.partitioner.history_depth == 0
    verify_model(recovered, model)
    recovered.close()


def test_crash_with_no_migration_in_flight_recovers_idle():
    engine, controller = make_fleet()
    model = load_keys(engine, 40)
    controller.start(plan_split(engine, 0))
    controller.run_to_completion()
    recovered = crash_and_recover(engine)
    assert recovered.migration.state == "idle"
    assert recovered.epoch == 1
    assert recovered.partitioner.history_depth == 0
    verify_model(recovered, model)
    recovered.close()


def test_migration_crash_point_enumeration_is_clean():
    report = enumerate_migration_crash_points(ops=40, seed=0)
    assert report.ok, format_report(report)
    assert report.points_tested > 0
    assert report.crashes_triggered > 0
    assert report.recoveries_verified == report.points_tested


# ----------------------------------------------------------------------
# Resilient fan-out (flush/close aggregate per-shard failures)
# ----------------------------------------------------------------------


class _BoomShard:
    """Wraps a shard so flush/close raise while recording other calls."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def flush(self):
        raise RuntimeError("device on fire")

    def close(self):
        raise RuntimeError("device on fire")


def test_flush_visits_every_shard_and_aggregates_failures():
    engine = ShardedEngine(small_options(), shards=3)
    flushed = []
    for index, shard in enumerate(engine.shards):
        if index != 1:
            shard.flush = (lambda i: lambda orig=shard: flushed.append(i))(index)
    engine.shards[1] = _BoomShard(engine.shards[1])
    with pytest.raises(ShardFanoutError) as excinfo:
        engine.flush()
    assert set(excinfo.value.errors) == {1}
    assert isinstance(excinfo.value.errors[1], RuntimeError)
    assert sorted(flushed) == [0, 2]  # healthy shards still flushed
    engine.shards[1] = engine.shards[1]._inner
    engine.close()


def test_close_closes_every_shard_despite_failures():
    engine = ShardedEngine(small_options(), shards=3)
    closed = []
    for index, shard in enumerate(engine.shards):
        if index != 2:
            shard.close = (
                lambda i, orig: lambda: (closed.append(i), orig())
            )(index, shard.close)
    inner = engine.shards[2]
    engine.shards[2] = _BoomShard(inner)
    with pytest.raises(ShardFanoutError):
        engine.close()
    assert engine._closed  # the engine is closed even after the error
    assert sorted(closed) == [0, 1]  # healthy shards still closed
    inner.close()
    engine.close()  # idempotent: no second raise


def test_prune_placement_history_is_noop_for_hash_partitioning():
    engine = ShardedEngine(small_options(), shards=2)
    assert engine.prune_placement_history() == 0
    engine.close()


# ----------------------------------------------------------------------
# Fuzzer surface
# ----------------------------------------------------------------------


def test_handle_migration_op_without_controller_is_a_noop():
    engine = ShardedEngine(small_options(), shards=2)
    assert engine.handle_migration_op("split") == "no-controller"
    engine.close()


def test_handle_migration_op_drives_a_split_to_completion():
    engine, controller = make_fleet()
    model = load_keys(engine, 60)
    tag = engine.handle_migration_op("split", key(10), budget=4)
    assert controller.active and tag not in ("idle", "no-controller")
    guard = 0
    while controller.active:
        engine.handle_migration_op("step", budget=8)
        guard += 1
        assert guard < 1000
    assert controller.completed == 1
    verify_model(engine, model)
    engine.close()


def test_trace_migrate_op_round_trips_and_validates():
    op = TraceOp.migrate("split", key=b"k", budget=3)
    assert TraceOp.from_dict(op.to_dict()) == op
    with pytest.raises(ValueError):
        TraceOp.migrate("explode")


def test_differential_migrating_config_matches_oracle():
    configs = default_fuzz_configs(
        engines=["sharded"], shards=2, include_faulted=False
    )
    config = next(c for c in configs if c.label == "sharded-range-2")
    trace = generate_trace(400, seed=11, migrate_fraction=0.05)
    assert any(op.kind == "migrate" for op in trace)
    divergence = run_trace(
        config.build(), trace, batched=config.batched, config=config.label
    )
    assert divergence is None, divergence.describe()


# ----------------------------------------------------------------------
# Retry deadline and jitter (the journal's retry substrate)
# ----------------------------------------------------------------------


def test_retry_deadline_raises_typed_error():
    clock = VirtualClock()
    policy = RetryPolicy(
        max_attempts=50, base_backoff_seconds=0.4, deadline_seconds=1.0
    )
    attempts = []

    def always_fails():
        attempts.append(1)
        raise TransientIOError("nope")

    with pytest.raises(RetryDeadlineError) as excinfo:
        RetryExecutor(policy, clock).run(always_fails, "unit")
    assert excinfo.value.what == "unit"
    # Backoffs are capped at the budget edge: the clock never runs past
    # the deadline, and far fewer than max_attempts were issued.
    assert clock.now <= 1.0
    assert 2 < len(attempts) < 50


def test_retry_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(
        max_attempts=2, base_backoff_seconds=1e-3, jitter=0.5
    )

    def run_once(seed):
        clock = VirtualClock()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise TransientIOError("once")

        RetryExecutor(policy, clock, seed=seed).run(flaky)
        return clock.now

    # Bounded by [1 - jitter, 1 + jitter] around the nominal backoff...
    assert 0.5e-3 <= run_once(1) <= 1.5e-3
    # ...deterministic per seed, and actually varying across seeds.
    assert run_once(2) == run_once(2)
    assert len({run_once(seed) for seed in range(8)}) > 1


def test_retry_policy_validates_deadline_and_jitter():
    with pytest.raises(ValueError):
        RetryPolicy(deadline_seconds=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# Bench smoke (the BENCH_7 surface)
# ----------------------------------------------------------------------


def test_live_migration_bench_smoke():
    result = live_migration_bench(
        records=400, batches=24, batch=16, shards=2, windows=4,
        c0_bytes=24 * 1024, cache_pages=16, chunk_keys=32,
    )
    assert result["quiescent"]["verified"]
    assert result["migrating"]["verified"]
    assert result["p99_ratio"] >= 0.0
    migration = result["migrating"]["migration"]
    assert migration["completed"] >= 1
    assert migration["history_depth"] == 0


# ----------------------------------------------------------------------
# Property tests: fault schedules composed with in-flight migrations
# ----------------------------------------------------------------------

settings.register_profile(
    "repro-migration",
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-migration")


def _drive_traffic(engine, model, rng, ops):
    """Apply ``ops`` random mutations/reads, model kept in lockstep."""
    for _ in range(ops):
        i = rng.randrange(90)
        roll = rng.random()
        if roll < 0.5:
            value = b"p%06d" % rng.randrange(1 << 20)
            engine.put(key(i), value)
            model[key(i)] = value
        elif roll < 0.7:
            engine.delete(key(i))
            model.pop(key(i), None)
        elif roll < 0.8:
            if key(i) in model:
                engine.apply_delta(key(i), b"+d")
                model[key(i)] += b"+d"
        else:
            assert engine.get(key(i)) == model.get(key(i))


@given(seed=st.integers(0, 2**16), kind=st.sampled_from(["split", "merge"]))
def test_property_migration_under_traffic_keeps_oracle_parity(seed, kind):
    """A live split or merge under random traffic never changes answers,
    and the mid-migration structural invariants hold at every step."""
    engine, controller = make_fleet(chunk_keys=8)
    rng = random.Random(seed)
    model = load_keys(engine, 90)
    planner = plan_split if kind == "split" else plan_merge
    source = 0 if kind == "split" else 1
    plan = planner(engine, source)
    if plan is None:
        engine.close()
        return
    controller.start(plan)
    steps = 0
    while controller.active:
        controller.step()
        _drive_traffic(engine, model, rng, 2)
        if steps % 5 == 0:
            check_sharded_invariants(engine)
        steps += 1
        assert steps < 5000
    assert controller.completed == 1
    assert engine.partitioner.history_depth == 0
    verify_model(engine, model)
    check_sharded_invariants(engine)
    engine.close()


@given(
    crash_access=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_property_journal_crash_recovers_to_consistent_ownership(
    crash_access, seed
):
    """Kill the process at the N-th journal force mid-migration, under
    traffic; recovery must yield a consistent ownership map, full acked
    parity, and a migration that resumes to completion."""
    journal_plan = FaultPlan.crash_at(crash_access, armed=False)
    engine = ShardedEngine(
        small_options(),
        shards=2,
        partitioner=RangePartitioner([b"key-000060"]),
    )
    controller = MigrationController(
        engine,
        journal=MigrationJournal(fault_plan=journal_plan),
        chunk_keys=8,
        throttle=MigrationThrottle(1.0),
    )
    rng = random.Random(seed)
    model = load_keys(engine, 90)
    journal_plan.arm()
    crashed = False
    try:
        plan = plan_split(engine, 0)
        if plan is not None:
            controller.start(plan)
        guard = 0
        while controller.active:
            controller.step()
            _drive_traffic(engine, model, rng, 2)
            guard += 1
            assert guard < 5000
    except CrashPoint:
        crashed = True
    recovered = crash_and_recover(engine)
    # Acked writes all survive (SYNC shards; the journal fault only ever
    # kills the process, it never loses an acknowledged mutation).
    check_sharded_invariants(recovered)
    for k, v in model.items():
        assert recovered.get(k) == v
    resumed = recovered.migration
    assert resumed is not None
    if resumed.active:
        resumed.run_to_completion()
    recovered.prune_placement_history()
    assert recovered.partitioner.history_depth == 0
    verify_model(recovered, model)
    check_sharded_invariants(recovered)
    if crashed:
        assert journal_plan.fired_by_kind.get("crash", 0) >= 1
    recovered.close()


def test_scan_mask_preserves_limits_through_chunked_refills():
    # The chunked scan applies the migration mask as a two-window
    # sub-fetch on the target shard; every limit must see exactly the
    # same prefix the oracle does, mid-copy, including limits that force
    # repeated refills straddling the masked range.
    engine, controller = make_fleet(chunk_keys=4)
    model = load_keys(engine, 120)
    controller.start(plan_split(engine, 0))
    for _ in range(4):
        controller.step()
    assert controller.state == "copy"
    assert controller.mask_range() is not None
    expected = sorted(model.items())
    for limit in (1, 3, 7, 25, 60, 119, 120, 200):
        assert list(engine.scan(b"", None, limit)) == expected[:limit], (
            f"limit={limit} diverged mid-copy"
        )
    lo, hi = key(10), key(90)
    window = [(k, v) for k, v in expected if lo <= k < hi]
    for limit in (5, 17, None):
        got = list(engine.scan(lo, hi, limit))
        want = window if limit is None else window[:limit]
        assert got == want, f"bounded scan limit={limit} diverged mid-copy"
    controller.run_to_completion()
    verify_model(engine, model)
    engine.close()

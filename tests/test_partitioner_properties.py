"""Property tests for range boundaries moved by live migration.

A boundary moves only through a live migration, and ownership is the
one read rule: a key is read, written and deleted only on the shard
that owns it now, and a scan reads each shard only inside its owned
range.  The bugs an offline, data-stranding resize once caused (a delta
dangling on the new owner, a stale copy resurrected by moving a
boundary back; docs/correctness.md, bugs 7 and 8) cannot occur under
that rule.  These tests drive seeded workloads across repeated
migrations — including ping-pong moves of one range back and forth,
checked mid-copy, mid-catch-up and mid-retire and across a crash — and
compare every answer with a dictionary model, plus the structural deep
check (:func:`check_sharded_invariants`) after every phase.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.interface import WriteBatch
from repro.core.options import BLSMOptions
from repro.shard import (
    MigrationController,
    MigrationPlan,
    MigrationThrottle,
    RangePartitioner,
    ShardedEngine,
    crash_and_recover,
)
from repro.storage.logical_log import DurabilityMode
from repro.testing import check_sharded_invariants

KEYS = [b"k%03d" % i for i in range(120)]


def build_engine(boundaries=(b"k040", b"k080")):
    """A SYNC range fleet (so a crash keeps every acked write) with an
    unthrottled migration controller attached."""
    engine = ShardedEngine(
        BLSMOptions(c0_bytes=24 * 1024, durability=DurabilityMode.SYNC),
        shards=len(boundaries) + 1,
        partitioner=RangePartitioner(list(boundaries)),
    )
    MigrationController(engine, chunk_keys=8, throttle=MigrationThrottle(1.0))
    return engine


def start_move(engine, position, boundary):
    """Start the live migration that moves boundary ``position`` to
    ``boundary``: the keys between the old and new split change owner."""
    old = engine.partitioner.boundaries
    new = list(old)
    new[position] = boundary
    if boundary < old[position]:  # [boundary, old) moves up a shard
        plan = MigrationPlan(
            0, "split", position, position + 1, boundary, old[position],
            tuple(new),
        )
    else:  # [old, boundary) moves down a shard
        plan = MigrationPlan(
            0, "merge", position + 1, position, old[position], boundary,
            tuple(new),
        )
    return engine.migration.start(plan)


def move(engine, position, boundary):
    start_move(engine, position, boundary)
    engine.migration.run_to_completion()


def verify(engine, model):
    for key in KEYS:
        assert engine.get(key) == model.get(key), key
    assert engine.multi_get(KEYS) == [model.get(key) for key in KEYS]
    live = sorted((k, v) for k, v in model.items() if v is not None)
    assert list(engine.scan(b"")) == live
    check_sharded_invariants(engine)


def test_read_your_deletes_across_migrations():
    # A key deleted after a migration moved it stays deleted, and
    # moving the boundary back does not resurrect it.
    engine = build_engine()
    model = {}
    rng = random.Random(11)
    for key in KEYS:
        value = b"v-" + key
        engine.put(key, value)
        model[key] = value
    move(engine, 0, b"k020")
    move(engine, 1, b"k100")
    for key in rng.sample(KEYS, 40):
        engine.delete(key)
        model[key] = None
    verify(engine, model)
    move(engine, 0, b"k060")
    move(engine, 1, b"k061")
    verify(engine, model)
    engine.close()


def test_delete_after_migration_leaves_no_live_copy():
    # Retirement removed the source's copy and the delete reached the
    # owner, so even a direct per-shard read finds no live version.
    engine = build_engine()
    engine.put(b"k010", b"old")          # owner under (k040, k080): shard 0
    move(engine, 0, b"k005")             # k010 -> shard 1
    engine.put(b"k010", b"new")
    engine.delete(b"k010")
    for index in range(3):
        probe = engine._on_shard(index, lambda s: s.get(b"k010"), "probe")
        assert probe is None
    assert engine.get(b"k010") is None
    assert list(engine.scan(b"")) == []
    check_sharded_invariants(engine)
    engine.close()


def test_scan_reads_one_copy_per_key_across_migrations():
    # Writes interleaved with migrations that move boundaries back and
    # forth (bug 8's resize-back, done live): the merged scan yields
    # exactly one row per key, the newest, at every limit.
    engine = build_engine()
    model = {}
    rng = random.Random(23)
    moves = [(0, b"k030"), (1, b"k090"), (0, b"k010"), (1, b"k050"),
             (1, b"k071"), (0, b"k040")]
    for round_index, (position, boundary) in enumerate(moves):
        for key in rng.sample(KEYS, 60):
            value = b"r%d-" % round_index + key
            engine.put(key, value)
            model[key] = value
        for key in rng.sample(KEYS, 15):
            engine.delete(key)
            model[key] = None
        verify(engine, model)
        move(engine, position, boundary)
        verify(engine, model)
    live = sorted((k, v) for k, v in model.items() if v is not None)
    for limit in (1, 7, 40):
        assert list(engine.scan(b"", None, limit)) == live[:limit]
    assert list(engine.scan(b"k030", b"k090")) == [
        (k, v) for k, v in live if b"k030" <= k < b"k090"
    ]
    engine.close()


def test_delta_after_migration_lands_on_base_version():
    # Bug 7 (docs/correctness.md) cannot recur: after a migration the
    # base version lives on the new owner, which is where the delta
    # goes — and a delta during the migration is re-copied by catch-up.
    engine = build_engine()
    engine.put(b"k050", b"BASE")         # shard 1 under (k040, k080)
    start_move(engine, 0, b"k060")       # [k040, k060) -> shard 0
    engine.apply_delta(b"k050", b"+C")   # mid-copy: source only, dirty
    engine.migration.run_to_completion()
    assert engine.partitioner.shard_for(b"k050") == 0
    assert engine.get(b"k050") == b"BASE+C"
    engine.apply_delta(b"k050", b"+D")
    assert engine.get(b"k050") == b"BASE+C+D"
    # Same through the batch path.
    engine.apply_batch(WriteBatch().apply_delta(b"k050", b"+E"))
    assert engine.get(b"k050") == b"BASE+C+D+E"
    # A put-then-delta pair inside one batch stays ordered on one shard.
    engine.apply_batch(
        WriteBatch().put(b"k050", b"FRESH").apply_delta(b"k050", b"+F")
    )
    assert engine.get(b"k050") == b"FRESH+F"
    check_sharded_invariants(engine)
    engine.close()


def test_mixed_workload_soak_across_migrations():
    # Seeded soak: random puts/deletes/deltas/batches interleaved with
    # live migration steps, fully verified after every phase.
    engine = build_engine((b"k060",))
    model = {}
    rng = random.Random(5)
    for phase in range(4):
        boundary = engine.partitioner.boundaries[0]
        while boundary == engine.partitioner.boundaries[0]:
            boundary = rng.choice(KEYS)
        start_move(engine, 0, boundary)
        for _ in range(80):
            key = rng.choice(KEYS)
            roll = rng.random()
            if roll < 0.55:
                value = b"p%d-" % phase + key
                engine.put(key, value)
                model[key] = value
            elif roll < 0.75:
                engine.delete(key)
                model[key] = None
            elif model.get(key) is not None:
                engine.apply_delta(key, b"+x")
                model[key] += b"+x"
            else:
                assert engine.get(key) == model.get(key)
            if engine.migration.active:
                engine.migration.step()
        batch = WriteBatch()
        for _ in range(10):
            key = rng.choice(KEYS)
            value = b"b%d-" % phase + key
            batch.put(key, value)
            model[key] = value
        engine.apply_batch(batch)
        verify(engine, model)
        engine.migration.run_to_completion()
        verify(engine, model)
    engine.close()


def _check_reads(engine, model, rng):
    """get, multi_get and a limited scan against the model."""
    probe = rng.choice(KEYS[:100])
    assert engine.get(probe) == model.get(probe)
    sample = rng.sample(KEYS[:100], 12)
    assert engine.multi_get(sample) == [model.get(k) for k in sample]
    lo = rng.choice(KEYS[:100])
    limit = rng.randint(1, 40)
    expected = [(k, v) for k, v in sorted(model.items()) if k >= lo]
    assert list(engine.scan(lo, None, limit)) == expected[:limit]


@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**16),
    crash_step=st.one_of(st.none(), st.integers(0, 40)),
)
def test_property_ping_pong_migrations_match_a_dict_oracle(seed, crash_step):
    """S->T, then T->S over the same range, under put/delete/delta
    traffic: every answer matches the oracle after every step, in every
    phase, and across a whole-fleet crash at a random step."""
    engine = build_engine((b"k060",))
    rng = random.Random(seed)
    model = {}
    for key in KEYS[:90]:
        engine.put(key, b"v-" + key)
        model[key] = b"v-" + key
    phases = set()
    step = 0
    for boundary in (b"k030", b"k060"):  # [k030, k060): 0 -> 1 -> 0
        start_move(engine, 0, boundary)
        while engine.migration.active:
            if step == crash_step:
                engine = crash_and_recover(engine)
                _check_reads(engine, model, rng)
                check_sharded_invariants(engine)
            engine.migration.step()
            step += 1
            for _ in range(3):
                key = KEYS[rng.randrange(100)]
                roll = rng.random()
                if roll < 0.5:
                    value = b"p%06d" % rng.randrange(1 << 20)
                    engine.put(key, value)
                    model[key] = value
                elif roll < 0.8:
                    engine.delete(key)
                    model.pop(key, None)
                elif key in model:
                    engine.apply_delta(key, b"+d")
                    model[key] += b"+d"
            phases.add(engine.migration.state)
            _check_reads(engine, model, rng)
            if step % 4 == 0:
                check_sharded_invariants(engine)
    assert {"copy", "catch_up", "retire"} <= phases
    assert engine.partitioner.boundaries == (b"k060",)
    assert engine.migration.completed >= 1  # a crash resets the count
    assert list(engine.scan(b"")) == sorted(model.items())
    check_sharded_invariants(engine)
    engine.close()

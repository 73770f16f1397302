"""Sharded engine: routing, overlapped fan-out, scans, ownership.

Covers the tentpole claims: batches cost the max (not the sum) of
per-shard device time, cross-shard scans merge in order, a shard is
read only inside the range it owns (so a range scan asks only the
shards it crosses, and nothing after a migration needs a second read),
and four shards deliver at least 3x the batched read throughput of one
tree.
"""

import pytest

from repro.baselines import BLSMEngine, WriteBatch, validate_io_summary
from repro.core import BLSMOptions
from repro.shard import (
    HashPartitioner,
    MigrationController,
    MigrationPlan,
    MigrationThrottle,
    RangePartitioner,
    ShardedEngine,
    fnv1a_bytes,
    make_partitioner,
)
from repro.testing import generate_trace, run_trace
from repro.ycsb import WorkloadSpec, load_phase, run_batched_workload
from repro.ycsb.generator import make_key


def small_options(**overrides):
    defaults = dict(c0_bytes=32 * 1024, buffer_pool_pages=16)
    defaults.update(overrides)
    return BLSMOptions(**defaults)


def make_engine(shards=4, partitioner=None, **overrides):
    return ShardedEngine(
        small_options(**overrides), shards=shards, partitioner=partitioner
    )


def migrate_down(engine, boundary):
    """Live-migrate a two-shard range fleet's boundary down to
    ``boundary``: ``[boundary, old)`` moves from shard 0 to shard 1.
    Returns the controller with the plan started, not yet stepped."""
    (old,) = engine.partitioner.boundaries
    controller = MigrationController(
        engine, chunk_keys=4, throttle=MigrationThrottle(1.0)
    )
    controller.start(
        MigrationPlan(0, "split", 0, 1, boundary, old, (boundary,))
    )
    return controller


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------


def test_fnv1a_matches_reference_vectors():
    # Published FNV-1a 64-bit test vectors: routing must be stable
    # across processes and Python versions.
    assert fnv1a_bytes(b"") == 0xCBF29CE484222325
    assert fnv1a_bytes(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_bytes(b"foobar") == 0x85944171F73967E8


def test_hash_partitioner_spreads_and_is_deterministic():
    part = HashPartitioner(4)
    keys = [b"user%019d" % i for i in range(400)]
    buckets = [0] * 4
    for key in keys:
        index = part.shard_for(key)
        assert part.shard_for(key) == index
        buckets[index] += 1
    # A hash shard's keys span the keyspace: a scan asks every shard.
    assert {part.shard_range(i) for i in range(4)} == {(b"", None)}
    assert all(count > 50 for count in buckets)


def test_hash_partitioner_rejects_zero_shards():
    with pytest.raises(ValueError):
        HashPartitioner(0)


def test_range_partitioner_routes_by_boundary():
    part = RangePartitioner([b"g", b"p"])
    assert part.nshards == 3
    assert part.shard_for(b"a") == 0
    assert part.shard_for(b"g") == 1  # boundary key goes right
    assert part.shard_for(b"m") == 1
    assert part.shard_for(b"z") == 2


def test_range_partitioner_from_sample_balances():
    keys = [b"k%04d" % i for i in range(100)]
    part = RangePartitioner.from_sample(keys, 4)
    counts = [0] * 4
    for key in keys:
        counts[part.shard_for(key)] += 1
    assert max(counts) - min(counts) <= 2


def test_range_partitioner_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        RangePartitioner([])
    with pytest.raises(ValueError):
        RangePartitioner([b"b", b"a"])
    with pytest.raises(ValueError):
        RangePartitioner([b"a", b"a"])


def test_make_partitioner_names():
    assert isinstance(make_partitioner("hash", 4), HashPartitioner)
    ranged = make_partitioner("range", 2, sample=[b"a", b"b", b"c", b"d"])
    assert isinstance(ranged, RangePartitioner)
    with pytest.raises(ValueError):
        make_partitioner("range", 4)  # needs a sample
    with pytest.raises(ValueError):
        make_partitioner("consistent", 4)


# ----------------------------------------------------------------------
# Router semantics
# ----------------------------------------------------------------------


def test_point_ops_route_and_read_back():
    engine = make_engine(shards=3)
    items = {b"key%04d" % i: b"value%04d" % i for i in range(60)}
    for key, value in items.items():
        engine.put(key, value)
    for key, value in items.items():
        assert engine.get(key) == value
    engine.delete(b"key0000")
    assert engine.get(b"key0000") is None
    assert engine.get(b"missing") is None
    engine.close()


def test_model_check_against_dict():
    engine = make_engine(shards=4)
    # 200-byte values: the trace outgrows every shard's 32 KiB C0, so
    # reads resolve versions across merged components, not just C0.
    trace = generate_trace(1200, seed=7, keyspace=1000, value_bytes=200)
    assert run_trace(engine, trace) is None


def test_partitioner_shard_count_mismatch_rejected():
    with pytest.raises(ValueError):
        ShardedEngine(small_options(), shards=4, partitioner=HashPartitioner(2))


def test_sharding_rejects_fault_plan():
    from repro.faults import FaultPlan

    with pytest.raises(ValueError, match="not supported on a sharded engine"):
        ShardedEngine(small_options(fault_plan=FaultPlan(seed=0)), shards=2)


def test_shard_clocks_never_pass_the_router():
    engine = make_engine(shards=4)
    for i in range(200):
        engine.put(b"key%04d" % i, b"v" * 64)
    engine.multi_get([b"key%04d" % i for i in range(0, 200, 7)])
    for shard in engine.shards:
        assert shard.clock.now <= engine.clock.now + 1e-12
    engine.close()


def test_multi_get_matches_sequential_gets():
    engine = make_engine(shards=4)
    for i in range(100):
        engine.put(b"key%04d" % i, b"value%04d" % i)
    keys = [b"key%04d" % i for i in range(0, 140, 3)]  # includes misses
    assert engine.multi_get(keys) == [engine.get(key) for key in keys]
    engine.close()


def test_apply_batch_matches_sequential_application():
    batch = WriteBatch()
    for i in range(50):
        batch.put(b"key%04d" % i, b"value%04d" % i)
    batch.delete(b"key0004").put(b"key0007", b"rewritten")

    batched = make_engine(shards=4)
    batched.apply_batch(batch)
    sequential = make_engine(shards=4)
    for i in range(50):
        sequential.put(b"key%04d" % i, b"value%04d" % i)
    sequential.delete(b"key0004")
    sequential.put(b"key0007", b"rewritten")

    for i in range(50):
        key = b"key%04d" % i
        assert batched.get(key) == sequential.get(key)
    batched.close()
    sequential.close()


def test_batch_cost_is_max_not_sum_of_shard_time():
    # Uncached reads spanning all shards: the router's clock advance
    # must equal the slowest shard's service time, and undercut the
    # serial sum whenever more than one shard participated.
    engine = make_engine(shards=4, c0_bytes=16 * 1024, buffer_pool_pages=4)
    # Hashed YCSB-style keys: sorted synthetic keys would load in order
    # and serve reads straight from each shard's write path, costing no
    # device time at all.
    load_keys = [make_key(i, ordered=False) for i in range(1200)]
    for key in load_keys:
        engine.put(key, b"v" * 512)
    engine.flush()
    keys = load_keys[::7]
    before = engine.clock.now
    engine.multi_get(keys)
    elapsed = engine.clock.now - before
    events = [
        event
        for event in engine.trace("shard_batch")
        if event.get("kind") == "multi_get"
    ]
    assert events
    last = events[-1]
    per_shard = last.get("per_shard")
    assert len(per_shard) == 4  # uniform keys touched every shard
    assert last.get("seconds") == pytest.approx(max(per_shard.values()))
    assert sum(per_shard.values()) > last.get("seconds") > 0.0
    assert elapsed >= last.get("seconds")
    engine.close()


def test_read_modify_write_routes_through_batch():
    engine = make_engine(shards=2)
    engine.put(b"counter", b"1")
    result = engine.read_modify_write(
        b"counter", lambda old: b"%d" % (int(old) + 1)
    )
    assert result == b"2"
    assert engine.get(b"counter") == b"2"
    assert engine.trace("rmw")  # attribution event fired
    engine.close()


def test_insert_if_not_exists_checks_the_owner_after_a_migration():
    engine = make_engine(shards=2, partitioner=RangePartitioner([b"m"]))
    engine.put(b"c", b"old")
    migrate_down(engine, b"b").run_to_completion()
    assert engine.partitioner.shard_for(b"c") == 1  # moved with its data
    assert engine.insert_if_not_exists(b"c", b"new") is False
    assert engine.get(b"c") == b"old"
    assert engine.insert_if_not_exists(b"fresh", b"v") is True
    engine.close()


# ----------------------------------------------------------------------
# Cross-shard scans (satellite 4: merged order, limits, tombstones)
# ----------------------------------------------------------------------


def test_scan_merges_shards_in_key_order():
    engine = make_engine(shards=4)
    items = {b"key%04d" % i: b"value%04d" % i for i in range(120)}
    for key, value in items.items():
        engine.put(key, value)
    rows = list(engine.scan(b"key0000"))
    assert rows == sorted(items.items())
    engine.close()


def test_scan_limit_cuts_across_shard_boundaries():
    engine = make_engine(shards=4)
    for i in range(100):
        engine.put(b"key%04d" % i, b"v%04d" % i)
    rows = list(engine.scan(b"key0010", limit=17))
    assert [key for key, _ in rows] == [b"key%04d" % i for i in range(10, 27)]
    bounded = list(engine.scan(b"key0000", b"key0009", limit=50))
    assert [key for key, _ in bounded] == [b"key%04d" % i for i in range(9)]
    engine.close()


def test_scan_after_migration_reads_each_shard_inside_its_range():
    engine = make_engine(shards=2, partitioner=RangePartitioner([b"key0050"]))
    for i in range(100):
        engine.put(b"key%04d" % i, b"old%04d" % i)
    # Move the split: keys [key0030, key0050) go to shard 1.  Stop just
    # after the switch, before retirement deletes shard 0's copies.
    controller = migrate_down(engine, b"key0030")
    while controller.state != "retire":
        controller.step()
    engine.put(b"key0040", b"rewritten")  # lands on the new owner only
    engine.delete(b"key0044")
    stale = engine._on_shard(0, lambda s: s.get(b"key0044"), "probe")
    assert stale == b"old0044"  # shard 0 still holds its old copy

    for _ in range(2):  # mid-retire, then after it
        assert engine.get(b"key0040") == b"rewritten"
        assert engine.get(b"key0035") == b"old0035"
        assert engine.get(b"key0044") is None
        rows = dict(engine.scan(b"key0000"))
        assert rows[b"key0040"] == b"rewritten"
        assert b"key0044" not in rows
        assert len(rows) == 99
        assert list(rows) == sorted(rows)
        controller.run_to_completion()
    engine.close()


def test_multi_get_after_a_migration_is_one_fan_out():
    engine = make_engine(shards=2, partitioner=RangePartitioner([b"key0050"]))
    for i in range(100):
        engine.put(b"key%04d" % i, b"v%04d" % i)
    migrate_down(engine, b"key0030").run_to_completion()
    keys = [b"key0035", b"key0010", b"key0070", b"key0040", b"key0999"]
    before = len(engine.trace("shard_batch"))
    assert engine.multi_get(keys) == [
        b"v0035", b"v0010", b"v0070", b"v0040", None
    ]
    (batch,) = engine.trace("shard_batch")[before:]
    assert batch.get("kind") == "multi_get"
    assert set(batch.get("per_shard")) == {0, 1}
    engine.close()


def test_range_scan_asks_only_the_shards_it_crosses():
    engine = make_engine(
        shards=4, partitioner=RangePartitioner([b"m", b"s", b"x"])
    )
    rows = {}
    for prefix in (b"a", b"n", b"t", b"y"):  # 30 keys on each shard
        for i in range(30):
            rows[prefix + b"%03d" % i] = b"v%03d" % i
    for key, value in rows.items():
        engine.put(key, value)

    def ops():
        metrics = engine.metrics()
        return [metrics[f"shard.{i}.ops"] for i in range(4)]

    before, events = ops(), len(engine.trace("shard_batch"))
    # [n, u) crosses shards 1 and 2; a limit of 50 needs refills there.
    got = list(engine.scan(b"n", b"u", 50))
    assert got == sorted(
        (k, v) for k, v in rows.items() if b"n" <= k < b"u"
    )[:50]
    after = ops()
    assert after[0] == before[0] and after[3] == before[3]
    assert after[1] > before[1]  # the refills went to the crossed shards
    scans = engine.trace("shard_batch")[events:]
    assert {event.get("kind") for event in scans} == {"scan"}
    assert set(scans[0].get("per_shard")) == {1, 2}
    assert all(set(e.get("per_shard")) <= {1, 2} for e in scans)
    # A range that misses every shard but one asks only that one.
    before = len(engine.trace("shard_batch"))
    assert list(engine.scan(b"y", None, 3)) == [
        (b"y000", b"v000"), (b"y001", b"v001"), (b"y002", b"v002")
    ]
    (only,) = engine.trace("shard_batch")[before:]
    assert set(only.get("per_shard")) == {3}
    engine.close()


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def test_io_summary_schema_and_shard_rows():
    engine = make_engine(shards=3)
    for i in range(150):
        engine.put(b"key%04d" % i, b"v" * 200)
    summary = validate_io_summary(engine.io_summary(), "sharded")
    assert summary["shards"] == 3
    assert len(summary["per_shard"]) == 3
    assert summary["data_seeks"] == sum(
        s["data_seeks"] for s in summary["per_shard"]
    )
    rows = engine.shard_rows()
    assert [row["shard"] for row in rows] == [0, 1, 2]
    assert sum(row["ops"] for row in rows) == 150
    metrics = engine.metrics()
    assert metrics["shard.batches"] == 150
    assert "shard0.disk.hdd-data.busy_seconds" in metrics
    engine.close()


# ----------------------------------------------------------------------
# Acceptance: 4 shards >= 3x one tree on batched uniform reads
# ----------------------------------------------------------------------


def test_four_shards_triple_batched_read_throughput():
    spec = WorkloadSpec(
        record_count=3000,
        operation_count=1500,
        read_proportion=1.0,
        request_distribution="uniform",
        value_bytes=1000,
    )
    tuning = dict(c0_bytes=64 * 1024, buffer_pool_pages=16)

    sharded = make_engine(shards=4, **tuning)
    load_phase(sharded, spec, seed=1, batch_size=64)
    sharded_run = run_batched_workload(sharded, spec, seed=2, batch_size=64)
    sharded.close()

    single = BLSMEngine(small_options(**tuning))
    load_phase(single, spec, seed=1, batch_size=64)
    single_run = run_batched_workload(single, spec, seed=2, batch_size=64)
    single.close()

    assert single_run.throughput > 0
    speedup = sharded_run.throughput / single_run.throughput
    assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x acceptance bar"
    assert sharded_run.batch is not None
    assert sharded_run.batch.operations == spec.operation_count


# ----------------------------------------------------------------------
# Chunked limit-aware scans
# ----------------------------------------------------------------------


def test_limited_scan_fetches_chunks_not_whole_shards():
    # The chunked fetch asks each shard for ~limit/N rows up front and
    # refills only a shard that runs dry, so a small-limit scan over a
    # big fleet must pull a few dozen rows from the shards — not every
    # row they hold, which is what the old fetch-everything merge did.
    engine = make_engine(shards=4)
    for i in range(800):
        engine.put(b"key-%06d" % i, b"v%06d" % i)

    fetched = {"rows": 0}
    for shard in engine.shards:
        original = shard.scan

        def counting_scan(lo, hi=None, limit=None, _original=original):
            rows = list(_original(lo, hi, limit))
            fetched["rows"] += len(rows)
            return iter(rows)

        shard.scan = counting_scan

    rows = list(engine.scan(b"", None, 8))
    assert [key for key, _ in rows] == [b"key-%06d" % i for i in range(8)]
    # chunk = ceil(8/4) + 1 = 3 per shard up front, plus bounded refills
    # on whichever shard supplies the head run.
    assert fetched["rows"] <= 8 * len(engine.shards), (
        f"limit=8 scan pulled {fetched['rows']} rows from the shards"
    )
    fetched["rows"] = 0
    assert len(list(engine.scan(b""))) == 800
    assert fetched["rows"] == 800  # unlimited scans still read everything
    engine.close()


def test_limited_scan_refills_a_skewed_shard():
    # All matching keys land on one shard of a range fleet: the global
    # limit exceeds the initial per-shard chunk (~limit/N + 1), so the
    # scan must refill that shard repeatedly — and still honour order,
    # the limit, and completeness.
    engine = make_engine(
        shards=4,
        partitioner=RangePartitioner([b"m", b"s", b"x"]),
    )
    for i in range(120):
        engine.put(b"a-%06d" % i, b"v%06d" % i)  # all below b"m": shard 0
    engine.put(b"z-tail", b"last")  # shard 3, beyond the scanned range
    rows = list(engine.scan(b"a-", b"b", 90))
    assert len(rows) == 90
    assert rows == [(b"a-%06d" % i, b"v%06d" % i) for i in range(90)]
    engine.close()


def test_unlimited_scan_streams_every_shard():
    engine = make_engine(shards=3)
    expected = {}
    for i in range(300):
        expected[b"key-%06d" % i] = b"v%06d" % i
    for key, value in expected.items():
        engine.put(key, value)
    assert list(engine.scan(b"")) == sorted(expected.items())
    engine.close()

"""The multi-session open-loop runner (group commit's front door)."""

import hashlib
import json

import pytest

from repro.baselines import WriteBatch
from repro.engines import EngineConfig, build_engine
from repro.ycsb import (
    WorkloadSpec,
    load_phase,
    run_sessions,
    substrates,
)


def _spec(ops: int = 240, records: int = 120, read: float = 0.25):
    return WorkloadSpec(
        record_count=records,
        operation_count=ops,
        read_proportion=read,
        blind_write_proportion=1.0 - read,
        request_distribution="uniform",
        value_bytes=100,
    )


def _engine(durability: str = "group", **overrides):
    config = EngineConfig(
        c0_bytes=64 * 1024, cache_pages=32, durability=durability
    )
    return build_engine("blsm", config, **overrides)


def _run(durability: str = "group", rate: float = 4000.0, **kwargs):
    spec = kwargs.pop("spec", None) or _spec()
    engine = _engine(durability)
    load_phase(engine, spec, seed=0)
    result = run_sessions(engine, spec, rate, seed=1, **kwargs)
    engine.close()
    return result


def test_sessions_run_is_deterministic():
    first = _run(sessions=4)
    second = _run(sessions=4)
    assert first.summary() == second.summary()


def test_group_commit_beats_sync_on_forces_per_op():
    # The acceptance criterion at bench scale is >= 4x at 8 sessions /
    # 4000 ops/s (gated by the sessions-smoke CI job via BENCH_8.json);
    # here a trimmed config pins the amortization holds at all.
    group = _run("group", sessions=8)
    sync = _run("sync", sessions=8)
    assert sync.forces_per_op == pytest.approx(1.0)
    assert group.forces_per_op < 0.5
    assert sync.forces_per_op / group.forces_per_op >= 2.0
    # Grouping actually happened: some leader covered >= 2 tickets.
    assert any(size >= 2 for size in group.group_sizes)


def test_queueing_measured_separately_from_service():
    # Saturate a sync engine: every write forces (~2.5 ms on the hdd
    # model), so at 4000/s arrivals outrun service and queueing delay
    # must accumulate — while the same offered load under group commit
    # keeps the queue near-empty.
    sync = _run("sync", sessions=8)
    group = _run("group", sessions=8)
    assert sync.queueing.percentile(99.0) > group.queueing.percentile(99.0)
    assert sync.backlog_seconds > 0.0
    # Ack latency is bounded by the leader force cadence, not the whole
    # run: under group commit waiting sessions share forces.
    assert group.ack_latency.count == group.writes


def test_sessions_timeline_covers_the_run():
    result = _run(sessions=4)
    assert result.timeline, "expected at least one timeline window"
    assert all("queue_p99" in window for window in result.timeline)
    assert all("queue_p999" in window for window in result.timeline)
    times = [window["t"] for window in result.timeline]
    assert times == sorted(times)
    assert sum(window["ops"] for window in result.timeline) == result.operations


def test_operation_accounting_is_complete():
    result = _run(sessions=4)
    assert result.operations == result.reads + result.writes
    assert result.operations == _spec().operation_count
    assert result.commits == result.writes
    assert result.achieved_rate > 0.0


def test_arrival_mode_validation():
    spec = _spec(ops=10)
    engine = _engine()
    try:
        with pytest.raises(ValueError):
            run_sessions(engine, spec, 100.0, arrival="bursty")
        with pytest.raises(ValueError):
            run_sessions(engine, spec, -5.0)
        with pytest.raises(ValueError):
            run_sessions(engine, spec, 100.0, sessions=0)
    finally:
        engine.close()


def test_diurnal_arrivals_run_clean():
    result = _run(sessions=4, arrival="diurnal", spec=_spec(ops=160))
    assert result.operations == 160
    assert result.arrival == "diurnal"


#: Every branch of the session loop (reads, scans, deletes, updates and
#: RMW with their inline read, blind writes) over a tree whose merges
#: run during the sessions.
PINNED_SPEC = WorkloadSpec(
    record_count=300,
    operation_count=600,
    read_proportion=0.2,
    update_proportion=0.1,
    blind_write_proportion=0.4,
    delete_proportion=0.1,
    scan_proportion=0.1,
    rmw_proportion=0.1,
    request_distribution="uniform",
    value_bytes=100,
)

#: sha256 (first 16 hex digits) of ``{"summary": result.summary(),
#: "probes": result.probes}`` as sorted-key JSON, then forces, commits and
#: probe count — recorded from the per-arrival list rebuild the deque
#: replaced, so the runner's output is pinned bit for bit.  The digests
#: moved (counts did not) when manifest commits began logging version
#: edits: shorter WAL forces move the latencies in the summary.  Digests
#: and forces moved when the WAL and the logical log began sharing one
#: tail: a merge's commit and checkpoint no longer reposition the log
#: head, so writes wait less and leader forces form smaller groups.
SESSIONS_PINS = {
    ("uniform", 0): ("50241157daef7c60", 75, 411, 13),
    ("uniform", 1): ("a5a9df8dd5d56750", 71, 428, 13),
    ("poisson", 0): ("76fbd68b9bac308a", 71, 411, 13),
    ("poisson", 1): ("ba498df29b1e657c", 68, 428, 13),
    ("diurnal", 0): ("60ba36400941ada3", 73, 411, 13),
    ("diurnal", 1): ("2a5cfdddbdc676e6", 67, 428, 13),
}


@pytest.mark.parametrize("arrival,seed", sorted(SESSIONS_PINS))
def test_sessions_result_is_pinned(arrival, seed):
    engine = build_engine(
        "blsm",
        EngineConfig(c0_bytes=16 * 1024, cache_pages=16, durability="group"),
    )
    load_phase(engine, PINNED_SPEC, seed=0)
    (stasis,) = substrates(engine)
    queue, log = stasis.group_commit, stasis.logical_log

    def probe():
        return {
            "forces": float(log.forces),
            "commits": float(queue.commits),
            "now": engine.clock.now,
        }

    result = run_sessions(
        engine, PINNED_SPEC, 3000.0, sessions=4, arrival=arrival, seed=seed,
        probe=probe,
    )
    engine.close()
    text = json.dumps(
        {"summary": result.summary(), "probes": result.probes}, sort_keys=True
    )
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    pinned = SESSIONS_PINS[(arrival, seed)]
    assert (result.forces, result.commits, len(result.probes)) == pinned[1:]
    assert digest == pinned[0]


@pytest.mark.parametrize(
    "name", ["blsm", "blsm-part", "leveldb", "sharded", "btree", "bitcask"]
)
def test_every_engine_acknowledges_commits_in_submission_order(name):
    # run_sessions pops acknowledged tickets off the front of a deque:
    # at every moment the durable tickets must be a prefix of the
    # submitted ones, acknowledged no earlier than the one before.
    engine = build_engine(
        name, EngineConfig(c0_bytes=16 * 1024, cache_pages=16, durability="group")
    )
    tickets = []
    most_pending = 0

    def assert_fifo():
        acked = [t.durable_at for t in tickets if t.durable_at is not None]
        assert all(t.durable_at is not None for t in tickets[: len(acked)])
        assert acked == sorted(acked)
        return len(tickets) - len(acked)

    for i in range(400):
        batch = WriteBatch().put(b"key%05d" % (i * 37 % 250), bytes(100))
        if i % 7 == 3:
            batch.delete(b"key%05d" % (i % 250))
        tickets.append(engine.commit_batch(batch, session=i % 4, wait=False))
        most_pending = max(most_pending, assert_fifo())
        engine.clock.advance(0.0002 * (i % 5))
    engine.flush()
    assert assert_fifo() == 0
    if name in ("blsm", "blsm-part", "leveldb"):  # the group-commit trees
        assert most_pending > 1  # groups formed behind in-flight forces
    engine.close()


def test_helper_discovery_finds_the_stasis_substrate():
    engine = _engine()
    try:
        assert substrates(engine) == [engine.tree.stasis]
    finally:
        engine.close()
    sharded = build_engine(
        "sharded", EngineConfig(c0_bytes=32 * 1024, cache_pages=16), shards=3
    )
    try:
        assert substrates(sharded) == [
            shard.tree.stasis for shard in sharded.shards
        ]
    finally:
        sharded.close()
    bitcask = build_engine("bitcask", EngineConfig())
    try:
        assert substrates(bitcask) == []
    finally:
        bitcask.close()

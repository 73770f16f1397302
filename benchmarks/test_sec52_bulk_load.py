"""Section 5.2: raw insert performance (bulk load).

The paper loads a 50 GB unordered dataset into each system using "the
strongest set of semantics each system could provide without resorting
to random reads":

* InnoDB — requires *pre-sorted* input for reasonable throughput;
  loading unordered data collapses to seek-bound speed;
* LevelDB — high-throughput unordered loads, but only with blind
  writes (no duplicate check), and with long pauses;
* bLSM — loads unordered data *and* checks every insert for a
  pre-existing key (``insert if not exists``) at nearly blind-write
  speed, thanks to the C2 Bloom filter (Section 3.1.2).
"""

from __future__ import annotations

from benchmarks.conftest import (
    SCALE,
    make_blsm,
    make_btree,
    make_leveldb,
    report,
)
from repro.ycsb import WorkloadSpec, load_phase


def _spec(**overrides):
    defaults = dict(
        record_count=SCALE.record_count,
        operation_count=0,
        value_bytes=SCALE.value_bytes,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def _run_loads():
    results = {}
    blsm = make_blsm()
    results["bLSM (unordered, insert-if-not-exists)"] = load_phase(
        blsm, _spec(check_exists_on_insert=True), seed=3
    )
    assert blsm.get(b"__nope__") is None

    leveldb = make_leveldb()
    results["LevelDB (unordered, blind writes)"] = load_phase(
        leveldb, _spec(), seed=3
    )

    btree_sorted = make_btree()
    results["InnoDB (pre-sorted bulk load)"] = load_phase(
        btree_sorted, _spec(ordered_inserts=True), seed=3, use_bulk_load=True
    )

    btree_random = make_btree()
    results["InnoDB (unordered inserts)"] = load_phase(
        btree_random, _spec(), seed=3
    )
    btree_random.flush()
    return results


def test_sec52_bulk_load(run_once):
    results = run_once(_run_loads)

    lines = [f"{'system / load mode':42s}{'ops/s':>12s}{'max lat (ms)':>14s}"]
    for name, result in results.items():
        lines.append(
            f"{name:42s}{result.throughput:12.0f}"
            f"{result.all_latencies().max * 1e3:14.2f}"
        )
    report("sec52_bulk_load", lines)

    blsm = results["bLSM (unordered, insert-if-not-exists)"]
    leveldb = results["LevelDB (unordered, blind writes)"]
    sorted_btree = results["InnoDB (pre-sorted bulk load)"]
    random_btree = results["InnoDB (unordered inserts)"]

    # bLSM beats LevelDB while doing strictly more work per insert
    # (the duplicate check), Section 5.2.
    assert blsm.throughput > leveldb.throughput
    # Unordered loads into the B-Tree collapse to seek-bound speed.
    assert blsm.throughput > 10 * random_btree.throughput
    assert sorted_btree.throughput > 10 * random_btree.throughput
    # LevelDB's pauses: its worst insert dwarfs bLSM's.
    assert leveldb.all_latencies().max > blsm.all_latencies().max

"""Ablation (Section 4.4.2): CLOCK vs LRU buffer pool eviction.

The paper replaced LRU with CLOCK because LRU was a concurrency
bottleneck; the two policies are meant to deliver comparable hit rates.
This ablation verifies that CLOCK's hit rate on a Zipfian read workload
is close to LRU's (the policy swap is safe), and reports both.
"""

from __future__ import annotations

from benchmarks.conftest import SCALE, make_blsm, report
from repro.storage import EvictionPolicy
from repro.ycsb import WorkloadSpec, load_phase, run_workload


def _hit_rate(policy):
    engine = make_blsm(eviction_policy=policy)
    load = WorkloadSpec(
        record_count=SCALE.record_count,
        operation_count=0,
        value_bytes=SCALE.value_bytes,
    )
    load_phase(engine, load, seed=41)
    engine.tree.compact()
    buffer = engine.tree.stasis.buffer
    hits, misses = buffer.hits, buffer.misses  # count the read phase only
    reads = WorkloadSpec(
        record_count=SCALE.record_count,
        operation_count=3000,
        read_proportion=1.0,
        request_distribution="zipfian",
        value_bytes=SCALE.value_bytes,
    )
    result = run_workload(engine, reads, seed=42)
    hits, misses = buffer.hits - hits, buffer.misses - misses
    return {"hit_rate": hits / (hits + misses), "throughput": result.throughput}


def _measure():
    return {
        "CLOCK": _hit_rate(EvictionPolicy.CLOCK),
        "LRU": _hit_rate(EvictionPolicy.LRU),
    }


def test_ablation_buffer_eviction(run_once):
    rows = run_once(_measure)

    lines = [f"{'policy':8s}{'hit rate':>10s}{'ops/s':>10s}"]
    for name, row in rows.items():
        lines.append(
            f"{name:8s}{row['hit_rate']:10.3f}{row['throughput']:10.0f}"
        )
    report("ablation_buffer", lines)

    clock, lru = rows["CLOCK"], rows["LRU"]
    # Both policies cache the Zipfian hot set effectively...
    assert clock["hit_rate"] > 0.2
    assert lru["hit_rate"] > 0.2
    # ... and CLOCK approximates LRU closely (the paper's swap is free
    # in hit rate; its win was lock contention, which we do not model).
    assert abs(clock["hit_rate"] - lru["hit_rate"]) < 0.15

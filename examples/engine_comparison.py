#!/usr/bin/env python3
"""Side-by-side engine comparison on one workload.

Runs the same mixed workload against bLSM, the update-in-place B-Tree
(InnoDB stand-in) and the leveled LSM (LevelDB stand-in, the registry's
``leveldb`` engine: a compaction policy of the same tree kernel), then
prints a comparison table — a miniature of the paper's Section 5
evaluation and a template for benchmarking your own mixes.

Run:
    python examples/engine_comparison.py
"""

from repro import BLSMEngine, BLSMOptions, BTreeEngine, build_engine
from repro.ycsb import WorkloadSpec, load_phase, run_workload

RECORDS = 2000
OPERATIONS = 2000


def engines():
    yield BLSMEngine(BLSMOptions(c0_bytes=256 * 1024, buffer_pool_pages=32))
    yield BTreeEngine(page_size=16 * 1024, buffer_pool_pages=16)
    # A 64 KiB memtable (an eighth of c0_bytes) over a 1 MiB L1.
    yield build_engine("leveldb", c0_bytes=512 * 1024, cache_pages=64)


def main() -> None:
    load = WorkloadSpec(
        record_count=RECORDS, operation_count=0, value_bytes=500
    )
    serve = WorkloadSpec(
        record_count=RECORDS,
        operation_count=OPERATIONS,
        read_proportion=0.5,
        blind_write_proportion=0.3,
        scan_proportion=0.1,
        update_proportion=0.1,
        request_distribution="zipfian",
        value_bytes=500,
    )

    print(
        f"{'engine':10s}{'load ops/s':>12s}{'serve ops/s':>13s}"
        f"{'p99 (ms)':>10s}{'max (ms)':>10s}{'seeks':>8s}"
    )
    for engine in engines():
        loaded = load_phase(engine, load, seed=5)
        seeks_before = engine.seeks()
        result = run_workload(engine, serve, seed=6)
        latency = result.all_latencies()
        print(
            f"{engine.name:10s}{loaded.throughput:12.0f}"
            f"{result.throughput:13.0f}"
            f"{latency.percentile(99) * 1e3:10.2f}"
            f"{latency.max * 1e3:10.2f}"
            f"{engine.seeks() - seeks_before:8d}"
        )
        engine.close()


if __name__ == "__main__":
    main()

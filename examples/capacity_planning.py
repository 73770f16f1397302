#!/usr/bin/env python3
"""Capacity planning with open-loop load curves.

The paper benchmarks under continuous overload; production systems
throttle (Section 5.1).  This example answers the operator's question:
*how much offered load can this store absorb while meeting a p99 SLA?*
It measures the closed-loop capacity, sweeps offered load with one
open-loop session, prints the latency curve, and reports the highest
load that meets the SLA.

Run:
    python examples/capacity_planning.py
"""

from repro import BLSMEngine, BLSMOptions, DiskModel
from repro.ycsb import WorkloadSpec, load_phase, run_sessions, run_workload

SLA_P99_MS = 2.0
RECORDS = 3000
OPS = 2500


def fresh_engine():
    engine = BLSMEngine(
        BLSMOptions(
            c0_bytes=512 * 1024,
            buffer_pool_pages=64,
            disk_model=DiskModel.ssd(),
        )
    )
    spec = WorkloadSpec(
        record_count=RECORDS, operation_count=0, value_bytes=1000
    )
    load_phase(engine, spec, seed=1)
    engine.tree.compact()
    return engine


def serving_spec():
    return WorkloadSpec(
        record_count=RECORDS,
        operation_count=OPS,
        read_proportion=0.8,
        blind_write_proportion=0.2,
        request_distribution="zipfian",
        value_bytes=1000,
    )


def main() -> None:
    capacity = run_workload(fresh_engine(), serving_spec(), seed=2).throughput
    print(f"closed-loop capacity: {capacity:,.0f} ops/s (saturated device)\n")
    print(f"{'offered load':>14s}{'p50 (ms)':>10s}{'p99 (ms)':>10s}{'meets SLA':>11s}")

    best_load = 0.0
    for fraction in (0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.2):
        rate = fraction * capacity
        result = run_sessions(
            fresh_engine(), serving_spec(), offered_rate=rate,
            sessions=1, arrival="poisson", seed=2,
        )
        latency = result.latency  # reads to completion, writes to durable
        p50 = latency.percentile(50) * 1e3
        p99 = latency.percentile(99) * 1e3
        # Keeping up means absorbing the offered rate while it arrives.
        # (`result.saturated` compares the backlog, which ends with the
        # closing log force, with five inter-arrival gaps: past ~30k
        # ops/s on SSD one force spans five gaps.)
        keeps_up = result.achieved_rate >= 0.99 * rate
        meets = p99 <= SLA_P99_MS and keeps_up
        if meets:
            best_load = max(best_load, rate)
        print(
            f"{rate:12,.0f}/s{p50:10.3f}{p99:10.3f}"
            f"{'yes' if meets else 'NO':>11s}"
        )

    print(
        f"\nhighest load meeting p99 <= {SLA_P99_MS:.0f} ms: "
        f"{best_load:,.0f} ops/s "
        f"({best_load / capacity:.0%} of saturated capacity)"
    )
    print(
        "Past the knee the queue grows without bound — the 100s-of-ms\n"
        "latencies of the paper's overload methodology (Section 5.1)."
    )


if __name__ == "__main__":
    main()

"""Latency vs offered load (Section 5.1's throttling remark).

The paper runs under continuous overload, producing 100s-of-ms
latencies, and notes that production systems throttle load, which
"would reduce the latencies" — Figure 9's stable ~2 ms is the lightly
loaded regime.  One paced open-loop session makes the whole curve
measurable: latency is flat at the service time up to the engine's
capacity, then explodes past the knee.  A write is done when the
group-commit force covering it lands, so its latency includes that
force.
"""

from __future__ import annotations

from benchmarks.conftest import SCALE, make_blsm, report
from repro.sim import DiskModel
from repro.ycsb import WorkloadSpec, load_phase, run_sessions, run_workload

LOAD_FRACTIONS = [0.2, 0.5, 0.8, 1.0, 1.5, 2.5]


def _prepared_engine():
    engine = make_blsm(DiskModel.ssd())
    spec = WorkloadSpec(
        record_count=SCALE.record_count,
        operation_count=0,
        value_bytes=SCALE.value_bytes,
    )
    load_phase(engine, spec, seed=95)
    engine.tree.compact()
    return engine


def _serving_spec(ops: int) -> WorkloadSpec:
    return WorkloadSpec(
        record_count=SCALE.record_count,
        operation_count=ops,
        read_proportion=0.8,
        blind_write_proportion=0.2,
        request_distribution="zipfian",
        value_bytes=SCALE.value_bytes,
    )


def _measure():
    capacity = run_workload(
        _prepared_engine(), _serving_spec(1500), seed=96
    ).throughput
    curve = {}
    for fraction in LOAD_FRACTIONS:
        engine = _prepared_engine()
        result = run_sessions(
            engine,
            _serving_spec(1500),
            offered_rate=fraction * capacity,
            sessions=1,
            arrival="uniform",
            seed=96,
        )
        curve[fraction] = {
            "p50_ms": result.latency.percentile(50) * 1e3,
            "p99_ms": result.latency.percentile(99) * 1e3,
            "saturated": result.saturated,
        }
    return capacity, curve


def test_open_loop_latency_vs_load(run_once):
    capacity, curve = run_once(_measure)

    lines = [f"closed-loop capacity: {capacity:,.0f} ops/s"]
    lines.append(
        f"{'offered load':>13s}{'p50 (ms)':>10s}{'p99 (ms)':>10s}{'saturated':>11s}"
    )
    for fraction, row in curve.items():
        lines.append(
            f"{fraction:12.1f}x{row['p50_ms']:10.3f}{row['p99_ms']:10.3f}"
            f"{str(row['saturated']):>11s}"
        )
    report("open_loop_latency_vs_load", lines)

    # Below the knee: sub-millisecond latencies on SSD, no saturation.
    assert not curve[0.5]["saturated"]
    assert curve[0.5]["p99_ms"] < 2.0
    # Past the knee: saturation and orders-of-magnitude higher latency.
    assert curve[2.5]["saturated"]
    assert curve[2.5]["p99_ms"] > 20 * curve[0.5]["p99_ms"]

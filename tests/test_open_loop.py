"""Tests for the open-loop (throttled) runner with one session."""

import pytest

from repro.baselines import BLSMEngine
from repro.core import BLSMOptions
from repro.sim import DiskModel
from repro.ycsb import WorkloadSpec, load_phase, run_sessions, run_workload


def engine_and_spec():
    engine = BLSMEngine(
        BLSMOptions(
            c0_bytes=64 * 1024,
            buffer_pool_pages=8,
            disk_model=DiskModel.hdd(),
        )
    )
    spec = WorkloadSpec(
        record_count=800,
        operation_count=400,
        read_proportion=1.0,
        value_bytes=200,
    )
    load_phase(engine, spec, seed=1)
    engine.tree.compact()
    return engine, spec


def one_session(engine, spec, rate, arrival="uniform"):
    return run_sessions(
        engine, spec, rate, sessions=1, arrival=arrival, seed=2
    )


def closed_loop_capacity():
    engine, spec = engine_and_spec()
    return run_workload(engine, spec, seed=2).throughput


def test_light_load_latency_is_service_time():
    capacity = closed_loop_capacity()
    engine, spec = engine_and_spec()
    result = one_session(engine, spec, 0.2 * capacity)
    assert not result.saturated
    # With the device mostly idle, p50 latency is about one seek.
    assert result.latency.percentile(50) < 3 * DiskModel.hdd().read_access_seconds


def test_overload_builds_backlog():
    capacity = closed_loop_capacity()
    engine, spec = engine_and_spec()
    result = one_session(engine, spec, 3.0 * capacity)
    assert result.saturated
    assert result.backlog_seconds > 0
    # Under overload the achieved rate approaches closed-loop capacity.
    assert result.achieved_rate < 1.5 * capacity


def test_latency_grows_with_load():
    capacity = closed_loop_capacity()
    p99s = []
    for fraction in (0.2, 0.7, 1.5):
        engine, spec = engine_and_spec()
        result = one_session(engine, spec, fraction * capacity)
        p99s.append(result.latency.percentile(99))
    # Below the knee, latency is flat at the service time (deterministic
    # arrivals and service queue almost nothing)...
    assert p99s[1] == pytest.approx(p99s[0], rel=0.5)
    # ... and past the knee it explodes: the hockey stick.
    assert p99s[2] > 3 * p99s[1]


def test_poisson_arrivals():
    capacity = closed_loop_capacity()
    engine, spec = engine_and_spec()
    result = one_session(engine, spec, 0.5 * capacity, arrival="poisson")
    assert result.operations == spec.operation_count
    assert result.latency.count == spec.operation_count


def test_deterministic_latencies_repeatable():
    capacity = closed_loop_capacity()
    outcomes = []
    for _ in range(2):
        engine, spec = engine_and_spec()
        result = one_session(engine, spec, 0.5 * capacity)
        outcomes.append(result.latency.percentile(99))
    assert outcomes[0] == outcomes[1]


def test_invalid_rate_rejected():
    engine, spec = engine_and_spec()
    with pytest.raises(ValueError):
        one_session(engine, spec, 0)


def test_trailing_stall_does_not_deflate_achieved_rate():
    # Regression: achieved_rate used to divide by first-arrival-to-last-
    # completion, so an engine stall *after* the final arrival (a merge
    # the last write kicked off) made a keeping-up engine look
    # saturated.  The rate is now measured over the arrival window.
    capacity = closed_loop_capacity()
    engine, spec = engine_and_spec()
    rate = 0.3 * capacity
    result = one_session(engine, spec, rate)
    assert not result.saturated
    baseline = result.achieved_rate
    assert baseline == pytest.approx(rate, rel=0.15)
    # Simulate the trailing stall: same completions, with the clock (and
    # thus completed_in) dragged far past the last arrival.
    stalled = one_session(engine_and_spec()[0], spec, rate)
    stalled.completed_in += 30.0  # 30 virtual seconds of post-arrival work
    stalled.backlog_seconds += 30.0
    assert stalled.achieved_rate == pytest.approx(baseline)  # unmoved
    # The old ratio would have collapsed:
    assert stalled.operations / stalled.completed_in < 0.5 * baseline

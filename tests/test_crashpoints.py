"""Crash-point enumeration harness tests (ALICE-style, docs/fault-injection.md).

The fast tests enumerate a thinned boundary set; the slow test is the
full acceptance run — 500 ops, a crash at *every* I/O boundary, both
engines — and is exercised by the scheduled ``crash-matrix`` CI job.
"""

import pytest

from repro.faults.crashpoints import (
    CrashRun,
    count_workload_accesses,
    crash_plan,
    enumerate_crash_points,
    format_report,
    scripted_workload,
)


def test_scripted_workload_is_deterministic():
    assert scripted_workload(50, seed=4) == scripted_workload(50, seed=4)
    assert scripted_workload(50, seed=4) != scripted_workload(50, seed=5)
    ops = scripted_workload(200, seed=0)
    assert any(op == "delete" for op, _, _ in ops)
    assert any(op == "put" for op, _, _ in ops)


def test_workload_access_count_is_stable():
    script = scripted_workload(80, seed=0)
    first = count_workload_accesses("blsm", script)
    second = count_workload_accesses("blsm", script)
    assert first == second > 0


def test_counting_run_that_does_not_verify_raises():
    """The uncrashed run's verification is part of every sweep."""

    class Broken(CrashRun):
        plan = crash_plan(None, 0)

        def drive(self):
            pass

        def settle(self, outcome):
            outcome.failures.append("key b'k': got None, expected acked b'v'")

    with pytest.raises(AssertionError, match="uncrashed run does not verify"):
        Broken().count()


@pytest.mark.parametrize("engine", ["blsm", "partitioned"])
def test_every_seventh_boundary_recovers(engine):
    report = enumerate_crash_points(engine=engine, ops=150, every=7, seed=0)
    assert report.ok, format_report(report)
    assert report.crashes_triggered > 0
    assert report.recoveries_verified == report.crashes_triggered
    assert report.points_tested >= report.total_accesses // 7


def test_report_formatting_mentions_verdict():
    report = enumerate_crash_points(engine="blsm", ops=40, every=13, seed=1)
    text = format_report(report)
    assert "verdict" in text
    assert ("PASS" in text) == report.ok


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_crash_points(engine="innodb")
    with pytest.raises(ValueError):
        enumerate_crash_points(ops=0)
    with pytest.raises(ValueError):
        enumerate_crash_points(every=0)


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["blsm", "partitioned"])
def test_full_boundary_sweep_500_ops(engine):
    """The acceptance run: crash at every single I/O boundary."""
    report = enumerate_crash_points(engine=engine, ops=500, every=1, seed=0)
    assert report.ok, format_report(report)
    assert report.crashes_triggered == report.total_accesses
    assert report.recoveries_verified == report.total_accesses
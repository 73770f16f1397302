"""Tests for the hot-path CPU profiler (``repro profile``, BENCH_10)."""

import json

import pytest

from repro.cli import main
from repro.memtable import MEMTABLE_NAMES
from repro.obs.report import load_report, validate_payload
from repro.ycsb.profile import (
    PRE_PR_BASELINE_OPS_PER_CPU_SECOND,
    memtable_microbench,
    profile_compare_rules,
    profile_memtables,
    profile_phases,
    profile_report,
    profile_workload,
)

# Small enough to run in well under a second; the committed BENCH_10
# uses the full default scale.
SMALL = dict(records=200, operations=600)


@pytest.fixture(scope="module")
def sweep_results():
    return profile_memtables(MEMTABLE_NAMES, trials=1, **SMALL)


def test_profile_workload_measures_cpu_rate():
    result = profile_workload(memtable="skiplist", trials=2, **SMALL)
    assert result.total_ops == 800
    assert len(result.trial_rates) == 2
    assert result.ops_per_cpu_second == max(result.trial_rates) > 0
    assert result.cpu_seconds > 0
    assert result.speedup_vs_baseline == pytest.approx(
        result.ops_per_cpu_second / PRE_PR_BASELINE_OPS_PER_CPU_SECOND
    )


def test_profile_workload_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        profile_workload(trials=0, **SMALL)


def test_spin_shim_slows_the_measured_phase():
    clean = profile_workload(memtable="skiplist", trials=1, **SMALL)
    spun = profile_workload(
        memtable="skiplist", trials=1, spin_us=200.0, **SMALL
    )
    # The shim burns 200 CPU-microseconds per measured op.  Assert on
    # the CPU it *added*: a ratio of two single-trial rates moves with
    # whatever else the box is doing, the spin's own cost does not.
    added = spun.run_cpu_seconds - clean.run_cpu_seconds
    assert added >= 0.75 * SMALL["operations"] * 200e-6


def test_sweep_covers_every_backend(sweep_results):
    assert [r.memtable for r in sweep_results] == list(MEMTABLE_NAMES)
    for result in sweep_results:
        assert result.ops_per_cpu_second > 0


def test_memtable_microbench_reports_component_costs():
    costs = memtable_microbench("array", n=300)
    assert set(costs) == {
        "insert_ns", "point_read_ns", "scan_ns", "drain_ns"
    }
    assert all(value > 0 for value in costs.values())


def test_profile_phases_reports_subsystem_costs():
    phases = profile_phases(n=2000)
    assert set(phases) == {
        "op_generation_ns",
        "bloom_add_probe_ns",
        "disk_charge_ns",
        "metrics_dispatch_ns",
    }
    assert all(value > 0 for value in phases.values())


def test_profile_report_schema_and_blocks(sweep_results):
    micro = {
        r.memtable: memtable_microbench(r.memtable, n=200)
        for r in sweep_results
    }
    report = profile_report(
        sweep_results, {"seed": 0}, micro=micro, phases=profile_phases(1000)
    )
    assert report.bench == "profile"
    assert validate_payload(report.to_dict()) == []
    best = report.value("best")
    assert best["memtable"] in MEMTABLE_NAMES
    assert best["ops_per_cpu_second"] == max(
        r.ops_per_cpu_second for r in sweep_results
    )
    assert report.value("default.memtable") == "skiplist"
    assert report.value("baseline_ops_per_cpu_second") == (
        PRE_PR_BASELINE_OPS_PER_CPU_SECOND
    )
    for kind in MEMTABLE_NAMES:
        block = report.value(f"memtables.{kind}")
        assert block["micro"]["insert_ns"] > 0
        assert block["trial_rates"]


def test_profile_report_requires_results():
    with pytest.raises(ValueError, match="at least one"):
        profile_report([], {})


def test_compare_rules_cover_sweep_and_floor_tolerance(sweep_results):
    report = profile_report(sweep_results, {})
    rules = profile_compare_rules(report, tolerance=0.25)
    paths = {rule.path for rule in rules}
    assert "best.ops_per_cpu_second" in paths
    for kind in MEMTABLE_NAMES:
        assert f"memtables.{kind}.ops_per_cpu_second" in paths
    # CPU rates are machine-dependent: the tolerance never drops below
    # 50% no matter what the caller passes...
    assert all(rule.tolerance == 0.5 for rule in rules)
    # ...but a caller asking for more slack gets it.
    wide = profile_compare_rules(report, tolerance=0.8)
    assert all(rule.tolerance == 0.8 for rule in wide)


# ----------------------------------------------------------------------
# Observability toggle: byte-identical engine state either way
# ----------------------------------------------------------------------


def _seeded_trace(engine, ops: int = 400, seed: int = 9):
    import random

    rng = random.Random(seed)
    for step in range(ops):
        key = b"key%03d" % rng.randrange(80)
        roll = rng.random()
        if roll < 0.6:
            engine.put(key, bytes([rng.randrange(256)]) * 24)
        elif roll < 0.8:
            engine.delete(key)
        else:
            engine.get(key)


def test_observability_off_is_semantically_invisible():
    """Disabling metrics/tracing skips dispatch work only: logical
    state (digest), scan order and even the virtual clock must be
    byte-identical to the instrumented engine."""
    from repro.engines import build_engine

    observed = build_engine(
        "blsm", c0_bytes=8 * 1024, cache_pages=16, observability=True
    )
    dark = build_engine(
        "blsm", c0_bytes=8 * 1024, cache_pages=16, observability=False
    )
    _seeded_trace(observed)
    _seeded_trace(dark)
    assert observed.state_digest() == dark.state_digest()
    assert observed.clock.now == dark.clock.now
    observed.close()
    dark.close()


def test_observability_off_disables_trace_and_counters():
    from repro.engines import build_engine

    dark = build_engine("blsm", durability="sync", observability=False)
    lit = build_engine("blsm", durability="sync", observability=True)
    assert not dark.runtime.observability
    assert not dark.runtime.trace.enabled
    _seeded_trace(dark, ops=50)
    _seeded_trace(lit, ops=50)
    # The instrumented engine accumulates per-device counters; the dark
    # one skips that dispatch entirely (same I/O, no bookkeeping).
    lit_writes = [
        name for name in lit.metrics() if name.endswith(".write_ops")
    ]
    assert lit_writes, "instrumented engine must expose disk counters"
    assert any(
        lit.runtime.metrics.value(name, 0.0) > 0.0 for name in lit_writes
    )
    for name in lit_writes:
        assert dark.runtime.metrics.value(name, 0.0) == 0.0
    dark.close()
    lit.close()


@pytest.mark.parametrize("name", ["blsm", "leveled", "sharded"])
def test_io_summary_does_not_depend_on_observability(name):
    """``io_summary`` used to read the metrics registry, which devices
    skip with observability off, so every untraced run reported an idle
    device: the same seeded reads must give the same non-zero counters
    either way."""
    from repro.engines import build_engine

    summaries = []
    for observability in (True, False):
        engine = build_engine(
            name, c0_bytes=8 * 1024, cache_pages=16,
            observability=observability,
        )
        # Data >> C0 and >> the buffer pool, in scattered key order:
        # merges read and write, cold reads seek.
        keys = [b"key%04d" % ((i * 7919) % 2000) for i in range(2000)]
        for key in keys:
            engine.put(key, b"v" * 256)
        for key in keys[::20]:
            engine.get(key)
        summaries.append(engine.io_summary())
        engine.close()
    lit, dark = summaries
    assert dark == lit
    assert dark["data_seeks"] > 0
    assert dark["data_bytes_read"] > 0
    assert dark["data_bytes_written"] > 0
    assert dark["busy_seconds"] > 0.0


# ----------------------------------------------------------------------
# CLI: repro profile / the planted-regression gate self-test
# ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_profile_emits_envelope_and_passes_floor(capsys, tmp_path):
    out_path = tmp_path / "BENCH_10.json"
    code, out = run_cli(
        capsys,
        "profile", "--memtable", "all", "--records", "200", "--ops", "600",
        "--trials", "1", "--phases", "--json", str(out_path),
        "--assert-min-ops", "100", "--quiet",
    )
    assert code == 0
    assert "gates: all passed" in out
    report = load_report(str(out_path))
    assert validate_payload(report.to_dict()) == []
    assert set(report.metrics["memtables"]) == set(MEMTABLE_NAMES)
    assert report.value("phases.op_generation_ns") > 0


def test_cli_profile_rejects_unknown_memtable(capsys):
    with pytest.raises(SystemExit, match="unknown memtable"):
        main(["profile", "--memtable", "btree"])


def test_cli_profile_floor_gate_fails_loudly(capsys):
    code, out = run_cli(
        capsys,
        "profile", "--memtable", "skiplist", "--records", "100",
        "--ops", "200", "--trials", "1",
        "--assert-min-ops", "1e12", "--quiet",
    )
    assert code == 1
    assert "FAIL" in out


def test_cli_planted_regression_fails_the_compare_gate(capsys, tmp_path):
    """The throughput gate self-test: a per-op CPU-spin shim plants a
    real hot-path regression, and ``repro report --compare`` against
    the clean baseline must exit nonzero."""
    base_path = tmp_path / "BENCH_10.json"
    code, _ = run_cli(
        capsys,
        "profile", "--memtable", "skiplist", "--records", "200",
        "--ops", "500", "--trials", "1", "--json", str(base_path), "--quiet",
    )
    assert code == 0

    # Identical report → perf gate passes.
    code, out = run_cli(
        capsys, "report", "--compare", str(base_path), str(base_path)
    )
    assert code == 0
    assert "no regressions" in out

    regressed_path = tmp_path / "BENCH_10.regressed.json"
    code, _ = run_cli(
        capsys,
        "profile", "--memtable", "skiplist", "--records", "200",
        "--ops", "500", "--trials", "1", "--spin-us", "400",
        "--json", str(regressed_path), "--quiet",
    )
    assert code == 0
    code, out = run_cli(
        capsys, "report", "--compare", str(base_path), str(regressed_path)
    )
    assert code == 1
    assert "FAIL" in out
    assert "ops_per_cpu_second" in out


def test_committed_bench_10_is_valid_and_clears_3x():
    """The committed BENCH_10.json must parse, carry the full sweep,
    and demonstrate the >= 3x hot-path speedup acceptance."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_10.json"
    if not path.exists():
        pytest.skip("BENCH_10.json not committed")
    report = load_report(str(path))
    assert report.bench == "profile"
    assert validate_payload(report.to_dict()) == []
    assert set(report.metrics["memtables"]) >= set(MEMTABLE_NAMES)
    assert report.value("best.speedup_vs_baseline") >= 3.0
    assert report.value("baseline_ops_per_cpu_second") == (
        PRE_PR_BASELINE_OPS_PER_CPU_SECOND
    )

"""Tests for the performance-stability harness (BENCH_9)."""

import json

import pytest

from repro.analysis.stability import (
    bounded_latency_check,
    stability_compare_rules,
    stability_table,
)
from repro.cli import main
from repro.engines import build_engine
from repro.obs.report import (
    keyword_defaults,
    load_report,
    new_report,
    validate_payload,
)
from repro.ycsb.runner import load_phase
from repro.ycsb.stability import (
    STABILITY_MATRIX,
    run_stability,
    run_stability_matrix,
    stability_metrics,
)
from repro.ycsb.workload import WorkloadSpec

CONTRAST = ("spring_gear", "gear", "unthrottled")


DEFAULTS = keyword_defaults(run_stability)


@pytest.fixture(scope="module")
def matrix_results():
    """One shared contrast run at ``run_stability``'s defaults (~4s)."""
    return run_stability_matrix([STABILITY_MATRIX[name] for name in CONTRAST])


def test_default_scenario_exercises_the_merges_it_gates():
    """When the offered load starts, both merges move streaming units.

    The C1 generation (C1, or the C1' it was just promoted to) and C2
    each hold at least two of the device's streaming units, so C0:C1
    and C1':C2 passes read and write whole runs while the p99.9 ceiling
    is measured (the 48 KiB scenario this replaces never built a
    64-page component).
    """
    spec = WorkloadSpec(
        record_count=DEFAULTS["records"],
        operation_count=0,
        value_bytes=DEFAULTS["value_bytes"],
    )
    for name in ("spring_gear", "unthrottled"):
        engine = build_engine(
            "blsm",
            c0_bytes=DEFAULTS["c0_bytes"],
            cache_pages=DEFAULTS["cache_pages"],
            scheduler=STABILITY_MATRIX[name].scheduler,
            durability="async",
            seed=DEFAULTS["seed"],
        )
        load_phase(engine, spec, seed=DEFAULTS["seed"])
        stasis = engine.tree.stasis
        two_units = 2 * stasis.streaming_pages * stasis.page_size
        sizes = engine.tree.component_sizes()
        assert sizes["c1"] + sizes["c1_prime"] >= two_units, (name, sizes)
        assert sizes["c2"] >= two_units, (name, sizes)
        engine.close()


def test_matrix_runs_every_config(matrix_results):
    assert [r.config.name for r in matrix_results] == list(CONTRAST)
    offered = int(DEFAULTS["duration_seconds"] * DEFAULTS["rate"])
    for result in matrix_results:
        assert result.sessions.operations == offered
        assert result.timeline, result.config.name
        assert result.sessions.probes, result.config.name


def test_timeline_has_latency_and_stall_channels(matrix_results):
    for result in matrix_results:
        windows_with_writes = [
            row for row in result.timeline if row.get("write_n", 0) > 0
        ]
        assert windows_with_writes
        row = windows_with_writes[0]
        for key in ("t", "write_p50", "write_p99", "write_p999",
                    "queue_p99", "queue_p999"):
            assert key in row, (result.config.name, key)
        # Stall/backpressure deltas merge into the same rows.
        assert any("stall_count" in r for r in result.timeline)
        assert any("queue_depth" in r for r in result.timeline)


def test_spring_gear_ceiling_strictly_below_unthrottled(matrix_results):
    by_name = {r.config.name: r for r in matrix_results}
    spring = by_name["spring_gear"].write_p999_ceiling
    naive = by_name["unthrottled"].write_p999_ceiling
    assert 0.0 < spring < naive
    assert bounded_latency_check(spring, naive)


def test_unthrottled_baseline_actually_stalls(matrix_results):
    by_name = {r.config.name: r for r in matrix_results}
    assert by_name["unthrottled"].stall_count > 0
    assert by_name["unthrottled"].stall_seconds > 0.0
    assert by_name["spring_gear"].stall_count == 0


def stability_report(results, config):
    return new_report("stability", config, stability_metrics(results))


def test_stability_report_is_schema_valid(matrix_results):
    report = stability_report(matrix_results, {"seed": 0})
    assert validate_payload(report.to_dict()) == []
    assert report.bench == "stability"
    for name in CONTRAST:
        block = report.value(f"configs.{name}")
        assert block["timeline"]
        assert block["write_p999_ceiling"] > 0
    bounded = report.value("bounded_latency")
    assert bounded["bounded"] is True
    assert bounded["ceiling_ratio"] > 1.0


def test_stability_table_renders(matrix_results):
    report = stability_report(matrix_results, {"seed": 0})
    table = stability_table(report)
    for name in CONTRAST:
        assert name in table
    assert "BOUNDED" in table


def test_compare_rules_track_baseline_configs(matrix_results):
    report = stability_report(matrix_results, {"seed": 0})
    rules = stability_compare_rules(report, tolerance=0.3)
    paths = {rule.path for rule in rules}
    for name in CONTRAST:
        assert f"configs.{name}.write_p999_ceiling" in paths
        assert f"configs.{name}.achieved_rate" in paths
    assert "bounded_latency.ceiling_ratio" in paths
    assert all(rule.tolerance == 0.3 for rule in rules)


def test_single_config_run_has_no_bounded_block():
    result = run_stability(
        STABILITY_MATRIX["spring_gear"],
        duration_seconds=1.0,
        rate=1000.0,
        sessions=4,
        windows=6,
        records=200,
    )
    report = stability_report([result], {})
    assert "bounded_latency" not in report.metrics


# ----------------------------------------------------------------------
# CLI: repro stability / repro report
# ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_stability_emits_envelope_and_passes_gate(capsys, tmp_path):
    out_path = tmp_path / "BENCH_9.json"
    code, out = run_cli(
        capsys,
        "stability", "--configs", "spring_gear,gear,unthrottled",
        "--json", str(out_path), "--assert-bounded", "--quiet",
    )
    assert code == 0
    assert "BOUNDED" in out
    assert "gates: all passed" in out
    report = load_report(str(out_path))
    assert validate_payload(report.to_dict()) == []
    assert len(report.metrics["configs"]) == 3


def test_cli_stability_rejects_unknown_config(capsys):
    with pytest.raises(SystemExit, match="unknown stability config"):
        main(["stability", "--configs", "warp_drive"])


def test_cli_report_validates_and_compares(capsys, tmp_path):
    out_path = tmp_path / "BENCH_9.json"
    code, _ = run_cli(
        capsys,
        "stability", "--configs", "spring_gear,unthrottled",
        "--duration", "2", "--rate", "1500", "--sessions", "4",
        "--windows", "12", "--json", str(out_path), "--quiet",
    )
    assert code == 0

    code, out = run_cli(capsys, "report", str(out_path))
    assert code == 0
    assert "OK" in out and "bench=stability" in out

    # Identical report → perf gate passes.
    code, out = run_cli(
        capsys, "report", "--compare", str(out_path), str(out_path)
    )
    assert code == 0
    assert "no regressions" in out

    # Planted tail-latency regression → perf gate fails (the self-test
    # proving the CI gate bites on a real degradation).
    payload = json.loads(out_path.read_text())
    block = payload["metrics"]["configs"]["spring_gear"]
    block["write_p999_ceiling"] *= 2.0
    regressed = tmp_path / "BENCH_9.regressed.json"
    regressed.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "report", "--compare", str(out_path), str(regressed)
    )
    assert code == 1
    assert "FAIL" in out
    assert "write_p999_ceiling" in out


def test_cli_report_flags_invalid_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bench": "mystery", "x": 1}')
    code, out = run_cli(capsys, "report", str(bad))
    assert code == 1
    assert "INVALID" in out


def test_cli_report_names_an_invalid_file_once(capsys, tmp_path):
    bad_payload = tmp_path / "bad.json"
    bad_payload.write_text('{"bench": "mystery", "x": 1}')
    not_json = tmp_path / "garbage.json"
    not_json.write_text("{not json")
    missing = tmp_path / "missing.json"
    code, out = run_cli(
        capsys, "report", str(bad_payload), str(not_json), str(missing)
    )
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 3
    for path, line in zip((bad_payload, not_json, missing), lines):
        assert line.startswith(f"{path}: INVALID — ")
        assert line.count(str(path)) == 1, line

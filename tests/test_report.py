"""Tests for the shared bench-report envelope, gates and perf gate."""

import json

import pytest

from repro.obs.report import (
    SCHEMA,
    VERSION,
    BenchReport,
    CompareRule,
    Gate,
    ReportError,
    compare_reports,
    comparison_passed,
    evaluate_gates,
    format_comparison,
    format_gate_table,
    gates_passed,
    load_report,
    metric_value,
    new_report,
    validate_payload,
)


def sample_report() -> BenchReport:
    return new_report(
        "demo",
        {"seed": 7, "rate": 1000.0},
        {
            "group": {"forces_per_commit": 0.2, "queueing": {"p99": 0.004}},
            "force_ratio": 5.5,
        },
    )


# ----------------------------------------------------------------------
# Envelope round-trip and validation
# ----------------------------------------------------------------------


def test_envelope_round_trip(tmp_path):
    report = sample_report()
    payload = report.to_dict()
    assert payload["schema"] == SCHEMA
    assert payload["version"] == VERSION
    assert validate_payload(payload) == []
    again = BenchReport.from_dict(payload)
    assert again.bench == report.bench
    assert again.config == report.config
    assert again.metrics == report.metrics

    path = tmp_path / "demo.json"
    report.save(str(path))
    loaded = load_report(str(path))
    assert loaded.metrics == report.metrics
    assert loaded.meta.get("git_rev")


def test_validation_rejects_bad_payloads():
    assert validate_payload({"schema": "nope", "version": 1, "bench": "x"})
    assert validate_payload(
        {"schema": SCHEMA, "version": VERSION + 1, "bench": "x"}
    )
    assert validate_payload({"schema": SCHEMA, "version": VERSION})
    assert validate_payload(
        {"schema": SCHEMA, "version": VERSION, "bench": "x", "metrics": []}
    )
    with pytest.raises(ReportError):
        BenchReport.from_dict({"schema": "nope", "version": 1, "bench": "x"})


def test_metric_value_dotted_paths():
    report = sample_report()
    assert report.value("force_ratio") == 5.5
    assert report.value("group.queueing.p99") == 0.004
    assert report.value("group.missing", default=None) is None
    with pytest.raises(KeyError, match="missing"):
        metric_value(report.metrics, "group.missing.deeper")


def test_load_report_rejects_a_payload_without_schema(tmp_path):
    # A pre-envelope dump ({"bench": ..., flat metrics}) is outside
    # input: rejected by name, not guessed at.
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"bench": "live-migration", "p99_ratio": 0.9}))
    with pytest.raises(ReportError, match="old.json"):
        load_report(str(path))


# ----------------------------------------------------------------------
# Declarative gates
# ----------------------------------------------------------------------


def test_gates_pass_and_fail():
    report = sample_report()
    results = evaluate_gates(
        report,
        [
            Gate("force ratio", "force_ratio", ">=", 4.0, unit="x"),
            Gate("forces/commit", "group.forces_per_commit", "<=", 0.25),
            Gate("queue p99", "group.queueing.p99", "<=", 0.001,
                 scale=1e3, unit="ms"),
        ],
    )
    assert [r.passed for r in results] == [True, True, False]
    assert not gates_passed(results)
    table = "\n".join(format_gate_table(results))
    assert "PASS" in table and "FAIL" in table
    assert "1 of 3 FAILED" in table


def test_missing_gate_metric_fails_not_passes():
    report = sample_report()
    results = evaluate_gates(
        report, [Gate("ghost", "no.such.metric", ">=", 1.0)]
    )
    assert not results[0].passed
    assert "no.such.metric" in results[0].error


def test_non_numeric_gate_metric_fails():
    report = sample_report()
    results = evaluate_gates(report, [Gate("block", "group", ">=", 1.0)])
    assert not results[0].passed
    assert "not numeric" in results[0].error


def test_unknown_gate_op_rejected():
    with pytest.raises(ValueError):
        Gate("bad", "x", "!=", 1.0)


# ----------------------------------------------------------------------
# Baseline comparison (the CI perf gate)
# ----------------------------------------------------------------------


def comparable(p999: float, rate: float) -> BenchReport:
    return new_report(
        "stability",
        {"seed": 0},
        {
            "configs": {
                "spring_gear": {
                    "write_p999_ceiling": p999,
                    "achieved_rate": rate,
                }
            }
        },
    )


RULES = [
    CompareRule("configs.spring_gear.write_p999_ceiling", "lower", 0.25),
    CompareRule("configs.spring_gear.achieved_rate", "higher", 0.25),
]


def test_identical_reports_pass():
    rows = compare_reports(comparable(0.02, 2000.0), comparable(0.02, 2000.0), RULES)
    assert comparison_passed(rows)
    assert "no regressions" in "\n".join(format_comparison(rows))


def test_planted_tail_latency_regression_fails():
    # The self-test the CI perf gate rests on: a 50% p99.9 degradation
    # must trip the 25%-tolerance gate.
    rows = compare_reports(comparable(0.02, 2000.0), comparable(0.03, 2000.0), RULES)
    assert not comparison_passed(rows)
    failed = [row for row in rows if not row.passed]
    assert failed[0].rule.path == "configs.spring_gear.write_p999_ceiling"
    assert failed[0].change == pytest.approx(0.5)


def test_planted_throughput_regression_fails():
    rows = compare_reports(comparable(0.02, 2000.0), comparable(0.02, 1000.0), RULES)
    assert not comparison_passed(rows)


def test_improvement_passes():
    rows = compare_reports(comparable(0.02, 2000.0), comparable(0.01, 3000.0), RULES)
    assert comparison_passed(rows)


def test_bench_mismatch_fails():
    other = new_report("sessions-group-commit", {}, {})
    rows = compare_reports(comparable(0.02, 2000.0), other, RULES)
    assert not comparison_passed(rows)
    assert "mismatch" in rows[0].error


def test_metric_missing_from_current_fails():
    current = new_report("stability", {}, {"configs": {}})
    rows = compare_reports(comparable(0.02, 2000.0), current, RULES)
    assert not comparison_passed(rows)


def test_zero_baseline_tolerates_zero_and_flags_growth():
    base = new_report("stability", {}, {"lat": 0.0})
    same = new_report("stability", {}, {"lat": 0.0})
    worse = new_report("stability", {}, {"lat": 0.5})
    rule = [CompareRule("lat", "lower", 0.25)]
    assert comparison_passed(compare_reports(base, same, rule))
    assert not comparison_passed(compare_reports(base, worse, rule))


def test_compare_rule_validation():
    with pytest.raises(ValueError):
        CompareRule("x", "sideways")
    with pytest.raises(ValueError):
        CompareRule("x", "lower", tolerance=-0.1)

"""Tests for the shared bench-report envelope and its gates."""

import json

import pytest

from repro.obs.report import (
    SCHEMA,
    VERSION,
    BenchReport,
    Gate,
    ReportError,
    evaluate_gates,
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
    # Older reports carried a ``meta`` block (a git stamp); they still load.
    assert "meta" not in payload
    old = BenchReport.from_dict({**payload, "meta": {"git_rev": "5135e2e"}})
    assert old.metrics == report.metrics


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

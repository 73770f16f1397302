"""``run.py compare``: directions, bounds, unresolved, exit codes."""

from __future__ import annotations

import copy
import json

from bench import compare, spec
from bench import run as bench_run


def _suite(untraced: dict) -> dict:
    return {"workloads": copy.deepcopy(untraced), "traced": {}}


def _rows(rows: list[dict], workload: str, metric: str) -> dict:
    (row,) = [
        r for r in rows if r["workload"] == workload and r["metric"] == metric
    ]
    return row


def test_judge_applies_direction_and_bound() -> None:
    rate = spec.E2E_BY_NAME["host_ops_per_cpu_s"]  # higher, 25 %
    assert compare.judge(rate, 100.0, 100.0)[0] == "same"
    assert compare.judge(rate, 100.0, 85.0)[0] == "ok"
    assert compare.judge(rate, 100.0, 70.0)[0] == "REGRESSED"
    assert compare.judge(rate, 100.0, 130.0)[0] == "improved"
    amp = spec.E2E_BY_NAME["sim_write_amp"]  # lower, 10 %
    assert compare.judge(amp, 10.0, 10.5)[0] == "ok"
    assert compare.judge(amp, 10.0, 11.5)[0] == "REGRESSED"
    tail = spec.E2E_BY_NAME["sim_write_p99_ms"]  # lower, 1 %
    assert compare.judge(tail, 10.0, 10.05)[0] == "ok"
    assert compare.judge(tail, 10.0, 10.2)[0] == "REGRESSED"
    errors = spec.E2E_BY_NAME["error_rate"]  # any rise
    assert compare.judge(errors, 0.0, 0.001)[0] == "REGRESSED"
    slo = spec.E2E_BY_NAME["sim_max_rate_under_slo"]  # any drop
    assert compare.judge(slo, 300.0, 200.0)[0] == "REGRESSED"
    assert compare.judge(amp, None, None)[0] == "n/a"
    assert compare.judge(amp, 1.0, None)[0] == "DIFFERS"


def test_compare_rows_and_exit_codes(untraced: dict, tmp_path) -> None:
    base = _suite(untraced)
    rows = compare.compare_suites(base, _suite(untraced))
    assert len(rows) == len(spec.WORKLOADS) * len(spec.END_TO_END)
    assert compare.worst(rows) in ("same", "n/a")

    slower = _suite(untraced)
    report = slower["workloads"]["ingest"]
    report["end_to_end"]["host_ops_per_cpu_s"]["value"] *= 0.7
    for row in report["segments"]:  # every segment agrees: resolved
        row["ops_per_cpu_s"] *= 0.7
    report["end_to_end"]["sim_write_amp"]["value"] *= 1.2
    rows = compare.compare_suites(base, slower)
    assert _rows(rows, "ingest", "host_ops_per_cpu_s")["verdict"] == "REGRESSED"
    assert _rows(rows, "ingest", "sim_write_amp")["verdict"] == "REGRESSED"
    assert _rows(rows, "read_hot", "host_ops_per_cpu_s")["verdict"] == "same"

    noisy = _suite(untraced)
    report = noisy["workloads"]["ingest"]
    report["end_to_end"]["host_ops_per_cpu_s"]["value"] *= 0.7
    report["segments"][0]["ops_per_cpu_s"] *= 0.5  # segments disagree
    rows = compare.compare_suites(base, noisy)
    assert _rows(rows, "ingest", "host_ops_per_cpu_s")["verdict"] == "unresolved"

    # A suite that lost a workload does not compare clean.
    lost = _suite(untraced)
    del lost["workloads"]["scan_short"]
    rows = compare.compare_suites(base, lost)
    assert _rows(rows, "scan_short", "workload")["verdict"] == "DIFFERS"

    paths = {}
    for label, suite in (("base", base), ("slower", slower), ("lost", lost)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(suite))
    codes = [
        bench_run.main(["compare", str(paths["base"]), str(paths[other])])
        for other in ("base", "slower", "lost")
    ]
    assert codes == [0, 1, 1]


def test_repeat_needs_identical_simulation(untraced: dict) -> None:
    drifted = _suite(untraced)
    drifted["workloads"]["read_cold"]["end_to_end"]["sim_seeks_per_op"][
        "value"
    ] *= 1.001  # inside the 1 % bound, but not bit-identical
    rows = compare.compare_suites(
        _suite(untraced), drifted, require_identical_sim=True
    )
    assert compare.worst(rows) == "DIFFERS"

"""The traced run: names, the accounting identity, restoration, and
virtual-clock parity with the untraced run."""

from __future__ import annotations

import json

import pytest

from bench import run as bench_run
from bench import spec
from bench.ledger import CALLS, HITS, Ledger, _targets
from bench.workloads import make_workload
from conftest import SMOKE


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_traced_report(name: str, traced: dict) -> None:
    report = traced[name]
    assert report["correct"] and report["failed"] == 0, report["problems"]
    json.dumps(report, allow_nan=False)
    assert list(report["per_layer"]) == [m.name for m in spec.PER_LAYER]
    for cell in report["per_layer"].values():
        assert (cell["value"] is None) == bool(cell["reason"])
    line = json.loads(bench_run.contract_line(report))
    assert list(line["metrics"]) == [m.name for m in spec.PER_LAYER]
    ratio = report["per_layer"]["trace.overhead_ratio"]["value"]
    assert ratio is not None and ratio > 0.5


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_self_times_sum_to_the_whole(name: str, traced: dict) -> None:
    ledger = traced[name]["ledger"]
    raw = sum(row["raw_self_ns"] for row in ledger["rows"])
    # Exact by construction: every nanosecond belongs to one frame.
    assert raw == ledger["raw_self_sum_ns"] == ledger["segment_wall_ns"]
    # Against the CPU clock the only gap is wall time the process spent
    # runnable but not running (2 % on a quiet box; looser here because
    # a smoke segment lasts milliseconds).
    assert abs(1.0 - raw / ledger["segment_cpu_ns"]) < 0.10
    share = traced[name]["per_layer"]["ledger.unattributed_vsec_share"]
    assert share["value"] is None or abs(share["value"]) < 1e-9


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_traced_simulation_equals_untraced(
    name: str, traced: dict, untraced: dict
) -> None:
    """run_traced fails itself if its three passes (observability off,
    on, traced) disagree; here the traced pass is also held against the
    separate untraced run's same segment."""
    index = make_workload(name, 0, SMOKE, 10.0).traced_segment
    plain = untraced[name]["segments"][index]
    off, on, watched = traced[name]["segments"]
    deterministic = [
        key for key in plain
        if key not in ("cpu_s", "ops_per_cpu_s")
    ]
    for row in (off, on, watched):
        assert {k: row[k] for k in deterministic} == {
            k: plain[k] for k in deterministic
        }


def test_exact_counts_repeat(traced: dict) -> None:
    again = bench_run.run_workload(
        "mixed_a", 0, 10.0, SMOKE, trace=True, write_spans=False
    )
    for metric in spec.PER_LAYER:
        if metric.exact:
            assert (
                again["per_layer"][metric.name]["value"]
                == traced["mixed_a"]["per_layer"][metric.name]["value"]
            ), metric.name


def test_patched_attributes_are_restored() -> None:
    before = {
        (owner, attr): vars(owner)[attr] for owner, attr, _n, _k in _targets()
    }
    bench_run.run_workload(
        "scan_short", 0, 10.0, SMOKE, trace=True, write_spans=False
    )
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)


def test_span_file(tmp_path, monkeypatch) -> None:
    from bench import measure

    monkeypatch.setattr(measure, "OUT_DIR", str(tmp_path))
    report = bench_run.run_workload("read_cold", 0, 10.0, SMOKE, trace=True)
    doc = json.loads((tmp_path / "trace-read_cold.json").read_text())
    assert len(doc["spans"]) == report["ledger"]["spans_written"] > 0
    by_id = {span[5]: span for span in doc["spans"]}
    for name, start, end, v0, v1, span_id, parent, op in doc["spans"]:
        assert end >= start and v1 >= v0
        if parent:  # a child lies inside its parent, same op
            assert by_id[parent][1] <= start and end <= by_id[parent][2]
            assert by_id[parent][7] == op


def test_ledger_accounting_on_toy_functions() -> None:
    ledger = Ledger()

    def leaf(x):
        return x or None

    def gen(n):
        for i in range(n):
            yield wrapped_leaf(i)

    def boom():
        wrapped_leaf(1)
        raise KeyError("x")

    wrapped_leaf = ledger._wrap_call("leaf", leaf, count_hits=True)
    wrapped_gen = ledger._wrap_gen("gen", gen)
    wrapped_boom = ledger._wrap_call("boom", boom)

    class Clock:
        now = 0.0
        active_timeline = None

    token = ledger.begin(Clock(), 1)
    assert list(wrapped_gen(3)) == [None, 1, 2]
    with pytest.raises(KeyError):
        wrapped_boom()
    ledger.end(token)
    assert ledger.stack == []  # an exception unwinds its frames
    assert ledger.get("leaf", CALLS) == 4 and ledger.get("leaf", HITS) == 3
    assert ledger.get("gen", CALLS) == 1
    total = sum(ledger.raw_self_ns(name) for name in ledger.stats)
    assert total == ledger.stats["bench.loop"][1]
    # Off: wrappers are pass-throughs and record nothing.
    wrapped_leaf(5)
    assert ledger.get("leaf", CALLS) == 4

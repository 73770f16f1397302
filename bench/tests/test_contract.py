"""BENCHMARK.json against the driver's schema and against bench/spec.py;
every workload runs, is correct, and emits exactly its listed metrics."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import run as bench_run
from bench import spec
from conftest import ROOT, SMOKE

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_schema(contract: dict) -> None:
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    size = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"]
    )


def test_contract_is_generated_from_spec(contract: dict) -> None:
    """One table of names, units, directions and bounds: bench/spec.py."""
    assert contract == spec.contract()
    assert len(spec.END_TO_END) == 15 and len(spec.PER_LAYER) == 69


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_workload_emits_its_metrics(
    name: str, untraced: dict, contract: dict
) -> None:
    report = untraced[name]
    assert report["correct"] and report["failed"] == 0, report["problems"]
    assert report["attempted"] >= 1
    json.dumps(report, allow_nan=False)  # no inf / NaN anywhere
    block = report["end_to_end"]
    assert list(block) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        cell = block[metric.name]
        if name in metric.workloads:
            # Listed: a number, or too few samples at smoke size.
            assert cell["value"] is not None or cell["reason"].startswith(
                "n="
            ), (metric.name, cell)
        else:
            assert cell["value"] is None, (metric.name, cell)
            assert cell["reason"] == f"not defined on {name}"
    line = json.loads(bench_run.contract_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    for metric in contract["end_to_end"]:
        cell = line["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert cell["value"] > 0  # never 0, never negative
        own = block[metric["name"]]["value"]
        if own is not None:  # else: the same ratio over the set-up
            assert cell["value"] == own


def test_device_counters_come_from_simdisk_stats(untraced: dict) -> None:
    """With observability off, KVEngine.io_summary() reports 0 seeks for
    blsm (README, program defects); SimDisk.stats does not."""
    seeks = untraced["read_cold"]["end_to_end"]["sim_seeks_per_op"]["value"]
    assert seeks > 0.5


def test_read_hot_charges_no_virtual_time(untraced: dict) -> None:
    for row in untraced["read_hot"]["segments"]:
        assert row["vsec"] == 0.0 and row["data_bytes_read"] == 0


def test_ingest_engines_agree(untraced: dict) -> None:
    rows = untraced["ingest"]["segments"]
    assert len({(r["vsec"], r["data_seeks"], r["data_bytes_written"]) for r in rows}) == 1


def test_same_seed_same_simulation_other_seed_other_inputs(untraced: dict) -> None:
    again = bench_run.run_workload("mixed_a", 0, 10.0, SMOKE, trace=False)
    other = bench_run.run_workload("mixed_a", 1, 10.0, SMOKE, trace=False)
    assert again["sim_signature"] == untraced["mixed_a"]["sim_signature"]
    assert other["sim_signature"] != untraced["mixed_a"]["sim_signature"]


def _cli(args: list[str], cwd: str, hashseed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_cli_last_line_and_hash_seed_independence(tmp_path, contract) -> None:
    signatures = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"r{hashseed}.json"
        done = _cli(
            ["--workload", "scan_short", "--seed", "3", "--seconds", "10",
             "--trace", "0", "--scale", str(SMOKE), "--out", str(out)],
            ROOT, hashseed,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [
            m["name"] for m in contract["end_to_end"]
        ]
        signatures.append(json.loads(out.read_text())["sim_signature"])
    assert signatures[0] == signatures[1]


def test_fails_without_the_program(tmp_path) -> None:
    """In a directory holding only BENCHMARK.json and bench/ the command
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
    )
    done = _cli(
        ["--workload", "ingest", "--seed", "0", "--seconds", "10",
         "--trace", "0"], str(tmp_path), "0",
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

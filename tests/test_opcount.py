"""tools/opcount.py: counts of the open-loop workload as well as the
closed ones, per-layer counts that sum to the total, and the
committed-baseline check (`--check`, `--record`)."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "opcount.py")


def test_opcount_counts_the_first_arrivals_of_sessions_ol(capsys):
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--workload", "sessions_ol", "--ops", "40"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("sessions_ol seed=0 ops=40: ")
    opcodes = float(line.split(": ")[1].split(" opcodes/op")[0])
    assert opcodes > 0


def _tool():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(path, python, opcodes, calls, layers=None):
    row = {"ops": 20, "opcodes_per_op": opcodes, "calls_per_op": calls}
    if layers is not None:
        row["layers"] = layers
    path.write_text(json.dumps({
        "python": python, "seed": 0, "workloads": {"ingest": row}
    }))
    return str(path)


def test_the_layers_sum_to_the_total():
    tool = _tool()
    _ran, counts = tool.measure("ingest", 20, 0)
    layers = counts["layers"]
    assert "core.kernel" in layers and "storage.logical_log" in layers
    assert all(not layer.startswith("repro") for layer in layers)
    for metric in ("opcodes_per_op", "calls_per_op"):
        assert sum(row[metric] for row in layers.values()) == pytest.approx(
            counts[metric], rel=1e-12
        )


def test_check_passes_on_the_counts_it_recorded(tmp_path, capsys):
    tool = _tool()
    path = _baseline(tmp_path / "OPCOUNT.json", tool.interpreter(), 0, 0)
    assert tool.main(["--record", path]) == 0
    recorded = json.loads((tmp_path / "OPCOUNT.json").read_text())
    assert recorded["workloads"]["ingest"]["opcodes_per_op"] > 0
    assert tool.main(["--check", path]) == 0
    assert "ROSE" not in capsys.readouterr().out


def test_check_fails_when_a_count_rises_past_tolerance(tmp_path, capsys):
    tool = _tool()
    _ran, counts = tool.measure("ingest", 20, 0)
    counts = tool.rounded(counts)
    # Recorded 2 % below what the code counts: a 2 % rise.
    path = _baseline(
        tmp_path / "OPCOUNT.json",
        tool.interpreter(),
        counts["opcodes_per_op"] / 1.02,
        counts["calls_per_op"],
        counts["layers"],
    )
    assert tool.main(["--check", path]) == 1
    out = capsys.readouterr().out
    assert "ingest opcodes_per_op" in out and "ROSE" in out
    assert "ingest calls_per_op" in out


def test_check_fails_when_work_moves_between_layers(tmp_path, capsys):
    """The total holds, but one layer rose 5 % and another fell as much."""
    tool = _tool()
    _ran, counts = tool.measure("ingest", 20, 0)
    counts = tool.rounded(counts)
    layers = counts["layers"]
    moved = round(layers["core.kernel"]["opcodes_per_op"] * 0.05, 1)
    layers["core.kernel"]["opcodes_per_op"] -= moved
    layers["records"]["opcodes_per_op"] += moved
    path = _baseline(
        tmp_path / "OPCOUNT.json",
        tool.interpreter(),
        counts["opcodes_per_op"],
        counts["calls_per_op"],
        layers,
    )
    assert tool.main(["--check", path]) == 1
    out = capsys.readouterr().out
    assert "ingest opcodes_per_op" in out
    rose = [line for line in out.splitlines() if "ROSE" in line]
    assert rose == [line for line in rose if "[core.kernel] opcodes" in line]
    assert len(rose) == 1


def test_check_reports_a_version_mismatch_instead_of_failing(tmp_path, capsys):
    tool = _tool()
    path = _baseline(tmp_path / "OPCOUNT.json", "2.7", 1.0, 1.0)
    assert tool.main(["--check", path]) == 0
    assert "version mismatch" in capsys.readouterr().out


def test_a_total_gets_no_rounding_slack(tmp_path, capsys):
    """A layer's recorded count may lie up to 0.05 below its true one;
    a workload's total is gated at exactly 1 % above what it records."""
    tool = _tool()
    _ran, counts = tool.measure("ingest", 20, 0)
    # Recorded 1.05 % below what the code counts, which is within the
    # layers' 0.05 slack at this size (fewer than 100 calls per op).
    assert counts["calls_per_op"] < 100
    path = _baseline(
        tmp_path / "OPCOUNT.json",
        tool.interpreter(),
        counts["opcodes_per_op"],
        counts["calls_per_op"] / 1.0105,
        counts["layers"],
    )
    assert tool.main(["--check", path]) == 1
    rose = [line for line in capsys.readouterr().out.splitlines() if "ROSE" in line]
    assert len(rose) == 1 and rose[0].startswith("ingest calls_per_op")


def test_each_layer_names_its_ledger_row():
    tool = _tool()
    assert tool.ledger_row("storage.logfile") == "log.force, sim.logdisk"
    assert tool.ledger_row("storage.logical_log") == "log"
    assert tool.ledger_row("sstable.bloom_store") == "sstable"  # its package
    assert tool.ledger_row(tool.HARNESS) == "ycsb.driver"
    assert tool.ledger_row("records") == "(caller's row)"
    text = tool.report("ingest", 0, 20, tool.measure("ingest", 20, 0)[1])
    assert "storage.logical_log" in text and "-> log" in text

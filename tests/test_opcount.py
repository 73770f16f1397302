"""tools/opcount.py: counts of the open-loop workload as well as the
closed ones, and the committed-baseline check (`--check`, `--record`)."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "opcount.py")


def test_opcount_counts_the_first_arrivals_of_sessions_ol(capsys):
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--workload", "sessions_ol", "--ops", "40"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("sessions_ol seed=0 ops=40: ")
    opcodes = float(line.split(": ")[1].split(" opcodes/op")[0])
    assert opcodes > 0


def _tool():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(path, python, opcodes, calls):
    path.write_text(json.dumps({
        "python": python,
        "seed": 0,
        "workloads": {
            "ingest": {"ops": 20, "opcodes_per_op": opcodes, "calls_per_op": calls}
        },
    }))
    return str(path)


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
    _ran, opcodes, calls = tool.measure("ingest", 20, 0)
    # Recorded 2 % below what the code counts: a 2 % rise.
    path = _baseline(
        tmp_path / "OPCOUNT.json", tool.interpreter(), opcodes / 1.02, calls
    )
    assert tool.main(["--check", path]) == 1
    out = capsys.readouterr().out
    assert "ingest opcodes_per_op" in out and "ROSE" in out
    assert "ingest calls_per_op" in out


def test_check_reports_a_version_mismatch_instead_of_failing(tmp_path, capsys):
    tool = _tool()
    path = _baseline(tmp_path / "OPCOUNT.json", "2.7", 1.0, 1.0)
    assert tool.main(["--check", path]) == 0
    assert "version mismatch" in capsys.readouterr().out

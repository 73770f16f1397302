"""tools/opcount.py counts the open-loop workload as well as the closed ones."""

import importlib.util
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

"""The generated API reference stays fresh and complete."""

import importlib.util
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def test_api_docs_are_fresh():
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_generator_covers_headline_api():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", os.path.join(TOOLS, "gen_api_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = module.generate()
    for symbol in (
        "`BLSM`",
        "`PartitionedBLSM`",
        "`BTreeEngine`",
        "`CompactionEngine`",
        "`LevelDBPolicy`",
        "`LevelDBScheduler`",
        "`SpringGearScheduler`",
        "`run_workload(",
        "`run_open_loop(",
        "`BloomFilter`",
        "`run_model_workload(",
    ):
        assert symbol in text, symbol


def test_public_surface_is_documented():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", os.path.join(TOOLS, "gen_api_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = module.generate()
    assert "*(undocumented)*" not in text

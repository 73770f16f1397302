"""The generated API reference stays fresh and complete."""

import importlib.util
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def generated() -> str:
    """What ``tools/gen_api_docs.py`` would write, generated in-process."""
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", os.path.join(TOOLS, "gen_api_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate()


def test_api_docs_are_fresh():
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_generator_covers_headline_api():
    text = generated()
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
        "`LogicalRecord`",
        "`WindowedTimeline`",
        "`record_in(",
        "`running_on(",
    ):
        assert symbol in text, symbol


def test_properties_built_on_c_getters_show_their_own_doc():
    text = generated()
    # LogicalRecord's fields are properties over operator.itemgetter.
    assert "- `seqno` *(property)* — The write's sequence number." in text
    assert "itemgetter(item" not in text


def test_public_surface_is_documented():
    assert "*(undocumented)*" not in generated()

"""Every ``BLSMOptions`` field earns its place, and each option is
validated once, where it is used."""

import dataclasses
import os

import pytest

from repro.core import BLSM, BLSMOptions
from repro.faults import FaultPlan

ROOT = os.path.join(os.path.dirname(__file__), "..")

#: Field -> a non-test file that sets it: a ``benchmarks/`` ablation, a
#: scenario row, the engine registry (what the CLI reaches) or ``bench/``.
#: A knob nothing varies becomes a constant at its consumer instead.
CALLERS = {
    "c0_bytes": "src/repro/engines.py",
    "page_size": "benchmarks/test_ablation_page_size.py",
    "buffer_pool_pages": "src/repro/engines.py",
    "disk_model": "src/repro/engines.py",
    "log_disk_model": "src/repro/engines.py",
    "data_stripes": "src/repro/engines.py",
    "eviction_policy": "benchmarks/test_ablation_buffer.py",
    "durability": "src/repro/engines.py",
    "with_bloom_filters": "benchmarks/test_ablation_bloom.py",
    "snowshovel": "benchmarks/test_ablation_snowshovel.py",
    "compression_ratio": "benchmarks/test_ablation_compression.py",
    "persist_bloom_filters": "benchmarks/test_ablation_bloom_persistence.py",
    "scheduler": "benchmarks/test_ablation_schedulers.py",
    "observability": "bench/workloads.py",
    "fault_plan": "src/repro/engines.py",
    "compaction_policy": "src/repro/scenarios.py",
    "level_ratio": "src/repro/scenarios.py",
    "level_base_bytes": "benchmarks/conftest.py",
    "tier_fanout": "src/repro/scenarios.py",
}

def test_every_option_names_the_caller_that_varies_it():
    names = {field.name for field in dataclasses.fields(BLSMOptions)}
    assert set(CALLERS) == names
    for name, path in CALLERS.items():
        with open(os.path.join(ROOT, path)) as handle:
            assert f"{name}=" in handle.read(), (name, path)


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"data_stripes": 2, "fault_plan": FaultPlan()}, "striped data device"),
        ({"data_stripes": 0}, "data_stripes must be >= 1"),
    ],
)
def test_the_device_layout_is_checked_where_the_devices_are_built(
    overrides, reason
):
    options = BLSMOptions(**overrides)  # the options do not repeat it
    with pytest.raises(ValueError, match=reason):
        BLSM(options)

"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run with ``python -m pytest bench/tests -q``; everything runs at the
``--scale 0.02`` smoke size and finishes in well under a minute.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import run as bench_run  # noqa: E402
from bench import spec  # noqa: E402

SMOKE = 0.02


@pytest.fixture(scope="session")
def untraced() -> dict[str, dict]:
    """One smoke-size end-to-end report per workload."""
    return {
        name: bench_run.run_workload(name, 0, 10.0, SMOKE, trace=False)
        for name in spec.WORKLOADS
    }


@pytest.fixture(scope="session")
def traced() -> dict[str, dict]:
    """One smoke-size traced report per workload (no span files)."""
    return {
        name: bench_run.run_workload(
            name, 0, 10.0, SMOKE, trace=True, write_spans=False
        )
        for name in spec.WORKLOADS
    }

"""Shared configuration for the benchmark harness.

Every benchmark reproduces one table or figure from the paper.  The
paper's testbed (Section 5.1) is scaled down by a constant factor while
preserving the *ratios* that drive LSM behaviour:

* data : RAM is 5 : 1 (the paper's 50 GB over 10 GB);
* bLSM dedicates 80 % of its memory to C0 (8 GB of 10 GB) and the rest
  to page cache;
* LevelDB keeps its small write buffer and gets the whole budget as
  cache; InnoDB gets the whole budget as buffer pool with 16 KB pages;
* values are 1000 bytes, keys tens of bytes (YCSB defaults).

Absolute throughput numbers differ from the paper (simulated devices,
virtual time); the experiment index in EXPERIMENTS.md records both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.baselines import BLSMEngine, BTreeEngine, CompactionEngine
from repro.core import BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.sim import DiskModel

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class Scale:
    """One consistent scaling of the paper's setup."""

    value_bytes: int = 1000
    record_count: int = 3000          # ~3.1 MB of data ("50 GB")
    memory_bytes: int = 640 * KIB     # ~data/5 ("10 GB of RAM")

    @property
    def c0_bytes(self) -> int:
        return int(self.memory_bytes * 0.8)  # "8 GB for C0"

    @property
    def cache_bytes(self) -> int:
        return self.memory_bytes - self.c0_bytes  # "2 GB buffer cache"

    def cache_pages(self, page_size: int) -> int:
        return max(2, self.cache_bytes // page_size)


_SCALES = {
    # data:RAM stays 5:1 throughout; larger scales shrink per-op noise
    # at the cost of wall-clock time.
    "small": Scale(record_count=1500, memory_bytes=320 * KIB),
    "default": Scale(),
    "large": Scale(record_count=12000, memory_bytes=2560 * KIB),
}

SCALE = _SCALES[os.environ.get("REPRO_BENCH_SCALE", "default")]


def make_blsm(
    disk: DiskModel | None = None,
    scale: Scale = SCALE,
    **option_overrides,
) -> BLSMEngine:
    options = dict(
        c0_bytes=scale.c0_bytes,
        buffer_pool_pages=scale.cache_pages(4096),
        disk_model=disk if disk is not None else DiskModel.hdd(),
    )
    options.update(option_overrides)
    return BLSMEngine(BLSMOptions(**options))


def make_btree(
    disk: DiskModel | None = None, scale: Scale = SCALE
) -> BTreeEngine:
    # InnoDB: 16 KB pages (Section 5.3), the whole budget as buffer pool.
    return BTreeEngine(
        disk_model=disk if disk is not None else DiskModel.hdd(),
        page_size=16 * KIB,
        buffer_pool_pages=max(2, scale.memory_bytes // (16 * KIB)),
    )


def make_leveldb(
    disk: DiskModel | None = None, scale: Scale = SCALE
) -> CompactionEngine:
    # LevelDB: "extremely small C0 components" (Section 5.1); cache gets
    # the full memory budget.  Files are a quarter of L1 (the policy's
    # rule), L1 the whole memory budget.
    return CompactionEngine(
        BLSMOptions(
            c0_bytes=scale.memory_bytes // 10,
            level_base_bytes=scale.memory_bytes,
            buffer_pool_pages=max(2, scale.memory_bytes // 4096),
            disk_model=disk if disk is not None else DiskModel.hdd(),
            **LEVELDB_OPTIONS,
        )
    )


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(name: str, lines: list[str]) -> None:
    """Print a reproduced table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                  iterations=1)

    return runner

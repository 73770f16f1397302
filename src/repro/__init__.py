"""repro: a reproduction of *bLSM: A General Purpose Log Structured
Merge Tree* (Sears & Ramakrishnan, SIGMOD 2012).

The package provides:

* :class:`BLSM` / :class:`BLSMOptions` — the paper's three-level
  Bloom-filtered LSM-Tree with the spring-and-gear merge scheduler;
* :class:`BTreeEngine` and ``build_engine("leveldb")`` — the
  evaluation's update-in-place and leveled-LSM baselines (LevelDB is a
  compaction policy of the same tree kernel);
* :class:`ShardedEngine` — a hash/range-partitioned router over
  independent per-shard trees with a batched API (``multi_get`` /
  ``apply_batch``) whose cost is the max of per-shard device time;
* :func:`build_engine` / :data:`ENGINE_NAMES` — the engine registry
  every entry point (CLI, bench, crash harness) builds through;
* :mod:`repro.ycsb` — a YCSB-style workload generator and runner;
* :mod:`repro.sim` — the simulated devices and virtual clock everything
  runs on;
* :mod:`repro.obs` — the observability core every engine reports
  through (metrics registry, trace recorder, engine runtime);
* :mod:`repro.faults` — seeded fault injection (faulty devices, retry
  policies, crash-point enumeration) for recovery testing;
* :mod:`repro.analysis` — the paper's analytical models (read fanout,
  Figure 2, Table 2).

Quickstart::

    from repro import BLSM, BLSMOptions

    db = BLSM(BLSMOptions(c0_bytes=4 << 20))
    db.put(b"key", b"value")
    assert db.get(b"key") == b"value"
    db.close()
"""

from repro.baselines import (
    BitCaskEngine,
    BLSMEngine,
    BTreeEngine,
    KVEngine,
    PartitionedBLSMEngine,
    WriteBatch,
)
from repro.core import BLSM, BLSMOptions, PartitionedBLSM
from repro.engines import ENGINE_NAMES, EngineConfig, build_engine
from repro.faults import FaultPlan, FaultRule, FaultyDisk, RetryPolicy
from repro.obs import EngineRuntime, MetricsRegistry, TraceRecorder
from repro.shard import HashPartitioner, RangePartitioner, ShardedEngine
from repro.sim import DiskModel, IOStats, SimDisk, VirtualClock
from repro.storage import DurabilityMode, EvictionPolicy, Stasis

__version__ = "1.0.0"

__all__ = [
    "BitCaskEngine",
    "BLSM",
    "BLSMEngine",
    "BLSMOptions",
    "BTreeEngine",
    "DiskModel",
    "DurabilityMode",
    "ENGINE_NAMES",
    "EngineConfig",
    "EngineRuntime",
    "EvictionPolicy",
    "FaultPlan",
    "FaultRule",
    "FaultyDisk",
    "HashPartitioner",
    "IOStats",
    "KVEngine",
    "MetricsRegistry",
    "PartitionedBLSM",
    "PartitionedBLSMEngine",
    "RangePartitioner",
    "RetryPolicy",
    "ShardedEngine",
    "SimDisk",
    "Stasis",
    "TraceRecorder",
    "VirtualClock",
    "WriteBatch",
    "build_engine",
]

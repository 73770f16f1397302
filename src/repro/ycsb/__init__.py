"""YCSB re-implementation (Section 5.1).

The paper generates load with the Yahoo! Cloud Serving Benchmark [11]:
synthetic workloads over a keyspace with uniform or Zipfian request
distributions and configurable operation mixes.  This package provides
the same generator surface — request distributions (including YCSB's
scrambled Zipfian with its default parameters), the standard A-F workload
mixes, and a closed-loop runner that measures latency and throughput in
virtual time.
"""

from repro.ycsb.distributions import (
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.ycsb.generator import Operation, OperationGenerator, OpKind
from repro.ycsb.metrics import (
    BatchStats,
    BucketedHistogram,
    LatencyStats,
    Timeseries,
)
from repro.ycsb.open_loop import OpenLoopResult, run_open_loop
from repro.ycsb.sessions import (
    SessionsResult,
    commit_queues,
    logical_logs,
    run_sessions,
)
from repro.ycsb.runner import (
    RunResult,
    execute_batch,
    load_phase,
    run_batched_workload,
    run_workload,
)
from repro.ycsb.trace import (
    read_trace,
    record_workload_trace,
    replay_trace,
    write_trace,
)
from repro.ycsb.stability import (
    STABILITY_MATRIX,
    StabilityConfig,
    StabilityResult,
    run_stability,
    run_stability_matrix,
    stability_metrics,
    stability_scenario,
)
from repro.ycsb.workload import WorkloadSpec, standard_workload

__all__ = [
    "BatchStats",
    "BucketedHistogram",
    "LatencyStats",
    "LatestChooser",
    "OpenLoopResult",
    "Operation",
    "OperationGenerator",
    "OpKind",
    "RunResult",
    "run_open_loop",
    "run_sessions",
    "run_stability",
    "run_stability_matrix",
    "SessionsResult",
    "ScrambledZipfianChooser",
    "STABILITY_MATRIX",
    "StabilityConfig",
    "StabilityResult",
    "commit_queues",
    "logical_logs",
    "stability_metrics",
    "stability_scenario",
    "Timeseries",
    "UniformChooser",
    "WorkloadSpec",
    "ZipfianChooser",
    "execute_batch",
    "load_phase",
    "read_trace",
    "record_workload_trace",
    "replay_trace",
    "run_batched_workload",
    "run_workload",
    "standard_workload",
    "write_trace",
]

"""YCSB re-implementation (Section 5.1).

The paper generates load with the Yahoo! Cloud Serving Benchmark [11]:
synthetic workloads over a keyspace with uniform or Zipfian request
distributions and configurable operation mixes.  This package provides
the same generator surface — request distributions (including YCSB's
scrambled Zipfian with its default parameters), the standard A-F workload
mixes, a closed-loop runner that measures latency and throughput in
virtual time, and an open-loop runner (:func:`run_sessions`) whose
sessions arrive at an offered rate.
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
    LatencyStats,
    Timeseries,
)
from repro.ycsb.sessions import (
    SessionsResult,
    run_sessions,
    substrates,
)
from repro.ycsb.runner import (
    RunResult,
    execute_batch,
    load_phase,
    run_batched_workload,
    run_workload,
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
    "LatencyStats",
    "LatestChooser",
    "Operation",
    "OperationGenerator",
    "OpKind",
    "RunResult",
    "run_sessions",
    "run_stability",
    "run_stability_matrix",
    "SessionsResult",
    "ScrambledZipfianChooser",
    "STABILITY_MATRIX",
    "StabilityConfig",
    "StabilityResult",
    "stability_metrics",
    "stability_scenario",
    "substrates",
    "Timeseries",
    "UniformChooser",
    "WorkloadSpec",
    "ZipfianChooser",
    "execute_batch",
    "load_phase",
    "run_batched_workload",
    "run_workload",
    "standard_workload",
]

"""Conformance testing: model checks, traces, differential fuzzing.

The package has two generations of machinery that share one philosophy —
a plain Python ``dict`` is the specification, and every engine must
agree with it:

* the **model checkers** (:mod:`repro.testing.model`, the original
  ``repro.testing`` module): seeded workload runners, full-state
  verification, and structural deep checks of the bLSM tree, the
  partitioned tree, the policy trees and the sharded engine;
* the **trace harness** (PR 5): a serializable operation-trace format
  (:mod:`~repro.testing.trace`), a differential executor replaying one
  trace through every registry engine against a dictionary oracle
  (:mod:`~repro.testing.differential`), a fault-schedule composer
  overlaying crash points onto traces
  (:mod:`~repro.testing.composer`), a greedy trace minimizer filing
  shrunk repros into ``tests/corpus/`` (:mod:`~repro.testing.minimize`),
  and the ``repro fuzz`` orchestration loop
  (:mod:`~repro.testing.harness`).

Everything re-exports here, so ``from repro.testing import ...`` keeps
working for the old names and picks up the new surface.
"""

from repro.testing.broken import BrokenEngine
from repro.testing.composer import (
    enumerate_trace_crash_points,
    run_crash_trace,
    trace_access_count,
)
from repro.testing.differential import (
    Divergence,
    FuzzConfig,
    TraceOracle,
    default_fuzz_configs,
    run_differential,
    run_trace,
)
from repro.testing.harness import (
    FAULT_MODES,
    FuzzReport,
    format_fuzz_report,
    fuzz,
    replay_corpus,
    replay_corpus_file,
)
from repro.testing.minimize import minimize_trace, write_corpus_file
from repro.testing.model import (
    check_blsm_invariants,
    check_compaction_invariants,
    check_partitioned_invariants,
    check_sharded_invariants,
    crash_recover_check,
    run_model_workload,
    verify_against_model,
)
from repro.testing.trace import (
    OP_KINDS,
    TRACE_FORMAT,
    Trace,
    TraceOp,
    generate_trace,
)

__all__ = [
    "BrokenEngine",
    "Divergence",
    "FAULT_MODES",
    "FuzzConfig",
    "FuzzReport",
    "OP_KINDS",
    "TRACE_FORMAT",
    "Trace",
    "TraceOp",
    "TraceOracle",
    "check_blsm_invariants",
    "check_compaction_invariants",
    "check_partitioned_invariants",
    "check_sharded_invariants",
    "crash_recover_check",
    "default_fuzz_configs",
    "enumerate_trace_crash_points",
    "format_fuzz_report",
    "fuzz",
    "generate_trace",
    "minimize_trace",
    "replay_corpus",
    "replay_corpus_file",
    "run_crash_trace",
    "run_differential",
    "run_model_workload",
    "run_trace",
    "trace_access_count",
    "verify_against_model",
    "write_corpus_file",
]

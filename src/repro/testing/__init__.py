"""Conformance testing: model checks, traces, differential fuzzing.

One philosophy runs through the package: a plain Python ``dict`` is the
specification, and every engine must agree with it.

* :mod:`~repro.testing.trace` — a serializable operation-trace format
  and its seeded generator (:func:`generate_trace`);
* :mod:`~repro.testing.differential` — :func:`run_trace` replays one
  trace through any engine against a dictionary oracle: it checks every
  read, compares the final full scan, and runs the structural deep
  check of the engine's layout (:mod:`~repro.testing.model`: the bLSM
  tree, the partitioned tree, the policy trees, the sharded engine);
  :func:`run_differential` does that for every registry engine;
* :mod:`~repro.testing.composer` — overlays crash points onto traces
  (:func:`run_crash_trace`), which is how crash recovery is checked;
* :mod:`~repro.testing.minimize` — a greedy trace minimizer filing
  shrunk repros into ``tests/corpus/``;
* :mod:`~repro.testing.harness` — the ``repro fuzz`` loop.
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
    "run_trace",
    "trace_access_count",
    "write_corpus_file",
]

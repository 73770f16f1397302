"""Command-line interface: run, trace, fuzz and crash-test the engines.

Ten subcommands: ``workload`` and ``trace`` run one engine; ``fuzz``
(the differential oracle plus end-of-run invariant checks) and
``crashtest`` check correctness; the five rows of
:data:`repro.scenarios.SCENARIOS` are the gated benches; ``report``
validates their reports.  The paper's analytical tables
(Figure 2, Table 2) are written by ``benchmarks/`` into
``benchmarks/results/``, and ``examples/engine_comparison.py`` runs one
workload on every engine.

Examples::

    python -m repro workload --engine blsm --workload a \\
        --records 2000 --ops 5000 --disk hdd
    python -m repro workload --engine leveldb --read 0.2 --blind-write 0.8
    python -m repro fuzz --ops 2000 --seed 0
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Sequence

from repro.baselines import KVEngine
from repro.engines import CRASH_ENGINE_NAMES, DISK_MODELS, ENGINE_NAMES
from repro.errors import UsageError
from repro.faults.crashpoints import PROTOCOL_SWEEPS
from repro.obs.report import (
    ReportError,
    evaluate_gates,
    format_gate_table,
    gates_passed,
    load_report,
    new_report,
)
from repro.scenarios import SCENARIOS, Scenario, engine_from
from repro.ycsb import (
    OpKind,
    WorkloadSpec,
    load_phase,
    run_workload,
    standard_workload,
)

ENGINES = ENGINE_NAMES  # single source of truth: repro.engines
DISKS = tuple(DISK_MODELS)
PARTITIONERS = ("hash", "range")


def _progress(args: argparse.Namespace):
    """``print``, or ``None`` under ``--quiet``."""
    return None if args.quiet else (lambda line: print(line, flush=True))


def _fault_plan(args: argparse.Namespace):
    """A FaultPlan from the ``--fault-*`` flags, or ``None``."""
    transient, latency = args.fault_transient, args.fault_latency
    if transient <= 0.0 and latency <= 0.0:
        return None
    from repro.faults import FaultPlan, FaultRule

    plan = FaultPlan(seed=args.fault_seed)
    if transient > 0.0:
        plan.add(FaultRule(kind="transient", probability=transient))
    if latency > 0.0:
        plan.add(
            FaultRule(kind="latency", extra_seconds=latency, probability=0.01)
        )
    return plan


def _engine(args: argparse.Namespace, spec: WorkloadSpec) -> KVEngine:
    """Build ``--engine`` from the `_engine_flags`."""
    return engine_from(
        args.engine, vars(args), spec, fault_plan=_fault_plan(args)
    )


def _workload_spec(args: argparse.Namespace) -> WorkloadSpec:
    if args.workload is not None:
        return standard_workload(
            args.workload, args.records, args.ops, value_bytes=args.value_bytes
        )
    proportions = {
        "read_proportion": args.read,
        "update_proportion": args.update,
        "blind_write_proportion": args.blind_write,
        "insert_proportion": args.insert,
        "scan_proportion": args.scan,
    }
    total = sum(proportions.values())
    if total <= 0:
        proportions = {"read_proportion": 0.5, "blind_write_proportion": 0.5}
        total = 1.0
    normalized = {name: p / total for name, p in proportions.items()}
    return WorkloadSpec(
        record_count=args.records,
        operation_count=args.ops,
        request_distribution=args.distribution,
        value_bytes=args.value_bytes,
        **normalized,
    )


def _cmd_workload(args: argparse.Namespace) -> int:
    spec = _workload_spec(args)
    engine = _engine(args, spec)
    print(
        f"engine={engine.name} disk={args.disk} records={spec.record_count} "
        f"ops={spec.operation_count} dist={spec.request_distribution}"
    )
    load = load_phase(engine, spec, seed=args.seed)
    print(f"load : {load.throughput:12,.0f} ops/s (virtual)")
    if spec.operation_count > 0:
        window = args.timeseries if args.timeseries > 0 else None
        result = run_workload(
            engine, spec, seed=args.seed + 1, timeseries_window=window
        )
        if result.timeseries is not None:
            from repro.ycsb.ascii_plot import render_timeseries

            for line in render_timeseries(
                "ops/s", result.timeseries.throughputs()
            ):
                print(line)
        latency = result.all_latencies()
        print(
            f"run  : {result.throughput:12,.0f} ops/s   "
            f"p50 {latency.percentile(50) * 1e6:8.1f} us   "
            f"p99 {latency.percentile(99) * 1e6:8.1f} us   "
            f"max {latency.max * 1e3:8.2f} ms"
        )
        for kind in OpKind:
            stats = result.latencies.get(kind)
            if stats is None:
                continue
            print(
                f"  {kind.value:12s} n={stats.count:<8d} "
                f"mean {stats.mean * 1e6:8.1f} us  "
                f"p99 {stats.percentile(99) * 1e6:8.1f} us"
            )
    summary = engine.io_summary()
    print(
        f"io   : seeks={summary['data_seeks']} "
        f"read={summary['data_bytes_read'] / 1e6:.1f}MB "
        f"written={summary['data_bytes_written'] / 1e6:.1f}MB"
    )
    engine.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload and dump or summarize its observability trace."""
    from repro.obs import (
        format_buffer_summary,
        format_device_summary,
        format_fault_summary,
        format_layout_summary,
        format_memory_summary,
        format_shard_summary,
        format_summary,
        format_version_summary,
    )

    spec = _workload_spec(args)
    engine = _engine(args, spec)
    load_phase(engine, spec, seed=args.seed)
    if spec.operation_count > 0:
        run_workload(engine, spec, seed=args.seed + 1)
    runtime = engine.runtime
    if runtime is None:
        print(f"{engine.name} exposes no observability runtime")
        engine.close()
        return 1
    events = runtime.trace.events()
    if args.dump:
        if args.last > 0:
            events = events[-args.last:]
        for event in events:
            print(event.format())
    else:
        for lines in (
            format_summary(events),
            format_device_summary(runtime),
            format_shard_summary(engine),
            format_layout_summary(engine),
            format_memory_summary(engine),
            format_buffer_summary(runtime.metrics),
            format_version_summary(runtime.metrics),
            format_fault_summary(runtime.metrics),
        ):
            for line in lines:
                print(line)
        if runtime.trace.dropped:
            print(
                f"(ring dropped {runtime.trace.dropped} older events; "
                f"capacity {runtime.trace.capacity})"
            )
    engine.close()
    return 0


def _cmd_crashtest(args: argparse.Namespace) -> int:
    """Crash-point enumeration: crash at every Nth I/O boundary, recover,
    verify acknowledged writes (ALICE-style, docs/fault-injection.md)."""
    from repro.faults.crashpoints import enumerate_crash_points, format_report

    report = enumerate_crash_points(
        args.engine, args.ops, args.every, args.seed, _progress(args)
    )
    print(format_report(report))
    return 0 if report.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    """The one bench runner: every row of ``repro.scenarios.SCENARIOS``.

    Parameters from the flags -> ``run(**params)`` -> report (``config``
    is the parameters, ``metrics`` the return value) -> table -> ``--json``
    -> the row's gates -> exit status.
    """
    row: Scenario = args.scenario
    params = {
        name: getattr(args, name, default)  # a fixed parameter has no flag
        for name, default in row.defaults().items()
    }
    print(
        f"{row.bench}: "
        + " ".join(f"{name}={value}" for name, value in params.items())
    )
    extra = {"progress": _progress(args)} if row.takes_progress else {}
    report = new_report(row.bench, params, row.run(**params, **extra))
    for line in row.table(report):
        print(line)
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    bounds = {key: getattr(args, "assert_" + key) for key in row.asserts}
    results = evaluate_gates(report, row.gates(bounds))
    for line in format_gate_table(results):
        print(line)
    return 0 if gates_passed(results) else 1


def _add_scenario(sub: Any, row: Scenario) -> None:
    """One subparser per row: flags from the function's signature."""
    parser = sub.add_parser(
        row.command,
        help=row.summary,
        description=inspect.getdoc(row.run),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    choices = row.choices()
    for name, default in row.defaults().items():
        if name in row.fixed:
            continue
        parser.add_argument(
            "--" + row.spellings.get(name, name).replace("_", "-"),
            dest=name,
            type=type(default),
            default=default,
            choices=choices.get(name),
        )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the BenchReport envelope to PATH",
    )
    for key, gate in row.asserts.items():
        flag = "--assert-" + key.replace("_", "-")
        if isinstance(gate, tuple):
            parser.add_argument(flag, action="store_true")
        else:
            parser.add_argument(
                flag, type=float, default=0.0, metavar="BOUND",
                help=f"fail unless {gate.name} {gate.op} BOUND",
            )
    if row.takes_progress:
        parser.add_argument(
            "--quiet", action="store_true", help="suppress progress lines"
        )
    parser.set_defaults(fn=_cmd_scenario, scenario=row)


def _cmd_report(args: argparse.Namespace) -> int:
    """Validate bench-report envelopes.

    ``repro report PATH...`` loads each file and reports whether it
    parses.  A committed report is checked against the code by
    regenerating it and diffing the file, not here.
    """
    import json as _json

    status = 0
    for path in args.paths:
        try:
            report = load_report(path)
        except (ReportError, OSError, _json.JSONDecodeError) as error:
            # Name the file once: load_report's errors start with the
            # path, and an OSError's text ends with it.
            if isinstance(error, OSError):
                reason = error.strerror or type(error).__name__
            else:
                reason = str(error).removeprefix(f"{path}: ")
            print(f"{path}: INVALID — {reason}")
            status = 1
            continue
        print(
            f"{path}: OK — bench={report.bench}, "
            f"{len(report.metrics)} metric block(s)"
        )
    return status


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential conformance fuzzing (docs/correctness.md).

    Generates seeded traces and replays each through every registry
    engine — plus a multi-shard config and a fault-plan config — against
    the dictionary oracle; ``--faults crash``/``all`` add the crash-
    schedule composition sweep.  Any divergence is minimized and filed
    into ``--corpus-out``; ``--corpus DIR`` instead replays an existing
    corpus as a regression suite.
    """
    from repro.testing import format_fuzz_report, fuzz, replay_corpus

    progress = _progress(args)
    if args.corpus is not None:
        results = replay_corpus(args.corpus, progress=progress)
        failed = 0
        for path, failures in results:
            status = "OK" if not failures else f"{len(failures)} FAILURES"
            print(f"  {path}: {status}")
            for failure in failures:
                print(f"    {failure}")
            failed += bool(failures)
        print(
            f"corpus: {len(results)} trace(s), "
            f"{'all OK' if failed == 0 else f'{failed} failing'}"
        )
        return 0 if failed == 0 else 1
    engines = args.engines.split(",") if args.engines else None
    report = fuzz(
        rounds=args.rounds,
        ops=args.ops,
        seed=args.seed,
        engines=engines,
        shards=args.shards,
        faults=args.faults,
        crash_every=args.crash_every,
        crash_ops=args.crash_ops,
        budget_seconds=args.budget_seconds or None,
        corpus_dir=args.corpus_out,
        progress=progress,
    )
    print(format_fuzz_report(report))
    return 0 if report.ok else 1


def _workload_flags(parser: argparse.ArgumentParser) -> None:
    """What `_workload_spec` reads, plus the generator seed."""
    parser.add_argument(
        "--workload", choices=list("abcdef"), default=None,
        help="a standard YCSB mix (overrides the proportion flags)",
    )
    parser.add_argument("--records", type=int, default=2000)
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--value-bytes", type=int, default=1000)
    for mix in ("read", "update", "blind-write", "insert", "scan"):
        parser.add_argument(f"--{mix}", type=float, default=0.0)
    parser.add_argument(
        "--distribution",
        choices=("uniform", "zipfian", "zipfian_clustered", "latest"),
        default="uniform",
    )
    parser.add_argument("--seed", type=int, default=0)


def _engine_flags(parser: argparse.ArgumentParser) -> None:
    """``--engine`` and the flags `_engine` builds it from (some are
    only accepted by the engines their help names)."""
    parser.add_argument("--disk", choices=DISKS, default="hdd")
    parser.add_argument("--c0-bytes", type=int, default=512 * 1024)
    parser.add_argument("--cache-pages", type=int, default=64)
    parser.add_argument(
        "--durability", choices=("sync", "async", "none"), default="async",
        help="logical-log mode for the LSM engines",
    )
    parser.add_argument(
        "--compression", type=float, default=1.0, metavar="RATIO",
        help="on-disk bytes per logical byte for the bLSM engines",
    )
    parser.add_argument(
        "--scheduler", choices=("naive", "gear", "spring_gear"),
        default="spring_gear",
        help="merge scheduler for the bLSM engines",
    )
    parser.add_argument("--engine", choices=ENGINES, default="blsm")
    parser.add_argument(
        "--log-device", choices=DISKS, default=None,
        help="put the logs on a separate device of this model (the "
        "paper's dedicated log disk; bLSM engines only)",
    )
    parser.add_argument(
        "--data-stripes", type=int, default=1, metavar="N",
        help="stripe the data device over N RAID-0 members "
        "(bLSM engines only)",
    )
    parser.add_argument(
        "--background-merges", action="store_true",
        help="run merge I/O on background timelines instead of charging "
        "it to the writer (bLSM engines only)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="shard count for the sharded engine",
    )
    parser.add_argument(
        "--partitioner", choices=PARTITIONERS, default="hash",
        help="key placement policy for the sharded engine (range seeds "
        "its boundaries from the workload's load keys)",
    )
    parser.add_argument(
        "--fault-transient", type=float, default=0.0, metavar="PROB",
        help="inject retryable I/O errors with this per-access probability "
        "(bLSM engines; absorbed by retry-with-backoff)",
    )
    parser.add_argument(
        "--fault-latency", type=float, default=0.0, metavar="SECONDS",
        help="inject a latency spike of SECONDS on ~1%% of accesses",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the injected-fault schedule",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="bLSM (SIGMOD 2012) reproduction: run workloads on "
        "simulated devices, fuzz and crash-test the engines, and run the "
        "gated benchmark scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workload = sub.add_parser("workload", help="run a YCSB-style workload")
    _workload_flags(workload)
    _engine_flags(workload)
    workload.add_argument(
        "--timeseries", type=float, default=0.0, metavar="WINDOW_S",
        help="print a windowed throughput sparkline (window in seconds)",
    )
    workload.set_defaults(fn=_cmd_workload)

    trace = sub.add_parser(
        "trace",
        help="run a workload and summarize its observability event stream",
    )
    _workload_flags(trace)
    _engine_flags(trace)
    trace.add_argument(
        "--dump", action="store_true",
        help="print raw events instead of the summary",
    )
    trace.add_argument(
        "--last", type=int, default=0, metavar="N",
        help="with --dump, print only the newest N events",
    )
    trace.set_defaults(fn=_cmd_trace)

    for row in SCENARIOS:
        _add_scenario(sub, row)

    crashtest = sub.add_parser(
        "crashtest",
        help="crash at every Nth I/O boundary, recover, verify durability",
    )
    crashtest.add_argument(
        "--engine",
        choices=CRASH_ENGINE_NAMES + tuple(PROTOCOL_SWEEPS),
        default="blsm",
        help="a crash-capable tree, or a protocol: group-commit (kills "
        "inside leader forces), migration (every journal force and step "
        "boundary of a live split + merge)",
    )
    crashtest.add_argument(
        "--ops", type=int, default=500,
        help="scripted workload length (puts and deletes; batches for "
        "group-commit)",
    )
    crashtest.add_argument(
        "--every", type=int, default=1,
        help="test every Nth device-access boundary",
    )
    crashtest.add_argument("--seed", type=int, default=0)
    crashtest.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    crashtest.set_defaults(fn=_cmd_crashtest)

    report = sub.add_parser(
        "report",
        help="validate bench-report files",
    )
    report.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="report files to validate",
    )
    report.set_defaults(fn=_cmd_report)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing: one trace, every engine",
    )
    fuzz.add_argument(
        "--ops", type=int, default=2000,
        help="operations per generated trace",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--rounds", type=int, default=1,
        help="traces to generate (seed, seed+1, ...)",
    )
    fuzz.add_argument(
        "--budget-seconds", type=float, default=0.0, metavar="S",
        help="stop starting new rounds after S wall-clock seconds",
    )
    fuzz.add_argument(
        "--engines", default=None, metavar="A,B,...",
        help="comma-separated registry engines (default: all)",
    )
    fuzz.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shard count for the sharded config (min 2)",
    )
    fuzz.add_argument(
        "--faults", choices=("none", "plans", "crash", "all"),
        default="plans",
        help="fault schedule: plans = semantically-invisible fault-plan "
        "config in the matrix; crash = crash-composition sweep; all = both",
    )
    fuzz.add_argument(
        "--crash-every", type=int, default=40, metavar="N",
        help="crash-sweep boundary stride (with --faults crash/all)",
    )
    fuzz.add_argument(
        "--crash-ops", type=int, default=120, metavar="N",
        help="companion crash-trace length (with --faults crash/all)",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="replay every trace in DIR as a regression suite "
        "instead of fuzzing",
    )
    fuzz.add_argument(
        "--corpus-out", default=None, metavar="DIR",
        help="file minimized repros for any divergence into DIR",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    fuzz.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as error:  # flag misuse exits, not tracebacks
        raise SystemExit(str(error)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

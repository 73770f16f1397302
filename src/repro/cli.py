"""Command-line interface: run workloads and print the paper's tables.

Examples::

    python -m repro workload --engine blsm --workload a \\
        --records 2000 --ops 5000 --disk hdd
    python -m repro workload --engine leveldb --read 0.2 --blind-write 0.8
    python -m repro amplification           # Figure 2 + write amp by cause
    python -m repro cache-table             # Table 2 (Appendix A)
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Sequence

from repro.analysis import cache_gb_table, figure2_series
from repro.analysis.five_minute import STANDARD_DEVICES
from repro.baselines import KVEngine
from repro.engines import (
    CRASH_ENGINE_NAMES,
    DISK_MODELS,
    ENGINE_NAMES,
    build_engine,
)
from repro.errors import UsageError
from repro.faults.crashpoints import PROTOCOL_SWEEPS
from repro.obs.report import (
    ReportError,
    compare_reports,
    comparison_passed,
    evaluate_gates,
    format_comparison,
    format_gate_table,
    gates_passed,
    load_report,
    new_report,
)
from repro.scenarios import SCENARIOS, Scenario, engine_from, scenario_for
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
    transient = getattr(args, "fault_transient", 0.0)
    latency = getattr(args, "fault_latency", 0.0)
    if transient <= 0.0 and latency <= 0.0:
        return None
    from repro.faults import FaultPlan, FaultRule

    seed = getattr(args, "fault_seed", 0)
    plan = FaultPlan(seed=seed)
    if transient > 0.0:
        plan.add(FaultRule(kind="transient", probability=transient))
    if latency > 0.0:
        plan.add(
            FaultRule(kind="latency", extra_seconds=latency, probability=0.01)
        )
    return plan


def _engine(
    name: str,
    args: argparse.Namespace,
    spec: WorkloadSpec | None = None,
) -> KVEngine:
    """Build ``name`` from whichever engine flags this subparser has."""
    return engine_from(name, vars(args), spec, fault_plan=_fault_plan(args))


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
    engine = _engine(args.engine, args, spec)
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


def _cmd_compare(args: argparse.Namespace) -> int:
    """Run the same workload against every engine, print a table."""
    spec = _workload_spec(args)
    print(
        f"{'engine':12s}{'load ops/s':>12s}{'run ops/s':>12s}"
        f"{'p99 (ms)':>10s}{'max (ms)':>10s}{'seeks':>8s}"
    )
    for name in ENGINES:
        engine = _engine(name, args)
        load = load_phase(engine, spec, seed=args.seed)
        seeks_before = engine.seeks()
        if spec.operation_count > 0:
            result = run_workload(engine, spec, seed=args.seed + 1)
            latency = result.all_latencies()
            run_ops = result.throughput
            p99 = latency.percentile(99) * 1e3
            worst = latency.max * 1e3
        else:
            run_ops = p99 = worst = 0.0
        print(
            f"{engine.name:12s}{load.throughput:12,.0f}{run_ops:12,.0f}"
            f"{p99:10.2f}{worst:10.2f}{engine.seeks() - seeks_before:8d}"
        )
        engine.close()
    return 0


def _cmd_amplification(args: argparse.Namespace) -> int:
    series = figure2_series(max_ratio=args.max_ratio, points_per_unit=1)
    labels = list(series)
    print(f"{'data/RAM':>9s}" + "".join(f"{label:>8s}" for label in labels))
    for i in range(len(series["bloom"])):
        ratio = series["bloom"][i][0]
        row = f"{ratio:9.0f}"
        for label in labels:
            row += f"{series[label][i][1]:8.2f}"
        print(row)
    # The write side, measured: where a load's device bytes come from.
    import random

    from repro.obs import format_write_amplification

    records, value = 4000, bytes(1000)
    engine = build_engine("blsm", c0_bytes=256 * 1024, cache_pages=64)
    keys = [b"user%012d" % i for i in range(records)]
    random.Random(0).shuffle(keys)
    for key in keys:
        engine.put(key, value)
    engine.tree.drain()
    print(
        f"write amplification of a {records} x {len(value)} B load "
        f"(blsm, C0 256 KiB), by cause:"
    )
    user_bytes = sum(len(key) + len(value) for key in keys)
    for line in format_write_amplification(engine, user_bytes):
        print(line)
    engine.close()
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.ycsb.trace import record_workload_trace

    spec = _workload_spec(args)
    with open(args.output, "w") as handle:
        count = record_workload_trace(spec, handle, seed=args.seed)
    print(f"recorded {count} operations to {args.output}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.ycsb.trace import replay_trace

    engine = _engine(args.engine, args)
    with open(args.trace) as handle:
        operations, stats = replay_trace(engine, handle)
    elapsed = engine.clock.now
    throughput = operations / elapsed if elapsed > 0 else 0.0
    print(
        f"replayed {operations} ops on {engine.name} in "
        f"{elapsed * 1e3:.1f} ms (virtual) -> {throughput:,.0f} ops/s"
    )
    print(
        f"latency p50 {stats.percentile(50) * 1e6:.1f} us  "
        f"p99 {stats.percentile(99) * 1e6:.1f} us  "
        f"max {stats.max * 1e3:.2f} ms"
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
    engine = _engine(args.engine, args, spec)
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
    """Bench-report toolbox: validate envelopes, diff against baselines.

    ``repro report PATH...`` loads each file and reports whether it
    parses.
    ``repro report --compare BASELINE CURRENT`` is the CI perf gate:
    it derives the bench's default comparison rules and fails on
    throughput or tail-latency drift beyond ``--tolerance``.
    """
    import json as _json

    if args.compare:
        base_path, cur_path = args.compare
        baseline = load_report(base_path)
        current = load_report(cur_path)
        row = scenario_for(baseline.bench)
        rules = row.rules(baseline, args.tolerance) if row else []
        if not rules:
            raise SystemExit(
                f"no default comparison rules for bench {baseline.bench!r}"
            )
        print(
            f"perf gate: {cur_path} vs baseline {base_path} "
            f"(bench={baseline.bench}, tolerance {args.tolerance:.0%})"
        )
        rows = compare_reports(baseline, current, rules)
        for line in format_comparison(rows):
            print(line)
        return 0 if comparison_passed(rows) else 1
    if not args.paths:
        raise SystemExit(
            "repro report: give PATHs to validate, or "
            "--compare BASELINE CURRENT"
        )
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


def _cmd_cache_table(args: argparse.Namespace) -> int:
    print(
        f"{'Access Frequency':18s}"
        + "".join(f"{device.name:>12s}" for device in STANDARD_DEVICES)
    )
    for label, cells in cache_gb_table():
        row = f"{label:18s}"
        for cell in cells:
            row += f"{'-':>12s}" if cell is None else f"{cell:12.3f}"
        print(row)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Model-check every engine and verify tree invariants.

    A fast release gate: drives each engine with the same random
    operation stream against a dictionary model, deep-checks the bLSM
    trees' structural invariants, and round-trips a crash/recover.
    """
    from repro.core import BLSM, BLSMOptions
    from repro.storage import DurabilityMode
    from repro.testing import (
        check_blsm_invariants,
        crash_recover_check,
        run_model_workload,
        verify_against_model,
    )

    failures = 0
    for name in ENGINES:
        engine = build_engine(name, c0_bytes=16 * 1024, cache_pages=16)
        try:
            model = run_model_workload(
                engine, operations=args.operations, seed=args.seed
            )
            verify_against_model(engine, model)
            if hasattr(engine, "tree") and isinstance(engine.tree, BLSM):
                check_blsm_invariants(engine.tree)
            print(f"  {engine.name:10s} OK  ({len(model)} live keys)")
        except AssertionError as error:
            failures += 1
            print(f"  {engine.name:10s} FAILED: {error}")
    options = BLSMOptions(
        c0_bytes=16 * 1024, durability=DurabilityMode.SYNC
    )
    tree = BLSM(options)
    model = {}
    for i in range(args.operations // 4):
        key = b"key%05d" % (i % 400)
        tree.put(key, b"v%d" % i)
        model[key] = b"v%d" % i
    try:
        crash_recover_check(tree, model)
        print(f"  {'recovery':10s} OK  (crash + replay verified)")
    except AssertionError as error:
        failures += 1
        print(f"  {'recovery':10s} FAILED: {error}")
    print("selfcheck:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


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
    """The `_engine` flags `build_engine` takes for every engine."""
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


def _one_engine_flags(parser: argparse.ArgumentParser) -> None:
    """``--engine``, and the `_engine` flags only some engines accept."""
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
        "simulated devices and print the paper's analytical tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workload = sub.add_parser("workload", help="run a YCSB-style workload")
    _workload_flags(workload)
    _engine_flags(workload)
    _one_engine_flags(workload)
    workload.add_argument(
        "--timeseries", type=float, default=0.0, metavar="WINDOW_S",
        help="print a windowed throughput sparkline (window in seconds)",
    )
    workload.set_defaults(fn=_cmd_workload)

    compare = sub.add_parser(
        "compare", help="run one workload against every engine"
    )
    _workload_flags(compare)
    _engine_flags(compare)
    compare.set_defaults(fn=_cmd_compare)

    amplification = sub.add_parser(
        "amplification",
        help="print Figure 2's read-amplification series and a measured "
        "load's write amplification by cause",
    )
    amplification.add_argument("--max-ratio", type=int, default=16)
    amplification.set_defaults(fn=_cmd_amplification)

    cache = sub.add_parser(
        "cache-table", help="print Table 2 (Appendix A's cache sizing)"
    )
    cache.set_defaults(fn=_cmd_cache_table)

    record = sub.add_parser(
        "record", help="write a workload's operation stream to a trace file"
    )
    _workload_flags(record)
    record.add_argument("--output", required=True, help="trace file path")
    record.set_defaults(fn=_cmd_record)

    replay = sub.add_parser(
        "replay", help="replay a recorded trace against an engine"
    )
    replay.add_argument("--trace", required=True, help="trace file path")
    replay.add_argument("--engine", choices=ENGINES, default="blsm")
    replay.add_argument("--disk", choices=DISKS, default="hdd")
    replay.add_argument("--c0-bytes", type=int, default=512 * 1024)
    replay.add_argument("--cache-pages", type=int, default=64)
    replay.set_defaults(fn=_cmd_replay)

    trace = sub.add_parser(
        "trace",
        help="run a workload and summarize its observability event stream",
    )
    _workload_flags(trace)
    _engine_flags(trace)
    _one_engine_flags(trace)
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

    selfcheck = sub.add_parser(
        "selfcheck", help="model-check every engine (fast release gate)"
    )
    selfcheck.add_argument("--operations", type=int, default=3000)
    selfcheck.add_argument("--seed", type=int, default=0)
    selfcheck.set_defaults(fn=_cmd_selfcheck)

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
        help="validate bench-report files; diff a run against a baseline",
    )
    report.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="report files to validate",
    )
    report.add_argument(
        "--compare", nargs=2, metavar=("BASELINE", "CURRENT"),
        help="perf gate: fail on regressions of CURRENT vs BASELINE",
    )
    report.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRACTION",
        help="allowed relative drift per metric (default 0.25)",
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

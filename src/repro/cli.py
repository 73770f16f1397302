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
import sys
from typing import Sequence

from repro.analysis import cache_gb_table, figure2_series
from repro.analysis.five_minute import STANDARD_DEVICES
from repro.baselines import KVEngine
from repro.engines import (
    CRASH_ENGINE_NAMES,
    ENGINE_NAMES,
    EngineConfig,
    build_engine,
)
from repro.obs.report import (
    CompareRule,
    Gate,
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
from repro.sim import DiskModel
from repro.ycsb import (
    OpKind,
    WorkloadSpec,
    load_phase,
    run_batched_workload,
    run_workload,
    standard_workload,
)

ENGINES = ENGINE_NAMES  # single source of truth: repro.engines
DISKS = ("hdd", "ssd", "single-hdd")
PARTITIONERS = ("hash", "range")


def _disk(name: str) -> DiskModel:
    if name == "hdd":
        return DiskModel.hdd()
    if name == "ssd":
        return DiskModel.ssd()
    return DiskModel.single_hdd()


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
    disk: DiskModel,
    c0_bytes: int,
    cache_pages: int,
    durability: str = "async",
    compression: float = 1.0,
    scheduler: str = "spring_gear",
    fault_plan=None,
    log_disk: DiskModel | None = None,
    data_stripes: int = 1,
    background_merges: bool = False,
    shards: int = 4,
    partitioner: str = "hash",
    partitioner_sample: tuple[bytes, ...] | None = None,
) -> KVEngine:
    """Build an engine via the registry; flag misuse exits, not tracebacks."""
    config = EngineConfig(
        disk=disk,
        c0_bytes=c0_bytes,
        cache_pages=cache_pages,
        durability=durability,
        compression=compression,
        scheduler=scheduler,
        fault_plan=fault_plan,
        log_disk=log_disk,
        data_stripes=data_stripes,
        background_merges=background_merges,
        shards=shards,
        partitioner=partitioner,
        partitioner_sample=partitioner_sample,
    )
    try:
        return build_engine(name, config)
    except ValueError as error:
        raise SystemExit(str(error)) from None


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


def _placement(args: argparse.Namespace) -> dict:
    """Device-placement kwargs from --log-device/--data-stripes/... flags."""
    log_device = getattr(args, "log_device", None)
    return {
        "log_disk": _disk(log_device) if log_device else None,
        "data_stripes": getattr(args, "data_stripes", 1),
        "background_merges": getattr(args, "background_merges", False),
    }


def _sharding(args: argparse.Namespace, spec: WorkloadSpec) -> dict:
    """Sharding kwargs from --shards/--partitioner flags.

    A range partitioner needs balanced boundaries, so it is seeded with
    the workload's own load keys (the sample every deployment would
    have: the keys it is about to load).
    """
    partitioner = getattr(args, "partitioner", "hash")
    sample: tuple[bytes, ...] | None = None
    if partitioner == "range":
        from repro.ycsb.generator import OperationGenerator

        sample = tuple(OperationGenerator(spec).load_keys())
    return {
        "shards": getattr(args, "shards", 4),
        "partitioner": partitioner,
        "partitioner_sample": sample,
    }


def _cmd_workload(args: argparse.Namespace) -> int:
    disk = _disk(args.disk)
    spec = _workload_spec(args)
    engine = _engine(
        args.engine, disk, args.c0_bytes, args.cache_pages,
        durability=args.durability, compression=args.compression,
        scheduler=args.scheduler, fault_plan=_fault_plan(args),
        **_placement(args), **_sharding(args, spec),
    )
    print(
        f"engine={engine.name} disk={disk.name} records={spec.record_count} "
        f"ops={spec.operation_count} dist={spec.request_distribution}"
    )
    load = load_phase(engine, spec, seed=args.seed)
    print(f"load : {load.throughput:12,.0f} ops/s (virtual)")
    if spec.operation_count > 0:
        window = (
            args.timeseries if getattr(args, "timeseries", 0) > 0 else None
        )
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
    disk = _disk(args.disk)
    spec = _workload_spec(args)
    print(
        f"{'engine':12s}{'load ops/s':>12s}{'run ops/s':>12s}"
        f"{'p99 (ms)':>10s}{'max (ms)':>10s}{'seeks':>8s}"
    )
    for name in ENGINES:
        engine = _engine(name, disk, args.c0_bytes, args.cache_pages)
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
    engine = _engine("blsm", _disk("hdd"), c0_bytes=256 * 1024, cache_pages=64)
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

    disk = _disk(args.disk)
    engine = _engine(args.engine, disk, args.c0_bytes, args.cache_pages)
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

    disk = _disk(args.disk)
    spec = _workload_spec(args)
    engine = _engine(
        args.engine, disk, args.c0_bytes, args.cache_pages,
        durability=args.durability, compression=args.compression,
        scheduler=args.scheduler, fault_plan=_fault_plan(args),
        **_placement(args), **_sharding(args, spec),
    )
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
        for line in format_summary(events):
            print(line)
        for line in format_device_summary(runtime):
            print(line)
        for line in format_shard_summary(engine):
            print(line)
        for line in format_layout_summary(engine):
            print(line)
        for line in format_memory_summary(engine):
            print(line)
        for line in format_buffer_summary(runtime.metrics):
            print(line)
        for line in format_version_summary(runtime.metrics):
            print(line)
        for line in format_fault_summary(runtime.metrics):
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

    progress = None if args.quiet else (lambda line: print(line, flush=True))
    report = enumerate_crash_points(
        engine=args.engine,
        ops=args.ops,
        every=args.every,
        seed=args.seed,
        progress=progress,
    )
    print(format_report(report))
    return 0 if report.ok else 1


def _cmd_migrate(args: argparse.Namespace) -> int:
    """Online shard migration: crash matrix and live-traffic benchmark.

    With ``--crash-matrix``: enumerate a crash at every migration
    journal-force and step boundary, recover, verify acked writes plus
    fleet invariants, resume to completion (the robustness gate).  With
    ``--bench``: run the live split-under-Zipfian-traffic benchmark and
    report p99 timelines against a quiescent baseline; ``--json`` writes
    the machine-readable result (the shared
    :class:`~repro.obs.report.BenchReport` envelope) and
    ``--assert-p99-ratio`` turns it into the bounded-stall CI gate.
    Neither flag runs both.
    """
    run_matrix = args.crash_matrix or not args.bench
    run_bench = args.bench or not args.crash_matrix
    progress = None if args.quiet else (lambda line: print(line, flush=True))
    status = 0
    if run_matrix:
        from repro.faults.crashpoints import (
            enumerate_migration_crash_points,
            format_migration_report,
        )

        report = enumerate_migration_crash_points(
            ops=args.ops, seed=args.seed, progress=progress
        )
        print(format_migration_report(report))
        if not report.ok:
            status = 1
    if run_bench:
        from repro.shard.migration import live_migration_bench

        result = live_migration_bench(
            records=args.records,
            batches=args.batches,
            shards=args.shards,
            seed=args.seed,
        )
        migration = result["migrating"]["migration"]
        print(
            f"live migration bench: {args.records} records, "
            f"{args.batches} batches, {args.shards} shards"
        )
        print(
            f"  quiescent p99 (read/write): "
            f"{result['quiescent']['read_p99'] * 1e3:.3f} / "
            f"{result['quiescent']['write_p99'] * 1e3:.3f} ms"
        )
        print(
            f"  migrating p99 (read/write): "
            f"{result['migrating']['read_p99'] * 1e3:.3f} / "
            f"{result['migrating']['write_p99'] * 1e3:.3f} ms"
        )
        print(
            f"  migrations completed: {migration['completed']} "
            f"({migration['copied_keys']} keys copied, "
            f"{migration['retired_keys']} retired, "
            f"{migration['steps']} steps, "
            f"{migration['deferred_steps']} deferred)"
        )
        print(f"  p99 ratio (migrating/quiescent): {result['p99_ratio']:.2f}")
        config_keys = (
            "records", "batches", "batch", "value_bytes", "shards", "seed",
            "hot_fraction",
        )
        config = {
            key: result[key] for key in config_keys if key in result
        }
        report = new_report(
            "live-migration",
            config,
            {
                key: value
                for key, value in result.items()
                if key != "bench" and key not in config
            },
        )
        if args.json:
            report.save(args.json)
            print(f"  wrote {args.json}")
        gates = [
            Gate(
                "migrations completed under traffic",
                "migrating.migration.completed", ">=", 1.0,
            ),
        ]
        if args.assert_p99_ratio:
            gates.append(
                Gate(
                    "migrating/quiescent p99 ratio",
                    "p99_ratio", "<=", args.assert_p99_ratio, unit="x",
                )
            )
        gate_results = evaluate_gates(report, gates)
        for line in format_gate_table(gate_results):
            print(f"  {line}")
        if not gates_passed(gate_results):
            status = 1
    return status


def _cmd_sessions(args: argparse.Namespace) -> int:
    """Multi-session open-loop bench: group commit vs per-write syncing.

    Drives N concurrent sessions against one engine in ``group``
    durability (writes commit through the leader-based queue with
    ``wait=False``), then the identical offered load against ``sync``
    (every write forces).  Reports queueing-delay percentiles and their
    timeline, ack latency, forces per commit/op, and the group-size
    histogram.  ``--json`` writes the machine-readable result (the
    shared :class:`~repro.obs.report.BenchReport` envelope);
    ``--assert-force-ratio`` / ``--assert-forces-per-commit`` /
    ``--assert-queueing-p99`` compile into declarative
    :class:`~repro.obs.report.Gate` rows and turn the run into the CI
    gate.
    """
    from repro.ycsb import run_sessions

    disk = _disk(args.disk)
    spec = WorkloadSpec(
        record_count=args.records,
        operation_count=args.ops,
        read_proportion=args.read,
        blind_write_proportion=1.0 - args.read,
        request_distribution="uniform",
        value_bytes=args.value_bytes,
    )

    def measure(durability: str):
        engine = _engine(
            args.engine,
            disk,
            args.c0_bytes,
            args.cache_pages,
            durability=durability,
            **_sharding(args, spec),
        )
        load_phase(engine, spec, seed=args.seed)
        result = run_sessions(
            engine,
            spec,
            args.rate,
            sessions=args.sessions,
            arrival=args.arrival,
            seed=args.seed + 1,
        )
        engine.close()
        return result

    group = measure("group")
    sync = measure("sync")
    ratio = (
        sync.forces_per_op / group.forces_per_op
        if group.forces_per_op > 0
        else float("inf")
    )
    print(
        f"sessions bench: engine={args.engine} sessions={args.sessions} "
        f"rate={args.rate:g}/s arrival={args.arrival} ops={args.ops} "
        f"({args.read:.0%} reads) disk={disk.name}"
    )
    for label, r in (("group", group), ("sync ", sync)):
        print(
            f"  {label}: forces/commit={r.forces_per_commit:.3f} "
            f"forces/op={r.forces_per_op:.3f} "
            f"queue p99={r.queueing.percentile(99.0) * 1e3:.3f} ms "
            f"p99.9={r.queueing.percentile(99.9) * 1e3:.3f} ms "
            f"ack p99={r.ack_latency.percentile(99.0) * 1e3:.3f} ms "
            f"achieved={r.achieved_rate:,.0f}/s"
        )
    sizes = sorted(group.group_sizes.items())
    histogram = " ".join(f"{size}x{count}" for size, count in sizes)
    print(f"  group sizes: {histogram}")
    print(f"  force ratio (sync/group): {ratio:.2f}x")
    report = new_report(
        "sessions-group-commit",
        {
            "engine": args.engine,
            "disk": disk.name,
            "records": args.records,
            "ops": args.ops,
            "value_bytes": args.value_bytes,
            "read_proportion": args.read,
            "sessions": args.sessions,
            "offered_rate": args.rate,
            "arrival": args.arrival,
            "c0_bytes": args.c0_bytes,
            "cache_pages": args.cache_pages,
            "seed": args.seed,
        },
        {
            "group": group.summary(),
            "sync": sync.summary(),
            "force_ratio": ratio,
        },
    )
    if args.json:
        report.save(args.json)
        print(f"  wrote {args.json}")
    gates: list[Gate] = []
    if args.assert_force_ratio > 0:
        gates.append(
            Gate(
                "force ratio (sync/group)",
                "force_ratio", ">=", args.assert_force_ratio, unit="x",
            )
        )
    if args.assert_forces_per_commit > 0:
        gates.append(
            Gate(
                "group forces/commit",
                "group.forces_per_commit", "<=",
                args.assert_forces_per_commit,
            )
        )
    if args.assert_queueing_p99 > 0:
        gates.append(
            Gate(
                "group queueing p99",
                "group.queueing.p99", "<=", args.assert_queueing_p99,
                scale=1e3, unit="ms",
            )
        )
    gate_results = evaluate_gates(report, gates)
    for line in format_gate_table(gate_results):
        print(f"  {line}")
    return 0 if gates_passed(gate_results) else 1


def _bench_policies(args: argparse.Namespace) -> int:
    """The compaction design-space sweep (``repro bench --policy ...``).

    Runs the identical workload — ``--records`` distinct loads then
    ``--ops`` uniform point reads — through every requested policy and
    reports, per policy: load and read throughput, measured write
    amplification (device bytes written per logical byte ingested) and
    read seeks per operation.  Bloom filters are disabled so the
    leveled-vs-tiered read-cost difference is visible rather than
    hidden behind filters; each tree drains its merge debt before the
    read phase so policies are compared at equal, settled data volume.

    ``--json`` writes the machine-readable result (the shared
    :class:`~repro.obs.report.BenchReport` envelope, policies keyed by
    name); ``--assert-crossover`` turns the sweep into the CI gate that
    tiered write-amp is strictly below leveled's while leveled reads
    strictly fewer seeks; and ``--assert-blsm3-floor`` guards the paper
    tree's read throughput against regressions.
    """
    import random

    from repro.analysis.amplification import policy_table
    from repro.baselines.compaction_engine import CompactionEngine
    from repro.core.compaction.policy import POLICY_NAMES
    from repro.core.options import BLSMOptions

    disk = _disk(args.disk)
    names = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    keys = [b"user%08d" % i for i in range(args.records)]
    value = bytes(args.value_bytes)
    rows: list[dict] = []
    for policy in names:
        options = BLSMOptions(
            compaction_policy=policy,
            c0_bytes=args.c0_bytes,
            buffer_pool_pages=args.cache_pages,
            disk_model=disk,
            with_bloom_filters=False,
            level_ratio=args.level_ratio,
            tier_fanout=args.fanout,
            seed=args.seed,
        )
        engine = CompactionEngine(options)
        rng = random.Random(args.seed)
        load_order = list(keys)
        rng.shuffle(load_order)
        logical_bytes = 0
        started = engine.clock.now
        for key in load_order:
            engine.put(key, value)
            logical_bytes += len(key) + len(value)
        engine.tree.drain()  # settle merge debt: equal data volume
        load_seconds = engine.clock.now - started
        loaded = engine.io_summary()
        write_amp = loaded["data_bytes_written"] / max(1, logical_bytes)
        read_started = engine.clock.now
        seeks_before = engine.seeks()
        for _ in range(args.ops):
            assert engine.get(rng.choice(keys)) is not None
        read_seconds = engine.clock.now - read_started
        read_seeks = (engine.seeks() - seeks_before) / max(1, args.ops)
        view = engine.level_view()
        rows.append(
            {
                "policy": policy,
                "load_ops_per_s": args.records / max(1e-9, load_seconds),
                "read_ops_per_s": args.ops / max(1e-9, read_seconds),
                "write_amp": write_amp,
                "read_seeks_per_op": read_seeks,
                "logical_bytes": logical_bytes,
                "data_bytes_written": int(loaded["data_bytes_written"]),
                "level_runs": [len(level) for level in view["levels"]],
            }
        )
        engine.close()
    print(
        f"policy sweep: records={args.records} ops={args.ops} "
        f"value={args.value_bytes}B c0={args.c0_bytes}B disk={disk.name} "
        f"ratio={args.level_ratio:g} fanout={args.fanout} (bloom off)"
    )
    header = (
        f"{'policy':14s}{'load ops/s':>12s}{'read ops/s':>12s}"
        f"{'write-amp':>11s}{'seeks/op':>10s}  runs/level"
    )
    print(header)
    for row in rows:
        print(
            f"{row['policy']:14s}{row['load_ops_per_s']:12,.0f}"
            f"{row['read_ops_per_s']:12,.0f}{row['write_amp']:11.2f}"
            f"{row['read_seeks_per_op']:10.2f}  {row['level_runs']}"
        )
    by_policy = {row["policy"]: row for row in rows}
    checks: dict[str, bool] = {}
    if "leveled" in by_policy and "tiered" in by_policy:
        checks["tiered_write_amp_below_leveled"] = (
            by_policy["tiered"]["write_amp"]
            < by_policy["leveled"]["write_amp"]
        )
        checks["leveled_seeks_below_tiered"] = (
            by_policy["leveled"]["read_seeks_per_op"]
            < by_policy["tiered"]["read_seeks_per_op"]
        )
        checks["equal_data_volume"] = (
            by_policy["leveled"]["logical_bytes"]
            == by_policy["tiered"]["logical_bytes"]
        )
    report = new_report(
        "compaction-policy-sweep",
        {
            "records": args.records,
            "ops": args.ops,
            "value_bytes": args.value_bytes,
            "c0_bytes": args.c0_bytes,
            "cache_pages": args.cache_pages,
            "disk": disk.name,
            "level_ratio": args.level_ratio,
            "fanout": args.fanout,
            "seed": args.seed,
            "with_bloom_filters": False,
        },
        {
            "policies": by_policy,
            "crossover": checks,
            "analytic": policy_table(
                names, ratio=args.level_ratio, fanout=args.fanout
            ),
        },
    )
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    gates: list[Gate] = []
    failed = False
    if args.assert_crossover:
        if not checks:
            print("FAIL: crossover assertion needs leveled and tiered runs")
            failed = True
        for name in checks:
            gates.append(
                Gate(f"crossover: {name}", f"crossover.{name}", "==", 1.0)
            )
    if args.assert_blsm3_floor > 0:
        gates.append(
            Gate(
                "blsm3 read throughput floor",
                "policies.blsm3.read_ops_per_s", ">=",
                args.assert_blsm3_floor, unit="ops/s",
            )
        )
    gate_results = evaluate_gates(report, gates)
    for line in format_gate_table(gate_results):
        print(line)
    return 1 if failed or not gates_passed(gate_results) else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Batched uniform-read throughput (YCSB C issued in client batches).

    Measures the tentpole claim of the sharded engine: a batch fans out
    across shards and costs the *max* of the per-shard device time, so N
    shards approach N-fold throughput on uniform reads.  With
    ``--baseline`` it runs the identical workload on a single-tree
    engine and prints the speedup; ``--assert-speedup X`` turns the run
    into a pass/fail gate (CI uses ``--baseline-stripes`` to give the
    baseline the same total device budget as the shards).
    """
    if args.policy != "none":
        return _bench_policies(args)
    disk = _disk(args.disk)
    spec = WorkloadSpec(
        record_count=args.records,
        operation_count=args.ops,
        read_proportion=1.0,
        request_distribution="uniform",
        value_bytes=args.value_bytes,
    )

    def measure(name: str, **overrides):
        engine = _engine(
            name, disk, args.c0_bytes, args.cache_pages, **overrides
        )
        load_phase(engine, spec, seed=args.seed, batch_size=args.batch)
        result = run_batched_workload(
            engine, spec, seed=args.seed + 1, batch_size=args.batch
        )
        return engine, result

    engine, result = measure(args.engine, **_sharding(args, spec))
    print(
        f"engine={engine.name} disk={disk.name} records={spec.record_count} "
        f"ops={spec.operation_count} batch={args.batch}"
    )
    batch = result.batch
    detail = ""
    if batch is not None and batch.batches > 0:
        detail = (
            f"   {batch.batches} batches, "
            f"mean batch {batch.latency.mean * 1e3:.2f} ms"
        )
    print(f"run  : {result.throughput:12,.0f} ops/s{detail}")
    from repro.obs import format_shard_summary

    for line in format_shard_summary(engine):
        print(line)
    engine.close()
    config = {
        "engine": args.engine,
        "disk": disk.name,
        "records": args.records,
        "ops": args.ops,
        "value_bytes": args.value_bytes,
        "batch": args.batch,
        "shards": args.shards,
        "partitioner": args.partitioner,
        "c0_bytes": args.c0_bytes,
        "cache_pages": args.cache_pages,
        "baseline": args.baseline,
        "baseline_stripes": args.baseline_stripes,
        "seed": args.seed,
    }
    metrics: dict = {
        "run": {
            "engine": engine.name,
            "throughput": result.throughput,
            "batch": batch.summary() if batch is not None else {},
        },
    }
    if args.baseline != "none":
        base_engine, base_result = measure(
            args.baseline, data_stripes=args.baseline_stripes
        )
        if base_result.throughput > 0:
            speedup = result.throughput / base_result.throughput
        else:
            speedup = float("inf")
        print(
            f"base : {base_result.throughput:12,.0f} ops/s "
            f"({base_engine.name}, {args.baseline_stripes} data device(s))"
        )
        print(f"speedup: {speedup:.2f}x")
        base_engine.close()
        metrics["baseline"] = {
            "engine": base_engine.name,
            "throughput": base_result.throughput,
            "stripes": args.baseline_stripes,
        }
        metrics["speedup"] = speedup
    report = new_report("sharded-batch-read", config, metrics)
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    gates: list[Gate] = []
    if args.assert_speedup > 0:
        gates.append(
            Gate(
                "sharded speedup over baseline",
                "speedup", ">=", args.assert_speedup, unit="x",
            )
        )
    gate_results = evaluate_gates(report, gates)
    for line in format_gate_table(gate_results):
        print(line)
    return 0 if gates_passed(gate_results) else 1


def _cmd_stability(args: argparse.Namespace) -> int:
    """Performance-stability harness (``repro stability``, BENCH_9).

    Sweeps the scheduler/policy matrix under an extended open-loop
    sessions run, sampling windowed p50/p99/p99.9 write latency,
    queueing delay, commit-queue depth and the stall/backpressure
    counters into per-config time-series (docs/benchmarking.md).
    ``--json`` writes the shared BenchReport envelope (the committed
    ``BENCH_9.json``); ``--assert-bounded`` gates on the paper's
    bounded-latency claim — the spring-and-gear p99.9 write-latency
    ceiling strictly below the unthrottled baseline's.
    """
    from repro.analysis.stability import stability_table
    from repro.ycsb.stability import (
        STABILITY_MATRIX,
        default_scenario,
        run_stability_matrix,
        stability_report,
    )

    if args.configs == "all":
        configs = list(STABILITY_MATRIX.values())
    else:
        names = [name.strip() for name in args.configs.split(",") if name.strip()]
        unknown = [name for name in names if name not in STABILITY_MATRIX]
        if unknown:
            raise SystemExit(
                f"unknown stability config(s) {', '.join(unknown)}; "
                f"expected one of {', '.join(STABILITY_MATRIX)}"
            )
        configs = [STABILITY_MATRIX[name] for name in names]
    print(
        f"stability bench: duration={args.duration_seconds:g}s "
        f"rate={args.rate:g}/s "
        f"sessions={args.sessions} arrival={args.arrival} "
        f"windows={args.windows} configs={','.join(c.name for c in configs)}"
    )
    progress = None if args.quiet else (lambda line: print(line, flush=True))
    scenario = {name: getattr(args, name) for name in default_scenario()}
    results = run_stability_matrix(configs, progress=progress, **scenario)
    report = stability_report(
        results, {"configs": [c.name for c in configs], **scenario}
    )
    print(stability_table(report))
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    gates: list[Gate] = []
    if args.assert_bounded:
        gates.append(
            Gate(
                "bounded write latency (p99.9 ceiling)",
                "bounded_latency.bounded", "==", 1.0,
            )
        )
    if args.assert_ceiling > 0:
        gates.append(
            Gate(
                "spring_gear p99.9 ceiling",
                "configs.spring_gear.write_p999_ceiling", "<=",
                args.assert_ceiling, scale=1e3, unit="ms",
            )
        )
    gate_results = evaluate_gates(report, gates)
    for line in format_gate_table(gate_results):
        print(line)
    return 0 if gates_passed(gate_results) else 1


def _compare_rules(baseline, tolerance: float) -> list[CompareRule]:
    """The default perf-gate rule set for a baseline report's bench."""
    bench = baseline.bench
    if bench == "stability":
        from repro.analysis.stability import stability_compare_rules

        return stability_compare_rules(baseline, tolerance)
    if bench == "compaction-policy-sweep":
        rules: list[CompareRule] = []
        for name in baseline.metrics.get("policies", {}):
            rules.append(
                CompareRule(
                    f"policies.{name}.read_ops_per_s", "higher", tolerance
                )
            )
            rules.append(
                CompareRule(f"policies.{name}.write_amp", "lower", tolerance)
            )
        return rules
    if bench == "sessions-group-commit":
        return [
            CompareRule("force_ratio", "higher", tolerance),
            CompareRule("group.forces_per_commit", "lower", tolerance),
            CompareRule("group.ack_latency.p99", "lower", tolerance),
        ]
    if bench == "live-migration":
        return [CompareRule("p99_ratio", "lower", tolerance)]
    return []


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
        rules = _compare_rules(baseline, args.tolerance)
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
            print(f"{path}: INVALID — {error}")
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
        engine = _engine(name, _disk("hdd"), 16 * 1024, 16)
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

    progress = None if args.quiet else (lambda line: print(line, flush=True))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="bLSM (SIGMOD 2012) reproduction: run workloads on "
        "simulated devices and print the paper's analytical tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workload = sub.add_parser("workload", help="run a YCSB-style workload")
    workload.add_argument("--engine", choices=ENGINES, default="blsm")
    workload.add_argument("--disk", choices=DISKS, default="hdd")
    workload.add_argument(
        "--workload", choices=list("abcdef"), default=None,
        help="a standard YCSB mix (overrides the proportion flags)",
    )
    workload.add_argument("--records", type=int, default=2000)
    workload.add_argument("--ops", type=int, default=2000)
    workload.add_argument("--value-bytes", type=int, default=1000)
    workload.add_argument("--read", type=float, default=0.0)
    workload.add_argument("--update", type=float, default=0.0)
    workload.add_argument("--blind-write", type=float, default=0.0)
    workload.add_argument("--insert", type=float, default=0.0)
    workload.add_argument("--scan", type=float, default=0.0)
    workload.add_argument(
        "--distribution",
        choices=("uniform", "zipfian", "zipfian_clustered", "latest"),
        default="uniform",
    )
    workload.add_argument("--c0-bytes", type=int, default=512 * 1024)
    workload.add_argument("--cache-pages", type=int, default=64)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--durability", choices=("sync", "async", "none"), default="async",
        help="logical-log mode for the LSM engines",
    )
    workload.add_argument(
        "--compression", type=float, default=1.0, metavar="RATIO",
        help="on-disk bytes per logical byte for the bLSM engines",
    )
    workload.add_argument(
        "--timeseries", type=float, default=0.0, metavar="WINDOW_S",
        help="print a windowed throughput sparkline (window in seconds)",
    )
    workload.add_argument(
        "--scheduler", choices=("naive", "gear", "spring_gear"),
        default="spring_gear",
        help="merge scheduler for the bLSM engines",
    )
    workload.add_argument(
        "--log-device", choices=DISKS, default=None, dest="log_device",
        help="put the logs on a separate device of this model (the "
        "paper's dedicated log disk; bLSM engines only)",
    )
    workload.add_argument(
        "--data-stripes", type=int, default=1, metavar="N",
        help="stripe the data device over N RAID-0 members "
        "(bLSM engines only)",
    )
    workload.add_argument(
        "--background-merges", action="store_true",
        help="run merge I/O on background timelines instead of charging "
        "it to the writer (bLSM engines only)",
    )
    workload.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="shard count for the sharded engine",
    )
    workload.add_argument(
        "--partitioner", choices=PARTITIONERS, default="hash",
        help="key placement policy for the sharded engine (range seeds "
        "its boundaries from the workload's load keys)",
    )
    workload.add_argument(
        "--fault-transient", type=float, default=0.0, metavar="PROB",
        help="inject retryable I/O errors with this per-access probability "
        "(bLSM engines; absorbed by retry-with-backoff)",
    )
    workload.add_argument(
        "--fault-latency", type=float, default=0.0, metavar="SECONDS",
        help="inject a latency spike of SECONDS on ~1%% of accesses",
    )
    workload.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the injected-fault schedule",
    )
    workload.set_defaults(fn=_cmd_workload)

    compare = sub.add_parser(
        "compare", help="run one workload against every engine"
    )
    for source in workload._actions:
        if source.dest in ("help", "engine"):
            continue
        compare._add_action(source)
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
    for source in workload._actions:
        if source.dest in ("help", "engine", "disk", "c0_bytes",
                           "cache_pages", "timeseries"):
            continue
        record._add_action(source)
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
    for source in workload._actions:
        if source.dest in ("help", "timeseries"):
            continue
        trace._add_action(source)
    trace.add_argument(
        "--dump", action="store_true",
        help="print raw events instead of the summary",
    )
    trace.add_argument(
        "--last", type=int, default=0, metavar="N",
        help="with --dump, print only the newest N events",
    )
    trace.set_defaults(fn=_cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="batched uniform-read throughput; sharded scale-out gate",
    )
    bench.add_argument("--engine", choices=ENGINES, default="sharded")
    bench.add_argument("--disk", choices=DISKS, default="hdd")
    bench.add_argument("--records", type=int, default=3000)
    bench.add_argument("--ops", type=int, default=2000)
    bench.add_argument("--value-bytes", type=int, default=1000)
    bench.add_argument(
        "--batch", type=int, default=64, metavar="N",
        help="operations per client batch (multi_get/apply_batch size)",
    )
    bench.add_argument("--shards", type=int, default=4, metavar="N")
    bench.add_argument(
        "--partitioner", choices=PARTITIONERS, default="hash"
    )
    bench.add_argument("--c0-bytes", type=int, default=64 * 1024)
    bench.add_argument("--cache-pages", type=int, default=16)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--baseline", choices=ENGINES + ("none",), default="blsm",
        help="single-tree engine to compare against (none skips it)",
    )
    bench.add_argument(
        "--baseline-stripes", type=int, default=1, metavar="N",
        help="data devices for the baseline (match --shards to give it "
        "the same total device budget)",
    )
    bench.add_argument(
        "--assert-speedup", type=float, default=0.0, metavar="X",
        help="exit 1 unless engine throughput >= X times the baseline's",
    )
    bench.add_argument(
        "--policy",
        choices=("none", "blsm3", "leveled", "tiered", "lazy-leveled", "all"),
        default="none",
        help="run the compaction design-space sweep instead of the "
        "sharded gate ('all' sweeps every policy in one invocation)",
    )
    bench.add_argument(
        "--level-ratio", type=float, default=4.0, metavar="T",
        help="geometric level size ratio for the policy sweep",
    )
    bench.add_argument(
        "--fanout", type=int, default=4, metavar="K",
        help="tiered/lazy-leveled runs per level for the policy sweep",
    )
    bench.add_argument(
        "--json", default="", metavar="PATH",
        help="write machine-readable results (BENCH_*.json format)",
    )
    bench.add_argument(
        "--assert-crossover", action="store_true",
        help="exit 1 unless tiered write-amp < leveled and leveled "
        "read seeks < tiered at equal data volume",
    )
    bench.add_argument(
        "--assert-blsm3-floor", type=float, default=0.0, metavar="OPS",
        help="exit 1 if the blsm3 policy's read throughput drops below "
        "OPS ops/s (CI regression guard)",
    )
    bench.set_defaults(fn=_cmd_bench)

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
        "--engine", choices=CRASH_ENGINE_NAMES, default="blsm"
    )
    crashtest.add_argument(
        "--ops", type=int, default=500,
        help="scripted workload length (puts and deletes)",
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

    migrate = sub.add_parser(
        "migrate",
        help="online shard migration: crash matrix and live-traffic bench",
    )
    migrate.add_argument(
        "--crash-matrix", action="store_true",
        help="enumerate crashes at every migration journal/step boundary",
    )
    migrate.add_argument(
        "--bench", action="store_true",
        help="run the live split-under-traffic p99 benchmark",
    )
    migrate.add_argument(
        "--ops", type=int, default=120,
        help="crash-matrix scripted workload length",
    )
    migrate.add_argument(
        "--records", type=int, default=2400,
        help="bench: records loaded before the workload",
    )
    migrate.add_argument(
        "--batches", type=int, default=160,
        help="bench: workload batches (reads and writes alternate)",
    )
    migrate.add_argument(
        "--shards", type=int, default=4, help="bench: fleet size"
    )
    migrate.add_argument("--seed", type=int, default=0)
    migrate.add_argument(
        "--json", default=None, metavar="PATH",
        help="bench: write the machine-readable result to PATH",
    )
    migrate.add_argument(
        "--assert-p99-ratio", type=float, default=0.0, metavar="R",
        help="bench: fail unless migrating p99 <= R x quiescent p99",
    )
    migrate.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    migrate.set_defaults(fn=_cmd_migrate)

    sessions = sub.add_parser(
        "sessions",
        help="multi-session open-loop bench: group commit vs per-write sync",
    )
    sessions.add_argument("--engine", choices=ENGINES, default="blsm")
    sessions.add_argument("--disk", choices=DISKS, default="hdd")
    sessions.add_argument(
        "--sessions", type=int, default=8, help="concurrent open-loop sessions"
    )
    sessions.add_argument(
        "--rate", type=float, default=4000.0,
        help="total offered rate, ops per virtual second",
    )
    sessions.add_argument(
        "--arrival", choices=("uniform", "poisson", "diurnal"),
        default="poisson",
    )
    sessions.add_argument("--records", type=int, default=400)
    sessions.add_argument("--ops", type=int, default=1200)
    sessions.add_argument("--value-bytes", type=int, default=100)
    sessions.add_argument(
        "--read", type=float, default=0.25,
        help="read proportion (rest are blind writes)",
    )
    sessions.add_argument("--c0-bytes", type=int, default=256 * 1024)
    sessions.add_argument("--cache-pages", type=int, default=64)
    sessions.add_argument("--shards", type=int, default=4)
    sessions.add_argument(
        "--partitioner", choices=PARTITIONERS, default="hash"
    )
    sessions.add_argument("--seed", type=int, default=0)
    sessions.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable result to PATH",
    )
    sessions.add_argument(
        "--assert-force-ratio", type=float, default=0.0, metavar="R",
        help="fail unless sync forces/op >= R x group forces/op",
    )
    sessions.add_argument(
        "--assert-forces-per-commit", type=float, default=0.0, metavar="F",
        help="fail if the group run exceeds F forces per commit",
    )
    sessions.add_argument(
        "--assert-queueing-p99", type=float, default=0.0, metavar="SECONDS",
        help="fail if the group run's queueing-delay p99 exceeds SECONDS",
    )
    sessions.set_defaults(fn=_cmd_sessions)

    stability = sub.add_parser(
        "stability",
        help="performance-stability harness: scheduler matrix, p99.9 "
        "ceilings, stall/backpressure timelines",
    )
    stability.add_argument(
        "--configs", default="all", metavar="A,B,...",
        help="stability matrix cells to run (default: all of "
        "spring_gear,gear,unthrottled,leveled,tiered)",
    )
    stability.add_argument(
        "--duration", dest="duration_seconds", type=float, metavar="SECONDS",
        help="offered-load duration in virtual seconds",
    )
    stability.add_argument(
        "--rate", type=float,
        help="total offered rate, ops per virtual second",
    )
    stability.add_argument(
        "--sessions", type=int, help="concurrent open-loop sessions",
    )
    stability.add_argument(
        "--arrival", choices=("uniform", "poisson", "diurnal")
    )
    stability.add_argument("--records", type=int)
    stability.add_argument("--value-bytes", type=int)
    stability.add_argument(
        "--read", dest="read_proportion", type=float,
        help="read proportion (rest are blind writes)",
    )
    stability.add_argument("--c0-bytes", type=int)
    stability.add_argument("--cache-pages", type=int)
    stability.add_argument(
        "--windows", type=int, help="timeline windows across the run",
    )
    stability.add_argument("--seed", type=int)
    stability.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the BenchReport envelope to PATH (BENCH_9.json)",
    )
    stability.add_argument(
        "--assert-bounded", action="store_true",
        help="fail unless the spring_gear p99.9 write-latency ceiling "
        "is strictly below the unthrottled baseline's",
    )
    stability.add_argument(
        "--assert-ceiling", type=float, default=0.0, metavar="SECONDS",
        help="fail if the spring_gear p99.9 ceiling exceeds SECONDS",
    )
    stability.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    from repro.ycsb.stability import default_scenario

    stability.set_defaults(fn=_cmd_stability, **default_scenario())

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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

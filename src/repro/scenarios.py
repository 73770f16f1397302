"""The scenario table: every gated bench is a row of one runner.

A *scenario* is a keyword-only function whose defaults are the scenario
and whose return value is the report's ``metrics`` block.  Everything
else about a bench is derived or declared once, in its :class:`Scenario`
row of :data:`SCENARIOS`:

* the CLI flags are the function's keyword parameters (type from the
  default, ``choices`` from a ``Literal[...]`` annotation) and ``--help``
  prints its docstring;
* the report's ``config`` block is the parameters the function was
  called with — nothing is retyped;
* ``table`` renders the *report* (so a saved report prints the same
  table), ``asserts`` are the ``--assert-*`` gates as
  :class:`~repro.obs.report.Gate` templates, ``rules`` the perf-gate
  :class:`~repro.obs.report.CompareRule` set ``repro report --compare``
  applies to a baseline of this bench.

``repro.cli`` holds the one runner (``_cmd_scenario``) and builds one
subparser per row; docs/benchmarking.md has the recipe for adding one.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Literal, Mapping

from repro.analysis.stability import stability_compare_rules, stability_table
from repro.baselines.interface import KVEngine
from repro.core.compaction.policy import POLICY_NAMES
from repro.engines import DISK_MODELS, ENGINE_NAMES, build_engine
from repro.errors import ReproError, UsageError
from repro.obs.report import BenchReport, CompareRule, Gate, keyword_defaults
from repro.shard.migration import live_migration_bench
from repro.ycsb.runner import load_phase, run_batched_workload
from repro.ycsb.sessions import ARRIVAL_MODES, run_sessions
from repro.ycsb.stability import run_stability, stability_scenario
from repro.ycsb.workload import WorkloadSpec

__all__ = [
    "SCENARIOS",
    "Scenario",
    "engine_from",
    "policy_sweep",
    "scenario_for",
    "sessions_contrast",
    "sharded_batch_read",
]

Disk = Literal[tuple(DISK_MODELS)]
Engine = Literal[ENGINE_NAMES]
Partitioner = Literal["hash", "range"]


@dataclass(frozen=True, repr=False)
class Scenario:
    """One row of the table: a measurement and what the runner adds to it."""

    command: str
    """The ``repro`` subcommand."""
    bench: str
    """The :class:`~repro.obs.report.BenchReport` name."""
    summary: str
    run: Callable[..., dict[str, Any]]
    table: Callable[[BenchReport], Iterable[str]]
    rules: Callable[[BenchReport, float], list[CompareRule]]
    asserts: Mapping[str, Gate | tuple[Gate, ...]] = field(default_factory=dict)
    """``--assert-<key>`` (``_`` spelt ``-``): a :class:`Gate` template
    whose bound a float flag supplies (0 = off), or a tuple of complete
    gates behind a switch."""
    always: tuple[Gate, ...] = ()
    forwards: Callable[..., Any] | None = None
    """The function ``run`` hands its ``**kwargs`` to; its keyword
    defaults are parameters of the scenario too."""
    spellings: Mapping[str, str] = field(default_factory=dict)
    """Parameter name -> flag name, where the flag is not the name."""
    fixed: tuple[str, ...] = ()
    """Parameters that are no flag: the run takes their defaults, and the
    ``config`` block says so."""

    def __repr__(self) -> str:  # no function addresses: docs/api.md prints it
        return f"Scenario({self.command!r}, {self.bench!r})"

    def defaults(self) -> dict[str, Any]:
        """The scenario: every ``int``/``float``/``str`` keyword default."""
        merged = keyword_defaults(self.run)
        if self.forwards is not None:
            merged.update(keyword_defaults(self.forwards))
        return {
            name: default
            for name, default in merged.items()
            if isinstance(default, (int, float, str))
        }

    def choices(self) -> dict[str, tuple[Any, ...]]:
        """Parameters restricted by a ``Literal[...]`` annotation."""
        hints: dict[str, Any] = {}
        for function in (self.forwards, self.run):
            if function is not None:
                hints.update(typing.get_type_hints(function))
        return {
            name: typing.get_args(hint)
            for name, hint in hints.items()
            if typing.get_origin(hint) is Literal
        }

    @property
    def takes_progress(self) -> bool:
        return "progress" in keyword_defaults(self.run)

    def gates(self, bounds: Mapping[str, float]) -> list[Gate]:
        """The gates of one run: ``always`` plus every assert switched on."""
        gates = list(self.always)
        for key, template in self.asserts.items():
            bound = bounds.get(key, 0.0)
            if bound <= 0:
                continue
            if isinstance(template, Gate):
                gates.append(replace(template, bound=float(bound)))
            else:
                gates.extend(template)
        return gates


# ----------------------------------------------------------------------
# sharded-batch-read (repro bench)
# ----------------------------------------------------------------------


#: ``EngineConfig`` fields an entry point may carry under the same name.
_ENGINE_FIELDS = (
    "c0_bytes", "cache_pages", "durability", "compression", "scheduler",
    "data_stripes", "background_merges", "shards", "partitioner",
)


def engine_from(
    name: str,
    flags: Mapping[str, Any],
    spec: WorkloadSpec | None = None,
    **more: Any,
) -> KVEngine:
    """Build ``name`` from whichever engine parameters ``flags`` names.

    ``flags`` is a parser's namespace or a scenario's arguments:
    ``EngineConfig`` fields by name, ``disk`` / ``log_device`` as device
    models, and a ``range`` partitioner's boundaries placed by the load
    keys of ``spec`` (the sample every deployment would have — the keys
    it is about to load).  What ``build_engine`` rejects is a
    :class:`~repro.errors.UsageError`.
    """
    overrides = {key: flags[key] for key in _ENGINE_FIELDS if key in flags}
    overrides["disk"] = DISK_MODELS[flags["disk"]]()
    if flags.get("log_device"):
        overrides["log_disk"] = DISK_MODELS[flags["log_device"]]()
    if spec is not None and flags.get("partitioner") == "range":
        from repro.ycsb.generator import OperationGenerator

        overrides["partitioner_sample"] = tuple(
            OperationGenerator(spec).load_keys()
        )
    try:
        return build_engine(name, **overrides, **more)
    except ValueError as error:
        raise UsageError(str(error)) from None


def sharded_batch_read(
    *,
    engine: Engine = "sharded",
    disk: Disk = "hdd",
    records: int = 3000,
    ops: int = 2000,
    value_bytes: int = 1000,
    batch: int = 64,
    shards: int = 4,
    partitioner: Partitioner = "hash",
    c0_bytes: int = 64 * 1024,
    cache_pages: int = 16,
    baseline: Literal[ENGINE_NAMES + ("none",)] = "blsm",
    baseline_stripes: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Batched uniform-read throughput (YCSB C issued in client batches).

    Measures the tentpole claim of the sharded engine: a batch of
    ``batch`` operations fans out across ``shards`` shards and costs the
    *max* of the per-shard device time, so N shards approach N-fold
    throughput on uniform reads.  Unless ``baseline`` is ``none`` the
    identical workload then runs on that single-tree engine, its data
    device striped over ``baseline_stripes`` members (match ``shards``
    to give it the same total device budget), and ``speedup`` is the
    ratio; ``--assert-speedup X`` gates on it.  ``progress`` receives
    the per-shard load-balance rows.
    """
    spec = WorkloadSpec(
        record_count=records,
        operation_count=ops,
        read_proportion=1.0,
        request_distribution="uniform",
        value_bytes=value_bytes,
    )
    flags = dict(
        disk=disk, c0_bytes=c0_bytes, cache_pages=cache_pages, shards=shards,
        partitioner=partitioner,
    )

    def measure(name: str, **more: Any):
        built = engine_from(name, flags, spec, **more)
        load_phase(built, spec, seed=seed, batch_size=batch)
        result = run_batched_workload(
            built, spec, seed=seed + 1, batch_size=batch
        )
        return built, result

    built, result = measure(engine)
    if progress is not None:
        from repro.obs import format_shard_summary

        for line in format_shard_summary(built):
            progress(line)
    built.close()
    metrics: dict[str, Any] = {
        "run": {
            "engine": built.name,
            "throughput": result.throughput,
            "batch": result.batch.summary() if result.batch is not None else {},
        },
    }
    if baseline != "none":
        base, base_result = measure(baseline, data_stripes=baseline_stripes)
        base.close()
        metrics["baseline"] = {
            "engine": base.name,
            "throughput": base_result.throughput,
            "stripes": baseline_stripes,
        }
        metrics["speedup"] = (
            result.throughput / base_result.throughput
            if base_result.throughput > 0
            else float("inf")
        )
    return metrics


def _sharded_table(report: BenchReport) -> Iterable[str]:
    run = report.metrics["run"]
    detail = ""
    if run["batch"] and run["batch"]["batches"] > 0:
        detail = (
            f"   {run['batch']['batches']:.0f} batches, "
            f"mean batch {run['batch']['latency']['mean'] * 1e3:.2f} ms"
        )
    yield f"run  : {run['throughput']:12,.0f} ops/s{detail}"
    base = report.metrics.get("baseline")
    if base is not None:
        yield (
            f"base : {base['throughput']:12,.0f} ops/s "
            f"({base['engine']}, {base['stripes']} data device(s))"
        )
        yield f"speedup: {report.metrics['speedup']:.2f}x"


def _sharded_rules(baseline: BenchReport, tolerance: float) -> list[CompareRule]:
    rules = [CompareRule("run.throughput", "higher", tolerance)]
    if "speedup" in baseline.metrics:
        rules.append(CompareRule("speedup", "higher", tolerance))
    return rules


# ----------------------------------------------------------------------
# compaction-policy-sweep (repro policies)
# ----------------------------------------------------------------------


#: What ``--assert-crossover`` gates on, at equal settled data volume.
_CROSSOVER_CHECKS = (
    "tiered_write_amp_below_leveled",
    "leveled_seeks_below_tiered",
    "equal_data_volume",
)


def policy_sweep(
    *,
    policy: Literal[POLICY_NAMES + ("all",)] = "all",
    records: int = 3000,
    ops: int = 2000,
    value_bytes: int = 1000,
    c0_bytes: int = 64 * 1024,
    cache_pages: int = 16,
    disk: Disk = "hdd",
    level_ratio: float = 4.0,
    fanout: int = 4,
    seed: int = 0,
) -> dict[str, Any]:
    """The compaction design-space sweep.

    Runs the identical workload — ``records`` distinct loads then
    ``ops`` uniform point reads — through ``policy`` (``all``: every
    registered one) and reports, per policy: load and read throughput,
    measured write amplification (device bytes written per logical byte
    ingested) and read seeks per operation.  ``level_ratio`` is the
    geometric level size ratio, ``fanout`` the tiered/lazy-leveled runs
    per level.  Bloom filters are disabled so the leveled-vs-tiered
    read-cost difference is visible rather than hidden behind filters;
    each tree drains its merge debt before the read phase so policies
    are compared at equal, settled data volume.

    ``--assert-crossover`` gates on the design-space crossover (it needs
    a leveled and a tiered run): tiered write-amp strictly below
    leveled's while leveled reads strictly fewer seeks, at equal data
    volume; ``--assert-blsm3-floor OPS`` guards the paper tree's read
    throughput against regressions.
    """
    from repro.analysis.amplification import policy_table
    from repro.baselines.compaction_engine import CompactionEngine
    from repro.core.options import BLSMOptions

    names = list(POLICY_NAMES) if policy == "all" else [policy]
    keys = [b"user%08d" % i for i in range(records)]
    value = bytes(value_bytes)
    by_policy: dict[str, dict[str, Any]] = {}
    for name in names:
        engine = CompactionEngine(
            BLSMOptions(
                compaction_policy=name,
                c0_bytes=c0_bytes,
                buffer_pool_pages=cache_pages,
                disk_model=DISK_MODELS[disk](),
                with_bloom_filters=False,
                level_ratio=level_ratio,
                tier_fanout=fanout,
                seed=seed,
            )
        )
        rng = random.Random(seed)
        load_order = list(keys)
        rng.shuffle(load_order)
        logical_bytes = 0
        started = engine.clock.now
        for key in load_order:
            engine.put(key, value)
            logical_bytes += len(key) + len(value)
        engine.tree.drain()  # settle merge debt: equal data volume
        load_seconds = engine.clock.now - started
        written = int(engine.io_summary()["data_bytes_written"])
        read_started = engine.clock.now
        seeks_before = engine.seeks()
        for _ in range(ops):
            key = rng.choice(keys)
            if engine.get(key) is None:  # the oracle: every key was loaded
                raise ReproError(f"{name} lost loaded key {key!r}")
        read_seconds = engine.clock.now - read_started
        by_policy[name] = {
            "policy": name,
            "load_ops_per_s": records / max(1e-9, load_seconds),
            "read_ops_per_s": ops / max(1e-9, read_seconds),
            "write_amp": written / max(1, logical_bytes),
            "read_seeks_per_op": (engine.seeks() - seeks_before) / max(1, ops),
            "logical_bytes": logical_bytes,
            "data_bytes_written": written,
            "level_runs": [
                len(level) for level in engine.level_view()["levels"]
            ],
        }
        engine.close()
    checks: dict[str, bool] = {}
    if "leveled" in by_policy and "tiered" in by_policy:
        leveled, tiered = by_policy["leveled"], by_policy["tiered"]
        checks = dict(zip(_CROSSOVER_CHECKS, (
            tiered["write_amp"] < leveled["write_amp"],
            leveled["read_seeks_per_op"] < tiered["read_seeks_per_op"],
            leveled["logical_bytes"] == tiered["logical_bytes"],
        )))
    return {
        "policies": by_policy,
        "crossover": checks,
        "analytic": policy_table(names, ratio=level_ratio, fanout=fanout),
    }


def _policy_table(report: BenchReport) -> Iterable[str]:
    yield (
        f"{'policy':14s}{'load ops/s':>12s}{'read ops/s':>12s}"
        f"{'write-amp':>11s}{'seeks/op':>10s}  runs/level  (bloom off)"
    )
    for row in report.metrics["policies"].values():
        yield (
            f"{row['policy']:14s}{row['load_ops_per_s']:12,.0f}"
            f"{row['read_ops_per_s']:12,.0f}{row['write_amp']:11.2f}"
            f"{row['read_seeks_per_op']:10.2f}  {row['level_runs']}"
        )


def _policy_rules(baseline: BenchReport, tolerance: float) -> list[CompareRule]:
    return [
        CompareRule(f"policies.{name}.{leaf}", better, tolerance)
        for name in baseline.metrics.get("policies", {})
        for leaf, better in (("read_ops_per_s", "higher"), ("write_amp", "lower"))
    ]


# ----------------------------------------------------------------------
# sessions-group-commit (repro sessions)
# ----------------------------------------------------------------------


def sessions_contrast(
    *,
    engine: Engine = "blsm",
    disk: Disk = "hdd",
    sessions: int = 8,
    rate: float = 4000.0,
    arrival: Literal[ARRIVAL_MODES] = "poisson",
    records: int = 400,
    ops: int = 1200,
    value_bytes: int = 100,
    read: float = 0.25,
    c0_bytes: int = 256 * 1024,
    cache_pages: int = 64,
    shards: int = 4,
    partitioner: Partitioner = "hash",
    seed: int = 0,
) -> dict[str, Any]:
    """Multi-session open-loop bench: group commit vs per-write syncing.

    Drives ``sessions`` concurrent open-loop sessions (``rate`` total
    offered ops per virtual second, ``read`` of them reads, the rest
    blind writes) against one engine in ``group`` durability — writes
    commit through the leader-based queue with ``wait=False`` — then the
    identical offered load against ``sync`` (every write forces).
    Reports queueing-delay percentiles and their timeline, ack latency,
    forces per commit/op, and the group-size histogram;
    ``force_ratio`` is sync forces/op over group forces/op.

    ``--assert-force-ratio R`` / ``--assert-forces-per-commit F`` /
    ``--assert-queueing-p99 SECONDS`` turn the run into the CI gate for
    the amortisation claim of §4.4.2.
    """
    spec = WorkloadSpec(
        record_count=records,
        operation_count=ops,
        read_proportion=read,
        blind_write_proportion=1.0 - read,
        request_distribution="uniform",
        value_bytes=value_bytes,
    )
    flags = dict(
        disk=disk, c0_bytes=c0_bytes, cache_pages=cache_pages, shards=shards,
        partitioner=partitioner,
    )

    def measure(durability: str):
        built = engine_from(engine, flags, spec, durability=durability)
        load_phase(built, spec, seed=seed)
        result = run_sessions(
            built, spec, rate, sessions=sessions, arrival=arrival, seed=seed + 1
        )
        built.close()
        return result

    group = measure("group")
    sync = measure("sync")
    return {
        "group": group.summary(),
        "sync": sync.summary(),
        "force_ratio": (
            sync.forces_per_op / group.forces_per_op
            if group.forces_per_op > 0
            else float("inf")
        ),
    }


def _sessions_table(report: BenchReport) -> Iterable[str]:
    for label in ("group", "sync"):
        r = report.metrics[label]
        yield (
            f"  {label:5s}: forces/commit={r['forces_per_commit']:.3f} "
            f"forces/op={r['forces_per_op']:.3f} "
            f"queue p99={r['queueing']['p99'] * 1e3:.3f} ms "
            f"p99.9={r['queueing']['p999'] * 1e3:.3f} ms "
            f"ack p99={r['ack_latency']['p99'] * 1e3:.3f} ms "
            f"achieved={r['achieved_rate']:,.0f}/s"
        )
    sizes = sorted(
        (int(size), count)
        for size, count in report.metrics["group"]["group_sizes"].items()
    )
    histogram = " ".join(f"{size}x{count}" for size, count in sizes)
    yield f"  group sizes: {histogram}"
    yield f"  force ratio (sync/group): {report.metrics['force_ratio']:.2f}x"


def _sessions_rules(baseline: BenchReport, tolerance: float) -> list[CompareRule]:
    return [
        CompareRule("force_ratio", "higher", tolerance),
        CompareRule("group.forces_per_commit", "lower", tolerance),
        CompareRule("group.ack_latency.p99", "lower", tolerance),
    ]


# ----------------------------------------------------------------------
# live-migration (repro migrate) and stability (repro stability): the
# measurements live beside their subsystems
# ----------------------------------------------------------------------


def _migration_table(report: BenchReport) -> Iterable[str]:
    for label in ("quiescent", "migrating"):
        block = report.metrics[label]
        yield (
            f"  {label} p99 (read/write): {block['read_p99'] * 1e3:.3f} / "
            f"{block['write_p99'] * 1e3:.3f} ms"
        )
    migration = report.metrics["migrating"]["migration"]
    yield (
        f"  migrations completed: {migration['completed']} "
        f"({migration['copied_keys']} keys copied, "
        f"{migration['retired_keys']} retired, {migration['steps']} steps, "
        f"{migration['deferred_steps']} deferred)"
    )
    yield (
        f"  p99 ratio (migrating/quiescent): "
        f"{report.metrics['p99_ratio']:.2f}"
    )


def _migration_rules(baseline: BenchReport, tolerance: float) -> list[CompareRule]:
    return [CompareRule("p99_ratio", "lower", tolerance)]


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "bench", "sharded-batch-read",
        "batched uniform-read throughput; sharded scale-out gate",
        sharded_batch_read, _sharded_table, _sharded_rules,
        asserts={
            "speedup": Gate(
                "sharded speedup over baseline", "speedup", ">=", 0.0, unit="x"
            ),
        },
    ),
    Scenario(
        "policies", "compaction-policy-sweep",
        "compaction design-space sweep; leveled/tiered crossover gate",
        policy_sweep, _policy_table, _policy_rules,
        asserts={
            "crossover": tuple(
                Gate(f"crossover: {name}", f"crossover.{name}", "==", 1.0)
                for name in _CROSSOVER_CHECKS
            ),
            "blsm3_floor": Gate(
                "blsm3 read throughput floor",
                "policies.blsm3.read_ops_per_s", ">=", 0.0, unit="ops/s",
            ),
        },
    ),
    Scenario(
        "sessions", "sessions-group-commit",
        "multi-session open-loop bench: group commit vs per-write sync",
        sessions_contrast, _sessions_table, _sessions_rules,
        asserts={
            "force_ratio": Gate(
                "force ratio (sync/group)", "force_ratio", ">=", 0.0, unit="x"
            ),
            "forces_per_commit": Gate(
                "group forces/commit", "group.forces_per_commit", "<=", 0.0
            ),
            "queueing_p99": Gate(
                "group queueing p99", "group.queueing.p99", "<=", 0.0,
                scale=1e3, unit="ms",
            ),
        },
    ),
    Scenario(
        "migrate", "live-migration",
        "live shard split under Zipfian traffic: p99 vs quiescent baseline",
        live_migration_bench, _migration_table, _migration_rules,
        asserts={
            "p99_ratio": Gate(
                "migrating/quiescent p99 ratio", "p99_ratio", "<=", 0.0,
                unit="x",
            ),
        },
        always=(
            Gate(
                "migrations completed under traffic",
                "migrating.migration.completed", ">=", 1.0,
            ),
        ),
        # The traffic skew and the controller's tuning, not sizes of the run.
        fixed=("hot_fraction", "chunk_keys", "max_migration_fraction"),
    ),
    Scenario(
        "stability", "stability",
        "performance-stability harness: scheduler matrix, p99.9 "
        "ceilings, stall/backpressure timelines",
        stability_scenario,
        lambda report: [stability_table(report)],
        stability_compare_rules,
        asserts={
            "bounded": (
                Gate(
                    "bounded write latency (p99.9 ceiling)",
                    "bounded_latency.bounded", "==", 1.0,
                ),
            ),
            "ceiling": Gate(
                "spring_gear p99.9 ceiling",
                "configs.spring_gear.write_p999_ceiling", "<=", 0.0,
                scale=1e3, unit="ms",
            ),
        },
        forwards=run_stability,
        spellings={"duration_seconds": "duration", "read_proportion": "read"},
    ),
)


def scenario_for(bench: str) -> Scenario | None:
    """The row that produces reports named ``bench``."""
    return next((row for row in SCENARIOS if row.bench == bench), None)

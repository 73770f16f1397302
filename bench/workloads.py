"""The six workloads: sizes, engine configuration, set-up and segments.

Every workload drives a ``blsm`` engine built by
``repro.engines.build_engine`` through the ``KVEngine`` verbs
(``repro.ycsb.runner.execute`` / ``repro.ycsb.sessions.run_sessions``).
Device counters are read from ``SimDisk.stats`` (always on), never from
``KVEngine.io_summary()`` — see README "program defects found".

The data set is the issue's D40k design halved so that the driver's 136
runs fit its time cap; every ratio is kept: data : C0 = 10 : 1, data :
buffer pool = 40 : 1, C0 : cache = 4 : 1 (the paper's 8 GB : 2 GB).
``--seconds`` scales the timed op counts (10 = the sizes below: timed
segments of about three CPU-seconds on the reference box); the *work*
is fixed rather than the clock so that segment *i* always does the same
deterministic work and every ``sim_*`` number repeats exactly.
"""

from __future__ import annotations

import gc
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.engines import build_engine
from repro.sim.disk import DiskModel
from repro.ycsb import runner, sessions
from repro.ycsb.generator import (
    Operation,
    OperationGenerator,
    OpKind,
    make_key,
    make_value,
)
from repro.ycsb.workload import WorkloadSpec, standard_workload

MIB = 1 << 20
VALUE_BYTES = 1000
VALUE_POOL = 32
SEGMENTS = 3
#: Keys no workload ever inserts (inserts continue from record_count).
ABSENT_BASE = 10_000_000
ABSENT_PROBES = 200
VERIFY_SAMPLE = 2000
SESSION_RATES = (200.0, 300.0, 400.0, 600.0)
REFERENCE_RATE = 300.0
SESSIONS = 8

WRITE_KINDS = frozenset(
    {OpKind.UPDATE, OpKind.BLIND_WRITE, OpKind.INSERT, OpKind.RMW}
)

_cpu = time.process_time


@dataclass(frozen=True)
class Sizes:
    """Resolved sizes for one (workload, --scale, --seconds)."""

    records: int
    c0_bytes: int
    cache_pages: int
    segment_ops: int
    warmup_ops: int = 0


def _sizes(name: str, scale: float, seconds: float) -> Sizes:
    """Full-size numbers times ``scale`` (dataset and memory) and
    ``scale * seconds / 10`` (timed ops)."""
    work = scale * seconds / 10.0

    def n(full: int, factor: float, floor: int) -> int:
        return max(floor, int(round(full * factor)))

    c0 = n(2 * MIB, scale, 16 * 1024)
    cache = n(128, scale, 4)
    records = n(20_000, scale, 200)
    if name == "ingest":
        return Sizes(n(45_000, work, 400), c0, cache, n(45_000, work, 400))
    if name == "read_cold":
        return Sizes(records, c0, cache, n(180_000, work, 1000),
                     n(10_000, scale, 100))
    if name == "read_hot":
        hot = n(3_000, scale, 60)
        # The pool must hold the whole data set at any scale.
        return Sizes(hot, n(512 * 1024, scale, 16 * 1024),
                     max(n(2048, scale, 64), hot), n(400_000, work, 2000))
    if name == "mixed_a":
        return Sizes(records, c0, cache, n(85_000, work, 600))
    if name == "scan_short":
        # 5 % inserts: 3 x 4000 ops add ~600 records.  The gear scheduler
        # makes the C0:C1 and C1':C2 merges finish together ~750 inserts
        # after this load, and which one wins that race flips the tree
        # between 2 and 3 on-disk components (scan device time -33 %);
        # the timed window ends before the race so seeds agree.
        return Sizes(records, c0, cache, n(4_000, work, 100))
    if name == "sessions_ol":
        return Sizes(records, c0, cache, n(30_000, work, 400))
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Context:
    """One built, loaded engine and what is needed to run and verify it."""

    engine: Any
    oracle: dict[bytes, bytes]
    user_bytes: int  # key + value bytes written through the engine so far
    ops: list[Operation] = field(default_factory=list)
    spec: WorkloadSpec | None = None
    setup_ops: int = 0  # ops the set-up ran through the engine (load, warm-up)

    @property
    def stasis(self) -> Any:
        return self.engine.tree.stasis


@dataclass
class Segment:
    """What one timed segment measured (both clocks)."""

    label: str
    ops: int
    cpu_s: float
    vsec: float
    failed: int
    user_bytes: int
    data_io: Any  # IOStats delta, data device
    log_io: Any  # IOStats delta, log device
    write_lat: Any = None  # list[float] (closed loop) or LatencyStats
    read_lat: Any = None
    queue_lat: Any = None
    extra: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_cpu_s(self) -> float:
        return self.ops / self.cpu_s


class Stopwatch:
    """Brackets one timed segment on both clocks: ``process_time``, the
    virtual clock and the devices' counters — and, in a traced run, the
    ledger, whose root frame then covers exactly the same interval.

    ``op_depth`` is the ledger stack depth at which a driver op starts:
    1 under ``runner.execute``, 2 under ``run_sessions``.
    """

    def __init__(self, ctx: Context, ledger: Any, op_depth: int) -> None:
        self._ctx, self._ledger, self._op_depth = ctx, ledger, op_depth

    def __enter__(self) -> "Stopwatch":
        stasis, clock = self._ctx.stasis, self._ctx.engine.clock
        gc.collect()
        self._data0 = stasis.data_disk.stats.snapshot()
        self._log0 = stasis.log_disk.stats.snapshot()
        self._v0 = clock.now
        if self._ledger is not None:
            self._token = self._ledger.begin(clock, self._op_depth)
        self._c0 = _cpu()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.cpu_s = _cpu() - self._c0
        if self._ledger is not None:
            self._ledger.end(self._token)
        stasis = self._ctx.stasis
        self.vsec = self._ctx.engine.clock.now - self._v0
        self.data_io = stasis.data_disk.stats.delta(self._data0)
        self.log_io = stasis.log_disk.stats.delta(self._log0)


def value_pool(seed: int) -> list[bytes]:
    rng = random.Random(seed * 7919 + 17)
    return [make_value(rng, VALUE_BYTES) for _ in range(VALUE_POOL)]


def load_keys(records: int) -> list[bytes]:
    """The data set's keys in the generator's hashed (unordered) load
    order, which is the same for every seed: where a key ends up (C0,
    C1, C2) decides what a read of it costs, and with Zipfian traffic a
    handful of keys carry most reads, so a seed-shuffled load moved
    ``host_ops_per_cpu_s`` by 15-19 % between seeds.  The seed drives
    the op stream, the value pool and the arrival times.
    """
    generator = OperationGenerator(
        WorkloadSpec(record_count=records, operation_count=0)
    )
    return list(generator.load_keys())


class Workload:
    """Base: one shared engine, ``SEGMENTS`` slices of one op stream."""

    name = ""
    segments = SEGMENTS
    traced_segment = 0  # the segment a traced run measures
    fresh_engine_per_segment = False
    replay = False  # read-only: every segment replays the same ops
    open_loop = False
    durability = "async"
    digest_parity = False  # verification: the engines' digests must agree
    scan_check = False  # verification: also check short scans

    def __init__(self, seed: int, scale: float, seconds: float) -> None:
        self.seed = seed
        self.sizes = _sizes(self.name, scale, seconds)

    def build(self, observability: bool) -> Any:
        return build_engine(
            "blsm",
            c0_bytes=self.sizes.c0_bytes,
            cache_pages=self.sizes.cache_pages,
            disk=DiskModel.hdd(),
            scheduler="spring_gear",
            durability=self.durability,
            observability=observability,
        )

    def load(self, engine: Any) -> Context:
        """Insert the data set (``load_keys``), then force the log."""
        pool = value_pool(self.seed)
        oracle: dict[bytes, bytes] = {}
        user_bytes = 0
        for i, key in enumerate(load_keys(self.sizes.records)):
            value = pool[i % VALUE_POOL]
            engine.put(key, value)
            oracle[key] = value
            user_bytes += len(key) + len(value)
        engine.flush()
        return Context(engine, oracle, user_bytes, setup_ops=len(oracle))

    def spec(self) -> WorkloadSpec:
        raise NotImplementedError

    def setup(self, index: int, observability: bool = False) -> Context:
        ctx = self.load(self.build(observability))
        ctx.spec = self.spec()
        ctx.ops = OperationGenerator(
            ctx.spec, seed=self.seed
        ).prepared_operations()
        self.warm_up(ctx)
        return ctx

    def warm_up(self, ctx: Context) -> None:
        """Run and drop the leading ``warmup_ops`` of the stream."""
        warm = self.sizes.warmup_ops
        for op in ctx.ops[:warm]:
            runner.execute(ctx.engine, op)
        del ctx.ops[:warm]
        ctx.setup_ops += warm

    def segment_ops(self, ctx: Context, index: int) -> list[Operation]:
        n = self.sizes.segment_ops
        if self.replay:
            return ctx.ops[:n]
        return ctx.ops[index * n : (index + 1) * n]

    def run_segment(
        self, ctx: Context, index: int, ledger: Any = None
    ) -> Segment:
        """Run timed segment ``index``; a traced run passes the ledger,
        which brackets exactly the interval the CPU clock brackets."""
        return run_closed(
            ctx, self.segment_ops(ctx, index), f"seg{index}", ledger
        )

    def check_segment(self, segment: Segment) -> None:
        """Workload-specific invariants (appended to ``segment.errors``)."""

    def absent_keys(self) -> list[bytes]:
        """Keys verification expects ``get`` to miss."""
        return [
            make_key(ABSENT_BASE + i, False) for i in range(ABSENT_PROBES)
        ]


def run_closed(
    ctx: Context, ops: list[Operation], label: str, ledger: Any = None
) -> Segment:
    """Closed loop, one client: each op's latency is the virtual-clock
    advance it caused; CPU is ``process_time`` around the whole loop."""
    engine = ctx.engine
    clock = engine.clock
    execute = runner.execute  # looked up here so a traced run sees the wrapper
    latencies: list[float] = []
    record = latencies.append
    errors: list[str] = []
    failed = 0
    with Stopwatch(ctx, ledger, op_depth=1) as watch:
        for op in ops:
            t = clock.now
            try:
                execute(engine, op)
            except Exception:  # a raising op is a failed op, not a crash
                failed += 1
                if len(errors) < 3:
                    errors.append(traceback.format_exc(limit=4))
            record(clock.now - t)
    write_lat: list[float] = []
    read_lat: list[float] = []
    user_bytes = 0
    oracle = ctx.oracle
    for op, latency in zip(ops, latencies):
        if op.kind in WRITE_KINDS:
            write_lat.append(latency)
            oracle[op.key] = op.value
            user_bytes += len(op.key) + len(op.value)
        else:
            read_lat.append(latency)
    ctx.user_bytes += user_bytes
    return Segment(
        label=label,
        ops=len(ops),
        cpu_s=watch.cpu_s,
        vsec=watch.vsec,
        failed=failed,
        user_bytes=user_bytes,
        data_io=watch.data_io,
        log_io=watch.log_io,
        write_lat=write_lat,
        read_lat=read_lat,
        errors=errors,
    )


class Ingest(Workload):
    """The timed segment *is* the load, on a fresh engine each time."""

    name = "ingest"
    fresh_engine_per_segment = True
    digest_parity = True

    def setup(self, index: int, observability: bool = False) -> Context:
        # prepared_operations() raises IndexError on a load-only spec
        # (README "program defects"), so the keys come from load_keys().
        # No op reads, so key placement cannot skew anything: the seed
        # shuffles the insertion order.
        pool = value_pool(self.seed)
        keys = load_keys(self.sizes.records)
        random.Random(self.seed).shuffle(keys)
        ops = [
            Operation(OpKind.INSERT, key, pool[i % VALUE_POOL])
            for i, key in enumerate(keys)
        ]
        return Context(self.build(observability), {}, 0, ops)

    def segment_ops(self, ctx: Context, index: int) -> list[Operation]:
        return ctx.ops


class ReadCold(Workload):
    name = "read_cold"
    replay = True

    @property
    def addressed(self) -> int:
        """Key indices the read stream draws from.  Only the first
        ``records`` were loaded, so 10 % of reads ask for make_key(i),
        i >= records — keys never inserted."""
        return math.ceil(self.sizes.records / 0.9)

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            record_count=self.addressed,
            operation_count=self.sizes.segment_ops + self.sizes.warmup_ops,
            read_proportion=1.0,
            request_distribution="uniform",
        )

    def absent_keys(self) -> list[bytes]:
        """Every never-inserted key the read stream can ask for."""
        return [
            make_key(i, False)
            for i in range(self.sizes.records, self.addressed)
        ]


class ReadHot(Workload):
    name = "read_hot"
    replay = True

    def spec(self) -> WorkloadSpec:
        return standard_workload(
            "c", self.sizes.records, self.sizes.segment_ops
        )

    def warm_up(self, ctx: Context) -> None:
        for key in ctx.oracle:  # one pass over every record
            ctx.engine.get(key)
        ctx.setup_ops += len(ctx.oracle)

    def check_segment(self, segment: Segment) -> None:
        if segment.vsec != 0.0 or segment.data_io.read_ops:
            segment.errors.append(
                f"read_hot charged {segment.vsec!r} virtual seconds / "
                f"{segment.data_io.read_ops} device reads in steady state: "
                "the workload no longer fits the buffer pool"
            )


class MixedA(Workload):
    name = "mixed_a"

    def spec(self) -> WorkloadSpec:
        return standard_workload(
            "a", self.sizes.records, SEGMENTS * self.sizes.segment_ops
        )


class ScanShort(Workload):
    name = "scan_short"
    scan_check = True

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            record_count=self.sizes.records,
            operation_count=SEGMENTS * self.sizes.segment_ops,
            scan_proportion=0.95,
            insert_proportion=0.05,
            request_distribution="zipfian",
            scan_length_min=1,
            scan_length_max=4,
        )


class SessionsOL(Workload):
    """One fresh engine per fixed offered rate; a "segment" is a rate."""

    name = "sessions_ol"
    segments = len(SESSION_RATES)
    traced_segment = SESSION_RATES.index(REFERENCE_RATE)
    fresh_engine_per_segment = True
    open_loop = True
    durability = "group"

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            record_count=self.sizes.records,
            operation_count=self.sizes.segment_ops,
            read_proportion=0.5,
            blind_write_proportion=0.5,
            request_distribution="uniform",
        )

    def setup(self, index: int, observability: bool = False) -> Context:
        ctx = self.load(self.build(observability))
        ctx.spec = self.spec()
        return ctx

    def run_segment(
        self, ctx: Context, index: int, ledger: Any = None
    ) -> Segment:
        rate = SESSION_RATES[index]
        errors: list[str] = []
        failed = 0
        result = None
        with Stopwatch(ctx, ledger, op_depth=2) as watch:
            try:
                result = sessions.run_sessions(
                    ctx.engine, ctx.spec, rate, sessions=SESSIONS,
                    arrival="poisson", seed=self.seed,
                )
            except Exception:  # the whole rate run failed: every op counts
                failed = ctx.spec.operation_count
                errors.append(traceback.format_exc(limit=6))
        # Every write was acknowledged by the final flush; replay the
        # (deterministic) stream into the oracle.
        user_bytes = 0
        for op in OperationGenerator(ctx.spec, seed=self.seed).operations():
            if op.kind in WRITE_KINDS:
                ctx.oracle[op.key] = op.value
                user_bytes += len(op.key) + len(op.value)
        ctx.user_bytes += user_bytes
        segment = Segment(
            label=f"rate{rate:g}",
            ops=ctx.spec.operation_count,
            cpu_s=watch.cpu_s,
            vsec=watch.vsec,
            failed=failed,
            user_bytes=user_bytes,
            data_io=watch.data_io,
            log_io=watch.log_io,
            errors=errors,
        )
        if result is not None:
            segment.write_lat = result.ack_latency
            segment.read_lat = result.read_latency
            segment.queue_lat = result.queueing
            segment.extra = {
                "offered_rate": rate,
                "achieved_rate": result.achieved_rate,
                "backlog_seconds": result.backlog_seconds,
                "forces": result.forces,
                "commits": result.commits,
                "forces_per_commit": result.forces_per_commit,
                "operations": result.operations,
            }
            if result.operations != segment.ops:
                segment.errors.append(
                    f"run_sessions ran {result.operations} of "
                    f"{segment.ops} ops"
                )
        return segment


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (Ingest, ReadCold, ReadHot, MixedA, ScanShort, SessionsOL)
}


def make_workload(
    name: str, seed: int, scale: float, seconds: float
) -> Workload:
    try:
        cls = WORKLOAD_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of "
            f"{tuple(WORKLOAD_CLASSES)}"
        ) from None
    return cls(seed, scale, seconds)

"""Closed-loop workload execution against any engine.

The paper drives every system with unthrottled YCSB worker threads so
the storage device is continuously saturated (Section 5.1: "running the
systems under continuous overload reliably reproduces throughput
collapses").  On the virtual clock the equivalent is a closed loop: each
operation's latency is the clock advance it caused (device time, merge
work and backpressure included), and throughput is operations over
elapsed virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.baselines.interface import KVEngine, WriteBatch
from repro.ycsb.generator import Operation, OperationGenerator, OpKind
from repro.ycsb.metrics import BatchStats, LatencyStats, Timeseries
from repro.ycsb.workload import WorkloadSpec


@dataclass
class RunResult:
    """Everything one measured phase produced."""

    engine: str
    operations: int
    elapsed_seconds: float
    latencies: dict[OpKind, LatencyStats]
    timeseries: Timeseries | None
    io: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    """Engine-wide :class:`MetricsRegistry` snapshot taken at phase end."""

    batch: BatchStats | None = None
    """Batch-level accounting when the phase ran batched, else ``None``."""

    @property
    def throughput(self) -> float:
        """Operations per virtual second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_seconds

    def all_latencies(self) -> LatencyStats:
        """Latency stats pooled across operation kinds."""
        pooled = LatencyStats()
        for stats in self.latencies.values():
            pooled.merge(stats)
        return pooled

    def summary(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "operations": self.operations,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "latency": self.all_latencies().summary(),
        }


def _latency_observer(engine: KVEngine):
    """Record per-kind op latencies into ``ycsb.latency.{kind}`` histograms.

    Engines without a runtime (external/stub engines) get a no-op, so the
    runner never requires observability to function.
    """
    runtime = engine.runtime
    if runtime is None:
        return lambda kind, latency: None
    histograms: dict[OpKind, Any] = {}

    def observe(kind: OpKind, latency: float) -> None:
        histogram = histograms.get(kind)
        if histogram is None:
            histogram = runtime.metrics.histogram(
                f"ycsb.latency.{kind.name.lower()}"
            )
            histograms[kind] = histogram
        histogram.observe(latency)

    return observe


def execute(engine: KVEngine, op: Operation) -> None:
    """Run one generated operation against an engine."""
    kind = op.kind
    if kind is OpKind.READ:
        engine.get(op.key)
    elif kind is OpKind.INSERT or kind is OpKind.BLIND_WRITE:
        assert op.value is not None
        engine.put(op.key, op.value)
    elif kind is OpKind.UPDATE or kind is OpKind.RMW:
        assert op.value is not None
        new_value = op.value
        engine.read_modify_write(op.key, lambda _old: new_value)
    elif kind is OpKind.SCAN:
        consumed = 0
        for _ in engine.scan(op.key, limit=op.scan_length):
            consumed += 1
    elif kind is OpKind.DELETE:
        engine.delete(op.key)
    else:  # pragma: no cover - exhaustive
        raise ValueError(f"unknown operation kind {kind!r}")


def execute_batch(engine: KVEngine, batch: list[Operation]) -> None:
    """Run one client batch through the engine's multi-key surface.

    Consecutive READs coalesce into one :meth:`KVEngine.multi_get`;
    consecutive blind writes, inserts and deletes coalesce into one
    :class:`WriteBatch`.  Coalescing never crosses a run boundary, so a
    read issued after a write to the same key still observes it.
    UPDATE/RMW (read-dependent) and SCAN stay single calls.
    """
    reads: list[bytes] = []
    writes = WriteBatch()

    def drain() -> None:
        nonlocal writes
        if reads:
            engine.multi_get(list(reads))
            reads.clear()
        if writes:
            engine.apply_batch(writes)
            writes = WriteBatch()

    for op in batch:
        if op.kind is OpKind.READ:
            if writes:
                drain()
            reads.append(op.key)
        elif op.kind in (OpKind.BLIND_WRITE, OpKind.INSERT):
            if reads:
                drain()
            assert op.value is not None
            writes.put(op.key, op.value)
        elif op.kind is OpKind.DELETE:
            if reads:
                drain()
            writes.delete(op.key)
        else:
            drain()
            execute(engine, op)
    drain()


def run_batched_workload(
    engine: KVEngine,
    spec: WorkloadSpec,
    seed: int = 0,
    batch_size: int = 8,
    timeseries_window: float | None = None,
) -> RunResult:
    """Run the measured phase in client batches of ``batch_size``.

    The batched analogue of :func:`run_workload`: a closed loop over
    *batches* instead of single operations.  Every operation in a batch
    completes when the batch does, so each op records the whole batch's
    clock advance as its latency; throughput still counts individual
    operations.  On a sharded engine a batch fans out and costs the max
    of the per-shard device time — the amortization this runner exists
    to measure.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    generator = OperationGenerator(spec, seed=seed)
    latencies: dict[OpKind, LatencyStats] = {}
    batch_stats = BatchStats()
    observe = _latency_observer(engine)
    series = (
        Timeseries(timeseries_window) if timeseries_window is not None else None
    )
    start = engine.clock.now
    io_before = engine.io_summary()
    operations = 0
    for batch in generator.batches(batch_size):
        issued = engine.clock.now
        execute_batch(engine, batch)
        latency = engine.clock.now - issued
        batch_stats.record(len(batch), latency)
        for op in batch:
            latencies.setdefault(op.kind, LatencyStats()).record(latency)
            observe(op.kind, latency)
            if series is not None:
                series.record(issued - start, latency)
        operations += len(batch)
    elapsed = engine.clock.now - start
    if series is not None:
        series.end_time = elapsed
    return RunResult(
        engine=engine.name,
        operations=operations,
        elapsed_seconds=elapsed,
        latencies=latencies,
        timeseries=series,
        io=_io_delta(io_before, engine.io_summary()),
        metrics=engine.metrics(),
        batch=batch_stats,
    )


def load_phase(
    engine: KVEngine,
    spec: WorkloadSpec,
    seed: int = 0,
    timeseries_window: float | None = None,
    use_bulk_load: bool = False,
    batch_size: int = 1,
) -> RunResult:
    """Insert ``spec.record_count`` keys (Section 5.2's load).

    Args:
        use_bulk_load: use the engine's sorted bulk-load path if it has
            one (InnoDB's pre-sorted load); requires
            ``spec.ordered_inserts``.
        batch_size: when > 1, group inserts into :class:`WriteBatch`
            groups of this size (ignored when the spec checks existence
            on insert — that read-dependent path stays per-key).
        timeseries_window: when set, collect windowed throughput for
            Figure 7 style plots.
    """
    generator = OperationGenerator(spec, seed=seed)
    stats = LatencyStats()
    batch_stats: BatchStats | None = None
    observe = _latency_observer(engine)
    series = (
        Timeseries(timeseries_window) if timeseries_window is not None else None
    )
    start = engine.clock.now
    io_before = engine.io_summary()
    if use_bulk_load:
        bulk = getattr(engine, "bulk_load", None)
        if bulk is None:
            raise ValueError(f"{engine.name} has no bulk-load path")
        value = bytes(spec.value_bytes)
        before = engine.clock.now
        count = bulk((key, value) for key in sorted(generator.load_keys()))
        per_op = (engine.clock.now - before) / max(1, count)
        stats.record(per_op)
        observe(OpKind.INSERT, per_op)
    elif batch_size > 1 and not spec.check_exists_on_insert:
        import random as _random

        value_rng = _random.Random(seed + 1)
        batch_stats = BatchStats()
        chunk: list[bytes] = []

        def flush() -> None:
            batch = WriteBatch()
            for key in chunk:
                value = bytes([value_rng.randrange(256)]) * spec.value_bytes
                batch.put(key, value)
            before = engine.clock.now
            engine.apply_batch(batch)
            latency = engine.clock.now - before
            batch_stats.record(len(chunk), latency)
            for _ in chunk:
                stats.record(latency)
                observe(OpKind.INSERT, latency)
                if series is not None:
                    series.record(before - start, latency)
            chunk.clear()

        for key in generator.load_keys():
            chunk.append(key)
            if len(chunk) == batch_size:
                flush()
        if chunk:
            flush()
    else:
        import random as _random

        value_rng = _random.Random(seed + 1)
        for key in generator.load_keys():
            value = bytes([value_rng.randrange(256)]) * spec.value_bytes
            before = engine.clock.now
            if spec.check_exists_on_insert:
                engine.insert_if_not_exists(key, value)
            else:
                engine.put(key, value)
            latency = engine.clock.now - before
            stats.record(latency)
            observe(OpKind.INSERT, latency)
            if series is not None:
                series.record(before - start, latency)
    elapsed = engine.clock.now - start
    if series is not None:
        series.end_time = elapsed
    return RunResult(
        engine=engine.name,
        operations=spec.record_count,
        elapsed_seconds=elapsed,
        latencies={OpKind.INSERT: stats},
        timeseries=series,
        io=_io_delta(io_before, engine.io_summary()),
        metrics=engine.metrics(),
        batch=batch_stats,
    )


def run_workload(
    engine: KVEngine,
    spec: WorkloadSpec,
    seed: int = 0,
    timeseries_window: float | None = None,
    concurrency: int = 1,
) -> RunResult:
    """Run the measured phase of a workload (no load).

    Args:
        concurrency: number of closed-loop workers.  The device is a
            serial resource, so extra workers do not add throughput —
            they add *queueing*: each worker issues its next operation
            the moment its previous one completes, and with ``N``
            workers an operation waits behind up to ``N - 1`` others.
            The paper runs 128 unthrottled YCSB threads and reports
            latencies "in the 100's of milliseconds across all three
            systems" (Section 5.1); this reproduces that regime.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    generator = OperationGenerator(spec, seed=seed)
    latencies: dict[OpKind, LatencyStats] = {}
    observe = _latency_observer(engine)
    series = (
        Timeseries(timeseries_window) if timeseries_window is not None else None
    )
    start = engine.clock.now
    io_before = engine.io_summary()
    operations = 0
    # Completion times of the last `concurrency` operations: with N
    # closed-loop workers, operation i was issued when operation i-N
    # completed, so its latency spans that gap plus its own service.
    completions: list[float] = []
    for op in generator.operations():
        issued = (
            completions[-concurrency]
            if len(completions) >= concurrency
            else start
        )
        execute(engine, op)
        now = engine.clock.now
        completions.append(now)
        latency = now - issued
        latencies.setdefault(op.kind, LatencyStats()).record(latency)
        observe(op.kind, latency)
        if series is not None:
            series.record(issued - start, latency)
        operations += 1
    elapsed = engine.clock.now - start
    if series is not None:
        series.end_time = elapsed
    return RunResult(
        engine=engine.name,
        operations=operations,
        elapsed_seconds=elapsed,
        latencies=latencies,
        timeseries=series,
        io=_io_delta(io_before, engine.io_summary()),
        metrics=engine.metrics(),
    )


def _io_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    delta: dict[str, Any] = {}
    for key, value in after.items():
        if key.endswith(("_utilization", "_rate")):
            delta[key] = value  # ratios are snapshots, not counters
        elif isinstance(value, (int, float)) and key in before:
            delta[key] = value - before[key]
        else:
            delta[key] = value
    return delta

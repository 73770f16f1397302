"""Tests for the observability core: registry, trace ring, spans, e2e."""

import pytest

from repro.baselines import (
    BitCaskEngine,
    BLSMEngine,
    BTreeEngine,
    CompactionEngine,
    PartitionedBLSMEngine,
)
from repro.core import BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.obs import (
    EngineRuntime,
    MetricsRegistry,
    TraceRecorder,
    events_within,
    merge_seconds_by_level,
    reconstruct_stalls,
    stall_causes,
    format_summary,
    summarize_trace,
)
from repro.sim import DiskModel, VirtualClock
from repro.ycsb import WorkloadSpec, load_phase, run_workload


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("disk.hdd.seeks")
        second = registry.counter("disk.hdd.seeks")
        assert first is second

    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("x") == pytest.approx(3.5)

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_directions(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("fill")
        gauge.set(0.9)
        gauge.set(0.1)
        assert registry.value("fill") == pytest.approx(0.1)

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_value_on_histogram_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        with pytest.raises(TypeError):
            registry.value("lat")

    def test_value_default_for_missing(self):
        assert MetricsRegistry().value("missing", default=7.0) == 7.0

    def test_names_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("disk.a.seeks")
        registry.counter("disk.b.seeks")
        registry.gauge("memtable.fill")
        assert registry.names("disk.") == ["disk.a.seeks", "disk.b.seeks"]
        assert "memtable.fill" in registry.names()

    def test_histogram_percentiles_bounded_error(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in [0.001] * 98 + [0.1, 1.0]:
            histogram.observe(value)
        assert histogram.count == 100
        # p50 lands in 0.001's bucket: within one bucket ratio (~12%).
        assert histogram.percentile(50) == pytest.approx(0.001, rel=0.15)
        assert histogram.percentile(100) == pytest.approx(1.0)
        assert histogram.max == pytest.approx(1.0)
        assert histogram.mean == pytest.approx((0.098 + 0.1 + 1.0) / 100)

    def test_histogram_handles_zero_and_overflow(self):
        histogram = MetricsRegistry().histogram("lat", max_value=1.0)
        histogram.observe(0.0)
        histogram.observe(50.0)  # beyond max_value: overflow bucket
        assert histogram.count == 2
        assert histogram.percentile(100) == pytest.approx(50.0)

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 3.0
        assert snapshot["g"] == 0.5
        assert snapshot["h"]["count"] == 1.0
        # Detached: mutating the live registry must not change it.
        registry.counter("c").inc()
        assert snapshot["c"] == 3.0


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------


class TestTraceRecorder:
    def test_ring_evicts_oldest_first(self):
        recorder = TraceRecorder(VirtualClock(), capacity=4)
        for i in range(6):
            recorder.emit("tick", n=i)
        retained = recorder.events()
        assert [e.get("n") for e in retained] == [2, 3, 4, 5]
        assert recorder.emitted == 6
        assert recorder.dropped == 2

    def test_events_filters_by_type(self):
        recorder = TraceRecorder(VirtualClock())
        recorder.emit("a")
        recorder.emit("b")
        recorder.emit("a")
        assert len(recorder.events("a")) == 2
        assert len(recorder.events()) == 3

    def test_disabled_recorder_emits_nothing(self):
        recorder = TraceRecorder(VirtualClock())
        recorder.enabled = False
        assert recorder.emit("tick") is None
        assert recorder.events() == []

    def test_clear_resets_dropped(self):
        recorder = TraceRecorder(VirtualClock(), capacity=2)
        for _ in range(5):
            recorder.emit("tick")
        recorder.clear()
        assert recorder.events() == []
        assert recorder.dropped == 0

    def test_events_stamped_with_virtual_time(self):
        clock = VirtualClock()
        recorder = TraceRecorder(clock)
        recorder.emit("first")
        clock.advance(1.5)
        recorder.emit("second")
        first, second = recorder.events()
        assert first.time == pytest.approx(0.0)
        assert second.time == pytest.approx(1.5)

    def test_span_nesting_under_virtual_clock(self):
        clock = VirtualClock()
        recorder = TraceRecorder(clock)
        with recorder.span("outer", cause="x"):
            clock.advance(1.0)
            with recorder.span("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        events = {(e.etype, e.get("span_id")): e for e in recorder.events()}
        outer_begin = events[("outer_begin", 0)]
        inner_begin = events[("inner_begin", 1)]
        inner_end = events[("inner_end", 1)]
        outer_end = events[("outer_end", 0)]
        assert outer_begin.get("parent_id") is None
        assert inner_begin.get("parent_id") == 0
        assert inner_end.get("duration") == pytest.approx(2.0)
        assert outer_end.get("duration") == pytest.approx(3.5)
        assert outer_begin.get("cause") == "x"

    def test_span_closes_on_exception(self):
        recorder = TraceRecorder(VirtualClock())
        with pytest.raises(RuntimeError):
            with recorder.span("work"):
                raise RuntimeError("boom")
        assert len(recorder.events("work_end")) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(VirtualClock(), capacity=0)


# ---------------------------------------------------------------------------
# EngineRuntime
# ---------------------------------------------------------------------------


class TestEngineRuntime:
    def test_owns_clock_metrics_trace(self):
        runtime = EngineRuntime()
        assert runtime.trace.clock is runtime.clock
        runtime.clock.advance(2.0)
        assert runtime.now == pytest.approx(2.0)

    def test_wraps_existing_clock(self):
        clock = VirtualClock()
        clock.advance(1.0)
        runtime = EngineRuntime(clock=clock)
        assert runtime.clock is clock
        assert runtime.now == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Summary helpers
# ---------------------------------------------------------------------------


class TestSummary:
    def _stalling_trace(self):
        clock = VirtualClock()
        recorder = TraceRecorder(clock)
        recorder.emit("memtable_full", fill=1.0)
        with recorder.span("stall", cause="merge_backpressure"):
            clock.advance(0.25)
            recorder.emit("merge_progress", level="c0c1", seconds=0.2)
        clock.advance(1.0)
        recorder.emit("merge_progress", level="c1c2", seconds=0.7)
        return recorder.events()

    def test_reconstruct_stalls_pairs_spans(self):
        stalls = reconstruct_stalls(self._stalling_trace())
        assert len(stalls) == 1
        stall = stalls[0]
        assert stall.cause == "merge_backpressure"
        assert stall.duration == pytest.approx(0.25)
        assert stall.contains(stall.start) and stall.contains(stall.end)

    def test_reconstruct_drops_unpaired_begin(self):
        recorder = TraceRecorder(VirtualClock())
        recorder.emit("stall_begin", span_id=9, cause="x")
        assert reconstruct_stalls(recorder.events()) == []

    def test_events_within_interval(self):
        events = self._stalling_trace()
        (stall,) = reconstruct_stalls(events)
        inside = events_within(events, stall.start, stall.end)
        assert any(e.etype == "merge_progress" for e in inside)
        # The late c1c2 progress event falls outside the stall.
        assert all(e.get("level") != "c1c2" for e in inside)

    def test_stall_causes_ranked(self):
        stalls = reconstruct_stalls(self._stalling_trace())
        (cause, count, seconds) = stall_causes(stalls)[0]
        assert cause == "merge_backpressure"
        assert count == 1
        assert seconds == pytest.approx(0.25)

    def test_merge_seconds_by_level(self):
        seconds = merge_seconds_by_level(self._stalling_trace())
        assert seconds["c0c1"] == pytest.approx(0.2)
        assert seconds["c1c2"] == pytest.approx(0.7)

    def test_format_summary_lines(self):
        lines = format_summary(self._stalling_trace())
        text = "\n".join(lines)
        assert "merge_backpressure" in text
        assert "merge time by level" in text
        assert "c0c1" in text

    def test_summarize_empty_trace(self):
        summary = summarize_trace([])
        assert summary["events"] == 0
        assert summary["stalls"] == []
        assert "none recorded" in "\n".join(format_summary([]))


# ---------------------------------------------------------------------------
# End-to-end: engines emit through one runtime
# ---------------------------------------------------------------------------


def _small_blsm(scheduler: str = "naive") -> BLSMEngine:
    return BLSMEngine(
        BLSMOptions(
            c0_bytes=16 * 1024,
            buffer_pool_pages=16,
            scheduler=scheduler,
        )
    )


def _load(engine, records=300, ops=0, seed=11):
    mix = (
        {"read_proportion": 0.5, "blind_write_proportion": 0.5}
        if ops > 0
        else {}
    )
    spec = WorkloadSpec(
        record_count=records, operation_count=ops, value_bytes=100, **mix
    )
    result = load_phase(engine, spec, seed=seed)
    if ops > 0:
        result = run_workload(engine, spec, seed=seed + 1)
    return result


class TestEndToEnd:
    def test_ycsb_run_emits_disk_merge_memtable_events(self):
        engine = _small_blsm()
        _load(engine)
        assert engine.trace("disk_io"), "disk layer must emit events"
        assert engine.trace("merge_progress"), "merges must emit events"
        assert engine.trace("memtable_full"), "memtable must emit events"
        engine.close()

    def test_memtable_rotation_events_without_snowshovel(self):
        # Snowshoveling drains C0 in place; only the freeze-and-swap
        # path (snowshovel off) rotates memtables.
        engine = BLSMEngine(
            BLSMOptions(
                c0_bytes=16 * 1024,
                buffer_pool_pages=16,
                scheduler="naive",
                snowshovel=False,
            )
        )
        _load(engine)
        rotations = engine.trace("memtable_rotate")
        assert rotations
        assert all(e.get("kind") == "freeze" for e in rotations)
        assert engine.metrics()["memtable.rotations"] == len(rotations)
        engine.close()

    def test_stall_interval_attributed_to_merge_backpressure(self):
        """Acceptance: reconstruct an insert stall from the trace and
        correlate it with memtable-full, merge-progress and disk-busy
        events on one monotonic virtual timeline."""
        engine = _small_blsm(scheduler="naive")
        _load(engine)
        events = engine.trace()
        times = [e.time for e in events]
        assert times == sorted(times), "virtual timestamps are monotonic"
        stalls = reconstruct_stalls(events)
        assert stalls, "the naive scheduler must stall on a full C0"
        assert all(s.cause == "merge_backpressure" for s in stalls)
        stall = max(stalls, key=lambda s: s.duration)
        assert stall.duration > 0
        correlated = events_within(events, stall.start, stall.end)
        etypes = {e.etype for e in correlated}
        assert "memtable_full" in etypes
        assert "merge_progress" in etypes
        assert "disk_io" in etypes
        engine.close()

    def test_stall_metrics_agree_with_trace(self):
        engine = _small_blsm(scheduler="naive")
        _load(engine)
        stalls = reconstruct_stalls(engine.trace())
        metrics = engine.metrics()
        assert metrics["writes.stalls"] == len(stalls)
        histogram = engine.runtime.metrics.get("writes.stall_seconds")
        assert histogram.count == len(stalls)
        assert histogram.sum == pytest.approx(
            sum(s.duration for s in stalls)
        )
        assert metrics["memtable.full_events"] >= len(stalls)
        engine.close()

    def test_spring_gear_emits_backpressure_transitions(self):
        engine = _small_blsm(scheduler="spring_gear")
        _load(engine, records=600)
        engaged = engine.trace("backpressure_engaged")
        assert engaged, "filling C0 must engage the spring"
        assert all(e.get("pressure") > 0 for e in engaged)
        engine.close()

    def test_ycsb_latency_histograms_registered(self):
        engine = _small_blsm()
        result = _load(engine, records=200, ops=100)
        runtime = engine.runtime
        names = runtime.metrics.names("ycsb.latency.")
        assert names, "the runner must register latency histograms"
        total = sum(runtime.metrics.get(n).count for n in names)
        assert total >= 100
        assert result.metrics["ycsb.latency.insert"]["count"] >= 200
        engine.close()

    def test_bloom_metrics_populated(self):
        engine = _small_blsm()
        _load(engine)
        engine.tree.drain()
        assert engine.get(b"__definitely_absent__") is None
        metrics = engine.metrics()
        assert metrics["bloom.negatives"] >= 1
        engine.close()


class TestUniformEngineMetrics:
    """Every engine reports through the same MetricsRegistry API."""

    def _engines(self):
        options = BLSMOptions(c0_bytes=16 * 1024, buffer_pool_pages=16)
        yield BLSMEngine(options)
        yield PartitionedBLSMEngine(
            BLSMOptions(c0_bytes=16 * 1024, buffer_pool_pages=16)
        )
        yield BTreeEngine(disk_model=DiskModel.hdd(), buffer_pool_pages=8)
        yield CompactionEngine(
            BLSMOptions(
                disk_model=DiskModel.hdd(),
                c0_bytes=8 * 1024,
                level_base_bytes=32 * 1024,
                buffer_pool_pages=16,
                **LEVELDB_OPTIONS,
            )
        )
        yield BitCaskEngine()

    def test_all_engines_expose_runtime_and_disk_metrics(self):
        for engine in self._engines():
            assert engine.runtime is not None, engine.name
            for i in range(40):
                engine.put(b"key%04d" % i, b"v" * 64)
            assert engine.get(b"key0000") is not None
            engine.flush()
            metrics = engine.metrics()
            disk_writes = [
                name
                for name, value in metrics.items()
                if name.startswith("disk.")
                and name.endswith(".bytes_written")
                and not isinstance(value, dict)
                and value > 0
            ]
            assert disk_writes, f"{engine.name} wrote nothing observable"
            engine.close()

    def test_runtime_clock_is_engine_clock(self):
        for engine in self._engines():
            assert engine.runtime.clock is engine.clock, engine.name
            engine.close()


# ----------------------------------------------------------------------
# Observability toggle: byte-identical engine state either way
# ----------------------------------------------------------------------


def _seeded_trace(engine, ops: int = 400, seed: int = 9):
    import random

    rng = random.Random(seed)
    for step in range(ops):
        key = b"key%03d" % rng.randrange(80)
        roll = rng.random()
        if roll < 0.6:
            engine.put(key, bytes([rng.randrange(256)]) * 24)
        elif roll < 0.8:
            engine.delete(key)
        else:
            engine.get(key)


def test_observability_off_is_semantically_invisible():
    """Disabling metrics/tracing skips dispatch work only: logical
    state (digest), scan order and even the virtual clock must be
    byte-identical to the instrumented engine."""
    from repro.engines import build_engine

    observed = build_engine(
        "blsm", c0_bytes=8 * 1024, cache_pages=16, observability=True
    )
    dark = build_engine(
        "blsm", c0_bytes=8 * 1024, cache_pages=16, observability=False
    )
    _seeded_trace(observed)
    _seeded_trace(dark)
    assert observed.state_digest() == dark.state_digest()
    assert observed.clock.now == dark.clock.now
    observed.close()
    dark.close()


def test_observability_off_disables_trace_and_counters():
    from repro.engines import build_engine

    dark = build_engine("blsm", durability="sync", observability=False)
    lit = build_engine("blsm", durability="sync", observability=True)
    assert not dark.runtime.observability
    assert not dark.runtime.trace.enabled
    _seeded_trace(dark, ops=50)
    _seeded_trace(lit, ops=50)
    # The instrumented engine accumulates per-device counters; the dark
    # one skips that dispatch entirely (same I/O, no bookkeeping).
    lit_writes = [
        name for name in lit.metrics() if name.endswith(".write_ops")
    ]
    assert lit_writes, "instrumented engine must expose disk counters"
    assert any(
        lit.runtime.metrics.value(name, 0.0) > 0.0 for name in lit_writes
    )
    for name in lit_writes:
        assert dark.runtime.metrics.value(name, 0.0) == 0.0
    dark.close()
    lit.close()


@pytest.mark.parametrize("name", ["blsm", "leveled", "sharded"])
def test_io_summary_does_not_depend_on_observability(name):
    """``io_summary`` used to read the metrics registry, which devices
    skip with observability off, so every untraced run reported an idle
    device: the same seeded reads must give the same non-zero counters
    either way."""
    from repro.engines import build_engine

    summaries = []
    for observability in (True, False):
        engine = build_engine(
            name, c0_bytes=8 * 1024, cache_pages=16,
            observability=observability,
        )
        # Data >> C0 and >> the buffer pool, in scattered key order:
        # merges read and write, cold reads seek.
        keys = [b"key%04d" % ((i * 7919) % 2000) for i in range(2000)]
        for key in keys:
            engine.put(key, b"v" * 256)
        for key in keys[::20]:
            engine.get(key)
        summaries.append(engine.io_summary())
        engine.close()
    lit, dark = summaries
    assert dark == lit
    assert dark["data_seeks"] > 0
    assert dark["data_bytes_read"] > 0
    assert dark["data_bytes_written"] > 0
    assert dark["busy_seconds"] > 0.0

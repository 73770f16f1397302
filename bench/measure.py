"""Run one workload and turn what it measured into named metrics.

``run_untraced`` is the end-to-end run: set-up, the timed segments
back to back, then verification against the dict oracle.
``run_traced`` is the separate per-layer run: three passes over one
segment (observability off, on, on + ledger wrappers) so the cost of
watching is itself measured.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import resource
import statistics
import time
from typing import Any

from bench import spec
from bench.ledger import (
    CALLS, HITS, INCL_NS, INCL_V, MAX_V, VSEC_OWNERS, Ledger,
)
from bench.workloads import VERIFY_SAMPLE, Context, Segment, Workload

SCAN_CHECKS = 200

_cpu = time.process_time
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


# ----------------------------------------------------------------------
# small numeric helpers
# ----------------------------------------------------------------------


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (as LatencyStats)."""
    rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[rank]


class Samples:
    """Latency samples behind one interface: a raw list (closed loop,
    pooled over segments) or a ``LatencyStats`` (session runs)."""

    def __init__(self, source: Any) -> None:
        if isinstance(source, list):
            self._sorted: list[float] | None = sorted(source)
            self._stats = None
            self.n = len(source)
        else:
            self._sorted = None
            self._stats = source
            self.n = source.count if source is not None else 0

    def ms(self, p: float) -> float:
        if self._sorted is not None:
            return percentile(self._sorted, p) * 1e3
        return self._stats.percentile(p) * 1e3

    def digest(self) -> str:
        points = [self.ms(p) for p in (50, 90, 99, 99.9, 100)] if self.n else []
        return repr((self.n, points))


def _value(value: Any, unit: str, n: int | None = None) -> dict[str, Any]:
    return {"value": value, "unit": unit, "n": n, "reason": None}


def _null(unit: str, reason: str, n: int | None = None) -> dict[str, Any]:
    return {"value": None, "unit": unit, "n": n, "reason": reason}


def _tail(samples: Samples, p: float, unit: str) -> dict[str, Any]:
    """A percentile, or null when fewer than ten samples lie beyond it."""
    beyond = samples.n * (1.0 - p / 100.0)
    if samples.n == 0:
        return _null(unit, "n=0: no samples", 0)
    if p > 50 and beyond < 10:
        return _null(
            unit, f"n={samples.n}: fewer than 10 samples beyond p{p:g}",
            samples.n,
        )
    return _value(samples.ms(p), unit, samples.n)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


class Verdict:
    """Attempted / failed bookkeeping with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    def absorb(self, segment: Segment) -> None:
        self.attempted += segment.ops
        if segment.failed:
            self.fail(f"{segment.label}: {segment.failed} ops raised",
                      segment.failed)
        for error in segment.errors:
            if len(self.problems) < 10:
                self.problems.append(f"{segment.label}: {error}")
        # An invariant error with no failed op still fails the run.
        if segment.errors and not segment.failed:
            self.failed += 1


def verify_reads(
    engine: Any, oracle: dict[bytes, bytes], absent: list[bytes], seed: int,
    verdict: Verdict, every_key: bool = False,
) -> None:
    """Sampled live keys (or all) and every absent key, by ``get``."""
    keys = list(oracle)
    if not every_key and len(keys) > VERIFY_SAMPLE:
        keys = random.Random(seed + 99).sample(keys, VERIFY_SAMPLE)
    expected = [(key, oracle[key]) for key in keys]
    expected.extend((key, None) for key in absent)
    for key, want in expected:
        try:
            got = engine.get(key)
        except Exception as exc:  # counts in error_rate, not a crash
            verdict.check(False, f"get({key!r}) raised {exc!r}")
            continue
        verdict.check(
            got == want,
            f"get({key!r}) != oracle" if want is not None
            else f"absent key {key!r} was found",
        )


def verify_scans(
    engine: Any, oracle: dict[bytes, bytes], seed: int, verdict: Verdict
) -> None:
    """Short scans from sampled start keys against the sorted oracle."""
    ordered = sorted(oracle)
    rng = random.Random(seed + 7)
    for _ in range(min(SCAN_CHECKS, len(ordered))):
        start = rng.randrange(len(ordered))
        want = [(k, oracle[k]) for k in ordered[start : start + 4]]
        try:
            got = list(engine.scan(ordered[start], limit=4))
        except Exception as exc:  # counts in error_rate, not a crash
            verdict.check(False, f"scan({ordered[start]!r}) raised {exc!r}")
            continue
        verdict.check(got == want, f"scan({ordered[start]!r}) != oracle")


def verify_durability(ctx: Context, seed: int, verdict: Verdict) -> Any:
    """Crash, recover from durable state only, read back every write."""
    from repro.baselines.blsm_engine import BLSMEngine
    from repro.core.tree import BLSM

    stasis, options = ctx.stasis, ctx.engine.tree.options
    stasis.crash()
    recovered = BLSMEngine.from_tree(BLSM.recover(stasis, options))
    verify_reads(recovered, ctx.oracle, [], seed, verdict, every_key=True)
    return recovered


# ----------------------------------------------------------------------
# the end-to-end run
# ----------------------------------------------------------------------


def run_untraced(workload: Workload, startup_cpu_s: float) -> dict[str, Any]:
    """Set-up, timed segments, verification; the report dict.

    ``startup_cpu_s`` is the CPU this process used before the workload
    was made (interpreter start-up and imports, when the process exists
    only for this run); it is part of ``setup_s``.
    """
    verdict = Verdict()
    setups: list[float] = []
    segments: list[Segment] = []
    digests: list[str] = []
    ctx: Context | None = None
    reference: Context | None = None
    setup_sim: dict[str, dict[str, Any]] = {}

    def set_up(index: int) -> Context:
        started = _cpu()
        gc.collect()  # a dropped engine must not count in the next one's RSS
        built = workload.setup(index)
        setups.append(_cpu() - started)
        if not setup_sim:
            setup_sim.update(setup_sim_ratios(built))
        return built

    if workload.fresh_engine_per_segment:
        for index in range(workload.segments):
            ctx = None  # drop the previous engine before building the next
            ctx = set_up(index)
            segments.append(_timed(workload, ctx, index))
            if workload.digest_parity:
                digests.append(ctx.engine.state_digest())
            if index == workload.traced_segment:
                reference = ctx
    else:
        ctx = set_up(0)
        for index in range(workload.segments):
            segments.append(_timed(workload, ctx, index))
    for segment in segments:
        verdict.absorb(segment)
    # -- verification (outside both setup_s and the timed segments) ----
    assert ctx is not None
    if workload.digest_parity:
        verdict.check(
            len(set(digests)) == 1,
            f"state_digest differs across the engines: {digests}",
        )
    if workload.open_loop:
        assert reference is not None
        verify_durability(reference, workload.seed, verdict)
    else:
        verify_reads(
            ctx.engine, ctx.oracle, workload.absent_keys(), workload.seed,
            verdict,
        )
    if workload.scan_check:
        verify_scans(ctx.engine, ctx.oracle, workload.seed, verdict)
    setup_s = startup_cpu_s + sum(setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(workload, segments, ctx, setup_s, rss_mb, verdict)
    return {
        "workload": workload.name,
        "trace": False,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": verdict.failed == 0,
        "problems": verdict.problems,
        "startup_cpu_s": startup_cpu_s,
        "setup_rounds_s": setups,
        "segments": [segment_row(s) for s in segments],
        "sim_signature": sim_signature(segments, digests),
        "end_to_end": metrics,
        "setup_sim": setup_sim,
    }


def _timed(
    workload: Workload, ctx: Context, index: int,
    ledger: Ledger | None = None,
) -> Segment:
    segment = workload.run_segment(ctx, index, ledger)
    workload.check_segment(segment)
    return segment


def segment_row(segment: Segment) -> dict[str, Any]:
    row = {
        "label": segment.label,
        "ops": segment.ops,
        "cpu_s": segment.cpu_s,
        "ops_per_cpu_s": segment.ops_per_cpu_s,
        "vsec": segment.vsec,
        "data_seeks": segment.data_io.seeks,
        "data_bytes_read": segment.data_io.bytes_read,
        "data_bytes_written": segment.data_io.bytes_written,
        "log_bytes_written": segment.log_io.bytes_written,
        "failed": segment.failed,
    }
    row.update(segment.extra)
    for kind in ("write", "read", "queue"):
        samples = Samples(getattr(segment, f"{kind}_lat") or [])
        if samples.n:
            row[f"{kind}_n"] = samples.n
            row[f"{kind}_p50_ms"] = samples.ms(50)
            row[f"{kind}_p99_ms"] = samples.ms(99)
    return row


def sim_signature(segments: list[Segment], digests: list[str]) -> str:
    """One hash over everything the virtual clock and the device
    counters produced; equal signatures mean bit-identical ``sim_*``."""
    parts: list[Any] = list(digests)
    for segment in segments:
        parts.append(
            (
                segment.label, segment.ops, repr(segment.vsec),
                segment.data_io.seeks, segment.data_io.bytes_read,
                segment.data_io.bytes_written, segment.log_io.bytes_written,
                repr(segment.data_io.busy_seconds),
                repr(segment.log_io.busy_seconds),
                Samples(segment.write_lat or []).digest(),
                Samples(segment.read_lat or []).digest(),
                Samples(segment.queue_lat or []).digest(),
            )
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def sim_ratios(
    ops: int, vsec: float, seeks: int, device_bytes: int, user_bytes: int
) -> dict[str, dict[str, Any]]:
    """The virtual-clock metrics that are plain ratios of totals."""
    return {
        "sim_ops_per_vsec": (
            _value(ops / vsec, "1/s", ops) if ops and vsec > 0
            else _null("1/s", "zero virtual time elapsed")
        ),
        "sim_seeks_per_op": (
            _value(seeks / ops, "1/op", ops) if ops
            else _null("1/op", "no ops")
        ),
        "sim_write_amp": (
            _value(device_bytes / user_bytes, "x") if user_bytes
            else _null("x", "no user bytes written")
        ),
    }


def setup_sim_ratios(ctx: Context) -> dict[str, dict[str, Any]]:
    """``sim_ratios`` of a set-up (load and warm-up) just finished: the
    engine's counters all started at zero.  The driver's line carries
    these where a workload's timed segments give no number (run.py)."""
    stasis = ctx.stasis
    data, log = stasis.data_disk.stats, stasis.log_disk.stats
    return sim_ratios(
        ctx.setup_ops, ctx.engine.clock.now, data.seeks,
        data.bytes_written + log.bytes_written, ctx.user_bytes,
    )


def end_to_end(
    workload: Workload,
    segments: list[Segment],
    ctx: Context,
    setup_s: float,
    rss_mb: float,
    verdict: Verdict,
) -> dict[str, dict[str, Any]]:
    """Every end-to-end metric by name; null + reason where undefined."""
    name = workload.name
    out: dict[str, dict[str, Any]] = {}
    rates = [s.ops_per_cpu_s for s in segments]
    ops = sum(s.ops for s in segments)
    stasis = ctx.stasis  # the last engine (ingest's three are identical)
    allocated_bytes = stasis.page_size * sum(
        extent.length for extent in stasis.regions.allocated_extents
    )
    live_bytes = sum(len(k) + len(v) for k, v in ctx.oracle.items())
    if workload.open_loop:
        reference = segments[workload.traced_segment]
        write, read = Samples(reference.write_lat), Samples(reference.read_lat)
        queue = Samples(reference.queue_lat)
    else:
        write = Samples([x for s in segments for x in s.write_lat])
        read = Samples([x for s in segments for x in s.read_lat])
        queue = Samples([])
    computed: dict[str, dict[str, Any] | None] = {
        "host_ops_per_cpu_s": _value(
            statistics.median(rates), "1/s", len(rates)
        ),
        "host_peak_rss_mb": _value(rss_mb, "MiB"),
        "setup_s": _value(setup_s, "s"),
        **sim_ratios(
            ops,
            sum(s.vsec for s in segments),
            sum(s.data_io.seeks for s in segments),
            sum(
                s.data_io.bytes_written + s.log_io.bytes_written
                for s in segments
            ),
            sum(s.user_bytes for s in segments),
        ),
        "sim_write_p50_ms": _tail(write, 50, "ms"),
        "sim_write_p99_ms": _tail(write, 99, "ms"),
        "sim_write_p999_ms": _tail(write, 99.9, "ms"),
        "sim_read_p50_ms": _tail(read, 50, "ms"),
        "sim_read_p99_ms": _tail(read, 99, "ms"),
        "sim_space_amp": _value(allocated_bytes / live_bytes, "x"),
        "sim_queue_p99_ms": _tail(queue, 99, "ms"),
        "sim_max_rate_under_slo": (
            _max_rate_under_slo(segments) if workload.open_loop else None
        ),
        "error_rate": _value(
            verdict.failed / max(1, verdict.attempted), "x",
            verdict.attempted,
        ),
    }
    for metric in spec.END_TO_END:
        if name in metric.workloads:
            out[metric.name] = computed[metric.name]
        else:
            out[metric.name] = _null(
                metric.unit, f"not defined on {name}"
            )
    return out


def _max_rate_under_slo(segments: list[Segment]) -> dict[str, Any]:
    """Highest fixed rate whose ack p99 and backlog meet the limits."""
    best = None
    for segment in segments:
        ack = Samples(segment.write_lat)
        if ack.n < 1000:
            return _null(
                "1/s", f"n={ack.n}: fewer than 10 samples beyond p99", ack.n
            )
        if (
            ack.ms(99) <= spec.SLO_ACK_P99_MS
            and segment.extra["backlog_seconds"] <= spec.SLO_BACKLOG_S
        ):
            rate = segment.extra["offered_rate"]
            best = rate if best is None else max(best, rate)
    if best is None:
        return _null("1/s", "no offered rate met the limit")
    return _value(best, "1/s", len(segments))


# ----------------------------------------------------------------------
# the traced (per-layer) run
# ----------------------------------------------------------------------


def _one_pass(
    workload: Workload, observability: bool, ledger: Ledger | None = None
) -> tuple[Segment, Context, dict[str, Any], dict[str, Any]]:
    """Set up a fresh engine and run the traced segment once."""
    index = workload.traced_segment
    gc.collect()
    ctx = workload.setup(index, observability=observability)
    before = _probe(ctx)
    segment = _timed(workload, ctx, index, ledger)
    return segment, ctx, before, _probe(ctx)


def _probe(ctx: Context) -> dict[str, Any]:
    """Registry snapshot plus the one counter the registry lacks."""
    snapshot = ctx.engine.metrics()
    snapshot["log.forces"] = ctx.stasis.logical_log.forces
    return snapshot


def run_traced(workload: Workload, write_spans: bool = True) -> dict[str, Any]:
    """Three passes over the traced segment: observability off, on, and
    on with the ledger installed (patched before the engine is built,
    restored after)."""
    verdict = Verdict()
    off = _one_pass(workload, False)[0]
    on = _one_pass(workload, True)[0]
    ledger = Ledger()
    ledger.calibrate()
    ledger.install()
    try:
        traced, ctx, before, after = _one_pass(workload, True, ledger)
    finally:
        ledger.restore()
    for segment in (off, on, traced):
        verdict.absorb(segment)
    signatures = [sim_signature([s], []) for s in (off, on, traced)]
    verdict.check(
        len(set(signatures)) == 1,
        "virtual-clock results differ between the observability-off, "
        f"-on and traced passes: {signatures}",
    )
    layers = per_layer(workload, ledger, traced, ctx, before, after, off, on)
    spans = 0
    if write_spans:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = ledger.write_spans(
            os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
            workload.name,
        )
    return {
        "workload": workload.name,
        "trace": True,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": verdict.failed == 0,
        "problems": verdict.problems,
        "segments": [segment_row(s) for s in (off, on, traced)],
        "sim_signature": signatures[2],
        "per_layer": layers,
        "ledger": {
            "c_in_ns": ledger.c_in,
            "c_out_ns": ledger.c_out,
            "segment_cpu_ns": traced.cpu_s * 1e9,
            "segment_wall_ns": ledger.get("bench.loop", INCL_NS),
            "raw_self_sum_ns": ledger.raw_self_total(),
            "rows": ledger.rows(),
            "spans_written": spans,
            "ops_sampled": ledger.kept_ops,
        },
    }


def per_layer(
    workload: Workload,
    ledger: Ledger,
    seg: Segment,
    ctx: Context,
    before: dict[str, Any],
    after: dict[str, Any],
    off: Segment,
    on: Segment,
) -> dict[str, dict[str, Any]]:
    """The 69 per-layer metrics of the traced segment."""
    ops = seg.ops
    user = seg.user_bytes
    out: dict[str, dict[str, Any]] = {}

    def calls(*names: str) -> int:
        return sum(ledger.get(n, CALLS) for n in names)

    def layer_self(prefix: str) -> float:
        return sum(ledger.self_ns(n) for n in ledger.names(prefix))

    def delta(name: str) -> float:
        return float(after.get(name, 0.0)) - float(before.get(name, 0.0))

    def put(name: str, value: float | None, reason: str = "") -> None:
        unit = spec.LAYER_BY_NAME[name].unit
        if value is None:
            out[name] = _null(unit, reason or f"not exercised on {workload.name}")
        else:
            out[name] = _value(value, unit)

    def ratio(name: str, num: float, den: float, why: str) -> None:
        put(name, num / den if den else None, why)

    def per_call(name: str, ledger_name: str) -> None:
        n = calls(ledger_name)
        ratio(name, ledger.incl_ns(ledger_name), n, f"no {ledger_name} calls")

    # ycsb
    if ledger.setup_gen[CALLS]:  # prepared_operations(), during set-up
        gen_ns = ledger.setup_gen[INCL_NS]
        gen_ops = len(ctx.ops) + workload.sizes.warmup_ops
    else:  # operations(), consumed inside run_sessions
        gen_ns, gen_ops = ledger.incl_ns("ycsb.gen"), ops
    ratio("ycsb.gen_cpu_ns_per_op", gen_ns,
          gen_ops if gen_ns else 0,
          "keys come from load_keys(), not the op generator")
    closed = not workload.open_loop
    put("ycsb.driver_self_cpu_ns_per_op",
        (ledger.self_ns("bench.loop") + ledger.self_ns("ycsb.execute")) / ops
        if closed else None, "open loop: see ycsb.sessions_self_cpu_ns_per_op")
    put("ycsb.sessions_self_cpu_ns_per_op",
        None if closed else ledger.self_ns("ycsb.sessions") / ops,
        "closed loop: see ycsb.driver_self_cpu_ns_per_op")
    put("ycsb.sessions_achieved_over_offered",
        None if closed
        else seg.extra["achieved_rate"] / seg.extra["offered_rate"],
        "closed loop")
    # engine verbs + tree
    per_call("engine.get_cpu_ns_per_call", "engine.get")
    per_call("engine.put_cpu_ns_per_call", "engine.put")
    per_call("engine.rmw_cpu_ns_per_call", "engine.rmw")
    per_call("engine.scan_cpu_ns_per_call", "engine.scan")
    per_call("engine.commit_batch_cpu_ns_per_call", "engine.commit_batch")
    put("core.tree.self_cpu_ns_per_op", layer_self("engine.") / ops)
    # scheduler
    put("core.scheduler.on_write_calls_per_op",
        calls("core.scheduler.on_write") / ops)
    put("core.scheduler.self_cpu_ns_per_op",
        layer_self("core.scheduler.") / ops)
    put("core.scheduler.backpressure_engagements",
        delta("scheduler.backpressure_engagements"))
    # merge
    put("core.merge.step_calls_per_op", calls("core.merge.step") / ops)
    put("core.merge.self_cpu_ns_per_op", layer_self("core.merge.") / ops)
    put("core.merge.vsec_per_op",
        (ledger.get("core.merge.m01", INCL_V)
         + ledger.get("core.merge.m12", INCL_V)) / ops)
    put("core.merge.m01_completed", delta("merge.c0c1.passes"))
    put("core.merge.m12_completed", delta("merge.c1c2.passes"))
    ratio("core.merge.bytes_rewritten_per_user_byte",
          delta("merge.c0c1.bytes") + delta("merge.c1c2.bytes"), user,
          "no user bytes written")
    put("core.stall_count", delta("writes.stalls"))
    put("core.stall_vsec_total", ledger.get("core.merge.force_drain", INCL_V))
    put("core.stall_vsec_max", ledger.get("core.merge.force_drain", MAX_V))
    # memtable
    put("memtable.put_calls_per_op", calls("memtable.put") / ops)
    put("memtable.get_calls_per_op", calls("memtable.get") / ops)
    put("memtable.drain_calls_per_op", calls("memtable.remove") / ops)
    put("memtable.self_cpu_ns_per_op", layer_self("memtable.") / ops)
    ratio("memtable.get_hit_ratio", ledger.get("memtable.get", HITS),
          calls("memtable.get"), "no MemTable.get calls")
    put("memtable.rotations", delta("memtable.rotations"))
    # bloom
    probes = calls("bloom.probe")
    put("bloom.probe_calls_per_op", probes / ops)
    put("bloom.add_calls_per_op", calls("bloom.add") / ops)
    put("bloom.self_cpu_ns_per_op", layer_self("bloom.") / ops)
    ratio("bloom.negative_ratio", probes - ledger.get("bloom.probe", HITS),
          probes, "no bloom probes")
    positives = delta("bloom.hits") + delta("bloom.false_positives")
    ratio("bloom.false_positive_ratio", delta("bloom.false_positives"),
          positives, "no positive bloom probes")
    # sstable
    put("sstable.get_calls_per_op", calls("sstable.get") / ops)
    put("sstable.scan_calls_per_op", calls("sstable.scan") / ops)
    put("sstable.builder_add_calls_per_op", calls("sstable.builder_add") / ops)
    put("sstable.self_cpu_ns_per_op", layer_self("sstable.") / ops)
    ratio("sstable.device_bytes_per_scan", seg.data_io.bytes_read,
          calls("engine.scan"), "no scans")
    # buffer
    put("buffer.get_calls_per_op", calls("buffer.get") / ops)
    hits, misses = delta("buffer.hits"), delta("buffer.misses")
    ratio("buffer.hit_ratio", hits, hits + misses, "no buffer reads")
    put("buffer.evictions_per_op", delta("buffer.evictions") / ops)
    put("buffer.dirty_writebacks", delta("buffer.dirty_writebacks"))
    put("buffer.self_cpu_ns_per_op", layer_self("buffer.") / ops)
    # pagefile
    put("pagefile.read_calls_per_op",
        calls("pagefile.read_page", "pagefile.read_run") / ops)
    put("pagefile.write_calls_per_op",
        calls("pagefile.write_page", "pagefile.write_run") / ops)
    put("pagefile.self_cpu_ns_per_op", layer_self("pagefile.") / ops)
    # logical log
    put("log.append_calls_per_op", calls("log.append") / ops)
    put("log.forces", delta("log.forces"))
    ratio("log.bytes_per_user_byte", seg.log_io.bytes_written, user,
          "no user bytes written")
    put("log.self_cpu_ns_per_op", layer_self("log.") / ops)
    put("log.vsec_per_op",
        (ledger.get("log.force", INCL_V)
         + ledger.get("log.retain_ranges", INCL_V)) / ops)
    # group commit
    queue = ctx.stasis.group_commit
    grouped = workload.durability == "group"
    put("group_commit.commits", float(queue.commits) if grouped else None,
        "durability is not group")
    put("group_commit.forces_per_commit",
        queue.forces_per_commit if grouped and queue.commits else None,
        "durability is not group")
    groups = sum(queue.group_sizes.values())
    put("group_commit.mean_group_size",
        queue.commits / groups if grouped and groups else None,
        "durability is not group")
    delay = after.get("commit.queue_delay")
    put("group_commit.queue_delay_p99_ms",
        delay["p99"] * 1e3 if grouped and delay else None,
        "durability is not group")
    put("group_commit.self_cpu_ns_per_op",
        layer_self("group_commit.") / ops if grouped else None,
        "durability is not group")
    # simulated devices
    put("sim.disk.read_calls_per_op", seg.data_io.read_ops / ops)
    put("sim.disk.write_calls_per_op", seg.data_io.write_ops / ops)
    put("sim.disk.seeks_per_op", seg.data_io.seeks / ops)
    put("sim.disk.bytes_read_per_op", seg.data_io.bytes_read / ops)
    put("sim.disk.bytes_written_per_op", seg.data_io.bytes_written / ops)
    put("sim.disk.busy_vsec_per_op", seg.data_io.busy_seconds / ops)
    put("sim.disk.self_cpu_ns_per_op",
        (layer_self("sim.disk.") + layer_self("sim.logdisk.")) / ops)
    put("sim.logdisk.bytes_written_per_op", seg.log_io.bytes_written / ops)
    put("sim.logdisk.busy_vsec_per_op", seg.log_io.busy_seconds / ops)
    # the cost of watching, and what the ledger could not place
    put("obs.on_over_off_cpu_ratio", off.ops_per_cpu_s / on.ops_per_cpu_s)
    put("trace.overhead_ratio", on.ops_per_cpu_s / seg.ops_per_cpu_s)
    put("ledger.unattributed_cpu_share",
        1.0 - ledger.raw_self_total() / (seg.cpu_s * 1e9))
    total_v = ledger.get("bench.loop", INCL_V)
    owned = sum(
        ledger.foreground_self_vsec(n) for n in ledger.stats
        if n.startswith(VSEC_OWNERS)
    )
    ratio("ledger.unattributed_vsec_share", total_v - owned, total_v,
          "zero virtual time elapsed")
    assert set(out) == set(spec.LAYER_BY_NAME), set(spec.LAYER_BY_NAME) ^ set(out)
    return out

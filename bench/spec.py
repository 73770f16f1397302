"""Names, units, directions, clocks and bounds of every benchmark metric.

This is the benchmark's vocabulary; later issues refer to these names.
``BENCHMARK.json`` is generated from these tables (``contract()``); it
carries the subset of end-to-end metrics the driver's schema can hold,
the full table is what ``run.py suite`` prints and ``run.py compare``
judges.

Two clocks: ``sim`` numbers come from the virtual clock and the device
counters (deterministic — bit-identical for the same seed across runs,
processes and ``PYTHONHASHSEED``); ``host`` numbers come from
``time.process_time`` / ``ru_maxrss`` of this sandbox.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = (
    "ingest",
    "read_cold",
    "read_hot",
    "mixed_a",
    "scan_short",
    "sessions_ol",
)

#: One line each; copied into BENCHMARK.json (``why`` <= 200 chars).
WORKLOAD_WHY = {
    "ingest": (
        "3 fresh trees each load the same unordered keys: write path only "
        "(memtable, log, scheduler, merges, builder, bloom add, device "
        "writes); reads idle. Write-amp and write-latency claims live here."
    ),
    "read_cold": (
        "Uniform point reads, 10% of never-inserted keys, data 40x the "
        "buffer pool: read path only (bloom probe, index, buffer miss, "
        "device seek); exercises zero-seek bloom negatives."
    ),
    "read_hot": (
        "Zipfian reads of data that fits the buffer pool: same read code "
        "as read_cold but zero device time, so it is the bypass workload "
        "for any device/merge change and pure read-CPU."
    ),
    "mixed_a": (
        "YCSB-A, 50% reads 50% read-modify-write, Zipfian, while merges "
        "run: a gain for one path that costs the other shows here."
    ),
    "scan_short": (
        "YCSB-E short scans (1-4 records, 5% inserts): same layers through "
        "snapshot/iterators instead of point get; scans bypass the buffer "
        "pool and copy C0."
    ),
    "sessions_ol": (
        "Open loop: 8 simulated sessions, Poisson arrivals at fixed "
        "offered rates, group commit; the only path through commit_batch, "
        "log forces and the session queue. Latency is from arrival."
    ),
}

ALL = WORKLOADS
#: Workloads whose timed segments spend virtual time.  The issue lists
#: the closed loops; the same formulas hold on sessions_ol.
_DEVICE = ("ingest", "read_cold", "mixed_a", "scan_short", "sessions_ol")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "sim" | "both"
    bound: float  # share of the baseline by which it may get worse
    workloads: tuple[str, ...]
    definition: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "host_ops_per_cpu_s", "1/s", "higher", "host", 0.25, ALL,
        "simulated ops per process_time second, median timed segment "
        "(sessions_ol: median over the rate runs)",
    ),
    EndToEnd(
        "host_peak_rss_mb", "MiB", "lower", "host", 0.10, ALL,
        "ru_maxrss of the workload's process",
    ),
    EndToEnd(
        "setup_s", "s", "lower", "host", 0.25, ALL,
        "process CPU-seconds outside the timed segments and outside "
        "verification: interpreter start-up, imports and every set-up "
        "(engine build, load, op generation, warm-up)",
    ),
    EndToEnd(
        "sim_ops_per_vsec", "1/s", "higher", "sim", 0.10, _DEVICE,
        "timed ops / virtual seconds elapsed over the timed segments "
        "(closed loop, one client; sessions_ol: over the four rate runs)",
    ),
    EndToEnd(
        "sim_write_p50_ms", "ms", "lower", "sim", 0.01,
        ("ingest", "mixed_a", "sessions_ol"),
        "virtual ms per write-type op (put/insert/update incl. its read "
        "half); sessions_ol: arrival to durable ack at the reference rate",
    ),
    EndToEnd(
        "sim_write_p99_ms", "ms", "lower", "sim", 0.01,
        ("ingest", "mixed_a", "sessions_ol"), "as sim_write_p50_ms",
    ),
    EndToEnd(
        "sim_write_p999_ms", "ms", "lower", "sim", 0.01,
        ("ingest", "mixed_a", "sessions_ol"),
        "as sim_write_p50_ms; null unless >= 10 samples lie beyond it",
    ),
    EndToEnd(
        "sim_read_p50_ms", "ms", "lower", "sim", 0.01,
        ("read_cold", "mixed_a", "scan_short", "sessions_ol"),
        "virtual ms per read-type op (get or scan); sessions_ol: arrival "
        "to completion at the reference rate",
    ),
    EndToEnd(
        "sim_read_p99_ms", "ms", "lower", "sim", 0.01,
        ("read_cold", "mixed_a", "scan_short", "sessions_ol"),
        "as sim_read_p50_ms",
    ),
    EndToEnd(
        "sim_write_amp", "x", "lower", "sim", 0.10,
        ("ingest", "mixed_a", "scan_short", "sessions_ol"),
        "(data-device + log-device bytes written) / user bytes written "
        "(key + value) over the timed segments",
    ),
    EndToEnd(
        "sim_seeks_per_op", "1/op", "lower", "sim", 0.10, _DEVICE,
        "data-device seeks / ops in the timed segments",
    ),
    EndToEnd(
        "sim_space_amp", "x", "lower", "sim", 0.01, ("ingest", "mixed_a"),
        "region-allocator pages allocated x page size / live user bytes, "
        "at end of run",
    ),
    EndToEnd(
        "sim_queue_p99_ms", "ms", "lower", "sim", 0.01, ("sessions_ol",),
        "virtual ms from arrival to service start at the reference rate",
    ),
    EndToEnd(
        "sim_max_rate_under_slo", "1/s", "higher", "sim", 0.0,
        ("sessions_ol",),
        "highest fixed offered rate with ack p99 <= 25 ms and "
        "backlog_seconds <= 1 s",
    ),
    EndToEnd(
        "error_rate", "x", "lower", "both", 0.0, ALL,
        "failed / attempted: ops that raised plus oracle/durability "
        "mismatches found in verification",
    ),
)

#: The highest offered rate is judged against these (sessions_ol).
SLO_ACK_P99_MS = 25.0
SLO_BACKLOG_S = 1.0


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    exact: bool  # a count that repeats exactly for the same seed
    definition: str


def _cpu(name: str, what: str) -> PerLayer:
    return PerLayer(
        name, "ns", "lower", False,
        f"{what} (perf_counter_ns, wrapper cost subtracted; informational)",
    )


PER_LAYER: tuple[PerLayer, ...] = (
    # ycsb
    _cpu("ycsb.gen_cpu_ns_per_op", "op generation per generated op"),
    _cpu("ycsb.driver_self_cpu_ns_per_op",
         "self time of the driver loop + runner.execute per op"),
    _cpu("ycsb.sessions_self_cpu_ns_per_op",
         "self time of sessions.run_sessions per op"),
    PerLayer("ycsb.sessions_achieved_over_offered", "x", "higher", True,
             "achieved / offered rate; arrivals are on the virtual clock so "
             "generator lateness is zero by construction"),
    # engine verbs + tree
    _cpu("engine.get_cpu_ns_per_call", "inclusive time per KVEngine.get"),
    _cpu("engine.put_cpu_ns_per_call", "inclusive time per KVEngine.put"),
    _cpu("engine.rmw_cpu_ns_per_call",
         "inclusive time per KVEngine.read_modify_write"),
    _cpu("engine.scan_cpu_ns_per_call",
         "inclusive time per consumed KVEngine.scan"),
    _cpu("engine.commit_batch_cpu_ns_per_call",
         "inclusive time per KVEngine.commit_batch"),
    _cpu("core.tree.self_cpu_ns_per_op",
         "self time of the engine verbs (adapter + BLSM tree code not "
         "wrapped below) per op"),
    # scheduler
    PerLayer("core.scheduler.on_write_calls_per_op", "1/op", "lower", True,
             "MergeScheduler.on_write calls per op"),
    _cpu("core.scheduler.self_cpu_ns_per_op", "scheduler self time per op"),
    PerLayer("core.scheduler.backpressure_engagements", "count", "lower",
             True, "spring engagements (registry counter)"),
    # merge
    PerLayer("core.merge.step_calls_per_op", "1/op", "lower", True,
             "MergeProcess.step calls per op"),
    _cpu("core.merge.self_cpu_ns_per_op",
         "self time of MergeProcess.step/run_to_completion and "
         "BLSM.step_m01/step_m12/force_drain per op"),
    PerLayer("core.merge.vsec_per_op", "s/op", "lower", True,
             "virtual seconds under BLSM.step_m01/step_m12 per op"),
    PerLayer("core.merge.m01_completed", "count", "lower", True,
             "C0:C1 merge passes started (merge.c0c1.passes)"),
    PerLayer("core.merge.m12_completed", "count", "lower", True,
             "C1':C2 merges started (merge.c1c2.passes)"),
    PerLayer("core.merge.bytes_rewritten_per_user_byte", "x", "lower", True,
             "merge input bytes consumed / user bytes written"),
    PerLayer("core.stall_count", "count", "lower", True,
             "write stalls (writes.stalls)"),
    PerLayer("core.stall_vsec_total", "s", "lower", True,
             "virtual seconds inside BLSM.force_drain"),
    PerLayer("core.stall_vsec_max", "s", "lower", True,
             "longest single BLSM.force_drain, virtual seconds"),
    # memtable
    PerLayer("memtable.put_calls_per_op", "1/op", "lower", True,
             "MemTable.put calls per op"),
    PerLayer("memtable.get_calls_per_op", "1/op", "lower", True,
             "MemTable.get calls per op"),
    PerLayer("memtable.drain_calls_per_op", "1/op", "lower", True,
             "MemTable.remove calls per op (records drained into C1)"),
    _cpu("memtable.self_cpu_ns_per_op", "memtable self time per op"),
    PerLayer("memtable.get_hit_ratio", "x", "higher", True,
             "MemTable.get calls that found a record / calls"),
    PerLayer("memtable.rotations", "count", "lower", True,
             "memtable rotations (memtable.rotations)"),
    # bloom
    PerLayer("bloom.probe_calls_per_op", "1/op", "lower", True,
             "BloomFilter.__contains__ calls per op"),
    PerLayer("bloom.add_calls_per_op", "1/op", "lower", True,
             "BloomFilter.add calls per op"),
    _cpu("bloom.self_cpu_ns_per_op", "bloom self time per op"),
    PerLayer("bloom.negative_ratio", "x", "higher", True,
             "probes answered 'absent' / probes"),
    PerLayer("bloom.false_positive_ratio", "x", "lower", True,
             "positive probes that found no record / positive probes"),
    # sstable
    PerLayer("sstable.get_calls_per_op", "1/op", "lower", True,
             "SSTable.get calls per op"),
    PerLayer("sstable.scan_calls_per_op", "1/op", "lower", True,
             "SSTable.scan calls per op"),
    PerLayer("sstable.builder_add_calls_per_op", "1/op", "lower", True,
             "SSTableBuilder.add calls per op"),
    _cpu("sstable.self_cpu_ns_per_op",
         "sstable reader + builder self time per op"),
    PerLayer("sstable.device_bytes_per_scan", "B", "lower", True,
             "data-device bytes read / KVEngine.scan calls"),
    # buffer
    PerLayer("buffer.get_calls_per_op", "1/op", "lower", True,
             "BufferManager.get calls per op"),
    PerLayer("buffer.hit_ratio", "x", "higher", True,
             "buffer hits / (hits + misses)"),
    PerLayer("buffer.evictions_per_op", "1/op", "lower", True,
             "buffer evictions per op"),
    PerLayer("buffer.dirty_writebacks", "count", "lower", True,
             "dirty pages written back"),
    _cpu("buffer.self_cpu_ns_per_op", "buffer manager self time per op"),
    # pagefile
    PerLayer("pagefile.read_calls_per_op", "1/op", "lower", True,
             "PageFile.read_page + read_run calls per op"),
    PerLayer("pagefile.write_calls_per_op", "1/op", "lower", True,
             "PageFile.write_page + write_run calls per op"),
    _cpu("pagefile.self_cpu_ns_per_op", "page file self time per op"),
    # logical log
    PerLayer("log.append_calls_per_op", "1/op", "lower", True,
             "LogicalLog.log calls per op"),
    PerLayer("log.forces", "count", "lower", True,
             "completed logical-log forces"),
    PerLayer("log.bytes_per_user_byte", "x", "lower", True,
             "log-device bytes written / user bytes written"),
    _cpu("log.self_cpu_ns_per_op", "logical log self time per op"),
    PerLayer("log.vsec_per_op", "s/op", "lower", True,
             "virtual seconds under LogicalLog.force/retain_ranges per op, "
             "on whichever timeline issued them"),
    # group commit
    PerLayer("group_commit.commits", "count", "lower", True,
             "tickets acknowledged"),
    PerLayer("group_commit.forces_per_commit", "x", "lower", True,
             "device forces / tickets acknowledged"),
    PerLayer("group_commit.mean_group_size", "x", "higher", True,
             "tickets per leader force"),
    PerLayer("group_commit.queue_delay_p99_ms", "ms", "lower", True,
             "p99 enqueue-to-ack delay (commit.queue_delay histogram)"),
    _cpu("group_commit.self_cpu_ns_per_op", "commit queue self time per op"),
    # simulated devices
    PerLayer("sim.disk.read_calls_per_op", "1/op", "lower", True,
             "data-device reads per op"),
    PerLayer("sim.disk.write_calls_per_op", "1/op", "lower", True,
             "data-device writes per op"),
    PerLayer("sim.disk.seeks_per_op", "1/op", "lower", True,
             "data-device seeks per op"),
    PerLayer("sim.disk.bytes_read_per_op", "B/op", "lower", True,
             "data-device bytes read per op"),
    PerLayer("sim.disk.bytes_written_per_op", "B/op", "lower", True,
             "data-device bytes written per op"),
    PerLayer("sim.disk.busy_vsec_per_op", "s/op", "lower", True,
             "data-device busy virtual seconds per op"),
    _cpu("sim.disk.self_cpu_ns_per_op",
         "SimDisk.read/write/sync_barrier self time (both devices) per op"),
    PerLayer("sim.logdisk.bytes_written_per_op", "B/op", "lower", True,
             "log-device bytes written per op"),
    PerLayer("sim.logdisk.busy_vsec_per_op", "s/op", "lower", True,
             "log-device busy virtual seconds per op"),
    # cost of watching, and what the ledger could not place
    PerLayer("obs.on_over_off_cpu_ratio", "x", "lower", False,
             "untraced segment CPU with observability=True / False"),
    PerLayer("trace.overhead_ratio", "x", "lower", False,
             "traced / untraced segment CPU (both observability=True)"),
    PerLayer("ledger.unattributed_cpu_share", "x", "lower", False,
             "1 - (sum of raw self times) / segment process_time"),
    PerLayer("ledger.unattributed_vsec_share", "x", "lower", True,
             "share of the segment's virtual time that advanced outside "
             "the devices, the commit queue and the session driver's idle "
             "wait"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}

#: The end-to-end metrics BENCHMARK.json carries: the driver's schema
#: wants every one as a non-zero number on every workload and rejects a
#: time that reads the same on every run (README, "What BENCHMARK.json
#: carries").
DRIVER_END_TO_END = (
    "host_ops_per_cpu_s", "host_peak_rss_mb", "setup_s",
    "sim_ops_per_vsec", "sim_seeks_per_op", "sim_write_amp",
)


def contract() -> dict:
    """BENCHMARK.json, from the tables above (a self-test holds the
    file to this)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 10,
        "workloads": [
            {"name": name, "why": WORKLOAD_WHY[name]} for name in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in map(E2E_BY_NAME.get, DRIVER_END_TO_END)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }

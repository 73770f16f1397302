"""Post-run analysis of a trace: stall attribution and merge accounting.

These helpers answer the question the event taxonomy exists for: *why
did this write stall, and what was each level doing at the time?*  They
operate on the plain event list a :class:`~repro.obs.trace.TraceRecorder`
returns, so they work equally on a live engine or on events replayed
from a dump.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class StallInterval:
    """One reconstructed write stall on the virtual timeline."""

    start: float
    end: float
    cause: str
    span_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


def reconstruct_stalls(events: Iterable[TraceEvent]) -> list[StallInterval]:
    """Pair ``stall_begin``/``stall_end`` events into intervals.

    A ``stall_begin`` whose end fell off the ring (or vice versa) is
    dropped — only fully witnessed stalls are returned.
    """
    open_begins: dict[Any, TraceEvent] = {}
    stalls: list[StallInterval] = []
    for event in events:
        if event.etype == "stall_begin":
            open_begins[event.get("span_id")] = event
        elif event.etype == "stall_end":
            begin = open_begins.pop(event.get("span_id"), None)
            if begin is not None:
                stalls.append(
                    StallInterval(
                        start=begin.time,
                        end=event.time,
                        cause=str(begin.get("cause", "unknown")),
                        span_id=begin.get("span_id"),
                    )
                )
    return stalls


def events_within(
    events: Iterable[TraceEvent], start: float, end: float
) -> list[TraceEvent]:
    """Events with ``start <= time <= end``, in emission order."""
    return [e for e in events if start <= e.time <= end]


def stall_causes(stalls: Iterable[StallInterval]) -> list[tuple[str, int, float]]:
    """``(cause, count, total_seconds)`` rows, worst total first."""
    counts: TallyCounter[str] = TallyCounter()
    seconds: dict[str, float] = {}
    for stall in stalls:
        counts[stall.cause] += 1
        seconds[stall.cause] = seconds.get(stall.cause, 0.0) + stall.duration
    return sorted(
        ((cause, counts[cause], seconds[cause]) for cause in counts),
        key=lambda row: -row[2],
    )


def merge_seconds_by_level(events: Iterable[TraceEvent]) -> dict[str, float]:
    """Virtual seconds of merge work per level (from progress events)."""
    seconds: dict[str, float] = {}
    for event in events:
        if event.etype == "merge_progress":
            level = str(event.get("level", "?"))
            seconds[level] = seconds.get(level, 0.0) + float(
                event.get("seconds", 0.0)
            )
    return seconds


_MERGE_IO_FIELDS = ("reads", "seeks", "writes", "write_seeks")


def merge_io_by_level(events: Iterable[TraceEvent]) -> dict[str, list[int]]:
    """Per level: finished passes, then their data-device ``reads``,
    ``seeks``, ``writes`` and ``write_seeks`` (from finish events)."""
    totals: dict[str, list[int]] = {}
    for event in events:
        if event.etype == "merge_finish":
            row = totals.setdefault(
                str(event.get("level", "?")), [0] * (1 + len(_MERGE_IO_FIELDS))
            )
            row[0] += 1
            for i, name in enumerate(_MERGE_IO_FIELDS, start=1):
                row[i] += int(event.get(name, 0))
    return totals


def summarize_trace(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Aggregate a trace into the numbers the CLI prints.

    Returns event counts by type, reconstructed stalls with their
    causes, and per-level merge time and merge I/O.
    """
    events = list(events)
    counts: TallyCounter[str] = TallyCounter(e.etype for e in events)
    stalls = reconstruct_stalls(events)
    return {
        "events": len(events),
        "counts_by_type": dict(sorted(counts.items())),
        "stalls": stalls,
        "stall_causes": stall_causes(stalls),
        "merge_seconds": merge_seconds_by_level(events),
        "merge_io": merge_io_by_level(events),
        "span": (
            (events[0].time, events[-1].time) if events else (0.0, 0.0)
        ),
    }


def format_summary(events: Iterable[TraceEvent]) -> list[str]:
    """Human-readable trace summary lines for the CLI."""
    summary = summarize_trace(events)
    start, end = summary["span"]
    lines = [
        f"trace: {summary['events']} events over "
        f"[{start:.3f}s, {end:.3f}s] virtual",
        "events by type:",
    ]
    for etype, count in summary["counts_by_type"].items():
        lines.append(f"  {etype:24s} {count:>8d}")
    stalls: list[StallInterval] = summary["stalls"]
    if stalls:
        total = sum(s.duration for s in stalls)
        longest = max(stalls, key=lambda s: s.duration)
        lines.append(
            f"stalls: {len(stalls)} totalling {total * 1e3:.2f} ms "
            f"(longest {longest.duration * 1e3:.2f} ms "
            f"at t={longest.start:.3f}s)"
        )
        lines.append("top stall causes:")
        for cause, count, seconds in summary["stall_causes"]:
            lines.append(
                f"  {cause:24s} {count:>6d} stalls  {seconds * 1e3:10.2f} ms"
            )
    else:
        lines.append("stalls: none recorded")
    merge_seconds: dict[str, float] = summary["merge_seconds"]
    if merge_seconds:
        lines.append("merge time by level:")
        for level in sorted(merge_seconds):
            lines.append(
                f"  {level:24s} {merge_seconds[level] * 1e3:10.2f} ms"
            )
    merge_io: dict[str, list[int]] = summary["merge_io"]
    if merge_io:
        lines.append("merge I/O by level (finished passes, data device):")
        lines.append(
            f"  {'level':8s} {'passes':>7s} {'reads':>7s} {'seeks':>7s} "
            f"{'writes':>7s} {'write seeks':>12s}"
        )
        for level in sorted(merge_io):
            passes, reads, seeks, writes, write_seeks = merge_io[level]
            lines.append(
                f"  {level:8s} {passes:>7d} {reads:>7d} {seeks:>7d} "
                f"{writes:>7d} {write_seeks:>12d}"
            )
    return lines


def format_device_summary(runtime: Any) -> list[str]:
    """Per-device utilization and fg/bg I/O split lines for the CLI.

    One row per registered device: how busy it was over the observation
    window, how that busy time splits between synchronous foreground
    service (merge steps included) and the log writer's background work,
    how long foreground requests queued behind the device's busy
    horizon, and ``seq eff``: the share of busy time spent transferring
    rather than positioning (is this device streaming or seeking?).
    """
    rows = runtime.device_summary()
    if not rows:
        return []
    lines = ["devices (foreground vs background):"]
    lines.append(
        f"  {'device':16s} {'util':>6s} {'fg busy':>10s} {'bg busy':>10s} "
        f"{'fg wait':>10s} {'backlog':>10s} {'seq eff':>8s}"
    )
    for row in rows:
        lines.append(
            f"  {row['disk']:16s} "
            f"{row['utilization'] * 100:5.1f}% "
            f"{row['fg_busy_seconds'] * 1e3:8.2f}ms "
            f"{row['bg_busy_seconds'] * 1e3:8.2f}ms "
            f"{row['fg_wait_seconds'] * 1e3:8.2f}ms "
            f"{row['backlog_seconds'] * 1e3:8.2f}ms "
            f"{row['sequential_efficiency'] * 100:7.1f}%"
        )
    return lines


def format_memory_summary(engine: Any) -> list[str]:
    """RAM the tree holds, by role (Appendix A), for the CLI.

    ``merge_buffers`` is what the merges open right now hold: one
    streaming unit of read-ahead per input stream plus one of
    write-behind per builder.  Empty for engines whose tree has no
    ``memory_footprint``.
    """
    footprint = getattr(
        getattr(engine, "tree", engine), "memory_footprint", None
    )
    if footprint is None:
        return []
    lines = ["memory (RAM by role):"]
    for role, nbytes in footprint().items():
        lines.append(f"  {role:14s} {nbytes / 1e6:9.3f}MB")
    return lines


def format_shard_summary(engine: Any) -> list[str]:
    """Per-shard load-balance rows for the CLI (sharded engines only).

    One row per shard: ops routed to it, the share of the run it spent
    servicing sub-batches (the load-balance picture — on uniform keys
    the fractions should be near-equal), its own device utilization,
    and its device counters.  Engines without a ``shard_rows`` surface
    get an empty list, so single-tree summaries stay unchanged.
    """
    shard_rows = getattr(engine, "shard_rows", None)
    if shard_rows is None:
        return []
    rows = shard_rows()
    if not rows:
        return []
    lines = ["shards (load balance and utilization):"]
    lines.append(
        f"  {'shard':>5s} {'ops':>8s} {'busy':>10s} {'share':>7s} "
        f"{'util':>6s} {'seeks':>8s} {'read':>9s} {'written':>9s}"
    )
    for row in rows:
        lines.append(
            f"  {row['shard']:>5d} {row['ops']:>8d} "
            f"{row['busy_seconds'] * 1e3:8.2f}ms "
            f"{row['busy_fraction'] * 100:5.1f}% "
            f"{row['utilization'] * 100:5.1f}% "
            f"{row['data_seeks']:>8d} "
            f"{row['data_bytes_read'] / 1e6:7.1f}MB "
            f"{row['data_bytes_written'] / 1e6:7.1f}MB"
        )
    return lines


def format_layout_summary(engine: Any) -> list[str]:
    """On-disk layout lines for the CLI trace summary.

    One row per live component with its page fill (record bytes over
    the bytes of the pages its blocks own), then everything the
    component builders wrote, split into records and padding — the
    layout's share of a device write-amplification number.  Empty for
    engines whose tree has no ``level_view``.
    """
    level_view = getattr(getattr(engine, "tree", engine), "level_view", None)
    if level_view is None:
        return []
    lines = [
        "components (on-disk layout):",
        f"  {'level':>5s} {'keys':>9s} {'records':>10s} {'page fill':>10s}",
    ]
    for level, runs in enumerate(level_view()["levels"]):
        for run in runs:
            lines.append(
                f"  {level:>5d} {run['key_count']:>9d} "
                f"{run['nbytes'] / 1e6:8.2f}MB {run['page_fill']:>10.3f}"
            )
    metrics = engine.runtime.metrics
    packed = metrics.value("sstable.bytes_packed")
    padded = metrics.value("sstable.bytes_padded")
    if packed > 0:
        lines.append(
            f"  built: {packed / 1e6:.2f}MB of records + "
            f"{padded / 1e6:.2f}MB of padding "
            f"(fill {packed / (packed + padded):.3f})"
        )
    return lines


_FAULT_METRIC_LABELS = (
    ("faults.transient_errors", "transient I/O errors"),
    ("faults.torn_writes", "torn writes"),
    ("faults.crash_points", "crash points"),
    ("faults.corruptions", "corruption marks"),
    ("faults.latency_spikes", "latency spikes"),
    ("retry.retries", "retries"),
    ("retry.exhausted", "retry budgets exhausted"),
    ("wal.torn_tail_truncations", "WAL torn tails truncated"),
    ("log.torn_records_dropped", "torn log records dropped"),
    ("pagefile.corrupt_reads", "corrupt page reads"),
)


def format_fault_summary(metrics: "MetricsRegistry") -> list[str]:
    """Fault/retry/corruption counter lines for the CLI trace summary.

    Returns an empty list when nothing fault-related ever fired, so a
    healthy run's summary stays unchanged.
    """
    rows = [
        (label, metrics.value(name, 0.0))
        for name, label in _FAULT_METRIC_LABELS
    ]
    backoff = metrics.value("retry.backoff_seconds", 0.0)
    spike = metrics.value("faults.latency_seconds", 0.0)
    if all(value == 0.0 for _, value in rows) and backoff == 0.0 and spike == 0.0:
        return []
    lines = ["faults and recovery hardening:"]
    for label, value in rows:
        if value:
            lines.append(f"  {label:24s} {int(value):>8d}")
    if backoff:
        lines.append(f"  {'retry backoff':24s} {backoff * 1e3:>8.2f} ms")
    if spike:
        lines.append(f"  {'injected latency':24s} {spike * 1e3:>8.2f} ms")
    return lines


_BUFFER_METRIC_LABELS = (
    ("buffer.hits", "page hits"),
    ("buffer.misses", "page misses"),
    ("buffer.evictions", "evictions"),
    ("buffer.dirty_writebacks", "dirty writebacks"),
    ("buffer.offered", "pages offered by scans"),
    ("buffer.deferred", "offers deferred (ghost list)"),
)


def format_buffer_summary(metrics: "MetricsRegistry") -> list[str]:
    """Buffer-pool lines for the CLI trace summary.

    Hits and misses count pages, from ``get`` and from the blocks scans
    look up; an *offer* is a page a scan read itself and handed to the
    pool, *deferred* when the pool was full and it was the page's first
    miss (remembered, not installed).  Empty for engines with no pool.
    """
    if "buffer.hits" not in metrics:
        return []
    lines = ["buffer pool:"]
    for name, label in _BUFFER_METRIC_LABELS:
        lines.append(f"  {label:30s} {int(metrics.value(name, 0.0)):>8d}")
    lookups = metrics.value("buffer.hits") + metrics.value("buffer.misses")
    if lookups:
        ratio = metrics.value("buffer.hits") / lookups
        lines.append(f"  {'hit ratio':30s} {ratio:>8.3f}")
    return lines


_VERSION_METRIC_LABELS = (
    ("versions.deferred_frees", "frees deferred past a view"),
    ("versions.zombie_frees", "deferred frees completed"),
    ("versions.cow_copies", "C0 copies (write under view)"),
    ("versions.live_views", "views still open"),
)


def format_version_summary(metrics: "MetricsRegistry") -> list[str]:
    """Snapshot bookkeeping lines for the CLI trace summary.

    What MVCC reads cost the run: component frees a merge had to defer
    past an open view, and C0 copies taken because a write landed under
    one (zero when every snapshot closed before the next write).  Empty
    for engines without a version set.
    """
    if "versions.live_views" not in metrics:
        return []
    lines = ["snapshots (version set):"]
    for name, label in _VERSION_METRIC_LABELS:
        lines.append(f"  {label:30s} {int(metrics.value(name, 0.0)):>8d}")
    return lines

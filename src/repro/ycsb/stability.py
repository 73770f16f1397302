"""The performance-stability bench (``repro stability``, BENCH_9).

bLSM's central claim is *bounded* write latency, not peak throughput —
and, as *On Performance Stability in LSM-based Storage Systems* (Luo &
Carey) shows, the phenomena that decide it (write stalls, merge
backpressure, p99.9 variance) only appear in latency-over-*time*
timelines, never in end-of-run aggregates.  This module measures the
claim the way production systems do: it drives the open-loop sessions
runner (:func:`repro.ycsb.sessions.run_sessions`) for an extended
simulated duration against each configuration of a scheduler/policy
matrix, sampling per-window p50/p99/p99.9 write latency, queueing
delay, commit-queue depth, write-stall and merge-backpressure counters
into time-series.

The matrix reproduces the paper's contrast directly:

* ``spring_gear`` — the paper's scheduler: proportional backpressure
  spreads merge work across every write, so the windowed p99.9 stays
  near the per-tick bound.
* ``gear`` — progress-coupled pacing without the spring (Section 4.1).
* ``unthrottled`` — the naive base-LSM scheduler: merges run only when
  C0 fills and the unlucky write absorbs the whole cascade, producing
  the periodic latency spikes of the paper's Figure 7 (and Luo &
  Carey's stall plots).
* ``leveled`` / ``tiered`` — the PR 6 compaction policies under the
  spring-gear pacer, placing the design space on the same timeline.

Results assemble into the shared :class:`~repro.obs.report.BenchReport`
envelope (``repro stability --json BENCH_9.json``); the headline
metric per configuration is the **p99.9 write-latency ceiling** — the
worst windowed p99.9 — which for ``spring_gear`` must sit strictly
below ``unthrottled``'s (the bounded-latency claim as a gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Literal, Sequence

from repro.baselines.interface import KVEngine
from repro.errors import UsageError
from repro.obs.timeline import percentile
from repro.ycsb.sessions import ARRIVAL_MODES, SessionsResult, run_sessions
from repro.ycsb.workload import WorkloadSpec

__all__ = [
    "STABILITY_MATRIX",
    "StabilityConfig",
    "StabilityResult",
    "run_stability",
    "run_stability_matrix",
    "stability_metrics",
    "stability_scenario",
]


@dataclass(frozen=True)
class StabilityConfig:
    """One cell of the scheduler/policy matrix."""

    name: str
    engine: str = "blsm"
    scheduler: str = "spring_gear"
    throttled: bool = True
    """Whether the scheduler paces merges (False marks the baseline the
    bounded-latency gate compares against)."""


#: The named matrix ``repro stability --configs`` selects from.
STABILITY_MATRIX: dict[str, StabilityConfig] = {
    config.name: config
    for config in (
        StabilityConfig("spring_gear", "blsm", "spring_gear"),
        StabilityConfig("gear", "blsm", "gear"),
        StabilityConfig("unthrottled", "blsm", "naive", throttled=False),
        StabilityConfig("leveled", "leveled", "spring_gear"),
        StabilityConfig("tiered", "tiered", "spring_gear"),
    )
}


@dataclass
class StabilityResult:
    """One configuration's stability run, timeline included."""

    config: StabilityConfig
    sessions: SessionsResult
    timeline: list[dict[str, float]]
    """Per-window rows merging latency percentiles (``write_p999``,
    ``queue_p99``, ...) with stall/backpressure deltas for the window."""
    stall_count: float
    stall_seconds: float
    backpressure_engagements: float
    write_p999_ceiling: float
    """Max over windows of the window's write-latency p99.9 — the
    stability headline (small = bounded write latency)."""
    queue_p999_ceiling: float
    max_window_stall_seconds: float

    def summary(self) -> dict[str, Any]:
        """The config's metric block in the BENCH_9 report."""
        windows = [
            row.get("write_p999", 0.0)
            for row in self.timeline
            if row.get("write_n", 0.0) > 0
        ]
        return {
            "engine": self.sessions.engine,
            "scheduler": self.config.scheduler,
            "throttled": self.config.throttled,
            "operations": self.sessions.operations,
            "achieved_rate": self.sessions.achieved_rate,
            "backlog_seconds": self.sessions.backlog_seconds,
            "write": self.sessions.ack_latency.summary(),
            "queueing": self.sessions.queueing.summary(),
            "write_p999_ceiling": self.write_p999_ceiling,
            "write_p999_median_window": percentile(windows, 50.0),
            "queue_p999_ceiling": self.queue_p999_ceiling,
            "stalls": {
                "count": self.stall_count,
                "seconds": self.stall_seconds,
                "max_window_seconds": self.max_window_stall_seconds,
            },
            "backpressure_engagements": self.backpressure_engagements,
            "timeline": self.timeline,
        }


def _metric_probe(engine: KVEngine):
    """A cumulative stall/backpressure sampler for ``run_sessions``.

    Reads the PR 1 metrics registry: the write-stall counter and
    stall-seconds histogram the tree's ``force_drain`` path maintains,
    plus the spring scheduler's pressure gauge and engagement counter.
    Engines without a runtime (none in the stability matrix) sample
    zeros rather than failing.
    """
    runtime = getattr(engine, "runtime", None)

    def probe() -> dict[str, float]:
        if runtime is None:
            return {}
        metrics = runtime.metrics
        stall_hist = metrics.get("writes.stall_seconds")
        return {
            "stall_count": metrics.value("writes.stalls", 0.0),
            "stall_seconds": (
                float(stall_hist.sum) if stall_hist is not None else 0.0
            ),
            "backpressure_engagements": metrics.value(
                "scheduler.backpressure_engagements", 0.0
            ),
            "pressure": metrics.value("scheduler.pressure", 0.0),
        }

    return probe


def _stall_windows(
    probes: Sequence[dict[str, float]],
) -> list[dict[str, float]]:
    """Difference consecutive cumulative probes into per-window deltas.

    Probe ``i`` holds counters as of its boundary time; the row at
    ``t = probes[i]["t"]`` covers activity until the next probe.
    """
    rows: list[dict[str, float]] = []
    for before, after in zip(probes, probes[1:]):
        rows.append(
            {
                "t": before["t"],
                "stall_count": after.get("stall_count", 0.0)
                - before.get("stall_count", 0.0),
                "stall_seconds": after.get("stall_seconds", 0.0)
                - before.get("stall_seconds", 0.0),
                "backpressure_engagements": after.get(
                    "backpressure_engagements", 0.0
                )
                - before.get("backpressure_engagements", 0.0),
                "pressure": after.get("pressure", 0.0),
                "queue_depth": after.get("queue_depth", 0.0),
            }
        )
    return rows


def run_stability(
    config: StabilityConfig,
    duration_seconds: float = 4.0,
    rate: float = 2500.0,
    sessions: int = 8,
    arrival: Literal[ARRIVAL_MODES] = "poisson",
    records: int = 10_000,
    value_bytes: int = 1000,
    read_proportion: float = 0.1,
    c0_bytes: int = 1 << 20,
    cache_pages: int = 128,
    windows: int = 24,
    seed: int = 0,
) -> StabilityResult:
    """Run one matrix cell for ``duration_seconds`` of offered load.

    Builds the engine through the registry (async durability — the
    write path under test is merge scheduling, not log forcing), loads
    ``records`` keys, then offers ``rate`` ops/s of a write-heavy mix
    through N open-loop sessions, probing stall counters at every
    window boundary.

    The defaults are the whole scenario (``repro stability`` reads them
    from this signature).  They are sized so the gate exercises merges:
    10 MB of data over a 1 MiB C0 leaves the C1 generation and C2 each
    above two of the HDD model's 1.2 MiB streaming units when the load
    starts (tests/test_stability.py asserts it).  ``rate`` is 0.72 of
    the slowest cell's closed-loop rate on the same mix — ``tiered``,
    3 475 ops/vsec over 10 000 operations (the five cells measure
    3 475-3 725) — so every cell achieves the offered rate within 2 %
    and the ceilings compare merge pacing, not a growing backlog.
    """
    from repro.engines import build_engine
    from repro.ycsb.runner import load_phase

    ops = max(1, int(duration_seconds * rate))
    spec = WorkloadSpec(
        record_count=records,
        operation_count=ops,
        read_proportion=read_proportion,
        blind_write_proportion=1.0 - read_proportion,
        request_distribution="uniform",
        value_bytes=value_bytes,
    )
    engine = build_engine(
        config.engine,
        c0_bytes=c0_bytes,
        cache_pages=cache_pages,
        scheduler=config.scheduler,
        durability="async",
    )
    try:
        load_phase(engine, spec, seed=seed)
        result = run_sessions(
            engine,
            spec,
            rate,
            sessions=sessions,
            arrival=arrival,
            seed=seed + 1,
            window_seconds=max(1e-9, duration_seconds / windows),
            probe=_metric_probe(engine),
        )
    finally:
        engine.close()

    stall_rows = _stall_windows(result.probes)
    by_t = {row["t"]: row for row in stall_rows}
    timeline: list[dict[str, float]] = []
    for row in result.timeline:
        merged = dict(row)
        stall = by_t.pop(row["t"], None)
        if stall is not None:
            merged.update(
                {key: value for key, value in stall.items() if key != "t"}
            )
        timeline.append(merged)
    # Stall windows with no arrivals (the engine mid-drain) still count.
    timeline.extend(sorted(by_t.values(), key=lambda row: row["t"]))
    timeline.sort(key=lambda row: row["t"])

    first = result.probes[0] if result.probes else {}
    last = result.probes[-1] if result.probes else {}

    def total(key: str) -> float:
        return last.get(key, 0.0) - first.get(key, 0.0)

    return StabilityResult(
        config=config,
        sessions=result,
        timeline=timeline,
        stall_count=total("stall_count"),
        stall_seconds=total("stall_seconds"),
        backpressure_engagements=total("backpressure_engagements"),
        write_p999_ceiling=max(
            (row.get("write_p999", 0.0) for row in timeline), default=0.0
        ),
        queue_p999_ceiling=max(
            (row.get("queue_p999", 0.0) for row in timeline), default=0.0
        ),
        max_window_stall_seconds=max(
            (row.get("stall_seconds", 0.0) for row in timeline), default=0.0
        ),
    )


def run_stability_matrix(
    configs: Sequence[StabilityConfig],
    progress: Callable[[str], None] | None = None,
    **kwargs: Any,
) -> list[StabilityResult]:
    """Run every requested matrix cell (same load, fresh engine each)."""
    results: list[StabilityResult] = []
    for config in configs:
        if progress is not None:
            progress(
                f"  stability: {config.name} "
                f"(engine={config.engine}, scheduler={config.scheduler})"
            )
        results.append(run_stability(config, **kwargs))
    return results


def stability_metrics(results: Sequence[StabilityResult]) -> dict[str, Any]:
    """Matrix results as the BENCH_9 ``metrics`` block."""
    from repro.analysis.stability import bounded_latency_block

    metrics: dict[str, Any] = {
        "configs": {
            result.config.name: result.summary() for result in results
        },
    }
    bounded = bounded_latency_block(results)
    if bounded is not None:
        metrics["bounded_latency"] = bounded
    return metrics


def stability_scenario(
    *,
    configs: str = "all",
    progress: Callable[[str], None] | None = None,
    **scenario: Any,
) -> dict[str, Any]:
    """Performance-stability harness (``repro stability``, BENCH_9).

    Sweeps ``configs`` — ``all``, or a comma-separated subset of the
    scheduler/policy matrix ``spring_gear,gear,unthrottled,leveled,
    tiered`` — under an extended open-loop sessions run, sampling
    windowed p50/p99/p99.9 write latency, queueing delay, commit-queue
    depth and the stall/backpressure counters into per-config
    time-series (docs/benchmarking.md).  Every other parameter is
    :func:`run_stability`'s, whose defaults are the committed
    ``BENCH_9.json`` scenario: ``duration_seconds`` of offered load at
    ``rate`` ops per virtual second from ``sessions`` open-loop sessions,
    ``read_proportion`` of it reads (the rest blind writes), sampled into
    ``windows`` timeline windows.

    ``--assert-bounded`` gates on the paper's bounded-latency claim —
    the spring-and-gear p99.9 write-latency ceiling strictly below the
    unthrottled baseline's; ``--assert-ceiling SECONDS`` bounds the
    ceiling itself.
    """
    names = [name.strip() for name in configs.split(",") if name.strip()]
    if configs == "all":
        names = list(STABILITY_MATRIX)
    unknown = [name for name in names if name not in STABILITY_MATRIX]
    if unknown:
        raise UsageError(
            f"unknown stability config(s) {', '.join(unknown)}; "
            f"expected one of {', '.join(STABILITY_MATRIX)}"
        )
    selected = [STABILITY_MATRIX[name] for name in names]
    return stability_metrics(
        run_stability_matrix(selected, progress, **scenario)
    )

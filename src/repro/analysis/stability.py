"""Stability-bench analysis: ceilings and tables.

Companions to :mod:`repro.ycsb.stability`: given a matrix of stability
runs (or a saved BENCH_9 :class:`~repro.obs.report.BenchReport`), this
module derives the bounded-latency verdict the paper's Section 4 claims
(the spring-and-gear scheduler's windowed p99.9 write-latency ceiling
sits strictly below the unthrottled base LSM's) and renders the
human-readable matrix table.  The CI perf gate regenerates the
committed BENCH_9.json and diffs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.report import BenchReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ycsb.stability import StabilityResult

__all__ = [
    "bounded_latency_block",
    "bounded_latency_check",
    "stability_table",
]


def bounded_latency_block(
    results: Sequence["StabilityResult"],
) -> dict[str, Any] | None:
    """The bounded-latency contrast block for the BENCH_9 report.

    Compares the worst windowed write-latency p99.9 of the throttled
    flagship (``spring_gear`` when present, else the first throttled
    config) against the unthrottled baseline.  ``None`` when the matrix
    has no throttled/unthrottled pair to contrast.
    """
    throttled = next(
        (r for r in results if r.config.name == "spring_gear"),
        next((r for r in results if r.config.throttled), None),
    )
    unthrottled = next(
        (r for r in results if not r.config.throttled), None
    )
    if throttled is None or unthrottled is None:
        return None
    ratio = (
        unthrottled.write_p999_ceiling / throttled.write_p999_ceiling
        if throttled.write_p999_ceiling > 0
        else float("inf")
    )
    return {
        "throttled": throttled.config.name,
        "unthrottled": unthrottled.config.name,
        "throttled_p999_ceiling": throttled.write_p999_ceiling,
        "unthrottled_p999_ceiling": unthrottled.write_p999_ceiling,
        "ceiling_ratio": ratio,
        "bounded": bounded_latency_check(
            throttled.write_p999_ceiling, unthrottled.write_p999_ceiling
        ),
    }


def bounded_latency_check(
    throttled_ceiling: float, unthrottled_ceiling: float
) -> bool:
    """The acceptance predicate: throttled ceiling strictly below."""
    return 0.0 <= throttled_ceiling < unthrottled_ceiling


def stability_table(report: BenchReport) -> str:
    """Render a BENCH_9 report's matrix as an aligned text table."""
    configs: dict[str, Any] = report.metrics.get("configs", {})
    header = (
        f"{'config':<14} {'engine':<10} {'sched':<12} "
        f"{'rate':>9} {'p99':>10} {'p99.9 ceil':>11} "
        f"{'stalls':>7} {'stall s':>9} {'backpr':>7}"
    )
    lines = [header, "-" * len(header)]
    for name, block in configs.items():
        write = block.get("write", {})
        stalls = block.get("stalls", {})
        lines.append(
            f"{name:<14} {block.get('engine', '?'):<10} "
            f"{block.get('scheduler', '?'):<12} "
            f"{block.get('achieved_rate', 0.0):>9.1f} "
            f"{write.get('p99', 0.0) * 1e3:>9.3f}ms "
            f"{block.get('write_p999_ceiling', 0.0) * 1e3:>10.3f}ms "
            f"{stalls.get('count', 0.0):>7.0f} "
            f"{stalls.get('seconds', 0.0):>9.4f} "
            f"{block.get('backpressure_engagements', 0.0):>7.0f}"
        )
    bounded = report.metrics.get("bounded_latency")
    if bounded:
        verdict = "BOUNDED" if bounded.get("bounded") else "NOT BOUNDED"
        lines.append("")
        lines.append(
            f"bounded latency: {verdict} — {bounded.get('throttled')} "
            f"p99.9 ceiling {bounded.get('throttled_p999_ceiling', 0.0) * 1e3:.3f}ms "
            f"vs {bounded.get('unthrottled')} "
            f"{bounded.get('unthrottled_p999_ceiling', 0.0) * 1e3:.3f}ms "
            f"({bounded.get('ceiling_ratio', 0.0):.1f}x)"
        )
    return "\n".join(lines)


"""Latency statistics and throughput timeseries.

The paper's evaluation reports windowed throughput (ops/sec over elapsed
time, Figures 7 and 9), per-operation latency series, and summary
numbers.  Latencies here are in *virtual* seconds — the clock delta each
operation observed, including merge work and backpressure charged to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class LatencyStats:
    """Streaming latency collector with exact percentiles.

    Keeps every sample (benchmarks run at simulation scale, so the
    sample counts are modest) and sorts lazily.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted = True
        self._max = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._sorted = False
        if seconds > self._max:
            self._max = seconds

    def merge(self, other: "LatencyStats") -> None:
        """Fold another collector's samples into this one."""
        self._samples.extend(other._samples)
        self._sorted = False
        if other._max > self._max:
            self._max = other._max

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        # fsum is exactly rounded, so the mean does not depend on whether
        # a percentile() call has sorted the samples yet.
        return math.fsum(self._samples) / len(self._samples)

    @property
    def max(self) -> float:
        # Maintained incrementally in record(); a rescan here costs O(n)
        # per access and benchmarks read it once per window.
        return self._max

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100), nearest-rank."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(0, math.ceil(p / 100.0 * len(self._samples)) - 1)
        return self._samples[rank]

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max,
        }


@dataclass
class BatchStats:
    """Batch-granularity accounting for the batched runner.

    Per-operation latencies in a batched run all equal their batch's
    latency (every op in the batch completes when the batch does), so
    the batch-level view is where amortization shows: mean batch size,
    and the latency each *round trip* cost.
    """

    batches: int = 0
    operations: int = 0
    latency: "LatencyStats" = field(default_factory=lambda: LatencyStats())

    def record(self, ops: int, seconds: float) -> None:
        self.batches += 1
        self.operations += ops
        self.latency.record(seconds)

    @property
    def mean_size(self) -> float:
        return self.operations / self.batches if self.batches else 0.0

    def summary(self) -> dict[str, object]:
        return {
            "batches": float(self.batches),
            "operations": float(self.operations),
            "mean_size": self.mean_size,
            "latency": self.latency.summary(),
        }


@dataclass
class Window:
    """One timeseries bucket."""

    start: float
    ops: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.ops if self.ops else 0.0


@dataclass
class Timeseries:
    """Windowed ops/sec and latency over virtual time (Figures 7, 9).

    The final window is usually *partial*: observation ends mid-window
    when the run stops.  Dividing its op count by the full window length
    would show a spurious throughput dip at the tail of a plot, so the
    harness records the end of observation (:attr:`end_time`) and the
    final window is scaled by the time actually observed in it.
    """

    window_seconds: float
    windows: list[Window] = field(default_factory=list)
    end_time: float | None = None
    """When observation stopped (virtual seconds).  ``None`` means
    unknown; the final window is then assumed complete."""

    def record(self, t: float, latency: float) -> None:
        index = int(t / self.window_seconds)
        while len(self.windows) <= index:
            self.windows.append(
                Window(start=len(self.windows) * self.window_seconds)
            )
        window = self.windows[index]
        window.ops += 1
        window.latency_sum += latency
        window.latency_max = max(window.latency_max, latency)

    def window_duration(self, index: int) -> float:
        """Observed duration of window ``index`` (the final window is
        truncated at :attr:`end_time` when that is known)."""
        window = self.windows[index]
        if self.end_time is not None and index == len(self.windows) - 1:
            observed = self.end_time - window.start
            if 0.0 < observed < self.window_seconds:
                return observed
        return self.window_seconds

    def throughputs(self) -> list[float]:
        """Ops/sec per window, partial final window scaled."""
        return [
            w.ops / self.window_duration(i) for i, w in enumerate(self.windows)
        ]

    def max_latencies(self) -> list[float]:
        return [w.latency_max for w in self.windows]

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(window start, ops/sec, mean latency, max latency) rows."""
        return [
            (w.start, w.ops / self.window_duration(i), w.mean_latency, w.latency_max)
            for i, w in enumerate(self.windows)
        ]

"""Shared windowed-percentile timeline math.

Latency *timelines* — per-window percentiles over virtual time — are
how production systems (and *On Performance Stability in LSM-based
Storage Systems*, Luo & Carey) surface write stalls and tail-latency
variance that end-of-run aggregates hide.  Before this module the
windowing arithmetic was re-derived in three places: the sessions
runner kept a ``dict[int, LatencyStats]`` by hand, the live-migration
bench carried its own ``_percentile`` plus a fixed-window-count
splitter, and the open-loop runner had no timeline at all.  One
implementation now serves all of them plus the stability bench
(``repro stability``), so every ``BENCH_*.json`` timeline row means the
same thing.

Two windowing styles, one sample store:

* :class:`WindowedTimeline` — fixed window *width* anchored at a base
  time; windows are discovered as samples land in them.  Right for
  live recording where the run length is unknown.
* :func:`windows_over_span` — fixed window *count* over an already
  collected ``(t, value)`` series.  Right for post-hoc slicing where a
  plot wants exactly N columns regardless of run length.

Percentiles are exact nearest-rank (windows hold modest sample counts
at simulation scale), and ``99.9`` renders as the key ``p999``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

DEFAULT_PERCENTILES = (50.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """Exact nearest-rank ``p``-th percentile (0-100) of ``values``.

    Returns 0.0 for an empty sequence; does not mutate the input.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def percentile_key(p: float) -> str:
    """The JSON key for percentile ``p``: 50 -> ``p50``, 99.9 -> ``p999``."""
    text = f"{p:g}".replace(".", "")
    return f"p{text}"


class WindowedTimeline:
    """Fixed-width windows over virtual time, with named sample channels.

    Each window accumulates raw samples per *channel* (``queue``,
    ``write``, ...) plus plain additive counters (stall seconds, event
    counts).  :meth:`rows` emits one flat dict per non-empty window:
    ``t`` (window start), then per channel ``<chan>_n`` /
    ``<chan>_p50`` / ``<chan>_p99`` / ``<chan>_p999`` / ``<chan>_max``
    (percentile set configurable) and each counter under its own name.
    """

    def __init__(
        self,
        window_seconds: float,
        base: float = 0.0,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    ) -> None:
        if window_seconds <= 0.0:
            raise ValueError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        self.window_seconds = window_seconds
        self.base = base
        self.percentiles = tuple(percentiles)
        self._samples: dict[int, dict[str, list[float]]] = {}
        self._counters: dict[int, dict[str, float]] = {}

    def index_of(self, t: float) -> int:
        """The window index time ``t`` falls into (clamped at 0)."""
        return max(0, int((t - self.base) / self.window_seconds))

    def window_start(self, index: int) -> float:
        return self.base + index * self.window_seconds

    def record(self, t: float, channel: str, value: float) -> None:
        """Add one latency/value sample to ``channel``'s window at ``t``."""
        self.record_in(self.index_of(t), channel, value)

    def record_in(self, index: int, channel: str, value: float) -> None:
        """Add one sample to ``channel`` in window ``index`` (a caller
        that files several samples per event computes the index once)."""
        window = self._samples.get(index)
        if window is None:
            window = self._samples[index] = {}
        samples = window.get(channel)
        if samples is None:
            window[channel] = [value]
        else:
            samples.append(value)

    def add(self, t: float, counter: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into additive ``counter`` at time ``t``."""
        window = self._counters.setdefault(self.index_of(t), {})
        window[counter] = window.get(counter, 0.0) + amount

    def channel(self, index: int, channel: str) -> list[float]:
        """The raw samples of ``channel`` in window ``index`` (may be [])."""
        return list(self._samples.get(index, {}).get(channel, ()))

    def __len__(self) -> int:
        return len(self._samples.keys() | self._counters.keys())

    def rows(self) -> list[dict[str, float]]:
        """One flat summary dict per non-empty window, in time order."""
        out: list[dict[str, float]] = []
        for index in sorted(self._samples.keys() | self._counters.keys()):
            row: dict[str, float] = {
                "t": round(self.window_start(index), 9)
            }
            for channel, samples in sorted(
                self._samples.get(index, {}).items()
            ):
                row[f"{channel}_n"] = float(len(samples))
                for p in self.percentiles:
                    row[f"{channel}_{percentile_key(p)}"] = percentile(
                        samples, p
                    )
                row[f"{channel}_max"] = max(samples) if samples else 0.0
            for counter, value in sorted(
                self._counters.get(index, {}).items()
            ):
                row[counter] = value
            out.append(row)
        return out

    def channel_ceiling(self, channel: str, p: float) -> float:
        """Max over windows of ``channel``'s ``p``-th percentile.

        The *ceiling* of a windowed percentile series is the stability
        headline: a scheduler bounds write latency exactly when this
        number stays small for p = 99.9.
        """
        worst = 0.0
        for window in self._samples.values():
            samples = window.get(channel)
            if samples:
                worst = max(worst, percentile(samples, p))
        return worst


def windows_over_span(
    samples: Iterable[tuple[float, float]],
    windows: int,
    percentiles: Sequence[float] = (50.0, 99.0),
) -> list[dict[str, Any]]:
    """Slice ``(t, value)`` samples into exactly ``windows`` columns.

    The span is ``[0, t_last]``; trailing samples at or past the final
    boundary fold into the last window (the live-migration bench's
    fixed-column timeline).  Empty input yields ``[]``.  Each row is
    ``{"t": window_start, "ops": n, "p50": ..., "p99": ...}`` with the
    percentile set configurable.
    """
    ordered = sorted(samples)
    if not ordered:
        return []
    t_end = ordered[-1][0] or 1.0
    span = max(t_end / windows, 1e-9)
    out: list[dict[str, Any]] = []
    for window in range(windows):
        w_lo, w_hi = window * span, (window + 1) * span
        values = [
            value
            for t, value in ordered
            if w_lo <= t < w_hi or (window == windows - 1 and t >= w_hi)
        ]
        row: dict[str, Any] = {"t": w_lo, "ops": len(values)}
        for p in percentiles:
            row[percentile_key(p)] = percentile(values, p)
        out.append(row)
    return out

"""The one context object every layer of an engine shares.

An :class:`EngineRuntime` bundles the virtual clock, the metrics
registry, the trace recorder and the set of simulated devices.  It is
created once (usually by :class:`~repro.storage.stasis.Stasis`) and
passed down the stack, replacing the previous ad-hoc plumbing where each
layer held its own counters and benchmarks reached into ``SimDisk.stats``
directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_CAPACITY, TraceRecorder
from repro.sim.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.disk import SimDisk


class EngineRuntime:
    """Clock + disks + metrics registry + trace recorder for one engine."""

    def __init__(
        self,
        clock: VirtualClock | None = None,
        trace_capacity: int = DEFAULT_CAPACITY,
        observability: bool = True,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder(self.clock, capacity=trace_capacity)
        self.disks: list["SimDisk"] = []
        #: Whether per-access instrumentation (device counters, trace
        #: events) is recorded at all.  ``False`` is the hot path's
        #: no-op fast path: devices skip their metric/trace dispatch
        #: entirely and the trace recorder is disabled, while simulated
        #: timing and :class:`~repro.sim.stats.IOStats` stay identical.
        self.observability = observability
        if not observability:
            self.trace.enabled = False

    @property
    def now(self) -> float:
        """Current virtual time (convenience passthrough)."""
        return self.clock.now

    def register_disk(self, disk: "SimDisk") -> None:
        """Called by each :class:`SimDisk` built against this runtime."""
        self.disks.append(disk)

    def disk_busy_seconds(self) -> float:
        """Total device busy time across every registered disk."""
        return sum(
            self.metrics.value(f"disk.{disk.name}.busy_seconds")
            for disk in self.disks
        )

    def device_summary(self) -> list[dict[str, Any]]:
        """Per-device utilization and fg/bg attribution rows.

        Utilization is busy time over the observation window; the window
        ends at the furthest device horizon, since background work can be
        queued beyond the foreground clock.  ``backlog_seconds`` is how
        far each device's horizon is ahead of the clock right now — the
        queue depth, expressed in time.  ``sequential_efficiency`` is the
        share of busy time spent transferring rather than positioning
        (from the device's own ``IOStats``, kept with observability off).
        """
        elapsed = max(
            [self.clock.now] + [disk.busy_until for disk in self.disks]
        )
        rows: list[dict[str, Any]] = []
        for disk in self.disks:
            prefix = f"disk.{disk.name}"
            busy = self.metrics.value(f"{prefix}.busy_seconds")
            bg_busy = self.metrics.value(f"{prefix}.bg_busy_seconds")
            rows.append(
                {
                    "disk": disk.name,
                    "busy_seconds": busy,
                    "fg_busy_seconds": busy - bg_busy,
                    "bg_busy_seconds": bg_busy,
                    "fg_wait_seconds": self.metrics.value(
                        f"{prefix}.fg_wait_seconds"
                    ),
                    "bg_wait_seconds": self.metrics.value(
                        f"{prefix}.bg_wait_seconds"
                    ),
                    "utilization": busy / elapsed if elapsed > 0 else 0.0,
                    "sequential_efficiency": disk.stats.sequential_efficiency,
                    "backlog_seconds": max(
                        0.0, disk.busy_until - self.clock.now
                    ),
                }
            )
        return rows

    def __repr__(self) -> str:
        return (
            f"EngineRuntime(t={self.clock.now:.6f}, "
            f"disks={[d.name for d in self.disks]!r})"
        )

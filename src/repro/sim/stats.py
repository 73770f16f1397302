"""I/O statistics counters.

The paper characterizes indexes by *read amplification* (worst-case seeks
per probe) and *write amplification* (total sequential I/O per byte
written), Section 2.1.  :class:`IOStats` records the raw counters those
metrics are computed from; every :class:`~repro.sim.disk.SimDisk` owns one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass
class IOStats:
    """Cumulative I/O counters for one simulated device.

    Attributes:
        seeks: number of non-sequential accesses (head repositioning).
        write_seeks: the share of ``seeks`` caused by writes (sequential
            writers that take turns on one head show up here).
        read_ops: number of read requests serviced.
        write_ops: number of write requests serviced.
        bytes_read: total bytes transferred from the device.
        bytes_written: total bytes transferred to the device.
        busy_seconds: total virtual time the device spent servicing I/O.
        seek_seconds: the share of ``busy_seconds`` spent positioning
            the head; the rest transferred bytes (a device that streams
            keeps this share small).
        bg_busy_seconds: the share of ``busy_seconds`` issued from a
            background :class:`~repro.sim.clock.Timeline` (the log
            writer's); the remainder was synchronous foreground service.
        queue_wait_seconds: total time requesters spent queued behind the
            device's busy horizon before their access started.
        fg_wait_seconds: the share of ``queue_wait_seconds`` paid by
            synchronous foreground requests (the rest delayed only the
            log writer).
    """

    seeks: int = 0
    write_seeks: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_seconds: float = 0.0
    seek_seconds: float = 0.0
    bg_busy_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    fg_wait_seconds: float = 0.0

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return replace(self)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return the counters accumulated since the ``earlier`` snapshot."""
        return IOStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    @property
    def sequential_efficiency(self) -> float:
        """Share of busy time spent transferring rather than positioning.

        Near 1.0 the device streams; near 0.0 it seeks.  An idle device
        has wasted nothing and reports 1.0.
        """
        if self.busy_seconds <= 0.0:
            return 1.0
        return 1.0 - self.seek_seconds / self.busy_seconds

    @property
    def total_bytes(self) -> int:
        """Total bytes transferred in either direction."""
        return self.bytes_read + self.bytes_written

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )
